"""The live kernel's dispatch pool and its counters.

Incoming requests run on cached worker threads: an idle worker is
reused, a busy pool grows instead of making a request wait (handlers
block), idle workers retire, and shutdown stops them.  The kernel's
counters are bumped from all of those threads at once, so they are
updated under one lock.
"""

import sys
import threading
import time

import pytest

from repro.runtime import AmberObject, Barrier, Cluster, current_node
from repro.runtime import kernel as kernel_module
from repro.runtime.handles import Handle
from repro.runtime.kernel import _DispatchPool


class Box(AmberObject):
    def __init__(self):
        self.count = 0

    def bump(self):
        self.count += 1
        return self.count

    def slow_bump(self, delay):
        time.sleep(delay)
        return self.bump()


class Relay(AmberObject):
    """Calls back and forth across nodes on one logical thread."""

    def hop(self, other, depth):
        here = [current_node()]
        if depth == 0:
            return here
        # A Handle, not ``self``: a raw object would travel by value.
        return here + other.hop(Handle(self.amber_vaddr), depth - 1)


class Probe(AmberObject):
    def workers(self):
        """How many dispatch workers are alive in this process."""
        return len(_workers())


def _workers(exclude=()):
    return [thread for thread in threading.enumerate()
            if thread.name.startswith("amber-worker-")
            and thread not in exclude]


def _wait_until(predicate, timeout_s):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.02)
    return True


@pytest.fixture(scope="module")
def cluster():
    with Cluster(nodes=2) as c:
        yield c


class _FakeKernel:
    """The two kernel attributes the pool uses."""

    node_id = 7

    def __init__(self, dispatch):
        self._dispatch = dispatch
        self.started = 0

    def _count(self, key, n=1):
        assert key == "workers_started"
        self.started += n


class TestPool:
    def test_sequential_messages_reuse_one_worker(self):
        done = []
        finished = threading.Semaphore(0)
        kernel = _FakeKernel(lambda message: (done.append(message),
                                              finished.release()))
        pool = _DispatchPool(kernel)
        try:
            for message in range(50):
                pool.submit(message)
                assert finished.acquire(timeout=5)
                assert _wait_until(lambda: len(pool._idle) == 1, 5)
            assert done == list(range(50))
            assert kernel.started == 1
        finally:
            pool.shutdown()

    def test_blocked_workers_never_delay_a_submit(self):
        gate = threading.Event()
        arrived = threading.Semaphore(0)

        def dispatch(message):
            arrived.release()
            gate.wait(10)

        kernel = _FakeKernel(dispatch)
        pool = _DispatchPool(kernel)
        try:
            for message in range(16):
                pool.submit(message)
            for _ in range(16):
                assert arrived.acquire(timeout=5)
            assert kernel.started == 16
        finally:
            gate.set()
            pool.shutdown()

    def test_every_message_dispatched_once_as_workers_retire(
            self, monkeypatch):
        # Workers time out almost at once, so retirement races with
        # submits popping them: a popped worker must still serve.
        monkeypatch.setattr(kernel_module, "WORKER_IDLE_S", 0.0005)
        seen = []
        lock = threading.Lock()

        def dispatch(message):
            with lock:
                seen.append(message)

        pool = _DispatchPool(_FakeKernel(dispatch))

        def producer(base):
            for offset in range(500):
                pool.submit(base + offset)
                if offset % 7 == 0:
                    time.sleep(0.0005)

        producers = [threading.Thread(target=producer, args=(base,))
                     for base in (0, 1000, 2000, 3000)]
        try:
            for thread in producers:
                thread.start()
            for thread in producers:
                thread.join()
            assert _wait_until(lambda: len(seen) == 2000, 10), len(seen)
            assert sorted(seen) == [base + offset
                                    for base in (0, 1000, 2000, 3000)
                                    for offset in range(500)]
            assert _wait_until(lambda: len(pool._idle) == 0, 5)
        finally:
            pool.shutdown()

    def test_shutdown_stops_parked_workers_and_refuses_messages(self):
        before = set(threading.enumerate())
        done = []
        pool = _DispatchPool(_FakeKernel(done.append))
        for message in range(3):
            pool.submit(message)
        assert _wait_until(lambda: len(done) == 3, 5)
        pool.shutdown()
        assert _wait_until(lambda: not _workers(before), 2)
        pool.submit("late")
        time.sleep(0.05)
        assert "late" not in done


class TestCounters:
    def test_concurrent_counts_are_exact(self):
        with Cluster(nodes=1) as cluster:
            kernel = cluster.kernel
            before = kernel.node_stats(0)["resends"]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(
                    target=lambda: [kernel._count("resends")
                                    for _ in range(20_000)])
                    for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            finally:
                sys.setswitchinterval(interval)
            assert kernel.node_stats(0)["resends"] - before == 160_000

    def test_sequential_requests_reuse_dispatch_workers(self, cluster):
        box = cluster.create(Box, node=1)
        before = cluster.node_stats(1)
        for expected in range(1, 201):
            assert box.bump() == expected
        after = cluster.node_stats(1)
        assert after["invocations_executed"] - \
            before["invocations_executed"] == 200
        assert after["workers_started"] - before["workers_started"] <= 2


class TestBlockingHandlers:
    def test_sixteen_forks_meet_at_a_remote_barrier(self, cluster):
        # Every party parks a node-1 worker until the last one arrives:
        # a pool capped below 16 workers would never release them.
        barrier = cluster.create(Barrier, 16, node=1)
        threads = [cluster.fork(barrier, "wait", 20) for _ in range(16)]
        results = [thread.join(timeout=30) for thread in threads]
        assert results.count(True) == 1
        assert results.count(False) == 15

    def test_reentrant_cross_node_chain(self, cluster):
        far = cluster.create(Relay, node=1)
        near = cluster.create(Relay, node=0)
        assert far.hop(near, 7) == [1, 0] * 4


class TestWorkerLifetime:
    def test_shutdown_leaves_no_driver_workers(self):
        before = set(threading.enumerate())
        with Cluster(nodes=2) as cluster:
            far = cluster.create(Relay, node=1)
            near = cluster.create(Relay, node=0)
            assert far.hop(near, 3) == [1, 0, 1, 0]
            # The driver (node 0) served the hops to ``near`` on its
            # own workers, which are now parked.
            assert _workers(before)
        assert _wait_until(lambda: not _workers(before), 2), \
            _workers(before)

    def test_idle_workers_retire_after_a_burst(self, monkeypatch):
        # Set before the fork, so node 1's process inherits it.
        monkeypatch.setattr(kernel_module, "WORKER_IDLE_S", 0.05)
        with Cluster(nodes=2) as cluster:
            box = cluster.create(Box, node=1)
            probe = cluster.create(Probe, node=1)
            started = cluster.node_stats(1)["workers_started"]
            threads = [threading.Thread(
                target=lambda: [box.slow_bump(0.02) for _ in range(5)])
                for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert box.bump() == 41
            assert cluster.node_stats(1)["workers_started"] - started >= 4
            # Only the worker serving this very call is left.
            assert _wait_until(lambda: probe.workers() == 1, 2), \
                probe.workers()
