"""Which public functions belong to which layer, and how to wrap them.

Simulator layers: ``scheduler`` (the node ready queues), ``network``
(the Ethernet model), ``sync`` (``repro.sim.sync`` operations), ``obs``
(``MetricsRegistry`` updates) and ``user`` (the workload's own code).
The engine is measured by ``repro.perf.hotprof.profile_runs()``, and the
kernel is what dispatch time is left after the other layers.

Live-runtime layers: ``transport`` (``send_frame``: pickling plus
``sendall``), ``rtkernel`` (node 0's wait for replies, one dispatch
thread per incoming request) and ``obs``.  Each node process counts its
own; node 1's counts come back through :class:`LayerProbe`.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, Iterable, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.runtime import AmberObject
from repro.runtime import transport as _transport
from repro.runtime.kernel import NodeKernel
from repro.sim import sync as _sync
from repro.sim.network import Ethernet
from repro.sim.scheduler import FifoScheduler, LifoScheduler, \
    PriorityScheduler

from amberbench.tracing import Tracer

SCHEDULERS = (FifoScheduler, LifoScheduler, PriorityScheduler)
SCHEDULER_OPS = ("enqueue", "dequeue", "remove")
NETWORK_OPS = ("send", "send_reliable")
SYNC_OPS = (
    (_sync.Lock, ("acquire", "release", "try_acquire")),
    (_sync.SpinLock, ("acquire", "release")),
    (_sync.Barrier, ("wait",)),
    (_sync.Monitor, ("enter", "exit")),
    (_sync.CondVar, ("wait", "signal", "broadcast")),
    (_sync.ReaderWriterLock, ("acquire_read", "release_read",
                              "acquire_write", "release_write")),
)
OBS_OPS = ("inc", "observe", "sample")


def attach_sim(tracer: Tracer,
               user: Iterable[Tuple[Any, str]],
               user_resumes: bool) -> None:
    """Wrap every simulator layer; ``user`` names the workload's own
    functions (generator operations when ``user_resumes``)."""
    for cls in SCHEDULERS:
        for name in SCHEDULER_OPS:
            tracer.wrap(cls, name, "scheduler")
    for name in NETWORK_OPS:
        tracer.wrap(Ethernet, name, "network")
    for cls, names in SYNC_OPS:
        for name in names:
            tracer.wrap(cls, name, "sync", resumes=True)
    for name in OBS_OPS:
        tracer.wrap(MetricsRegistry, name, "obs")
    for owner, name in user:
        tracer.wrap(owner, name, "user", resumes=user_resumes)


class _CountingSocket:
    """Counts the bytes ``send_frame`` hands to ``sendall``."""

    __slots__ = ("sock", "sent")

    def __init__(self, sock: Any) -> None:
        self.sock = sock
        self.sent = 0

    def sendall(self, data: bytes) -> None:
        self.sent += len(data)
        self.sock.sendall(data)


def _send_frame(tracer: Tracer) -> Callable[[Callable], Callable]:
    def build(original: Callable) -> Callable:
        @functools.wraps(original)
        def send_frame(sock: Any, payload: Any) -> None:
            counting = _CountingSocket(sock)
            frame = tracer.enter("transport:send_frame", call=True)
            try:
                original(counting, payload)
            finally:
                tracer.exit(frame)
            tracer.count("frames_sent")
            tracer.count("bytes_sent", counting.sent)
        return send_frame
    return build


def _counted(tracer: Tracer, key: str) -> Callable[[Callable], Callable]:
    """A wrapper that only counts calls: for functions that block
    waiting for input (``recv_frame``) or run a whole request on its
    own thread (``NodeKernel._dispatch``)."""
    def build(original: Callable) -> Callable:
        @functools.wraps(original)
        def counted(*args: Any, **kwargs: Any) -> Any:
            tracer.count(key)
            return original(*args, **kwargs)
        return counted
    return build


def attach_live(tracer: Tracer) -> None:
    """Wrap the live runtime's layers in this process."""
    tracer.wrap(_transport, "send_frame", "transport",
                wrapper=_send_frame(tracer))
    tracer.wrap(_transport, "recv_frame", "transport",
                wrapper=_counted(tracer, "frames_recv"))
    tracer.wrap(NodeKernel, "_dispatch", "rtkernel",
                wrapper=_counted(tracer, "threads_started"))
    tracer.wrap(NodeKernel, "_await_hardened", "rtkernel")
    for name in OBS_OPS:
        tracer.wrap(MetricsRegistry, name, "obs")


def live_summary(tracer: Tracer) -> Dict[str, float]:
    summary: Dict[str, float] = dict(tracer.counts)
    for layer in ("transport", "rtkernel", "obs"):
        summary[f"{layer}_s"] = tracer.self_s(layer)
        summary[f"{layer}_calls"] = tracer.calls(layer)
    return summary


class LayerProbe(AmberObject):
    """Lives on node 1 and traces that node's process on request."""

    def __init__(self) -> None:
        self._tracer = None

    def attach(self) -> bool:
        self._tracer = Tracer()
        attach_live(self._tracer)
        return True

    def detach(self) -> Dict[str, float]:
        tracer = self._tracer
        tracer.restore()
        self._tracer = None
        return live_summary(tracer)
