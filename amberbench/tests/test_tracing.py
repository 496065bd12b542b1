"""The benchmark's tracing must be passive and must time the right code.

Run with ``python3 -m pytest amberbench/tests``.
"""

from time import perf_counter

from repro.obs.metrics import MetricsRegistry
from repro.runtime import transport
from repro.runtime.kernel import NodeKernel
from repro.sim import AmberProgram, ClusterConfig, Compute, Invoke, New, \
    SimObject
from repro.sim.network import Ethernet

from amberbench import layers, simbench
from amberbench.mobility_sim import MobilitySim
from amberbench.tracing import Tracer

SPIN_S = 0.02


def _spin(seconds):
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


class Busy(SimObject):
    def work(self, ctx):
        _spin(SPIN_S)
        yield Compute(100.0)
        _spin(SPIN_S)
        return 1


def _busy_main(ctx):
    busy = yield New(Busy, on_node=1)
    return (yield Invoke(busy, "work"))


def _run_busy(resumes):
    tracer = Tracer()
    tracer.wrap(Busy, "work", "user", resumes=resumes)
    try:
        result = AmberProgram(ClusterConfig(nodes=2)).run(_busy_main)
    finally:
        tracer.restore()
    assert result.value == 1
    return tracer


def _patch_points(workload):
    points = [(cls, name) for cls in layers.SCHEDULERS
              for name in layers.SCHEDULER_OPS]
    points += [(Ethernet, name) for name in layers.NETWORK_OPS]
    points += [(cls, name) for cls, names in layers.SYNC_OPS
               for name in names]
    points += [(MetricsRegistry, name) for name in layers.OBS_OPS]
    points += [(transport, "send_frame"), (transport, "recv_frame"),
               (NodeKernel, "_dispatch"), (NodeKernel, "_await_hardened")]
    return points + list(workload.user)


def test_traced_run_restores_every_wrapped_function():
    workload = MobilitySim(seed=3)
    points = _patch_points(workload)
    before = [vars(owner)[name] for owner, name in points]
    simbench.profiled_phases(workload, seconds=0.0, min_reps=1)
    tracer = Tracer()
    layers.attach_live(tracer)
    assert transport.send_frame is not before[points.index(
        (transport, "send_frame"))]
    tracer.restore()
    after = [vars(owner)[name] for owner, name in points]
    assert all(a is b for a, b in zip(after, before))


def test_restore_after_a_failing_phase():
    workload = MobilitySim(seed=3)
    original = vars(MetricsRegistry)["observe"]

    def explode():
        raise RuntimeError("rep failed")

    workload.run = explode
    phase = simbench.profiled_phases(workload, seconds=0.0, min_reps=1)[2]
    assert phase.failed == phase.attempted == workload.ops
    assert vars(MetricsRegistry)["observe"] is original


def test_resume_timing_covers_the_operation_body():
    resumed = _run_busy(resumes=True)
    created = _run_busy(resumes=False)
    # Both halves of the body run in resumes, not in the call.
    assert resumed.self_s("user") >= 2 * SPIN_S
    assert created.self_s("user") < SPIN_S / 2
    assert resumed.calls("user") == created.calls("user") == 1


def test_nested_spans_book_self_time_once():
    class Pair:
        def outer(self):
            _spin(SPIN_S)
            self.inner()

        def inner(self):
            _spin(SPIN_S)

    tracer = Tracer()
    tracer.wrap(Pair, "outer", "a")
    tracer.wrap(Pair, "inner", "b")
    Pair().outer()
    tracer.restore()
    assert SPIN_S <= tracer.self_s("a") < 1.5 * SPIN_S
    assert SPIN_S <= tracer.self_s("b") < 1.5 * SPIN_S
    names = {span[1]: span for span in tracer.spans}
    assert names["b:Pair.inner"][4] == names["a:Pair.outer"][0]
