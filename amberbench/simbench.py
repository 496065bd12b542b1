"""Measurement shared by the simulator workloads.

A rep is one complete simulated program run.  Every rep of a run must
give the same simulated quantities (its *fingerprint*), with tracing on
or off; a run whose fingerprints differ is a failed run.
"""

from __future__ import annotations

import functools
import statistics
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.perf.hotprof import profile_runs

from amberbench.hostspeed import Clock
from amberbench.layers import attach_sim
from amberbench.steal import cpu_times, least_stolen, steal_frac
from amberbench.tracing import Tracer


def fingerprint(result: Any) -> Tuple:
    """The simulated quantities of one rep: events, makespan, kernel
    and network counts."""
    cluster = result.cluster
    stats = result.stats
    net = cluster.network.stats
    return (
        cluster.sim.events_run, result.elapsed_us,
        stats.total_local_invocations, stats.total_remote_invocations,
        stats.thread_migrations, stats.object_moves, stats.locates,
        stats.forwarding_hops_followed, stats.replications,
        sum(node.context_switches for node in stats.nodes),
        net.messages, net.bytes, net.busy_us, net.queueing_us,
    )


class Phase:
    """The reps of one timed phase, with their outcomes."""

    def __init__(self) -> None:
        #: Ops per reference second (see amberbench.hostspeed).
        self.rates: List[float] = []
        #: Host slowdown over each rep.
        self.slowdowns: List[float] = []
        #: Share of the machine's busy CPU time stolen during each rep.
        self.steals: List[float] = []
        self.seconds = 0.0
        self.fingerprints: List[Tuple] = []
        self.attempted = 0
        self.failed = 0
        self.last: Any = None

    @property
    def reps(self) -> int:
        return len(self.rates)

    @property
    def ops_per_s(self) -> float:
        return statistics.median(least_stolen(self.rates, self.steals))

    @property
    def host_ops_per_s(self) -> float:
        """The same, per host second."""
        return statistics.median(least_stolen(
            [rate / slowdown for rate, slowdown
             in zip(self.rates, self.slowdowns)], self.steals))


def run_phase(workload: Any, seconds: float, min_reps: int,
              on_rep: Callable[[int], None] = lambda rep: None) -> Phase:
    """Run reps until ``seconds`` have passed (at least ``min_reps``)."""
    phase = Phase()
    clock = Clock()
    phase.slowdowns = clock.slowdowns
    deadline = perf_counter() + seconds
    while phase.reps < min_reps or perf_counter() < deadline:
        on_rep(phase.reps)
        before = cpu_times()
        t0 = perf_counter()
        try:
            result = workload.run()
        except Exception:
            result = None
        elapsed = perf_counter() - t0
        phase.steals.append(steal_frac(before, cpu_times()))
        phase.seconds += elapsed
        phase.rates.append(workload.ops / clock.rep_s(elapsed))
        phase.attempted += workload.ops
        if result is None:
            phase.failed += workload.ops
            phase.fingerprints.append(("raised",))
            continue
        phase.failed += workload.wrong(result)
        phase.fingerprints.append(fingerprint(result))
        phase.last = result
    return phase


def remote_latencies(workload: Any) -> Tuple[List[float], Any]:
    """One more rep, recording every simulated remote-invocation latency
    exactly (the registry's histogram keeps only log buckets)."""
    values: List[float] = []
    tracer = Tracer()

    def recording(original: Callable) -> Callable:
        @functools.wraps(original)
        def observe(self: Any, name: str, value: float) -> None:
            if name == "invoke_remote_us":
                values.append(value)
            original(self, name, value)
        return observe

    tracer.wrap(MetricsRegistry, "observe", "obs", wrapper=recording)
    try:
        result = workload.run()
    finally:
        tracer.restore()
    return values, result


def profiled_phases(workload: Any, seconds: float, min_reps: int
                    ) -> Tuple[Phase, Any, Phase, Tracer]:
    """Two phases: one with only the engine profiled, for the engine
    and the kernel's share of dispatch, and one with every layer
    wrapped as well, for the other layers.  The wrappers' own cost
    lands in dispatch, which is why dispatch comes from the first."""
    with profile_runs() as engine:
        profiled = run_phase(workload, seconds / 2, min_reps)
    with profile_runs() as profiler:
        tracer = Tracer(pushed=lambda: profiler.heap_push_s)
        tracer.calibrate()
        attach_sim(tracer, workload.user, workload.user_resumes)
        try:
            traced = run_phase(workload, seconds / 2, min_reps,
                               on_rep=lambda rep: setattr(tracer, "op_id",
                                                          rep))
        finally:
            tracer.restore()
    return profiled, engine, traced, tracer


def layer_metrics(profiled: Phase, engine: Any, traced: Phase,
                  tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics, per rep."""
    reps = traced.reps
    result = traced.last
    stats = result.stats
    net = result.cluster.network.stats
    metrics = result.cluster.metrics
    phases = engine.phases()
    dispatch_s = phases["dispatch"] / profiled.reps
    layer_s = {layer: tracer.self_s(layer) / reps
               for layer in ("user", "sync", "scheduler", "network", "obs")}
    local = stats.total_local_invocations
    remote = stats.total_remote_invocations

    def p(name: str, q: float) -> float:
        histogram = metrics.histograms.get(name)
        return histogram.percentile(q) if histogram is not None else 0.0

    return {
        "engine.events": engine.events / profiled.reps,
        "engine.heap_s": (phases["heap-pop"] + phases["heap-push"])
        / profiled.reps,
        "engine.dispatch_s": dispatch_s,
        "scheduler.calls": tracer.calls("scheduler") / reps,
        "scheduler.s": layer_s["scheduler"],
        "scheduler.context_switches": sum(node.context_switches
                                          for node in stats.nodes),
        "kernel.invocations_local": local,
        "kernel.invocations_remote": remote,
        "kernel.remote_share": remote / max(1, local + remote),
        "kernel.thread_migrations": stats.thread_migrations,
        "kernel.object_moves": stats.object_moves,
        "kernel.locates": stats.locates,
        "kernel.forwarding_hops": stats.forwarding_hops_followed,
        "kernel.replications": stats.replications,
        "kernel.invoke_remote_p50_us": p("invoke_remote_us", 50),
        "kernel.invoke_remote_p99_us": p("invoke_remote_us", 99),
        "kernel.self_s": max(0.0, dispatch_s - sum(layer_s.values())),
        "network.messages": net.messages,
        "network.bytes": net.bytes,
        "network.utilization": net.utilization(result.elapsed_us),
        "network.queueing_us": net.queueing_us,
        "network.s": layer_s["network"],
        "sync.ops": tracer.calls("sync") / reps,
        "sync.s": layer_s["sync"],
        "sync.lock_wait_p50_us": p("lock_wait_us", 50),
        "user.s": layer_s["user"],
        "user.share": layer_s["user"] * profiled.reps / profiled.seconds,
        "obs.calls": tracer.calls("obs") / reps,
        "obs.s": layer_s["obs"],
    }
