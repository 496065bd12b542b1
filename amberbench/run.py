#!/usr/bin/env python3
"""The repository benchmark: three seeded workloads, split by layer.

Usage (from the repository root)::

    python3 amberbench/run.py --workload sor-sim --seed 1 --seconds 36 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs half the time untraced and half with every layer's
public functions wrapped, and reports the per-layer metrics, the
tracing overhead, and a span file under ``.amberbench/``.  Metric names
and units come from ``BENCHMARK.json``.  The last line of output is one
JSON object; every line before it is a human-readable report.

Workloads and the reasons for them are in ``amberbench/NOTES.md``.
"""

import time

#: Workload start: setup_s counts from here (imports included).
T_START = time.perf_counter()

import argparse  # noqa: E402
from array import array  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".amberbench")
WORKLOADS = ("sor-sim", "mobility-sim", "live-mix")
#: Extra processes that each repeat the set-up, so setup_s is a median.
SETUP_PROBES = 4
MIN_REPS = 3
SIM_LAYERS = ("engine.", "scheduler.", "kernel.", "network.", "sync.",
              "user.")
LIVE_LAYERS = ("transport.", "rtkernel.", "circuit.")


def _now() -> float:
    return time.perf_counter()


def _set_up() -> dict:
    """The set-up's host seconds, and the host's slowdown just after
    it (see amberbench.hostspeed)."""
    host_s = _now() - T_START
    from amberbench.hostspeed import slowdown
    return {"host_s": host_s, "slowdown": slowdown()}


def _sim_workload(name: str, seed: int):
    if name == "sor-sim":
        from amberbench.sor_sim import SorSim
        return SorSim(seed)
    from amberbench.mobility_sim import MobilitySim
    return MobilitySim(seed)


# -- simulator workloads -----------------------------------------------------


def run_sim(args) -> dict:
    workload = _sim_workload(args.workload, args.seed)
    # The program's set-up ends here; the harness is not part of it.
    out = {"setup": _set_up()}
    from amberbench import simbench

    if not args.trace:
        phase = simbench.run_phase(workload, args.seconds, MIN_REPS)
        latencies, oracle = simbench.remote_latencies(workload)
        out["fingerprints"] = phase.fingerprints + [
            simbench.fingerprint(oracle)]
        out["attempted"] = phase.attempted + workload.ops
        out["failed"] = phase.failed + workload.wrong(oracle)
        out["metrics"] = {
            "ops_per_s": phase.ops_per_s,
            "sim_elapsed_ms": oracle.elapsed_us / 1000,
            "op_p50_us": statistics.median(latencies),
        }
        out["detail"] = {"reps": phase.reps,
                         "host_ops_per_s": phase.host_ops_per_s,
                         "host_slowdown": statistics.median(
                             phase.slowdowns),
                         "events": oracle.cluster.sim.events_run,
                         "remote_invocations": len(latencies)}
        return out
    third = args.seconds / 3
    untraced = simbench.run_phase(workload, third, MIN_REPS)
    profiled, engine, traced, tracer = simbench.profiled_phases(
        workload, 2 * third, MIN_REPS)
    metrics = simbench.layer_metrics(profiled, engine, traced, tracer)
    metrics["trace.overhead_frac"] = 1 - traced.ops_per_s / \
        untraced.ops_per_s
    phases = (untraced, profiled, traced)
    out["fingerprints"] = [fp for phase in phases
                           for fp in phase.fingerprints]
    out["attempted"] = sum(phase.attempted for phase in phases)
    out["failed"] = sum(phase.failed for phase in phases)
    out["metrics"] = metrics
    out["tracer"] = tracer
    out["detail"] = {"reps": [phase.reps for phase in phases],
                     "hotloop_attributed": engine.attributed_fraction,
                     "span_cost_us": tracer.span_cost_s * 1e6}
    return out


# -- live runtime ------------------------------------------------------------


def _live_phase(client, seconds: float, tracer=None):
    """Passes until ``seconds`` have passed.  Returns the median ops per
    reference second and the latency samples by op kind in reference
    time (see amberbench.hostspeed), both over the least-stolen half of
    the passes."""
    from amberbench.hostspeed import Clock
    from amberbench.steal import cpu_times, least_stolen, steal_frac

    rates, steals, passes = [], [], []
    clock = Clock()
    deadline = _now() + seconds
    while len(rates) < MIN_REPS or _now() < deadline:
        samples: dict = {}
        before = cpu_times()
        t0 = _now()
        client.run_pass(samples, tracer)
        elapsed = _now() - t0
        steals.append(steal_frac(before, cpu_times()))
        rates.append(len(client.plan.ops) / clock.rep_s(elapsed))
        slowdown = clock.slowdowns[-1]
        passes.append({kind: array("d", [value / slowdown
                                         for value in values])
                       for kind, values in samples.items()})
    samples = {}
    for kept in least_stolen(passes, steals):
        for kind, values in kept.items():
            samples.setdefault(kind, array("d")).extend(values)
    kept_rates = least_stolen(rates, steals)
    return statistics.median(kept_rates), samples, {
        "passes": len(rates),
        "host_ops_per_s": statistics.median(least_stolen(
            [rate / slowdown for rate, slowdown
             in zip(rates, clock.slowdowns)], steals)),
        "host_slowdown": statistics.median(clock.slowdowns)}


def _node_counts(cluster) -> dict:
    """Kernel and circuit counters summed over the nodes."""
    total: dict = {}
    for node in range(cluster.num_nodes):
        for key, value in cluster.node_stats(node).items():
            total[key] = total.get(key, 0) + value
    return total


def _live_layers(client, cluster, probe, seconds: float, out: dict):
    from amberbench.layers import attach_live, live_summary
    from amberbench.tracing import Tracer

    before = _node_counts(cluster)
    probe.attach()
    tracer = Tracer()
    attach_live(tracer)
    try:
        ops_per_s, samples, counts = _live_phase(client, seconds, tracer)
    finally:
        tracer.restore()
        remote = probe.detach()
    after = _node_counts(cluster)
    local = live_summary(tracer)
    passes = counts["passes"]
    ops = passes * len(client.plan.ops)

    def both(key: str) -> float:
        return local.get(key, 0) + remote.get(key, 0)

    def delta(key: str) -> float:
        return (after.get(key, 0) - before.get(key, 0)) / passes

    payload = samples.get("put", []) + samples.get("get", [])
    out["tracer"] = tracer
    out["traced_ops_per_s"] = ops_per_s
    out["detail"]["traced_passes"] = counts
    out["detail"]["threads_started_per_node"] = [
        local.get("threads_started", 0) / ops,
        remote.get("threads_started", 0) / ops]
    return {
        "transport.frames_sent": both("frames_sent") / passes,
        "transport.bytes_sent": both("bytes_sent") / passes,
        "transport.frames_recv": both("frames_recv") / passes,
        "transport.send_s": both("transport_s") / passes,
        "rtkernel.threads_started": both("threads_started") / ops,
        "rtkernel.wait_s": local["rtkernel_s"] / passes,
        "rtkernel.invoke_remote_p99_us": statistics.quantiles(
            samples["invoke_remote"], n=100)[98],
        "rtkernel.invoke_local_p50_us": statistics.median(
            samples["invoke_local"]),
        "rtkernel.payload_p50_us": statistics.median(payload),
        "rtkernel.move_p50_us": statistics.median(samples["move"]),
        "rtkernel.locate_p50_us": statistics.median(samples["locate"]),
        "rtkernel.resends": delta("resends"),
        "rtkernel.dedup_in_flight": delta("dedup_in_flight"),
        "rtkernel.dedup_replayed": delta("dedup_replayed"),
        "rtkernel.forwards": delta("forwards"),
        "circuit.opens": delta("circuit_opens"),
        "circuit.fast_fails": delta("circuit_fast_fails"),
        "obs.calls": both("obs_calls") / passes,
        "obs.s": both("obs_s") / passes,
    }


def _live_setup(seed: int, trace: bool):
    from repro.runtime import Cluster
    from amberbench import live_mix
    from amberbench.layers import LayerProbe

    plan = live_mix.make_plan(seed)
    cluster = Cluster(nodes=live_mix.NODES)
    try:
        client = live_mix.Client(cluster, plan)
        probe = cluster.create(LayerProbe, node=1) if trace else None
    except BaseException:
        cluster.shutdown()
        raise
    return cluster, client, probe


def run_live(args) -> dict:
    from amberbench import live_mix

    cluster, client, probe = _live_setup(args.seed, args.trace)
    out = {"setup": _set_up(), "detail": {}}
    try:
        if not args.trace:
            ops_per_s, samples, counts = _live_phase(client, args.seconds)
            remote = samples["invoke_remote"]
            out["metrics"] = {"ops_per_s": ops_per_s,
                              "op_p50_us": statistics.median(remote)}
            out["detail"]["remote_invocations"] = len(remote)
        else:
            ops_per_s, _, counts = _live_phase(client, args.seconds / 2)
            metrics = _live_layers(client, cluster, probe,
                                   args.seconds / 2, out)
            metrics["trace.overhead_frac"] = 1 - \
                out.pop("traced_ops_per_s") / ops_per_s
            out["metrics"] = metrics
        out["detail"]["passes"] = counts
        wrong_final = client.final_check()
    finally:
        cluster.shutdown()
    twins = [live_mix.run_twin(client.plan) for _ in range(2)]
    from amberbench.simbench import fingerprint
    out["fingerprints"] = [fingerprint(twin) for twin in twins]
    out["attempted"] = client.attempted
    out["failed"] = client.failed + wrong_final + sum(
        live_mix.twin_wrong(client.plan, twin) for twin in twins)
    if not args.trace:
        out["metrics"]["sim_elapsed_ms"] = twins[0].elapsed_us / 1000
    return out


# -- set-up probes -----------------------------------------------------------


def setup_probe(args) -> dict:
    """Repeat only the set-up of a workload."""
    if args.workload == "live-mix":
        cluster, _, _ = _live_setup(args.seed, trace=False)
        try:
            return _set_up()
        finally:
            cluster.shutdown()
    _sim_workload(args.workload, args.seed)
    return _set_up()


def probe_setups(args) -> list:
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0", "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        samples.append(json.loads(done.stdout.splitlines()[-1]))
    return samples


# -- reporting ---------------------------------------------------------------


def report(args, spec: dict, out: dict, correct: bool) -> dict:
    kind = "per_layer" if args.trace else "end_to_end"
    wanted = {metric["name"]: metric["unit"] for metric in spec[kind]}
    metrics = dict(out["metrics"])
    if args.trace:
        # The other backend's layers did no work on this workload.
        idle = LIVE_LAYERS if args.workload != "live-mix" else SIM_LAYERS
        for name in wanted:
            if name.startswith(idle):
                metrics.setdefault(name, 0.0)
    if set(metrics) != set(wanted):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(wanted))} "
                         f"do not match BENCHMARK.json {kind}")
    attempted, failed = out["attempted"], out["failed"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}")
    for key, value in sorted(out.get("detail", {}).items()):
        print(f"  {key}: {value}")
    print(f"  {'failed_frac':<32} {failed / attempted:>16.6g} fraction "
          f"({failed} of {attempted} ops)")
    for name in wanted:
        print(f"  {name:<32} {metrics[name]:>16.6g} {wanted[name]}")
    print(f"  correct: {correct}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": float(metrics[name]),
                               "unit": wanted[name]}
                        for name in wanted}}


def write_spans(args, out: dict) -> None:
    tracer = out["tracer"]
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
    tracer.write(path, {"workload": args.workload, "seed": args.seed,
                        "node": 0})
    out["detail"]["spans"] = (f"{len(tracer.spans)} kept, {tracer.dropped} "
                              f"dropped, in {os.path.relpath(path, ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    # Import the program from this checkout, and this directory as the
    # ``amberbench`` package.
    sys.path[0:1] = [SRC, ROOT]
    if args.setup_probe:
        print(json.dumps(setup_probe(args)))
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    run = run_live if args.workload == "live-mix" else run_sim
    out = run(args)
    if not args.trace:
        setups = [out["setup"]] + probe_setups(args)
        out["metrics"]["setup_s"] = statistics.median(
            setup["host_s"] / setup["slowdown"] for setup in setups)
        out["metrics"]["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        out["detail"]["setup_samples_s"] = [
            round(setup["host_s"] / setup["slowdown"], 4) for setup in setups]
        out["detail"]["host_setup_samples_s"] = [
            round(setup["host_s"], 4) for setup in setups]
    deterministic = len(set(out["fingerprints"])) == 1
    out["detail"]["deterministic"] = deterministic
    if not deterministic:
        print("simulated quantities differ between reps:", file=sys.stderr)
        for fp in sorted(set(out["fingerprints"]), key=str):
            print(f"  {fp}", file=sys.stderr)
    if args.trace:
        write_spans(args, out)
    correct = deterministic and out["failed"] == 0
    print(json.dumps(report(args, spec, out, correct)))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
