"""Command-line interface: regenerate paper artifacts, trace and profile.

::

    python -m repro table1                    # Table 1 latencies
    python -m repro figure1                   # SOR program structure
    python -m repro figure2 [--fast]          # SOR speedup by configuration
    python -m repro figure3 [--fast]          # speedup vs problem size
    python -m repro ablations                 # A1-A6 design-claim runs
    python -m repro all [--fast]              # everything above, in order

    python -m repro trace sor --fast --out trace.json
                                              # Chrome/Perfetto trace export
    python -m repro profile sor --fast        # per-thread time attribution
    python -m repro faults [--fast] [--seed N] [--json PATH]
                                              # fault injection & recovery
                                              # report (see docs/FAULTS.md)
    python -m repro faults --recover [--fast] # permanent-crash recovery
                                              # report (docs/RECOVERY.md)
    python -m repro chaos [--fast] [--seed N] [--json PATH]
                                              # live-runtime chaos suite:
                                              # loss/dup/reset/kill against
                                              # real node processes
                                              # (see docs/CHAOS.md)
    python -m repro analyze [--fast] [--seed N]
                                              # AmberSan race/deadlock
                                              # scenarios (docs/ANALYSIS.md)
    python -m repro analyze --workload sor --fast
                                              # sanitize one workload
    python -m repro check [--fast] [--seed N] [--budget N]
                                              # AmberCheck schedule
                                              # exploration scenarios
    python -m repro check --fixture hidden-race
                                              # explore one fixture
    python -m repro check --fixture hidden-race --replay 0,0,0,1
                                              # replay a choice trace
    python -m repro lint [paths...] [--json PATH]
                                              # concurrency AST lint
                                              # (exit 1 on findings)
    python -m repro flow [--fast] [--json PATH]
                                              # AmberFlow object-flow
                                              # analysis + placement-hint
                                              # cross-validation
                                              # (docs/ANALYSIS.md)
    python -m repro flow --hints-out PATH     # emit the PlacementHints
                                              # artifact
    python -m repro flow --expect PATH        # gate findings against a
                                              # committed expectation
    python -m repro perf [--fast] [--json PATH]
                                              # AmberPerf benchmark suite
                                              # (see docs/PERF.md)
    python -m repro perf --profile sor --fast # hot-loop self-profile
    python -m repro perf --compare OLD NEW    # flag regressions between
                                              # two BENCH_*.json files

``trace`` and ``profile`` also accept ``--sanitize`` to run the
workload under AmberSan and print its findings.

Every artifact accepts ``--metrics-json PATH`` to dump the run's metrics
registry (operation-latency histograms with p50/p90/p99, counters,
gauges) as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.bench import ablations, figure1, figure2, figure3, table1
from repro.bench.reporting import write_metrics_json

_ARTIFACTS = {
    "table1": lambda fast, metrics_out: table1.main(
        metrics_out=metrics_out),
    "figure1": lambda fast, metrics_out: figure1.main(
        metrics_out=metrics_out),
    "figure2": lambda fast, metrics_out: figure2.main(
        iterations=8 if fast else figure2.DEFAULT_ITERATIONS,
        metrics_out=metrics_out),
    "figure3": lambda fast, metrics_out: figure3.main(
        iterations=6 if fast else figure3.DEFAULT_ITERATIONS,
        metrics_out=metrics_out),
    "ablations": lambda fast, metrics_out: ablations.main(
        metrics_out=metrics_out),
}


# ---------------------------------------------------------------------------
# Workloads available to ``trace`` and ``profile``
# ---------------------------------------------------------------------------


def _run_sor(fast: bool, tracer):
    from repro.apps.sor import SorProblem, run_amber_sor
    if fast:
        problem = SorProblem(rows=40, cols=280, iterations=3)
        return run_amber_sor(problem, nodes=2, cpus_per_node=2,
                             tracer=tracer)
    problem = SorProblem(iterations=20)
    return run_amber_sor(problem, nodes=4, cpus_per_node=4, tracer=tracer)


def _run_queens(fast: bool, tracer):
    from repro.apps.queens import run_amber_queens
    return run_amber_queens(n=8 if fast else 10, nodes=2,
                            cpus_per_node=2 if fast else 4, tracer=tracer)


def _run_matmul(fast: bool, tracer):
    from repro.apps.matmul import run_matmul
    size = 48 if fast else 96
    return run_matmul(m=size, k=size, n=size, nodes=4, cpus_per_node=2,
                      tracer=tracer)


WORKLOADS = {
    "sor": _run_sor,
    "queens": _run_queens,
    "matmul": _run_matmul,
}


def _run_workload(args, tracer):
    """Run the selected workload, sanitized when ``--sanitize``.

    Returns ``(result, sanitizer_reports)``."""
    if not getattr(args, "sanitize", False):
        return WORKLOADS[args.workload](args.fast, tracer), []
    from repro.analyze.runtime import sanitize_runs
    with sanitize_runs() as sanitizers:
        result = WORKLOADS[args.workload](args.fast, tracer)
    return result, [sanitizer.report() for sanitizer in sanitizers]


def _print_sanitizer_reports(reports) -> None:
    for report in reports:
        print()
        print(report.render())


def _cmd_trace(args) -> int:
    from repro.obs.perfetto import export_chrome_trace
    from repro.sim.trace import Tracer

    tracer = Tracer(max_events=args.max_events)
    result, san_reports = _run_workload(args, tracer)
    count = export_chrome_trace(tracer.events, args.out,
                                nodes=result.cluster.config.nodes)
    dropped = f" ({tracer.dropped} dropped)" if tracer.dropped else ""
    print(f"wrote {count} trace events to {args.out}{dropped}")
    print(f"simulated elapsed: {result.elapsed_us:.1f} us "
          f"on {result.cluster.config.label()}")
    print("open in https://ui.perfetto.dev or chrome://tracing")
    _print_sanitizer_reports(san_reports)
    _maybe_write_metrics(args, result)
    return 0


def _cmd_profile(args) -> int:
    from repro.obs.profile import profile_result, render_profile

    result, san_reports = _run_workload(args, None)
    profiles = profile_result(result)
    print(render_profile(
        profiles, elapsed_us=result.elapsed_us,
        title=(f"Per-thread time attribution: {args.workload} "
               f"({result.cluster.config.label()}), microseconds")))
    print()
    print(result.cluster.metrics.render(title="Operation metrics"))
    _print_sanitizer_reports(san_reports)
    _maybe_write_metrics(args, result)
    return 0


def _finish_suite(report, json_path: Optional[str]) -> int:
    """Print a suite report (:class:`repro.suite.Report`), dump it to
    ``json_path`` if given, and return the exit code."""
    print(report.render())
    if json_path:
        with open(json_path, "w") as handle:
            json.dump(report.as_dict(), handle, indent=2)
        print(f"\nreport written to {json_path}")
    return 0 if report.ok else 1


def _cmd_faults(args) -> int:
    if args.recover:
        from repro.recovery.scenario import run_recovery_scenarios
        report = run_recovery_scenarios(seed=args.seed, fast=args.fast)
    else:
        from repro.faults.scenario import run_fault_scenarios
        report = run_fault_scenarios(seed=args.seed, fast=args.fast)
    return _finish_suite(report, args.json)


def _cmd_chaos(args) -> int:
    from repro.faults.livescenario import run_chaos_scenarios

    report = run_chaos_scenarios(seed=args.seed, fast=args.fast)
    return _finish_suite(report, args.json)


def _cmd_analyze(args) -> int:
    if args.workload:
        from repro.analyze.runtime import sanitize_runs
        with sanitize_runs() as sanitizers:
            result = WORKLOADS[args.workload](args.fast, None)
        reports = [sanitizer.report() for sanitizer in sanitizers]
        ok = all(report.ok for report in reports)
        print(f"sanitized {args.workload}: simulated "
              f"{result.elapsed_us:.1f} us on "
              f"{result.cluster.config.label()}")
        for report in reports:
            print()
            print(report.render())
        if args.json:
            with open(args.json, "w") as handle:
                json.dump([report.as_dict() for report in reports],
                          handle, indent=2)
            print(f"\nreport written to {args.json}")
        return 0 if ok else 1

    from repro.analyze.scenario import run_analysis_scenarios
    report = run_analysis_scenarios(seed=args.seed, fast=args.fast)
    return _finish_suite(report, args.json)


def _cmd_check(args) -> int:
    from repro.analyze.checkscenario import (
        CHECK_FIXTURES,
        run_check_scenarios,
    )

    if args.replay is not None and not args.fixture:
        print("--replay requires --fixture", file=sys.stderr)
        return 2
    if args.metrics_json and args.fixture:
        print("--metrics-json is scenario mode only; it cannot be "
              "combined with --fixture", file=sys.stderr)
        return 2

    if args.fixture:
        from repro.analyze.check import check_program, run_schedule
        fixture = CHECK_FIXTURES[args.fixture]
        seed = args.seed

        def program_fn():
            return fixture(seed)

        if args.replay is not None:
            choices = [int(token) for token in
                       args.replay.replace(",", " ").split()]
            outcome = run_schedule(program_fn, choices)
            print(f"replayed {args.fixture} (seed {seed}) with "
                  f"trace {choices}")
            print(f"  status: {outcome.status}")
            if outcome.value_repr:
                print(f"  value: {outcome.value_repr}")
            if outcome.diverged:
                print("  WARNING: trace diverged from the recorded "
                      "schedule")
            for line in outcome.detail.splitlines():
                print(f"  {line}")
            for _, rendered in outcome.findings:
                print()
                print(rendered)
            if args.json:
                with open(args.json, "w") as handle:
                    json.dump({
                        "fixture": args.fixture, "seed": seed,
                        "trace": choices, "status": outcome.status,
                        "value": outcome.value_repr,
                        "diverged": outcome.diverged,
                        "choices": outcome.choices,
                        "signatures": outcome.signatures(),
                    }, handle, indent=2)
                print(f"\nreplay written to {args.json}")
            clean = (outcome.status == "ok" and not outcome.findings
                     and not outcome.diverged)
            return 0 if clean else 1

        report = check_program(program_fn, name=args.fixture,
                               budget=args.budget,
                               dpor=not args.exhaustive,
                               progress=print)
        print(report.render())
        if args.json:
            with open(args.json, "w") as handle:
                json.dump(report.as_dict(), handle, indent=2)
            print(f"\nreport written to {args.json}")
        return 0 if report.ok else 1

    metrics = None
    if args.metrics_json:
        from repro.obs.metrics import MetricsRegistry
        metrics = MetricsRegistry()
    report = run_check_scenarios(seed=args.seed, fast=args.fast,
                                 budget=args.budget, metrics=metrics)
    code = _finish_suite(report, args.json)
    if metrics is not None:
        write_metrics_json(args.metrics_json,
                           {"check": metrics.as_dict()})
        print(f"exploration metrics written to {args.metrics_json}")
    return code


def _cmd_perf(args) -> int:
    from repro.perf import benchfile, harness

    if args.compare:
        old = benchfile.load_bench(args.compare[0])
        new = benchfile.load_bench(args.compare[1])
        result = benchfile.compare_benches(old, new,
                                           threshold=args.threshold)
        print(benchfile.render_compare(result))
        return 0 if result.ok else 1

    if args.profile:
        from repro.perf.hotprof import profile_runs, render_hotloop
        with profile_runs() as profiler:
            result = WORKLOADS[args.profile](args.fast, None)
        print(render_hotloop(
            profiler,
            title=(f"Hot-loop self-profile: {args.profile} "
                   f"({result.cluster.config.label()}), host time")))
        if args.trace_out:
            from repro.obs.perfetto import (
                export_chrome_trace,
                profiler_track_events,
            )
            count = export_chrome_trace(
                [], args.trace_out,
                extra=profiler_track_events(profiler))
            print(f"\nwrote {count} self-profiler trace events to "
                  f"{args.trace_out}")
        if args.json:
            with open(args.json, "w") as handle:
                json.dump(profiler.as_dict(), handle, indent=2)
            print(f"profile written to {args.json}")
        return 0

    only = args.bench or None
    suite = harness.run_suite(fast=args.fast, reps=args.reps,
                              warmup=args.warmup, only=only,
                              progress=print)
    print()
    print(suite.render())
    if args.json:
        doc = benchfile.write_bench_json(suite, args.json)
        print(f"\nbench file written to {args.json} "
              f"(rev {doc['git_rev']}, machine "
              f"{doc['machine']['fingerprint']})")
    if args.baseline:
        old = benchfile.load_bench(args.baseline)
        result = benchfile.compare_benches(
            old, benchfile.bench_dict(suite),
            threshold=args.threshold)
        print()
        print(benchfile.render_compare(result))
        return 0 if suite.ok and result.ok else 1
    return 0 if suite.ok else 1


def _cmd_lint(args) -> int:
    from repro.analyze.lint import RULES, lint_paths

    paths = args.paths or ["src/repro/apps", "examples"]
    findings = lint_paths(paths)
    for finding in findings:
        print(finding.render())
    if args.explain:
        print()
        for rule, text in sorted(RULES.items()):
            print(f"{rule}: {text}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"paths": paths,
                       "findings": [f.as_dict() for f in findings]},
                      handle, indent=2)
        print(f"findings written to {args.json}")
    if findings:
        print(f"\n{len(findings)} finding(s)")
        return 1
    print(f"clean: {', '.join(paths)}")
    return 0


def _cmd_flow(args) -> int:
    from repro.analyze.flow import load_hints, run_flow_scenarios

    report = run_flow_scenarios(fast=args.fast, paths=args.paths,
                                expect=args.expect)
    code = _finish_suite(report, args.json)
    if args.hints_out:
        with open(args.hints_out, "w") as handle:
            handle.write(load_hints(report.extra["hints"]).to_json())
        print(f"\nplacement hints written to {args.hints_out}")
    if args.write_expect:
        with open(args.write_expect, "w") as handle:
            json.dump(report.extra["findings"], handle, indent=2)
            handle.write("\n")
        print(f"\nfindings expectation written to {args.write_expect}")
    return code


def _cmd_elide(args) -> int:
    from repro.analyze.elide.scenario import run_elide_scenarios

    return _finish_suite(run_elide_scenarios(paths=args.paths), args.json)


def _maybe_write_metrics(args, result) -> None:
    if args.metrics_json:
        write_metrics_json(args.metrics_json,
                           {args.workload: result.cluster.metrics.as_dict()})
        print(f"metrics written to {args.metrics_json}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the evaluation artifacts of the Amber "
                    "paper (SOSP 1989) on the simulated cluster, or "
                    "trace/profile a simulated workload.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    for name in sorted(_ARTIFACTS) + ["all"]:
        sp = sub.add_parser(name, help=f"regenerate {name}")
        sp.add_argument("--fast", action="store_true",
                        help="fewer SOR iterations (quick look)")
        sp.add_argument("--metrics-json", metavar="PATH", default=None,
                        help="dump the runs' metrics registries as JSON")

    tp = sub.add_parser("trace",
                        help="run a workload and export a Chrome/Perfetto "
                             "trace")
    tp.add_argument("workload", choices=sorted(WORKLOADS))
    tp.add_argument("--fast", action="store_true",
                    help="smaller problem (quick look)")
    tp.add_argument("--out", metavar="PATH", default="trace.json",
                    help="trace-event JSON output path (default: "
                         "trace.json)")
    tp.add_argument("--max-events", type=int, default=500_000,
                    help="tracer ring capacity (default: 500000)")
    tp.add_argument("--metrics-json", metavar="PATH", default=None,
                    help="also dump the run's metrics registry as JSON")
    tp.add_argument("--sanitize", action="store_true",
                    help="run under AmberSan and print its findings "
                         "(simulated times are unchanged)")

    fp = sub.add_parser("faults",
                        help="run the fault-recovery scenarios and print "
                             "a pass/fail report")
    fp.add_argument("--fast", action="store_true",
                    help="smaller workloads (quick look / CI smoke)")
    fp.add_argument("--seed", type=int, default=0,
                    help="fault plan seed (default: 0)")
    fp.add_argument("--recover", action="store_true",
                    help="run the crash-recovery scenarios instead: "
                         "permanent node death survived via checkpoint "
                         "promotion and thread resurrection (see "
                         "docs/RECOVERY.md)")
    fp.add_argument("--json", metavar="PATH", default=None,
                    help="dump the report (verdicts + fault counters) "
                         "as JSON")

    pp = sub.add_parser("profile",
                        help="run a workload and print per-thread time "
                             "attribution")
    pp.add_argument("workload", choices=sorted(WORKLOADS))
    pp.add_argument("--fast", action="store_true",
                    help="smaller problem (quick look)")
    pp.add_argument("--metrics-json", metavar="PATH", default=None,
                    help="also dump the run's metrics registry as JSON")
    pp.add_argument("--sanitize", action="store_true",
                    help="run under AmberSan and print its findings "
                         "(simulated times are unchanged)")

    xp = sub.add_parser("chaos",
                        help="AmberChaos: run the live-runtime chaos "
                             "scenarios (seeded loss/dup/delay/resets "
                             "plus mid-run process kills) and print a "
                             "pass/fail report")
    xp.add_argument("--fast", action="store_true",
                    help="smaller workloads (CI smoke)")
    xp.add_argument("--seed", type=int, default=0,
                    help="fault plan seed (default: 0)")
    xp.add_argument("--json", metavar="PATH", default=None,
                    help="dump the report (verdicts + hardening/chaos "
                         "counters) as JSON")

    ap = sub.add_parser("analyze",
                        help="run the AmberSan analysis scenarios "
                             "(race/immutable/residency/lock-order) and "
                             "print a pass/fail report")
    ap.add_argument("--fast", action="store_true",
                    help="skip the bundled-apps sweep (CI smoke)")
    ap.add_argument("--seed", type=int, default=0,
                    help="fixture jitter seed (default: 0)")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                    help="instead of the scenarios, sanitize one "
                         "bundled workload and report its findings")
    ap.add_argument("--json", metavar="PATH", default=None,
                    help="dump the report (verdicts + finding "
                         "signatures) as JSON")

    cp = sub.add_parser("check",
                        help="AmberCheck: explore all relevantly-"
                             "distinct thread schedules of the bounded "
                             "fixtures (DPOR model checking) and print "
                             "a pass/fail report")
    cp.add_argument("--fast", action="store_true",
                    help="fewer random-rarity samples, skip the "
                         "bundled-apps sweep (CI smoke)")
    cp.add_argument("--seed", type=int, default=0,
                    help="fixture jitter seed (default: 0)")
    cp.add_argument("--budget", type=int, default=2000,
                    help="max schedules to explore (default: 2000)")
    cp.add_argument("--fixture", choices=sorted(
                        "hidden-race hidden-deadlock locked-counter "
                        "sync-zoo".split()), default=None,
                    help="instead of the scenarios, explore one "
                         "fixture and report its findings")
    cp.add_argument("--exhaustive", action="store_true",
                    help="with --fixture: full enumeration instead of "
                         "dynamic partial-order reduction")
    cp.add_argument("--replay", metavar="TRACE", default=None,
                    help="with --fixture: replay a recorded choice "
                         "trace (comma-separated indices, e.g. "
                         "'0,0,1') instead of exploring")
    cp.add_argument("--json", metavar="PATH", default=None,
                    help="dump the report as JSON")
    cp.add_argument("--metrics-json", metavar="PATH", default=None,
                    help="dump the explorer's check_* counters "
                         "(schedules, prunes, backtracks, choice-point "
                         "depths) as JSON; scenario mode only")

    qp = sub.add_parser("perf",
                        help="AmberPerf: run the benchmark suite, "
                             "self-profile the simulator's hot loop, or "
                             "compare two BENCH_*.json files")
    qp.add_argument("--fast", action="store_true",
                    help="smaller problems, skip the live-socket "
                         "benchmark (CI suite)")
    qp.add_argument("--reps", type=int, default=3,
                    help="measured repetitions per benchmark "
                         "(default: 3)")
    qp.add_argument("--warmup", type=int, default=1,
                    help="unmeasured warmup runs per benchmark "
                         "(default: 1)")
    qp.add_argument("--bench", action="append", metavar="NAME",
                    help="run only the named benchmark (repeatable)")
    qp.add_argument("--json", metavar="PATH", default=None,
                    help="write the run as a BENCH_*.json file "
                         "(suite mode) or the profile dict "
                         "(--profile mode)")
    qp.add_argument("--baseline", metavar="PATH", default=None,
                    help="after the suite, compare against this bench "
                         "file and fail on regressions")
    qp.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    default=None,
                    help="compare two bench files instead of running "
                         "(exit 1 on regressions beyond threshold)")
    qp.add_argument("--threshold", type=float, default=0.25,
                    help="regression threshold as a rate fraction "
                         "(default: 0.25)")
    qp.add_argument("--profile", choices=sorted(WORKLOADS),
                    default=None, metavar="WORKLOAD",
                    help="instead of the suite, self-profile the hot "
                         "loop under one workload (sor/queens/matmul)")
    qp.add_argument("--trace-out", metavar="PATH", default=None,
                    help="with --profile: also export the phase "
                         "timeline as a Perfetto trace")

    lp = sub.add_parser("lint",
                        help="static concurrency lint (AMB101-AMB109) "
                             "over Amber programs")
    lp.add_argument("paths", nargs="*",
                    help="files or directories (default: src/repro/apps "
                         "and examples)")
    lp.add_argument("--explain", action="store_true",
                    help="print the rule catalogue after the findings")
    lp.add_argument("--json", metavar="PATH", default=None,
                    help="also dump the findings as machine-readable "
                         "JSON")

    wp = sub.add_parser("flow",
                        help="AmberFlow: whole-program object-flow "
                             "analysis; derives placement hints, runs "
                             "AMB201-AMB205 diagnostics, and "
                             "cross-validates the hints against "
                             "simulator runs (docs/ANALYSIS.md)")
    wp.add_argument("--fast", action="store_true",
                    help="smaller app runs for the dynamic scenarios "
                         "(CI smoke)")
    wp.add_argument("--paths", nargs="*", default=None,
                    help="analyze these files/directories instead of "
                         "the bundled apps+examples (static scenarios "
                         "only)")
    wp.add_argument("--expect", metavar="PATH", default=None,
                    help="gate the finding set against this committed "
                         "expectation file")
    wp.add_argument("--write-expect", metavar="PATH", default=None,
                    help="write the finding set as a new expectation "
                         "file")
    wp.add_argument("--hints-out", metavar="PATH", default=None,
                    help="write the PlacementHints artifact as JSON")
    wp.add_argument("--json", metavar="PATH", default=None,
                    help="dump the full report as JSON")

    ep = sub.add_parser("elide",
                        help="AmberElide: static escape/confinement "
                             "analysis with advisory findings "
                             "AMB301-AMB304 (docs/ANALYSIS.md)")
    ep.add_argument("--paths", nargs="*", default=None,
                    help="analyze these files/directories instead of "
                         "the bundled apps+examples")
    ep.add_argument("--json", metavar="PATH", default=None,
                    help="dump the full report as JSON")

    args = parser.parse_args(argv)

    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "faults":
        return _cmd_faults(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "flow":
        return _cmd_flow(args)
    if args.command == "elide":
        return _cmd_elide(args)
    if args.command == "perf":
        return _cmd_perf(args)

    names = sorted(_ARTIFACTS) if args.command == "all" \
        else [args.command]
    metrics_out = {} if args.metrics_json else None
    outputs = []
    for name in names:
        outputs.append(_ARTIFACTS[name](args.fast, metrics_out))
    print("\n\n".join(outputs))
    if args.metrics_json:
        write_metrics_json(args.metrics_json, metrics_out)
        print(f"\nmetrics written to {args.metrics_json}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
