"""``repro-bench`` — run kernel benchmarks and write ``BENCH_*.json``.

Usage::

    repro-bench [--profile P ...] [--out-dir DIR] [--quiet]
                [--cprofile FILE]
                [--compare-against REF.json [--threshold PCT]
                 [--min-speedup RATIO]]
    repro-bench --profile orchestration [--orch-src SRC_DIR]
                [--orch-best-of N]
    repro-bench --list  (alias: --list-profiles)
    repro-bench compare BASELINE.json CANDIDATE.json [--threshold PCT]
                [--min-speedup RATIO]

Runs each requested profile (default: ``smoke``) and writes one
``BENCH_<profile>.json`` artifact per profile into ``--out-dir``
(default: the current directory).  The artifact records, per case,
wall-time, events/sec, event-heap health (peak size, compactions,
cancelled garbage) and spatial-grid health (rebuilds, occupancy,
candidate-set sizes) — see :mod:`repro.bench`.

``compare`` diffs two artifacts (see :mod:`repro.bench.compare`): it
prints per-case and total events/sec deltas and exits non-zero when the
total drops by more than ``--threshold`` percent, when ``--min-speedup``
is given and the total speedup falls short of it — or when the pinned
``events`` counts differ, which means kernel behaviour (not just speed)
changed and the baseline must be re-recorded.  ``--compare-against`` on
the main run path benches the requested profile and immediately gates it
against a previously recorded reference artifact — this is what the CI
``bench-gate`` job runs.

The ``orchestration`` profile measures the sweep *scheduler* (cells/sec
through :class:`~repro.exec.scheduler.ClusterExecutor`) instead of the
kernel — see :mod:`repro.bench.orchestration`; ``--orch-src`` points its
subprocess driver at a different ``src`` tree, which is how CI benches
the merge-base with the identical workload.  ``--cprofile FILE`` wraps
any single-profile run in :mod:`cProfile` and dumps ``pstats`` data.

Perf numbers are host-dependent; compare artifacts produced on the same
machine (artifacts carry a ``meta`` environment stamp, and ``compare``
warns on cross-host comparisons).  The simulated workload itself is
pinned (fixed seeds), so the ``events`` column must not change across
runs on any machine — if it does, kernel behaviour changed, not just
its speed.
"""

from __future__ import annotations

import argparse
import cProfile
import functools
import sys
from typing import Callable, List, Optional

from repro.bench import BENCH_PROFILES, bench_profile, compare_reports, run_profile
from repro.bench.orchestration import (
    ORCHESTRATION_PROFILE,
    OrchestrationSpec,
    run_orchestration,
)
from repro.bench.runner import BenchCaseResult, BenchReport


def _print_orch_case(result: BenchCaseResult) -> None:
    grid = result.grid
    stages = " ".join(
        f"{name[len('stage_'):-len('_s')]}={grid[name] * 1000.0:.0f}ms"
        for name in sorted(grid) if name.startswith("stage_"))
    print(f"  {result.name:<14} {result.events:>6} cells in "
          f"{result.wall_time_s:7.3f} s = "
          f"{result.events_per_sec:>7.0f} cells/s"
          f"  spawned={grid['workers_spawned']:.0f}"
          f" reused={grid['workers_reused']:.0f}"
          f" streamed={grid['cells_streamed']:.0f}"
          f" cached={grid['cells_from_cache']:.0f}"
          f"  [{stages}]", flush=True)


def _print_case(result: BenchCaseResult) -> None:
    grid = result.grid
    print(f"  {result.name:<14} {result.events:>9} events in "
          f"{result.wall_time_s:7.2f} s = {result.events_per_sec:>9.0f} ev/s"
          f"  peak-heap={result.peak_heap_size} "
          f"compactions={result.heap_compactions} "
          f"rebuilds={grid['grid_rebuilds']:.0f} "
          f"cells={grid['cells_used']:.0f} "
          f"occ(mean/max)={grid['mean_occupancy']:.1f}/"
          f"{grid['max_occupancy']:.0f} "
          f"cand(mean/max)={grid['mean_candidate_set']:.1f}/"
          f"{grid['max_candidate_set']:.0f} "
          f"batch(mean)={result.mean_batch_size:.2f}", flush=True)


def cmd_list() -> int:
    for name in BENCH_PROFILES:
        profile = bench_profile(name)
        print(f"{name:<8} {len(profile.cases)} case(s): "
              f"{profile.description}")
    spec = OrchestrationSpec()
    print(f"{ORCHESTRATION_PROFILE:<8} 2 case(s): scheduler cells/sec "
          f"(cold + warm cache) over {spec.entries} campaign-style "
          f"entries at --scheduler {spec.shards}")
    return 0


def cmd_compare(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench compare",
        description="Compare two BENCH_<profile>.json artifacts and gate "
                    "on events/sec regressions.")
    parser.add_argument("baseline", help="baseline BENCH_*.json artifact")
    parser.add_argument("candidate", help="candidate BENCH_*.json artifact")
    parser.add_argument("--threshold", type=float, default=10.0,
                        metavar="PCT",
                        help="maximum tolerated total events/sec drop in "
                             "percent (default: 10)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        metavar="RATIO",
                        help="minimum required candidate/baseline total "
                             "events/sec ratio (e.g. 1.3 = 30%% faster; "
                             "default: no floor)")
    parser.add_argument("--refined-threshold", type=float, default=10.0,
                        metavar="PCT",
                        help="warn (never fail) when a case's mean refined "
                             "set grows by more than this percent "
                             "(default: 10)")
    args = parser.parse_args(argv)
    try:
        report = compare_reports(BenchReport.load(args.baseline),
                                 BenchReport.load(args.candidate))
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.format(threshold_pct=args.threshold,
                        min_speedup=args.min_speedup,
                        refined_threshold_pct=args.refined_threshold))
    if (report.workload_changed or report.regressed(args.threshold)
            or (args.min_speedup is not None
                and not report.meets_speedup(args.min_speedup))):
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        return cmd_compare(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Run simulation-kernel benchmarks and write "
                    "BENCH_<profile>.json perf-tracking artifacts.")
    profile_names = list(BENCH_PROFILES) + [ORCHESTRATION_PROFILE]
    parser.add_argument("--profile", dest="profiles", action="append",
                        choices=profile_names, metavar="NAME",
                        help=f"profile to run (repeatable; default: smoke; "
                             f"one of: {', '.join(profile_names)})")
    parser.add_argument("--out-dir", default=".", metavar="DIR",
                        help="directory to write BENCH_<profile>.json into "
                             "(default: current directory)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-case progress lines")
    parser.add_argument("--list", "--list-profiles", action="store_true",
                        help="list the available profiles and exit")
    parser.add_argument("--compare-against", default=None, metavar="REF",
                        help="after benching, compare the fresh artifact "
                             "against this reference BENCH_*.json and exit "
                             "non-zero on regression (the CI bench gate)")
    parser.add_argument("--threshold", type=float, default=10.0,
                        metavar="PCT",
                        help="with --compare-against: maximum tolerated "
                             "total events/sec drop in percent "
                             "(default: 10)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        metavar="RATIO",
                        help="with --compare-against: minimum required "
                             "candidate/reference total events/sec ratio")
    parser.add_argument("--refined-threshold", type=float, default=10.0,
                        metavar="PCT",
                        help="with --compare-against: warn (never fail) "
                             "when a case's mean refined set grows by more "
                             "than this percent (default: 10)")
    parser.add_argument("--orch-src", default=None, metavar="SRC_DIR",
                        help="with --profile orchestration: 'src' tree the "
                             "driver subprocess imports repro from (default: "
                             "the current checkout; CI points this at a "
                             "merge-base worktree to record the reference "
                             "artifact with the same driver)")
    parser.add_argument("--orch-best-of", type=int, default=3,
                        metavar="N",
                        help="with --profile orchestration: driver "
                             "repetitions, keeping each case's fastest "
                             "(default: 3)")
    parser.add_argument("--cprofile", default=None, metavar="FILE",
                        help="run the benchmark under cProfile and dump "
                             "pstats data to FILE (requires exactly one "
                             "--profile; inspect with python -m pstats)")
    args = parser.parse_args(argv)

    if args.list:
        return cmd_list()

    profiles = args.profiles or ["smoke"]
    if args.compare_against is not None and len(profiles) != 1:
        print("error: --compare-against requires exactly one --profile "
              "(a reference artifact records a single profile)",
              file=sys.stderr)
        return 2
    if args.cprofile is not None and len(profiles) != 1:
        print("error: --cprofile requires exactly one --profile "
              "(one stats file records one profile run)", file=sys.stderr)
        return 2
    if args.orch_src is not None and profiles != [ORCHESTRATION_PROFILE]:
        print("error: --orch-src only applies to --profile orchestration",
              file=sys.stderr)
        return 2

    exit_code = 0
    for name in profiles:
        runner: Callable[[], BenchReport]
        if name == ORCHESTRATION_PROFILE:
            spec = OrchestrationSpec()
            print(f"profile {name}: 2 case(s) "
                  f"({spec.entries} entries x {spec.cells_per_entry} cells "
                  f"at --scheduler {spec.shards}, best of "
                  f"{args.orch_best_of})")
            runner = functools.partial(
                run_orchestration, spec=spec, src_root=args.orch_src,
                best_of=args.orch_best_of,
                progress=None if args.quiet else _print_orch_case)
        else:
            profile = bench_profile(name)
            print(f"profile {profile.name}: {len(profile.cases)} case(s)")
            runner = functools.partial(
                run_profile, profile,
                progress=None if args.quiet else _print_case)
        if args.cprofile is not None:
            profiler = cProfile.Profile()
            report = profiler.runcall(runner)
            profiler.dump_stats(args.cprofile)
            print(f"  wrote cProfile stats to {args.cprofile}")
        else:
            report = runner()
        totals = report.totals()
        print(f"  total: {totals['events']:.0f} events in "
              f"{totals['wall_time_s']:.2f} s = "
              f"{totals['events_per_sec']:.0f} ev/s")
        path = report.save(args.out_dir)
        print(f"  wrote {path}")
        if args.compare_against is not None:
            try:
                comparison = compare_reports(
                    BenchReport.load(args.compare_against), report)
            except (OSError, ValueError, KeyError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            print(comparison.format(
                threshold_pct=args.threshold,
                min_speedup=args.min_speedup,
                refined_threshold_pct=args.refined_threshold))
            if (comparison.workload_changed
                    or comparison.regressed(args.threshold)
                    or (args.min_speedup is not None
                        and not comparison.meets_speedup(
                            args.min_speedup))):
                exit_code = 1
    return exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
