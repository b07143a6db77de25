#!/usr/bin/env python
"""Reproduce every figure and table of the paper's evaluation section.

Runs the speed sweep (protocols × maximum speeds × replications), then
prints one text table per figure (5–11) plus the Table I relay
normalisation walkthrough.  The canned grid profiles of
:data:`repro.experiments.SWEEP_PROFILES` are available:

* ``--profile smoke`` — a couple of minutes; sanity check only.
* ``--profile bench`` — the default; scaled-down runs (25 s, 1 rep,
  3 speeds) whose protocol ordering matches the full configuration.
* ``--profile paper`` — the full §IV-A grid (200 s × 5 reps × 5 speeds
  × 3 protocols); expect several hours of wall-clock time.
* ``--profile dense`` / ``sparse`` / ``multiflow`` — beyond-the-paper
  workloads: 100 nodes at twice/half the paper's density, or five
  concurrent TCP flows.

Execution is pluggable: ``--workers N`` fans the independent grid cells
out over N worker processes (results are bit-for-bit identical to the
serial run), ``--scheduler K`` instead routes the grid through the
streaming shard scheduler (cache-aware pre-filtering plus rebalancing
after worker deaths; see ``repro-sweep run --scheduler``), ``--cache
DIR`` reuses previously simulated cells from an on-disk result cache (so
regenerating figures after an interrupted or repeated run only simulates
what is missing), and ``--save-json PATH`` writes the whole sweep as a
durable JSON artifact.  ``--from-artifact PATH`` re-renders everything
from such an artifact with **zero** simulations (see also ``repro-sweep
render``).

Usage::

    python examples/reproduce_figures.py --profile bench --workers 4 \
        --cache results/cache --save-json results/sweep.json
    python examples/reproduce_figures.py --from-artifact results/sweep.json
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.cli.sweep import add_propagation_options, apply_propagation_overrides
from repro.exec import (
    ClusterExecutor,
    add_executor_options,
    executor_from_args,
)
from repro.experiments import (
    FIGURES,
    SweepResult,
    SWEEP_PROFILES,
    SweepSettings,
    format_figure,
    format_table1,
    render_figures,
    run_speed_sweep,
    run_table1,
    sweep_profile,
)
from repro.scenario import ScenarioConfig


def build_settings(profile: str, propagation: str = None,
                   propagation_params: list = None) -> SweepSettings:
    """The profile's grid, optionally under a different propagation model."""
    return apply_propagation_overrides(sweep_profile(profile), propagation,
                                       propagation_params)


def render_from_artifact(path: str) -> int:
    """Re-render every figure (and Table I, if a DSR run is present) from
    a saved sweep artifact, without simulating anything."""
    sweep = SweepResult.load(path)
    settings = sweep.settings
    print(f"Artifact {path}: {len(settings.protocols)} protocols × "
          f"{len(settings.speeds)} speeds × {settings.replications} "
          f"replication(s); re-rendering without simulation\n")
    print("=" * 72 + "\n")
    print(render_figures(sweep))
    dsr_runs = sweep.runs_for_protocol("DSR")
    if dsr_runs:
        print("\n" + "=" * 72 + "\n")
        normalization, _ = run_table1(result=dsr_runs[0])
        print(format_table1(normalization))
    else:
        print("\n(no DSR run in the artifact; Table I skipped)")
    return 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", default="bench",
                        choices=sorted(SWEEP_PROFILES))
    add_propagation_options(parser)
    parser.add_argument("--skip-table1", action="store_true",
                        help="skip the Table I walkthrough run")
    add_executor_options(parser)
    parser.add_argument("--scheduler", type=int, metavar="K", default=None,
                        help="run the sweep through the streaming shard "
                             "scheduler with K worker shards instead of "
                             "--workers (cache-aware, crash-rebalancing)")
    parser.add_argument("--max-retries", type=int, default=None, metavar="N",
                        help="extra scheduling rounds after worker failures "
                             "(scheduler mode only; default 2)")
    parser.add_argument("--save-json", metavar="PATH", default=None,
                        help="write the full sweep (settings + every run) "
                             "to PATH as JSON")
    parser.add_argument("--from-artifact", metavar="PATH", default=None,
                        help="re-render figures from a sweep artifact "
                             "written by --save-json (zero simulations)")
    args = parser.parse_args()
    if args.scheduler is not None:
        if args.scheduler < 1:
            parser.error("--scheduler must be >= 1")
        if args.workers != 1:
            parser.error("--workers conflicts with --scheduler (the "
                         "scheduler manages its own worker fan-out)")
    elif args.max_retries is not None:
        parser.error("--max-retries requires --scheduler")
    if args.max_retries is not None and args.max_retries < 0:
        parser.error("--max-retries must be >= 0")

    if args.from_artifact:
        return render_from_artifact(args.from_artifact)

    try:
        settings = build_settings(args.profile, args.propagation,
                                  args.propagation_params)
    except ValueError as exc:
        parser.error(str(exc))
    if args.scheduler is not None:
        executor = ClusterExecutor(
            shards=args.scheduler, cache=args.cache,
            max_retries=2 if args.max_retries is None else args.max_retries)
    else:
        executor = executor_from_args(args)
    total_runs = (len(settings.protocols) * len(settings.speeds)
                  * settings.replications)
    print(f"Profile {args.profile}: {len(settings.protocols)} protocols × "
          f"{len(settings.speeds)} speeds × {settings.replications} "
          f"replication(s) = {total_runs} runs "
          f"({settings.config_overrides.get('sim_time')} simulated s each)\n")

    started = time.time()
    completed = [0]

    def progress(protocol, speed, replication, result):
        completed[0] += 1
        elapsed = time.time() - started
        print(f"  [{completed[0]:>3}/{total_runs}] {protocol:<5} "
              f"speed={speed:<4g} rep={replication} "
              f"throughput={result.throughput_segments:<5} "
              f"delay={result.mean_delay * 1000:6.1f} ms "
              f"({elapsed:6.1f} s elapsed)", flush=True)

    with executor:
        sweep = run_speed_sweep(settings, progress=progress,
                                executor=executor)
        if args.scheduler is not None:
            print(f"\nscheduler: {executor.cells_from_cache} cell(s) from "
                  f"cache, {executor.cells_streamed} streamed from "
                  f"{executor.workers_launched} worker(s); "
                  f"{executor.worker_failures} worker failure(s)")
        elif executor.cache is not None:
            print(f"\ncache: {executor.cache.hits} hit(s), "
                  f"{executor.simulations_run} simulation(s) executed, "
                  f"{len(executor.cache)} entr(ies) in "
                  f"{executor.cache.root}")
        if args.save_json:
            sweep.save(args.save_json)
            print(f"sweep written to {args.save_json}")

        print("\n" + "=" * 72)
        for figure_id in sorted(FIGURES):
            print()
            print(format_figure(sweep, figure_id))

        if not args.skip_table1:
            print("\n" + "=" * 72)
            table_config = ScenarioConfig(
                protocol="DSR",
                n_nodes=settings.config_overrides.get("n_nodes", 50),
                field_size=settings.config_overrides.get("field_size",
                                                         (1000.0, 1000.0)),
                max_speed=10.0,
                sim_time=settings.config_overrides.get("sim_time", 30.0),
                seed=5,
            )
            normalization, _ = run_table1(table_config, executor=executor)
            print()
            print(format_table1(normalization))

    print(f"\nTotal wall-clock time: {time.time() - started:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
