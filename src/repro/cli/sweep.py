"""``repro-sweep`` — run, shard, merge, and re-render speed sweeps.

Subcommands::

    repro-sweep run    [--profile P | --settings-json FILE] [--shard i/K]
                       [--propagation MODEL [--propagation-param K=V ...]]
                       [--scheduler K [--max-retries N] [--inject-fault F]
                        [--worker-timeout S] [--inject-hang F]]
                       [--workers N] [--cache DIR] [--out PATH] [--quiet]
                       [--list-profiles]
    repro-sweep plan   [--profile P | --settings-json FILE] --shards K
    repro-sweep merge  --out PATH SHARD [SHARD ...]
    repro-sweep render ARTIFACT [--figure ID ...] [--table1]

``--propagation`` overrides the propagation model of every grid cell
(any name registered in :data:`repro.registry.PROPAGATION`, e.g.
``two_ray`` or ``log_distance_shadowing``); ``--propagation-param``
passes model parameters such as ``sigma_db=6``.  ``--list-profiles``
prints the canned grid profiles plus the registered stack components
and exits.

``run --scheduler K`` runs the whole grid through the streaming shard
scheduler (:class:`repro.exec.ClusterExecutor`): cells already in the
``--cache`` are served without simulating, the rest are dispatched to a
persistent pool of up to K worker processes, and workers that die
mid-shard are rebalanced for up to ``--max-retries`` extra rounds onto
surviving warm workers.  The written artifact is a full ``SweepResult``, byte-identical
to an unsharded serial ``run``.  A per-stage wall-time breakdown
(spawn/serialize/simulate/stream/merge/cache_write/lookup) is printed
after the run.  ``--inject-fault unit:after_cells[:round]``
deterministically kills a worker (testing/CI knob).

A sharded sweep across K machines looks like::

    # on machine i (i = 0..K-1), with a per-shard cache root:
    repro-sweep run --profile paper --shard $i/$K \\
        --cache cache-$i --out shard-$i.json

    # back on one machine:
    repro-cache merge cache cache-0 ... cache-(K-1)
    repro-sweep merge --out sweep.json shard-0.json ... shard-(K-1).json
    repro-sweep render sweep.json

Cells are assigned to shards by hashing their cache key, so every
invocation computes the same plan without coordination, and the merged
sweep is bit-for-bit identical to a serial single-process run.  All
shards must be run with **identical settings and the same repro
version** (behaviour-changing PRs bump ``repro.version.__version__``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.exec import (
    ClusterExecutor,
    FaultInjection,
    ResultCache,
    StaleArtifactError,
    SweepShard,
    ShardSpec,
    add_executor_options,
    build_executor,
    merge_shard_results,
    plan_shards,
    run_sweep_shard,
)
from repro.experiments import (
    FIGURES,
    SWEEP_PROFILES,
    SweepResult,
    SweepSettings,
    render_figures,
    sweep_profile,
    table1_from_sweep,
)
from repro.experiments.sweep import describe_sweep_profiles
from repro.registry import PROPAGATION, REGISTRIES


def _parse_param_overrides(items: Optional[List[str]],
                           flag: str) -> dict:
    """Parse repeated ``KEY=VALUE`` items; values are JSON when possible."""
    params = {}
    for item in items or []:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ValueError(f"{flag} expects KEY=VALUE, got {item!r}")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def apply_propagation_overrides(settings: SweepSettings,
                                propagation: Optional[str],
                                raw_params: Optional[List[str]],
                                ) -> SweepSettings:
    """Apply ``--propagation`` / ``--propagation-param`` to ``settings``.

    Shared by ``repro-sweep`` and ``reproduce_figures.py``.  Raises
    :class:`ValueError` (with the registry's did-you-mean messages) on
    bad model or param names, before any cell is planned or dispatched.
    """
    if propagation is None and not raw_params:
        return settings
    overrides = dict(settings.config_overrides)
    previous_model = overrides.get("propagation_model", "range")
    if propagation is not None:
        overrides["propagation_model"] = propagation
    if propagation is not None and propagation != previous_model:
        # Switching models: the profile's baked-in params belong to the
        # old model and would (rightly) fail the new model's schema.
        params = {}
    else:
        params = dict(overrides.get("propagation_params", {}))
    params.update(_parse_param_overrides(raw_params, "--propagation-param"))
    overrides["propagation_params"] = params
    if not params:
        overrides.pop("propagation_params")
    PROPAGATION.validate_params(overrides.get("propagation_model", "range"),
                                overrides.get("propagation_params"))
    return dataclasses.replace(settings, config_overrides=overrides)


def _load_settings(args: argparse.Namespace) -> SweepSettings:
    if args.settings_json:
        payload = Path(args.settings_json).read_text(encoding="utf-8")
        settings = SweepSettings.from_json(payload)
    else:
        settings = sweep_profile(args.profile)
    return apply_propagation_overrides(
        settings, getattr(args, "propagation", None),
        getattr(args, "propagation_params", None))


def add_propagation_options(parser: argparse.ArgumentParser) -> None:
    """Add ``--propagation`` / ``--propagation-param`` to ``parser``.

    The single definition shared by ``repro-sweep`` and
    ``reproduce_figures.py``; pair with
    :func:`apply_propagation_overrides`.
    """
    parser.add_argument("--propagation", metavar="MODEL", default=None,
                        choices=PROPAGATION.available(),
                        help="override the propagation model of every run "
                             f"(one of: "
                             f"{', '.join(PROPAGATION.available())})")
    parser.add_argument("--propagation-param", dest="propagation_params",
                        action="append", metavar="KEY=VALUE",
                        help="propagation model parameter (repeatable; "
                             "e.g. sigma_db=6)")


def _add_settings_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--profile", default="bench",
                       choices=sorted(SWEEP_PROFILES),
                       help="canned grid profile (default: bench)")
    group.add_argument("--settings-json", metavar="FILE", default=None,
                       help="load SweepSettings from a JSON file instead "
                            "(share one file across all shards)")
    add_propagation_options(parser)


# ---------------------------------------------------------------------- #
def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be > 0")
    return value


def cmd_list_profiles() -> int:
    print("sweep profiles:")
    print(describe_sweep_profiles())
    print("\nregistered stack components (ScenarioConfig *_model fields):")
    for layer, registry in REGISTRIES.items():
        print(f"{layer}:")
        print(registry.describe())
    return 0


def cmd_run_scheduler(args: argparse.Namespace, settings: SweepSettings,
                      cache: Optional[ResultCache]) -> int:
    total = len(settings.grid())
    try:
        faults = [FaultInjection.parse(text)
                  for text in args.inject_fault or []]
        faults += [FaultInjection.parse(text, mode="hang")
                   for text in args.inject_hang or []]
    except ValueError as exc:
        print(f"--inject-fault/--inject-hang: {exc}", file=sys.stderr)
        return 2
    max_retries = 2 if args.max_retries is None else args.max_retries
    scheduler = ClusterExecutor(shards=args.scheduler,
                                max_retries=max_retries,
                                cache=cache, faults=faults,
                                worker_timeout=args.worker_timeout)
    print(f"scheduler: {total} grid cell(s) across up to "
          f"{args.scheduler} worker shard(s)")
    started = time.time()  # repro-lint: ignore[D-wallclock] progress display only
    progress = None
    if not args.quiet:
        completed = [0]

        def progress(protocol, speed, replication, result):
            completed[0] += 1
            print(f"  [{completed[0]:>3}/{total}] {protocol:<5} "
                  f"speed={speed:<4g} rep={replication} "
                  f"({time.time() - started:6.1f} s elapsed)",  # repro-lint: ignore[D-wallclock] display
                  flush=True)

    with scheduler:
        sweep = scheduler.run_sweep(settings, progress=progress)
    print(f"scheduler: {scheduler.cells_from_cache} cell(s) from cache, "
          f"{scheduler.cells_streamed} streamed from "
          f"{scheduler.workers_launched} worker(s) over "
          f"{scheduler.rounds} round(s); "
          f"{scheduler.worker_failures} worker failure(s) "
          f"({scheduler.workers_timed_out} timed out), "
          f"{scheduler.temp_files_swept} orphan temp file(s) swept")
    print(f"scheduler: pool spawned {scheduler.workers_spawned} "
          f"process(es), served {scheduler.workers_reused} dispatch(es) "
          f"from warm workers")
    stages = " ".join(f"{stage}={seconds * 1000.0:.0f}ms" for stage, seconds
                      in sorted(scheduler.stage_seconds.items()))
    print(f"scheduler stages: {stages}")
    if args.out:
        sweep.save(args.out)
        print(f"sweep result written to {args.out}")
    print(f"wall-clock: {time.time() - started:.1f} s")  # repro-lint: ignore[D-wallclock] display
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    if args.list_profiles:
        return cmd_list_profiles()
    try:
        settings = _load_settings(args)
        # Opened up front so a root ResultCache refuses (a file, or one
        # still holding packed segments) exits 2 with its message.
        cache = None if args.cache is None else ResultCache(args.cache)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.scheduler is not None:
        if args.shard != "0/1":
            print("--scheduler and --shard are mutually exclusive "
                  "(the scheduler plans its own shards)", file=sys.stderr)
            return 2
        if args.inject_hang and args.worker_timeout is None:
            # A hung worker is only ever recovered by the timeout
            # heartbeat; without one the run would block forever.
            print("--inject-hang requires --worker-timeout",
                  file=sys.stderr)
            return 2
        return cmd_run_scheduler(args, settings, cache)
    if (args.inject_fault or args.inject_hang
            or args.max_retries is not None
            or args.worker_timeout is not None):
        # Silently ignoring these would let a CI script believe its
        # fault-injection path ran when nothing was injected.
        print("--inject-fault/--inject-hang/--max-retries/--worker-timeout "
              "require --scheduler", file=sys.stderr)
        return 2
    shard = ShardSpec.parse(args.shard)
    plan = plan_shards(settings, shard.count)
    planned = len(plan[shard.index])
    print(f"shard {shard}: {planned} of {len(settings.grid())} grid "
          f"cell(s)")

    started = time.time()  # repro-lint: ignore[D-wallclock] progress display only
    progress = None
    if not args.quiet:
        completed = [0]

        def progress(protocol, speed, replication, result):
            completed[0] += 1
            print(f"  [{completed[0]:>3}/{planned}] {protocol:<5} "
                  f"speed={speed:<4g} rep={replication} "
                  f"({time.time() - started:6.1f} s elapsed)",  # repro-lint: ignore[D-wallclock] display
                  flush=True)

    with build_executor(args.workers, cache) as executor:
        piece = run_sweep_shard(settings, shard=shard, progress=progress,
                                executor=executor, plan=plan)
    if executor.cache is not None:
        print(f"cache: {executor.cache.hits} hit(s), "
              f"{executor.simulations_run} simulation(s) executed")
    if args.out:
        if shard.count == 1:
            merge_shard_results([piece]).save(args.out)
            print(f"sweep result written to {args.out}")
        else:
            piece.save(args.out)
            print(f"shard artifact written to {args.out}")
    print(f"wall-clock: {time.time() - started:.1f} s")  # repro-lint: ignore[D-wallclock] display
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    try:
        settings = _load_settings(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    plans = plan_shards(settings, args.shards)
    grid = settings.grid()
    for index, mine in enumerate(plans):
        cells = ", ".join(f"{p}@{s:g}m/s#{r}" for p, s, r
                          in (grid[i] for i in mine)) or "(empty)"
        print(f"shard {index}/{args.shards}: {len(mine)} cell(s): {cells}")
    return 0


def cmd_merge(args: argparse.Namespace) -> int:
    shards = [SweepShard.load(path) for path in args.shards]
    sweep = merge_shard_results(shards)
    sweep.save(args.out)
    cells = sum(len(piece.results) for piece in shards)
    print(f"merged {len(shards)} shard(s) ({cells} cell(s)) "
          f"into {args.out}")
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    try:
        sweep = SweepResult.load(args.artifact,
                                 allow_stale=args.allow_stale)
    except StaleArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_figures(sweep, args.figures or None))
    if args.table1:
        table1_text = table1_from_sweep(sweep)
        if table1_text is None:
            print("\n(no DSR run in the artifact; Table I skipped)",
                  file=sys.stderr)
            return 1
        print()
        print(table1_text)
    return 0


# ---------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sweep",
        description="Run, shard, merge, and re-render speed sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the grid, or one shard of it")
    _add_settings_options(run)
    run.add_argument("--shard", default="0/1", metavar="i/K",
                     help="run shard i of a K-way split (0-based; "
                          "default 0/1 = the whole grid)")
    run.add_argument("--scheduler", type=_positive_int, metavar="K",
                     default=None,
                     help="run the whole grid through the streaming shard "
                          "scheduler with K worker shards (cache-aware; "
                          "rebalances after worker deaths; --workers is "
                          "ignored on this path)")
    run.add_argument("--max-retries", type=_nonnegative_int, default=None,
                     metavar="N",
                     help="extra scheduling rounds allowed after worker "
                          "failures (scheduler mode only; default 2)")
    run.add_argument("--inject-fault", action="append", metavar="U:C[:R]",
                     help="deterministically kill the worker of unit U in "
                          "round R (default 0) after C completed cells "
                          "(scheduler mode; testing/CI knob; repeatable)")
    run.add_argument("--worker-timeout", type=_positive_float, default=None,
                     metavar="SECONDS",
                     help="terminate and rebalance any worker showing no "
                          "progress (no new cached cells) for SECONDS; "
                          "must comfortably exceed the slowest single "
                          "cell plus worker startup (scheduler mode; "
                          "recovers hung-but-alive workers)")
    run.add_argument("--inject-hang", action="append", metavar="U:C[:R]",
                     help="deterministically hang (not kill) the worker of "
                          "unit U in round R after C completed cells; "
                          "requires --worker-timeout (scheduler mode; "
                          "testing/CI knob; repeatable)")
    run.add_argument("--list-profiles", action="store_true",
                     help="list the canned grid profiles and the "
                          "registered stack components, then exit")
    add_executor_options(run)
    run.add_argument("--out", metavar="PATH", default=None,
                     help="write the artifact here: a full SweepResult "
                          "for 0/1, a mergeable shard artifact otherwise")
    run.add_argument("--quiet", action="store_true",
                     help="suppress per-cell progress lines")
    run.set_defaults(func=cmd_run)

    plan = sub.add_parser("plan",
                          help="show which cells land on which shard")
    _add_settings_options(plan)
    plan.add_argument("--shards", type=int, required=True, metavar="K",
                      help="number of shards to plan for")
    plan.set_defaults(func=cmd_plan)

    merge = sub.add_parser(
        "merge", help="merge shard artifacts into a full sweep artifact")
    merge.add_argument("--out", metavar="PATH", required=True,
                       help="where to write the merged SweepResult JSON")
    merge.add_argument("shards", nargs="+", metavar="shard.json",
                       help="shard artifacts written by run --shard")
    merge.set_defaults(func=cmd_merge)

    render = sub.add_parser(
        "render", help="re-render figures from a sweep artifact "
                       "(zero simulations)")
    render.add_argument("artifact", help="SweepResult JSON "
                        "(run --out / merge --out / SweepResult.save)")
    render.add_argument("--figure", dest="figures", action="append",
                        metavar="ID", choices=sorted(FIGURES),
                        help="render only this figure (repeatable)")
    render.add_argument("--table1", action="store_true",
                        help="also render Table I from the artifact's "
                             "first DSR run")
    render.add_argument("--allow-stale", action="store_true",
                        help="render an artifact stamped by a different "
                             "repro version anyway (warns instead of "
                             "refusing)")
    render.set_defaults(func=cmd_render)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
