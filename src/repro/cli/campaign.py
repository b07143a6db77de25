"""``repro-campaign`` — run, inspect, and query result campaigns.

Subcommands::

    repro-campaign run    MANIFEST --cache DIR [--store DIR] [--workers N]
                          [--stop-after-cells N | --scheduler K]
    repro-campaign status MANIFEST --cache DIR [--json]
    repro-campaign query  --store DIR [--campaign NAME [--entry NAME
                          [--figure ID | --figures | --table1 | --sweep]]]
                          [--allow-stale]

``run`` executes (or resumes) every entry of a campaign manifest.  All
durability is in the ``--cache``: a rerun of a half-finished campaign
serves completed cells from the cache and simulates only the misses, so
crash recovery is simply "run it again".  With ``--store``, rendered
deliverables (sweep JSON, figure text, Table I) are published to the
content-addressed artifact store that ``repro-serve`` and ``query``
answer from with zero simulations.  ``--stop-after-cells N`` exits with
code 3 after N newly simulated cells — a deterministic mid-campaign
"kill" for resume testing and CI.  ``--scheduler K`` runs every entry
through the streaming shard scheduler instead: one persistent pool of up
to K warm workers serves the whole campaign, and the per-stage wall-time
totals are printed at the end (not combinable with
``--stop-after-cells``).

``status`` reports per-entry cache coverage using the O(1) entry-header
probe — no simulations, no result deserialization.

``query`` reads only the store: list campaigns, show an entry's digests,
or print a figure/table/sweep byte-identically to ``repro-sweep render``
over the same artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.campaign import (
    ArtifactStore,
    CampaignInterrupted,
    CampaignSpec,
    campaign_status,
    run_campaign,
)
from repro.exec import (
    ClusterExecutor,
    ResultCache,
    StaleArtifactError,
    add_executor_options,
    build_executor,
)
from repro.experiments import FIGURES

#: ``run`` exit code when ``--stop-after-cells`` fired (distinct from
#: error codes so scripts can assert the interruption actually happened).
EXIT_INTERRUPTED = 3


def _load_spec(path: str) -> CampaignSpec:
    return CampaignSpec.load(path)


def cmd_run(args: argparse.Namespace) -> int:
    try:
        spec = _load_spec(args.manifest)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.cache is None:
        print("error: campaign runs need --cache (resumability lives in "
              "the result cache)", file=sys.stderr)
        return 2
    try:
        cache = ResultCache(args.cache)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.scheduler is not None and args.stop_after_cells is not None:
        print("error: --stop-after-cells requires the serial/parallel "
              "path (omit --scheduler): scheduled cells complete in "
              "parallel workers, so a serial after-N point does not "
              "exist", file=sys.stderr)
        return 2
    store = ArtifactStore(args.store) if args.store else None
    scheduler = None
    try:
        if args.scheduler is not None:
            scheduler = ClusterExecutor(shards=args.scheduler, cache=cache)
            report = run_campaign(spec, store=store, scheduler=scheduler)
        else:
            executor = build_executor(args.workers, cache)
            report = run_campaign(spec, executor=executor, store=store,
                                  stop_after_cells=args.stop_after_cells)
    except CampaignInterrupted as exc:
        print(f"interrupted: {exc}")
        return EXIT_INTERRUPTED
    finally:
        if scheduler is not None:
            scheduler.close()
    for entry in report.entries:
        print(f"entry {entry.name}: {entry.cells} cell(s): "
              f"{entry.from_cache} from cache, {entry.simulated} simulated")
    print(f"campaign {report.campaign}: {report.cells} cell(s): "
          f"{report.from_cache} from cache, {report.simulated} simulated")
    if scheduler is not None:
        print(f"scheduler: pool spawned {scheduler.total_workers_spawned} "
              f"process(es) for the whole campaign, served "
              f"{scheduler.total_workers_reused} dispatch(es) from warm "
              f"workers")
        stages = " ".join(
            f"{stage}={seconds * 1000.0:.0f}ms" for stage, seconds
            in sorted(scheduler.total_stage_seconds.items()))
        print(f"scheduler stages (campaign total): {stages}")
    if report.index_path is not None:
        print(f"published to store index {report.index_path}")
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    try:
        spec = _load_spec(args.manifest)
        cache = ResultCache(args.cache)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    status = campaign_status(spec, cache)
    if args.json:
        print(json.dumps({
            "campaign": spec.name,
            "entries": [{"name": entry.name, "cells": entry.cells,
                         "cached": entry.cached, "missing": entry.missing,
                         "complete": entry.complete}
                        for entry in status],
        }, indent=2, sort_keys=True))
        return 0
    complete = True
    for entry in status:
        state = ("complete" if entry.complete
                 else f"{entry.missing} missing")
        print(f"entry {entry.name}: {entry.cached}/{entry.cells} cell(s) "
              f"cached; {state}")
        complete = complete and entry.complete
    print(f"campaign {spec.name}: "
          f"{'complete' if complete else 'incomplete'}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    store = ArtifactStore(args.store)
    if args.campaign is None:
        for name in store.campaigns():
            print(name)
        return 0
    try:
        index = store.get_index(args.campaign, allow_stale=args.allow_stale)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except StaleArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    entries = index.get("entries", {})
    if args.entry is None:
        for name in sorted(entries):
            record = entries[name]
            print(f"entry {name}: {record.get('cells')} cell(s), "
                  f"sweep {str(record.get('sweep'))[:12]}…")
        return 0
    if args.entry not in entries:
        known = ", ".join(sorted(entries)) or "(none)"
        print(f"error: campaign {args.campaign!r} has no entry "
              f"{args.entry!r}; entries: {known}", file=sys.stderr)
        return 2
    record = entries[args.entry]
    if args.sweep:
        sys.stdout.write(store.get_text(record["sweep"]))
        return 0
    if args.table1:
        digest = record.get("table1")
        if digest is None:
            print("(no DSR run in this entry; Table I not published)",
                  file=sys.stderr)
            return 1
        print(store.get_text(digest))
        return 0
    if args.figure is not None:
        print(store.get_text(record["figures"][args.figure]))
        return 0
    if args.figures:
        print(store.get_text(record["figures_all"]))
        return 0
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------- #
def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description="Run, inspect, and query result campaigns.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run (or resume) every entry of a campaign manifest")
    run.add_argument("manifest", help="campaign manifest JSON")
    add_executor_options(run)
    run.add_argument("--store", metavar="DIR", default=None,
                     help="publish deliverables to this artifact store "
                          "(what repro-serve reads)")
    run.add_argument("--stop-after-cells", type=_nonnegative_int,
                     metavar="N", default=None,
                     help="exit with code 3 after N newly simulated "
                          "cells (deterministic mid-campaign kill for "
                          "resume testing; not with --scheduler)")
    run.add_argument("--scheduler", type=_positive_int, metavar="K",
                     default=None,
                     help="run every entry through the streaming shard "
                          "scheduler with K worker shards; one warm "
                          "worker pool serves the whole campaign "
                          "(--workers is ignored on this path)")
    run.set_defaults(func=cmd_run)

    status = sub.add_parser(
        "status", help="per-entry cache coverage (no simulations)")
    status.add_argument("manifest", help="campaign manifest JSON")
    status.add_argument("--cache", metavar="DIR", required=True,
                        help="result-cache directory to probe")
    status.add_argument("--json", action="store_true",
                        help="machine-readable output")
    status.set_defaults(func=cmd_status)

    query = sub.add_parser(
        "query", help="answer queries from the artifact store "
                      "(zero simulations)")
    query.add_argument("--store", metavar="DIR", required=True,
                       help="artifact store directory")
    query.add_argument("--campaign", metavar="NAME", default=None,
                       help="campaign to query (omit to list campaigns)")
    query.add_argument("--entry", metavar="NAME", default=None,
                       help="entry to query (omit to list entries)")
    query.add_argument("--figure", metavar="ID", default=None,
                       choices=sorted(FIGURES),
                       help="print one figure's text")
    query.add_argument("--figures", action="store_true",
                       help="print all figures (repro-sweep render "
                            "byte-identical)")
    query.add_argument("--table1", action="store_true",
                       help="print the entry's Table I text")
    query.add_argument("--sweep", action="store_true",
                       help="print the raw sweep artifact JSON")
    query.add_argument("--allow-stale", action="store_true",
                       help="serve an index stamped by a different repro "
                            "version anyway (warns instead of refusing)")
    query.set_defaults(func=cmd_query)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
