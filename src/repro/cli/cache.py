"""``repro-cache`` — inspect and maintain on-disk result caches.

Subcommands (all operating on :class:`~repro.exec.cache.ResultCache`
directories)::

    repro-cache stats  ROOT [--json]
    repro-cache verify ROOT [--json]
    repro-cache prune  ROOT [--temp-age SECONDS] [--dry-run]
    repro-cache merge  DEST SOURCE [SOURCE ...]
    repro-cache gc     ROOT [--max-age-days D] [--max-size-mb M] [--dry-run]

Exit status is 0 on success; ``verify`` exits 1 when corrupt entries are
found and ``merge`` exits 1 when same-key entries with different content
collide (the destination copy is kept either way).  Every command but
``merge`` (whose DEST may be new) exits 2 when ROOT is not an existing
directory, rather than creating it and reporting an empty cache.

Every command refuses a root that still holds the retired packed
segments (``packs/*.pack``) with exit 2.

A cache entry is only served when its recorded ``repro`` version matches
the running package, and **any PR that changes simulation behaviour must
bump** ``repro.version.__version__`` — that rule is what makes ``prune``
(which drops other-version entries) safe and long-lived shared cache
directories trustworthy.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.exec import ResultCache


def _fmt_bytes(n: int) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n} B"
        n /= 1024
    return f"{n} B"  # pragma: no cover - unreachable


def _existing_cache(root: str) -> ResultCache:
    """Open ``root`` for maintenance; it must already exist.

    Raises :class:`ValueError` for a missing root — a mistyped path must
    fail, not be created and reported as a clean, empty cache — and for
    a root that still holds packed segments.
    """
    if not Path(root).is_dir():
        raise ValueError(f"cache root {root!r} is not an existing "
                         f"directory")
    return ResultCache(root)


# ---------------------------------------------------------------------- #
def cmd_stats(args: argparse.Namespace) -> int:
    stats = _existing_cache(args.root).stats()
    if args.json:
        payload = dataclasses.asdict(stats)
        payload["root"] = str(stats.root)
        print(json.dumps(payload, sort_keys=True, indent=2))
        return 0
    print(f"cache {stats.root}")
    print(f"  entries:      {stats.entries} ({_fmt_bytes(stats.total_bytes)})")
    print(f"  servable now: {stats.current} "
          f"(repro {stats.current_version})")
    for version, count in stats.by_version.items():
        marker = " (current)" if version == stats.current_version else ""
        print(f"    repro {version}: {count}{marker}")
    print(f"  unreadable:   {stats.unreadable}")
    print(f"  temp files:   {stats.temp_files}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    problems = _existing_cache(args.root).verify()
    corrupt = [p for p in problems if p.kind == "corrupt"]
    stale = [p for p in problems if p.kind == "stale"]
    if args.json:
        print(json.dumps([{"path": str(p.path), "kind": p.kind,
                           "detail": p.detail} for p in problems],
                         indent=2))
    else:
        for problem in problems:
            print(f"{problem.kind:>8}  {problem.path}: {problem.detail}")
        print(f"{len(corrupt)} corrupt, {len(stale)} stale "
              f"(from another version) entr(ies)")
    return 1 if corrupt else 0


def cmd_prune(args: argparse.Namespace) -> int:
    report = _existing_cache(args.root).prune(
        temp_min_age_seconds=args.temp_age, dry_run=args.dry_run)
    verb = "would remove" if report.dry_run else "removed"
    for problem in report.problems:
        print(f"{problem.kind:>8}  {problem.path}: {problem.detail}")
    print(f"{verb}: {report.corrupt} corrupt entr(ies), {report.stale} "
          f"stale entr(ies), {report.temp_files} orphaned temp file(s)")
    return 0


def cmd_merge(args: argparse.Namespace) -> int:
    dest = ResultCache(args.dest)
    total_copied = total_identical = total_conflicts = 0
    for source in args.sources:
        merged = dest.merge_from(source)
        print(f"{source} -> {args.dest}: {merged.copied} copied, "
              f"{merged.identical} already present, "
              f"{merged.conflicts} conflict(s)")
        for path in merged.conflict_paths:
            print(f"  conflict kept from destination: {path}")
        total_copied += merged.copied
        total_identical += merged.identical
        total_conflicts += merged.conflicts
    print(f"total: {total_copied} copied, {total_identical} already "
          f"present, {total_conflicts} conflict(s)")
    return 1 if total_conflicts else 0


def cmd_gc(args: argparse.Namespace) -> int:
    if args.max_age_days is None and args.max_size_mb is None:
        print("gc: pass --max-age-days and/or --max-size-mb",
              file=sys.stderr)
        return 2
    removed = _existing_cache(args.root).gc(
        max_age_seconds=(None if args.max_age_days is None
                         else args.max_age_days * 86400.0),
        max_total_bytes=(None if args.max_size_mb is None
                         else int(args.max_size_mb * 1024 * 1024)),
        dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    for path in removed:
        print(f"  {path}")
    print(f"{verb} {len(removed)} entr(ies)")
    return 0


# ---------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cache",
        description="Inspect and maintain repro result-cache directories.")
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sub.add_parser("stats", help="entry/byte counts per version")
    stats.add_argument("root", help="cache directory")
    stats.add_argument("--json", action="store_true",
                       help="machine-readable output")
    stats.set_defaults(func=cmd_stats)

    verify = sub.add_parser(
        "verify", help="deep integrity check (re-hash every entry)")
    verify.add_argument("root", help="cache directory")
    verify.add_argument("--json", action="store_true",
                        help="machine-readable output")
    verify.set_defaults(func=cmd_verify)

    prune = sub.add_parser(
        "prune", help="drop corrupt/stale entries and orphaned temp files")
    prune.add_argument("root", help="cache directory")
    prune.add_argument("--temp-age", type=float, default=0.0,
                       metavar="SECONDS",
                       help="only sweep temp files at least this old "
                            "(protects live writers; default 0)")
    prune.add_argument("--dry-run", action="store_true",
                       help="report what would be removed, remove nothing")
    prune.set_defaults(func=cmd_prune)

    merge = sub.add_parser(
        "merge", help="copy entries of SOURCE caches into DEST "
                      "(how shard caches come back together)")
    merge.add_argument("dest", help="destination cache directory")
    merge.add_argument("sources", nargs="+", metavar="source",
                       help="source cache directories")
    merge.set_defaults(func=cmd_merge)

    gc = sub.add_parser(
        "gc", help="expire entries by age and/or shrink to a size budget")
    gc.add_argument("root", help="cache directory")
    gc.add_argument("--max-age-days", type=float, default=None,
                    help="drop entries older than this many days")
    gc.add_argument("--max-size-mb", type=float, default=None,
                    help="drop oldest entries until the cache fits")
    gc.add_argument("--dry-run", action="store_true",
                    help="report what would be removed, remove nothing")
    gc.set_defaults(func=cmd_gc)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
