"""Content-addressed on-disk result cache.

A :class:`ResultCache` stores one JSON file per completed simulation,
keyed by a stable SHA-256 hash of the scenario configuration.  Re-running
a sweep, a figure, or an ablation therefore only pays for the cells whose
configuration actually changed; everything else is reloaded from disk.

Key properties
--------------
* **Content-addressed.**  The key is derived from the canonical JSON form
  of the config (sorted keys, compact separators), so two structurally
  identical configs always map to the same entry regardless of how they
  were constructed.  The ``trace`` flag is excluded from the key because
  tracing changes what is logged, never what is measured.
* **Durable artifact.**  Each entry stores both the config and the full
  :class:`~repro.scenario.results.ScenarioResult`, so a cache directory
  doubles as a self-describing archive of every simulation ever run.
* **Crash/concurrency safe.**  Every entry goes through one writer: a
  unique temporary file, ``fsync``, then an atomic rename into place.
  Corrupt or stale entries are treated as misses, never as errors.
* **Version-guarded.**  Each entry opens with a fixed header (format
  version, key, ``repro`` version).  An entry whose header does not match
  the running package — another version, or an entry written before the
  header layout — is a miss for every reader.  Any change that alters
  simulation behaviour must therefore bump ``repro.version.__version__``
  — that is what keeps a long-lived cache directory from silently
  serving pre-change results as current.
* **One layout.**  Entries are loose files, ``<root>/ab/<key>.json``.
  Nothing reads the retired packed-segment layout
  (``<root>/packs/*.pack``); :class:`ResultCache` refuses to open a root
  that still holds segments rather than re-simulating them in silence.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import time
from pathlib import Path
from typing import (
    Collection, Dict, List, Optional, Sequence, Tuple, Union,
)

from repro.scenario.config import ScenarioConfig
from repro.scenario.results import ScenarioResult
from repro.version import __version__

#: Bump when the on-disk entry layout changes; older entries become misses.
CACHE_FORMAT_VERSION = 1

#: Bytes read by the :meth:`ResultCache.has_current` bounded probe —
#: comfortably larger than the fixed header :meth:`ResultCache.put`
#: writes (format version + 64-hex key + repro version ≈ 120 bytes).
_PROBE_HEADER_BYTES = 512


def atomic_write_text(path: Union[str, os.PathLike], text: str,
                      encoding: str = "utf-8") -> Path:
    """Write ``text`` to ``path`` atomically (unique temp + ``os.replace``).

    The durable-artifact discipline shared by sweep/shard artifacts and
    the campaign artifact store: a reader never observes a half-written
    file, and a killed writer leaves only a ``.{name}.{pid}.tmp`` orphan
    that sweepers recognise.
    """
    target = Path(path)
    tmp = target.parent / f".{target.name}.{os.getpid()}.tmp"
    tmp.write_text(text, encoding=encoding)
    os.replace(tmp, target)
    return target


def _write_entry(path: Path, data: bytes) -> None:
    """Durably write one cache entry: unique temp file, fsync, rename.

    The single entry writer behind :meth:`ResultCache.put` and
    :meth:`ResultCache.merge_from`.  Readers
    never observe a half-written entry, a renamed entry survives a
    machine crash, and a writer killed mid-write leaves only a
    ``.{key}.{pid}.tmp`` orphan for :meth:`ResultCache.sweep_temp_files`.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.stem}.{os.getpid()}.tmp"
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _entry_header(key: str) -> bytes:
    """The fixed prefix every current entry for ``key`` opens with.

    Entries open with the three guard fields in a byte-exact layout, so
    :meth:`ResultCache.has_current` can validate an entry from a small
    bounded read instead of parsing the (potentially large) ``result``
    payload, and :meth:`ResultCache.get` applies the very same test.  The
    prefix cannot be spoofed by entry *content*: JSON string values
    escape the quote characters the layout relies on.
    """
    return (f'{{"format_version": {CACHE_FORMAT_VERSION}, '
            f'"key": "{key}", '
            f'"repro_version": {json.dumps(__version__)}, ').encode("utf-8")


def _temp_file_pid(name: str) -> Optional[int]:
    """The writer pid encoded in a ``.{key}.{pid}.tmp`` file name."""
    parts = name.split(".")
    try:
        return int(parts[-2])
    except (IndexError, ValueError):
        return None


def config_key(config: ScenarioConfig) -> str:
    """Stable SHA-256 hex digest identifying ``config``'s simulation.

    The ``trace`` flag is dropped before hashing: it only controls
    logging, so traced and untraced runs of the same scenario share a
    cache entry.
    """
    return _key_of(config.to_dict())


def _key_of(config_dict: Dict[str, object]) -> str:
    """:func:`config_key` of the config whose ``to_dict()`` is given.

    :meth:`ResultCache.put` hashes the very dict it stores as the entry's
    ``config``, so the key and the body can never disagree.
    """
    payload = dict(config_dict)
    payload.pop("trace", None)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """On-disk cache mapping :class:`ScenarioConfig` to :class:`ScenarioResult`.

    Parameters
    ----------
    root:
        Directory holding the cache; created (with parents) if missing.
        Entries live under two-character shard subdirectories
        (``<root>/ab/abcdef....json``) to keep directories small even for
        very large grids.  A root that still holds retired packed
        segments raises :class:`ValueError`.
    """

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise ValueError(
                f"cache root {str(self.root)!r} exists and is not a "
                f"directory") from exc
        segments = sorted(self.root.glob("packs/*.pack"))
        if segments:
            raise ValueError(
                f"cache root {str(self.root)!r} still holds packed segments "
                f"(e.g. {segments[0].name}), a retired layout this version "
                f"does not read; use another cache root, or delete "
                f"{str(self.root / 'packs')!r} to re-simulate its entries")
        #: Number of successful lookups since this object was created.
        self.hits: int = 0
        #: Number of failed lookups (absent or unreadable entries).
        self.misses: int = 0

    # ------------------------------------------------------------------ #
    def _entry_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def path_for(self, config: ScenarioConfig) -> Path:
        """The on-disk path that does (or would) hold ``config``'s result."""
        return self._entry_path(config_key(config))

    def __contains__(self, config: ScenarioConfig) -> bool:
        return self.path_for(config).is_file()

    def _entry_files(self) -> List[Path]:
        """Every entry file, in sorted order.

        Sorted at the source so every consumer (stats, verify, prune,
        gc, merge) walks entries in the same deterministic order on any
        filesystem.
        """
        return sorted(self.root.glob("??/*.json"))

    def temp_files(self) -> List[Path]:
        """Temporary files left behind by in-flight or crashed writers.

        :meth:`put` writes through ``.{key}.{pid}.tmp`` files; a writer
        that dies between write and rename orphans its temp file.  Reads
        never touch them (they match no entry path), but they accumulate
        forever unless swept — see :meth:`sweep_temp_files`.
        """
        return sorted(itertools.chain(self.root.glob(".*.tmp"),
                                      self.root.glob("??/.*.tmp")))

    def sweep_temp_files(self, min_age_seconds: float = 0.0,
                         pids: Optional[Collection[int]] = None) -> int:
        """Delete orphaned writer temp files; returns how many were removed.

        ``min_age_seconds`` protects live writers: only temp files whose
        mtime is at least that old are deleted (pass ``0`` to sweep
        everything, safe when no sweep is running against this root).
        ``pids`` restricts the sweep to temp files written by those
        process ids (the ``.{key}.{pid}.tmp`` name component) — how a
        scheduler sweeps up after workers it *knows* are dead without
        racing other writers that may share the cache root.
        """
        cutoff = time.time() - min_age_seconds  # repro-lint: ignore[D-wallclock] mtime GC only
        removed = 0
        for tmp in self.temp_files():
            if pids is not None and _temp_file_pid(tmp.name) not in pids:
                continue
            try:
                if tmp.stat().st_mtime <= cutoff:
                    tmp.unlink()
                    removed += 1
            except OSError:  # pragma: no cover - racing writer/deleter
                pass
        return removed

    def __len__(self) -> int:
        return len(self._entry_files())

    # ------------------------------------------------------------------ #
    def get(self, config: ScenarioConfig) -> Optional[ScenarioResult]:
        """The cached result for ``config``, or ``None`` on a miss.

        Absent, unreadable, corrupt, other-version and pre-header entries
        all count as misses; they are overwritten by the next
        :meth:`put`.  An entry is current exactly when it opens with the
        :func:`_entry_header` prefix for its key — the test
        :meth:`has_current` makes, so the two always agree.
        """
        key = config_key(config)
        try:
            data = self._entry_path(key).read_bytes()
            if not data.startswith(_entry_header(key)):
                raise ValueError("entry is not current")
            result = ScenarioResult.from_dict(
                json.loads(data.decode("utf-8"))["result"])
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def has_current(self, config: ScenarioConfig) -> bool:
        """Whether a valid, current-version entry for ``config`` exists.

        The same header guard as :meth:`get`, but without deserializing
        the result and without touching the hit/miss counters — a cheap
        existence probe (used by the scheduler's progress heartbeat and
        by campaign status polling, where only *whether* a cell
        completed matters, not its content).

        Cost is O(1)-ish, not O(entry size): the probe reads a small
        bounded head and byte-compares it against the exact
        :func:`_entry_header` prefix :meth:`put` writes, so a multi-MB
        ``result`` payload is never read, let alone parsed.
        """
        path = self.path_for(config)
        try:
            with open(path, "rb") as handle:
                head = handle.read(_PROBE_HEADER_BYTES)
        except OSError:
            return False
        return head.startswith(_entry_header(path.stem))

    def lookup(self, configs: Sequence[ScenarioConfig],
               ) -> Tuple[Dict[int, ScenarioResult], List[int]]:
        """Batch :meth:`get`: split ``configs`` into hits and misses.

        Returns ``(hits, misses)`` where ``hits`` maps positions in
        ``configs`` to their cached results (in position order) and
        ``misses`` lists the positions that must be simulated.  This is
        the primitive behind cache-aware scheduling: executors serve the
        hits immediately and only dispatch the misses.
        """
        hits: Dict[int, ScenarioResult] = {}
        misses: List[int] = []
        for index, config in enumerate(configs):
            result = self.get(config)
            if result is None:
                misses.append(index)
            else:
                hits[index] = result
        return hits, misses

    def put(self, config: ScenarioConfig, result: ScenarioResult) -> Path:
        """Store ``result`` for ``config``; returns the entry path.

        The write is durable and atomic (temp file + fsync +
        ``os.replace``), so concurrent writers — e.g. two parallel sweeps
        sharing a cache directory — can only race to write identical
        content.

        Entries are one JSON object whose first bytes are the fixed
        :func:`_entry_header` guard prefix (format version, key, repro
        version), followed by the sorted-key body.
        """
        return self._put_dicts(config.to_dict(), result.to_dict())

    def _put_dicts(self, config_dict: Dict[str, object],
                   result_dict: Dict[str, object]) -> Path:
        """:meth:`put` from ``config.to_dict()`` and ``result.to_dict()``.

        For a writer that needs the result dict again (a scheduler
        worker also sends it in its frame), so it is built only once.
        """
        key = _key_of(config_dict)
        body = json.dumps({
            "version": CACHE_FORMAT_VERSION,
            "repro_version": __version__,
            "key": key,
            "config": config_dict,
            "result": result_dict,
        }, sort_keys=True)
        path = self._entry_path(key)
        _write_entry(path, _entry_header(key) + body[1:].encode("utf-8"))
        return path

    def clear(self) -> int:
        """Delete every entry; returns the number of entries removed."""
        removed = 0
        for entry in self._entry_files():
            try:
                entry.unlink()
                removed += 1
            except OSError:  # pragma: no cover - racing deleter
                pass
        return removed

    # ------------------------------------------------------------------ #
    # maintenance (the substrate of the ``repro-cache`` CLI)
    # ------------------------------------------------------------------ #
    def stats(self) -> "CacheStats":
        """Shallow inventory: entry/byte counts per recorded repro version.

        Entries are only read far enough to extract their version stamps;
        unparseable files are counted as ``unreadable`` rather than
        raised.  A current-version entry written before the header layout
        is listed as ``"<version> (pre-header)"``: like :meth:`get` and
        :meth:`has_current`, ``current`` does not count it as servable.
        Use :meth:`verify` for the deep (re-hash) check.
        """
        by_version: Dict[str, int] = {}
        entries = unreadable = 0
        total_bytes = 0
        for path in self._entry_files():
            entries += 1
            try:
                total_bytes += path.stat().st_size
                data = path.read_bytes()
                version = str(json.loads(data.decode("utf-8"))
                              .get("repro_version"))
            except (OSError, ValueError, AttributeError):
                unreadable += 1
                continue
            if (version == __version__
                    and not data.startswith(_entry_header(path.stem))):
                version += " (pre-header)"
            by_version[version] = by_version.get(version, 0) + 1
        return CacheStats(root=self.root, entries=entries,
                          total_bytes=total_bytes, unreadable=unreadable,
                          temp_files=len(self.temp_files()),
                          by_version=dict(sorted(by_version.items())),
                          current_version=__version__)

    def verify(self) -> List["CacheProblem"]:
        """Deep integrity check of every entry; returns found problems.

        For each entry: the JSON must parse, the recorded key must match
        the filename, and — for entries stamped with the *current* repro
        version — the stored config must rebuild and re-hash to that
        same key.  Entries from other versions, and sound entries
        written before the header layout, are reported as ``stale``
        (they are well-formed misses, prunable but not corrupt).
        """
        problems: List[CacheProblem] = []
        for path in self._entry_files():
            key = path.stem
            try:
                data = path.read_bytes()
                payload = json.loads(data.decode("utf-8"))
            except (OSError, ValueError) as exc:
                problems.append(CacheProblem(path, "corrupt",
                                             f"unreadable JSON: {exc}"))
                continue
            found = self._verify_payload(payload, key)
            if found is None and not data.startswith(_entry_header(key)):
                found = ("stale", "written before the entry-header layout")
            if found is not None:
                problems.append(CacheProblem(path, *found))
        return problems

    def _verify_payload(self, payload: object, name_key: str,
                        ) -> Optional[Tuple[str, str]]:
        """The per-entry body checks behind :meth:`verify`.

        Returns ``(kind, detail)`` for a defective entry, ``None`` when
        the entry body is sound.
        """
        if not isinstance(payload, dict):
            return "corrupt", "entry is not a JSON object"
        if payload.get("version") != CACHE_FORMAT_VERSION:
            return ("stale", f"cache format "
                    f"{payload.get('version')!r} != {CACHE_FORMAT_VERSION}")
        if payload.get("key") != name_key:
            return ("corrupt", f"recorded key {payload.get('key')!r} "
                    f"does not match filename")
        if payload.get("repro_version") != __version__:
            return ("stale", f"repro "
                    f"{payload.get('repro_version')!r} != {__version__}")
        try:
            config = ScenarioConfig.from_dict(payload["config"])
            ScenarioResult.from_dict(payload["result"])
        except (ValueError, KeyError, TypeError) as exc:
            return "corrupt", f"entry does not deserialize: {exc}"
        if config_key(config) != name_key:
            return ("corrupt", "stored config re-hashes to "
                    f"{config_key(config)[:12]}…, not the entry key")
        return None

    def prune(self, temp_min_age_seconds: float = 0.0,
              dry_run: bool = False) -> "PruneReport":
        """Remove corrupt entries, stale-version entries, and orphan temps.

        After a prune, every remaining entry is a servable hit for the
        current ``repro`` version.  With ``dry_run`` nothing is deleted;
        the report shows what *would* go.
        """
        problems = self.verify()
        removed_corrupt = removed_stale = 0
        for problem in problems:
            if not dry_run:
                try:
                    problem.path.unlink()
                except OSError:  # pragma: no cover - racing deleter
                    continue
            if problem.kind == "corrupt":
                removed_corrupt += 1
            else:
                removed_stale += 1
        temps = self.temp_files()
        if dry_run:
            cutoff = time.time() - temp_min_age_seconds  # repro-lint: ignore[D-wallclock] mtime GC only
            removed_temps = 0
            for tmp in temps:
                try:
                    if tmp.stat().st_mtime <= cutoff:
                        removed_temps += 1
                except OSError:  # pragma: no cover - racing writer
                    pass
        else:
            removed_temps = self.sweep_temp_files(temp_min_age_seconds)
        return PruneReport(corrupt=removed_corrupt, stale=removed_stale,
                           temp_files=removed_temps, dry_run=dry_run,
                           problems=problems)

    def gc(self, max_age_seconds: Optional[float] = None,
           max_total_bytes: Optional[int] = None,
           dry_run: bool = False) -> List[Path]:
        """Expire entries by age and/or shrink the cache to a byte budget.

        ``max_age_seconds`` drops entries whose mtime is older; after
        that, ``max_total_bytes`` drops the *oldest* surviving entries
        until the remainder fits.  Returns the (would-be) deleted paths.
        """
        if max_age_seconds is None and max_total_bytes is None:
            raise ValueError("gc needs max_age_seconds and/or max_total_bytes")
        now = time.time()  # repro-lint: ignore[D-wallclock] entry-age GC, never a result input
        entries: List[Tuple[float, int, Path]] = []
        for path in self._entry_files():
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - racing deleter
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort()  # oldest first
        doomed: List[Path] = []
        survivors: List[Tuple[float, int, Path]] = []
        for mtime, size, path in entries:
            if max_age_seconds is not None and now - mtime > max_age_seconds:
                doomed.append(path)
            else:
                survivors.append((mtime, size, path))
        if max_total_bytes is not None:
            total = sum(size for _, size, _ in survivors)
            for _, size, path in survivors:
                if total <= max_total_bytes:
                    break
                doomed.append(path)
                total -= size
        if not dry_run:
            for path in doomed:
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - racing deleter
                    pass
        return doomed

    def merge_from(self, source: Union["ResultCache", str, os.PathLike],
                   ) -> "MergeStats":
        """Copy every entry of ``source`` into this cache.

        This is how sharded sweeps come back together: each shard runs
        against its own cache root, then the roots are merged into one.
        Entries are content-addressed, so a same-key collision should
        carry identical bytes; when it does not (``conflicts``), the
        existing destination entry is kept and the difference reported
        rather than silently overwritten.  Orphan temp files in the
        source are never copied.
        """
        if not isinstance(source, ResultCache):
            # Unlike the constructor (which creates missing roots), a merge
            # source must already exist: silently "merging" a typo'd path
            # would drop that shard's entries and report success.
            if not Path(source).is_dir():
                raise ValueError(
                    f"merge source {str(source)!r} is not an existing "
                    f"cache directory")
            source = ResultCache(source)
        if source.root.resolve() == self.root.resolve():
            raise ValueError("cannot merge a cache into itself")
        copied = identical = conflicts = 0
        conflict_paths: List[Path] = []
        for path in source._entry_files():
            try:
                data = path.read_bytes()
            except OSError:  # pragma: no cover - racing deleter
                continue
            dst_path = self._entry_path(path.stem)
            if dst_path.is_file():
                if dst_path.read_bytes() == data:
                    identical += 1
                else:
                    conflicts += 1
                    conflict_paths.append(dst_path)
                continue
            _write_entry(dst_path, data)
            copied += 1
        return MergeStats(copied=copied, identical=identical,
                          conflicts=conflicts, conflict_paths=conflict_paths)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"ResultCache(root={str(self.root)!r}, entries={len(self)}, "
                f"hits={self.hits}, misses={self.misses})")


# ---------------------------------------------------------------------- #
# maintenance report types
# ---------------------------------------------------------------------- #
@dataclasses.dataclass(frozen=True)
class CacheStats:
    """Shallow inventory of a cache directory (see :meth:`ResultCache.stats`)."""

    root: Path
    entries: int
    total_bytes: int
    unreadable: int
    temp_files: int
    #: entry count per recorded ``repro_version`` stamp.
    by_version: Dict[str, int]
    current_version: str
    #: Always 0 since the packed-segment layout was retired; kept only
    #: because the benchmark (``perfbench/worker.py``) still reads
    #: them to count cache files.
    packs: int = 0
    packed_entries: int = 0

    @property
    def current(self) -> int:
        """Entries servable by the current ``repro`` version."""
        return self.by_version.get(self.current_version, 0)


@dataclasses.dataclass(frozen=True)
class CacheProblem:
    """One defective cache entry found by :meth:`ResultCache.verify`.

    ``kind`` is ``"corrupt"`` (unreadable, mis-keyed, or undeserializable)
    or ``"stale"`` (well-formed but from another format/repro version,
    or written before the entry-header layout).
    """

    path: Path
    kind: str
    detail: str


@dataclasses.dataclass(frozen=True)
class PruneReport:
    """What :meth:`ResultCache.prune` removed (or would remove)."""

    corrupt: int
    stale: int
    temp_files: int
    dry_run: bool
    problems: List[CacheProblem]


@dataclasses.dataclass(frozen=True)
class MergeStats:
    """Outcome of :meth:`ResultCache.merge_from`."""

    copied: int
    identical: int
    conflicts: int
    conflict_paths: List[Path]
