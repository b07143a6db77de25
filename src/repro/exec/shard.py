"""Sharded sweeps: split a grid across machines, merge the pieces back.

The cells of a :class:`~repro.experiments.sweep.SweepSettings` grid are
fully independent simulations, so a sweep can be split across K
invocations — typically K machines — and reassembled afterwards:

1. **Plan.**  Every cell is assigned to exactly one shard by hashing its
   cache key (:func:`~repro.exec.cache.config_key`).  The assignment
   depends only on the cell's configuration, never on grid enumeration
   order or on which machine computes it, so all participants agree on
   the plan without coordinating.
2. **Run.**  Each invocation calls :func:`run_sweep_shard` with its own
   ``--shard i/K`` slice (and, usually, its own cache root), producing a
   :class:`SweepShard` artifact — the partial results plus enough
   metadata to validate the reassembly.
3. **Merge.**  :func:`merge_shard_results` checks that the shards came
   from the *same* settings, cover the grid exactly once, and then
   assembles a :class:`~repro.experiments.sweep.SweepResult` that is
   **bit-for-bit identical** to a single-process serial sweep.  Shard
   cache directories are merged separately with
   :meth:`~repro.exec.cache.ResultCache.merge_from` (CLI:
   ``repro-cache merge``).

This module imports the sweep layer lazily inside functions:
``repro.experiments.sweep`` itself imports :mod:`repro.exec`, so a
module-level import here would be circular (same idiom as
``repro.scenario.runner``).
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import (
    Callable, Dict, List, Mapping, Optional, Tuple, TYPE_CHECKING, Union,
)

from repro.exec.artifact import check_artifact_stamp, stamp_artifact
from repro.exec.cache import ResultCache, atomic_write_text, config_key
from repro.exec.executor import Executor, resolve_executor
from repro.scenario.config import ScenarioConfig
from repro.scenario.results import ScenarioResult, aggregate_results

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.sweep import SweepResult, SweepSettings


@dataclasses.dataclass(frozen=True)
class ShardSpec:
    """One slice of a K-way split: shard ``index`` of ``count`` (0-based)."""

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("shard count must be at least 1")
        if not 0 <= self.index < self.count:
            raise ValueError(
                f"shard index {self.index} outside 0..{self.count - 1}")

    @classmethod
    def parse(cls, text: str) -> "ShardSpec":
        """Parse the CLI form ``"i/K"`` (0-based: ``0/2`` and ``1/2``)."""
        try:
            index_text, count_text = text.split("/")
            index, count = int(index_text), int(count_text)
        except ValueError:
            raise ValueError(
                f"expected a shard of the form 'i/K' (e.g. '0/2'), "
                f"got {text!r}") from None
        return cls(index=index, count=count)

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"


def shard_of_key(key: str, shard_count: int) -> int:
    """The shard owning cache key ``key`` in a ``shard_count``-way split.

    Uses the top 64 bits of the (already uniformly distributed) SHA-256
    cache key, so the assignment is stable across Python versions and
    processes — unlike ``hash()``, which is salted per process.
    """
    if shard_count < 1:
        raise ValueError("shard count must be at least 1")
    return int(key[:16], 16) % shard_count


def shard_of_config(config: ScenarioConfig, shard_count: int) -> int:
    """The shard owning ``config`` (hash of its cache key)."""
    return shard_of_key(config_key(config), shard_count)


def plan_shards(settings: "SweepSettings",
                shard_count: int) -> List[List[int]]:
    """Partition the grid of ``settings`` into ``shard_count`` index lists.

    Returns one list of canonical grid indices (positions in
    ``settings.grid()``) per shard; every index appears in exactly one
    shard.  The plan is a pure function of the settings, so independent
    invocations compute identical plans.
    """
    if shard_count < 1:
        raise ValueError("shard count must be at least 1")
    plans: List[List[int]] = [[] for _ in range(shard_count)]
    for index, config in enumerate(settings.cell_configs()):
        plans[shard_of_config(config, shard_count)].append(index)
    return plans


# ---------------------------------------------------------------------- #
# shard artifacts
# ---------------------------------------------------------------------- #
@dataclasses.dataclass
class SweepShard:
    """The results of one shard of a sweep — a mergeable partial artifact."""

    settings: "SweepSettings"
    shard: ShardSpec
    #: canonical grid index -> result, for exactly this shard's cells.
    results: Dict[int, ScenarioResult]

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible dictionary (grid indices become string keys).

        Stamped with artifact provenance (``artifact_format`` +
        ``repro_version``); see :mod:`repro.exec.artifact`.
        """
        return stamp_artifact({
            "settings": self.settings.to_dict(),
            "shard_index": self.shard.index,
            "shard_count": self.shard.count,
            "results": {str(index): result.to_dict()
                        for index, result in sorted(self.results.items())},
        })

    @classmethod
    def from_dict(cls, data: Mapping[str, object],
                  allow_stale: bool = False) -> "SweepShard":
        """Rebuild a shard from :meth:`to_dict` output (or parsed JSON).

        Refuses shards stamped by a different ``repro`` version unless
        ``allow_stale`` is set; unstamped (pre-provenance) shards load
        with a warning.
        """
        from repro.experiments.sweep import SweepSettings
        check_artifact_stamp(data, "sweep shard", allow_stale=allow_stale)
        return cls(
            settings=SweepSettings.from_dict(data["settings"]),
            shard=ShardSpec(index=int(data["shard_index"]),
                            count=int(data["shard_count"])),
            results={int(index): ScenarioResult.from_dict(result)
                     for index, result in data["results"].items()},
        )

    def to_json(self) -> str:
        """Serialise to a canonical (sorted-key) JSON string."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str,
                  allow_stale: bool = False) -> "SweepShard":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(payload), allow_stale=allow_stale)

    def save(self, path: Union[str, os.PathLike]) -> None:
        """Write this shard to ``path`` as JSON, atomically.

        Same temp + ``os.replace`` discipline as cache entries: a worker
        killed mid-write can never leave a truncated artifact where the
        merge step expects a shard.
        """
        atomic_write_text(path, self.to_json())

    @classmethod
    def load(cls, path: Union[str, os.PathLike],
             allow_stale: bool = False) -> "SweepShard":
        """Reload a shard previously written by :meth:`save`."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"),
                             allow_stale=allow_stale)


def run_sweep_shard(settings: Optional["SweepSettings"] = None,
                    shard: Union[ShardSpec, str] = "0/1",
                    progress: Optional[Callable] = None,
                    executor: Optional[Executor] = None,
                    cache: Optional[ResultCache] = None,
                    plan: Optional[List[List[int]]] = None) -> SweepShard:
    """Run one shard of the sweep grid and return its partial results.

    Parameters
    ----------
    settings:
        Grid definition; defaults to ``SweepSettings.bench()``.  **Every
        shard of a sweep must be run from identical settings** — the
        merge step verifies this.
    shard:
        Which slice to run: a :class:`ShardSpec` or its ``"i/K"`` string
        form.  ``"0/1"`` (the default) is the whole grid.
    progress / executor / cache:
        As in :func:`~repro.experiments.sweep.run_speed_sweep`; the cache
        typically points at a *per-shard* root that is merged afterwards.
    plan:
        A precomputed ``plan_shards(settings, shard.count)`` result, for
        callers that already built one (it is a pure function of the
        settings, so recomputing is merely redundant hashing work).
    """
    from repro.experiments.sweep import SweepSettings
    settings = settings or SweepSettings.bench()
    if isinstance(shard, str):
        shard = ShardSpec.parse(shard)
    runner = resolve_executor(executor, cache)
    grid = settings.grid()
    if plan is None:
        plan = plan_shards(settings, shard.count)
    elif len(plan) != shard.count:
        raise ValueError(f"plan has {len(plan)} shards, expected "
                         f"{shard.count}")
    mine = plan[shard.index]
    configs = [settings.cell_config(*grid[index]) for index in mine]

    callback = None
    if progress is not None:
        outer = progress

        def executor_progress(position: int, config: ScenarioConfig,
                              result: ScenarioResult) -> None:
            protocol, speed, replication = grid[mine[position]]
            outer(protocol, speed, replication, result)

        callback = executor_progress

    results = runner.run(configs, progress=callback)
    return SweepShard(settings=settings, shard=shard,
                      results=dict(zip(mine, results)))


def assemble_sweep_result(settings: "SweepSettings",
                          results: Mapping[int, ScenarioResult],
                          ) -> "SweepResult":
    """Assemble per-cell results into a :class:`SweepResult` canonically.

    ``results`` maps canonical grid indices (positions in
    ``settings.grid()``) to results and must cover the grid exactly.
    Assembly is always in canonical grid order, which is what makes
    sweep artifacts bit-for-bit independent of the execution strategy —
    serial, pooled, or sharded.  This is the one assembly path shared by
    :func:`~repro.experiments.sweep.run_speed_sweep` (whatever its
    executor) and :func:`merge_shard_results`.
    """
    from repro.experiments.sweep import SweepResult
    grid = settings.grid()
    if sorted(results) != list(range(len(grid))):
        raise ValueError(
            f"results cover {len(results)} of {len(grid)} grid cells")
    runs: Dict[Tuple[str, float], List[ScenarioResult]] = {}
    for index, (protocol, speed, _replication) in enumerate(grid):
        runs.setdefault((protocol, speed), []).append(results[index])
    aggregates = {key: aggregate_results(cell_results)
                  for key, cell_results in runs.items()}
    return SweepResult(settings=settings, aggregates=aggregates, runs=runs)


class ShardMerger:
    """Incremental, validating accumulator of sweep cells.

    Shard artifacts (or raw per-cell result mappings) are added one at a
    time, in any order, and the full
    :class:`~repro.experiments.sweep.SweepResult` is produced once the
    grid is covered.  Unlike :func:`merge_shard_results`, the merger does
    not require the pieces to follow the planner's K-way assignment:
    only settings equality, per-cell uniqueness, and (at :meth:`result`
    time) exact grid coverage are enforced.
    """

    def __init__(self, settings: "SweepSettings") -> None:
        self.settings = settings
        self._settings_json = settings.to_json()
        self._grid_size = len(settings.grid())
        self._results: Dict[int, ScenarioResult] = {}

    def __contains__(self, index: int) -> bool:
        return index in self._results

    def __len__(self) -> int:
        return len(self._results)

    @property
    def missing(self) -> List[int]:
        """Grid indices not merged yet, in canonical order."""
        return [index for index in range(self._grid_size)
                if index not in self._results]

    def add_results(self, results: Mapping[int, ScenarioResult]) -> None:
        """Merge raw per-cell results (grid index -> result)."""
        for index in results:
            if not 0 <= index < self._grid_size:
                raise ValueError(
                    f"grid index {index} outside the {self._grid_size}-cell "
                    f"grid")
            if index in self._results:
                raise ValueError(f"grid cell {index} merged twice")
        self._results.update(results)

    def add(self, shard: SweepShard) -> None:
        """Merge one shard artifact (validating its settings match)."""
        if shard.settings.to_json() != self._settings_json:
            raise ValueError("shards come from different sweep settings")
        self.add_results(shard.results)

    def result(self) -> "SweepResult":
        """The assembled sweep; raises unless the grid is fully covered."""
        if len(self._results) != self._grid_size:
            missing = self.missing
            raise ValueError(
                f"merged shards cover {len(self._results)} of "
                f"{self._grid_size} grid cells; missing {missing}")
        return assemble_sweep_result(self.settings, self._results)


def merge_shard_results(shards: List[SweepShard]) -> "SweepResult":
    """Reassemble shard artifacts into the full :class:`SweepResult`.

    Validates that the shards share identical settings and a consistent
    shard count, that no shard is missing or duplicated, and that
    together they cover every grid cell exactly once (each in its
    planner-assigned shard).  The result is assembled in canonical grid
    order — exactly as :func:`~repro.experiments.sweep.run_speed_sweep`
    does — so the merged sweep is bit-for-bit identical to a
    single-process serial run.
    """
    if not shards:
        raise ValueError("no shards to merge")
    reference = shards[0]
    count = reference.shard.count
    if len(shards) != count:
        raise ValueError(f"expected {count} shards, got {len(shards)}")
    merger = ShardMerger(reference.settings)
    settings_json = reference.settings.to_json()
    seen_indices = set()
    plans = plan_shards(reference.settings, count)
    for piece in shards:
        # Checked here (not left to merger.add) so a settings mismatch is
        # reported as such, before the coverage check can trip on it.
        if piece.settings.to_json() != settings_json:
            raise ValueError("shards come from different sweep settings")
        if piece.shard.count != count:
            raise ValueError("shards come from different shard counts")
        if piece.shard.index in seen_indices:
            raise ValueError(f"duplicate shard {piece.shard}")
        seen_indices.add(piece.shard.index)
        expected = plans[piece.shard.index]
        if sorted(piece.results) != expected:
            raise ValueError(
                f"shard {piece.shard} covers grid cells "
                f"{sorted(piece.results)}, expected {expected}")
        merger.add(piece)
    return merger.result()
