"""Campaign execution: cache-resumable runs + store publication.

:func:`run_campaign` is deliberately thin: all durability lives in the
:class:`~repro.exec.cache.ResultCache` (per-cell results; what makes a
rerun resume instead of recompute) and the
:class:`~repro.campaign.store.ArtifactStore` (rendered deliverables; what
``repro-serve`` reads).  The runner itself keeps no state files, so
killing it at any point loses at most the in-flight cell.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Dict, List, Optional

from repro.campaign.manifest import CampaignSpec
from repro.campaign.store import ArtifactStore
from repro.exec import (
    ClusterExecutor, Executor, ResultCache, assemble_sweep_result,
    resolve_executor,
)
from repro.experiments.figures import FIGURES, format_figure
from repro.experiments.sweep import SweepResult
from repro.experiments.table1 import table1_from_sweep


class CampaignInterrupted(RuntimeError):
    """A run stopped at its ``stop_after_cells`` budget (exit code 3).

    Everything simulated so far is durably cached, so running the same
    manifest against the same cache resumes exactly where this stopped.
    """

    def __init__(self, campaign: str, entry: str, simulated: int) -> None:
        super().__init__(
            f"campaign {campaign!r} stopped in entry {entry!r} after "
            f"simulating {simulated} cell(s); completed cells are cached — "
            f"re-run the same manifest to resume")
        self.campaign = campaign
        self.entry = entry
        self.simulated = simulated


@dataclasses.dataclass(frozen=True)
class EntryStatus:
    """Cache coverage of one campaign entry (no simulations performed)."""

    name: str
    cells: int
    cached: int

    @property
    def missing(self) -> int:
        return self.cells - self.cached

    @property
    def complete(self) -> bool:
        return self.cached == self.cells


@dataclasses.dataclass(frozen=True)
class EntryRun:
    """What one entry of a completed :func:`run_campaign` call did."""

    name: str
    cells: int
    from_cache: int
    simulated: int


@dataclasses.dataclass(frozen=True)
class CampaignReport:
    """Outcome of a completed :func:`run_campaign` call."""

    campaign: str
    entries: List[EntryRun]
    #: Path of the store index, when a store was given.
    index_path: Optional[Path]
    #: Assembled sweep per entry name (manifest order).
    sweeps: Dict[str, SweepResult]

    @property
    def cells(self) -> int:
        return sum(entry.cells for entry in self.entries)

    @property
    def from_cache(self) -> int:
        return sum(entry.from_cache for entry in self.entries)

    @property
    def simulated(self) -> int:
        return sum(entry.simulated for entry in self.entries)


# ---------------------------------------------------------------------- #
def campaign_status(spec: CampaignSpec,
                    cache: ResultCache) -> List[EntryStatus]:
    """Per-entry cache coverage, via the O(1) :meth:`has_current` probe.

    Never deserializes a result and never simulates — cheap enough to
    poll while a campaign runs elsewhere against the same cache root.
    """
    status = []
    for entry, settings in spec.expand():
        configs = settings.cell_configs()
        cached = sum(1 for config in configs if cache.has_current(config))
        status.append(EntryStatus(name=entry.name, cells=len(configs),
                                  cached=cached))
    return status


def run_campaign(spec: CampaignSpec,
                 cache: Optional[ResultCache] = None,
                 executor: Optional[Executor] = None,
                 store: Optional[ArtifactStore] = None,
                 stop_after_cells: Optional[int] = None,
                 scheduler: Optional[ClusterExecutor] = None,
                 ) -> CampaignReport:
    """Run (or resume) every entry of ``spec``; optionally publish.

    Parameters
    ----------
    cache / executor:
        As in :func:`~repro.experiments.sweep.run_speed_sweep`, except a
        cache is *mandatory* (on the executor or passed directly) —
        campaign resumability is nothing but cache content addressing.
    store:
        When given, every completed entry's deliverables (sweep JSON,
        per-figure text, combined figures, Table I) are published as
        content-addressed blobs and the campaign index is written, so a
        ``repro-serve`` pointed at the store can answer queries with
        zero simulations.
    stop_after_cells:
        Deterministic kill switch for resume testing: raise
        :class:`CampaignInterrupted` once this many *new* simulations
        have completed (each durably cached first).  Not supported on
        the scheduler path (cells complete in parallel worker
        processes, so a serial "after N" point does not exist).
    scheduler:
        A :class:`~repro.exec.ClusterExecutor` to run every entry
        through instead of a cell-at-a-time executor.  Its persistent
        worker pool is reused across all entries (spawn once, run the
        whole campaign warm); the caller keeps ownership — close it (or
        use it as a context manager) after the campaign.  Mutually
        exclusive with ``executor`` and ``stop_after_cells``.

    Cells already cached are never re-simulated; an interrupted or
    crashed campaign therefore resumes by re-running the same call.
    """
    if scheduler is not None:
        return _run_campaign_scheduled(spec, cache, scheduler, store,
                                       executor, stop_after_cells)
    runner = resolve_executor(executor, cache)
    cache = runner.cache
    if cache is None:
        raise ValueError(
            "run_campaign needs a cache (pass cache= or an executor with "
            "one): campaign resumability lives in the result cache")
    remaining = stop_after_cells
    entries: List[EntryRun] = []
    sweeps: Dict[str, SweepResult] = {}
    for entry, settings in spec.expand():
        configs = settings.cell_configs()
        if remaining is not None:
            missing = [index for index, config in enumerate(configs)
                       if not cache.has_current(config)]
            if len(missing) > remaining:
                for index in missing[:remaining]:
                    runner.run_one(configs[index])
                # The budget is exhausted here by construction: earlier
                # entries consumed (stop_after_cells - remaining) and the
                # loop above just ran the final `remaining`.
                raise CampaignInterrupted(
                    campaign=spec.name, entry=entry.name,
                    simulated=stop_after_cells or 0)
            remaining -= len(missing)
        before = runner.simulations_run
        results = runner.run(configs)
        simulated = runner.simulations_run - before
        sweep = assemble_sweep_result(settings, dict(enumerate(results)))
        sweeps[entry.name] = sweep
        entries.append(EntryRun(name=entry.name, cells=len(configs),
                                from_cache=len(configs) - simulated,
                                simulated=simulated))
    index_path = None
    if store is not None:
        index_path = publish_campaign(spec, sweeps, store)
    return CampaignReport(campaign=spec.name, entries=entries,
                          index_path=index_path, sweeps=sweeps)


def _run_campaign_scheduled(spec: CampaignSpec,
                            cache: Optional[ResultCache],
                            scheduler: ClusterExecutor,
                            store: Optional[ArtifactStore],
                            executor: Optional[Executor],
                            stop_after_cells: Optional[int],
                            ) -> CampaignReport:
    """Scheduler path of :func:`run_campaign`: one warm pool, all entries.

    Each entry's grid runs through ``scheduler.run_sweep`` — the cache
    pre-filter gives the same resume semantics as the serial path, and
    the pooled workers stay warm from one entry to the next.  Per-entry
    ``from_cache``/``simulated`` come from the scheduler's own counters
    (``cells_from_cache``/``cells_streamed``); its ``stage_seconds``
    accumulate into ``total_stage_seconds`` across the campaign.
    """
    if executor is not None:
        raise ValueError(
            "run_campaign takes either executor= or scheduler=, not both")
    if stop_after_cells is not None:
        raise ValueError(
            "stop_after_cells is not supported with scheduler= (cells "
            "complete in parallel worker processes); use the serial or "
            "parallel executor path for resume testing")
    if scheduler.cache is None:
        if cache is None:
            raise ValueError(
                "run_campaign needs a cache (pass cache= or a scheduler "
                "with one): campaign resumability lives in the result "
                "cache")
        scheduler.cache = cache
    entries: List[EntryRun] = []
    sweeps: Dict[str, SweepResult] = {}
    for entry, settings in spec.expand():
        sweep = scheduler.run_sweep(settings)
        sweeps[entry.name] = sweep
        entries.append(EntryRun(name=entry.name,
                                cells=len(settings.grid()),
                                from_cache=scheduler.cells_from_cache,
                                simulated=scheduler.cells_streamed))
    index_path = None
    if store is not None:
        index_path = publish_campaign(spec, sweeps, store)
    return CampaignReport(campaign=spec.name, entries=entries,
                          index_path=index_path, sweeps=sweeps)


def publish_campaign(spec: CampaignSpec, sweeps: Dict[str, SweepResult],
                     store: ArtifactStore) -> Path:
    """Publish every entry's deliverables to ``store``; returns the index.

    Blobs are content-addressed, so republishing an unchanged campaign
    writes nothing new and the index maps to the same digests — which is
    exactly the byte-identity contract between ``repro-serve`` responses
    and ``repro-sweep render`` output.
    """
    entries_doc: Dict[str, object] = {}
    for entry, settings in spec.expand():
        sweep = sweeps[entry.name]
        # Each figure is formatted once; joined in id order they are
        # exactly render_figures(sweep).
        texts = {figure_id: format_figure(sweep, figure_id)
                 for figure_id in sorted(FIGURES)}
        figures = {figure_id: store.put_text(text)
                   for figure_id, text in texts.items()}
        table1_text = table1_from_sweep(sweep)
        entries_doc[entry.name] = {
            "sweep": store.put_text(sweep.to_json()),
            "figures": figures,
            "figures_all": store.put_text("\n\n".join(texts.values())),
            "table1": (None if table1_text is None
                       else store.put_text(table1_text)),
            "cells": len(settings.grid()),
        }
    return store.put_index(spec.name, {
        "campaign": spec.to_dict(),
        "entries": entries_doc,
    })
