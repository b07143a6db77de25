"""Experiment execution subsystem: executors + on-disk result cache.

This package is the seam between "what to simulate" (the
:mod:`repro.scenario` and :mod:`repro.experiments` layers) and "how to
run it".  Everything that executes scenario grids — sweeps, figures,
ablations, Table I, the example scripts — routes through an
:class:`~repro.exec.executor.Executor`:

* :class:`~repro.exec.executor.SerialExecutor` — in-process, one run at a
  time (the default, and the reference the parallel path must match).
* :class:`~repro.exec.scheduler.ClusterExecutor` — the one parallel
  engine: cache-aware pre-filtering, a persistent
  :class:`~repro.exec.scheduler.WorkerPool` fed over a cell-granular
  JSON frame wire, and rebalancing after mid-unit worker deaths;
  bit-for-bit identical to the serial path.
  :func:`~repro.exec.executor.build_executor` returns it for
  ``workers > 1``.
* :class:`~repro.exec.cache.ResultCache` — content-addressed on-disk
  cache keyed by a stable hash of the config, so repeated sweeps only
  simulate cells that changed.
* :mod:`repro.exec.shard` — the multi-machine path: ``--shard i/K``
  slices of a sweep grid and their merge.

Quick usage::

    from repro.exec import ResultCache, build_executor
    from repro.experiments import SweepSettings, run_speed_sweep

    with build_executor(8, ResultCache("results/cache")) as executor:
        sweep = run_speed_sweep(SweepSettings.bench(), executor=executor)
"""

from typing import Any, List

from repro import _lazy

#: Public name -> defining module, imported on first access (PEP 562).
_EXPORTS = {
    "ARTIFACT_FORMAT_VERSION": "repro.exec.artifact",
    "StaleArtifactError": "repro.exec.artifact",
    "check_artifact_stamp": "repro.exec.artifact",
    "stamp_artifact": "repro.exec.artifact",
    "CACHE_FORMAT_VERSION": "repro.exec.cache",
    "atomic_write_text": "repro.exec.cache",
    "CacheProblem": "repro.exec.cache",
    "CacheStats": "repro.exec.cache",
    "MergeStats": "repro.exec.cache",
    "PruneReport": "repro.exec.cache",
    "ResultCache": "repro.exec.cache",
    "config_key": "repro.exec.cache",
    "Executor": "repro.exec.executor",
    "SerialExecutor": "repro.exec.executor",
    "add_executor_options": "repro.exec.executor",
    "build_executor": "repro.exec.executor",
    "executor_from_args": "repro.exec.executor",
    "resolve_executor": "repro.exec.executor",
    "simulate": "repro.exec.executor",
    "ShardSpec": "repro.exec.shard",
    "SweepShard": "repro.exec.shard",
    "assemble_sweep_result": "repro.exec.shard",
    "merge_shard_results": "repro.exec.shard",
    "plan_shards": "repro.exec.shard",
    "run_sweep_shard": "repro.exec.shard",
    "shard_of_config": "repro.exec.shard",
    "shard_of_key": "repro.exec.shard",
    "ClusterExecutor": "repro.exec.scheduler",
    "FaultInjection": "repro.exec.scheduler",
    "SchedulerError": "repro.exec.scheduler",
    "ShardScheduler": "repro.exec.scheduler",
    "WorkerPool": "repro.exec.scheduler",
    "partition_cells": "repro.exec.scheduler",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    return _lazy.load(globals(), _EXPORTS, name)


def __dir__() -> List[str]:
    return _lazy.names(globals(), _EXPORTS)
