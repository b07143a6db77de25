"""Executors: map scenario configurations to results.

An :class:`Executor` turns a sequence of
:class:`~repro.scenario.config.ScenarioConfig` objects into the matching
sequence of :class:`~repro.scenario.results.ScenarioResult` objects, in
input order.  Two implementations are provided:

* :class:`SerialExecutor` — runs every simulation in-process, one after
  the other: the reference every other path is compared against.
* :class:`~repro.exec.scheduler.ClusterExecutor` — the one parallel
  engine: a persistent pool of worker processes with cache-aware
  rebalancing after worker deaths.  :func:`build_executor` returns it
  for ``workers > 1``.  Each simulation is deterministic given its
  config, so its results are **bit-for-bit identical** to a serial run
  of the same configs.

Both accept an optional :class:`~repro.exec.cache.ResultCache`; cached
configurations are served from disk and only the remainder is
simulated.  ``Executor.run`` preserves input order regardless of cache
hits or completion order, which is what makes sweep output independent
of the execution strategy.
"""

from __future__ import annotations

import abc
import os
from typing import Callable, List, Optional, Sequence, Union

from repro.exec.cache import ResultCache
from repro.scenario.builder import ScenarioBuilder
from repro.scenario.config import ScenarioConfig
from repro.scenario.results import ScenarioResult

#: Signature of the per-run progress callback: ``(index, config, result)``
#: where ``index`` is the position in the submitted config sequence.
ProgressCallback = Callable[[int, ScenarioConfig, ScenarioResult], None]


def simulate(config: ScenarioConfig) -> ScenarioResult:
    """Build and run one scenario (the unit of work executors schedule)."""
    return ScenarioBuilder(config).build().run()


class Executor(abc.ABC):
    """Maps scenario configs to results, optionally through a result cache.

    Executors are context managers: :meth:`close` releases whatever an
    implementation holds between runs (the pooled workers of
    :class:`~repro.exec.scheduler.ClusterExecutor`) and does nothing on
    :class:`SerialExecutor`.

    Parameters
    ----------
    cache:
        Optional :class:`ResultCache` (or a path, which is wrapped in
        one).  Configs with a cached result are not simulated at all.
    """

    def __init__(self,
                 cache: Optional[Union[ResultCache, str, os.PathLike]]
                 = None) -> None:
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        #: Number of simulations actually executed (cache hits excluded).
        self.simulations_run: int = 0

    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def run(self, configs: Sequence[ScenarioConfig],
            progress: Optional[ProgressCallback] = None,
            ) -> List[ScenarioResult]:
        """Execute ``configs`` and return their results **in input order**.

        Parameters
        ----------
        configs:
            The scenario configurations to run.
        progress:
            Optional callback ``progress(index, config, result)`` invoked
            once per config as its result becomes available (immediately
            for cache hits, on completion otherwise).  Invocation order
            follows completion, not submission; the returned list is
            always in submission order.
        """

    def run_one(self, config: ScenarioConfig) -> ScenarioResult:
        """Convenience wrapper: run a single configuration."""
        return self.run([config])[0]

    def close(self) -> None:
        """Release resources held between runs (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SerialExecutor(Executor):
    """Run every simulation in-process, in order (the reference path)."""

    def run(self, configs: Sequence[ScenarioConfig],
            progress: Optional[ProgressCallback] = None,
            ) -> List[ScenarioResult]:
        configs = list(configs)
        if self.cache is not None:
            results, pending = self.cache.lookup(configs)
        else:
            results, pending = {}, list(range(len(configs)))
        if progress is not None:
            for index, cached in results.items():
                progress(index, configs[index], cached)
        for index in pending:
            result = simulate(configs[index])
            self.simulations_run += 1
            results[index] = result
            if self.cache is not None:
                self.cache.put(configs[index], result)
            if progress is not None:
                progress(index, configs[index], result)
        return [results[index] for index in range(len(configs))]


def resolve_executor(executor: Optional[Executor] = None,
                     cache: Optional[Union[ResultCache, str, os.PathLike]] = None,
                     ) -> Executor:
    """Normalise the ``(executor, cache)`` arguments the harness accepts.

    ``None`` yields a fresh :class:`SerialExecutor` (with ``cache``
    attached if given) — the historical serial behaviour.  Passing both
    attaches the cache to a cache-less executor; repeating the call with
    the same cache (or the same cache *directory*) is a no-op, but a
    *conflicting* pair (the executor already has a cache rooted
    elsewhere) is an error rather than a silent replacement.
    """
    if executor is None:
        return SerialExecutor(cache=cache)
    if cache is not None:
        if not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        if executor.cache is None:
            executor.cache = cache
        elif executor.cache.root.resolve() != cache.root.resolve():
            raise ValueError(
                "executor already has a cache rooted elsewhere; pass "
                "the cache on the executor or via cache=, not both")
    return executor


def build_executor(workers: int = 1,
                   cache: Optional[Union[ResultCache, str, os.PathLike]] = None,
                   ) -> Executor:
    """Construct an executor from CLI-style knobs.

    ``workers``: ``0`` means one worker per CPU core, ``1`` the serial
    in-process executor, ``N > 1`` a
    :class:`~repro.exec.scheduler.ClusterExecutor` pool of N processes
    that hands out one cell at a time as workers come free.
    ``cache`` may be a :class:`ResultCache` or a directory path.  This is
    the one place the example scripts and benchmarks translate their
    ``--workers`` / ``--cache`` options into an executor; close it (or
    use it as a context manager) when done.
    """
    if workers < 0:
        raise ValueError("workers must be >= 0")
    if workers == 0:
        workers = os.cpu_count() or 1
    if workers > 1:
        from repro.exec.scheduler import ClusterExecutor
        return ClusterExecutor(shards=None, workers=workers, cache=cache)
    return SerialExecutor(cache=cache)


def _workers_arg(text: str) -> int:
    value = int(text)
    if value < 0:
        import argparse
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def add_executor_options(parser: argparse.ArgumentParser) -> None:
    """Add the standard ``--workers`` / ``--cache`` options to ``parser``.

    The single definition all example scripts share; pair with
    :func:`executor_from_args`.
    """
    parser.add_argument("--workers", type=_workers_arg, default=1,
                        help="worker processes for the simulation runs "
                             "(1 = serial, 0 = one per CPU core)")
    parser.add_argument("--cache", metavar="DIR", default=None,
                        help="result-cache directory; repeated runs only "
                             "simulate configurations not cached yet")


def executor_from_args(args: argparse.Namespace) -> Executor:
    """Build an executor from options added by :func:`add_executor_options`."""
    return build_executor(args.workers, args.cache)
