"""The parallel engine: a pooled, cache-aware, rebalancing executor.

:class:`ClusterExecutor` (alias :class:`ShardScheduler`) is the
:class:`~repro.exec.executor.Executor` that runs a list of scenario
configs over worker processes the way a cluster controller would, while
staying a single local process tree:

1. **Cache-aware pre-filter.**  Every config already present in the
   :class:`~repro.exec.cache.ResultCache` is served from disk up front
   (:meth:`ResultCache.lookup`); only the misses are scheduled.  A fully
   warm cache therefore dispatches no workers and runs zero simulations.
2. **Plan.**  The remaining cells are partitioned into work units by
   hashing their cache keys — the same coordination-free split as
   :func:`~repro.exec.shard.plan_shards`, so for a sweep grid on a cold
   cache the first round's plan is exactly the K-machine
   ``--shard i/K`` plan.  With ``shards=None`` (how
   :func:`~repro.exec.executor.build_executor` builds it) each cell is
   its own unit instead, queued in input order.
3. **Dispatch & stream.**  Units are dispatched to a persistent
   :class:`WorkerPool`: worker processes spawn once (fork-preferred, so
   the parent's warm imports carry over; spawn falls back to a
   ``sys.path`` bootstrap), then survive across scheduling rounds *and*
   across runs — a campaign reuses the same warm pool for every entry.
   A unit's payload carries its cells' ``config.to_dict()``.  The wire
   is cell-granular: a worker writes each completed cell to the shared
   cache (if the executor has one), then emits it as its own
   length-prefixed JSON frame over the :mod:`multiprocessing.connection`
   channel, and the executor places it at its position in the output
   the moment it arrives.
4. **Rebalance.**  When a worker dies mid-unit (crash, kill, or an
   injected fault), the cells it already streamed are kept, the
   executor sweeps the dead writer's orphaned cache temp files,
   re-filters the missing cells against the cache — cells the worker
   wrote before dying are recovered for free — and re-plans only the
   genuinely lost cells, up to ``max_retries`` extra rounds.
   Rebalancing reuses surviving warm workers from the pool rather than
   relaunching everything.

Results are **bit-for-bit identical** to
:class:`~repro.exec.executor.SerialExecutor`: every simulation is
deterministic given its config, configs and results cross the process
boundary as canonical JSON (a lossless round trip), and ``run`` returns
results in input order whichever workers crashed, which cells were
replayed from cache, or what order frames streamed back.  The local
process transport is deliberately thin: a remote backend only needs to
move the same JSON payloads over a different wire.

Fault injection (tests / CI) is deterministic: a
:class:`FaultInjection` names a scheduling round and work unit, and the
worker kills its own process (``os._exit``) after the given number of
completed cells — after the cell's cache write, before that cell's
frame is sent, exactly like a machine lost mid-unit (the executor
recovers the written cell from the cache next round).  A
``mode="hang"`` fault instead wedges the worker (alive, no progress),
which the per-worker ``worker_timeout`` heartbeat detects: the wedged
process is terminated and its unit rebalanced like any other failure.

Per-stage wall-time counters (``stage_seconds``: spawn / serialize /
simulate / stream / merge / cache_write / lookup) expose where a run's
time went; ``repro-sweep``/``repro-campaign`` print them and perfbench's
traced ``campaign_e2e`` runs report them as ``exec.cold.*``.

This module imports the sweep layer lazily inside functions (same
circular-import idiom as :mod:`repro.exec.shard`).
"""

from __future__ import annotations

import base64
import dataclasses
import json
import multiprocessing
import multiprocessing.connection
import os
import pickle
import sys
import time
from multiprocessing.connection import Connection
from typing import (
    Any, Callable, Collection, Dict, List, Optional, Sequence, Tuple,
    TYPE_CHECKING, Union,
)

from repro.exec.cache import ResultCache
from repro.exec.executor import Executor, ProgressCallback, simulate
from repro.exec.shard import shard_of_config
from repro.scenario.config import ScenarioConfig
from repro.scenario.results import ScenarioResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.sweep import SweepResult, SweepSettings

#: Signature of the sweep-level progress callback (matches
#: :func:`~repro.experiments.sweep.run_speed_sweep`):
#: ``(protocol, speed, replication, result)``.
SweepProgress = Callable[[str, float, int, ScenarioResult], None]

#: Exit code used by an injected worker fault (``os._exit``); purely
#: informational — the scheduler treats any worker that dies before
#: sending its artifact as failed, whatever the exit code.
FAULT_EXIT_CODE = 73

#: Minimum age before a temp file not written by one of this run's dead
#: workers is treated as an abandoned stray and swept.  Another live
#: sweep sharing the cache root finishes an atomic write in well under
#: an hour; a file this old belongs to a writer that is long gone.
STRAY_TEMP_MIN_AGE_SECONDS = 3600.0

#: Grace period for a retiring pool worker to exit cleanly before it is
#: terminated.
_POOL_EXIT_TIMEOUT = 5.0

#: The per-run stage wall-time counters kept by :class:`ClusterExecutor`.
STAGE_NAMES = ("spawn", "serialize", "simulate", "stream", "merge",
               "cache_write", "lookup")


class SchedulerError(RuntimeError):
    """Raised when a run cannot be completed within ``max_retries``."""


@dataclasses.dataclass(frozen=True)
class FaultInjection:
    """Deterministic kill- or hang-after-N-cells knob for scheduler workers.

    With ``mode="kill"`` (the default) the worker running work unit
    ``unit`` of scheduling round ``round`` kills its own process once
    ``after_cells`` of its cells have completed (and been written to the
    cache) — before that cell's result frame is sent back.  With
    ``mode="hang"`` the worker instead stops making progress while
    staying alive (sleeping forever), which only a ``worker_timeout``
    can recover from — the hung-but-alive machine case.  Purely a
    test/CI instrument: both exercise exactly the code paths a crashed
    or wedged worker machine would.
    """

    unit: int
    after_cells: int
    round: int = 0
    mode: str = "kill"

    def __post_init__(self) -> None:
        if self.unit < 0:
            raise ValueError("fault unit must be >= 0")
        if self.after_cells < 1:
            raise ValueError("fault after_cells must be >= 1")
        if self.round < 0:
            raise ValueError("fault round must be >= 0")
        if self.mode not in ("kill", "hang"):
            raise ValueError(f"fault mode must be 'kill' or 'hang', "
                             f"got {self.mode!r}")

    @classmethod
    def parse(cls, text: str, mode: str = "kill") -> "FaultInjection":
        """Parse the form ``"unit:after_cells[:round][:mode]"``.

        ``mode`` is the default when the text does not carry one (the
        CLI maps ``--inject-fault``/``--inject-hang`` to it); a trailing
        ``:kill``/``:hang`` — the :meth:`__str__` form — wins, so
        ``parse(str(fault))`` round-trips.
        """
        parts = text.split(":")
        if parts and parts[-1] in ("kill", "hang"):
            mode = parts.pop()
        if len(parts) not in (2, 3):
            raise ValueError(
                f"expected a fault of the form 'unit:after_cells[:round]' "
                f"(e.g. '0:1'), got {text!r}")
        try:
            numbers = [int(part) for part in parts]
        except ValueError:
            raise ValueError(
                f"expected a fault of the form 'unit:after_cells[:round]' "
                f"(e.g. '0:1'), got {text!r}") from None
        return cls(*numbers, mode=mode)

    def __str__(self) -> str:
        base = f"{self.unit}:{self.after_cells}:{self.round}"
        return base if self.mode == "kill" else f"{base}:{self.mode}"


# ---------------------------------------------------------------------- #
# worker entry point (module-level so it survives spawn start methods)
# ---------------------------------------------------------------------- #
def _pool_worker_main(conn: Connection, src_root: str) -> None:
    """Persistent worker loop: serve work units until told to exit.

    Spawned once per pool slot.  The interpreter start and the ``repro``
    import tree are paid here a single time (under the fork start method
    they are inherited from the parent outright; under spawn the
    ``src_root`` bootstrap makes the package importable), then the
    worker idles on the duplex channel and runs every unit it is handed
    with warm imports.  EOF on the channel or an ``{"op": "exit"}``
    frame ends the loop.  A cell that raises is reported in an error
    frame (:func:`_run_pool_unit`); any other exception kills the
    process, which the scheduler observes as a mid-unit crash.
    """
    if src_root not in sys.path:  # pragma: no cover - spawn start only
        sys.path.insert(0, src_root)
    import repro.experiments.sweep  # noqa: F401  (preload the sweep stack)
    while True:
        try:
            raw = conn.recv_bytes()
        except (EOFError, OSError):
            return
        payload = json.loads(raw.decode("utf-8"))
        if payload.get("op") == "exit":
            conn.close()
            return
        _run_pool_unit(conn, payload)


def _run_pool_unit(conn: Connection, payload: Dict[str, Any]) -> None:
    """Run one work unit: write each cell to the cache, then stream it.

    The payload carries the unit's cells (their positions in the
    submitted config list and their ``config.to_dict()`` forms), the
    shared cache root (``None``: write nothing), and the optional
    fault-injection hook.  Each completed cell is written to the cache
    and then sent back as its own frame, so an injected kill — which
    lands after the write and withholds the fatal cell's frame — leaves
    exactly the on-disk state of a real crash-after-write: the executor
    recovers that cell from the cache next round.  The result is
    serialized once, for both the cache entry and the frame.  The last
    cell's frame also carries ``done`` and the unit's ``cache_write_s``,
    so a unit costs exactly one frame per cell.

    A cell that raises (a config the builder rejects, a failed cache
    write) ends the unit with an error frame carrying the pickled
    exception, which the executor re-raises instead of retrying a
    deterministic failure.
    """
    indices = [int(index) for index in payload["cells"]]
    fail_after = payload.get("fail_after_cells")
    fail_mode = payload.get("fail_mode", "kill")
    configs = [ScenarioConfig.from_dict(data) for data in payload["configs"]]
    cache_root = payload["cache_root"]
    cache = None if cache_root is None else ResultCache(str(cache_root))
    cache_write_s = 0.0

    for position, config in enumerate(configs):
        try:
            started = time.perf_counter()  # repro-lint: ignore[D-wallclock] stage timing only, never a result input
            result = simulate(config)
            simulated = time.perf_counter()  # repro-lint: ignore[D-wallclock] stage timing only, never a result input
            sim_s = simulated - started
            result_dict = result.to_dict()
            if cache is not None:
                cache._put_dicts(config.to_dict(), result_dict)
            cache_write_s += time.perf_counter() - simulated  # repro-lint: ignore[D-wallclock] stage timing only, never a result input
        except Exception as exc:
            conn.send_bytes(_error_frame(indices[position], exc))
            return
        if fail_after is not None and position + 1 >= int(fail_after):
            if fail_mode == "hang":
                # Alive but wedged: hold the channel open and make no
                # progress — only the scheduler's worker timeout can
                # recover the round (the process is terminated then).
                while True:
                    time.sleep(3600.0)
            conn.close()
            os._exit(FAULT_EXIT_CODE)
        frame: Dict[str, Any] = {"cell": indices[position],
                                 "result": result_dict, "sim_s": sim_s}
        if position + 1 == len(configs):
            frame["done"] = payload["unit_index"]
            frame["cache_write_s"] = cache_write_s
        conn.send_bytes(json.dumps(frame, sort_keys=True).encode("utf-8"))


def _error_frame(cell: int, exc: Exception) -> bytes:
    """The frame reporting that ``cell`` raised ``exc``.

    The exception travels pickled (base64 inside the JSON frame), so the
    executor re-raises the same type with the same arguments, as
    :class:`SerialExecutor <repro.exec.executor.SerialExecutor>` would.
    One that does not survive a pickle round trip is sent as a
    :class:`RuntimeError` naming its type and message.
    """
    try:
        blob = pickle.dumps(exc)
        pickle.loads(blob)
    except Exception:
        blob = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
    return json.dumps({"cell": cell,
                       "error": base64.b64encode(blob).decode("ascii")},
                      sort_keys=True).encode("utf-8")


@dataclasses.dataclass
class _WorkerHandle:
    """One pooled worker: its process and the parent end of its channel."""

    process: multiprocessing.process.BaseProcess
    conn: Connection


class WorkerPool:
    """Persistent scheduler worker processes, reused across dispatches.

    Workers run :func:`_pool_worker_main`: spawn once, import once, then
    idle between work units.  The pool prefers the ``fork`` start method
    (the child inherits the parent's already-imported ``repro`` tree, so
    a spawn costs a fork instead of an interpreter start plus imports)
    and falls back to the platform default — :func:`_pool_worker_main`
    bootstraps ``sys.path`` for spawn-style starts.

    :meth:`acquire` hands out an idle warm worker when one is alive and
    only spawns when the pool is empty — that is what makes rebalancing
    after a crash reuse the surviving workers, and what lets a campaign
    run every entry against one warm pool.  ``workers_spawned`` /
    ``workers_reused`` count those decisions for instrumentation.
    """

    def __init__(self, mp_context: Union[
            str, multiprocessing.context.BaseContext, None] = None) -> None:
        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = multiprocessing.get_context(
                "fork" if "fork" in methods else None)
        elif isinstance(mp_context, str):
            mp_context = multiprocessing.get_context(mp_context)
        self._context = mp_context
        self._idle: List[_WorkerHandle] = []
        #: Worker processes started over this pool's lifetime.
        self.workers_spawned = 0
        #: Dispatches served by an already-warm worker.
        self.workers_reused = 0

    def acquire(self) -> _WorkerHandle:
        """An alive worker: a warm idle one if possible, else a new spawn."""
        while self._idle:
            handle = self._idle.pop()
            if handle.process.is_alive():
                self.workers_reused += 1
                return handle
            self.discard(handle)
        src_root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_pool_worker_main, args=(child_conn, src_root),
            daemon=True)
        process.start()
        child_conn.close()
        self.workers_spawned += 1
        return _WorkerHandle(process=process, conn=parent_conn)

    def release(self, handle: _WorkerHandle) -> None:
        """Return a worker to the idle set (dead ones are reaped)."""
        if handle.process.is_alive():
            self._idle.append(handle)
        else:
            self.discard(handle)

    def discard(self, handle: _WorkerHandle) -> None:
        """Terminate and reap a (possibly dead or wedged) worker."""
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        handle.process.terminate()
        handle.process.join()

    def retire(self, handle: _WorkerHandle) -> None:
        """Shut one worker down gracefully (exit frame, bounded join)."""
        try:
            handle.conn.send_bytes(b'{"op": "exit"}')
        except (OSError, ValueError):  # pragma: no cover - racing death
            pass
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        handle.process.join(timeout=_POOL_EXIT_TIMEOUT)
        if handle.process.is_alive():  # pragma: no cover - wedged worker
            handle.process.terminate()
            handle.process.join()

    def close(self) -> None:
        """Retire every idle worker (in-flight handles are not tracked)."""
        while self._idle:
            self.retire(self._idle.pop())

    def __len__(self) -> int:
        return len(self._idle)


def _plan_units(configs: Sequence[ScenarioConfig], cells: Sequence[int],
                unit_count: int) -> List[List[int]]:
    """Split ``cells`` (positions in ``configs``) into non-empty units.

    Cells are assigned by hashing their config's cache key with
    :func:`~repro.exec.shard.shard_of_config` — the same pure function
    the K-machine planner uses — then empty units are dropped.  For a
    sweep grid on a cold cache this reproduces
    ``plan_shards(settings, unit_count)`` exactly (minus empty shards).
    """
    if unit_count < 1:
        raise ValueError("unit count must be at least 1")
    units: List[List[int]] = [[] for _ in range(unit_count)]
    for index in cells:
        units[shard_of_config(configs[index], unit_count)].append(index)
    return [unit for unit in units if unit]


def partition_cells(settings: "SweepSettings", cells: Sequence[int],
                    unit_count: int,
                    configs: Optional[Sequence[ScenarioConfig]] = None,
                    ) -> List[List[int]]:
    """The work units :class:`ClusterExecutor` plans for grid ``cells``.

    ``cells`` are canonical grid indices of ``settings``; ``configs``,
    when given, is the full grid's config list
    (``settings.cell_configs()``).  Tests use this to aim faults at the
    unit that will hold a given cell.
    """
    if configs is None:
        configs = settings.cell_configs()
    return _plan_units(configs, cells, unit_count)


class ClusterExecutor(Executor):
    """Pooled, cache-aware executor that rebalances after worker deaths.

    Parameters
    ----------
    shards:
        Number of work units per scheduling round (the ``--scheduler K``
        CLI knob).  On a cold cache the first round's plan equals the
        K-machine ``plan_shards`` split.  ``None`` makes every pending
        cell its own unit, in input order — a task queue that keeps
        every worker busy until the last cell
        (:func:`~repro.exec.executor.build_executor` plans this way).
    workers:
        Maximum concurrently running worker processes; defaults to
        ``shards`` (and is required when ``shards`` is ``None``).  Units
        beyond the cap queue and dispatch as workers finish, so results
        stream back throughout the round.
    max_retries:
        Extra scheduling rounds allowed after worker failures.  ``0``
        means a single round: any worker death fails the run.
    worker_timeout:
        Progress heartbeat in seconds.  A worker's deadline starts at
        dispatch and is extended whenever a cell of its unit streams
        back or, with a cache, appears in the shared cache root (each
        completed cell is written there before its frame is sent), so a
        healthy worker with a large unit of many cells is never reaped
        mid-run.  A worker that makes no observable progress for
        ``worker_timeout`` seconds is terminated and its unit rebalanced
        exactly like a crashed worker — the heartbeat that keeps a hung-but-alive machine from
        blocking its round forever.  The only progress signal is a
        *completed cell*, so the timeout must comfortably exceed the
        wall-clock of the slowest single cell plus worker startup
        (process spawn and imports) — a smaller value reaps healthy
        workers mid-cell and, repeated over ``max_retries`` rounds,
        fails the run.  ``None`` (default) waits indefinitely (the
        historical behaviour).
    cache:
        The shared :class:`ResultCache` (or a path).  With ``None``
        workers write nothing: cells a dead worker streamed are kept,
        and the rest of its unit is simulated again.
    faults:
        :class:`FaultInjection` instances (tests/CI only).
    mp_context:
        Start-method name (``"fork"``/``"spawn"``/``"forkserver"``) or a
        :mod:`multiprocessing` context.  ``None`` lets the
        :class:`WorkerPool` prefer the fork start method.

    The pool outlives a run; :meth:`close` (or leaving a ``with`` block)
    retires its workers.  ``simulations_run`` counts the cells that
    arrived as worker frames, so ``cells_from_cache + cells_streamed``
    is the number of configs of every successful run.

    Counters (reset at each :meth:`run` call) expose what happened:
    ``cells_from_cache`` (pre-filter plus post-crash recovery hits),
    ``cells_streamed`` (arrived as worker result frames),
    ``workers_launched`` (units dispatched to a worker process),
    ``workers_spawned``/``workers_reused`` (pool decisions behind those
    dispatches), ``worker_failures``, ``rounds``, ``temp_files_swept``,
    and the ``stage_seconds`` wall-time breakdown
    (``total_stage_seconds`` accumulates across runs for campaigns).
    """

    def __init__(self, shards: Optional[int] = 2,
                 workers: Optional[int] = None,
                 max_retries: int = 2,
                 cache: Optional[Union[ResultCache, str, os.PathLike]] = None,
                 faults: Sequence[FaultInjection] = (),
                 worker_timeout: Optional[float] = None,
                 mp_context: Union[str, multiprocessing.context.BaseContext,
                                   None] = None) -> None:
        if shards is not None and shards < 1:
            raise ValueError("shards must be at least 1")
        if workers is None:
            if shards is None:
                raise ValueError("one unit per cell (shards=None) needs "
                                 "a workers count")
            workers = shards
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if worker_timeout is not None and worker_timeout <= 0:
            raise ValueError("worker_timeout must be positive")
        if worker_timeout is None and any(fault.mode == "hang"
                                          for fault in faults):
            # A wedged worker is only ever recovered by the heartbeat;
            # without one a run would block forever.
            raise ValueError("hang-mode faults require a worker_timeout")
        super().__init__(cache)
        self.shards = shards
        self.workers = workers
        self.max_retries = max_retries
        self.worker_timeout = worker_timeout
        self.faults = tuple(faults)
        if isinstance(mp_context, str):
            mp_context = multiprocessing.get_context(mp_context)
        self._mp_context = mp_context
        self._pool: Optional[WorkerPool] = None
        #: Per-stage wall time accumulated across every run (campaigns).
        self.total_stage_seconds: Dict[str, float] = {
            stage: 0.0 for stage in STAGE_NAMES}
        #: Pool decisions accumulated across every run (campaigns); they
        #: survive :meth:`close`, unlike the pool's own counters.
        self.total_workers_spawned = 0
        self.total_workers_reused = 0
        self._reset_counters()

    def _reset_counters(self) -> None:
        #: Cells served straight from the cache (pre-filter + recovery).
        self.cells_from_cache = 0
        #: Cells that arrived as streamed worker result frames.
        self.cells_streamed = 0
        #: Work units dispatched to a worker process across all rounds.
        self.workers_launched = 0
        #: Worker processes the pool actually spawned this run.
        self.workers_spawned = 0
        #: Dispatches served by an already-warm pooled worker this run.
        self.workers_reused = 0
        #: Workers that died before finishing their unit
        #: (including the timed-out ones).
        self.worker_failures = 0
        #: Workers terminated for exceeding ``worker_timeout``.
        self.workers_timed_out = 0
        #: Scheduling rounds that dispatched at least one worker.
        self.rounds = 0
        #: Orphaned cache temp files removed: a dead worker's after its
        #: failed round, hour-old strays after any run that ran a round.
        self.temp_files_swept = 0
        #: Per-stage wall time for the current run (seconds).
        self.stage_seconds: Dict[str, float] = {
            stage: 0.0 for stage in STAGE_NAMES}

    def _add_stage(self, stage: str, seconds: float) -> None:
        self.stage_seconds[stage] += seconds
        self.total_stage_seconds[stage] += seconds

    def _ensure_pool(self) -> WorkerPool:
        if self._pool is None:
            self._pool = WorkerPool(self._mp_context)
        return self._pool

    def close(self) -> None:
        """Retire all pooled workers (idempotent; safe mid-lifetime)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    # ------------------------------------------------------------------ #
    def run_sweep(self, settings: Optional["SweepSettings"] = None,
                  progress: Optional[SweepProgress] = None) -> "SweepResult":
        """``run_speed_sweep(settings, progress, executor=self)``."""
        from repro.experiments.sweep import run_speed_sweep
        return run_speed_sweep(settings, progress, executor=self)

    def run(self, configs: Sequence[ScenarioConfig],
            progress: Optional[ProgressCallback] = None,
            ) -> List[ScenarioResult]:
        """Execute ``configs``; results come back **in input order**.

        Bit-for-bit identical to :meth:`SerialExecutor.run
        <repro.exec.executor.SerialExecutor.run>`, whatever the cache
        state and whichever workers crash (within ``max_retries``).
        Raises :class:`SchedulerError` when a cell is still missing
        after the last round.
        """
        configs = list(configs)
        self._reset_counters()
        spawned_before = reused_before = 0
        if self._pool is not None:
            spawned_before = self._pool.workers_spawned
            reused_before = self._pool.workers_reused
        try:
            return self._run(configs, progress)
        except BaseException:
            # A failed run (SchedulerError, interrupt, ...) leaves no
            # pooled workers behind; the next run starts cleanly.
            self.close()
            raise
        finally:
            if self._pool is not None:
                self.workers_spawned = (self._pool.workers_spawned
                                        - spawned_before)
                self.workers_reused = (self._pool.workers_reused
                                       - reused_before)
                self.total_workers_spawned += self.workers_spawned
                self.total_workers_reused += self.workers_reused

    # ------------------------------------------------------------------ #
    def _run(self, configs: Sequence[ScenarioConfig],
             progress: Optional[ProgressCallback]) -> List[ScenarioResult]:
        cache = self.cache
        results: Dict[int, ScenarioResult] = {}
        pending = list(range(len(configs)))
        round_no = 0
        while True:
            # Cache-aware (re-)filter: round 0 is the pre-filter; later
            # rounds recover cells a dead worker completed before dying.
            hits: Dict[int, ScenarioResult] = {}
            if cache is not None:
                lookup_started = time.perf_counter()  # repro-lint: ignore[D-wallclock] stage timing only, never a result input
                hits, _misses = cache.lookup([configs[index]
                                              for index in pending])
                self._add_stage("lookup",
                                time.perf_counter() - lookup_started)  # repro-lint: ignore[D-wallclock] stage timing only, never a result input
            if hits:
                for position, result in hits.items():
                    index = pending[position]
                    results[index] = result
                    if progress is not None:
                        progress(index, configs[index], result)
                self.cells_from_cache += len(hits)
                pending = [index for index in pending
                           if index not in results]
            if not pending:
                break
            if round_no > self.max_retries:
                raise SchedulerError(
                    f"run incomplete after {round_no} round(s) "
                    f"({self.worker_failures} worker failure(s)): "
                    f"{len(pending)} grid cell(s) missing: {pending}")
            if self.shards is None:
                units = [[index] for index in pending]
            else:
                units = _plan_units(configs, pending,
                                    min(self.shards, len(pending)))
            failed_units, dead_pids = self._run_round(
                configs, units, round_no, cache, results, progress)
            self.rounds += 1
            if failed_units:
                self.worker_failures += len(failed_units)
                if cache is not None:
                    self.temp_files_swept += self._sweep_orphans(cache,
                                                                 dead_pids)
            pending = [index for index in pending if index not in results]
            round_no += 1
        if self.rounds and cache is not None:
            # Only a run that wrote can have left strays behind; a fully
            # cached replay skips the glob over every shard directory.
            self.temp_files_swept += self._sweep_orphans(cache, ())
        return [results[index] for index in range(len(configs))]

    @staticmethod
    def _sweep_orphans(cache: ResultCache,
                       dead_pids: Collection[int]) -> int:
        """Remove temp files of known-dead workers, plus ancient strays.

        The cache root may be shared with other live writers (parallel
        sweeps are explicitly allowed to share one), so only files whose
        pid belongs to a worker this scheduler watched die are swept
        unconditionally; anything else must be at least
        :data:`STRAY_TEMP_MIN_AGE_SECONDS` old.
        """
        swept = 0
        if dead_pids:
            swept += cache.sweep_temp_files(pids=set(dead_pids))
        swept += cache.sweep_temp_files(
            min_age_seconds=STRAY_TEMP_MIN_AGE_SECONDS)
        return swept

    # ------------------------------------------------------------------ #
    def _run_round(self, configs: Sequence[ScenarioConfig],
                   units: List[List[int]], round_no: int,
                   cache: Optional[ResultCache],
                   results: Dict[int, ScenarioResult],
                   progress: Optional[ProgressCallback],
                   ) -> Tuple[List[int], List[int]]:
        """Dispatch one round of work units over pooled workers.

        Returns ``(failed unit indices, dead worker pids)``.  At most
        ``self.workers`` processes run concurrently; each completed
        cell is placed in ``results`` the moment its frame streams back,
        while the rest of the round is still running.  A frame doubles as the
        primary liveness signal (it extends the worker's heartbeat
        deadline); the cache probe remains the fallback for workers
        whose completed cells were written but whose frames were lost.
        """
        pool = self._ensure_pool()
        faults = {fault.unit: fault for fault in self.faults
                  if fault.round == round_no}
        queued = list(enumerate(units))
        live: Dict[Connection, Tuple[int, _WorkerHandle]] = {}
        deadlines: Dict[Connection, float] = {}
        unit_cells: Dict[Connection, List[int]] = {}
        cached_counts: Dict[Connection, int] = {}
        failed_units: List[int] = []
        dead_pids: List[int] = []

        def mark_failed(conn: Connection, timed_out: bool = False) -> None:
            unit_index, handle = live.pop(conn)
            deadlines.pop(conn, None)
            pid = handle.process.pid
            pool.discard(handle)
            failed_units.append(unit_index)
            if timed_out:
                self.workers_timed_out += 1
            if pid is not None:
                dead_pids.append(pid)

        try:
            while queued or live:
                while queued and len(live) < self.workers:
                    unit_index, cells = queued.pop(0)
                    fault = faults.get(unit_index)
                    spawn_started = time.perf_counter()  # repro-lint: ignore[D-wallclock] stage timing only, never a result input
                    handle = pool.acquire()
                    self._add_stage("spawn",
                                    time.perf_counter() - spawn_started)  # repro-lint: ignore[D-wallclock] stage timing only, never a result input
                    serialize_started = time.perf_counter()  # repro-lint: ignore[D-wallclock] stage timing only, never a result input
                    payload = json.dumps({
                        "op": "run",
                        "configs": [configs[index].to_dict()
                                    for index in cells],
                        "cells": cells,
                        "cache_root": (None if cache is None
                                       else str(cache.root)),
                        "unit_index": unit_index,
                        "unit_count": len(units),
                        "fail_after_cells":
                            fault.after_cells if fault else None,
                        "fail_mode": fault.mode if fault else "kill",
                    }, sort_keys=True)
                    try:
                        handle.conn.send_bytes(payload.encode("utf-8"))
                    except (OSError, ValueError):
                        # The warm worker died between acquire and
                        # dispatch; count the unit failed and let the
                        # next round re-plan it.
                        self._add_stage(
                            "serialize",
                            time.perf_counter() - serialize_started)  # repro-lint: ignore[D-wallclock] stage timing only, never a result input
                        pid = handle.process.pid
                        pool.discard(handle)
                        failed_units.append(unit_index)
                        if pid is not None:
                            dead_pids.append(pid)
                        self.workers_launched += 1
                        continue
                    self._add_stage("serialize",
                                    time.perf_counter() - serialize_started)  # repro-lint: ignore[D-wallclock] stage timing only, never a result input
                    live[handle.conn] = (unit_index, handle)
                    if self.worker_timeout is not None:
                        started_at = time.monotonic()  # repro-lint: ignore[D-wallclock] liveness only
                        deadlines[handle.conn] = (started_at
                                                  + self.worker_timeout)
                        unit_cells[handle.conn] = cells
                        # Unit cells were cache misses when planned.
                        cached_counts[handle.conn] = 0
                    self.workers_launched += 1
                wait_timeout = None
                if deadlines:
                    mono_now = time.monotonic()  # repro-lint: ignore[D-wallclock] liveness only
                    wait_timeout = max(0.0, min(deadlines.values()) - mono_now)
                ready = multiprocessing.connection.wait(list(live),
                                                        timeout=wait_timeout)
                for conn_obj in ready:
                    conn = conn_obj  # type: Connection  # wait() erases it
                    unit_index, handle = live[conn]
                    stream_started = time.perf_counter()  # repro-lint: ignore[D-wallclock] stage timing only, never a result input
                    try:
                        frame: Optional[Dict[str, Any]] = json.loads(
                            conn.recv_bytes().decode("utf-8"))
                    except (EOFError, OSError):
                        # EOFError: died with nothing buffered; OSError:
                        # died mid-frame.  Both are the same mid-unit
                        # crash to the scheduler; cells it streamed
                        # before dying stay merged.
                        frame = None
                    self._add_stage("stream",
                                    time.perf_counter() - stream_started)  # repro-lint: ignore[D-wallclock] stage timing only, never a result input
                    if frame is None:
                        mark_failed(conn)
                        continue
                    if "error" in frame:
                        # A deterministic failure: retrying the cell on
                        # another worker would only raise it again.
                        raise pickle.loads(base64.b64decode(frame["error"]))
                    index = int(frame["cell"])
                    result = ScenarioResult.from_dict(frame["result"])
                    merge_started = time.perf_counter()  # repro-lint: ignore[D-wallclock] stage timing only, never a result input
                    results[index] = result
                    self._add_stage(
                        "merge", time.perf_counter() - merge_started)  # repro-lint: ignore[D-wallclock] stage timing only, never a result input
                    self._add_stage("simulate",
                                    float(frame.get("sim_s", 0.0)))
                    self.cells_streamed += 1
                    self.simulations_run += 1
                    if "done" in frame:
                        # The unit's last cell: the worker is warm and
                        # idle again.
                        self._add_stage("cache_write",
                                        float(frame["cache_write_s"]))
                        del live[conn]
                        deadlines.pop(conn, None)
                        pool.release(handle)
                    elif conn in deadlines:
                        # A frame is progress; no cache probe needed.
                        deadlines[conn] = (time.monotonic()  # repro-lint: ignore[D-wallclock] liveness only
                                           + self.worker_timeout)
                    if progress is not None:
                        progress(index, configs[index], result)
                # Heartbeat check.  A worker past its deadline gets one
                # question: did new cells of its unit land in the shared
                # cache since the last check?  If yes it is healthy but
                # slow — extend the deadline.  If no it is alive but
                # wedged — terminate it and let the rebalancing path
                # treat it exactly like a crashed machine (cells it
                # wrote before wedging are recovered for free).
                now = time.monotonic()  # repro-lint: ignore[D-wallclock] heartbeat deadline check
                expired = [c for c, deadline in deadlines.items()
                           if deadline <= now and c in live]
                for conn in expired:
                    # has_current() enforces the repro-version guard, so
                    # stale entries left by an older version (which made
                    # these cells pending in the first place) never
                    # count as progress — only cells this run wrote do.
                    cached = 0 if cache is None else sum(
                        1 for index in unit_cells[conn]
                        if cache.has_current(configs[index]))
                    if cached > cached_counts[conn]:
                        cached_counts[conn] = cached
                        deadlines[conn] = now + self.worker_timeout
                        continue
                    mark_failed(conn, timed_out=True)
        finally:
            for conn in list(live):
                _unit_index, handle = live.pop(conn)
                pool.discard(handle)
        return failed_units, dead_pids

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"ClusterExecutor(shards={self.shards}, "
                f"workers={self.workers}, max_retries={self.max_retries}, "
                f"worker_timeout={self.worker_timeout}, "
                f"cache={self.cache!r})")


#: The ISSUE/ROADMAP name for the same object: scheduling is the act,
#: cluster execution is the capability.
ShardScheduler = ClusterExecutor
