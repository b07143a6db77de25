"""Determinism & fault-injection harness for the streaming shard scheduler.

The ISSUE 4 acceptance criterion: a scheduler-merged
:class:`~repro.experiments.sweep.SweepResult` is **bit-for-bit identical**
(sha256 of the serialized artifact) to the serial sweep — with a cold
cache, with a fully warm cache (zero simulations), and with a worker
killed mid-shard and its cells rebalanced.  Everything here runs on a
single core under the ``fork`` start method.
"""

from __future__ import annotations

import hashlib
import os
import time

import pytest

from repro.exec import (
    ClusterExecutor,
    FaultInjection,
    ResultCache,
    SchedulerError,
    ShardMerger,
    ShardScheduler,
    partition_cells,
    plan_shards,
)
from repro.experiments.sweep import SweepResult, SweepSettings, run_speed_sweep
from repro.scenario.runner import run_scenario


def tiny_settings(**overrides) -> SweepSettings:
    """A 4-cell grid that splits non-trivially across 2 shards."""
    params = dict(protocols=("AODV", "MTS"), speeds=(5.0,), replications=2,
                  config_overrides=dict(n_nodes=10,
                                        field_size=(500.0, 500.0),
                                        sim_time=4.0))
    params.update(overrides)
    return SweepSettings(**params)


def sha256(sweep: SweepResult) -> str:
    return hashlib.sha256(sweep.to_json().encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def tiny_serial() -> SweepResult:
    """The serial single-process reference every mode must reproduce."""
    return run_speed_sweep(tiny_settings())


class TestFaultInjection:
    def test_parse(self):
        assert FaultInjection.parse("0:1") == FaultInjection(0, 1)
        assert FaultInjection.parse("2:3:1") == \
            FaultInjection(unit=2, after_cells=3, round=1)
        assert str(FaultInjection(1, 2, 3)) == "1:2:3"

    def test_rejects_bad_specs(self):
        for text in ("", "1", "a:b", "1:2:3:4", "-1:1", "0:0", "0:1:-1"):
            with pytest.raises(ValueError):
                FaultInjection.parse(text)

    def test_hang_mode(self):
        fault = FaultInjection.parse("0:1", mode="hang")
        assert fault == FaultInjection(0, 1, mode="hang")
        assert str(fault) == "0:1:0:hang"
        # str/parse round-trips for both modes.
        assert FaultInjection.parse(str(fault)) == fault
        assert FaultInjection.parse(str(FaultInjection(1, 2, 3))) \
            == FaultInjection(1, 2, 3)
        # An explicit trailing mode wins over the parse default.
        assert FaultInjection.parse("0:1:0:kill", mode="hang").mode == "kill"
        with pytest.raises(ValueError, match="mode"):
            FaultInjection(0, 1, mode="wedge")


class TestPartition:
    def test_full_grid_partition_matches_the_shard_planner(self):
        # Round 0 on a cold cache schedules exactly the coordination-free
        # K-machine plan (minus empty shards).
        settings = tiny_settings()
        cells = list(range(len(settings.grid())))
        for count in (1, 2, 3):
            expected = [plan for plan in plan_shards(settings, count)
                        if plan]
            assert partition_cells(settings, cells, count) == expected

    def test_partition_drops_empty_units_and_covers_cells(self):
        settings = tiny_settings()
        units = partition_cells(settings, [0, 3], 8)
        assert all(units)
        assert sorted(index for unit in units for index in unit) == [0, 3]

    def test_rejects_bad_unit_count(self):
        with pytest.raises(ValueError):
            partition_cells(tiny_settings(), [0], 0)


def test_has_current_is_version_guarded_and_counter_free(tmp_path):
    """The heartbeat's cache probe must reject other-version entries
    (they are exactly why the cell was pending) and must not skew the
    cache's hit/miss statistics."""
    import json

    from repro.scenario.config import ScenarioConfig
    from repro.scenario.runner import run_scenario

    cache = ResultCache(tmp_path / "cache")
    config = ScenarioConfig.tiny(sim_time=2.0)
    run_scenario(config, cache=cache)
    counters = (cache.hits, cache.misses)
    assert cache.has_current(config)
    assert not cache.has_current(config.replace(seed=config.seed + 1))
    entry = cache.path_for(config)
    payload = json.loads(entry.read_text(encoding="utf-8"))
    payload["repro_version"] = "0.0.0"
    entry.write_text(json.dumps(payload), encoding="utf-8")
    assert not cache.has_current(config)
    assert (cache.hits, cache.misses) == counters


def test_pid_filtered_sweep_only_removes_known_dead_writers(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    dead = cache.root / f".{'ab' + 62 * '0'}.111.tmp"
    dead.write_text("{")
    alive = cache.root / f".{'cd' + 62 * '0'}.222.tmp"
    alive.write_text("{")
    assert cache.sweep_temp_files(pids={111}) == 1
    assert cache.temp_files() == [alive]


class TestSchedulerValidation:
    def test_constructor_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            ClusterExecutor(shards=0)
        with pytest.raises(ValueError):
            ClusterExecutor(workers=0)
        with pytest.raises(ValueError):
            ClusterExecutor(max_retries=-1)
        with pytest.raises(ValueError):
            ClusterExecutor(worker_timeout=0.0)
        with pytest.raises(ValueError):
            ClusterExecutor(worker_timeout=-1.0)

    def test_hang_faults_require_a_worker_timeout(self):
        # Without the heartbeat a wedged worker would block run_sweep
        # forever; the constructor rejects the combination up front.
        with pytest.raises(ValueError, match="worker_timeout"):
            ClusterExecutor(faults=[FaultInjection(0, 1, mode="hang")])
        ClusterExecutor(faults=[FaultInjection(0, 1, mode="hang")],
                        worker_timeout=5.0)

    def test_shard_scheduler_is_the_same_class(self):
        assert ShardScheduler is ClusterExecutor


class TestScheduledSweep:
    def test_cold_cache_scheduler_is_bit_for_bit_serial(self, tmp_path,
                                                        tiny_serial):
        settings = tiny_settings()
        scheduler = ClusterExecutor(shards=2, cache=tmp_path / "cache")
        merged = scheduler.run_sweep(settings)
        assert sha256(merged) == sha256(tiny_serial)
        assert scheduler.cells_from_cache == 0
        assert scheduler.cells_streamed == len(settings.grid())
        assert scheduler.worker_failures == 0
        assert scheduler.rounds == 1

    def test_scheduler_without_cache_uses_an_ephemeral_root(self,
                                                            tiny_serial):
        merged = ClusterExecutor(shards=3).run_sweep(tiny_settings())
        assert merged.to_json() == tiny_serial.to_json()

    def test_more_shards_than_cells_still_covers_the_grid(self, tiny_serial):
        scheduler = ClusterExecutor(shards=16, workers=4)
        merged = scheduler.run_sweep(tiny_settings())
        assert sha256(merged) == sha256(tiny_serial)

    def test_progress_fires_once_per_cell(self, tmp_path, tiny_serial):
        settings = tiny_settings()
        seen = []
        scheduler = ClusterExecutor(shards=2, cache=tmp_path / "cache")
        scheduler.run_sweep(
            settings,
            progress=lambda *cell: seen.append(cell[:3]))
        assert sorted(seen) == sorted(settings.grid())

    def test_warm_cache_replay_runs_zero_simulations(self, tmp_path,
                                                     tiny_serial,
                                                     monkeypatch):
        """All-cached replay: zero simulations, zero workers, same bytes."""
        settings = tiny_settings()
        cache = ResultCache(tmp_path / "cache")
        run_speed_sweep(settings, cache=cache)

        def boom(*args, **kwargs):  # pragma: no cover - must not be hit
            raise AssertionError("warm replay must not simulate")

        monkeypatch.setattr("repro.exec.executor.simulate", boom)
        monkeypatch.setattr("repro.scenario.builder.ScenarioBuilder.build",
                            boom)
        scheduler = ClusterExecutor(shards=2, cache=cache)
        merged = scheduler.run_sweep(settings)
        assert sha256(merged) == sha256(tiny_serial)
        assert scheduler.workers_launched == 0
        assert scheduler.cells_streamed == 0
        assert scheduler.cells_from_cache == len(settings.grid())

    def test_worker_killed_mid_shard_rebalances_bit_for_bit(self, tmp_path,
                                                            tiny_serial):
        """The headline fault-injection criterion: kill after N cells."""
        settings = tiny_settings()
        scheduler = ClusterExecutor(
            shards=2, max_retries=2, cache=tmp_path / "cache",
            faults=[FaultInjection(unit=0, after_cells=1)])
        merged = scheduler.run_sweep(settings)
        assert sha256(merged) == sha256(tiny_serial)
        assert scheduler.worker_failures == 1
        assert scheduler.rounds >= 2
        # The killed worker completed (and cached) one cell before dying;
        # rebalancing recovered it from the cache instead of re-simulating.
        assert scheduler.cells_from_cache >= 1
        assert scheduler.cells_from_cache + scheduler.cells_streamed \
            == len(settings.grid())

    def test_kill_after_n_cells_leaves_exactly_n_loose_entries(
            self, tmp_path):
        """Each cell is written before its frame is sent, so a worker
        killed after N cells has left exactly N loose cache entries."""
        settings = tiny_settings()
        cache = ResultCache(tmp_path / "cache")
        scheduler = ClusterExecutor(
            shards=1, max_retries=0, cache=cache,
            faults=[FaultInjection(unit=0, after_cells=3)])
        with pytest.raises(SchedulerError):
            scheduler.run_sweep(settings)
        assert scheduler.cells_streamed == 2
        assert len(cache._entry_files()) == 3
        assert not (cache.root / "packs").exists()
        assert cache.temp_files() == []

    def test_hung_worker_is_timed_out_and_rebalanced_bit_for_bit(
            self, tmp_path):
        """The PR-5 heartbeat criterion: a worker that wedges (alive, no
        progress) after one cached cell is terminated by the progress
        heartbeat and its remaining cells rebalanced; the merged sweep
        is still byte-identical to the serial reference.

        The heartbeat is progress-aware: the wedged worker's first
        deadline is *extended* (its one completed cell counts as
        progress since dispatch), and only the second, progress-free
        deadline kills it — so this test also covers the
        slow-but-healthy extension path.  Uses an extra-small grid
        (2 s cells) so the unavoidable ~2×timeout wait stays short
        while the timeout remains far above any healthy worker's
        per-cell time.
        """
        settings = tiny_settings(
            config_overrides=dict(n_nodes=10, field_size=(500.0, 500.0),
                                  sim_time=2.0))
        serial = run_speed_sweep(settings)
        scheduler = ClusterExecutor(
            shards=2, max_retries=2, cache=tmp_path / "cache",
            worker_timeout=5.0,
            faults=[FaultInjection(unit=0, after_cells=1, mode="hang")])
        merged = scheduler.run_sweep(settings)
        assert sha256(merged) == sha256(serial)
        assert scheduler.workers_timed_out == 1
        assert scheduler.worker_failures == 1
        assert scheduler.rounds >= 2
        # The wedged worker cached one cell before hanging; rebalancing
        # recovered it from the cache instead of re-simulating.
        assert scheduler.cells_from_cache >= 1
        assert scheduler.cells_from_cache + scheduler.cells_streamed \
            == len(settings.grid())

    def test_without_timeout_no_worker_is_reaped(self, tmp_path,
                                                 tiny_serial):
        """worker_timeout=None keeps the historical wait-forever path."""
        settings = tiny_settings()
        scheduler = ClusterExecutor(shards=2, cache=tmp_path / "cache")
        merged = scheduler.run_sweep(settings)
        assert sha256(merged) == sha256(tiny_serial)
        assert scheduler.workers_timed_out == 0

    def test_every_worker_killed_exhausts_retries(self, tmp_path):
        settings = tiny_settings()
        units = partition_cells(settings, range(len(settings.grid())), 2)
        scheduler = ClusterExecutor(
            shards=2, max_retries=0, cache=tmp_path / "cache",
            faults=[FaultInjection(unit=index, after_cells=1)
                    for index in range(len(units))])
        with pytest.raises(SchedulerError, match="grid cell"):
            scheduler.run_sweep(settings)
        assert scheduler.worker_failures == len(units)

    def test_crashed_writer_temp_files_are_ignored_and_swept(self, tmp_path,
                                                             tiny_serial):
        """Orphan ``.{key}.{pid}.tmp`` files never poison a scheduled sweep.

        Stale strays (an hour old or more) are swept; a *fresh* temp file
        from an unknown pid is left alone — it may belong to a live
        writer in another process sharing the cache root.
        """
        settings = tiny_settings()
        cache = ResultCache(tmp_path / "cache")
        stale_root = cache.root / f".{'ab' + 62 * '0'}.4242.tmp"
        stale_root.write_text("{garbage")
        (cache.root / "cd").mkdir()
        stale_sub = cache.root / "cd" / f".{'cd' + 62 * '0'}.4242.tmp"
        stale_sub.write_text("{")
        long_ago = time.time() - 7200.0
        os.utime(stale_root, (long_ago, long_ago))
        os.utime(stale_sub, (long_ago, long_ago))
        fresh = cache.root / f".{'ef' + 62 * '0'}.4343.tmp"
        fresh.write_text("{")
        assert len(cache.temp_files()) == 3
        scheduler = ClusterExecutor(
            shards=2, max_retries=2, cache=cache,
            faults=[FaultInjection(unit=0, after_cells=1)])
        merged = scheduler.run_sweep(settings)
        assert sha256(merged) == sha256(tiny_serial)
        assert cache.temp_files() == [fresh]
        assert scheduler.temp_files_swept == 2

    def test_cached_replay_leaves_strays_for_the_next_write_or_prune(
            self, tmp_path, tiny_serial):
        """A replay that runs no round writes nothing, so it does not
        glob the cache for strays; ``prune`` still removes them."""
        settings = tiny_settings()
        cache = ResultCache(tmp_path / "cache")
        with ClusterExecutor(shards=2, cache=cache) as scheduler:
            scheduler.run_sweep(settings)
            (cache.root / "ab").mkdir(exist_ok=True)
            stray = cache.root / "ab" / f".{'ab' + 62 * '0'}.4242.tmp"
            stray.write_text("{")
            long_ago = time.time() - 7200.0
            os.utime(stray, (long_ago, long_ago))
            replay = scheduler.run_sweep(settings)
            assert sha256(replay) == sha256(tiny_serial)
            assert scheduler.rounds == 0
            assert scheduler.temp_files_swept == 0
        assert cache.temp_files() == [stray]
        assert cache.prune().temp_files == 1
        assert cache.temp_files() == []


class TestWorkerPool:
    """PR-10 pool criteria: spawn once, stay warm across rounds *and*
    across :meth:`run_sweep` calls, reuse survivors when rebalancing,
    and drain cleanly when a sweep fails."""

    def test_pool_survives_across_runs(self, tmp_path, tiny_serial):
        settings = tiny_settings()
        with ClusterExecutor(shards=2, cache=tmp_path / "cache") as scheduler:
            first = scheduler.run_sweep(settings)
            assert sha256(first) == sha256(tiny_serial)
            assert scheduler.workers_spawned == 2
            assert scheduler.workers_reused == 0
            # A different grid, all cache misses: every dispatch of the
            # second run is served by a worker spawned for the first.
            shifted = tiny_settings(base_seed=settings.base_seed + 1)
            second = scheduler.run_sweep(shifted)
            assert second.to_json() == run_speed_sweep(shifted).to_json()
            assert scheduler.workers_spawned == 0
            assert scheduler.workers_reused == 2
            # Lifetime counters (what repro-campaign prints) accumulate.
            assert scheduler.total_workers_spawned == 2
            assert scheduler.total_workers_reused == 2

    def test_kill_rebalance_reuses_surviving_warm_worker(self, tmp_path,
                                                         tiny_serial):
        settings = tiny_settings()
        scheduler = ClusterExecutor(
            shards=2, max_retries=2, cache=tmp_path / "cache",
            faults=[FaultInjection(unit=0, after_cells=1)])
        with scheduler:
            merged = scheduler.run_sweep(settings)
        assert sha256(merged) == sha256(tiny_serial)
        assert scheduler.worker_failures == 1
        assert scheduler.rounds >= 2
        # Round 0 spawned both workers; the rebalance round was served
        # (at least partly) by the surviving warm worker.
        assert scheduler.workers_reused >= 1
        assert scheduler.workers_spawned + scheduler.workers_reused \
            == scheduler.workers_launched

    def test_hang_rebalance_reuses_surviving_warm_worker(self, tmp_path):
        settings = tiny_settings(
            config_overrides=dict(n_nodes=10, field_size=(500.0, 500.0),
                                  sim_time=2.0))
        serial = run_speed_sweep(settings)
        scheduler = ClusterExecutor(
            shards=2, max_retries=2, cache=tmp_path / "cache",
            worker_timeout=5.0,
            faults=[FaultInjection(unit=0, after_cells=1, mode="hang")])
        with scheduler:
            merged = scheduler.run_sweep(settings)
        assert sha256(merged) == sha256(serial)
        assert scheduler.workers_timed_out == 1
        # The wedged worker was terminated, but its round-0 sibling went
        # back to the pool warm and served the rebalance round.
        assert scheduler.workers_reused >= 1
        assert scheduler.workers_spawned + scheduler.workers_reused \
            == scheduler.workers_launched

    def test_pool_drained_on_scheduler_error_then_reusable(self, tmp_path,
                                                           tiny_serial):
        settings = tiny_settings()
        units = partition_cells(settings, range(len(settings.grid())), 2)
        scheduler = ClusterExecutor(
            shards=2, max_retries=0, cache=tmp_path / "cache",
            faults=[FaultInjection(unit=index, after_cells=1)
                    for index in range(len(units))])
        with pytest.raises(SchedulerError):
            scheduler.run_sweep(settings)
        # The failed sweep left no warm workers behind.
        assert scheduler._pool is None
        # The executor itself is still usable: with the faults cleared,
        # the next run builds a fresh pool, recovers the cells the
        # killed workers flushed before dying, and completes bit-for-bit.
        scheduler.faults = ()
        merged = scheduler.run_sweep(settings)
        assert sha256(merged) == sha256(tiny_serial)
        assert scheduler.workers_spawned >= 1
        assert scheduler.cells_from_cache >= len(units)


def test_streaming_merge_is_byte_identical_to_whole_shard_merge(tiny_serial):
    """The cell-granular wire contract: feeding ShardMerger one frame at
    a time — in an adversarial arrival order — assembles the exact bytes
    of a whole-grid merge and of the serial sweep."""
    settings = tiny_settings()
    grid = settings.grid()
    results = {index: run_scenario(settings.cell_config(*grid[index]))
               for index in range(len(grid))}
    whole = ShardMerger(settings)
    whole.add_results(results)
    streamed = ShardMerger(settings)
    for index in sorted(results, reverse=True):
        streamed.add_results({index: results[index]})
    assert streamed.result().to_json() == whole.result().to_json()
    assert streamed.result().to_json() == tiny_serial.to_json()
