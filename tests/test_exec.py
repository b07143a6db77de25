"""Tests for the execution subsystem (executors, cache, serialization).

The two properties the subsystem promises:

* **Determinism** — a parallel (pooled ``ClusterExecutor``) run is
  bit-for-bit identical to a serial run of the same configs.
* **Cache round trip** — a second invocation of the same sweep against
  the same cache performs zero simulations and yields identical results.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import random
import time

import pytest

import repro.exec.cache as exec_cache
from repro.exec import (
    ARTIFACT_FORMAT_VERSION,
    ClusterExecutor,
    ResultCache,
    SerialExecutor,
    StaleArtifactError,
    build_executor,
    config_key,
    resolve_executor,
)
from repro.experiments.sweep import (
    SWEEP_PROFILES,
    SweepResult,
    SweepSettings,
    run_speed_sweep,
)
from repro.scenario.config import ScenarioConfig
from repro.scenario.results import (
    AggregateResult,
    ScenarioResult,
    aggregate_results,
)
from repro.scenario.runner import run_replications, run_scenario
from repro.version import __version__


def tiny_config(**overrides) -> ScenarioConfig:
    params = dict(protocol="MTS", n_nodes=10, field_size=(500.0, 500.0),
                  max_speed=5.0, sim_time=4.0, seed=3)
    params.update(overrides)
    return ScenarioConfig(**params)


@pytest.fixture(scope="module")
def tiny_result() -> ScenarioResult:
    """One completed simulation shared by the serialization tests."""
    return run_scenario(tiny_config())


@pytest.fixture(scope="module")
def smoke_serial() -> SweepResult:
    """The smoke-grid sweep on the serial executor (the reference)."""
    return run_speed_sweep(SweepSettings.smoke())


class TestSerialization:
    def test_config_json_round_trip(self):
        config = tiny_config(flows=[(0, 5)], mts_max_paths=3)
        assert ScenarioConfig.from_json(config.to_json()) == config

    def test_every_profile_cell_keeps_its_key_through_json(self):
        """The pooled executor ships configs to its workers as JSON and
        finds their results again by cache key: a key that drifted in
        the round trip would hide every recovered cell."""
        configs = [config for factory in SWEEP_PROFILES.values()
                   for config in factory().cell_configs()]
        assert configs
        for config in configs:
            wired = ScenarioConfig.from_dict(
                json.loads(json.dumps(config.to_dict())))
            assert wired == config
            assert config_key(wired) == config_key(config)

    def test_config_round_trip_with_static_positions(self):
        config = ScenarioConfig(protocol="AODV", n_nodes=3,
                                mobility_model="static",
                                static_positions=[(0.0, 0.0), (100.0, 0.0),
                                                  (200.0, 0.0)],
                                flows=[(0, 2)], sim_time=2.0)
        restored = ScenarioConfig.from_json(config.to_json())
        assert restored == config
        assert restored.static_positions[0] == (0.0, 0.0)

    def test_config_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            ScenarioConfig.from_dict({"protocol": "MTS", "warp_speed": 9})

    def test_result_json_round_trip_is_exact(self, tiny_result):
        restored = ScenarioResult.from_json(tiny_result.to_json())
        assert restored == tiny_result
        assert all(isinstance(node, int)
                   for node in restored.relay_counts)
        assert all(isinstance(flow, tuple) for flow in restored.flows)

    def test_aggregate_json_round_trip_is_exact(self, tiny_result):
        aggregate = aggregate_results([tiny_result])
        restored = AggregateResult.from_json(aggregate.to_json())
        assert restored == aggregate
        # Canonical metric order survives the sorted-key JSON round trip.
        assert list(restored.mean) == list(aggregate.mean)

    def test_sweep_json_round_trip_is_exact(self, smoke_serial):
        restored = SweepResult.from_json(smoke_serial.to_json())
        assert restored.settings == smoke_serial.settings
        assert restored.runs == smoke_serial.runs
        assert json.dumps(restored.rows()) == json.dumps(smoke_serial.rows())

    def test_sweep_save_load(self, smoke_serial, tmp_path):
        path = tmp_path / "sweep.json"
        smoke_serial.save(path)
        assert SweepResult.load(path).rows() == smoke_serial.rows()

    def test_config_key_is_stable_and_ignores_trace(self):
        config = tiny_config()
        assert config_key(config) == config_key(tiny_config())
        assert config_key(config) == config_key(config.replace(trace=True))
        assert config_key(config) != config_key(config.replace(seed=4))

    def test_config_key_not_aliased_by_stale_n_flows(self):
        # With explicit flows, n_flows is ignored by the builder; two
        # behaviourally identical configs must share one cache entry.
        a = tiny_config(flows=[(0, 5)])
        b = tiny_config(flows=[(0, 5)], n_flows=4)
        assert a == b
        assert config_key(a) == config_key(b)


# ---------------------------------------------------------------------- #
# dataclasses.asdict-based references: the serializers must equal these.
# ---------------------------------------------------------------------- #
def asdict_config(config: ScenarioConfig) -> dict:
    data = dataclasses.asdict(config)
    data["field_size"] = list(config.field_size)
    if config.flows is not None:
        data["flows"] = [list(flow) for flow in config.flows]
    if config.static_positions is not None:
        data["static_positions"] = [list(p) for p in config.static_positions]
    return data


def asdict_result(result: ScenarioResult) -> dict:
    data = dataclasses.asdict(result)
    data["flows"] = [list(flow) for flow in result.flows]
    data["relay_counts"] = {str(node): int(count)
                            for node, count in result.relay_counts.items()}
    return data


def shape(value):
    """``value`` with every container replaced by (type, children)."""
    if isinstance(value, dict):
        return (dict, {key: shape(item) for key, item in value.items()})
    if isinstance(value, (list, tuple)):
        return (type(value), [shape(item) for item in value])
    return (type(value), value)


def assert_same_as_reference(serialized: dict, reference: dict) -> None:
    assert serialized == reference
    assert shape(serialized) == shape(reference)
    assert json.dumps(serialized, sort_keys=True) == \
        json.dumps(reference, sort_keys=True)


def mutate_every_container(value) -> int:
    """Grow every dict and list reachable from ``value``; returns how many."""
    mutated = 0
    if isinstance(value, dict):
        for item in list(value.values()):
            mutated += mutate_every_container(item)
        value["mutated"] = True
        mutated += 1
    elif isinstance(value, list):
        for item in list(value):
            mutated += mutate_every_container(item)
        value.append("mutated")
        mutated += 1
    elif isinstance(value, tuple):
        for item in value:
            mutated += mutate_every_container(item)
    return mutated


def random_nested(rng: random.Random, depth: int = 0):
    """A random JSON-shaped value nesting lists, tuples and dicts."""
    kind = rng.randrange(7 if depth < 3 else 4)
    if kind == 0:
        return rng.randint(-9, 9)
    if kind == 1:
        return rng.uniform(-1e3, 1e3)
    if kind == 2:
        return rng.choice(["a", "bc", ""])
    if kind == 3:
        return rng.choice([True, False, None])
    items = [random_nested(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 4:
        return items
    if kind == 5:
        return tuple(items)
    return {f"k{index}": item for index, item in enumerate(items)}


def random_config(rng: random.Random) -> ScenarioConfig:
    """A seeded config whose ``*_params`` hold nested containers.

    The params are assigned after construction: no registered component
    takes nested parameters, and the serializers must copy whatever a
    record holds.
    """
    n_nodes = rng.randint(4, 12)
    static = rng.random() < 0.5
    config = ScenarioConfig(
        protocol=rng.choice(["MTS", "DSR", "AODV"]), n_nodes=n_nodes,
        field_size=(rng.uniform(100, 900), rng.uniform(100, 900)),
        max_speed=rng.uniform(0.5, 20.0), seed=rng.randint(1, 10**6),
        mobility_model="static" if static else "random_waypoint",
        static_positions=([(rng.uniform(0, 500), rng.uniform(0, 500))
                           for _ in range(n_nodes)] if static else None),
        flows=[(0, n_nodes - 1)] if rng.random() < 0.5 else None,
        trace=rng.random() < 0.3)
    for name in ("propagation_params", "mobility_params", "routing_params",
                 "transport_params", "app_params"):
        params = {f"p{index}": random_nested(rng)
                  for index in range(rng.randrange(4))}
        params["nest"] = [(1, {"x": [2.5, (3, "y")]}), {"z": ()}, []]
        setattr(config, name, params)
    return config


class TestFieldSerializers:
    """``to_dict`` equals the ``dataclasses.asdict`` form, byte for byte,
    and shares no mutable container with the record."""

    def test_every_profile_cell_config(self):
        configs = [config for factory in SWEEP_PROFILES.values()
                   for config in factory().cell_configs()]
        assert configs
        for config in configs:
            assert_same_as_reference(config.to_dict(), asdict_config(config))

    def test_random_configs_with_nested_params(self):
        rng = random.Random(2024)
        for _ in range(50):
            config = random_config(rng)
            assert_same_as_reference(config.to_dict(), asdict_config(config))

    def test_sweep_results_and_aggregates(self, smoke_serial):
        for key, runs in smoke_serial.runs.items():
            for run in runs:
                assert_same_as_reference(run.to_dict(), asdict_result(run))
            aggregate = smoke_serial.aggregates[key]
            assert_same_as_reference(aggregate.to_dict(),
                                     dataclasses.asdict(aggregate))

    def test_config_output_shares_nothing_with_the_record(self):
        config = random_config(random.Random(7))
        before = copy.deepcopy(config)
        assert mutate_every_container(config.to_dict()) > 10
        assert config == before
        assert config.to_dict() == asdict_config(before)

    def test_result_output_shares_nothing_with_the_record(self,
                                                          smoke_serial):
        run = next(iter(smoke_serial.runs.values()))[0]
        aggregate = next(iter(smoke_serial.aggregates.values()))
        assert run.sender_stats and run.control_by_kind
        for record in (run, aggregate):
            before = copy.deepcopy(record)
            assert mutate_every_container(record.to_dict()) > 2
            assert record == before


class TestExecutors:
    def test_serial_executor_matches_direct_runs(self):
        configs = [tiny_config(seed=1), tiny_config(seed=2)]
        executor = SerialExecutor()
        results = executor.run(configs)
        assert executor.simulations_run == 2
        assert [r.seed for r in results] == [1, 2]
        assert results[0] == run_scenario(configs[0])

    def test_progress_callback_sees_every_run(self):
        seen = []
        SerialExecutor().run([tiny_config(seed=1), tiny_config(seed=2)],
                             progress=lambda i, c, r: seen.append((i, c.seed)))
        assert sorted(seen) == [(0, 1), (1, 2)]

    def test_parallel_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            ClusterExecutor(workers=0)

    def test_resolve_executor_defaults_to_serial(self, tmp_path):
        executor = resolve_executor(None, None)
        assert isinstance(executor, SerialExecutor)
        assert executor.cache is None
        cached = resolve_executor(None, ResultCache(tmp_path))
        assert cached.cache is not None

    def test_resolve_executor_rejects_conflicting_caches(self, tmp_path):
        executor = SerialExecutor(cache=ResultCache(tmp_path / "a"))
        with pytest.raises(ValueError, match="rooted elsewhere"):
            resolve_executor(executor, ResultCache(tmp_path / "b"))
        # Same cache object, a distinct cache with the same root (e.g. the
        # same path string passed twice), or a cache-less executor: all fine.
        assert resolve_executor(executor, executor.cache) is executor
        assert resolve_executor(executor, ResultCache(tmp_path / "a")) is executor
        assert resolve_executor(executor, str(tmp_path / "a")) is executor
        bare = SerialExecutor()
        assert resolve_executor(bare, ResultCache(tmp_path / "c")) is bare
        assert bare.cache is not None

    def test_build_executor_factory(self, tmp_path):
        assert isinstance(build_executor(1), SerialExecutor)
        parallel = build_executor(3, tmp_path / "cache")
        assert isinstance(parallel, ClusterExecutor)
        # A pool of 3 workers fed one cell per unit, not 3 hashed shards.
        assert parallel.workers == 3
        assert parallel.shards is None
        assert isinstance(parallel.cache, ResultCache)
        # 0 = one worker per core; on a single-core box that is serial.
        auto = build_executor(0)
        assert isinstance(auto, (SerialExecutor, ClusterExecutor))
        with pytest.raises(ValueError):
            build_executor(-1)

    def test_parallel_sweep_identical_to_serial(self, smoke_serial):
        """The smoke sweep through ``build_executor(2)`` is byte-identical
        to the serial sweep."""
        with build_executor(2) as executor:
            parallel = run_speed_sweep(SweepSettings.smoke(),
                                       executor=executor)
            assert executor.simulations_run == len(
                SweepSettings.smoke().grid())
        assert parallel.to_json() == smoke_serial.to_json()

    @pytest.mark.parametrize("cached", [False, True])
    def test_pooled_executor_matches_serial_on_any_config_list(
            self, tmp_path, cached):
        """Not a sweep grid: replications with a repeated seed, in and
        out of a cache, plus ``run_one``."""
        base = tiny_config(sim_time=2.0)
        seeds = [base.seed, base.seed + 1000, base.seed]
        _, serial = run_replications(base, 3, seeds=seeds,
                                     executor=SerialExecutor())
        cache = ResultCache(tmp_path / "cache") if cached else None
        seen = []
        with ClusterExecutor(shards=2, cache=cache) as executor:
            _, pooled = run_replications(base, 3, seeds=seeds,
                                         executor=executor)
            assert pooled == serial
            assert executor.simulations_run == 3
            assert executor.run_one(base) == serial[0]
            executor.run([base], progress=lambda *cell: seen.append(cell))
        assert seen == [(0, base, serial[0])]
        if cached:
            # Both replays were cache hits; the duplicate shares one entry.
            assert executor.simulations_run == 3
            assert len(cache) == 2

    def test_pooled_executor_queues_one_cell_per_unit(self):
        configs = [tiny_config(sim_time=1.0, seed=seed)
                   for seed in range(1, 6)]
        with build_executor(2) as executor:
            assert executor.run(configs) == SerialExecutor().run(configs)
            assert executor.workers_launched == len(configs)
            assert executor.workers_spawned <= 2
            assert executor.rounds == 1

    def test_cacheless_pool_resimulates_a_dead_workers_cells(self):
        """Without a cache nothing is written: the cell a killed worker
        finished but did not stream is simulated again."""
        from repro.exec.scheduler import FaultInjection
        configs = [tiny_config(sim_time=1.0, seed=seed)
                   for seed in range(1, 5)]
        with ClusterExecutor(shards=None, workers=2, max_retries=1,
                             faults=[FaultInjection(unit=0, after_cells=1)],
                             ) as executor:
            assert executor.run(configs) == SerialExecutor().run(configs)
            assert executor.worker_failures == 1
            assert executor.cells_from_cache == 0
            assert executor.simulations_run == len(configs)
            assert executor.stage_seconds["lookup"] == 0.0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failing_config_raises_its_own_error(self, tmp_path, workers):
        """A config the builder rejects raises the same exception through
        the pool as in-process, at once: a deterministic failure is not
        retried as if the worker had crashed."""
        bad = tiny_config(sim_time=1.0, flows=[(0, 5)], eavesdropper_node=0)
        configs = [tiny_config(sim_time=1.0), bad]
        with build_executor(workers, tmp_path / "cache") as executor:
            with pytest.raises(ValueError, match="flow endpoint"):
                executor.run(configs)
            if workers > 1:
                assert executor.rounds == 0
                assert executor.worker_failures == 0
            # The executor stays usable after the failed run.
            assert executor.run(configs[:1]) == SerialExecutor().run(
                configs[:1])

    def test_run_replications_accepts_executor(self):
        aggregate, results = run_replications(tiny_config(), replications=2,
                                              executor=SerialExecutor())
        assert aggregate.replications == 2
        assert len(results) == 2


class TestResultCache:
    def test_put_get_round_trip(self, tmp_path, tiny_result):
        cache = ResultCache(tmp_path)
        config = tiny_config()
        assert cache.get(config) is None
        cache.put(config, tiny_result)
        assert config in cache
        assert cache.get(config) == tiny_result
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1

    def test_put_path_stem_is_the_config_key(self, tmp_path, tiny_result):
        cache = ResultCache(tmp_path)
        for config in (tiny_config(), tiny_config(trace=True),
                       random_config(random.Random(3))):
            path = cache.put(config, tiny_result)
            assert path.stem == config_key(config)
            body = json.loads(path.read_text(encoding="utf-8"))
            assert body["key"] == path.stem
            assert body["config"] == json.loads(json.dumps(config.to_dict()))

    def test_corrupt_entry_is_a_miss(self, tmp_path, tiny_result):
        cache = ResultCache(tmp_path)
        config = tiny_config()
        path = cache.put(config, tiny_result)
        path.write_text("not json at all")
        assert cache.get(config) is None
        # A fresh put repairs the entry.
        cache.put(config, tiny_result)
        assert cache.get(config) == tiny_result

    def test_clear_removes_entries(self, tmp_path, tiny_result):
        cache = ResultCache(tmp_path)
        cache.put(tiny_config(), tiny_result)
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_second_sweep_invocation_runs_zero_simulations(
            self, tmp_path, smoke_serial):
        """ISSUE requirement: a repeated sweep against the same cache is
        served entirely from disk."""
        cache = ResultCache(tmp_path / "cache")
        first = SerialExecutor(cache=cache)
        warmed = run_speed_sweep(SweepSettings.smoke(), executor=first)
        assert first.simulations_run == len(SweepSettings.smoke().grid())

        second = SerialExecutor(cache=cache)
        replayed = run_speed_sweep(SweepSettings.smoke(), executor=second)
        assert second.simulations_run == 0
        assert cache.hits == len(SweepSettings.smoke().grid())
        assert json.dumps(replayed.rows()) == json.dumps(warmed.rows())
        assert json.dumps(replayed.rows()) == json.dumps(smoke_serial.rows())

    def test_cache_shared_between_scenario_and_sweep_layers(self, tmp_path):
        """A single cell simulated via run_scenario is reused by the sweep."""
        settings = SweepSettings.smoke()
        cache = ResultCache(tmp_path / "cache")
        protocol, speed, replication = settings.grid()[0]
        run_scenario(settings.cell_config(protocol, speed, replication),
                     cache=cache)
        executor = SerialExecutor(cache=cache)
        run_speed_sweep(settings, executor=executor)
        assert executor.simulations_run == len(settings.grid()) - 1


class TestCacheMaintenance:
    """The hygiene layer under the ``repro-cache`` CLI."""

    def warm_cache(self, tmp_path, tiny_result, n=3) -> ResultCache:
        cache = ResultCache(tmp_path / "cache")
        for seed in range(1, n + 1):
            cache.put(tiny_config(seed=seed), tiny_result)
        return cache

    def orphan_temp(self, cache: ResultCache, age_seconds: float = 0.0,
                    pid: int = 99999):
        """Fake what a writer that crashed mid-put leaves behind."""
        shard_dir = cache.root / "ab"
        shard_dir.mkdir(exist_ok=True)
        tmp = shard_dir / f".{'ab' + 62 * '0'}.{pid}.tmp"
        tmp.write_text("{\"partial\":")
        if age_seconds:
            os.utime(tmp, (time.time() - age_seconds,) * 2)
        return tmp

    def test_orphan_temp_files_are_invisible_to_reads(self, tmp_path,
                                                      tiny_result):
        cache = self.warm_cache(tmp_path, tiny_result, n=1)
        self.orphan_temp(cache)
        assert len(cache) == 1
        assert cache.get(tiny_config(seed=1)) == tiny_result
        assert len(cache.temp_files()) == 1

    def test_sweep_temp_files_respects_min_age(self, tmp_path, tiny_result):
        cache = self.warm_cache(tmp_path, tiny_result, n=1)
        fresh = self.orphan_temp(cache, pid=11111)   # maybe a live writer
        self.orphan_temp(cache, age_seconds=7200.0, pid=22222)
        assert cache.sweep_temp_files(min_age_seconds=3600.0) == 1
        assert cache.temp_files() == [fresh]         # fresh one survives
        assert cache.sweep_temp_files() == 1
        assert cache.temp_files() == []

    def test_stats_counts_versions_and_temps(self, tmp_path, tiny_result):
        cache = self.warm_cache(tmp_path, tiny_result)
        self.orphan_temp(cache)
        stats = cache.stats()
        assert stats.entries == 3
        assert stats.current == 3
        assert stats.temp_files == 1
        assert stats.unreadable == 0
        assert stats.total_bytes > 0

    def test_stats_counts_a_non_object_entry_as_unreadable(self, tmp_path,
                                                           tiny_result):
        cache = self.warm_cache(tmp_path, tiny_result, n=2)
        cache._entry_files()[0].write_text("[1, 2]")
        stats = cache.stats()
        assert (stats.entries, stats.unreadable, stats.current) == (2, 1, 1)

    def test_verify_flags_corrupt_and_mismatched_entries(self, tmp_path,
                                                         tiny_result):
        cache = self.warm_cache(tmp_path, tiny_result)
        assert cache.verify() == []
        # Corrupt one entry, mis-key another (valid JSON, wrong filename).
        paths = sorted(cache._entry_files())
        paths[0].write_text("not json")
        ff_dir = cache.root / "ff"
        ff_dir.mkdir(exist_ok=True)
        paths[1].rename(ff_dir / ("ff" + paths[1].name[2:]))
        problems = cache.verify()
        assert sorted(p.kind for p in problems) == ["corrupt", "corrupt"]

    def test_verify_flags_other_version_entries_as_stale(self, tmp_path,
                                                         tiny_result):
        cache = self.warm_cache(tmp_path, tiny_result, n=1)
        path = next(iter(cache._entry_files()))
        payload = json.loads(path.read_text())
        payload["repro_version"] = "0.0.1"
        path.write_text(json.dumps(payload))
        problems = cache.verify()
        assert [p.kind for p in problems] == ["stale"]

    def test_prune_removes_bad_entries_and_orphans(self, tmp_path,
                                                   tiny_result):
        cache = self.warm_cache(tmp_path, tiny_result)
        next(iter(cache._entry_files())).write_text("broken")
        self.orphan_temp(cache)
        dry = cache.prune(dry_run=True)
        assert (dry.corrupt, dry.temp_files) == (1, 1)
        assert len(cache) == 3                       # nothing removed yet
        report = cache.prune()
        assert (report.corrupt, report.stale, report.temp_files) == (1, 0, 1)
        assert len(cache) == 2
        assert cache.verify() == []

    def test_gc_by_age_and_size(self, tmp_path, tiny_result):
        cache = self.warm_cache(tmp_path, tiny_result)
        paths = sorted(cache._entry_files())
        os.utime(paths[0], (time.time() - 10 * 86400,) * 2)
        assert cache.gc(max_age_seconds=86400.0, dry_run=True) == [paths[0]]
        assert len(cache) == 3
        assert cache.gc(max_age_seconds=86400.0) == [paths[0]]
        assert len(cache) == 2
        # Shrink to a budget that fits exactly one entry.
        entry_size = paths[1].stat().st_size
        removed = cache.gc(max_total_bytes=entry_size)
        assert len(removed) == 1
        assert len(cache) == 1
        with pytest.raises(ValueError):
            cache.gc()

    def test_merge_from_combines_roots(self, tmp_path, tiny_result):
        a = ResultCache(tmp_path / "a")
        b = ResultCache(tmp_path / "b")
        a.put(tiny_config(seed=1), tiny_result)
        b.put(tiny_config(seed=1), tiny_result)      # identical bytes
        b.put(tiny_config(seed=2), tiny_result)
        merged = ResultCache(tmp_path / "merged")
        assert merged.merge_from(a).copied == 1
        stats = merged.merge_from(b)
        assert (stats.copied, stats.identical, stats.conflicts) == (1, 1, 0)
        assert len(merged) == 2
        assert merged.get(tiny_config(seed=2)) == tiny_result
        with pytest.raises(ValueError, match="itself"):
            merged.merge_from(merged)

    def test_merge_from_rejects_missing_source(self, tmp_path, tiny_result):
        # A typo'd shard-cache path must fail loudly, not "merge" an
        # empty directory it just created and report success.
        dest = ResultCache(tmp_path / "dest")
        dest.put(tiny_config(seed=1), tiny_result)
        with pytest.raises(ValueError, match="not an existing"):
            dest.merge_from(tmp_path / "cahce-1")
        assert not (tmp_path / "cahce-1").exists()

    def test_merge_from_reports_conflicts_and_keeps_destination(
            self, tmp_path, tiny_result):
        a = ResultCache(tmp_path / "a")
        b = ResultCache(tmp_path / "b")
        path_a = a.put(tiny_config(seed=1), tiny_result)
        b.put(tiny_config(seed=1), tiny_result)
        original = path_a.read_text()
        path_a.write_text(original + " ")            # same key, new bytes
        stats = a.merge_from(b)
        assert (stats.copied, stats.conflicts) == (0, 1)
        assert path_a.read_text() == original + " "  # destination kept


class TestRetiredSegments:
    """Nothing reads the retired packed-segment layout any more: a root
    that still holds segments is refused rather than re-simulated in
    silence, and the refusal names no deleted command."""

    def segment_root(self, tmp_path):
        root = tmp_path / "packed"
        (root / "packs").mkdir(parents=True)
        (root / "packs" / f"{0:032x}.pack").write_text("{}\n")
        return root

    def test_cache_refuses_a_root_holding_segments(self, tmp_path):
        with pytest.raises(ValueError, match="retired layout") as excinfo:
            ResultCache(self.segment_root(tmp_path))
        assert "unpack" not in str(excinfo.value)

    def test_merge_from_segment_source_is_refused(self, tmp_path):
        dest = ResultCache(tmp_path / "dest")
        with pytest.raises(ValueError, match="retired layout"):
            dest.merge_from(self.segment_root(tmp_path))
        assert len(dest) == 0


class TestSegmentMigration:
    """After the segment layout's retirement, :class:`CacheStats` keeps
    its ``packs``/``packed_entries`` fields for readers of its JSON; on
    every root the cache can open they read zero."""

    def test_stats_packed_fields_stay_zero(self, tmp_path, tiny_result):
        cache = ResultCache(tmp_path / "cache")
        for seed in (1, 2, 3):
            cache.put(tiny_config(seed=seed), tiny_result)
        stats = ResultCache(cache.root).stats()
        assert (stats.entries, stats.current) == (3, 3)
        assert (stats.packs, stats.packed_entries) == (0, 0)


class TestHasCurrentProbe:
    """The O(1) entry-header probe behind campaign status polling.

    The contract under test: :meth:`ResultCache.has_current` applies the
    same format/version guards as :meth:`ResultCache.get` while never
    reading — let alone deserializing — the ``result`` payload.
    """

    def test_probe_matches_get_and_leaves_counters_alone(self, tmp_path,
                                                         tiny_result):
        cache = ResultCache(tmp_path)
        config = tiny_config()
        assert not cache.has_current(config)
        cache.put(config, tiny_result)
        assert cache.has_current(config)
        assert (cache.hits, cache.misses) == (0, 0)

    def test_probe_never_deserializes_the_result(self, tmp_path, tiny_result,
                                                 monkeypatch):
        cache = ResultCache(tmp_path)
        config = tiny_config()
        cache.put(config, tiny_result)

        def boom(*_args, **_kwargs):
            raise AssertionError("has_current touched the entry payload")

        # With every parsing path booby-trapped, only a bounded header
        # comparison can still answer truthfully.
        monkeypatch.setattr(exec_cache.json, "loads", boom)
        monkeypatch.setattr(ScenarioResult, "from_dict", boom)
        assert cache.has_current(config)

    def test_probe_reads_a_bounded_head_not_the_whole_file(self, tmp_path,
                                                           tiny_result):
        cache = ResultCache(tmp_path)
        config = tiny_config()
        path = cache.put(config, tiny_result)
        text = path.read_text()
        assert len(text) > exec_cache._PROBE_HEADER_BYTES
        # Corrupt bytes past the probe window: invisible to the probe
        # (proof it never reads the payload), fatal to a full get().
        path.write_text(text[:-40] + "#" * 40)
        assert cache.has_current(config)
        assert cache.get(config) is None

    def test_probe_version_guard_not_weakened(self, tmp_path, tiny_result,
                                              monkeypatch):
        cache = ResultCache(tmp_path)
        config = tiny_config()
        cache.put(config, tiny_result)
        # An entry written by today's version must read as absent to a
        # future simulator, exactly like get() treats it as a miss.
        monkeypatch.setattr(exec_cache, "__version__", "9.9.9")
        assert not cache.has_current(config)

    def test_pre_header_entry_is_a_miss_everywhere(self, tmp_path,
                                                   tiny_result):
        cache = ResultCache(tmp_path)
        config = tiny_config()
        path = cache.put(config, tiny_result)
        payload = json.loads(path.read_text())
        legacy = {field: payload[field]
                  for field in ("version", "repro_version", "key",
                                "config", "result")}
        # Entries written before the header layout are a plain sorted-key
        # dump.  get() and has_current() must agree they are misses, or
        # campaign status would count cells that run re-simulates.
        path.write_text(json.dumps(legacy, sort_keys=True))
        assert not cache.has_current(config)
        assert cache.get(config) is None
        assert [(p.kind, p.detail) for p in cache.verify()] \
            == [("stale", "written before the entry-header layout")]
        stats = cache.stats()
        assert stats.current == 0
        assert stats.by_version == {f"{__version__} (pre-header)": 1}

    def test_probe_rejects_stale_legacy_entry(self, tmp_path, tiny_result):
        cache = ResultCache(tmp_path)
        config = tiny_config()
        path = cache.put(config, tiny_result)
        payload = json.loads(path.read_text())
        legacy = {field: payload[field]
                  for field in ("version", "repro_version", "key",
                                "config", "result")}
        legacy["repro_version"] = "0.0.1"
        path.write_text(json.dumps(legacy, sort_keys=True))
        assert not cache.has_current(config)


class TestGcEdgeCases:
    """Byte-budget tie-breaking, combined criteria, and dry-run parity."""

    def warm(self, tmp_path, tiny_result, n=3) -> ResultCache:
        cache = ResultCache(tmp_path / "cache")
        for seed in range(1, n + 1):
            cache.put(tiny_config(seed=seed), tiny_result)
        return cache

    def test_byte_budget_with_tied_mtimes_is_deterministic(self, tmp_path,
                                                           tiny_result):
        cache = self.warm(tmp_path, tiny_result)
        paths = sorted(cache._entry_files())
        stamp = time.time() - 100
        for path in paths:
            os.utime(path, (stamp, stamp))
        sizes = [path.stat().st_size for path in paths]
        # Budget keeps exactly two entries.  With every mtime tied, the
        # (mtime, size, path) eviction sort falls through to the path,
        # so the doomed set is the same on any filesystem.
        budget = sizes[1] + sizes[2]
        assert cache.gc(max_total_bytes=budget, dry_run=True) == [paths[0]]
        assert cache.gc(max_total_bytes=budget) == [paths[0]]
        assert sorted(cache._entry_files()) == paths[1:]

    def test_combined_age_and_byte_budget(self, tmp_path, tiny_result):
        cache = self.warm(tmp_path, tiny_result, n=4)
        paths = sorted(cache._entry_files())
        now = time.time()
        os.utime(paths[0], (now - 10 * 86400,) * 2)   # age-expired
        os.utime(paths[1], (now - 300,) * 2)
        os.utime(paths[2], (now - 200,) * 2)
        os.utime(paths[3], (now - 100,) * 2)
        budget = paths[2].stat().st_size + paths[3].stat().st_size
        doomed = cache.gc(max_age_seconds=86400.0, max_total_bytes=budget)
        # The age pass removed paths[0]; the byte pass then evicted the
        # oldest *survivor* — an age-expired entry is never double
        # counted against the budget.
        assert doomed == [paths[0], paths[1]]
        assert sorted(cache._entry_files()) == paths[2:]

    def test_dry_run_predicts_the_exact_doomed_set(self, tmp_path,
                                                   tiny_result):
        cache = self.warm(tmp_path, tiny_result)
        paths = sorted(cache._entry_files())
        os.utime(paths[1], (time.time() - 5 * 86400,) * 2)
        budget = paths[0].stat().st_size
        dry = cache.gc(max_age_seconds=86400.0, max_total_bytes=budget,
                       dry_run=True)
        assert len(cache) == 3                       # nothing deleted
        wet = cache.gc(max_age_seconds=86400.0, max_total_bytes=budget)
        assert wet == dry
        assert len(cache) == 1


class TestArtifactStamps:
    """Atomic sweep-artifact saves + the provenance stamp contract."""

    def test_save_is_atomic_and_leaves_no_temp(self, smoke_serial, tmp_path):
        path = tmp_path / "sweep.json"
        smoke_serial.save(path)
        assert list(tmp_path.glob(".*.tmp")) == []
        assert SweepResult.load(path).rows() == smoke_serial.rows()

    def test_interrupted_save_never_truncates_the_artifact(
            self, smoke_serial, tmp_path, monkeypatch):
        # The bug this PR fixes: save() used to truncate-then-write in
        # place, so a crash mid-write destroyed the previous artifact.
        # A crash at the rename must leave the old bytes untouched.
        path = tmp_path / "sweep.json"
        smoke_serial.save(path)
        original = path.read_bytes()

        def boom(_src, _dst):
            raise OSError("simulated crash at rename")

        monkeypatch.setattr(exec_cache.os, "replace", boom)
        with pytest.raises(OSError, match="simulated crash"):
            smoke_serial.save(path)
        assert path.read_bytes() == original

    def test_sweep_artifact_is_stamped(self, smoke_serial):
        payload = smoke_serial.to_dict()
        assert payload["artifact_format"] == ARTIFACT_FORMAT_VERSION
        assert payload["repro_version"] == __version__

    def test_stale_stamp_refused_then_allowed(self, smoke_serial, tmp_path):
        path = tmp_path / "sweep.json"
        smoke_serial.save(path)
        payload = json.loads(path.read_text())
        payload["repro_version"] = "0.0.1"
        path.write_text(json.dumps(payload))
        with pytest.raises(StaleArtifactError, match="allow-stale"):
            SweepResult.load(path)
        with pytest.warns(UserWarning, match="loaded anyway"):
            restored = SweepResult.load(path, allow_stale=True)
        assert restored.rows() == smoke_serial.rows()

    def test_unstamped_artifact_warns_and_loads(self, smoke_serial,
                                                tmp_path):
        path = tmp_path / "sweep.json"
        smoke_serial.save(path)
        payload = json.loads(path.read_text())
        payload.pop("artifact_format")
        payload.pop("repro_version")
        path.write_text(json.dumps(payload))
        with pytest.warns(UserWarning, match="no version stamp"):
            restored = SweepResult.load(path)
        assert restored.rows() == smoke_serial.rows()
