"""Tests for sharded sweeps (plan / run / merge).

The core promise (the ISSUE 2 acceptance criterion): a K-shard sweep run
against separate cache roots, merged — cache directories via
``ResultCache.merge_from`` and shard artifacts via
``merge_shard_results`` — is **bit-for-bit identical** to the serial
single-process sweep, and the merged cache serves a full replay without
a single simulation.
"""

from __future__ import annotations

import pytest

from repro.exec import (
    ResultCache,
    SerialExecutor,
    ShardSpec,
    SweepShard,
    assemble_sweep_result,
    merge_shard_results,
    plan_shards,
    run_sweep_shard,
    shard_of_config,
)
from repro.experiments.sweep import SweepResult, SweepSettings, run_speed_sweep


def tiny_settings(**overrides) -> SweepSettings:
    """A 4-cell grid that splits non-trivially across 2 shards."""
    params = dict(protocols=("AODV", "MTS"), speeds=(5.0,), replications=2,
                  config_overrides=dict(n_nodes=10,
                                        field_size=(500.0, 500.0),
                                        sim_time=4.0))
    params.update(overrides)
    return SweepSettings(**params)


@pytest.fixture(scope="module")
def smoke_serial() -> SweepResult:
    """The smoke-grid sweep on the serial executor (the reference)."""
    return run_speed_sweep(SweepSettings.smoke())


@pytest.fixture(scope="module")
def tiny_serial() -> SweepResult:
    return run_speed_sweep(tiny_settings())


class TestShardSpec:
    def test_parse(self):
        assert ShardSpec.parse("0/1") == ShardSpec(0, 1)
        assert ShardSpec.parse("2/5") == ShardSpec(2, 5)
        assert str(ShardSpec(1, 4)) == "1/4"

    def test_rejects_bad_specs(self):
        for text in ("", "1", "a/b", "1/2/3", "2/2", "-1/2", "0/0"):
            with pytest.raises(ValueError):
                ShardSpec.parse(text)


class TestPlan:
    def test_plan_partitions_the_grid_exactly(self):
        settings = tiny_settings()
        for count in (1, 2, 3, 7):
            plans = plan_shards(settings, count)
            assert len(plans) == count
            flat = sorted(index for plan in plans for index in plan)
            assert flat == list(range(len(settings.grid())))

    def test_assignment_is_a_function_of_the_cell_config(self):
        # The shard of a cell depends only on its config hash — never on
        # grid position — so reordering the grid axes moves no cell.
        settings = tiny_settings()
        reordered = tiny_settings(protocols=("MTS", "AODV"))
        by_config = {
            config.to_json(): shard_of_config(config, 3)
            for config in settings.cell_configs()
        }
        for config in reordered.cell_configs():
            assert shard_of_config(config, 3) == by_config[config.to_json()]

    def test_plan_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            plan_shards(tiny_settings(), 0)


class TestShardedSweep:
    def run_sharded(self, settings, count, tmp_path):
        shards, caches = [], []
        for index in range(count):
            cache = ResultCache(tmp_path / f"cache-{index}")
            caches.append(cache)
            shards.append(run_sweep_shard(
                settings, shard=ShardSpec(index, count),
                executor=SerialExecutor(cache=cache)))
        return shards, caches

    def test_two_shard_smoke_sweep_merges_bit_for_bit(self, tmp_path,
                                                      smoke_serial):
        """The ISSUE acceptance criterion, on SweepSettings.smoke()."""
        settings = SweepSettings.smoke()
        shards, caches = self.run_sharded(settings, 2, tmp_path)
        assert sum(len(piece.results) for piece in shards) \
            == len(settings.grid())
        merged = merge_shard_results(shards)
        assert merged.to_json() == smoke_serial.to_json()
        assert merged.runs == smoke_serial.runs

        # Merge the per-shard cache roots; the combined cache then serves
        # a full serial replay with zero simulations and all hits — the
        # counters survive the merge.
        combined = ResultCache(tmp_path / "combined")
        for cache in caches:
            combined.merge_from(cache)
        assert len(combined) == len(settings.grid())
        replay = SerialExecutor(cache=combined)
        replayed = run_speed_sweep(settings, executor=replay)
        assert replay.simulations_run == 0
        assert combined.hits == len(settings.grid())
        assert combined.misses == 0
        assert replayed.to_json() == smoke_serial.to_json()

    def test_three_shard_tiny_sweep_merges_bit_for_bit(self, tmp_path,
                                                       tiny_serial):
        settings = tiny_settings()
        shards, _ = self.run_sharded(settings, 3, tmp_path)
        merged = merge_shard_results(shards)
        assert merged.to_json() == tiny_serial.to_json()

    def test_shard_artifact_round_trips_through_json(self, tmp_path,
                                                     tiny_serial):
        settings = tiny_settings()
        shards, _ = self.run_sharded(settings, 2, tmp_path)
        reloaded = []
        for index, piece in enumerate(shards):
            path = tmp_path / f"shard-{index}.json"
            piece.save(path)
            restored = SweepShard.load(path)
            assert restored.settings == piece.settings
            assert restored.shard == piece.shard
            assert restored.results == piece.results
            reloaded.append(restored)
        assert merge_shard_results(reloaded).to_json() \
            == tiny_serial.to_json()

    def test_single_shard_run_equals_full_sweep(self, tiny_serial):
        piece = run_sweep_shard(tiny_settings(), shard="0/1")
        assert merge_shard_results([piece]).to_json() == tiny_serial.to_json()


class TestMergeValidation:
    @pytest.fixture(scope="class")
    def shards(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("shards")
        settings = tiny_settings()
        return [run_sweep_shard(settings, shard=ShardSpec(index, 2),
                                cache=ResultCache(tmp_path / str(index)))
                for index in range(2)]

    def test_empty_merge_is_rejected(self):
        with pytest.raises(ValueError, match="no shards"):
            merge_shard_results([])

    def test_missing_and_duplicate_shards_are_rejected(self, shards):
        with pytest.raises(ValueError, match="expected 2 shards, got 1"):
            merge_shard_results(shards[:1])
        with pytest.raises(ValueError, match="duplicate shard"):
            merge_shard_results([shards[0], shards[0]])

    def test_mismatched_settings_are_rejected(self, shards):
        alien = run_sweep_shard(tiny_settings(base_seed=99),
                                shard=ShardSpec(1, 2))
        with pytest.raises(ValueError, match="different sweep settings"):
            merge_shard_results([shards[0], alien])

    def test_tampered_coverage_is_rejected(self, shards):
        # A shard claiming cells the planner gave to another shard.
        wrong = SweepShard(settings=shards[0].settings,
                           shard=shards[1].shard,
                           results=dict(shards[0].results))
        with pytest.raises(ValueError, match="covers grid cells"):
            merge_shard_results([shards[0], wrong])

    def test_assemble_requires_exact_coverage(self, shards):
        settings = shards[0].settings
        complete = {}
        for piece in shards:
            complete.update(piece.results)
        sweep = assemble_sweep_result(settings, complete)
        assert sweep.settings == settings
        with pytest.raises(ValueError, match="grid cells"):
            assemble_sweep_result(settings, dict(list(complete.items())[:1]))
