"""Tests for the ``repro-cache`` / ``repro-sweep`` command-line tools.

The CLIs are exercised in-process through their ``main(argv)`` entry
points (the same callables the ``pyproject.toml`` console scripts bind),
on a tiny 4-cell grid so the whole file stays fast.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import __main__ as cli_main
from repro.cli import cache as cache_cli
from repro.cli import sweep as sweep_cli
from repro.exec import ResultCache, config_key
from repro.experiments.sweep import SweepResult, SweepSettings, run_speed_sweep
from repro.scenario.config import ScenarioConfig
from repro.scenario.runner import run_scenario


def tiny_settings() -> SweepSettings:
    return SweepSettings(protocols=("AODV", "MTS"), speeds=(5.0,),
                         replications=2,
                         config_overrides=dict(n_nodes=10,
                                               field_size=(500.0, 500.0),
                                               sim_time=4.0))


@pytest.fixture(scope="module")
def settings_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("settings") / "settings.json"
    path.write_text(tiny_settings().to_json(), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def tiny_serial() -> SweepResult:
    return run_speed_sweep(tiny_settings())


class TestReproSweep:
    def test_sharded_run_merge_render_pipeline(self, tmp_path, capsys,
                                               settings_file, tiny_serial):
        """run --shard i/2 → repro-cache merge → merge → render."""
        for index in range(2):
            assert sweep_cli.main([
                "run", "--settings-json", str(settings_file),
                "--shard", f"{index}/2", "--quiet",
                "--cache", str(tmp_path / f"cache-{index}"),
                "--out", str(tmp_path / f"shard-{index}.json")]) == 0
        assert cache_cli.main([
            "merge", str(tmp_path / "cache"),
            str(tmp_path / "cache-0"), str(tmp_path / "cache-1")]) == 0
        assert sweep_cli.main([
            "merge", "--out", str(tmp_path / "sweep.json"),
            str(tmp_path / "shard-0.json"), str(tmp_path / "shard-1.json"),
        ]) == 0

        # Bit-for-bit identical to the single-process serial sweep.
        merged = (tmp_path / "sweep.json").read_text(encoding="utf-8")
        assert merged == tiny_serial.to_json()

        # The merged cache holds every cell of the grid.
        assert len(ResultCache(tmp_path / "cache")) \
            == len(tiny_settings().grid())

        capsys.readouterr()
        assert sweep_cli.main(["render", str(tmp_path / "sweep.json"),
                               "--figure", "fig8"]) == 0
        out = capsys.readouterr().out
        assert "FIG8" in out and "FIG5" not in out

    def test_render_all_figures_performs_zero_simulations(
            self, tmp_path, capsys, tiny_serial, monkeypatch):
        artifact = tmp_path / "sweep.json"
        tiny_serial.save(artifact)

        def boom(*args, **kwargs):  # pragma: no cover - must not be hit
            raise AssertionError("render must not simulate")

        monkeypatch.setattr("repro.exec.executor.simulate", boom)
        monkeypatch.setattr("repro.scenario.builder.ScenarioBuilder.build",
                            boom)
        assert sweep_cli.main(["render", str(artifact)]) == 0
        out = capsys.readouterr().out
        for figure_id in ("FIG5", "FIG6", "FIG7", "FIG8", "FIG9", "FIG10",
                          "FIG11"):
            assert figure_id in out

    def test_render_table1_without_dsr_run_fails(self, tmp_path, capsys,
                                                 tiny_serial):
        artifact = tmp_path / "sweep.json"
        tiny_serial.save(artifact)  # AODV + MTS only
        assert sweep_cli.main(["render", str(artifact), "--table1"]) == 1

    def test_plan_lists_every_shard(self, capsys, settings_file):
        assert sweep_cli.main(["plan", "--settings-json", str(settings_file),
                               "--shards", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("shard ") == 3
        assert "cell(s)" in out

    def test_unsharded_run_writes_a_renderable_sweep_result(
            self, tmp_path, capsys, settings_file, tiny_serial):
        out_path = tmp_path / "full.json"
        assert sweep_cli.main(["run", "--settings-json", str(settings_file),
                               "--quiet", "--out", str(out_path)]) == 0
        assert out_path.read_text(encoding="utf-8") == tiny_serial.to_json()

    def test_scheduler_run_with_injected_kill_matches_serial(
            self, tmp_path, capsys, settings_file, tiny_serial):
        """run --scheduler 2 --inject-fault 0:1 → byte-identical artifact."""
        out_path = tmp_path / "scheduled.json"
        assert sweep_cli.main([
            "run", "--settings-json", str(settings_file),
            "--scheduler", "2", "--max-retries", "2",
            "--inject-fault", "0:1", "--quiet",
            "--cache", str(tmp_path / "sched-cache"),
            "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        # Exactly one injected kill must actually have fired — "0 worker
        # failure(s)" would mean the fault path was never exercised.
        assert "1 worker failure(s)" in out
        assert out_path.read_text(encoding="utf-8") == tiny_serial.to_json()

    def test_list_profiles_shows_profiles_and_registries(self, capsys):
        assert sweep_cli.main(["run", "--list-profiles"]) == 0
        out = capsys.readouterr().out
        for profile in ("smoke", "bench", "paper", "shadowing"):
            assert profile in out
        # The stack-component listing is registry-backed.
        for component in ("log_distance_shadowing", "two_ray", "tcp_reno",
                          "cbr", "random_waypoint", "AODV"):
            assert component in out

    def test_propagation_override_reaches_the_cell_configs(self, capsys,
                                                           settings_file):
        """--propagation changes every cell's config (and hence cache
        key) — verified directly on the override helper and, end to end,
        via the cheap `plan` path whose hash-based shard assignment
        moves with the keys."""
        base = tiny_settings()
        overridden = sweep_cli.apply_propagation_overrides(
            base, "log_distance_shadowing", ["sigma_db=6"])
        assert overridden.config_overrides["propagation_model"] \
            == "log_distance_shadowing"
        assert overridden.config_overrides["propagation_params"] \
            == {"sigma_db": 6}
        for before, after in zip(base.cell_configs(),
                                 overridden.cell_configs()):
            assert after.propagation_model == "log_distance_shadowing"
            assert config_key(after) != config_key(before)
        # Switching models drops the previous model's baked-in params
        # instead of feeding them to the new model's schema.
        switched = sweep_cli.apply_propagation_overrides(
            overridden, "two_ray", None)
        assert "propagation_params" not in switched.config_overrides

        argv = ["plan", "--settings-json", str(settings_file),
                "--shards", "2"]
        assert sweep_cli.main(argv) == 0
        baseline = capsys.readouterr().out
        assert sweep_cli.main(argv + ["--propagation", "two_ray"]) == 0
        replanned = capsys.readouterr().out
        assert baseline.count("cell(s)") == replanned.count("cell(s)")
        # Deterministic for this pinned grid: the changed keys reshuffle
        # the hash partition (if a future key change makes the two plans
        # coincide, pick a different override here).
        assert baseline != replanned

    def test_bad_propagation_param_fails_before_running(self, capsys,
                                                        settings_file):
        assert sweep_cli.main([
            "run", "--settings-json", str(settings_file), "--quiet",
            "--propagation", "log_distance_shadowing",
            "--propagation-param", "sgima_db=4"]) == 2
        assert "sigma_db" in capsys.readouterr().err

    def test_inject_hang_requires_timeout_and_scheduler(self, capsys,
                                                        settings_file):
        assert sweep_cli.main(["run", "--settings-json", str(settings_file),
                               "--scheduler", "2",
                               "--inject-hang", "0:1"]) == 2
        assert "--worker-timeout" in capsys.readouterr().err
        assert sweep_cli.main(["run", "--settings-json", str(settings_file),
                               "--inject-hang", "0:1",
                               "--worker-timeout", "5"]) == 2
        assert "require --scheduler" in capsys.readouterr().err

    def test_scheduler_rejects_bad_flag_combinations(self, capsys,
                                                     settings_file):
        assert sweep_cli.main(["run", "--settings-json", str(settings_file),
                               "--scheduler", "2", "--shard", "0/2"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err
        assert sweep_cli.main(["run", "--settings-json", str(settings_file),
                               "--scheduler", "2",
                               "--inject-fault", "bogus"]) == 2
        assert "--inject-fault" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            sweep_cli.main(["run", "--settings-json", str(settings_file),
                            "--scheduler", "0"])
        assert excinfo.value.code == 2
        capsys.readouterr()
        # Scheduler-only flags without --scheduler are an error, not a
        # silently uninjected run.
        assert sweep_cli.main(["run", "--settings-json", str(settings_file),
                               "--inject-fault", "0:1"]) == 2
        assert "require --scheduler" in capsys.readouterr().err

    def test_scheduler_on_a_segment_root_is_exit_2(
            self, tmp_path, capsys, settings_file):
        cache = tmp_path / "cache"
        (cache / "packs").mkdir(parents=True)
        (cache / "packs" / "a.pack").write_text("{}\n")
        assert sweep_cli.main(["run", "--settings-json", str(settings_file),
                               "--scheduler", "2", "--cache", str(cache),
                               "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "retired layout" in err
        assert "unpack" not in err


class TestReproCache:
    @pytest.fixture()
    def warm_root(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        config = ScenarioConfig.tiny(sim_time=2.0)
        run_scenario(config, cache=cache)
        return cache.root, config

    def test_stats_json_output(self, capsys, warm_root):
        root, _config = warm_root
        assert cache_cli.main(["stats", str(root), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 1
        assert payload["temp_files"] == 0

    def test_verify_clean_and_corrupt(self, capsys, warm_root):
        root, config = warm_root
        assert cache_cli.main(["verify", str(root)]) == 0
        entry = root / config_key(config)[:2] / f"{config_key(config)}.json"
        entry.write_text("garbage")
        assert cache_cli.main(["verify", str(root)]) == 1

    def test_prune_reports_orphan_temps(self, capsys, warm_root):
        root, _config = warm_root
        (root / "ab").mkdir(exist_ok=True)
        (root / "ab" / f".{'ab' + 62 * '0'}.4242.tmp").write_text("{")
        assert cache_cli.main(["prune", str(root)]) == 0
        out = capsys.readouterr().out
        assert "1 orphaned temp file(s)" in out
        assert ResultCache(root).temp_files() == []

    def test_gc_requires_a_bound(self, capsys, warm_root):
        root, _config = warm_root
        assert cache_cli.main(["gc", str(root)]) == 2
        assert cache_cli.main(["gc", str(root), "--max-size-mb", "1024"]) == 0
        assert len(ResultCache(root)) == 1
        assert cache_cli.main(["gc", str(root), "--max-size-mb", "0"]) == 0
        assert len(ResultCache(root)) == 0

    def test_merge_missing_source_is_a_hard_error(self, tmp_path, capsys,
                                                  warm_root):
        root, _config = warm_root
        assert cache_cli.main(["merge", str(root),
                               str(tmp_path / "no-such-cache")]) == 2
        assert "not an existing" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["stats"], ["verify"], ["prune"], ["gc", "--max-size-mb", "1"]])
    def test_mistyped_root_is_a_hard_error(self, tmp_path, capsys, command):
        missing = tmp_path / "cahce"
        assert cache_cli.main([command[0], str(missing), *command[1:]]) == 2
        assert str(missing) in capsys.readouterr().err
        assert not missing.exists()

    @pytest.mark.parametrize("command", [
        ["stats"], ["verify"], ["prune"], ["gc", "--max-size-mb", "1"]])
    def test_segment_root_is_a_hard_error(self, capsys, warm_root, command):
        root, _config = warm_root
        (root / "packs").mkdir()
        (root / "packs" / f"{0:032x}.pack").write_bytes(b"{}\n")
        assert cache_cli.main([command[0], str(root), *command[1:]]) == 2
        assert "retired layout" in capsys.readouterr().err
        assert len(list((root / "packs").iterdir())) == 1

    def test_merge_conflict_exits_nonzero(self, tmp_path, capsys, warm_root):
        root, config = warm_root
        other = ResultCache(tmp_path / "other")
        entry = root / config_key(config)[:2] / f"{config_key(config)}.json"
        other_entry = other.root / entry.parent.name / entry.name
        other_entry.parent.mkdir(parents=True)
        other_entry.write_text(entry.read_text() + " ")
        assert cache_cli.main(["merge", str(root), str(other.root)]) == 1
        assert "1 conflict(s)" in capsys.readouterr().out


class TestDispatcher:
    def test_module_dispatch(self, capsys, tmp_path):
        assert cli_main.main(["cache", "stats", str(tmp_path)]) == 0
        assert "entries" in capsys.readouterr().out

    def test_unknown_tool_is_a_usage_error(self, capsys):
        assert cli_main.main(["frobnicate"]) == 2
        assert cli_main.main([]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_retired_bench_tool_prints_usage(self):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-m", "repro.cli", "bench"],
                              env={"PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage: python -m repro.cli {cache|")
        assert "bench" not in proc.stderr
