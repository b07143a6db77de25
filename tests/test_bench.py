"""Tests for the ``repro.bench`` perf-tracking subsystem and its CLI."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    BENCH_PROFILES,
    BenchCase,
    BenchReport,
    bench_profile,
    compare_reports,
    run_case,
    run_profile,
)
from repro.bench.runner import BenchCaseResult
from repro.cli import bench as bench_cli
from repro.scenario.config import ScenarioConfig


def synthetic_report(profile: str, events_per_sec: float,
                     events: int = 1000,
                     case_names=("alpha", "beta"),
                     host=None) -> BenchReport:
    """A hand-built artifact with exact, known throughput numbers."""
    cases = [
        BenchCaseResult(
            name=name, protocol="MTS", n_nodes=10, sim_time=5.0,
            wall_time_s=events / events_per_sec, events=events,
            events_per_sec=events_per_sec, peak_heap_size=100,
            heap_compactions=0, pending_events=0, cancelled_pending=0,
            transmissions=50, grid={"grid_rebuilds": 1.0},
            horizon_batches=400, mean_batch_size=2.5)
        for name in case_names
    ]
    report = BenchReport(profile=profile, description="synthetic",
                         cases=cases, created_unix=0.0)
    if host is not None:
        report.meta = dict(report.meta, host=host)
    return report


def test_all_profiles_are_well_formed():
    assert set(BENCH_PROFILES) == {"tiny", "smoke", "dense", "sparse",
                                   "scale", "shadowing", "high_mobility"}
    for name in BENCH_PROFILES:
        profile = bench_profile(name)
        assert profile.name == name
        assert profile.cases, f"profile {name} has no cases"
        case_names = [case.name for case in profile.cases]
        assert len(case_names) == len(set(case_names))
        for case in profile.cases:
            assert isinstance(case.config, ScenarioConfig)
            # Benchmark workloads are pinned so numbers are comparable.
            assert case.config.seed == 7


def test_unknown_profile_rejected_with_known_names():
    with pytest.raises(ValueError, match="tiny"):
        bench_profile("warp9")


def test_dense_and_sparse_match_the_sweep_profiles():
    from repro.experiments import SweepSettings
    dense = bench_profile("dense")
    assert {case.config.n_nodes for case in dense.cases} == {100}
    assert dense.cases[0].config.field_size == \
        SweepSettings.dense().cell_config("MTS", 10.0, 0).field_size
    sparse = bench_profile("sparse")
    assert sparse.cases[0].config.field_size == (2000.0, 2000.0)


def test_run_case_measures_kernel_counters():
    case = BenchCase(name="probe",
                     config=ScenarioConfig.tiny(protocol="AODV", seed=7))
    result = run_case(case)
    assert result.protocol == "AODV"
    assert result.n_nodes == 10
    assert result.events > 0
    assert result.wall_time_s > 0
    assert result.events_per_sec > 0
    assert result.peak_heap_size > 0
    assert result.heap_compactions >= 0
    assert result.transmissions > 0
    assert result.grid["grid_rebuilds"] >= 1
    assert result.grid["cells_used"] >= 1
    assert result.grid["max_candidate_set"] >= 1
    # The measurement dict must round-trip through JSON unchanged.
    assert json.loads(json.dumps(result.to_dict())) == result.to_dict()


def test_run_profile_report_roundtrip(tmp_path):
    report = run_profile(bench_profile("tiny"))
    assert report.profile == "tiny"
    assert len(report.cases) == 2
    totals = report.totals()
    assert totals["events"] == sum(case.events for case in report.cases)
    assert totals["events_per_sec"] > 0
    path = report.save(tmp_path)
    assert path.name == "BENCH_tiny.json"
    reloaded = BenchReport.load(path)
    assert reloaded.to_dict() == report.to_dict()


def test_bench_workload_is_deterministic():
    """Event counts (not timings) must be identical across runs."""
    case = bench_profile("tiny").cases[0]
    first = run_case(case)
    second = run_case(case)
    assert first.events == second.events
    assert first.transmissions == second.transmissions
    assert first.peak_heap_size == second.peak_heap_size
    assert first.grid["grid_rebuilds"] == second.grid["grid_rebuilds"]


class TestCompare:
    def test_deltas_are_computed_per_case_and_total(self):
        report = compare_reports(synthetic_report("smoke", 1000.0),
                                 synthetic_report("smoke", 1200.0))
        assert [delta.name for delta in report.deltas] == ["alpha", "beta"]
        for delta in report.deltas:
            assert delta.delta_pct == pytest.approx(20.0)
            assert delta.events_match
        assert report.total_delta_pct == pytest.approx(20.0)
        assert not report.workload_changed
        assert not report.regressed(10.0)

    def test_regression_detection_honours_threshold(self):
        report = compare_reports(synthetic_report("smoke", 1000.0),
                                 synthetic_report("smoke", 850.0))
        assert report.total_delta_pct == pytest.approx(-15.0)
        assert report.regressed(10.0)
        assert not report.regressed(20.0)

    def test_changed_event_counts_flag_the_workload(self):
        report = compare_reports(
            synthetic_report("smoke", 1000.0, events=1000),
            synthetic_report("smoke", 1000.0, events=999))
        assert report.workload_changed

    def test_partial_case_overlap_flags_workload_and_uses_matched_total(
            self):
        # 'beta' exists only in the baseline, 'gamma' only in the
        # candidate: the total must be computed over 'alpha' alone and
        # the comparison flagged as a workload change.
        report = compare_reports(
            synthetic_report("smoke", 1000.0, case_names=("alpha", "beta")),
            synthetic_report("smoke", 1000.0, case_names=("alpha", "gamma")))
        assert [delta.name for delta in report.deltas] == ["alpha"]
        assert report.only_in_base == ["beta"]
        assert report.only_in_new == ["gamma"]
        assert report.total_delta_pct == pytest.approx(0.0)
        assert report.workload_changed

    def test_disjoint_case_sets_are_rejected(self):
        with pytest.raises(ValueError, match="share no benchmark case"):
            compare_reports(synthetic_report("smoke", 1000.0,
                                             case_names=("a",)),
                            synthetic_report("smoke", 1000.0,
                                             case_names=("b",)))

    def test_cli_compare_ok_and_regression_exit_codes(self, tmp_path,
                                                      capsys):
        base = tmp_path / "base.json"
        base.write_text(synthetic_report("smoke", 1000.0).to_json())
        faster = tmp_path / "faster.json"
        faster.write_text(synthetic_report("smoke", 1100.0).to_json())
        slower = tmp_path / "slower.json"
        slower.write_text(synthetic_report("smoke", 700.0).to_json())

        assert bench_cli.main(["compare", str(base), str(faster)]) == 0
        out = capsys.readouterr().out
        assert "+10.00 %" in out and "verdict: ok" in out

        assert bench_cli.main(["compare", str(base), str(slower),
                               "--threshold", "10"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

        # A generous threshold tolerates the same slowdown.
        assert bench_cli.main(["compare", str(base), str(slower),
                               "--threshold", "50"]) == 0

    def test_cli_compare_flags_workload_change(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        base.write_text(synthetic_report("smoke", 1000.0,
                                         events=1000).to_json())
        changed = tmp_path / "changed.json"
        changed.write_text(synthetic_report("smoke", 1000.0,
                                            events=2000).to_json())
        assert bench_cli.main(["compare", str(base), str(changed)]) == 1
        assert "WORKLOAD CHANGED" in capsys.readouterr().out

    def test_cli_compare_missing_artifact_is_a_usage_error(self, tmp_path,
                                                           capsys):
        assert bench_cli.main(["compare", str(tmp_path / "nope.json"),
                               str(tmp_path / "nada.json")]) == 2
        assert "error:" in capsys.readouterr().err


def test_cli_list(capsys):
    assert bench_cli.main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in BENCH_PROFILES:
        assert name in out


def test_cli_runs_profile_and_writes_artifact(tmp_path, capsys):
    assert bench_cli.main(["--profile", "tiny",
                           "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "ev/s" in out and "wrote" in out
    payload = json.loads((tmp_path / "BENCH_tiny.json").read_text())
    assert payload["profile"] == "tiny"
    assert payload["totals"]["events"] > 0
    assert {case["name"] for case in payload["cases"]} == \
        {"mts_tiny", "aodv_tiny"}


# ---------------------------------------------------------------------- #
# artifact provenance (meta) + horizon-batch counters
# ---------------------------------------------------------------------- #
def test_artifacts_carry_environment_meta():
    from repro.bench.runner import environment_meta
    from repro.version import __version__

    meta = environment_meta()
    assert set(meta) == {"host", "platform", "python", "numpy",
                         "repro_version"}
    assert meta["repro_version"] == __version__
    report = synthetic_report("smoke", 1000.0)
    payload = json.loads(report.to_json())
    assert set(payload["meta"]) == set(meta)
    assert BenchReport.from_json(report.to_json()).meta == report.meta


def test_run_case_measures_horizon_batch_counters():
    case = bench_profile("tiny").cases[0]
    result = run_case(case)
    assert result.horizon_batches > 0
    assert result.mean_batch_size >= 1.0
    # mean * batches == events, by definition of the counters.
    assert result.mean_batch_size * result.horizon_batches == \
        pytest.approx(result.events)
    payload = result.to_dict()
    for key in ("horizon_batches", "mean_batch_size"):
        assert key in payload


def test_run_case_measures_fire_group_counters():
    """The mean_batch_size ≈ 1.0 investigation outcome: distance-dependent
    delays give nearly every reception its own timestamp, so the *group*
    counters are what show the batched scheduling path engaging."""
    case = bench_profile("tiny").cases[0]
    result = run_case(case)
    assert result.fire_groups > 0
    # Only multi-member pushes count as groups, so the mean is >= 2.
    assert result.mean_group_size >= 2.0
    assert result.fire_group_members >= 2 * result.fire_groups
    assert result.fire_group_requeued >= 0
    payload = result.to_dict()
    for key in ("fire_groups", "fire_group_members", "fire_group_requeued",
                "mean_group_size"):
        assert key in payload
        payload.pop(key)
    # Pre-PR-10 artifacts lack the group counters: defaults apply.
    vintage = BenchCaseResult.from_dict(payload)
    assert vintage.fire_groups == 0
    assert vintage.mean_group_size == 0.0


def test_case_result_from_dict_is_tolerant():
    payload = synthetic_report("smoke", 1000.0).cases[0].to_dict()
    # Unknown keys from a newer writer must be dropped, not crash.
    payload["from_the_future"] = 42
    restored = BenchCaseResult.from_dict(payload)
    assert restored.name == "alpha"
    # Pre-batching artifacts lack the new counters: defaults apply.
    for key in ("horizon_batches", "mean_batch_size", "from_the_future"):
        payload.pop(key, None)
    vintage = BenchCaseResult.from_dict(payload)
    assert vintage.horizon_batches == 0
    assert vintage.mean_batch_size == 0.0


def test_report_from_dict_tolerates_missing_meta():
    payload = json.loads(synthetic_report("smoke", 1000.0).to_json())
    del payload["meta"]
    vintage = BenchReport.from_dict(payload)
    # A pre-meta artifact must NOT inherit the reading host's stamp.
    assert vintage.meta == {}


class TestCompareProvenance:
    def test_cross_host_comparison_warns_but_does_not_fail(self, capsys):
        report = compare_reports(
            synthetic_report("smoke", 1000.0, host="laptop"),
            synthetic_report("smoke", 1050.0, host="ci-runner"))
        assert report.cross_host
        text = report.format(threshold_pct=10.0)
        assert "cross-host" in text
        assert "verdict: ok" in text
        assert not report.workload_changed
        assert not report.regressed(10.0)

    def test_same_host_comparison_has_no_warning(self):
        report = compare_reports(
            synthetic_report("smoke", 1000.0, host="box"),
            synthetic_report("smoke", 1050.0, host="box"))
        assert not report.cross_host
        assert "cross-host" not in report.format(threshold_pct=10.0)

    def test_missing_host_stamp_counts_as_same_host(self):
        base = synthetic_report("smoke", 1000.0)
        base.meta = {}
        report = compare_reports(base, synthetic_report("smoke", 1000.0,
                                                        host="box"))
        assert not report.cross_host


class TestSpeedupGate:
    def test_total_speedup_and_floor(self):
        report = compare_reports(synthetic_report("smoke", 1000.0),
                                 synthetic_report("smoke", 1400.0))
        assert report.total_speedup == pytest.approx(1.4)
        assert report.meets_speedup(1.3)
        assert not report.meets_speedup(1.5)

    def test_cli_min_speedup_exit_codes(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        base.write_text(synthetic_report("smoke", 1000.0).to_json())
        faster = tmp_path / "faster.json"
        faster.write_text(synthetic_report("smoke", 1400.0).to_json())

        assert bench_cli.main(["compare", str(base), str(faster),
                               "--min-speedup", "1.3"]) == 0
        assert "speedup 1.400x" in capsys.readouterr().out
        assert bench_cli.main(["compare", str(base), str(faster),
                               "--min-speedup", "1.5"]) == 1
        assert "TOO SLOW" in capsys.readouterr().out


class TestCompareAgainst:
    def test_cli_gates_fresh_run_against_reference(self, tmp_path, capsys):
        ref_dir = tmp_path / "ref"
        assert bench_cli.main(["--profile", "tiny",
                               "--out-dir", str(ref_dir)]) == 0
        capsys.readouterr()
        # Same kernel, same workload: the gate must pass comfortably
        # with a generous threshold.
        assert bench_cli.main(["--profile", "tiny",
                               "--out-dir", str(tmp_path / "new"),
                               "--compare-against",
                               str(ref_dir / "BENCH_tiny.json"),
                               "--threshold", "75"]) == 0
        out = capsys.readouterr().out
        assert "verdict: ok" in out
        assert (tmp_path / "new" / "BENCH_tiny.json").exists()

    def test_cli_compare_against_requires_single_profile(self, tmp_path,
                                                         capsys):
        assert bench_cli.main(["--profile", "tiny", "--profile", "smoke",
                               "--compare-against", "ref.json"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_cli_compare_against_missing_reference(self, tmp_path, capsys):
        assert bench_cli.main(["--profile", "tiny",
                               "--out-dir", str(tmp_path),
                               "--compare-against",
                               str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err
