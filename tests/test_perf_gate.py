"""Verdicts of ``tools/perf_gate.py`` on synthetic runs (no subprocesses).

The script is loaded by path and fed made-up run results against the
committed ``BENCHMARK.json``: medians, bounds and directions come from
there, as in a real gate run.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def gate():
    loader = importlib.util.spec_from_file_location(
        "perf_gate", ROOT / "tools" / "perf_gate.py")
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


def run(side, values, workload="paper_cells", seed=1, trace=0, **status):
    """A run result as the gate records it, with ``values`` as metrics."""
    result = {"exit": 0, "correct": True, "attempted": 10, "failed": 0,
              "metrics": {name: {"value": value, "unit": ""}
                          for name, value in values.items()}}
    result.update(status)
    return {**result, "side": side, "workload": workload, "seed": seed,
            "trace": trace}


def pairs(base, head, **kw):
    """Three seeds per side; ``base``/``head`` are per-seed value dicts."""
    return ([run("base", values, seed=seed, **kw)
             for seed, values in enumerate(base, 1)]
            + [run("head", values, seed=seed, **kw)
               for seed, values in enumerate(head, 1)])


def verdict(gate, runs, workload, metric):
    (row,) = [row for row in gate.verdicts(SPEC, runs)
              if row[:2] == (workload, metric)]
    return row[-1]


def same(name, value):
    return [{name: value}] * 3


def test_equal_medians_pass_on_every_end_to_end_metric(gate):
    values = {metric["name"]: 10.0 for metric in SPEC["end_to_end"]}
    rows = gate.verdicts(SPEC, pairs([values] * 3, [values] * 3))
    assert [row[1] for row in rows] == [m["name"] for m in SPEC["end_to_end"]]
    assert {row[-1] for row in rows} == {"ok"}


@pytest.mark.parametrize("metric, inside, outside", [
    ("cells_per_s", 7.6, 7.4),     # higher is better, bound 0.25
    ("query_tail_ms", 12.4, 12.6),  # lower is better, bound 0.25
    ("peak_rss_mb", 11.9, 12.1),    # lower is better, bound 0.2
])
def test_fail_just_past_the_bound(gate, metric, inside, outside):
    base = same(metric, 10.0)
    assert verdict(gate, pairs(base, same(metric, inside)),
                   "paper_cells", metric) == "ok"
    assert verdict(gate, pairs(base, same(metric, outside)),
                   "paper_cells", metric) == "FAIL"


def test_noisy_base_is_unresolved_not_failed(gate):
    base = [{"setup_s": value} for value in (0.3, 0.4, 0.5)]  # IQR/median 0.5
    runs = pairs(base, same("setup_s", 0.6))
    assert verdict(gate, runs, "paper_cells", "setup_s") == "UNRESOLVED"
    quiet = [{"setup_s": value} for value in (0.39, 0.4, 0.41)]
    assert verdict(gate, pairs(quiet, same("setup_s", 0.6)),
                   "paper_cells", "setup_s") == "FAIL"


@pytest.mark.parametrize("side, status", [
    ("head", {"correct": False}),
    ("head", {"failed": 2}),
    ("base", {"exit": 1, "metrics": {}}),
])
def test_run_failures_fail_and_name_their_side(gate, side, status):
    values = same("cells_per_s", 5.0)
    runs = pairs(values, values)
    runs.append(run(side, {"cells_per_s": 5.0}, seed=4, **status))
    (row,) = [row for row in gate.verdicts(SPEC, runs)
              if row[1] == "run seed 4 trace 0"]
    assert row[-1] == "FAIL"
    base_cell, head_cell = row[2:4]
    assert (base_cell != "", head_cell != "") == (side == "base",
                                                  side == "head")


def test_cold_cells_per_s_is_gated_by_the_cells_per_s_bound(gate):
    bound = {m["name"]: m for m in SPEC["end_to_end"]}["cells_per_s"]["bound"]
    base = same("cold_cells_per_s", 100.0)
    kw = dict(workload="campaign_e2e", trace=1)
    inside = same("cold_cells_per_s", 100.0 * (1 - bound) + 0.1)
    outside = same("cold_cells_per_s", 100.0 * (1 - bound) - 0.1)
    assert verdict(gate, pairs(base, inside, **kw),
                   "campaign_e2e", "cold_cells_per_s") == "ok"
    assert verdict(gate, pairs(base, outside, **kw),
                   "campaign_e2e", "cold_cells_per_s") == "FAIL"


def test_main_takes_exactly_two_directories(gate, capsys):
    assert gate.main(["only-one"]) == 2
    assert "BASE_DIR HEAD_DIR" in capsys.readouterr().err
