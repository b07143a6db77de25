"""BENCHMARK.json fits its limits, and every metric is documented."""

from __future__ import annotations

import re

from perfbench import metrics, workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_names_units_bounds_and_whys_fit_their_limits():
    data = metrics.load_spec()
    names = [m["name"] for m in data["end_to_end"] + data["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"])
               for m in data["end_to_end"] + data["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in data["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in data["workloads"])
    setup = [m for m in data["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in data["end_to_end"])}]


def test_every_workload_has_inputs():
    data = metrics.load_spec()
    assert [w["name"] for w in data["workloads"]] == list(workloads.WORKLOADS)


def test_every_metric_is_documented_and_names_what_it_moves():
    data = metrics.load_spec()
    end_to_end = [m["name"] for m in data["end_to_end"]]
    per_layer = [m["name"] for m in data["per_layer"]]
    assert set(metrics.END_TO_END_DOCS) == set(end_to_end)
    assert set(metrics.PER_LAYER) == set(per_layer)
    known = set(end_to_end) | set(per_layer)
    for name, move in metrics.PER_LAYER.items():
        assert move.moves in known or (
            not move.moves and name in ("trace.overhead_frac",
                                        "cold_cells_per_s"))
        assert set(move.workloads) <= set(workloads.WORKLOADS)
