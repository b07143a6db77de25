"""Perf gate: perfbench pairs of a base checkout against a changed one.

    python tools/perf_gate.py BASE_DIR HEAD_DIR

For every workload in ``HEAD_DIR/BENCHMARK.json`` the gate runs the
benchmark command (``python3 perfbench/run.py``) in each tree for seeds
1-3 at ``run_seconds`` with ``--trace 0``, alternating which tree runs
first.  ``campaign_e2e`` pairs also run with ``--trace 1``, for the cold
orchestration rate ``cold_cells_per_s``, bounded like ``cells_per_s``.

Each end-to-end metric compares the per-tree medians: FAIL when the head
is worse than the base by more than the metric's bound (in its ``better``
direction), UNRESOLVED instead when the base's own quartile distance over
its median already exceeds that bound.  A run that exits non-zero, is not
``correct`` or reports ``failed`` work fails the gate.  Prints one table;
exits 0 when nothing failed, 1 otherwise.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

SEEDS = (1, 2, 3)
#: Workloads whose pairs also run traced.
TRACED = ("campaign_e2e",)
#: Per-layer metrics gated with the bound of an end-to-end metric: the
#: cold orchestration rate of a traced ``campaign_e2e`` run.
BOUNDED_LIKE = {"cold_cells_per_s": "cells_per_s"}
FAILING = ("FAIL", "MISSING")


def run_once(command: List[str], tree: Path, workload: str, seed: int,
             seconds: float, trace: int) -> dict:
    """One benchmark run; its last stdout line plus ``exit``."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", str(trace)],
        cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = {}
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return {**result, "exit": proc.returncode}


def run_problem(run: dict) -> Optional[str]:
    """Why a run fails the gate, or None."""
    if run["exit"] != 0:
        return f"exit {run['exit']}"
    if "metrics" not in run:
        return "no result line"
    if run.get("correct") is not True or run.get("failed") != 0:
        return f"correct={run.get('correct')} failed={run.get('failed')}"
    return None


def gated_metrics(spec: dict) -> Dict[str, dict]:
    metrics = {metric["name"]: metric for metric in spec["end_to_end"]}
    for metric in spec["per_layer"]:
        if metric["name"] in BOUNDED_LIKE:
            bound = metrics[BOUNDED_LIKE[metric["name"]]]["bound"]
            metrics[metric["name"]] = {**metric, "bound": bound}
    return metrics


def verdicts(spec: dict, runs: List[dict]) -> List[tuple]:
    """Table rows ``(workload, metric, base, head, delta, bound, verdict)``.

    ``runs`` holds every run, each tagged with ``side`` (``base`` or
    ``head``), ``workload``, ``seed`` and ``trace``.
    """
    rows = []
    for workload in [entry["name"] for entry in spec["workloads"]]:
        mine = [run for run in runs if run["workload"] == workload]
        for run in mine:
            problem = run_problem(run)
            if problem:
                cells = ((problem, "") if run["side"] == "base"
                         else ("", problem))
                rows.append((workload, f"run seed {run['seed']} trace "
                             f"{run['trace']}", *cells, "", "", "FAIL"))
        for name, metric in gated_metrics(spec).items():
            values = {side: [run["metrics"][name]["value"] for run in mine
                             if run["side"] == side
                             and name in run.get("metrics", {})]
                      for side in ("base", "head")}
            if not values["base"] and not values["head"]:
                continue
            bound = f"{metric['bound']:.0%}"
            if not values["base"] or not values["head"]:
                rows.append((workload, name, str(len(values["base"])),
                             str(len(values["head"])), "", bound, "MISSING"))
                continue
            base = statistics.median(values["base"])
            q1, q3 = (statistics.quantiles(values["base"], n=4)[::2]
                      if len(values["base"]) > 1 else (base, base))
            head = statistics.median(values["head"])
            delta = (head - base) / base
            worse = -delta if metric["better"] == "higher" else delta
            verdict = "ok"
            if worse > metric["bound"]:
                noisy = (q3 - q1) / base > metric["bound"]
                verdict = "UNRESOLVED" if noisy else "FAIL"
            rows.append((workload, name, f"{base:.4g} [{q1:.4g}, {q3:.4g}]",
                         f"{head:.4g}", f"{delta:+.1%}", bound, verdict))
    return rows


def print_table(rows: List[tuple]) -> None:
    header = ("workload", "metric", "base median [Q1, Q3]", "head median",
              "delta", "bound", "verdict")
    widths = [max(len(str(row[i])) for row in [header, *rows])
              for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(str(cell).ljust(width)
                        for cell, width in zip(row, widths)).rstrip())


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tools/perf_gate.py BASE_DIR HEAD_DIR",
              file=sys.stderr)
        return 2
    trees = {"base": Path(args[0]).resolve(), "head": Path(args[1]).resolve()}
    spec = json.loads((trees["head"] / "BENCHMARK.json").read_text())
    pairs = [(workload, trace, seed)
             for workload in [entry["name"] for entry in spec["workloads"]]
             for trace in ((0, 1) if workload in TRACED else (0,))
             for seed in SEEDS]
    runs = []
    for index, (workload, trace, seed) in enumerate(pairs):
        for side in ("base", "head") if index % 2 == 0 else ("head", "base"):
            run = run_once(spec["command"], trees[side], workload, seed,
                           spec["run_seconds"], trace)
            runs.append({**run, "side": side, "workload": workload,
                         "seed": seed, "trace": trace})
            print(f"{workload} seed {seed} trace {trace} {side}: "
                  f"{run_problem(run) or 'ok'}", file=sys.stderr, flush=True)
    rows = verdicts(spec, runs)
    print_table(rows)
    return 1 if any(row[-1] in FAILING for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
