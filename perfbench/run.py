"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The run generates the workload's inputs
from the seed, measures set-up in several fresh processes, then runs the
workload in one more fresh process (:mod:`perfbench.worker`) and prints
every metric by name with its unit.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  Exits non-zero, printing no result, when the
checkout has no ``src/repro`` or the workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
#: Extra set-up-only processes; with the workload process's own set-up
#: they give the samples ``setup_s`` is the median of.
SETUP_PROBES = 4
#: Whole-run budget; a run must finish within 180 s.
BUDGET_S = 170.0
#: The channel's scalar/numpy crossovers (candidate-set size); each kernel
#: workload must stay on its own side of them.
CROSSOVER = 48


def run_worker(mode: str, inputs: Path, work: Path, seconds: float,
               deadline: float) -> dict:
    """Run one worker process; returns its report plus its set-up time."""
    from perfbench.worker import child_env, normalized, reference_s

    work.mkdir(parents=True, exist_ok=True)
    ref_s = reference_s()
    spawned = time.monotonic()
    # Its own session, so a timeout can stop the worker together with the
    # repro-serve and pool processes it started.
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.worker", "--mode", mode,
         "--inputs", str(inputs), "--work", str(work),
         "--seconds", repr(seconds)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        stdout, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with {proc.returncode}")
    report = json.loads(stdout.strip().splitlines()[-1])
    serve_setup = (report["serve_setup_s"] if mode == "setup"
                   else report["pipeline"]["serve_setup_s"])
    report["setup_s"] = normalized(
        report["ready_monotonic"] - spawned + serve_setup, ref_s)
    return report


def end_to_end(report: dict, setup_samples: List[float]) -> Dict[str, float]:
    pipeline = report["pipeline"]
    serve = report["serve"]
    return {
        "setup_s": statistics.median(setup_samples),
        "cells_per_s": report["kernel"]["cells_per_s"],
        "warm_cells_per_s": pipeline["warm_cells_per_s"],
        "publish_s": pipeline["publish_s"],
        "query_tail_ms": serve["query_tail_ms"],
        "queries_per_s": serve["queries_per_s"],
        "peak_rss_mb": report["peak_rss_mb"],
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(report: dict, layer_names) -> Dict[str, float]:
    """Per-layer metrics of a traced run (see :mod:`perfbench.metrics`)."""
    untraced = report["untraced"]
    traced = report["traced"]
    c = untraced["counters"]
    pipeline = report["pipeline"]
    serve = report["serve"]
    stages = pipeline["stages"]
    ops = report["ops"]
    self_ns = dict(report["layers_ns"])

    def op(layer: str, name: str):
        calls, ns = ops.get(f"{layer}/{name}", (0, 0))
        return calls, ns / 1e9

    metrics: Dict[str, float] = {
        "sim.self_s": (traced["wall_ns"] - report["top_level_ns"]) / 1e9,
        "sim.events": c["events"],
        "sim.events_per_s": c["events"] * 1e9 / untraced["wall_ns"],
        "sim.fire_groups": c["fire_groups"],
        "sim.mean_group_size": _ratio(c["fire_group_members"],
                                      c["fire_groups"]),
        "sim.fire_group_requeued": c["fire_group_requeued"],
        "sim.peak_heap_size": c["peak_heap_size"],
        "sim.heap_compactions": c["heap_compactions"],
        "sim.mean_batch_size": _ratio(c["events"], c["horizon_batches"]),
        "net.channel.us_per_transmit": _ratio(
            self_ns.get("net.channel", 0) / 1e3, c["transmissions"]),
        "net.channel.transmissions": c["transmissions"],
        "net.channel.mean_candidate_set": _ratio(c["candidate_total"],
                                                 c["transmissions"]),
        "net.channel.mean_refined_set": _ratio(c["refined_total"],
                                               c["transmissions"]),
        "net.channel.prefilter_hit_rate": _ratio(c["refined_total"],
                                                 c["candidate_total"]),
        "net.interface.frames_collided": c["frames_collided"],
        "net.packet.copy_calls": op("net.packet", "copy")[0],
        "net.packet.copy_s": op("net.packet", "copy")[1],
        "net.queue.drops": c["queue_drops"],
        "mobility.segment_at_calls": op("mobility", "segment_at")[0],
        "mac.data_tx_attempts": c["data_tx_attempts"],
        "mac.retries": (report["counts"].get("mac.retry_or_drop", 0)
                        - c["retry_drops"]),
        "mac.retry_drops": c["retry_drops"],
        "routing.control_packets": c["control_packets"],
        "core.check_rounds": c["check_rounds"],
        "core.path_switches": c["path_switches"],
        "transport.segments_sent": c["segments_sent"],
        "transport.retransmissions": c["retransmissions"],
        "transport.timeouts": c["timeouts"],
        "metrics.collect_s": op("metrics", "scenario.collect_results")[1],
        "scenario.build_s": untraced["build_s"],
        "cold_cells_per_s": pipeline["cold_cells_per_s"],
        "exec.workers_spawned": pipeline["pool"]["spawned"],
        "exec.workers_reused": pipeline["pool"]["reused"],
        "exec.warm.lookup_s": pipeline["warm_lookup_s"],
        "exec.cells_from_cache": pipeline["cells_from_cache"],
        "exec.cache.files": pipeline["cache_files"],
        "exec.cache.bytes": pipeline["cache_bytes"],
        "campaign.expand_s": report["expand_s"],
        "experiments.render_s": pipeline["render_s"],
        "campaign.store.put_s": pipeline["store_put_s"],
        "campaign.store.bytes_written": pipeline["store_bytes"],
        "campaign.store.index_reads_per_query":
            serve["index_reads_per_query"],
        "query_p50_ms": serve["query_p50_ms"],
        "serve.handler_p50_ms": serve["handler_p50_ms"],
        "serve.handler_tail_ms": serve["handler_tail_ms"],
        "serve.wait_p50_ms": serve["wait_p50_ms"],
        "trace.overhead_frac": ((traced["wall_ns"] - untraced["wall_ns"])
                                / untraced["wall_ns"]),
    }
    for stage in ("spawn", "serialize", "simulate", "stream", "merge",
                  "cache_write"):
        metrics[f"exec.cold.{stage}_s"] = stages[stage]
    # Every layer's self time; layers without a metric of their own
    # (e.g. net.packet, whose time is also net.packet.copy_s) fold into
    # other.self_s, so the printed self times still add up.
    metrics["other.self_s"] = 0.0
    for layer in sorted(self_ns):
        name = f"{layer}.self_s"
        if name not in layer_names:
            name = "other.self_s"
        metrics[name] = metrics.get(name, 0.0) + self_ns[layer] / 1e9
    for name in layer_names:
        metrics.setdefault(name, 0.0)
    return metrics


def accounting_errors(report: dict) -> List[str]:
    """No layer, and not the event loop, may have a negative self time.

    The layers' self times sum to the top-level span time by construction
    (:class:`perfbench.spans.SpanRecorder`), so they and ``sim.self_s``
    add up to the traced wall exactly when every top-level span lies
    inside a timed cell window; the traced kernel pass checks that window
    by window.
    """
    errors = [f"negative self time in {layer}"
              for layer, ns in sorted(report["layers_ns"].items()) if ns < 0]
    if report["traced"]["wall_ns"] < report["top_level_ns"]:
        errors.append("negative sim self time")
    return errors


def sanity_errors(workload: str, counters: Dict[str, int]) -> List[str]:
    """Each kernel workload must stay on its side of the crossovers."""
    mean = _ratio(counters["candidate_total"], counters["transmissions"])
    print(f"sanity: {workload} mean candidate set {mean:.2f} "
          f"(crossover {CROSSOVER})")
    if workload == "paper_cells" and not mean < CROSSOVER:
        return [f"paper_cells mean candidate set {mean:.2f} is not below "
                f"{CROSSOVER}"]
    if workload == "dense_cells" and not mean > CROSSOVER:
        return [f"dense_cells mean candidate set {mean:.2f} is not above "
                f"{CROSSOVER}"]
    return []


def main(argv: Optional[List[str]] = None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro package under {ROOT}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads
    from perfbench.metrics import load_spec

    spec = load_spec(ROOT)
    units = {metric["name"]: metric["unit"]
             for metric in spec["end_to_end"] + spec["per_layer"]}

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    deadline = started + BUDGET_S
    scratch_root = ROOT / ".bench_work"
    scratch_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                 dir=scratch_root))
    try:
        inputs_path = work / "inputs.json"
        inputs_path.write_text(json.dumps(
            workloads.generate(args.workload, args.seed)))
        setup_samples = [
            run_worker("setup", inputs_path, work / f"probe{probe}",
                       args.seconds, deadline)["setup_s"]
            for probe in range(SETUP_PROBES)]
        mode = "trace" if args.trace else "measure"
        report = run_worker(mode, inputs_path, work / mode, args.seconds,
                            deadline)
        setup_samples.append(report["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            KeyError) as exc:
        print(f"error: {args.workload} run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass

    errors = list(report["reasons"])
    counters = (report["untraced"] if args.trace
                else report["kernel"])["counters"]
    errors += sanity_errors(args.workload, counters)
    serve = report["serve"]
    print(f"query latency: p50 {serve['query_p50_ms']:.3f} ms, tail "
          f"p{serve['query_tail_pct']:g} {serve['query_tail_ms']:.3f} ms "
          f"over n={serve['query_samples']} requests")
    if args.trace:
        errors += accounting_errors(report)
        print(f"serve handler: p50 {serve['handler_p50_ms']:.3f} ms, tail "
              f"p{serve['handler_tail_pct']:g} "
              f"{serve['handler_tail_ms']:.3f} ms over "
              f"n={serve['handler_samples']}; socket/ACK wait p50 "
              f"{serve['wait_p50_ms']:.3f} ms")
        names = [metric["name"] for metric in spec["per_layer"]]
        values = per_layer(report, names)
    else:
        kernel = report["kernel"]
        print(f"kernel: {kernel['raw_cells_per_s']:.4f} cells/s as measured "
              f"over {kernel['passes']} passes (normalised below)")
        values = end_to_end(report, setup_samples)
        names = [metric["name"] for metric in spec["end_to_end"]]
    for reason in errors:
        print(f"check failed: {reason}", file=sys.stderr)
    result = {}
    for name in names:
        value = values[name]
        unit = units[name]
        print(f"{name} = {value!r} {unit}")
        result[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": not errors and report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
