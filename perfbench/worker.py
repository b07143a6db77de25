"""The measured process of one benchmark run (started by ``run.py``).

``python3 -m perfbench.worker --mode MODE --inputs FILE --work DIR
--seconds S``

* ``setup`` — do the set-up only (imports, manifest expansion, first
  scenario build, executor/cache/store construction, a ``repro-serve``
  start up to its first ``/healthz``) and report when it was ready;
* ``measure`` — set up, then run the kernel phase (the workload's cells
  simulated one after another in-process, in whole passes, for at least
  ``KERNEL_SHARE`` of the run) and the pipeline phase (cold campaign,
  warm replays, publishes, ``repro-serve`` and a closed loop of
  queries), untraced;
* ``trace`` — one untraced kernel pass, the pipeline phase with the store
  and renderers traced and a traced ``repro-serve``, then the same kernel
  pass again with every kernel wrapper installed.

The last stdout line is a JSON report for ``run.py``.  Every correctness
check counts into ``attempted``/``failed`` instead of aborting.

Machine-speed normalisation
---------------------------
CPU-bound timings (kernel passes, cold runs, warm replays, publishes and,
in ``run.py``, set-up) are interleaved with a fixed pure-Python reference
loop and reported in *reference seconds*: measured seconds times
``REF_NOMINAL_S`` over the reference loop's time measured alongside.  On
the shared 2-vCPU VM the benchmark was tuned on, the speed of identical
work drifts by up to 1.7x over tens of seconds; in 17 consecutive 5 s
windows the median time of one fixed cell spread 25 % (quartile distance
over median) while its ratio to the interleaved reference loop spread
2 %.  The cold campaign rate is not normalised: its ``nproc`` pool
workers run in other processes, and reference samples taken in this
process tracked their speed worse than no correction did; it is a
per-layer metric with no bound.  The query window is not normalised
either: its latencies are dominated by a fixed 40 ms delayed-ACK timer
and repeat within 1 % as measured.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench import spans as spanlib
from perfbench import workloads
from perfbench.spans import SpanRecorder, Tally

ROOT = Path(__file__).resolve().parents[1]
#: Share of ``--seconds`` for the kernel phase and for the query window.
KERNEL_SHARE = 0.6
QUERY_SHARE = 0.25
#: Warm replays and publishes take milliseconds, so they are timed in
#: batches of at least ``BATCH_SECONDS`` (one normalised sample each) for
#: at least ``REPEAT_SECONDS`` and ``MIN_REPEATS`` samples.
BATCH_SECONDS = 0.05
REPEAT_SECONDS = 2.0
MIN_REPEATS = 5
#: The reference loop's time on the quiet tuning machine; normalised
#: timings read as seconds on a machine that runs the loop this fast.
REF_NOMINAL_S = 0.0065
#: Kernel work between two reference samples.
SEGMENT_NS = 250_000_000


def reference_loop() -> None:
    """Fixed interpreter work: dict reads and writes, integer adds."""
    table: Dict[int, int] = {}
    for i in range(60_000):
        key = i % 997
        table[key] = table.get(key, 0) + i


def reference_s() -> float:
    """The machine's current speed: fastest of three reference loops."""
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        reference_loop()
        best = min(best, time.perf_counter() - started)
    return best


def normalized(seconds: float, ref_s: float) -> float:
    """``seconds`` measured while the reference loop took ``ref_s``."""
    return seconds * REF_NOMINAL_S / ref_s


def repeat_timed(action) -> List[float]:
    """Normalised per-call times of ``action(i)``, one per batch."""
    samples: List[float] = []
    calls = 0
    started = time.perf_counter()
    while (len(samples) < MIN_REPEATS
           or time.perf_counter() - started < REPEAT_SECONDS):
        batch_started = time.perf_counter()
        batch = 0
        while True:
            action(calls)
            calls += 1
            batch += 1
            elapsed = time.perf_counter() - batch_started
            if elapsed >= BATCH_SECONDS:
                break
        samples.append(normalized(elapsed / batch, reference_s()))
    return samples


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def digest_of(result) -> str:
    return hashlib.sha256(result.to_json().encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ---------------------------------------------------------------------- #
# kernel phase
# ---------------------------------------------------------------------- #
def cell_counters(scenario, result) -> Dict[str, int]:
    """The program's own public counters after one cell."""
    sim = scenario.sim
    channel = scenario.channel
    nodes = scenario.nodes
    senders = scenario.senders
    counters = {
        "events": sim.processed_events,
        "fire_groups": sim.fire_groups,
        "fire_group_members": sim.fire_group_members,
        "fire_group_requeued": sim.fire_group_requeued,
        "peak_heap_size": sim.peak_heap_size,
        "heap_compactions": sim.heap_compactions,
        "horizon_batches": sim.horizon_batches,
        "transmissions": channel.transmissions,
        "candidate_total": channel.candidate_total,
        "refined_total": channel.refined_total,
        "frames_collided": sum(node.interface.frames_collided
                               for node in nodes),
        "queue_drops": sum(node.queue.dropped for node in nodes),
        "data_tx_attempts": sum(node.mac.data_tx_attempts for node in nodes),
        "retry_drops": sum(node.mac.retry_drops for node in nodes),
        "control_packets": result.control_overhead,
        "check_rounds": 0,
        "path_switches": 0,
        "segments_sent": sum(getattr(s, "segments_sent", 0) for s in senders),
        "retransmissions": sum(getattr(s, "retransmissions", 0)
                               for s in senders),
        "timeouts": sum(getattr(s, "timeouts", 0) for s in senders),
    }
    for node in nodes:
        agent = node.routing_agent
        for flow in getattr(agent, "flows", {}).values():
            counters["check_rounds"] += flow.checking.rounds_emitted
        for selector in getattr(agent, "selectors", {}).values():
            counters["path_switches"] += selector.switches_from_check
    return counters


def add_counters(total: Dict[str, int], counters: Dict[str, int]) -> None:
    for name, value in counters.items():
        if name == "peak_heap_size":
            total[name] = max(total.get(name, 0), value)
        else:
            total[name] = total.get(name, 0) + value


def kernel_pass(configs, order, tally: Tally, digests: Dict[int, str],
                label: str, recorder: Optional[SpanRecorder] = None) -> dict:
    """Simulate every cell once in ``order``; returns timings + counters.

    ``wall_ns`` covers only the build, run and result collection of each
    cell (its timed window), not the benchmark's own digesting, counter
    reading and reference samples; ``norm_s`` is the same time normalised
    segment by segment.  A cell seen before must reproduce its earlier
    digest.  With a ``recorder`` (the traced pass), every top-level span
    must lie inside a timed window: top-level span time may neither grow
    between windows nor grow by more than a window's own duration, so the
    self times plus ``sim.self_s`` account for ``wall_ns``.
    """
    from repro.scenario.runner import build_scenario

    wall_ns = build_ns = segment_ns = 0
    norm_s = 0.0
    counters: Dict[str, int] = {}
    clock = time.perf_counter_ns

    def spans() -> int:
        return recorder.top_level_ns if recorder is not None else 0

    spans_start = spans()
    spans_inside = 0
    for index in order:
        before = spans()
        try:
            start = clock()
            scenario = build_scenario(configs[index])
            built = clock()
            result = scenario.run()
            end = clock()
        except Exception:  # noqa: BLE001 - a raising cell is a counted failure
            tally.fail(f"{label}: cell {index} raised\n"
                       f"{traceback.format_exc(limit=3)}")
            continue
        finally:
            grown = spans() - before
            spans_inside += grown
        if recorder is not None:
            tally.check(grown <= end - start,
                        f"{label}: cell {index} spans exceed its window")
        wall_ns += end - start
        build_ns += built - start
        segment_ns += end - start
        if segment_ns >= SEGMENT_NS:
            norm_s += normalized(segment_ns / 1e9, reference_s())
            segment_ns = 0
        digest = digest_of(result)
        expected = digests.setdefault(index, digest)
        tally.check(digest == expected, f"{label}: cell {index} digest "
                                        f"{digest[:12]} != {expected[:12]}")
        add_counters(counters, cell_counters(scenario, result))
    if segment_ns:
        norm_s += normalized(segment_ns / 1e9, reference_s())
    if recorder is not None:
        tally.check(spans() - spans_start == spans_inside,
                    f"{label}: spans outside the timed cell windows")
    return {"wall_ns": wall_ns, "norm_s": norm_s, "build_s": build_ns / 1e9,
            "counters": counters}


def kernel_phase(configs, order, min_seconds: float, tally: Tally,
                 digests: Dict[int, str]) -> dict:
    """Whole passes until ``min_seconds`` have elapsed (at least two).

    ``cells_per_s`` is the median over passes of cells per normalised
    second.
    """
    passes: List[dict] = []
    started = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - started < min_seconds:
        passes.append(kernel_pass(configs, order, tally, digests,
                                  f"pass {len(passes) + 1}"))
    rates = [len(order) / p["norm_s"] for p in passes]
    raw = [len(order) * 1e9 / p["wall_ns"] for p in passes]
    return {"passes": len(passes), "cells_per_s": statistics.median(rates),
            "raw_cells_per_s": statistics.median(raw),
            "counters": passes[0]["counters"]}


# ---------------------------------------------------------------------- #
# repro-serve
# ---------------------------------------------------------------------- #
class Server:
    """A ``repro-serve`` subprocess on an ephemeral port.

    ``setup_s`` is the time from spawning it until ``/healthz`` answers.
    With ``spans_path`` it runs under :mod:`perfbench.serve_launcher`.
    """

    def __init__(self, store_root: Path, work: Path,
                 spans_path: Optional[Path] = None) -> None:
        port_file = work / f"port-{time.monotonic_ns()}"
        args = [str(store_root), "--port", "0", "--port-file",
                str(port_file), "--quiet"]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro.cli.serve"] + args
        else:
            cmd = [sys.executable, "-m", "perfbench.serve_launcher",
                   "--spans", str(spans_path), "--"] + args
        started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                     stdout=subprocess.DEVNULL)
        try:
            self.port = self._wait_port(port_file)
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _wait_port(self, port_file: Path) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro-serve exited with "
                                   f"{self.proc.returncode}")
            try:
                text = port_file.read_text()
            except OSError:
                text = ""
            if text.endswith("\n"):
                return int(text)
            time.sleep(0.002)
        raise RuntimeError("repro-serve did not write its port")

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + 30
        while True:
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=5)
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                if response.status == 200 and response.read() == b"ok\n":
                    return
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.002)
            finally:
                conn.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def query_loop(port: int, routes, seed: int, seconds: float,
               tally: Tally) -> dict:
    """Closed loop over at most ``nproc`` keep-alive connections.

    One client thread sends the next request only after the previous
    response has been read; connections are used round-robin.  Every
    request carries ``X-Bench-Request`` so a traced server's handler time
    can be matched to the client's latency.
    """
    conns = [http.client.HTTPConnection("127.0.0.1", port, timeout=30)
             for _ in range(max(1, nproc()))]
    sequence = workloads.route_sequence(routes, seed)
    latencies: List[Tuple[str, float]] = []
    clock = time.perf_counter
    started = clock()
    deadline = started + seconds
    request_id = 0
    try:
        while clock() < deadline:
            route = next(sequence)
            conn = conns[request_id % len(conns)]
            rid = str(request_id)
            request_id += 1
            sent = clock()
            try:
                conn.request("GET", route.path,
                             headers={"X-Bench-Request": rid})
                response = conn.getresponse()
                body = response.read()
            except (OSError, http.client.HTTPException) as exc:
                tally.fail(f"{route.path}: {type(exc).__name__}: {exc}")
                conn.close()
                continue
            latencies.append((rid, clock() - sent))
            spanlib.check_response(tally, route.path, route.status,
                                   route.body, response.status, body)
        elapsed = clock() - started
    finally:
        for conn in conns:
            conn.close()
    return {"latencies": latencies, "elapsed_s": elapsed,
            "connections": len(conns)}


# ---------------------------------------------------------------------- #
# set-up and pipeline phase
# ---------------------------------------------------------------------- #
class Context:
    """What set-up produces: the expanded manifest and empty stores."""

    def __init__(self, inputs: dict, work: Path) -> None:
        from repro.campaign.manifest import CampaignSpec
        from repro.campaign.store import ArtifactStore
        from repro.exec import ClusterExecutor, ResultCache
        from repro.scenario.runner import build_scenario

        self.inputs = inputs
        self.work = work
        self.spec = CampaignSpec.from_dict(inputs["manifest"])
        started = time.perf_counter()
        self.expanded = [(entry.name, settings)
                         for entry, settings in self.spec.expand()]
        self.expand_s = time.perf_counter() - started
        self.configs = [config for _, settings in self.expanded
                        for config in settings.cell_configs()]
        self.order = list(inputs["order"])
        build_scenario(self.configs[self.order[0]])
        self.cache = ResultCache(work / "cache0")
        self.store = ArtifactStore(work / "store0")
        self.executor = ClusterExecutor(shards=nproc(), cache=self.cache)


def sweep_digests(report) -> Dict[str, str]:
    return {name: hashlib.sha256(sweep.to_json().encode()).hexdigest()
            for name, sweep in report.sweeps.items()}


def pipeline_phase(ctx: Context, tally: Tally, kernel_digests: Dict[int, str],
                   query_seconds: float, recorder: Optional[SpanRecorder],
                   serve_spans: Optional[Path]) -> dict:
    """Cold campaign, warm replays, publishes, then serve and query.

    The cold run is one ``run_campaign`` into the empty cache built at
    set-up; its rate is cells over its measured wall time.
    """
    from repro.campaign.runner import publish_campaign, run_campaign
    from repro.exec import ClusterExecutor

    spec = ctx.spec
    total_cells = len(ctx.configs)
    positions = workloads.cell_index(ctx.expanded)

    def check_cells(report, label: str) -> None:
        for entry_name, sweep in report.sweeps.items():
            for (protocol, speed), runs in sweep.runs.items():
                for replication, result in enumerate(runs):
                    index = positions[(entry_name, protocol, float(speed),
                                       replication)]
                    expected = kernel_digests.get(index)
                    tally.check(expected is None
                                or digest_of(result) == expected,
                                f"{label}: cell {index} differs from its "
                                f"in-process digest")

    # cold: the campaign on the empty cache; the executor's workers spawn
    with ctx.executor as executor:
        started = time.perf_counter()
        cold = run_campaign(spec, scheduler=executor)
        cold_s = time.perf_counter() - started
    tally.check(cold.simulated == total_cells,
                f"cold run simulated {cold.simulated} of {total_cells} cells")
    check_cells(cold, "cold run")
    stages = dict(executor.total_stage_seconds)
    pool = {"spawned": executor.total_workers_spawned,
            "reused": executor.total_workers_reused}
    cold_digests = sweep_digests(cold)

    # warm: the same call again against the populated cache
    # (only the cheap simulated-count check runs inside the timed batches;
    # the last replay's sweeps are digested after them)
    last: Dict[str, object] = {}
    with ClusterExecutor(shards=nproc(), cache=ctx.cache) as executor:
        def warm(repeat: int) -> None:
            report = run_campaign(spec, scheduler=executor)
            tally.check(report.simulated == 0,
                        f"warm replay simulated {report.simulated} cells")
            last["warm"] = report
            last["calls"] = repeat + 1

        warm_times = repeat_timed(warm)
        tally.check(sweep_digests(last["warm"]) == cold_digests,
                    "warm replay sweep digests differ from the cold run")
        warm_lookup_s = (executor.total_stage_seconds["lookup"]
                         / last["calls"])
    cache_stats = ctx.cache.stats()

    # publish: once into the empty store, then timed republishes of the
    # unchanged campaign (content-addressed, so they render, hash and
    # re-index but write no blob); every index must be byte-identical
    index_path = publish_campaign(spec, cold.sweeps, ctx.store)
    index_bytes = index_path.read_bytes()
    render_before = put_before = 0.0
    if recorder is not None:
        render_before = recorder.op_incl_s("experiments", "render")
        put_before = store_put_s(recorder)

    def publish(repeat: int) -> None:
        publish_campaign(spec, cold.sweeps, ctx.store)
        last["publishes"] = repeat + 1

    publish_times = repeat_timed(publish)
    tally.check(index_path.read_bytes() == index_bytes,
                "republished index differs")
    store_bytes = sum(path.stat().st_size
                      for path in ctx.store.root.rglob("*") if path.is_file())

    # serve the store and run the closed loop against it
    routes = workloads.build_routes(
        spec.name, json.loads(index_bytes), index_bytes,
        workloads.store_blob_reader(ctx.store.root))
    server = Server(ctx.store.root, ctx.work, serve_spans)
    try:
        queries = query_loop(server.port, routes, ctx.inputs["query_seed"],
                             query_seconds, tally)
    finally:
        server.stop()
    tally.check(server.proc.returncode == 0,
                f"repro-serve exited with {server.proc.returncode}")

    out = {
        "cold_cells_per_s": total_cells / cold_s,
        "warm_cells_per_s": total_cells / statistics.median(warm_times),
        "publish_s": statistics.median(publish_times),
        "serve_setup_s": server.setup_s,
        "queries": queries,
        "stages": stages,
        "pool": pool,
        "warm_lookup_s": warm_lookup_s,
        "cells_from_cache": last["warm"].from_cache,
        "cache_files": (cache_stats.entries - cache_stats.packed_entries
                        + cache_stats.packs),
        "cache_bytes": cache_stats.total_bytes,
        "store_bytes": store_bytes,
    }
    if recorder is not None:
        out["render_s"] = (recorder.op_incl_s("experiments", "render")
                           - render_before) / last["publishes"]
        out["store_put_s"] = (store_put_s(recorder)
                              - put_before) / last["publishes"]
    return out


def store_put_s(recorder: SpanRecorder) -> float:
    """Time inside the store's writes during publication.

    ``publish_campaign`` writes through ``put_text`` (which wraps
    ``put_bytes``) and ``put_index``, so their inclusive times sum to the
    store's write time without counting a nested ``put_bytes`` twice.
    """
    return (recorder.op_incl_s("campaign", "store.put_text")
            + recorder.op_incl_s("campaign", "store.put_index"))


def serve_metrics(queries: dict, spans_path: Optional[Path]) -> dict:
    """Client latency statistics, plus the handler/wait split when traced."""
    latencies = [latency * 1e3 for _, latency in queries["latencies"]]
    tail_pct, tail, count = spanlib.tail_percentile(latencies)
    out = {
        "query_p50_ms": statistics.median(latencies),
        "query_tail_ms": tail,
        "query_tail_pct": tail_pct,
        "query_samples": count,
        "queries_per_s": count / queries["elapsed_s"],
    }
    if spans_path is not None:
        records = [record for record in json.loads(spans_path.read_text())
                   if record["request"] is not None]
        handler = {record["request"]: record["handler_ns"] / 1e6
                   for record in records}
        waits = [latency * 1e3 - handler[rid]
                 for rid, latency in queries["latencies"] if rid in handler]
        h_pct, h_tail, h_count = spanlib.tail_percentile(
            list(handler.values()))
        out.update({
            "handler_p50_ms": statistics.median(list(handler.values())),
            "handler_tail_ms": h_tail,
            "handler_tail_pct": h_pct,
            "handler_samples": h_count,
            "wait_p50_ms": statistics.median(waits),
            # repro-serve reads the index file through both calls
            "index_reads_per_query": (
                sum(record["store_calls"].get(name, 0) for record in records
                    for name in ("get_index", "index_bytes"))
                / len(records)),
        })
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--mode", choices=("setup", "measure", "trace"),
                        required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    work = Path(args.work)
    inputs = json.loads(Path(args.inputs).read_text())
    ctx = Context(inputs, work)
    report: dict = {"ready_monotonic": time.monotonic(),
                    "expand_s": ctx.expand_s}
    if args.mode == "setup":
        server = Server(ctx.store.root, work)
        server.stop()
        report["serve_setup_s"] = server.setup_s
        print(json.dumps(report))
        return 0

    tally = Tally()
    digests: Dict[int, str] = {}
    if args.mode == "measure":
        report["kernel"] = kernel_phase(ctx.configs, ctx.order,
                                        args.seconds * KERNEL_SHARE, tally,
                                        digests)
        pipeline = pipeline_phase(ctx, tally, digests,
                                  args.seconds * QUERY_SHARE, None, None)
        report["serve"] = serve_metrics(pipeline["queries"], None)
    else:
        from perfbench.tracing import install_kernel, install_pipeline

        report["untraced"] = kernel_pass(ctx.configs, ctx.order, tally,
                                         digests, "untraced pass")
        pipeline_recorder = SpanRecorder()
        install_pipeline(pipeline_recorder)
        spans_path = work / "serve_spans.json"
        pipeline = pipeline_phase(ctx, tally, digests,
                                  args.seconds * QUERY_SHARE / 2,
                                  pipeline_recorder, spans_path)
        report["serve"] = serve_metrics(pipeline["queries"], spans_path)
        recorder = SpanRecorder()
        install_kernel(recorder)
        traced = kernel_pass(ctx.configs, ctx.order, tally, digests,
                             "traced pass", recorder)
        tally.check(traced["counters"] == report["untraced"]["counters"],
                    "tracing changed the program's counters")
        report["traced"] = traced
        report["layers_ns"] = dict(recorder.self_ns)
        report["top_level_ns"] = recorder.top_level_ns
        report["ops"] = {f"{layer}/{op}": [recorder.calls[(layer, op)], ns]
                         for (layer, op), ns in recorder.incl_ns.items()}
        report["counts"] = dict(recorder.counts)
    pipeline["queries"].pop("latencies")
    report["pipeline"] = pipeline
    report.update(attempted=tally.attempted, failed=tally.failed,
                  reasons=tally.reasons, peak_rss_mb=peak_rss_mb())
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
