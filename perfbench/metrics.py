"""What each metric means and, for per-layer metrics, what it moves.

``BENCHMARK.json`` is the one record of every metric's name, unit,
direction and (end-to-end) bound, and of why each workload was chosen;
:func:`load_spec` reads it.  This module holds only what that file cannot:
for every per-layer metric, the end-to-end metric it should move and the
workload(s) where that shows, so later changes can cite names instead of
restating them, plus a line on how each metric is measured.

Times and rates of CPU-bound single-process work (set-up, cells, warm
replays, publish) are in reference seconds — see "Machine-speed
normalisation" in :mod:`perfbench.worker`; query latency and rate, and
the cold campaign rate, are as measured.

Every workload runs the same two phases — its cells simulated one after
another in-process (the kernel phase), then the same cells as a campaign
through cold run, warm replay, publish and ``repro-serve`` (the pipeline
phase) — so every metric below is measured on every workload.  The
``workloads`` field says where a metric is *expected to move*.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, Tuple

ROOT = Path(__file__).resolve().parents[1]

KERNEL = ("paper_cells", "dense_cells")
PAPER = ("paper_cells",)
DENSE = ("dense_cells",)
CAMPAIGN = ("campaign_e2e",)
ALL = ("paper_cells", "dense_cells", "campaign_e2e")


def load_spec(root: Path = ROOT) -> dict:
    """The checkout's ``BENCHMARK.json``."""
    return json.loads((root / "BENCHMARK.json").read_text())


END_TO_END_DOCS: Dict[str, str] = {
    "setup_s": (
        "median over 5 fresh processes of: process start until the first "
        "cell can start (imports, manifest expansion, first scenario "
        "build, executor/cache/store construction) plus repro-serve "
        "start until the first /healthz answers"),
    "cells_per_s": (
        "kernel phase: cells simulated per second in-process (no cache, no "
        "executor); median over passes"),
    "warm_cells_per_s": (
        "the same run_campaign call again warm (zero simulations); "
        "median over 50 ms batches"),
    "publish_s": (
        "publish_campaign of the unchanged campaign into its store (renders, "
        "hashes and re-indexes; blobs deduplicated); median over 50 ms "
        "batches"),
    "query_tail_ms": (
        "the highest percentile with >= 10 samples beyond it (the "
        "percentile and sample count are printed with every run)"),
    "queries_per_s": "requests completed per second by the closed loop",
    "peak_rss_mb": (
        "peak resident set of the workload process or any child it "
        "waited for (pool workers, repro-serve)"),
}


@dataclasses.dataclass(frozen=True)
class Move:
    """The end-to-end metric a per-layer metric should move, and where."""

    moves: str
    workloads: Tuple[str, ...]
    doc: str = ""


PER_LAYER: Dict[str, Move] = {
    # sim
    "sim.self_s": Move("cells_per_s", DENSE,
                       "traced kernel wall minus every top-level span: the "
                       "event loop"),
    "sim.events": Move("cells_per_s", DENSE),
    "sim.events_per_s": Move("cells_per_s", DENSE,
                             "untraced events over untraced kernel-pass "
                             "wall time"),
    "sim.fire_groups": Move("cells_per_s", DENSE),
    "sim.mean_group_size": Move("cells_per_s", DENSE),
    "sim.fire_group_requeued": Move("cells_per_s", DENSE),
    "sim.peak_heap_size": Move("cells_per_s", DENSE,
                               "largest over the pass's cells"),
    "sim.heap_compactions": Move("cells_per_s", DENSE),
    "sim.mean_batch_size": Move("cells_per_s", DENSE),
    # net
    "net.channel.self_s": Move("cells_per_s", KERNEL,
                               "numpy prefilter on dense_cells, scalar "
                               "prefilter on paper_cells"),
    "net.channel.us_per_transmit": Move("cells_per_s", KERNEL,
                                        "channel self time per transmission "
                                        "(traced)"),
    "net.channel.transmissions": Move("cells_per_s", KERNEL),
    "net.channel.mean_candidate_set": Move("cells_per_s", KERNEL,
                                           "sanity: below 48 on paper_cells, "
                                           "above 48 on dense_cells"),
    "net.channel.mean_refined_set": Move("cells_per_s", KERNEL),
    "net.channel.prefilter_hit_rate": Move("cells_per_s", KERNEL,
                                           "prefilter survivors over "
                                           "candidates examined"),
    "net.interface.self_s": Move("cells_per_s", KERNEL),
    "net.interface.frames_collided": Move("cells_per_s", KERNEL),
    "net.packet.copy_calls": Move("cells_per_s", KERNEL),
    "net.packet.copy_s": Move("cells_per_s", KERNEL,
                              "inclusive traced time of Packet.copy"),
    "net.queue.drops": Move("cells_per_s", KERNEL),
    "net.node.self_s": Move("cells_per_s", KERNEL,
                            "callbacks owned by Node (kept so every traced "
                            "layer has a self time)"),
    # mobility
    "mobility.self_s": Move("cells_per_s", PAPER, "most in the 20 m/s cells"),
    "mobility.segment_at_calls": Move("cells_per_s", PAPER),
    # mac
    "mac.self_s": Move("cells_per_s", KERNEL),
    "mac.data_tx_attempts": Move("cells_per_s", KERNEL),
    "mac.retries": Move("cells_per_s", KERNEL,
                        "ACK/CTS timeouts that led to another attempt (traced "
                        "count of retry decisions minus retry drops)"),
    "mac.retry_drops": Move("cells_per_s", KERNEL),
    # routing / core
    "routing.self_s": Move("cells_per_s", PAPER, "DSR/AODV cells"),
    "routing.control_packets": Move("cells_per_s", PAPER),
    "core.self_s": Move("cells_per_s", PAPER, "MTS cells"),
    "core.check_rounds": Move("cells_per_s", PAPER),
    "core.path_switches": Move("cells_per_s", PAPER),
    # transport / apps / metrics / security
    "transport.self_s": Move("cells_per_s", KERNEL),
    "transport.segments_sent": Move("cells_per_s", KERNEL),
    "transport.retransmissions": Move("cells_per_s", KERNEL),
    "transport.timeouts": Move("cells_per_s", KERNEL),
    "apps.self_s": Move("cells_per_s", KERNEL),
    "metrics.self_s": Move("cells_per_s", KERNEL),
    "metrics.collect_s": Move("cells_per_s", KERNEL,
                              "inclusive traced time of "
                              "Scenario.collect_results"),
    "security.self_s": Move("cells_per_s", KERNEL),
    "other.self_s": Move("cells_per_s", KERNEL,
                         "self time of layers without a metric of their own "
                         "(net.packet, whose time is also net.packet.copy_s, "
                         "or code outside repro)"),
    # scenario
    "scenario.build_s": Move("setup_s", KERNEL,
                             "untraced build_scenario time summed over one "
                             "pass"),
    "scenario.self_s": Move("setup_s", KERNEL,
                            "traced ScenarioBuilder.build self time"),
    # exec
    "cold_cells_per_s": Move("", CAMPAIGN,
                             "cells over the measured wall time of one "
                             "run_campaign on the empty cache through "
                             "ClusterExecutor(shards=nproc); per-layer, not "
                             "end-to-end, because its nproc workers on a "
                             "shared 2-vCPU VM spread 13-52 % over 5 seeds"),
    "exec.cold.spawn_s": Move("cold_cells_per_s", CAMPAIGN),
    "exec.cold.serialize_s": Move("cold_cells_per_s", CAMPAIGN),
    "exec.cold.simulate_s": Move("cold_cells_per_s", CAMPAIGN),
    "exec.cold.stream_s": Move("cold_cells_per_s", CAMPAIGN),
    "exec.cold.merge_s": Move("cold_cells_per_s", CAMPAIGN),
    "exec.cold.cache_write_s": Move("cold_cells_per_s", CAMPAIGN),
    "exec.workers_spawned": Move("cold_cells_per_s", CAMPAIGN),
    "exec.workers_reused": Move("cold_cells_per_s", CAMPAIGN),
    "exec.warm.lookup_s": Move("warm_cells_per_s", CAMPAIGN),
    "exec.cells_from_cache": Move("warm_cells_per_s", CAMPAIGN),
    "exec.cache.files": Move("warm_cells_per_s", CAMPAIGN,
                             "from ResultCache.stats(); also moves "
                             "cold_cells_per_s"),
    "exec.cache.bytes": Move("warm_cells_per_s", CAMPAIGN,
                             "from ResultCache.stats(); also moves "
                             "cold_cells_per_s"),
    # campaign / experiments
    "campaign.expand_s": Move("setup_s", ALL),
    "experiments.render_s": Move("publish_s", ALL,
                                 "format_figure + render_figures + "
                                 "table1_from_sweep per publish"),
    "campaign.store.put_s": Move("publish_s", ALL,
                                 "ArtifactStore.put_* time per publish"),
    "campaign.store.bytes_written": Move("publish_s", ALL),
    "campaign.store.index_reads_per_query": Move(
        "queries_per_s", ALL,
        "ArtifactStore.get_index plus index_bytes calls per request"),
    # cli.serve
    "query_p50_ms": Move("queries_per_s", ALL,
                         "median client latency; per-layer, not end-to-end, "
                         "because the keep-alive stall makes latency bimodal "
                         "(~1 ms or ~43 ms per request) and the median flips "
                         "between the modes from run to run"),
    "serve.handler_p50_ms": Move("queries_per_s", ALL),
    "serve.handler_tail_ms": Move("query_tail_ms", ALL,
                                  "same percentile rule as query_tail_ms"),
    "serve.wait_p50_ms": Move("queries_per_s", ALL,
                              "client latency minus handler time: socket "
                              "and ACK wait"),
    # tracing itself
    "trace.overhead_frac": Move("", ALL,
                                "(traced - untraced) / untraced wall of one "
                                "kernel pass"),
}
