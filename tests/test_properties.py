"""Property-based tests (hypothesis + seeded random generators).

Besides the hypothesis invariants for the core data structures, this
module holds a differential test of the event engine against a
one-entry-per-event reference heap, and the randomized JSON round-trip
suite for every artifact that crosses a process boundary —
:class:`ScenarioConfig`, :class:`ScenarioResult`, :class:`SweepSettings`
and :class:`SweepShard`.  Both use hand-rolled ``random.Random(seed)`` generators (one seed per
parametrized case) instead of hypothesis so the exact inputs are
reproducible from the test id alone — the same discipline as the
simulator's named RNG streams.
"""

from __future__ import annotations

import heapq
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.checking import SourceRouteSelector
from repro.core.disjoint import differ_in_first_and_last_hop, is_valid_path
from repro.core.paths import PathSet
from repro.exec import ShardSpec, SweepShard, config_key
from repro.experiments.sweep import SweepSettings
from repro.metrics.relay import normalize_relay_counts, relay_share_std
from repro.metrics.security import highest_interception_ratio, interception_ratio
from repro.mobility.random_waypoint import RandomWaypoint
from repro.scenario.config import (
    SUPPORTED_MOBILITY,
    SUPPORTED_PROTOCOLS,
    ScenarioConfig,
)
from repro.scenario.results import ScenarioResult
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.transport.rto import RtoEstimator

import numpy as np


# --------------------------------------------------------------------------- #
# simulation engine
# --------------------------------------------------------------------------- #
@given(st.lists(st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
                min_size=1, max_size=60))
@settings(max_examples=60, deadline=None)
def test_engine_fires_events_in_nondecreasing_time_order(delays):
    sim = Simulator(seed=1)
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(sim.now))
    sim.run()
    assert len(fired) == len(delays)
    assert fired == sorted(fired)
    assert sim.now == max(fired)


class _ReferenceHeap:
    """The order the engine promises, one ``(time, seq)`` entry per event."""

    def __init__(self):
        self.now, self.heap, self.seq, self.stopped = 0.0, [], 0, False
        self.cancelled = set()

    def schedule_at(self, time, callback, *args):
        self.seq += 1
        heapq.heappush(self.heap, (float(time), self.seq, callback, args))
        seq = self.seq
        return SimpleNamespace(cancel=lambda: self.cancelled.add(seq))

    def schedule(self, delay, callback, *args):
        return self.schedule_at(self.now + delay, callback, *args)

    schedule_fire = schedule

    def schedule_fire_many(self, entries):
        for delay, callback, args in entries:
            self.schedule(delay, callback, *args)

    def stop(self):
        self.stopped = True

    def run(self, until=None):
        self.stopped = False
        while self.heap:
            if self.stopped:
                return
            time, seq, callback, args = self.heap[0]
            if until is not None and time > until:
                break
            heapq.heappop(self.heap)
            if seq not in self.cancelled:
                self.now = time
                callback(*args)
        if until is not None:
            self.now = until


def _random_event_program(rng: random.Random, budget: int = 80):
    """Map each event label to the operations it runs when it fires.

    Label 0 is the set-up run before the first ``run()``.  Delays come
    from a four-value set, so equal times (and equal delays within one
    fan-out) are common.
    """
    program, cancellable, queue, labels = {}, [], [0], 1
    weights = {"schedule": 4, "schedule_at": 2, "fire": 3, "fire_many": 3,
               "cancel": 4, "stop": 1}
    while queue:
        label = queue.pop(0)
        ops = []
        for _ in range(8 if label == 0 else rng.randrange(4)):
            kind = rng.choices(list(weights), list(weights.values()))[0]
            if kind == "cancel":
                if cancellable:
                    ops.append(("cancel", rng.choice(cancellable)))
                continue
            if kind == "stop":
                ops.append(("stop",))
                continue
            size = rng.randrange(5) if kind == "fire_many" else 1
            if labels + size > budget:
                continue
            children = list(range(labels, labels + size))
            labels += size
            queue.extend(children)
            delays = [rng.randrange(4) * 0.5 for _ in children]
            if kind == "fire_many":
                ops.append((kind, list(zip(delays, children))))
            else:
                ops.append((kind, delays[0], children[0]))
                if kind in ("schedule", "schedule_at"):
                    cancellable.append(children[0])
        program[label] = ops
    return program


def _play(sim, program, slices):
    """Run ``program`` on ``sim``; return the fired labels and clocks."""
    log, handles, stopped = [], {}, []

    def fire(label):
        log.append((label, sim.now))
        for op in program[label]:
            kind = op[0]
            if kind == "schedule":
                handles[op[2]] = sim.schedule(op[1], fire, op[2])
            elif kind == "schedule_at":
                handles[op[2]] = sim.schedule_at(sim.now + op[1], fire, op[2])
            elif kind == "fire":
                sim.schedule_fire(op[1], fire, op[2])
            elif kind == "fire_many":
                sim.schedule_fire_many([(delay, fire, (child,))
                                        for delay, child in op[1]])
            elif kind == "cancel":
                if op[1] in handles:
                    handles[op[1]].cancel()
            else:
                stopped.append(True)
                sim.stop()

    fire(0)
    for until in slices:
        stopped.clear()
        sim.run(until)
        # After a stop() the clock is left at the stopping event, or moved
        # to ``until`` when the heap holds nothing at all; compaction
        # decides the latter, so only unstopped slices pin the clock.
        log.append(("slice", None if stopped else sim.now))
    return log


@pytest.mark.parametrize("seed", range(40))
def test_engine_matches_one_entry_per_event_reference(seed):
    """Grouped fan-outs, lazy cancellation and heap compaction never
    change the firing order of a one-entry-per-event heap."""
    rng = random.Random(seed)
    program = _random_event_program(rng)
    slices = sorted(rng.randrange(12) * 0.5
                    for _ in range(rng.randrange(1, 6)))
    slices.append(None)
    slices.extend([None] * 6)  # resume after stop()s in the last slice
    sim = Simulator(seed=1)
    if seed % 2:
        sim._COMPACT_MIN_GARBAGE = 1
    expected = _play(_ReferenceHeap(), program, slices)
    assert _play(sim, program, slices) == expected
    assert sum(label != "slice" for label, _ in expected) > 1


@given(st.integers(min_value=0, max_value=2 ** 32),
       st.text(alphabet="abcdefgh", min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_rng_streams_are_reproducible(seed, name):
    a = RngRegistry(seed).stream(name).random(4).tolist()
    b = RngRegistry(seed).stream(name).random(4).tolist()
    assert a == b


# --------------------------------------------------------------------------- #
# mobility
# --------------------------------------------------------------------------- #
@given(seed=st.integers(min_value=0, max_value=10_000),
       max_speed=st.floats(min_value=0.5, max_value=30.0),
       time=st.floats(min_value=0.0, max_value=500.0))
@settings(max_examples=60, deadline=None)
def test_random_waypoint_positions_always_inside_field(seed, max_speed, time):
    model = RandomWaypoint(np.random.default_rng(seed),
                           field_size=(600.0, 400.0), max_speed=max_speed)
    x, y = model.position(time)
    assert 0.0 <= x <= 600.0
    assert 0.0 <= y <= 400.0


# --------------------------------------------------------------------------- #
# MTS path store / disjointness
# --------------------------------------------------------------------------- #
paths_strategy = st.lists(
    st.lists(st.integers(min_value=1, max_value=30), min_size=0, max_size=6),
    min_size=0, max_size=12,
)


@given(paths_strategy)
@settings(max_examples=80, deadline=None)
def test_pathset_stores_only_pairwise_disjoint_valid_paths(candidate_interiors):
    store = PathSet(max_paths=5)
    for interior in candidate_interiors:
        path = [0] + interior + [99]
        store.try_add(path, now=1.0, broadcast_id=1)
    stored = store.paths()
    assert len(stored) <= 5
    for path in stored:
        assert is_valid_path(path)
        assert path[0] == 0 and path[-1] == 99
    for i, path_a in enumerate(stored):
        for path_b in stored[i + 1:]:
            assert differ_in_first_and_last_hop(path_a, path_b)


@given(st.lists(st.integers(min_value=1, max_value=20), min_size=2, max_size=6,
                unique=True),
       st.lists(st.integers(min_value=21, max_value=40), min_size=2,
                max_size=6, unique=True))
@settings(max_examples=60, deadline=None)
def test_disjoint_rule_is_symmetric(interior_a, interior_b):
    path_a = [0] + interior_a + [99]
    path_b = [0] + interior_b + [99]
    assert (differ_in_first_and_last_hop(path_a, path_b)
            == differ_in_first_and_last_hop(path_b, path_a))


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=50),
                          st.integers(min_value=0, max_value=1000)),
                min_size=1, max_size=30))
@settings(max_examples=80, deadline=None)
def test_selector_active_path_tracks_newest_round(offers):
    selector = SourceRouteSelector()
    best_seen = -1
    for node, check_id in offers:
        path = [0, node + 100, 999]
        accepted = selector.offer_check(path, check_id, now=float(check_id))
        if check_id > best_seen:
            assert accepted
            best_seen = check_id
            assert selector.active_path == tuple(path)
        else:
            assert not accepted
    assert selector.last_check_id == best_seen


# --------------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------------- #
@given(st.dictionaries(st.integers(min_value=0, max_value=60),
                       st.integers(min_value=0, max_value=10_000),
                       max_size=40))
@settings(max_examples=80, deadline=None)
def test_relay_normalization_invariants(counts):
    norm = normalize_relay_counts(counts)
    assert norm.alpha == sum(v for v in counts.values() if v > 0)
    if norm.alpha > 0:
        assert math.isclose(sum(norm.gamma.values()), 1.0, rel_tol=1e-9)
        assert all(0.0 < share <= 1.0 for share in norm.gamma.values())
        # The standard deviation of values in [0, 1] is bounded by 0.5.
        assert 0.0 <= norm.std <= 0.5 + 1e-9
    else:
        assert norm.std == 0.0


@given(st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                min_size=0, max_size=50))
@settings(max_examples=60, deadline=None)
def test_relay_share_std_nonnegative_and_zero_for_uniform(shares):
    assert relay_share_std(shares) >= 0.0
    if shares:
        uniform = [1.0 / len(shares)] * len(shares)
        assert relay_share_std(uniform) <= 1e-12


@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=0, max_value=10_000))
@settings(max_examples=80, deadline=None)
def test_interception_ratio_bounds(pe, pr):
    ratio = interception_ratio(pe, pr)
    assert ratio >= 0.0
    if pr > 0 and pe <= pr:
        assert ratio <= 1.0


@given(st.dictionaries(st.integers(min_value=0, max_value=30),
                       st.integers(min_value=0, max_value=500), max_size=20),
       st.integers(min_value=1, max_value=500))
@settings(max_examples=60, deadline=None)
def test_highest_interception_dominates_every_node(counts, pr):
    highest = highest_interception_ratio(counts, pr)
    for count in counts.values():
        assert highest >= count / pr - 1e-12


# --------------------------------------------------------------------------- #
# randomized JSON round trips (seeded generators, reproducible per test id)
# --------------------------------------------------------------------------- #
def _random_config(rng: random.Random) -> ScenarioConfig:
    """A random *valid* scenario configuration."""
    n_nodes = rng.randint(4, 40)
    mobility = rng.choice(SUPPORTED_MOBILITY)
    params = dict(
        protocol=rng.choice(SUPPORTED_PROTOCOLS),
        n_nodes=n_nodes,
        field_size=(rng.uniform(300.0, 2000.0), rng.uniform(300.0, 2000.0)),
        mobility_model=mobility,
        max_speed=rng.uniform(0.5, 25.0),
        min_speed=rng.uniform(0.0, 0.5),
        pause_time=rng.uniform(0.0, 5.0),
        transmission_range=rng.uniform(100.0, 400.0),
        queue_capacity=rng.randint(5, 100),
        mac_retry_limit=rng.randint(1, 10),
        use_rts_cts=rng.random() < 0.5,
        traffic_start=rng.uniform(0.0, 3.0),
        tcp_packet_size=rng.randint(100, 1500),
        tcp_window=rng.randint(1, 32),
        with_eavesdropper=rng.random() < 0.7,
        mts_check_interval=rng.uniform(0.5, 10.0),
        mts_max_paths=rng.randint(1, 8),
        mts_strict_disjoint=rng.random() < 0.5,
        sim_time=rng.uniform(1.0, 100.0),
        seed=rng.randint(0, 2 ** 31),
        trace=rng.random() < 0.5,
    )
    if rng.random() < 0.4:
        flows = []
        for _ in range(rng.randint(1, min(4, n_nodes // 2))):
            src = rng.randrange(n_nodes)
            dst = rng.randrange(n_nodes)
            if src != dst:
                flows.append((src, dst))
        if flows:
            params["flows"] = flows
    else:
        params["n_flows"] = rng.randint(1, n_nodes // 2)
    if rng.random() < 0.5:
        params["eavesdropper_node"] = rng.randrange(n_nodes)
    if mobility == "static" and rng.random() < 0.7:
        params["static_positions"] = [
            (rng.uniform(0.0, 500.0), rng.uniform(0.0, 500.0))
            for _ in range(n_nodes)]
    # Registry-resolved stack axes (PR 5): exercised with the same
    # probability mix so the round-trip suite covers nested *_params.
    if rng.random() < 0.5:
        propagation = rng.choice(("range", "two_ray",
                                  "log_distance_shadowing"))
        params["propagation_model"] = propagation
        if propagation == "log_distance_shadowing" and rng.random() < 0.7:
            params["propagation_params"] = {
                "path_loss_exponent": rng.uniform(2.0, 4.0),
                "sigma_db": rng.uniform(0.0, 8.0)}
        elif propagation == "range" and rng.random() < 0.5:
            params["propagation_params"] = {
                "carrier_sense_factor": rng.uniform(1.0, 2.0)}
    if rng.random() < 0.3:
        params["transport_model"] = "udp"
        params["app_model"] = "cbr"
        if rng.random() < 0.5:
            params["app_params"] = {"interval": rng.uniform(0.05, 1.0),
                                    "packet_size": rng.randint(64, 1024)}
    if rng.random() < 0.3:
        params["routing_params"] = {"flood_cache_timeout":
                                    rng.uniform(1.0, 30.0)}
    return ScenarioConfig(**params)


def _random_result(rng: random.Random) -> ScenarioResult:
    """A random (not necessarily physical) result record."""
    n_nodes = rng.randint(4, 40)
    return ScenarioResult(
        protocol=rng.choice(SUPPORTED_PROTOCOLS),
        seed=rng.randint(0, 2 ** 31),
        max_speed=rng.uniform(0.5, 25.0),
        sim_time=rng.uniform(1.0, 200.0),
        flows=[(rng.randrange(n_nodes), rng.randrange(n_nodes))
               for _ in range(rng.randint(1, 4))],
        eavesdropper_node=(rng.randrange(n_nodes)
                           if rng.random() < 0.7 else None),
        participating_nodes=rng.randint(0, n_nodes),
        relay_std=rng.uniform(0.0, 0.5),
        relay_counts={rng.randrange(n_nodes): rng.randint(0, 10_000)
                      for _ in range(rng.randint(0, n_nodes))},
        packets_eavesdropped=rng.randint(0, 10_000),
        packets_received=rng.randint(0, 10_000),
        interception_ratio=rng.uniform(0.0, 1.0),
        highest_interception_ratio=rng.uniform(0.0, 1.0),
        mean_delay=rng.uniform(0.0, 5.0),
        throughput_segments=rng.randint(0, 50_000),
        throughput_kbps=rng.uniform(0.0, 2000.0),
        delivery_rate=rng.uniform(0.0, 1.0),
        control_overhead=rng.randint(0, 100_000),
        sender_stats=[{"segments_sent": float(rng.randint(0, 1000)),
                       "rtx": rng.uniform(0.0, 100.0)}
                      for _ in range(rng.randint(0, 3))],
        sink_stats=[{"segments_received": float(rng.randint(0, 1000))}
                    for _ in range(rng.randint(0, 3))],
        control_by_kind={kind: rng.randint(0, 5000)
                         for kind in rng.sample(("RREQ", "RREP", "RERR",
                                                 "CHECK"),
                                                rng.randint(0, 4))},
        events_processed=rng.randint(0, 10 ** 7),
    )


def _random_settings(rng: random.Random) -> SweepSettings:
    """A random sweep grid definition (never simulated here)."""
    protocols = tuple(rng.sample(SUPPORTED_PROTOCOLS,
                                 rng.randint(1, len(SUPPORTED_PROTOCOLS))))
    overrides = {}
    if rng.random() < 0.7:
        overrides["sim_time"] = rng.uniform(1.0, 50.0)
    if rng.random() < 0.7:
        overrides["n_nodes"] = rng.randint(4, 60)
    if rng.random() < 0.5:
        overrides["field_size"] = (rng.uniform(300.0, 2000.0),
                                   rng.uniform(300.0, 2000.0))
    return SweepSettings(
        protocols=protocols,
        speeds=tuple(sorted(rng.uniform(0.5, 25.0)
                            for _ in range(rng.randint(1, 5)))),
        replications=rng.randint(1, 5),
        base_seed=rng.randint(0, 10_000),
        config_overrides=overrides,
    )


@pytest.mark.parametrize("seed", range(30))
def test_random_config_round_trips_with_stable_key(seed):
    config = _random_config(random.Random(seed))
    restored = ScenarioConfig.from_json(config.to_json())
    assert restored == config
    assert config_key(restored) == config_key(config)
    # The cache key must ignore trace (logging-only) but nothing else.
    assert config_key(config.replace(trace=not config.trace)) \
        == config_key(config)
    assert config_key(config.replace(seed=config.seed + 1)) \
        != config_key(config)


def test_stack_fields_round_trip_and_fold_into_config_key():
    """The PR-5 stack axes must survive JSON and shift the cache key."""
    base = ScenarioConfig.tiny()
    shadowed = base.replace(
        propagation_model="log_distance_shadowing",
        propagation_params={"path_loss_exponent": 2.7, "sigma_db": 4.0})
    restored = ScenarioConfig.from_json(shadowed.to_json())
    assert restored == shadowed
    assert config_key(restored) == config_key(shadowed)
    # Every stack axis is part of the simulation's identity: changing
    # the model or its params must change the cache key.
    assert config_key(shadowed) != config_key(base)
    assert config_key(shadowed.replace(
        propagation_params={"path_loss_exponent": 2.7, "sigma_db": 6.0})) \
        != config_key(shadowed)
    assert config_key(base.replace(propagation_model="two_ray")) \
        != config_key(base)
    udp = base.replace(transport_model="udp", app_model="cbr")
    assert config_key(udp) != config_key(base)
    # ...while a default-valued explicit dict is the same simulation.
    assert config_key(base.replace(propagation_params={})) \
        == config_key(base)
    assert config_key(base.replace(routing_params={})) == config_key(base)


@pytest.mark.parametrize("seed", range(30))
def test_random_result_round_trips_exactly(seed):
    result = _random_result(random.Random(seed))
    restored = ScenarioResult.from_json(result.to_json())
    assert restored == result
    assert all(isinstance(node, int) for node in restored.relay_counts)
    assert all(isinstance(flow, tuple) for flow in restored.flows)


@pytest.mark.parametrize("seed", range(20))
def test_random_settings_round_trip_preserves_grid_and_keys(seed):
    sweep_settings = _random_settings(random.Random(seed))
    restored = SweepSettings.from_json(sweep_settings.to_json())
    assert restored == sweep_settings
    assert restored.grid() == sweep_settings.grid()
    # Cache keys — hence shard plans — survive the JSON trip unchanged.
    assert [config_key(config) for config in restored.cell_configs()] \
        == [config_key(config) for config in sweep_settings.cell_configs()]


@pytest.mark.parametrize("seed", range(20))
def test_random_shard_artifact_round_trips_exactly(seed):
    rng = random.Random(seed)
    sweep_settings = _random_settings(rng)
    grid_size = len(sweep_settings.grid())
    count = rng.randint(1, 4)
    piece = SweepShard(
        settings=sweep_settings,
        shard=ShardSpec(index=rng.randrange(count), count=count),
        results={index: _random_result(rng)
                 for index in rng.sample(range(grid_size),
                                         rng.randint(0, grid_size))},
    )
    restored = SweepShard.from_json(piece.to_json())
    assert restored.settings == piece.settings
    assert restored.shard == piece.shard
    assert restored.results == piece.results


# --------------------------------------------------------------------------- #
# TCP RTO estimator
# --------------------------------------------------------------------------- #
@given(st.lists(st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
                min_size=1, max_size=60))
@settings(max_examples=60, deadline=None)
def test_rto_always_within_configured_bounds(samples):
    rto = RtoEstimator(min_rto=0.2, max_rto=60.0)
    for sample in samples:
        rto.update(sample)
        assert 0.2 <= rto.timeout() <= 60.0
    rto.backoff()
    assert 0.2 <= rto.timeout() <= 60.0


@given(st.lists(st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
                min_size=2, max_size=40))
@settings(max_examples=60, deadline=None)
def test_rto_exceeds_smoothed_rtt(samples):
    """The timeout must never undercut the smoothed RTT estimate."""
    rto = RtoEstimator(min_rto=1e-6, max_rto=1e6)
    for sample in samples:
        rto.update(sample)
    assert rto.timeout() >= rto.srtt
