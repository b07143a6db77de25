"""Tests for the wireless channel and interface (PHY collision behaviour).

These tests drive the channel/interface pair directly with a minimal fake
MAC so the collision and carrier-sense semantics can be checked without
the full DCF machinery on top.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.mobility.base import MobilityModel, StaticMobility, Waypoint
from repro.mobility.random_waypoint import RandomWaypoint
from repro.net.channel import WirelessChannel
from repro.net.interface import WirelessInterface
from repro.net.node import Node
from repro.net.packet import Packet, PacketKind
from repro.net.propagation import RangePropagation
from repro.sim.engine import Simulator


class RecordingMac:
    """Minimal MAC stub recording everything the interface reports."""

    def __init__(self):
        self.received = []
        self.busy_transitions = 0
        self.idle_transitions = 0
        self.completed = []

    def receive_frame(self, packet, sender_id):
        self.received.append((packet, sender_id))

    def on_channel_busy(self):
        self.busy_transitions += 1

    def on_channel_idle(self):
        self.idle_transitions += 1

    def transmission_complete(self, packet):
        self.completed.append(packet)


def build(sim, positions, range_m=250.0, propagation=None):
    channel = WirelessChannel(sim, propagation or RangePropagation(range_m))
    nodes, macs = [], []
    for node_id, (x, y) in enumerate(positions):
        node = Node(sim, node_id, mobility=StaticMobility(x, y))
        interface = WirelessInterface(sim, node, channel)
        mac = RecordingMac()
        interface.attach_mac(mac)
        node.interface = interface
        nodes.append(node)
        macs.append(mac)
    return channel, nodes, macs


def frame(src=0, dst=1, size=500):
    packet = Packet(kind=PacketKind.UDP, src=src, dst=dst, size=size)
    packet.mac_src, packet.mac_dst = src, dst
    return packet


def test_in_range_receiver_gets_frame():
    sim = Simulator(seed=1)
    channel, nodes, macs = build(sim, [(0, 0), (100, 0), (600, 0)])
    nodes[0].interface.transmit(frame(), duration=0.01)
    sim.run()
    assert len(macs[1].received) == 1
    assert macs[1].received[0][1] == 0
    # Node 2 at 600 m is out of the 250 m range.
    assert macs[2].received == []


def test_sender_does_not_receive_own_frame():
    sim = Simulator(seed=1)
    channel, nodes, macs = build(sim, [(0, 0), (100, 0)])
    nodes[0].interface.transmit(frame(), duration=0.01)
    sim.run()
    assert macs[0].received == []


def test_overlapping_transmissions_collide_at_receiver():
    sim = Simulator(seed=1)
    # Nodes 0 and 2 are both in range of 1 but not of each other (hidden
    # terminals); their overlapping frames must both be lost at node 1.
    channel, nodes, macs = build(sim, [(0, 0), (200, 0), (400, 0)])
    sim.schedule(0.0, nodes[0].interface.transmit, frame(0, 1), 0.01)
    sim.schedule(0.005, nodes[2].interface.transmit, frame(2, 1), 0.01)
    sim.run()
    assert macs[1].received == []
    assert nodes[1].interface.frames_collided == 2


def test_non_overlapping_transmissions_both_received():
    sim = Simulator(seed=1)
    channel, nodes, macs = build(sim, [(0, 0), (200, 0), (400, 0)])
    sim.schedule(0.0, nodes[0].interface.transmit, frame(0, 1), 0.01)
    sim.schedule(0.02, nodes[2].interface.transmit, frame(2, 1), 0.01)
    sim.run()
    assert len(macs[1].received) == 2


def test_half_duplex_transmitting_node_misses_incoming():
    sim = Simulator(seed=1)
    channel, nodes, macs = build(sim, [(0, 0), (100, 0)])
    sim.schedule(0.0, nodes[0].interface.transmit, frame(0, 1), 0.02)
    sim.schedule(0.005, nodes[1].interface.transmit, frame(1, 0), 0.02)
    sim.run()
    # Node 1 started receiving node 0's frame but then transmitted itself,
    # corrupting the reception; node 0 was transmitting when node 1's frame
    # arrived, so it misses it as well.
    assert macs[1].received == []
    assert macs[0].received == []


def test_carrier_busy_during_reception_and_transmission():
    sim = Simulator(seed=1)
    channel, nodes, macs = build(sim, [(0, 0), (100, 0)])
    states = {}

    def probe(label):
        states[label] = (nodes[1].interface.carrier_busy(),
                         nodes[0].interface.is_transmitting)

    sim.schedule(0.0, nodes[0].interface.transmit, frame(0, 1), 0.01)
    sim.schedule(0.005, probe, "during")
    sim.schedule(0.02, probe, "after")
    sim.run()
    assert states["during"] == (True, True)
    assert states["after"] == (False, False)


def test_busy_and_idle_notifications_are_paired():
    sim = Simulator(seed=1)
    channel, nodes, macs = build(sim, [(0, 0), (100, 0)])
    nodes[0].interface.transmit(frame(0, 1), 0.01)
    sim.run()
    assert macs[1].busy_transitions == 1
    assert macs[1].idle_transitions == 1


def test_transmission_complete_reported_to_sender_mac():
    sim = Simulator(seed=1)
    channel, nodes, macs = build(sim, [(0, 0), (100, 0)])
    packet = frame(0, 1)
    nodes[0].interface.transmit(packet, 0.01)
    sim.run()
    assert len(macs[0].completed) == 1
    assert macs[0].completed[0].uid == packet.uid


def test_neighbors_of_reports_current_range():
    sim = Simulator(seed=1)
    channel, nodes, macs = build(sim, [(0, 0), (100, 0), (600, 0)])
    neighbors = channel.neighbors_of(nodes[0].interface)
    assert [iface.node.node_id for iface in neighbors] == [1]


def test_sense_only_interface_gets_carrier_busy_but_no_frame():
    """Regression: between decode range and detection range a node senses
    energy (carrier busy, then a collision drop) but never decodes the
    frame.  The transmit path used to misname the detection range as the
    decode limit; this pins the intended semantics down."""
    sim = Simulator(seed=1)
    propagation = RangePropagation(250.0, carrier_sense_factor=2.0)
    # Node 1 decodes (100 m); node 2 at 400 m is outside the 250 m decode
    # range but inside the 500 m detection range: sense-only.
    channel, nodes, macs = build(sim, [(0, 0), (100, 0), (400, 0)],
                                 propagation=propagation)
    nodes[0].interface.transmit(frame(), duration=0.01)
    sim.run()
    assert len(macs[1].received) == 1
    assert macs[2].received == []
    assert macs[2].busy_transitions == 1
    assert macs[2].idle_transitions == 1
    assert nodes[2].interface.frames_collided == 1


def test_beyond_detection_range_senses_nothing():
    sim = Simulator(seed=1)
    propagation = RangePropagation(250.0, carrier_sense_factor=2.0)
    channel, nodes, macs = build(sim, [(0, 0), (600, 0)],
                                 propagation=propagation)
    nodes[0].interface.transmit(frame(), duration=0.01)
    sim.run()
    assert macs[1].received == []
    assert macs[1].busy_transitions == 0
    assert nodes[1].interface.frames_collided == 0


def test_spatial_grid_delivers_across_cell_boundaries():
    """The grid index must not miss receivers that sit in a neighbouring
    cell, and must exclude nodes far outside the 3x3 block."""
    sim = Simulator(seed=1)
    # Cell size is 1.5x the 250 m range (375 m).  The sender at x=300
    # (cell 0) and receiver at x=500 (cell 1) straddle a cell boundary at
    # 200 m separation, well inside decode range: must be delivered.  The
    # node at x=2000 (cell 5) is outside the 3x3 block entirely.
    channel, nodes, macs = build(sim, [(300, 0), (500, 0), (2000, 0)])
    nodes[0].interface.transmit(frame(), duration=0.01)
    sim.run()
    assert len(macs[1].received) == 1
    assert macs[2].received == []
    assert channel.grid_rebuilds == 1


def test_spatial_grid_tracks_moving_nodes():
    """Once nodes could have moved farther than the slack margin the grid
    is rebuilt, so neighbours keep matching current positions."""

    class Teleport(StaticMobility):
        """Piecewise-static mobility: jumps to ``later`` after 100 s."""

        def __init__(self, x, y, later):
            super().__init__(x, y)
            self.later = later

        def position(self, time):
            return self.later if time >= 100.0 else super().position(time)

    sim = Simulator(seed=1)
    channel = WirelessChannel(sim, RangePropagation(250.0), max_node_speed=50.0)
    mobilities = [Teleport(0, 0, (5000, 0)), Teleport(100, 0, (5100, 0)),
                  Teleport(3000, 0, (5200, 0))]
    nodes = []
    for node_id, mobility in enumerate(mobilities):
        node = Node(sim, node_id, mobility=mobility)
        node.interface = WirelessInterface(sim, node, channel)
        node.interface.attach_mac(RecordingMac())
        nodes.append(node)
    # At t=0: nodes 0 and 1 are neighbours, node 2 is 3 km away.
    assert channel.neighbors_of(nodes[0].interface) == [nodes[1].interface]
    # Advance beyond every rebuild horizon, then teleport: all three now
    # cluster around x=5000 and must see each other.
    sim.schedule(150.0, lambda: None)
    sim.run()
    assert channel.neighbors_of(nodes[0].interface) == [nodes[1].interface,
                                                        nodes[2].interface]
    assert channel.grid_rebuilds >= 2


def test_receiver_gets_independent_packet_copy():
    sim = Simulator(seed=1)
    channel, nodes, macs = build(sim, [(0, 0), (100, 0), (150, 0)])
    packet = frame(0, 1)
    packet.set_header("route", {"path": [0, 1]})
    packet.mac_dst = -1  # broadcast so both neighbours decode it
    nodes[0].interface.transmit(packet, 0.01)
    sim.run()
    received_1 = macs[1].received[0][0]
    received_2 = macs[2].received[0][0]
    assert received_1 is not packet and received_2 is not packet
    received_1.get_header("route")["path"].append(99)
    assert received_2.get_header("route")["path"] == [0, 1]
    # The sender's own view is isolated from receiver mutations too.
    assert packet.get_header("route")["path"] == [0, 1]


def test_sense_only_receivers_share_frame_without_copy(monkeypatch):
    """Copy elision: receivers in the sense-only zone (between decode and
    detection range) never surface the frame to the MAC, so the channel
    must not pay a deep copy for them — only decodable receivers get one."""
    sim = Simulator(seed=1)
    propagation = RangePropagation(250.0, carrier_sense_factor=2.0)
    # Node 1 decodes (100 m); nodes 2 and 3 are sense-only (300/400 m).
    channel, nodes, macs = build(sim, [(0, 0), (100, 0), (300, 0), (400, 0)],
                                 propagation=propagation)
    copies = []
    original_copy = Packet.copy

    def counting_copy(self, new_uid=False):
        copies.append(self)
        return original_copy(self, new_uid)

    monkeypatch.setattr(Packet, "copy", counting_copy)
    nodes[0].interface.transmit(frame(), duration=0.01)
    sim.run()
    assert len(copies) == 1  # one decodable receiver, zero sense-only copies
    assert len(macs[1].received) == 1
    assert macs[2].received == [] and macs[3].received == []
    assert nodes[2].interface.frames_collided == 1
    assert nodes[3].interface.frames_collided == 1


def test_grid_stats_reports_occupancy_and_candidate_sizes():
    sim = Simulator(seed=1)
    # Cell size is 375 m: three nodes in one cell, one far away.
    channel, nodes, macs = build(sim, [(0, 0), (100, 0), (200, 0),
                                       (2000, 0)])
    nodes[0].interface.transmit(frame(), duration=0.01)
    sim.run()
    stats = channel.grid_stats()
    assert stats["interfaces"] == 4
    assert stats["cells_used"] == 2
    assert stats["max_occupancy"] == 3
    assert stats["mean_occupancy"] == 2.0
    assert stats["grid_rebuilds"] == 1
    assert stats["transmissions"] == 1
    # The sender's 3x3 block holds exactly the three clustered nodes.
    assert stats["mean_candidate_set"] == 3.0
    assert stats["max_candidate_set"] == 3


def test_grid_stats_before_any_transmission_is_all_zeros():
    sim = Simulator(seed=1)
    channel, nodes, macs = build(sim, [(0, 0), (100, 0)])
    stats = channel.grid_stats()
    assert stats["transmissions"] == 0
    assert stats["cells_used"] == 0
    assert stats["mean_candidate_set"] == 0.0
    assert stats["mean_occupancy"] == 0.0


# ---------------------------------------------------------------------- #
# small-field single-cell index + prefilter statistics
# ---------------------------------------------------------------------- #
def test_small_field_collapses_to_single_covering_cell():
    sim = Simulator(seed=1)
    channel = WirelessChannel(sim, RangePropagation(250.0),
                              field_size=(750.0, 750.0))
    nodes = []
    for node_id, (x, y) in enumerate([(0, 0), (100, 0), (700, 700),
                                      (375, 375)]):
        node = Node(sim, node_id, mobility=StaticMobility(x, y))
        node.interface = WirelessInterface(sim, node, channel)
        node.interface.attach_mac(RecordingMac())
        nodes.append(node)
    nodes[0].interface.transmit(frame(), duration=0.01)
    sim.run()
    stats = channel.grid_stats()
    # Cell size would be 375 m; a 3x3 block covers the whole 750 m field,
    # so the index must degenerate to one honest covering cell...
    assert stats["single_cell"] == 1.0
    assert stats["cells_used"] == 1
    assert stats["mean_candidate_set"] == 4.0
    # ...that never goes stale: no rebuilds beyond the first, ever.
    sim2_events = channel.grid_rebuilds
    nodes[1].interface.transmit(frame(src=1), duration=0.01)
    sim.run()
    assert channel.grid_rebuilds == sim2_events == 1


def test_prefilter_refines_candidates_on_small_field():
    sim = Simulator(seed=1)
    channel = WirelessChannel(sim, RangePropagation(250.0),
                              field_size=(750.0, 750.0))
    # Sender at a corner; two nodes nearby, two beyond the prefilter
    # radius (250 m plus a rounding margin).
    positions = [(0, 0), (100, 0), (0, 100), (700, 700), (600, 650)]
    nodes = []
    for node_id, (x, y) in enumerate(positions):
        node = Node(sim, node_id, mobility=StaticMobility(x, y))
        node.interface = WirelessInterface(sim, node, channel)
        node.interface.attach_mac(RecordingMac())
        nodes.append(node)
    nodes[0].interface.transmit(frame(), duration=0.01)
    sim.run()
    stats = channel.grid_stats()
    # All 5 are candidates (single covering cell), but the vectorized
    # distance prefilter must cut the exact evaluation down to the
    # in-radius trio (sender + the two neighbours).
    assert stats["mean_candidate_set"] == 5.0
    assert stats["mean_refined_set"] == 3.0
    assert stats["mean_refined_set"] < stats["mean_candidate_set"]
    assert stats["pos_refreshes"] >= 1
    # Delivery agrees with the exact geometry.
    assert nodes[1].interface.frames_received == 1
    assert nodes[2].interface.frames_received == 1
    assert nodes[3].interface.frames_received == 0


def test_smoke_like_scenario_uses_single_cell_grid():
    # Regression for the grid autosizing satellite: the smoke profile's
    # 750 m field with 250 m range used to build a 375 m-cell grid that
    # filtered nothing while paying rebuild + lookup overhead.
    from repro.bench.profiles import bench_profile

    case = bench_profile("tiny").cases[0]
    from repro.scenario.builder import ScenarioBuilder
    scenario = ScenarioBuilder(case.config).build()
    scenario.sim.run(until=2.0)
    stats = scenario.channel.grid_stats()
    if 2.0 * (250.0 * 1.5) >= max(case.config.field_size):
        assert stats["single_cell"] == 1.0
        assert stats["cells_used"] == 1
        assert stats["grid_rebuilds"] == 1
    # The prefilter must do real work regardless of the grid shape.
    assert stats["mean_refined_set"] <= stats["mean_candidate_set"]


# ---------------------------------------------------------------------- #
# scalar fallback for propagation models without in_range_many
# ---------------------------------------------------------------------- #
class ScalarOnlyDisc(RangePropagation):
    """A registry-style third-party model: scalar API only."""

    # Hide the parent's vectorized entry point: this is exactly what a
    # model written against the documented scalar ABC looks like.
    in_range_many = None
    delay_many = None

    def __init_subclass__(cls):  # pragma: no cover - defensive
        raise TypeError("test helper, do not subclass")


def _build_and_run(sim_seed, propagation):
    sim = Simulator(seed=sim_seed)
    channel = WirelessChannel(sim, propagation,
                              field_size=(750.0, 750.0))
    positions = [(0, 0), (100, 0), (0, 200), (240, 30), (700, 700)]
    nodes = []
    for node_id, (x, y) in enumerate(positions):
        node = Node(sim, node_id, mobility=StaticMobility(x, y))
        node.interface = WirelessInterface(sim, node, channel)
        node.interface.attach_mac(RecordingMac())
        nodes.append(node)
    nodes[0].interface.transmit(frame(), duration=0.01)
    sim.run()
    return [(node.interface.frames_received,
             node.interface.frames_collided,
             [(p.uid, s) for p, s in node.interface.mac.received])
            for node in nodes]


def test_scalar_only_model_falls_back_and_matches_vector_path():
    vector = _build_and_run(7, RangePropagation(250.0))
    scalar_model = ScalarOnlyDisc(250.0)
    assert getattr(scalar_model, "in_range_many") is None
    scalar = _build_and_run(7, scalar_model)
    # Same disc, same seed: the scalar fallback must reproduce the
    # vectorized path's deliveries receiver for receiver.
    assert [(r, c) for r, c, _ in scalar] == [(r, c) for r, c, _ in vector]


def test_registry_scalar_only_model_runs_end_to_end():
    from repro.registry import PROPAGATION
    from repro.scenario.builder import ScenarioBuilder
    from repro.scenario.config import ScenarioConfig

    name = "scalar_only_disc_test"
    PROPAGATION.register(
        name, lambda config, params: ScalarOnlyDisc(
            config.transmission_range),
        description="scalar-API-only disc (test)")
    try:
        config = ScenarioConfig.tiny(propagation_model=name)
        scenario = ScenarioBuilder(config).build()
        assert isinstance(scenario.channel.propagation, ScalarOnlyDisc)
        scenario.sim.run(until=3.0)
        assert scenario.sim.processed_events > 0
        assert scenario.channel.transmissions > 0
        # The equivalent built-in disc must produce the same workload.
        reference = ScenarioBuilder(
            ScenarioConfig.tiny(propagation_model="range")).build()
        reference.sim.run(until=3.0)
        assert scenario.sim.processed_events \
            == reference.sim.processed_events
        assert scenario.channel.transmissions \
            == reference.channel.transmissions
    finally:
        PROPAGATION._components.pop(name, None)


# ---------------------------------------------------------------------- #
# SoA kinematics: expiry refresh, rebuild invalidation
# ---------------------------------------------------------------------- #
class ScriptedSegments(MobilityModel):
    """Segment-providing mobility driven by an explicit waypoint list.

    The segments must tile time (each starts where the previous ends);
    the last one is extended to infinity.
    """

    def __init__(self, segments):
        self._segments = list(segments)
        last = self._segments[-1]
        self._segments[-1] = Waypoint(last.start_time, math.inf,
                                      last.start_pos, last.end_pos)

    def _index_at(self, time):
        for i in reversed(range(len(self._segments))):
            if self._segments[i].start_time <= time:
                return i
        return 0

    def position(self, time):
        return self._segments[self._index_at(time)].position(time)

    def segment_at(self, time):
        return self._segments[self._index_at(time)]


def _kin_build(sim, mobilities, range_m=250.0):
    channel = WirelessChannel(sim, RangePropagation(range_m),
                              max_node_speed=50.0)
    nodes, macs = [], []
    for node_id, mobility in enumerate(mobilities):
        node = Node(sim, node_id, mobility=mobility)
        node.interface = WirelessInterface(sim, node, channel)
        mac = RecordingMac()
        node.interface.attach_mac(mac)
        nodes.append(node)
        macs.append(mac)
    return channel, nodes, macs


def test_kinematics_refresh_crosses_segment_boundary_without_pushes():
    """An entry whose segment span ended must be refreshed from the
    mobility model: the walker leaves decode range at t=10 and later
    frames miss it."""
    sim = Simulator(seed=1)
    walker = ScriptedSegments([
        Waypoint(0.0, 10.0, (200.0, 0.0), (200.0, 0.0)),   # parked, in range
        Waypoint(10.0, 20.0, (200.0, 0.0), (700.0, 0.0)),  # walks away
        Waypoint(20.0, math.inf, (700.0, 0.0), (700.0, 0.0)),
    ])
    channel, nodes, macs = _kin_build(
        sim, [StaticMobility(0.0, 0.0), walker])
    sim.schedule(1.0, lambda: nodes[0].interface.transmit(frame(), 0.01))
    sim.schedule(19.0, lambda: nodes[0].interface.transmit(frame(), 0.01))
    sim.run()
    assert channel.grid_stats()["kinematics_mode"] == 1.0
    # t=1: walker parked at 200 m -> delivered.  t=19: the walker is at
    # 650 m; its t<10 entry expired, so only the expiry sweep can have
    # reloaded the covering segment.
    assert len(macs[1].received) == 1


def test_kinematics_entries_equal_segment_at_in_high_mobility_cell():
    """Builds plus the expiry sweep are the only writers of the SoA
    kinematics: on a high_mobility random-waypoint cell, right after
    each transmission every entry equals the model's ``segment_at(now)``
    and covers ``now``."""
    from repro.experiments.sweep import SweepSettings
    from repro.scenario.builder import ScenarioBuilder

    config = SweepSettings.high_mobility().cell_configs()[0].replace(
        sim_time=4.0)
    scenario = ScenarioBuilder(config).build()
    channel = scenario.channel
    transmit = channel.transmit
    sample_times = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5]
    sampled = []

    def checked_transmit(*args, **kwargs):
        transmit(*args, **kwargs)
        now = scenario.sim.now
        if not sample_times or now < sample_times[0]:
            return
        while sample_times and now >= sample_times[0]:
            sample_times.pop(0)
        for index, interface in enumerate(channel._interfaces):
            segment = interface.node.mobility.segment_at(now)
            entry = (channel._kin_st[index], channel._kin_et[index],
                     channel._kin_sx[index], channel._kin_sy[index],
                     channel._kin_ex[index], channel._kin_ey[index])
            assert entry == (segment.start_time, segment.end_time,
                             *segment.start_pos, *segment.end_pos)
            assert entry[0] <= now < entry[1]
            assert channel._kin_t0[index] == segment.start_time
            assert channel._kin_ox[index] == segment.start_pos[0]
            assert channel._kin_oy[index] == segment.start_pos[1]
            assert channel._kin_et_arr[index] == segment.end_time
        sampled.append(now)

    channel.transmit = checked_transmit
    scenario.sim.run(until=config.sim_time)
    assert len(sampled) >= 5
    # Segments expired and were reloaded between builds.
    assert channel.snapshot_invalidations \
        > channel.pos_refreshes * config.n_nodes


def test_kinematics_entry_reloaded_only_when_its_segment_ends():
    """Nothing writes the SoA kinematics while they are torn down, and a
    model's later segments never replace the entry covering ``now``
    early: the expiry sweep reloads an entry once its span has ended."""
    sim = Simulator(seed=1)
    parked = Waypoint(0.0, 10.0, (200.0, 0.0), (200.0, 0.0))
    walking = Waypoint(10.0, 20.0, (200.0, 0.0), (700.0, 0.0))
    walker = ScriptedSegments([
        parked, walking,
        Waypoint(20.0, math.inf, (700.0, 0.0), (700.0, 0.0)),
    ])
    channel, nodes, macs = _kin_build(
        sim, [StaticMobility(0.0, 0.0), walker])
    assert channel.grid_stats()["kinematics_mode"] == 0.0
    assert channel.snapshot_invalidations == 0

    def walker_entry():
        return (channel._kin_st[1], channel._kin_et[1],
                channel._kin_sx[1], channel._kin_sy[1],
                channel._kin_ex[1], channel._kin_ey[1])

    seen = []
    for at in (1.0, 5.0, 9.0, 11.0):
        sim.schedule(at, lambda: nodes[0].interface.transmit(frame(), 0.01))
        sim.schedule(at + 0.5, lambda: seen.append(
            (channel.snapshot_invalidations, walker_entry())))
    sim.run()
    in_parked = (2, (0.0, 10.0, 200.0, 0.0, 200.0, 0.0))
    # One build over both nodes; the parked entry stays until t=10...
    assert seen[:3] == [in_parked] * 3
    # ...then the expiry sweep reloads the walker's entry alone.
    assert seen[3] == (3, (10.0, 20.0, 200.0, 0.0, 700.0, 0.0))
    assert channel.pos_refreshes == 1


def test_register_mid_run_invalidates_and_rebuilds_kinematics():
    sim = Simulator(seed=1)
    channel, nodes, macs = _kin_build(
        sim, [StaticMobility(0.0, 0.0), StaticMobility(100.0, 0.0)])
    nodes[0].interface.transmit(frame(0, 1), 0.01)
    sim.run()
    assert channel.grid_stats()["kinematics_mode"] == 1.0
    # Registering a new interface tears the SoA state down...
    node = Node(sim, 2, mobility=StaticMobility(150.0, 0.0))
    node.interface = WirelessInterface(sim, node, channel)
    mac = RecordingMac()
    node.interface.attach_mac(mac)
    assert channel.grid_stats()["kinematics_mode"] == 0.0
    # ...and the next transmission rebuilds it over all three nodes: a
    # broadcast reaches the late joiner.
    packet = frame(0, 1)
    packet.mac_dst = -1
    nodes[0].interface.transmit(packet, 0.01)
    sim.run()
    assert channel.grid_stats()["kinematics_mode"] == 1.0
    assert len(mac.received) == 1


def test_mobility_without_segment_at_fails_at_instantiation():
    """segment_at is part of the MobilityModel contract: a positions-only
    model cannot be built, so the channel never needs a fallback."""
    class OrbitingMobility(MobilityModel):
        """Positions only, no trajectory segments."""

        def position(self, time):
            return (200.0 + 10.0 * math.sin(time), 0.0)

    with pytest.raises(TypeError, match="OrbitingMobility.*segment_at"):
        OrbitingMobility()


def test_grid_stats_prefilter_counters_in_kinematics_mode():
    sim = Simulator(seed=1)
    channel, nodes, macs = _kin_build(
        sim, [StaticMobility(0.0, 0.0), StaticMobility(100.0, 0.0),
              StaticMobility(200.0, 0.0), StaticMobility(2000.0, 0.0)])
    nodes[0].interface.transmit(frame(), 0.01)
    sim.run()
    stats = channel.grid_stats()
    assert stats["kinematics_mode"] == 1.0
    # Build wrote one entry per interface.
    assert stats["snapshot_invalidations"] == 4.0
    # Three candidates in the sender's block, all three survive the
    # exact-distance prefilter (they really are within reach).
    assert stats["mean_candidate_set"] == 3.0
    assert stats["mean_refined_set"] == 3.0
    assert stats["prefilter_hit_rate"] == 1.0


# ---------------------------------------------------------------------- #
# scalar and numpy paths agree with a brute-force scan
# ---------------------------------------------------------------------- #
class SpyDisc(RangePropagation):
    """Disc with a 400 m sense range that records the stage-4 inputs."""

    def __init__(self):
        super().__init__(250.0, carrier_sense_factor=1.6)
        self.distances = []
        self.scalar_calls = 0
        self.vector_calls = 0

    def in_range(self, distance, rng=None):
        self.scalar_calls += 1
        self.distances.append(distance)
        return super().in_range(distance, rng)

    def in_range_many(self, distances, rng=None):
        self.vector_calls += 1
        self.distances.extend(distances.tolist())
        return super().in_range_many(distances, rng)


_AGREEMENT_NODES = 70
_AGREEMENT_TX = 60
_BEGIN_RECEPTION = WirelessInterface.begin_reception


def _agreement_run(monkeypatch, field, moving, prefilter_min, vector_min):
    """Run a fixed transmission schedule under forced crossovers.

    Returns what the channel scheduled and delivered, plus the brute-force
    expectation computed from the mobility models after the run.
    """
    monkeypatch.setattr(WirelessChannel, "_KIN_PREFILTER_VECTOR_MIN",
                        prefilter_min)
    monkeypatch.setattr(WirelessChannel, "_VECTOR_MIN_RECEIVERS", vector_min)
    sim = Simulator(seed=3)
    propagation = SpyDisc()
    channel = WirelessChannel(sim, propagation, max_node_speed=20.0,
                              field_size=field)
    layout = np.random.default_rng(11)
    nodes = []
    for node_id in range(_AGREEMENT_NODES):
        if moving:
            mobility = RandomWaypoint(
                np.random.default_rng(100 + node_id), field_size=field,
                max_speed=20.0, min_speed=1.0, pause_time=0.5)
        else:
            mobility = StaticMobility(layout.uniform(0, field[0]),
                                      layout.uniform(0, field[1]))
        node = Node(sim, node_id, mobility=mobility)
        node.interface = WirelessInterface(sim, node, channel)
        node.interface.attach_mac(RecordingMac())
        nodes.append(node)

    transmissions, scheduled, delivered = [], [], []
    real_fire_many = sim.schedule_fire_many

    def record_fire_many(items):
        scheduled.append([(callback.__self__.node.node_id, delay, args[2])
                          for delay, callback, args in items])
        real_fire_many(items)

    sim.schedule_fire_many = record_fire_many

    def record_begin(self, packet, duration, decodable, sender_id):
        delivered.append((sim.now, self.node.node_id, sender_id, decodable))
        _BEGIN_RECEPTION(self, packet, duration, decodable, sender_id)

    monkeypatch.setattr(WirelessInterface, "begin_reception", record_begin)

    def send(sender):
        transmissions.append((sim.now, sender))
        packet = frame(sender, -1)
        packet.mac_dst = -1
        nodes[sender].interface.transmit(packet, 1e-4)

    for k in range(_AGREEMENT_TX):
        sim.schedule(0.25 + 0.5 * k, send, (17 * k) % _AGREEMENT_NODES)
    sim.run()

    # Brute force: every other node in registration order, exact
    # math.hypot on the mobility models' own positions.
    detect = propagation.detection_range()
    exp_distances, exp_scheduled, exp_delivered = [], [], []
    for now, sender in transmissions:
        sx, sy = nodes[sender].mobility.position(now)
        in_reach = []
        for node in nodes:
            if node.node_id == sender:
                continue
            x, y = node.mobility.position(now)
            d = math.hypot(x - sx, y - sy)
            if d <= detect:
                in_reach.append((node.node_id, d))
        exp_distances.extend(d for _, d in in_reach)
        if in_reach:
            exp_scheduled.append([(i, propagation.delay(d), d <= 250.0)
                                  for i, d in in_reach])
        exp_delivered.extend(sorted(
            (float(now + propagation.delay(d)), i, sender, d <= 250.0)
            for i, d in in_reach))
    return {
        "channel": channel,
        "propagation": propagation,
        "observed": (propagation.distances, scheduled, delivered),
        "expected": (exp_distances, exp_scheduled, exp_delivered),
    }


@pytest.mark.parametrize("moving", [False, True], ids=["static", "waypoint"])
@pytest.mark.parametrize("field", [(1000.0, 1000.0), (3000.0, 3000.0)],
                         ids=["single_cell", "gridded"])
def test_prefilter_and_reception_paths_agree_with_brute_force(
        monkeypatch, field, moving):
    """Both prefilter paths (fused scalar loop, numpy pass) and both
    stage-4 paths (scalar, in_range_many) yield the same receivers,
    distances and delivery order as an exact scan over every node."""
    above = _AGREEMENT_NODES + 1
    runs = {}
    for prefilter_min in (0, above):
        for vector_min in (0, above):
            run = _agreement_run(monkeypatch, field, moving,
                                 prefilter_min, vector_min)
            assert run["observed"] == run["expected"]
            stats = run["channel"].grid_stats()
            assert stats["single_cell"] == float(field[0] <= 1000.0)
            assert stats["transmissions"] == _AGREEMENT_TX
            propagation = run["propagation"]
            if vector_min == 0:
                assert propagation.scalar_calls == 0
                assert propagation.vector_calls > 0
            else:
                assert propagation.vector_calls == 0
                assert propagation.scalar_calls > 0
            runs[prefilter_min, vector_min] = run["observed"]
    first = runs[0, 0]
    assert all(observed == first for observed in runs.values())
    # The schedule exercises sense-only and decodable receivers alike.
    decodable = [flag for _, _, _, flag in first[2]]
    assert any(decodable) and not all(decodable)
