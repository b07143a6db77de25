"""End-to-end integration tests: full scenarios with TCP, mobility and the
eavesdropper, for every routing protocol."""

from __future__ import annotations

import pytest

from repro.scenario.config import ScenarioConfig
from repro.scenario.runner import build_scenario, run_scenario

ALL_PROTOCOLS = ["MTS", "DSR", "AODV"]


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_tcp_transfer_completes_over_mobile_network(protocol):
    """Every protocol must deliver a useful amount of TCP traffic."""
    config = ScenarioConfig.tiny(protocol=protocol, sim_time=10.0, seed=5)
    result = run_scenario(config)
    assert result.throughput_segments > 50, (
        f"{protocol} moved almost no TCP traffic: {result.throughput_segments}")
    assert result.delivery_rate > 0.5
    assert result.mean_delay > 0.0
    assert result.control_overhead > 0


@pytest.mark.parametrize("protocol", ["MTS", "DSR", "AODV"])
def test_multi_hop_flow_uses_relays(protocol):
    """A far-apart flow must be carried by intermediate nodes."""
    # Static topology spanning a long diagonal so the flow needs >= 2 hops.
    positions = [(0.0, 0.0), (180.0, 50.0), (360.0, 100.0), (540.0, 150.0),
                 (720.0, 200.0), (180.0, 250.0), (360.0, 300.0),
                 (540.0, 350.0), (300.0, 180.0), (500.0, 60.0)]
    config = ScenarioConfig(protocol=protocol, n_nodes=10,
                            field_size=(800.0, 400.0),
                            mobility_model="static",
                            static_positions=positions,
                            flows=[(0, 4)], eavesdropper_node=8,
                            sim_time=10.0, seed=4)
    result = run_scenario(config)
    assert result.throughput_segments > 20
    assert result.participating_nodes >= 2
    assert sum(result.relay_counts.values()) > 0
    # Every relayed packet was counted against an intermediate node.
    assert 0 not in result.relay_counts
    assert 4 not in result.relay_counts


def test_eavesdropper_accounting_is_consistent():
    """Pe never exceeds the number of unique segments that exist."""
    config = ScenarioConfig.tiny(protocol="MTS", sim_time=10.0, seed=6)
    scenario = build_scenario(config)
    result = scenario.run()
    pe = result.packets_eavesdropped
    assert pe == scenario.eavesdropper.unique_tcp_captured
    sender = scenario.senders[0]
    assert pe <= sender.segments_sent
    assert result.packets_received <= sender.segments_sent


def test_mts_checking_traffic_appears_in_control_overhead():
    config = ScenarioConfig.tiny(protocol="MTS", sim_time=12.0, seed=7,
                                 mts_check_interval=1.0)
    result = run_scenario(config)
    assert result.control_by_kind.get("check", 0) > 0


def test_mts_has_higher_control_overhead_than_dsr():
    """The qualitative claim of Figure 11 on a small configuration."""
    base = dict(sim_time=12.0, seed=8)
    mts = run_scenario(ScenarioConfig.tiny(protocol="MTS", **base))
    dsr = run_scenario(ScenarioConfig.tiny(protocol="DSR", **base))
    assert mts.control_overhead > dsr.control_overhead


def test_results_are_deterministic_across_protocol_builds():
    """Building the scenario twice and running gives identical metrics."""
    config = ScenarioConfig.tiny(protocol="DSR", sim_time=8.0, seed=12)
    first = build_scenario(config).run()
    second = build_scenario(config).run()
    assert first.as_dict() == second.as_dict()


def test_tcp_sender_and_sink_statistics_are_consistent():
    config = ScenarioConfig.tiny(protocol="AODV", sim_time=10.0, seed=13)
    result = run_scenario(config)
    sender = result.sender_stats[0]
    sink = result.sink_stats[0]
    # The sink cannot have received more unique segments than were sent.
    assert sink["unique_segments"] <= sender["segments_sent"]
    # Cumulative ACK progress can never exceed what the sender emitted.
    assert sink["cumulative_seq"] <= sender["segments_sent"]
    assert sender["highest_ack"] <= sink["cumulative_seq"]


def test_higher_speed_does_not_break_the_simulation():
    for speed in (2.0, 20.0):
        config = ScenarioConfig.tiny(protocol="MTS", sim_time=8.0, seed=3,
                                     max_speed=speed)
        result = run_scenario(config)
        assert result.throughput_segments > 0


def test_udp_only_scenario_runs_without_eavesdropper():
    config = ScenarioConfig.tiny(protocol="AODV", sim_time=5.0,
                                 with_eavesdropper=False, seed=2)
    result = run_scenario(config)
    assert result.eavesdropper_node is None
    assert result.packets_eavesdropped == 0
