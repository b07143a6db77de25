"""Tests for scenario configuration, building, results and replication."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.mts import MtsAgent
from repro.routing.aodv import AodvAgent
from repro.routing.dsr import DsrAgent
from repro.scenario.builder import ScenarioBuilder
from repro.scenario.config import ScenarioConfig
from repro.scenario.results import ScenarioResult, aggregate_results
from repro.scenario.runner import build_scenario, run_replications, run_scenario


class TestScenarioConfig:
    def test_protocol_is_normalised_and_validated(self):
        assert ScenarioConfig(protocol="mts").protocol == "MTS"
        with pytest.raises(ValueError):
            ScenarioConfig(protocol="OLSR")

    def test_paper_default_matches_section_iv(self):
        config = ScenarioConfig.paper_default("DSR", max_speed=15.0)
        assert config.n_nodes == 50
        assert config.field_size == (1000.0, 1000.0)
        assert config.transmission_range == 250.0
        assert config.pause_time == 1.0
        assert config.sim_time == 200.0
        assert config.protocol == "DSR"
        assert config.max_speed == 15.0

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            ScenarioConfig(n_nodes=1)
        with pytest.raises(ValueError):
            ScenarioConfig(sim_time=0)
        with pytest.raises(ValueError):
            ScenarioConfig(max_speed=0)
        with pytest.raises(ValueError):
            ScenarioConfig(mobility_model="teleport")
        with pytest.raises(ValueError):
            ScenarioConfig(flows=[(0, 0)])
        with pytest.raises(ValueError):
            ScenarioConfig(n_nodes=5, flows=[(0, 9)])
        with pytest.raises(ValueError):
            ScenarioConfig(n_nodes=3, mobility_model="static",
                           static_positions=[(0, 0)])

    def test_n_flows_is_reconciled_with_explicit_flows(self):
        # A stale n_flows next to explicit flows used to survive into the
        # cache key and saved artifacts; it is now derived.
        config = ScenarioConfig.tiny(flows=[(0, 5), (1, 6)], n_flows=7)
        assert config.n_flows == 2
        assert config.replace(flows=[(0, 5)]).n_flows == 1

    def test_empty_flow_list_is_rejected(self):
        with pytest.raises(ValueError, match="at least one traffic flow"):
            ScenarioConfig.tiny(flows=[])

    def test_infeasible_random_flow_count_fails_at_construction(self):
        # Used to raise only inside ScenarioBuilder._select_flows — i.e.
        # mid-sweep inside a worker; now the config itself is invalid.
        with pytest.raises(ValueError, match="not enough nodes"):
            ScenarioConfig(n_nodes=4, n_flows=3)
        # Explicit flows may share nodes, so the bound does not apply.
        config = ScenarioConfig(n_nodes=4, flows=[(0, 1), (0, 2), (0, 3)])
        assert config.n_flows == 3

    def test_replace_returns_modified_copy(self):
        config = ScenarioConfig.tiny()
        changed = config.replace(max_speed=17.0)
        assert changed.max_speed == 17.0
        assert config.max_speed != 17.0
        assert dataclasses.is_dataclass(changed)


class TestScenarioBuilder:
    def test_builds_requested_protocol_agents(self):
        expected = {"MTS": MtsAgent, "DSR": DsrAgent, "AODV": AodvAgent}
        for protocol, agent_type in expected.items():
            config = ScenarioConfig.tiny(protocol=protocol)
            scenario = ScenarioBuilder(config).build()
            assert all(isinstance(node.routing_agent, agent_type)
                       for node in scenario.nodes)

    def test_every_node_has_a_full_stack(self):
        scenario = build_scenario(ScenarioConfig.tiny())
        for node in scenario.nodes:
            assert node.interface is not None
            assert node.queue is not None
            assert node.mac is not None
            assert node.routing_agent is not None
            assert node.mobility is not None

    def test_flows_and_agents_are_wired(self):
        config = ScenarioConfig.tiny(flows=[(0, 5)])
        scenario = build_scenario(config)
        assert scenario.flows == [(0, 5)]
        assert scenario.senders[0].node.node_id == 0
        assert scenario.senders[0].dst == 5
        assert scenario.sinks[0].node.node_id == 5
        assert len(scenario.apps) == 1

    def test_eavesdropper_is_an_intermediate_node(self):
        config = ScenarioConfig.tiny(flows=[(0, 5)])
        scenario = build_scenario(config)
        assert scenario.eavesdropper is not None
        assert scenario.eavesdropper.node.node_id not in (0, 5)

    def test_explicit_eavesdropper_respected_and_validated(self):
        config = ScenarioConfig.tiny(flows=[(0, 5)], eavesdropper_node=3)
        scenario = build_scenario(config)
        assert scenario.eavesdropper.node.node_id == 3
        bad = ScenarioConfig.tiny(flows=[(0, 5)], eavesdropper_node=0)
        with pytest.raises(ValueError):
            build_scenario(bad)

    def test_eavesdropper_can_be_disabled(self):
        config = ScenarioConfig.tiny(with_eavesdropper=False)
        scenario = build_scenario(config)
        assert scenario.eavesdropper is None

    def test_static_mobility_uses_given_positions(self):
        positions = [(float(10 * i), 5.0) for i in range(10)]
        config = ScenarioConfig.tiny(mobility_model="static",
                                     static_positions=positions)
        scenario = build_scenario(config)
        assert scenario.nodes[3].position(0.0) == (30.0, 5.0)

    def test_scenario_can_only_run_once(self):
        scenario = build_scenario(ScenarioConfig.tiny(sim_time=2.0))
        scenario.run()
        with pytest.raises(RuntimeError):
            scenario.run()


class TestRunnerAndResults:
    def test_run_scenario_produces_consistent_result(self):
        config = ScenarioConfig.tiny(protocol="AODV", sim_time=8.0, seed=3)
        result = run_scenario(config)
        assert isinstance(result, ScenarioResult)
        assert result.protocol == "AODV"
        assert result.sim_time == 8.0
        assert 0.0 <= result.delivery_rate <= 1.0
        assert result.throughput_segments >= 0
        assert result.control_overhead > 0
        assert result.packets_received >= 0
        assert result.events_processed > 0
        row = result.as_dict()
        assert row["protocol"] == "AODV"
        assert set(row) >= {"mean_delay", "delivery_rate", "control_overhead"}

    def test_same_seed_is_reproducible(self):
        config = ScenarioConfig.tiny(protocol="MTS", sim_time=6.0, seed=9)
        first = run_scenario(config)
        second = run_scenario(config)
        assert first.as_dict() == second.as_dict()
        assert first.relay_counts == second.relay_counts

    def test_different_seeds_differ(self):
        base = ScenarioConfig.tiny(protocol="AODV", sim_time=6.0)
        a = run_scenario(base.replace(seed=1))
        b = run_scenario(base.replace(seed=2))
        assert a.as_dict() != b.as_dict()

    def test_run_replications_aggregates(self):
        config = ScenarioConfig.tiny(protocol="AODV", sim_time=5.0)
        aggregate, results = run_replications(config, replications=2)
        assert aggregate.replications == 2
        assert len(results) == 2
        assert results[0].seed != results[1].seed
        values = [r.throughput_segments for r in results]
        assert aggregate.mean["throughput_segments"] == pytest.approx(
            sum(values) / 2)

    def test_run_replications_validation(self):
        config = ScenarioConfig.tiny()
        with pytest.raises(ValueError):
            run_replications(config, replications=0)
        with pytest.raises(ValueError):
            run_replications(config, replications=2, seeds=[1])

    def test_aggregate_results_rejects_mixed_cells(self):
        config_a = ScenarioConfig.tiny(protocol="AODV", sim_time=4.0, seed=1)
        config_b = ScenarioConfig.tiny(protocol="MTS", sim_time=4.0, seed=1)
        result_a = run_scenario(config_a)
        result_b = run_scenario(config_b)
        with pytest.raises(ValueError):
            aggregate_results([result_a, result_b])
        with pytest.raises(ValueError):
            aggregate_results([])
