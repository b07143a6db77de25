"""Tests for the pluggable protocol-stack registry (:mod:`repro.registry`).

Covers the :class:`ComponentRegistry` mechanics (duplicate rejection,
unknown-name suggestions, stable listings, param schemas), the
self-registration of every layer package, the registry-resolved scenario
builder (each ``*_model`` config field selects the matching
implementation with no builder edits), and the end-to-end determinism of
the new ``shadowing`` scenario family (seeded runs are bit-for-bit
reproducible even though link existence is probabilistic).
"""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.apps.cbr import CbrApplication
from repro.apps.ftp import FtpApplication
from repro.experiments.sweep import SWEEP_PROFILES, SweepSettings, run_speed_sweep
from repro.mobility.base import StaticMobility
from repro.mobility.random_waypoint import RandomWaypoint
from repro.net.propagation import (
    LogDistanceShadowing,
    RangePropagation,
    TwoRayGround,
)
from repro.registry import (
    APPLICATION,
    MOBILITY,
    PROPAGATION,
    REGISTRIES,
    ROUTING,
    TRANSPORT,
    ComponentRegistry,
    Param,
    UnknownComponentError,
)
from repro.scenario.builder import ScenarioBuilder
from repro.scenario.config import (
    SUPPORTED_MOBILITY,
    SUPPORTED_PROTOCOLS,
    ScenarioConfig,
)
from repro.scenario.runner import run_scenario
from repro.transport.udp import UdpAgent


class TestComponentRegistry:
    def test_register_resolve_and_available_are_stable(self):
        registry = ComponentRegistry("test-layer")
        registry.register("beta", lambda config, params: "b")
        registry.register("alpha", lambda config, params: "a")
        assert registry.available() == ("alpha", "beta")
        assert registry.available() == registry.available()
        assert "alpha" in registry and len(registry) == 2
        assert registry.resolve("alpha").name == "alpha"

    def test_duplicate_registration_is_rejected(self):
        registry = ComponentRegistry("test-layer")
        registry.register("alpha", lambda config, params: "a")
        with pytest.raises(ValueError, match="duplicate"):
            registry.register("alpha", lambda config, params: "a2")

    def test_unknown_name_suggests_close_matches(self):
        registry = ComponentRegistry("test-layer")
        registry.register("two_ray", lambda config, params: None)
        with pytest.raises(UnknownComponentError) as excinfo:
            registry.resolve("tworay")
        assert "did you mean 'two_ray'" in str(excinfo.value)
        assert "two_ray" in str(excinfo.value)
        # UnknownComponentError is a ValueError: existing callers that
        # catch ValueError on config validation keep working.
        assert isinstance(excinfo.value, ValueError)

    def test_decorator_registration(self):
        registry = ComponentRegistry("test-layer")

        @registry.register("gamma", description="a test component")
        def factory(config, params):
            return ("gamma", params)

        assert registry.resolve("gamma").factory is factory
        assert registry.create("gamma", {}, config=None) == ("gamma", {})

    def test_param_schema_rejects_unknown_names_and_bad_types(self):
        registry = ComponentRegistry("test-layer")
        registry.register("model", lambda config, params: params, params=(
            Param("sigma_db", (float,), "noise"),
            Param("count", (int,), "an integer"),
            Param("flag", (bool,), "a switch"),
        ))
        registry.validate_params("model", {"sigma_db": 4})  # int-for-float ok
        with pytest.raises(ValueError, match="did you mean 'sigma_db'"):
            registry.validate_params("model", {"sgima_db": 4.0})
        with pytest.raises(ValueError, match="expects float"):
            registry.validate_params("model", {"sigma_db": "high"})
        with pytest.raises(ValueError, match="expects float"):
            # bool is never accepted for a numeric parameter
            registry.validate_params("model", {"sigma_db": True})
        with pytest.raises(ValueError, match="expects int"):
            registry.validate_params("model", {"count": 1.5})
        with pytest.raises(ValueError, match="expects bool"):
            registry.validate_params("model", {"flag": 1})

    def test_describe_lists_every_component(self):
        text = PROPAGATION.describe()
        for name in PROPAGATION.available():
            assert name in text


class TestLayerRegistrations:
    def test_every_layer_package_imports_standalone(self):
        """Each registering package must import cleanly as the process's
        FIRST repro import (regression: registering MTS from
        ``repro.routing`` made ``import repro.core`` a circular-import
        crash that only full-suite import ordering masked)."""
        for module in ("repro.core", "repro.core.mts", "repro.routing",
                       "repro.mobility", "repro.net.propagation",
                       "repro.transport", "repro.apps",
                       "repro.scenario.config"):
            proc = subprocess.run(
                [sys.executable, "-c",
                 f"import {module}; "
                 f"from repro.registry import ROUTING; "
                 f"assert 'MTS' in ROUTING.available()"],
                capture_output=True, text=True)
            assert proc.returncode == 0, (
                f"import {module} failed standalone:\n{proc.stderr}")

    def test_every_layer_is_populated(self):
        expected = {
            "mobility": ("random_waypoint", "static"),
            "propagation": ("log_distance_shadowing", "range", "two_ray"),
            "routing": ("AODV", "DSR", "MTS"),
            "transport": ("tcp_reno", "udp"),
            "application": ("cbr", "ftp"),
        }
        for layer, names in expected.items():
            assert REGISTRIES[layer].available() == names

    @pytest.mark.parametrize("registry,name", [
        (ROUTING, "AOMDV"),
        (MOBILITY, "random_walk"),
    ])
    def test_removed_components_are_unknown(self, registry, name):
        with pytest.raises(UnknownComponentError) as excinfo:
            registry.resolve(name)
        remaining = registry.available()
        assert name not in remaining
        assert excinfo.value.known == remaining
        assert f"(available: {', '.join(remaining)})" in str(excinfo.value)

    def test_supported_lists_are_registry_derived(self):
        # The old hard-coded SUPPORTED_* tuples now come straight from
        # the registries — registering a model in one place is enough.
        assert SUPPORTED_PROTOCOLS == ROUTING.available()
        assert SUPPORTED_MOBILITY == MOBILITY.available()

    def test_transport_kinds_match_application_requirements(self):
        assert TRANSPORT.resolve("tcp_reno").metadata["kind"] == "tcp"
        assert TRANSPORT.resolve("udp").metadata["kind"] == "udp"
        assert APPLICATION.resolve("ftp").metadata["requires_transport"] \
            == "tcp"
        assert APPLICATION.resolve("cbr").metadata["requires_transport"] \
            == "udp"


class TestRegistryResolvedBuilder:
    @pytest.mark.parametrize("name,cls", [
        ("range", RangePropagation),
        ("two_ray", TwoRayGround),
        ("log_distance_shadowing", LogDistanceShadowing),
    ])
    def test_propagation_model_is_selected_from_config(self, name, cls):
        config = ScenarioConfig.tiny(propagation_model=name)
        scenario = ScenarioBuilder(config).build()
        assert isinstance(scenario.channel.propagation, cls)
        # Every model derives its nominal range from transmission_range.
        assert scenario.channel.propagation.nominal_range() \
            == config.transmission_range

    def test_propagation_params_reach_the_model(self):
        config = ScenarioConfig.tiny(
            propagation_model="log_distance_shadowing",
            propagation_params={"path_loss_exponent": 3.0, "sigma_db": 6.0})
        scenario = ScenarioBuilder(config).build()
        model = scenario.channel.propagation
        assert model.path_loss_exponent == 3.0
        assert model.sigma_db == 6.0

    @pytest.mark.parametrize("name,cls", [
        ("static", StaticMobility),
        ("random_waypoint", RandomWaypoint),
    ])
    def test_mobility_model_is_selected_from_config(self, name, cls):
        scenario = ScenarioBuilder(
            ScenarioConfig.tiny(mobility_model=name)).build()
        assert all(isinstance(node.mobility, cls)
                   for node in scenario.nodes)

    def test_routing_params_reach_the_agent(self):
        config = ScenarioConfig.tiny(
            protocol="DSR", routing_params={"max_cached_paths": 7})
        scenario = ScenarioBuilder(config).build()
        assert scenario.routing_agent(0).config.max_cached_paths == 7

    def test_udp_cbr_stack_builds_and_runs(self):
        config = ScenarioConfig.tiny(
            transport_model="udp", app_model="cbr",
            app_params={"interval": 0.5, "packet_size": 256}, sim_time=5.0)
        scenario = ScenarioBuilder(config).build()
        assert all(isinstance(sender, UdpAgent)
                   for sender in scenario.senders)
        assert all(isinstance(app, CbrApplication)
                   for app in scenario.apps)
        result = scenario.run()
        assert result.sender_stats[0]["datagrams_sent"] > 0

    def test_default_stack_is_unchanged(self):
        scenario = ScenarioBuilder(ScenarioConfig.tiny()).build()
        assert isinstance(scenario.channel.propagation, RangePropagation)
        assert all(isinstance(app, FtpApplication)
                   for app in scenario.apps)

    def test_incompatible_transport_app_pair_fails_at_config_time(self):
        with pytest.raises(ValueError, match="requires a 'tcp' transport"):
            ScenarioConfig.tiny(transport_model="udp")
        with pytest.raises(ValueError, match="requires a 'udp' transport"):
            ScenarioConfig.tiny(app_model="cbr")

    def test_unknown_stack_names_fail_with_suggestions(self):
        with pytest.raises(ValueError, match="did you mean 'two_ray'"):
            ScenarioConfig.tiny(propagation_model="tworay")
        with pytest.raises(ValueError, match="unknown parameter 'sgima_db'"):
            ScenarioConfig.tiny(
                propagation_model="log_distance_shadowing",
                propagation_params={"sgima_db": 4.0})


class TestShadowingScenarioFamily:
    def test_shadowing_profile_is_registered(self):
        assert "shadowing" in SWEEP_PROFILES
        settings = SweepSettings.shadowing()
        overrides = settings.config_overrides
        assert overrides["propagation_model"] == "log_distance_shadowing"
        assert overrides["propagation_params"]["sigma_db"] > 0

    def test_shadowing_smoke_sweep_is_bit_for_bit_deterministic(self):
        """Seeded determinism holds under probabilistic reception: two
        cold runs of the same shadowing grid serialize identically."""
        settings = SweepSettings.shadowing().shrink(sim_time=4.0)
        first = run_speed_sweep(settings).to_json()
        second = run_speed_sweep(settings).to_json()
        assert first == second

    def test_shadowing_actually_randomises_reception(self):
        """With sigma_db > 0 some transmissions near the nominal range
        must fail — the run differs from the deterministic-disc run."""
        base = ScenarioConfig.tiny(sim_time=6.0, seed=3)
        shadowed = base.replace(
            propagation_model="log_distance_shadowing",
            propagation_params={"path_loss_exponent": 2.7, "sigma_db": 6.0})
        assert run_scenario(base).to_json() \
            != run_scenario(shadowed).to_json()
