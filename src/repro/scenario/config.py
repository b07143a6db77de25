"""Scenario configuration.

:class:`ScenarioConfig` captures every parameter of a simulation run.  The
defaults of :meth:`ScenarioConfig.paper_default` follow the paper's §IV-A
setup (50 nodes, 1000 m × 1000 m, random waypoint with 1 s pause, 250 m
range, 802.11 MAC, TCP Reno/FTP traffic, 200 s, one random eavesdropper);
:meth:`ScenarioConfig.tiny` gives a ten-node configuration with the same
structure that tests and quick library drives use.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Mapping, Optional, Tuple

from repro.registry import (
    APPLICATION, MOBILITY, PROPAGATION, ROUTING, TRANSPORT,
)
from repro.scenario.results import _plain


def __getattr__(name: str):
    """``SUPPORTED_PROTOCOLS`` / ``SUPPORTED_MOBILITY``, registry-backed.

    The historical hard-coded tuples are now computed from the
    registries on every access (PEP 562), so registering a component —
    even after this module was imported — is sufficient: there is no
    second list to keep in sync, and importing this module alone does
    not force the full layer-package import that a snapshot at module
    level would.
    """
    if name == "SUPPORTED_PROTOCOLS":
        return ROUTING.available()
    if name == "SUPPORTED_MOBILITY":
        return MOBILITY.available()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def normalize_config_fields(data: Mapping[str, object]) -> Dict[str, object]:
    """Restore tuple-typed :class:`ScenarioConfig` fields after a JSON trip.

    JSON has no tuples, so ``field_size``, ``flows`` and
    ``static_positions`` come back as lists.  Every consumer of
    config-shaped dictionaries (:meth:`ScenarioConfig.from_dict`, sweep
    ``config_overrides``) shares this one normaliser so new tuple-typed
    fields only need registering here.
    """
    out = dict(data)
    if "field_size" in out:
        out["field_size"] = tuple(out["field_size"])
    if out.get("flows") is not None:
        out["flows"] = [tuple(flow) for flow in out["flows"]]
    if out.get("static_positions") is not None:
        out["static_positions"] = [tuple(p) for p in out["static_positions"]]
    return out


@dataclasses.dataclass
class ScenarioConfig:
    """All parameters of one simulation scenario.

    Attributes mirror the paper's §IV-A table where applicable; everything
    else is an implementation knob with an NS-2-flavoured default.
    """

    # --- protocol under test ------------------------------------------ #
    protocol: str = "MTS"

    # --- topology & mobility ------------------------------------------ #
    n_nodes: int = 50
    field_size: Tuple[float, float] = (1000.0, 1000.0)
    mobility_model: str = "random_waypoint"
    max_speed: float = 10.0
    min_speed: float = 0.1
    pause_time: float = 1.0
    #: Explicit positions for ``mobility_model="static"`` (one per node).
    static_positions: Optional[List[Tuple[float, float]]] = None

    # --- radio & MAC --------------------------------------------------- #
    transmission_range: float = 250.0
    data_rate: float = 2e6
    basic_rate: float = 1e6
    queue_capacity: int = 50
    mac_retry_limit: int = 7
    use_rts_cts: bool = True

    # --- traffic -------------------------------------------------------- #
    n_flows: int = 1
    #: Explicit ``(source, destination)`` pairs; random when ``None``.
    flows: Optional[List[Tuple[int, int]]] = None
    traffic_start: float = 1.0
    tcp_packet_size: int = 1000
    #: Maximum TCP window in segments.  Kept small (8) because a TCP
    #: window much larger than the path's bandwidth-delay product causes
    #: severe intra-flow self-interference over multi-hop 802.11, masking
    #: the routing-protocol differences the paper studies (cf. Holland &
    #: Vaidya 1999, Lim et al. 2003 — the paper's own references [4], [7]).
    tcp_window: int = 8

    # --- security ------------------------------------------------------- #
    #: Attach a passive eavesdropper to a random intermediate node.
    with_eavesdropper: bool = True
    #: Force a specific node to be the eavesdropper (None = random).
    eavesdropper_node: Optional[int] = None

    # --- MTS parameters -------------------------------------------------- #
    mts_check_interval: float = 3.0
    mts_max_paths: int = 5
    mts_strict_disjoint: bool = False

    # --- run control ------------------------------------------------------ #
    sim_time: float = 200.0
    seed: int = 1
    trace: bool = False

    # --- protocol stack (registry-resolved; see repro.registry) --------- #
    #: Propagation model name; ``range`` is the paper's deterministic
    #: 250 m disc, ``two_ray`` / ``log_distance_shadowing`` are the
    #: physically richer alternatives.
    propagation_model: str = "range"
    propagation_params: Dict[str, object] = dataclasses.field(
        default_factory=dict)
    #: Extra per-layer constructor parameters, validated against each
    #: component's registered schema.
    mobility_params: Dict[str, object] = dataclasses.field(
        default_factory=dict)
    routing_params: Dict[str, object] = dataclasses.field(
        default_factory=dict)
    #: Transport/application pair driving every flow (``tcp_reno``+``ftp``
    #: is the paper's stack; ``udp``+``cbr`` isolates routing behaviour
    #: from congestion control).
    transport_model: str = "tcp_reno"
    transport_params: Dict[str, object] = dataclasses.field(
        default_factory=dict)
    app_model: str = "ftp"
    app_params: Dict[str, object] = dataclasses.field(default_factory=dict)

    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        self.protocol = self.protocol.upper()
        # Every layer choice resolves against its registry: unknown names
        # fail here (with did-you-mean suggestions), and *_params are
        # checked against the component's schema — before any worker
        # process is dispatched.
        ROUTING.validate_params(self.protocol, self.routing_params)
        MOBILITY.validate_params(self.mobility_model, self.mobility_params)
        PROPAGATION.validate_params(self.propagation_model,
                                    self.propagation_params)
        TRANSPORT.validate_params(self.transport_model,
                                  self.transport_params)
        APPLICATION.validate_params(self.app_model, self.app_params)
        required = APPLICATION.resolve(self.app_model).metadata.get(
            "requires_transport")
        provided = TRANSPORT.resolve(self.transport_model).metadata.get(
            "kind")
        if required is not None and required != provided:
            raise ValueError(
                f"application {self.app_model!r} requires a {required!r} "
                f"transport, but {self.transport_model!r} is "
                f"{provided!r}")
        if self.n_nodes < 2:
            raise ValueError("need at least two nodes")
        # With explicit flows, n_flows is derived, never independent: a
        # stale value would poison the cache key (two behaviourally
        # identical configs hashing differently) and lie in saved
        # artifacts.
        if self.flows is not None:
            self.n_flows = len(self.flows)
        if self.n_flows < 1:
            raise ValueError("need at least one traffic flow")
        if self.flows is None and 2 * self.n_flows > self.n_nodes:
            raise ValueError(
                f"not enough nodes for {self.n_flows} disjoint random "
                f"flows (need 2*n_flows <= n_nodes={self.n_nodes})")
        if self.sim_time <= 0:
            raise ValueError("sim_time must be positive")
        if self.max_speed <= 0:
            raise ValueError("max_speed must be positive")
        if self.transmission_range <= 0:
            raise ValueError("transmission_range must be positive")
        if self.flows is not None:
            for src, dst in self.flows:
                if not (0 <= src < self.n_nodes and 0 <= dst < self.n_nodes):
                    raise ValueError(f"flow ({src}, {dst}) references an "
                                     f"unknown node (n_nodes={self.n_nodes})")
                if src == dst:
                    raise ValueError("flow source and destination must differ")
        if (self.mobility_model == "static" and self.static_positions is not None
                and len(self.static_positions) != self.n_nodes):
            raise ValueError("static_positions must list one position per node")

    # ------------------------------------------------------------------ #
    # canned configurations
    # ------------------------------------------------------------------ #
    @classmethod
    def paper_default(cls, protocol: str = "MTS", max_speed: float = 10.0,
                      seed: int = 1, **overrides) -> "ScenarioConfig":
        """The paper's §IV-A configuration (200 s, 50 nodes, 1 km²)."""
        params = dict(protocol=protocol, n_nodes=50,
                      field_size=(1000.0, 1000.0), max_speed=max_speed,
                      pause_time=1.0, transmission_range=250.0,
                      sim_time=200.0, seed=seed)
        params.update(overrides)
        return cls(**params)

    @classmethod
    def tiny(cls, protocol: str = "MTS", seed: int = 1,
             **overrides) -> "ScenarioConfig":
        """A very small scenario for unit/integration tests (~10 nodes, 10 s)."""
        params = dict(protocol=protocol, n_nodes=10,
                      field_size=(500.0, 500.0), max_speed=5.0,
                      pause_time=1.0, transmission_range=250.0,
                      sim_time=10.0, seed=seed)
        params.update(overrides)
        return cls(**params)

    def replace(self, **overrides) -> "ScenarioConfig":
        """Return a copy of this config with ``overrides`` applied."""
        return dataclasses.replace(self, **overrides)

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible dictionary of every field.

        Tuples are normalised to lists so the output is identical whether
        it is inspected directly or round-tripped through JSON.

        Each field is copied by :func:`~repro.scenario.results._plain`:
        nested ``*_params`` containers are rebuilt, so mutating the output
        never reaches the config, and the dict equals what
        :func:`dataclasses.asdict` gives.  ``asdict`` is not used because
        its generic ``deepcopy`` walk was most of the cost of computing
        a cache key.
        """
        data = {field.name: _plain(getattr(self, field.name))
                for field in dataclasses.fields(self)}
        data["field_size"] = list(self.field_size)
        if self.flows is not None:
            data["flows"] = [list(flow) for flow in self.flows]
        if self.static_positions is not None:
            data["static_positions"] = [list(p) for p in self.static_positions]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ScenarioConfig":
        """Rebuild a config from :meth:`to_dict` output (or parsed JSON)."""
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown ScenarioConfig fields: {unknown}")
        return cls(**normalize_config_fields(data))

    def to_json(self) -> str:
        """Serialise to a canonical (sorted-key) JSON string."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "ScenarioConfig":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(payload))
