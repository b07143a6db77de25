"""Routing protocols: the DSR and AODV baselines.

The paper compares its MTS protocol (see :mod:`repro.core`) against DSR
and AODV, so both baselines are implemented here on top of the common
:class:`~repro.routing.base.RoutingAgent` machinery.
"""

from repro.routing.base import RoutingAgent, RoutingConfig
from repro.routing.packets import (
    RreqHeader,
    RrepHeader,
    RerrHeader,
    SourceRouteHeader,
    CheckHeader,
    CheckErrHeader,
)
from repro.routing.dsr import DsrAgent, DsrConfig
from repro.routing.aodv import AodvAgent, AodvConfig

__all__ = [
    "RoutingAgent",
    "RoutingConfig",
    "RreqHeader",
    "RrepHeader",
    "RerrHeader",
    "SourceRouteHeader",
    "CheckHeader",
    "CheckErrHeader",
    "DsrAgent",
    "DsrConfig",
    "AodvAgent",
    "AodvConfig",
]


# ---------------------------------------------------------------------- #
# registry self-registration (see repro.registry)
# ---------------------------------------------------------------------- #
# Names are the upper-case protocol identifiers ScenarioConfig has always
# used.  Param schemas are derived from each protocol's *Config dataclass
# so a new tunable is automatically accepted via `routing_params`.  MTS
# lives — and registers — in repro.core (it is the paper's contribution,
# not a baseline); importing it from here would be a circular import,
# since repro.core.mts builds on repro.routing.base.
from repro.registry import ROUTING, params_from_dataclass  # noqa: E402


@ROUTING.register("DSR", params=params_from_dataclass(DsrConfig),
                  description="dynamic source routing baseline")
def _make_dsr(config, params, *, sim, node, metrics):
    return DsrAgent(sim, node, DsrConfig(**params), metrics)


@ROUTING.register("AODV", params=params_from_dataclass(AodvConfig),
                  description="ad-hoc on-demand distance vector baseline")
def _make_aodv(config, params, *, sim, node, metrics):
    return AodvAgent(sim, node, AodvConfig(**params), metrics)
