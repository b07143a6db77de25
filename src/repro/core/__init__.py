"""MTS — Multipath TCP Security routing (the paper's contribution).

MTS is an on-demand multipath routing protocol designed to spread a TCP
session's packets over many relays so that a single passive eavesdropper
intercepts as little of the traffic as possible, while simultaneously
keeping TCP on the freshest route.  Its three mechanisms (paper §III):

1. **Route discovery** — the source floods a route request carrying an
   accumulated node list; intermediate nodes forward only the first copy
   and never answer from a cache; the destination replies *immediately* to
   the first copy and silently records the paths of later copies.
2. **Disjoint path storage** — the destination keeps at most five paths
   that pairwise differ in both their first hop (next to the source) and
   last hop (next to the destination) — the AOMDV rule the paper cites.
3. **Route checking / adaptive switching** — every few seconds the
   destination unicasts a *checking packet* down each stored path; the
   source switches its active route to the path whose checking packet
   arrives first in each round, so the active route tracks the currently
   fastest (and hence freshest) path.

Public API:

* :class:`~repro.core.mts.MtsAgent` / :class:`~repro.core.mts.MtsConfig`
  — the routing agent, pluggable into :class:`repro.net.node.Node`
  exactly like the DSR/AODV baselines.
* :class:`~repro.core.paths.PathSet` — the destination-side disjoint path
  store.
* :mod:`repro.core.disjoint` — the disjointness predicates.
"""

from repro.core.disjoint import (
    first_hop,
    last_hop,
    differ_in_first_and_last_hop,
    are_node_disjoint,
    is_valid_path,
)
from repro.core.paths import PathRecord, PathSet
from repro.core.checking import CheckingState
from repro.core.mts import MtsAgent, MtsConfig

__all__ = [
    "first_hop",
    "last_hop",
    "differ_in_first_and_last_hop",
    "are_node_disjoint",
    "is_valid_path",
    "PathRecord",
    "PathSet",
    "CheckingState",
    "MtsAgent",
    "MtsConfig",
]


# ---------------------------------------------------------------------- #
# registry self-registration (see repro.registry)
# ---------------------------------------------------------------------- #
# MTS registers here, in its home package, next to the DSR/AODV
# registrations in repro.routing — registering it from repro.routing
# would be a circular import (repro.core.mts builds on
# repro.routing.base).
import dataclasses as _dataclasses  # noqa: E402

from repro.registry import ROUTING, params_from_dataclass  # noqa: E402


@ROUTING.register("MTS", params=params_from_dataclass(MtsConfig),
                  description="the paper's multipath traffic-splitting "
                              "protocol")
def _make_mts(config, params, *, sim, node, metrics):
    mts_config = MtsConfig(max_disjoint_paths=config.mts_max_paths,
                           check_interval=config.mts_check_interval,
                           strict_node_disjoint=config.mts_strict_disjoint)
    if params:
        mts_config = _dataclasses.replace(mts_config, **params)
    return MtsAgent(sim, node, mts_config, metrics)
