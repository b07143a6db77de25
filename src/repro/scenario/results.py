"""Result records for scenario runs.

:class:`ScenarioResult` holds every metric the paper reports for a single
run; :func:`aggregate_results` averages replications into an
:class:`AggregateResult` (mean and sample standard deviation per metric),
matching the paper's "each simulation is repeated 5 times" methodology.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple


#: Numeric fields that :func:`aggregate_results` averages.
AGGREGATED_FIELDS = (
    "participating_nodes",
    "relay_std",
    "interception_ratio",
    "highest_interception_ratio",
    "mean_delay",
    "throughput_segments",
    "throughput_kbps",
    "delivery_rate",
    "control_overhead",
    "packets_eavesdropped",
    "packets_received",
)

_ATOM_TYPES = frozenset({str, int, float, bool, type(None)})


def _plain(value: object) -> object:
    """A fresh JSON-shaped copy of one record field value.

    Atoms (``str``, ``int``, ``float``, ``bool``, ``None``) are immutable
    and come back as-is; ``dict``, ``list`` and ``tuple`` are rebuilt
    recursively with the same container types; anything else falls back
    to :func:`copy.deepcopy`.  For every type the result records hold,
    this equals what :func:`dataclasses.asdict` produces for the field,
    without ``asdict``'s per-value ``deepcopy`` dispatch.
    """
    kind = type(value)
    if kind in _ATOM_TYPES:
        return value
    if kind is dict:
        return {_plain(key): _plain(item) for key, item in value.items()}
    if kind is list:
        return [_plain(item) for item in value]
    if kind is tuple:
        return tuple(_plain(item) for item in value)
    return copy.deepcopy(value)


@dataclasses.dataclass
class ScenarioResult:
    """All metrics measured in one simulation run."""

    # run identity
    protocol: str
    seed: int
    max_speed: float
    sim_time: float
    flows: List[Tuple[int, int]]
    eavesdropper_node: Optional[int]

    # security metrics (Figures 5-7, Table I)
    participating_nodes: int
    relay_std: float
    relay_counts: Dict[int, int]
    packets_eavesdropped: int
    packets_received: int
    interception_ratio: float
    highest_interception_ratio: float

    # TCP performance metrics (Figures 8-11)
    mean_delay: float
    throughput_segments: int
    throughput_kbps: float
    delivery_rate: float
    control_overhead: int

    # raw per-agent statistics for deeper inspection
    sender_stats: List[Dict[str, float]] = dataclasses.field(default_factory=list)
    sink_stats: List[Dict[str, float]] = dataclasses.field(default_factory=list)
    control_by_kind: Dict[str, int] = dataclasses.field(default_factory=dict)
    events_processed: int = 0

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary of the headline metrics (for tables/CSV)."""
        return {
            "protocol": self.protocol,
            "seed": self.seed,
            "max_speed": self.max_speed,
            "sim_time": self.sim_time,
            "participating_nodes": self.participating_nodes,
            "relay_std": self.relay_std,
            "interception_ratio": self.interception_ratio,
            "highest_interception_ratio": self.highest_interception_ratio,
            "mean_delay": self.mean_delay,
            "throughput_segments": self.throughput_segments,
            "throughput_kbps": self.throughput_kbps,
            "delivery_rate": self.delivery_rate,
            "control_overhead": self.control_overhead,
            "packets_eavesdropped": self.packets_eavesdropped,
            "packets_received": self.packets_received,
        }

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible dictionary of *every* field (not just headlines).

        ``relay_counts`` keys become strings (JSON object keys always are)
        and tuples become lists; :meth:`from_dict` reverses both, so
        ``ScenarioResult.from_json(r.to_json()) == r`` holds exactly —
        Python's JSON float round-trip is lossless.

        Every field goes through :func:`_plain`, so the output shares no
        mutable container with the record (the guarantee
        :func:`dataclasses.asdict` gives) and equals ``asdict``'s output;
        ``asdict`` itself is not used because its generic ``deepcopy``
        walk dominated the cost of publishing and replaying sweeps.
        """
        data = {field.name: _plain(getattr(self, field.name))
                for field in dataclasses.fields(self)}
        data["flows"] = [list(flow) for flow in self.flows]
        data["relay_counts"] = {str(node): int(count)
                                for node, count in self.relay_counts.items()}
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ScenarioResult":
        """Rebuild a result from :meth:`to_dict` output (or parsed JSON)."""
        kwargs = dict(data)
        kwargs["flows"] = [tuple(flow) for flow in kwargs["flows"]]
        kwargs["relay_counts"] = {int(node): int(count) for node, count
                                  in kwargs["relay_counts"].items()}
        return cls(**kwargs)

    def to_json(self) -> str:
        """Serialise to a canonical (sorted-key) JSON string."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "ScenarioResult":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(payload))


@dataclasses.dataclass
class AggregateResult:
    """Mean ± sample standard deviation of a set of replications."""

    protocol: str
    max_speed: float
    replications: int
    mean: Dict[str, float]
    std: Dict[str, float]

    def get(self, metric: str) -> float:
        """Mean value of ``metric``."""
        return self.mean[metric]

    def as_dict(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "protocol": self.protocol,
            "max_speed": self.max_speed,
            "replications": self.replications,
        }
        for key, value in self.mean.items():
            row[key] = value
            row[f"{key}_std"] = self.std[key]
        return row

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible dictionary of every field (see :func:`_plain`)."""
        return {field.name: _plain(getattr(self, field.name))
                for field in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "AggregateResult":
        """Rebuild an aggregate from :meth:`to_dict` output.

        Metric dictionaries are restored in canonical
        :data:`AGGREGATED_FIELDS` order (JSON object order is not
        preserved through sorted-key serialisation), so round-tripped
        aggregates are indistinguishable from freshly computed ones.
        """
        kwargs = dict(data)
        for name in ("mean", "std"):
            metrics = dict(kwargs[name])
            ordered = {field: metrics.pop(field)
                       for field in AGGREGATED_FIELDS if field in metrics}
            ordered.update(sorted(metrics.items()))
            kwargs[name] = ordered
        return cls(**kwargs)

    def to_json(self) -> str:
        """Serialise to a canonical (sorted-key) JSON string."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "AggregateResult":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(payload))


def _mean_std(values: Sequence[float]) -> Tuple[float, float]:
    n = len(values)
    if n == 0:
        return 0.0, 0.0
    mean = sum(values) / n
    if n == 1:
        return mean, 0.0
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(variance)


def aggregate_results(results: Sequence[ScenarioResult]) -> AggregateResult:
    """Average replications of the same (protocol, speed) configuration."""
    if not results:
        raise ValueError("cannot aggregate an empty result list")
    protocols = {result.protocol for result in results}
    speeds = {result.max_speed for result in results}
    if len(protocols) != 1 or len(speeds) != 1:
        raise ValueError("aggregate_results expects replications of a single "
                         "(protocol, max_speed) configuration")
    mean: Dict[str, float] = {}
    std: Dict[str, float] = {}
    for field in AGGREGATED_FIELDS:
        values = [float(getattr(result, field)) for result in results]
        mean[field], std[field] = _mean_std(values)
    return AggregateResult(protocol=results[0].protocol,
                           max_speed=results[0].max_speed,
                           replications=len(results), mean=mean, std=std)
