"""The speed sweep underlying Figures 5–11.

The paper evaluates DSR, AODV and MTS at maximum node speeds of 2, 5, 10,
15 and 20 m/s, five replications each, and reads a different metric off
the same runs for each figure.  :func:`run_speed_sweep` reproduces that
grid; every figure module then extracts its own metric from the shared
:class:`SweepResult` so the expensive simulations are run only once.

The grid cells are independent simulations, so the sweep routes through
the :mod:`repro.exec` subsystem: pass ``executor=build_executor(N)`` (a
pooled :class:`~repro.exec.ClusterExecutor`) to fan cells out across
cores (results are bit-for-bit identical to the serial path) and/or
``cache=ResultCache(...)`` so re-running a sweep only simulates cells
whose configuration changed.  :meth:`SweepResult.to_json`
/ :meth:`SweepResult.save` make the whole grid a durable artifact that
figures can be re-rendered from without re-simulating anything.

Two ready-made profiles are provided:

* ``SweepSettings.paper()`` — the full §IV-A configuration (50 nodes,
  1000 m × 1000 m, 200 s, 5 replications, speeds {2, 5, 10, 15, 20}).
* ``SweepSettings.bench()`` — a scaled-down grid (shorter runs, fewer
  replications, three speeds) whose relative protocol ordering matches the
  full configuration while completing in minutes on a laptop; this is what
  the pytest benchmarks use by default.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.exec import (
    Executor, ResultCache, assemble_sweep_result, atomic_write_text,
    check_artifact_stamp, resolve_executor, stamp_artifact,
)
from repro.scenario.config import ScenarioConfig, normalize_config_fields
from repro.scenario.results import AggregateResult, ScenarioResult

#: The protocols the paper compares.
PAPER_PROTOCOLS = ("DSR", "AODV", "MTS")
#: The maximum speeds (m/s) on the x-axis of every figure.
PAPER_SPEEDS = (2.0, 5.0, 10.0, 15.0, 20.0)


@dataclasses.dataclass
class SweepSettings:
    """Grid definition for a speed sweep.

    Attributes
    ----------
    protocols / speeds / replications:
        The grid axes and the number of independent seeds per cell.
    base_seed:
        Seed of the first replication; further replications and cells use
        deterministic offsets so the whole sweep is reproducible.
    config_overrides:
        Extra :class:`~repro.scenario.config.ScenarioConfig` fields applied
        to every cell (e.g. ``{"sim_time": 50.0, "n_nodes": 50}``).
    """

    protocols: Tuple[str, ...] = PAPER_PROTOCOLS
    speeds: Tuple[float, ...] = PAPER_SPEEDS
    replications: int = 5
    base_seed: int = 1
    config_overrides: dict = dataclasses.field(default_factory=dict)

    # ------------------------------------------------------------------ #
    @classmethod
    def paper(cls, **overrides) -> "SweepSettings":
        """The paper's full evaluation grid (hours of wall-clock time)."""
        config = dict(n_nodes=50, field_size=(1000.0, 1000.0), sim_time=200.0)
        config.update(overrides)
        return cls(protocols=PAPER_PROTOCOLS, speeds=PAPER_SPEEDS,
                   replications=5, config_overrides=config)

    @classmethod
    def bench(cls, **overrides) -> "SweepSettings":
        """A scaled-down grid for the pytest benchmarks (minutes)."""
        config = dict(n_nodes=50, field_size=(1000.0, 1000.0), sim_time=25.0)
        config.update(overrides)
        return cls(protocols=PAPER_PROTOCOLS, speeds=(2.0, 10.0, 20.0),
                   replications=1, config_overrides=config)

    @classmethod
    def smoke(cls, **overrides) -> "SweepSettings":
        """A minimal grid used by the integration tests (seconds)."""
        config = dict(n_nodes=20, field_size=(800.0, 800.0), sim_time=10.0)
        config.update(overrides)
        return cls(protocols=("AODV", "MTS"), speeds=(5.0,),
                   replications=1, config_overrides=config)

    @classmethod
    def dense(cls, **overrides) -> "SweepSettings":
        """A dense topology: 100 nodes on the paper's 1 km² field.

        Twice the paper's node density, so contention, candidate-set
        sizes and flooding overhead all grow — the workload the spatial
        grid and the kernel hot paths are optimised for.
        """
        config = dict(n_nodes=100, field_size=(1000.0, 1000.0),
                      sim_time=50.0)
        config.update(overrides)
        return cls(protocols=PAPER_PROTOCOLS, speeds=(5.0, 10.0, 20.0),
                   replications=2, config_overrides=config)

    @classmethod
    def sparse(cls, **overrides) -> "SweepSettings":
        """A sparse topology: 100 nodes spread over a 2 km × 2 km field.

        Half the paper's node density — longer routes, more route
        breakage, and a spatial grid whose 3×3 candidate blocks cover
        only a small fraction of the network.
        """
        config = dict(n_nodes=100, field_size=(2000.0, 2000.0),
                      sim_time=50.0)
        config.update(overrides)
        return cls(protocols=PAPER_PROTOCOLS, speeds=(5.0, 10.0, 20.0),
                   replications=2, config_overrides=config)

    @classmethod
    def multiflow(cls, **overrides) -> "SweepSettings":
        """The paper's topology carrying five concurrent TCP flows."""
        config = dict(n_nodes=50, field_size=(1000.0, 1000.0),
                      sim_time=50.0, n_flows=5)
        config.update(overrides)
        return cls(protocols=PAPER_PROTOCOLS, speeds=(5.0, 10.0, 20.0),
                   replications=2, config_overrides=config)

    @classmethod
    def high_mobility(cls, **overrides) -> "SweepSettings":
        """The paper's topology at aggressive speeds with near-zero pauses.

        Random-waypoint legs run at 20–35 m/s with a 0.1 s pause, so
        trajectory segments turn over an order of magnitude faster than
        under the paper's settings.  This is the stress workload for the
        mobility-driven SoA kinematics in
        :class:`~repro.net.channel.WirelessChannel`: segment pushes and
        expiry refreshes happen constantly instead of being amortised
        away, and route breakage keeps the routing layers busy.
        """
        config = dict(n_nodes=50, field_size=(1000.0, 1000.0),
                      sim_time=50.0, min_speed=20.0, pause_time=0.1)
        config.update(overrides)
        return cls(protocols=PAPER_PROTOCOLS, speeds=(25.0, 35.0),
                   replications=2, config_overrides=config)

    @classmethod
    def shadowing(cls, **overrides) -> "SweepSettings":
        """A smoke-sized grid under log-normal shadowing propagation.

        Replaces the deterministic 250 m disc with
        :class:`~repro.net.propagation.LogDistanceShadowing` (registry
        name ``log_distance_shadowing``), so link existence becomes
        probabilistic — the workload the ``propagation_model`` /
        ``propagation_params`` scenario axes were added for.  Kept
        smoke-sized so the determinism gate (two runs, ``cmp``) stays
        cheap in CI.
        """
        config = dict(n_nodes=20, field_size=(800.0, 800.0), sim_time=10.0,
                      propagation_model="log_distance_shadowing",
                      propagation_params={"path_loss_exponent": 2.7,
                                          "sigma_db": 4.0})
        config.update(overrides)
        return cls(protocols=("AODV", "MTS"), speeds=(5.0,),
                   replications=1, config_overrides=config)

    def shrink(self, sim_time: float = 4.0, max_nodes: int = 20,
               max_speeds: int = 1, replications: int = 1) -> "SweepSettings":
        """A miniature variant of this grid for fast deterministic tests.

        Preserves the profile's character — protocols, flow structure,
        and node *density* (the node count is capped and the field is
        scaled by the matching factor) — while cutting the cell count
        and simulated time so a full grid finishes in seconds.  Used by
        the golden-digest suite to pin every canned profile, and by the
        scheduler tests.
        """
        if sim_time <= 0:
            raise ValueError("sim_time must be positive")
        if max_nodes < 2 or max_speeds < 1 or replications < 1:
            raise ValueError("shrink bounds must be positive")
        overrides = dict(self.config_overrides)
        n_nodes = int(overrides.get("n_nodes", 50))
        if n_nodes > max_nodes:
            width, height = overrides.get("field_size", (1000.0, 1000.0))
            scale = math.sqrt(max_nodes / n_nodes)
            overrides["field_size"] = (width * scale, height * scale)
            overrides["n_nodes"] = max_nodes
        overrides["sim_time"] = sim_time
        return dataclasses.replace(
            self, speeds=self.speeds[:max_speeds],
            replications=min(self.replications, replications),
            config_overrides=overrides)

    def cell_config(self, protocol: str, speed: float, replication: int) -> ScenarioConfig:
        """The scenario configuration of one grid cell replication."""
        seed = self.base_seed + 1000 * replication
        return ScenarioConfig(protocol=protocol, max_speed=speed, seed=seed,
                              **self.config_overrides)

    def grid(self) -> List[Tuple[str, float, int]]:
        """All ``(protocol, speed, replication)`` cells in canonical order.

        The order (protocol-major, then speed, then replication) is the
        contract that makes sweep results independent of the execution
        strategy: executors return results in submission order, and the
        shard planner (:mod:`repro.exec.shard`) addresses cells by their
        position in this list.
        """
        return [(protocol, float(speed), replication)
                for protocol in self.protocols
                for speed in self.speeds
                for replication in range(self.replications)]

    def cell_configs(self) -> List[ScenarioConfig]:
        """The scenario configuration of every grid cell, in grid order."""
        return [self.cell_config(protocol, speed, replication)
                for protocol, speed, replication in self.grid()]

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible dictionary of the grid definition."""
        return {
            "protocols": list(self.protocols),
            "speeds": [float(speed) for speed in self.speeds],
            "replications": self.replications,
            "base_seed": self.base_seed,
            "config_overrides": normalize_config_fields(self.config_overrides),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SweepSettings":
        """Rebuild settings from :meth:`to_dict` output (or parsed JSON)."""
        return cls(
            protocols=tuple(data["protocols"]),
            speeds=tuple(float(speed) for speed in data["speeds"]),
            replications=int(data["replications"]),
            base_seed=int(data["base_seed"]),
            config_overrides=normalize_config_fields(data["config_overrides"]),
        )

    def to_json(self) -> str:
        """Serialise to a canonical (sorted-key) JSON string."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "SweepSettings":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(payload))


#: Canned grid profiles addressable by name (CLI ``--profile``, bench
#: subsystem).  Values are zero-argument factories.
SWEEP_PROFILES = {
    "smoke": SweepSettings.smoke,
    "bench": SweepSettings.bench,
    "paper": SweepSettings.paper,
    "dense": SweepSettings.dense,
    "sparse": SweepSettings.sparse,
    "multiflow": SweepSettings.multiflow,
    "shadowing": SweepSettings.shadowing,
    "high_mobility": SweepSettings.high_mobility,
}


def describe_sweep_profiles() -> str:
    """One line per canned profile (CLI ``--list-profiles``).

    The description is the first line of each profile factory's
    docstring, so the listing can never drift from the code.
    """
    lines = []
    for name in sorted(SWEEP_PROFILES):
        doc = (SWEEP_PROFILES[name].__doc__ or "").strip().splitlines()
        lines.append(f"  {name:<10} {doc[0] if doc else ''}")
    return "\n".join(lines)


def sweep_profile(name: str) -> SweepSettings:
    """Instantiate the canned :class:`SweepSettings` profile ``name``."""
    try:
        factory = SWEEP_PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(SWEEP_PROFILES))
        raise ValueError(f"unknown sweep profile {name!r}; "
                         f"expected one of: {known}") from None
    return factory()


@dataclasses.dataclass
class SweepResult:
    """Results of a full speed sweep."""

    settings: SweepSettings
    #: (protocol, speed) -> aggregate over replications.
    aggregates: Dict[Tuple[str, float], AggregateResult]
    #: (protocol, speed) -> individual replication results.
    runs: Dict[Tuple[str, float], List[ScenarioResult]]

    # ------------------------------------------------------------------ #
    def aggregate(self, protocol: str, speed: float) -> AggregateResult:
        """The aggregate for one grid cell."""
        return self.aggregates[(protocol, float(speed))]

    def metric_series(self, metric: str) -> Dict[str, List[float]]:
        """Per-protocol series of ``metric`` ordered by sweep speed."""
        series: Dict[str, List[float]] = {}
        for protocol in self.settings.protocols:
            series[protocol] = [
                self.aggregates[(protocol, float(speed))].mean[metric]
                for speed in self.settings.speeds
            ]
        return series

    def runs_for_protocol(self, protocol: str) -> List[ScenarioResult]:
        """Every individual run of ``protocol``, ordered by (speed, rep).

        Useful for re-deriving single-run artifacts (e.g. Table I from a
        DSR run) out of a saved sweep without re-simulating.
        """
        return [run for (cell_protocol, _speed), cell_runs
                in sorted(self.runs.items())
                if cell_protocol == protocol for run in cell_runs]

    def rows(self) -> List[dict]:
        """Flat per-cell rows (protocol, speed, every aggregated metric)."""
        out = []
        for (protocol, speed), aggregate in sorted(self.aggregates.items()):
            row = {"protocol": protocol, "max_speed": speed}
            row.update(aggregate.mean)
            out.append(row)
        return out

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible dictionary: settings plus every cell's results.

        Stamped with artifact provenance (``artifact_format`` +
        ``repro_version``, see :mod:`repro.exec.artifact`) so a saved
        sweep records which simulator produced its numbers.
        """
        cells = []
        for (protocol, speed), aggregate in sorted(self.aggregates.items()):
            cells.append({
                "protocol": protocol,
                "speed": speed,
                "aggregate": aggregate.to_dict(),
                "runs": [run.to_dict()
                         for run in self.runs[(protocol, speed)]],
            })
        return stamp_artifact(
            {"settings": self.settings.to_dict(), "cells": cells})

    @classmethod
    def from_dict(cls, data: Mapping[str, object],
                  allow_stale: bool = False) -> "SweepResult":
        """Rebuild a sweep result from :meth:`to_dict` output.

        Artifacts stamped by a different ``repro`` version raise
        :class:`~repro.exec.artifact.StaleArtifactError` — their numbers
        would not reproduce under the running simulator — unless
        ``allow_stale`` downgrades that to a warning.  Unstamped
        (pre-provenance) artifacts load with a warning.
        """
        check_artifact_stamp(data, "sweep", allow_stale=allow_stale)
        settings = SweepSettings.from_dict(data["settings"])
        aggregates: Dict[Tuple[str, float], AggregateResult] = {}
        runs: Dict[Tuple[str, float], List[ScenarioResult]] = {}
        for cell in data["cells"]:
            key = (cell["protocol"], float(cell["speed"]))
            aggregates[key] = AggregateResult.from_dict(cell["aggregate"])
            runs[key] = [ScenarioResult.from_dict(run)
                         for run in cell["runs"]]
        return cls(settings=settings, aggregates=aggregates, runs=runs)

    def to_json(self) -> str:
        """Serialise to a canonical (sorted-key) JSON string."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str,
                  allow_stale: bool = False) -> "SweepResult":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(payload), allow_stale=allow_stale)

    def save(self, path: Union[str, os.PathLike]) -> None:
        """Write the sweep (settings + every run) to ``path``, atomically.

        Uses the cache's temp + ``os.replace`` pattern: a Ctrl-C or
        killed worker mid-save can never leave a truncated artifact for
        a later ``repro-sweep render`` to crash on.
        """
        atomic_write_text(path, self.to_json())

    @classmethod
    def load(cls, path: Union[str, os.PathLike],
             allow_stale: bool = False) -> "SweepResult":
        """Reload a sweep previously written by :meth:`save`."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"),
                             allow_stale=allow_stale)


def run_speed_sweep(settings: Optional[SweepSettings] = None,
                    progress: Optional[callable] = None,
                    executor: Optional[Executor] = None,
                    cache: Optional[ResultCache] = None) -> SweepResult:
    """Run the full (protocol × speed × replication) grid.

    Parameters
    ----------
    settings:
        Grid definition; defaults to :meth:`SweepSettings.bench`.
    progress:
        Optional callback ``progress(protocol, speed, replication, result)``
        invoked after every completed run (used by the example scripts to
        print live status).  With a parallel executor the callback fires
        in completion order; the returned :class:`SweepResult` is always
        assembled in canonical grid order.
    executor:
        Execution strategy (see :mod:`repro.exec`); defaults to a fresh
        :class:`~repro.exec.SerialExecutor`.  A
        :class:`~repro.exec.ClusterExecutor` produces bit-for-bit
        identical results while fanning cells out across cores.
    cache:
        Optional :class:`~repro.exec.ResultCache`; cells with a cached
        result are loaded from disk instead of simulated.
    """
    settings = settings or SweepSettings.bench()
    runner = resolve_executor(executor, cache)
    grid = settings.grid()
    configs = settings.cell_configs()

    executor_progress = None
    if progress is not None:
        def executor_progress(index: int, config: ScenarioConfig,
                              result: ScenarioResult) -> None:
            protocol, speed, replication = grid[index]
            progress(protocol, speed, replication, result)

    results = runner.run(configs, progress=executor_progress)
    return assemble_sweep_result(settings, dict(enumerate(results)))
