"""Benchmark execution and ``BENCH_<profile>.json`` reports.

:func:`run_case` builds a scenario, runs it under a wall-clock timer, and
reads the kernel's instrumentation counters off the simulator and the
channel.  :func:`run_profile` does that for every case of a profile and
assembles a :class:`BenchReport` that serialises to the on-disk artifact.

Benchmarks always simulate — they never consult the result cache — and
always run in-process, so the numbers measure the kernel, not the
executor or JSON (de)serialisation.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import time
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Union

import numpy

from repro.bench.profiles import BenchCase, BenchProfile
from repro.scenario.builder import ScenarioBuilder
from repro.version import __version__


def environment_meta() -> Dict[str, str]:
    """Environment provenance stamp for a benchmark artifact.

    Perf numbers are only comparable between like hosts, so every
    artifact records where it was produced; ``repro-bench compare``
    warns (without failing) when the ``host`` entries differ.
    """
    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro_version": __version__,
    }


@dataclasses.dataclass
class BenchCaseResult:
    """Measurements from one benchmarked scenario run."""

    name: str
    protocol: str
    n_nodes: int
    sim_time: float
    #: Wall-clock seconds for the simulation run (building excluded).
    wall_time_s: float
    #: Events fired and the headline throughput figure.
    events: int
    events_per_sec: float
    #: Event-heap health.
    peak_heap_size: int
    heap_compactions: int
    pending_events: int
    cancelled_pending: int
    #: Channel / spatial-index health (grid_stats() of the channel, which
    #: includes grid_rebuilds, occupancy and candidate-set statistics).
    transmissions: int
    grid: Dict[str, float]
    #: Horizon-batch statistics of the run loop (how many distinct
    #: timestamps fired events, and the mean events per timestamp).
    #: Defaulted so artifacts recorded before these counters existed
    #: still load.
    horizon_batches: int = 0
    mean_batch_size: float = 0.0
    #: Fire-group engagement statistics of ``schedule_fire_many``.
    #: ``mean_batch_size`` stays ~1.0 by construction (distance-dependent
    #: delays give unique delivery timestamps); these count the grouped
    #: *scheduling* pushes, which is where batching actually engages.
    fire_groups: int = 0
    fire_group_members: int = 0
    fire_group_requeued: int = 0
    mean_group_size: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible dictionary of every measurement."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "BenchCaseResult":
        """Rebuild a case result from :meth:`to_dict` output.

        Tolerant of unknown keys (artifacts written by a newer version
        than the reading code), which are silently dropped.
        """
        known = {field.name for field in dataclasses.fields(cls)}
        return cls(**{key: value for key, value in data.items()
                      if key in known})


@dataclasses.dataclass
class BenchReport:
    """All measurements of one profile run, serialisable to JSON."""

    profile: str
    description: str
    cases: List[BenchCaseResult]
    #: Environment stamp: perf numbers are only comparable on like hosts.
    repro_version: str = __version__
    python_version: str = platform.python_version()
    machine: str = platform.machine()
    #: Unix timestamp of the run (wall-clock provenance, not an input).
    created_unix: float = 0.0
    #: Full environment provenance (host, platform, python, numpy,
    #: repro_version) — see :func:`environment_meta`.
    meta: Dict[str, str] = dataclasses.field(default_factory=environment_meta)

    # ------------------------------------------------------------------ #
    def totals(self) -> Dict[str, float]:
        """Aggregate wall time / events / events-per-sec over all cases."""
        wall = sum(case.wall_time_s for case in self.cases)
        events = sum(case.events for case in self.cases)
        return {
            "wall_time_s": wall,
            "events": events,
            "events_per_sec": (events / wall) if wall > 0 else 0.0,
        }

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        return {
            "profile": self.profile,
            "description": self.description,
            "repro_version": self.repro_version,
            "python_version": self.python_version,
            "machine": self.machine,
            "created_unix": self.created_unix,
            "meta": dict(self.meta),
            "cases": [case.to_dict() for case in self.cases],
            "totals": self.totals(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "BenchReport":
        return cls(
            profile=data["profile"],
            description=data["description"],
            cases=[BenchCaseResult.from_dict(case)
                   for case in data["cases"]],
            repro_version=data["repro_version"],
            python_version=data["python_version"],
            machine=data["machine"],
            created_unix=float(data["created_unix"]),
            # Pre-meta artifacts load with an empty stamp rather than the
            # reading host's (which would fake same-host provenance).
            meta=dict(data.get("meta", {})),
        )

    def to_json(self) -> str:
        """Serialise to indented, sorted-key JSON (diff-friendly)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, payload: str) -> "BenchReport":
        return cls.from_dict(json.loads(payload))

    def artifact_name(self) -> str:
        """Canonical artifact filename for this profile."""
        return f"BENCH_{self.profile}.json"

    def save(self, directory: Union[str, os.PathLike] = ".") -> Path:
        """Write ``BENCH_<profile>.json`` into ``directory``; return the path.

        The directory is created if needed.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / self.artifact_name()
        path.write_text(self.to_json(), encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: Union[str, os.PathLike]) -> "BenchReport":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------- #
def run_case(case: BenchCase) -> BenchCaseResult:
    """Build and run one benchmark scenario; return its measurements.

    Only the simulation itself is timed — scenario construction (node
    wiring, trajectory setup) is excluded, as is metric collection.
    """
    scenario = ScenarioBuilder(case.config).build()
    sim = scenario.sim
    started = time.perf_counter()  # repro-lint: ignore[D-wallclock] this IS the measurement
    sim.run(until=case.config.sim_time)
    wall = time.perf_counter() - started  # repro-lint: ignore[D-wallclock] this IS the measurement
    events = sim.processed_events
    return BenchCaseResult(
        name=case.name,
        protocol=case.config.protocol,
        n_nodes=case.config.n_nodes,
        sim_time=case.config.sim_time,
        wall_time_s=wall,
        events=events,
        events_per_sec=(events / wall) if wall > 0 else 0.0,
        peak_heap_size=sim.peak_heap_size,
        heap_compactions=sim.heap_compactions,
        pending_events=sim.pending_events,
        cancelled_pending=sim.cancelled_pending,
        transmissions=scenario.channel.transmissions,
        grid=scenario.channel.grid_stats(),
        horizon_batches=sim.horizon_batches,
        mean_batch_size=sim.mean_batch_size,
        fire_groups=sim.fire_groups,
        fire_group_members=sim.fire_group_members,
        fire_group_requeued=sim.fire_group_requeued,
        mean_group_size=sim.mean_group_size,
    )


def run_profile(profile: BenchProfile,
                progress: Optional[Callable[[BenchCaseResult], None]] = None,
                ) -> BenchReport:
    """Run every case of ``profile`` and assemble the report.

    Parameters
    ----------
    profile:
        The profile to run (see :func:`repro.bench.profiles.bench_profile`).
    progress:
        Optional callback invoked with each completed
        :class:`BenchCaseResult` (the CLI uses it for live output).
    """
    results: List[BenchCaseResult] = []
    for case in profile.cases:
        result = run_case(case)
        results.append(result)
        if progress is not None:
            progress(result)
    return BenchReport(profile=profile.name,
                       description=profile.description,
                       cases=results,
                       created_unix=time.time())  # repro-lint: ignore[D-wallclock] provenance stamp
