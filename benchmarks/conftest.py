"""Shared infrastructure for the per-figure benchmarks.

Every benchmark in this directory regenerates one of the paper's
evaluation artifacts (Table I, Figures 5-11) plus two ablations.  Two
kinds of work happen per benchmark:

* the *timed* part (`benchmark.pedantic(...)`) runs one representative
  scenario of the figure's workload so `--benchmark-only` reports how
  expensive regenerating that figure is per simulation run;
* the *shape check* compares the per-protocol series extracted from a
  shared speed sweep (computed once per session) against the paper's
  qualitative claim — who wins, and where the crossovers fall.

Profiles: set ``REPRO_FIGURES_PROFILE=paper`` to run the full paper-scale
grid (hours); the default ``bench`` profile finishes in a few minutes and
preserves the protocol ordering.

The shared sweep also honours the execution-subsystem knobs:

* ``REPRO_FIGURES_WORKERS=N`` — run the sweep on the pooled
  :class:`~repro.exec.ClusterExecutor` with N worker processes
  (results are bit-for-bit identical to the serial run).
* ``REPRO_FIGURES_CACHE=DIR`` — reuse an on-disk result cache, so repeated
  benchmark sessions only simulate cells that changed.

The *timed* ``benchmark.pedantic`` runs always execute in-process —
timings measure the simulator, never the executor.
"""

from __future__ import annotations

import os

import pytest

from repro.exec import build_executor
from repro.experiments.sweep import SweepSettings, run_speed_sweep
from repro.scenario.config import ScenarioConfig

#: Speeds used by the default bench profile (low / high end of the paper's range).
FIGURE_SPEEDS = (2.0, 20.0)


def bench_profile() -> str:
    return os.environ.get("REPRO_FIGURES_PROFILE", "bench")


def sweep_settings() -> SweepSettings:
    """Sweep grid shared by the shape checks."""
    if bench_profile() == "paper":
        return SweepSettings.paper()
    return SweepSettings(
        protocols=("DSR", "AODV", "MTS"),
        speeds=FIGURE_SPEEDS,
        replications=2,
        base_seed=7,
        config_overrides=dict(n_nodes=50, field_size=(1000.0, 1000.0),
                              sim_time=20.0),
    )


def single_run_config(protocol: str, max_speed: float = 10.0,
                      seed: int = 7) -> ScenarioConfig:
    """Configuration of the single timed scenario each benchmark runs."""
    if bench_profile() == "paper":
        return ScenarioConfig.paper_default(protocol=protocol,
                                            max_speed=max_speed, seed=seed)
    return ScenarioConfig(protocol=protocol, n_nodes=50,
                          field_size=(1000.0, 1000.0), max_speed=max_speed,
                          sim_time=15.0, seed=seed)


def sweep_executor():
    """Executor for the shared sweep, configured from the environment."""
    return build_executor(int(os.environ.get("REPRO_FIGURES_WORKERS", "1")),
                          os.environ.get("REPRO_FIGURES_CACHE") or None)


@pytest.fixture(scope="session")
def figure_sweep():
    """The shared (protocol × speed) sweep all shape checks read from."""
    with sweep_executor() as executor:
        return run_speed_sweep(sweep_settings(), executor=executor)


def series_mean(series, protocol):
    values = series[protocol]
    return sum(values) / len(values)
