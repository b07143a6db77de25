"""Scenario construction and execution.

* :class:`~repro.scenario.config.ScenarioConfig` — every knob of a
  simulation run (paper §IV-A defaults plus scaled-down variants).
* :class:`~repro.scenario.builder.ScenarioBuilder` /
  :class:`~repro.scenario.builder.Scenario` — wires nodes, radios, routing
  agents, TCP flows, the eavesdropper and the metrics collector together.
* :mod:`repro.scenario.results` — per-run and aggregated result records.
* :mod:`repro.scenario.runner` — convenience functions to run a single
  scenario or several replications with independent seeds.
"""

from typing import Any, List

from repro import _lazy

#: Public name -> defining module, imported on first access (PEP 562).
_EXPORTS = {
    "ScenarioConfig": "repro.scenario.config",
    "Scenario": "repro.scenario.builder",
    "ScenarioBuilder": "repro.scenario.builder",
    "ScenarioResult": "repro.scenario.results",
    "AggregateResult": "repro.scenario.results",
    "aggregate_results": "repro.scenario.results",
    "run_scenario": "repro.scenario.runner",
    "run_replications": "repro.scenario.runner",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    return _lazy.load(globals(), _EXPORTS, name)


def __dir__() -> List[str]:
    return _lazy.names(globals(), _EXPORTS)
