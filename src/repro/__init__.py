"""repro — reproduction of Li & Kwok, "A New Multipath Routing Approach to
Enhancing TCP Security in Ad Hoc Wireless Networks" (ICPPW 2005).

The package contains two layers:

* A packet-level discrete-event simulator for mobile ad hoc wireless
  networks (:mod:`repro.sim`, :mod:`repro.net`, :mod:`repro.mac`,
  :mod:`repro.mobility`, :mod:`repro.transport`, :mod:`repro.apps`),
  standing in for the NS-2 substrate the paper used.
* The paper's contribution — the MTS multipath routing protocol
  (:mod:`repro.core`) — together with the DSR and AODV baselines
  (:mod:`repro.routing`), the passive-eavesdropper security model
  (:mod:`repro.security`), the paper's metrics (:mod:`repro.metrics`),
  and the experiment harness (:mod:`repro.scenario`,
  :mod:`repro.experiments`) with its execution subsystem
  (:mod:`repro.exec` — serial and pooled parallel executors plus an
  on-disk result cache).

Quickstart
----------

>>> from repro.scenario import ScenarioConfig, run_scenario
>>> cfg = ScenarioConfig(protocol="MTS", max_speed=5.0, sim_time=30.0, seed=1)
>>> result = run_scenario(cfg)
>>> result.delivery_rate > 0
True
"""

from typing import Any, List

from repro import _lazy

#: Public name -> defining module, imported on first access (PEP 562).
_EXPORTS = {
    "__version__": "repro.version",
    "ScenarioConfig": "repro.scenario.config",
    "ScenarioBuilder": "repro.scenario.builder",
    "Scenario": "repro.scenario.builder",
    "run_scenario": "repro.scenario.runner",
    "run_replications": "repro.scenario.runner",
    "Executor": "repro.exec.executor",
    "SerialExecutor": "repro.exec.executor",
    "ResultCache": "repro.exec.cache",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    return _lazy.load(globals(), _EXPORTS, name)


def __dir__() -> List[str]:
    return _lazy.names(globals(), _EXPORTS)
