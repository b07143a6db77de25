"""Discrete-event simulation kernel.

This subpackage is the stand-in for the NS-2 scheduler used by the paper.
It provides:

* :class:`~repro.sim.engine.Simulator` — a heap-based event scheduler with
  a floating-point simulation clock that fires events in a fixed
  ``(time, sequence)`` order.
* :class:`~repro.sim.events.Event` — a scheduled callback, returned by
  :meth:`~repro.sim.engine.Simulator.schedule` and cancelled through it.
* :class:`~repro.sim.rng.RngRegistry` — named, independent random streams
  derived from a single scenario seed so that runs are reproducible and
  individual model components (mobility, MAC backoff, traffic, eavesdropper
  selection) can be re-seeded independently.
* :class:`~repro.sim.trace.TraceLog` — an optional structured event trace,
  the moral equivalent of an NS-2 trace file.
"""

from repro.sim.engine import Simulator, SimulationError
from repro.sim.events import Event
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceLog, TraceRecord

__all__ = [
    "Simulator",
    "SimulationError",
    "Event",
    "RngRegistry",
    "TraceLog",
    "TraceRecord",
]
