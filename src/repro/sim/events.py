"""The cancellable event returned by :meth:`Simulator.schedule`.

The engine orders events by ``(time, sequence)``, where ``sequence`` is a
monotonically increasing insertion counter — this makes event ordering fully
deterministic even when many events share a timestamp, which matters for
reproducibility of MAC contention and route-discovery races.

The ordering key lives on the *heap entry* (a plain ``(time, sequence,
event)`` tuple built by the engine), not on the event object: tuple
comparison is handled entirely in C and the unique sequence number
guarantees the tie-break never falls through to comparing :class:`Event`
objects themselves.  ``Event`` is a ``__slots__`` class rather than a
dataclass — attribute access is what the run loop spends its time on, and
slots cut both the per-event memory and the lookup cost.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator


class Event:
    """A scheduled callback that its owner may cancel.

    Attributes
    ----------
    callback / args:
        The work to perform.
    cancelled:
        Set by :meth:`cancel`; cancelled events are skipped (lazy
        deletion) rather than removed from the heap — though the engine
        rebuilds the heap without them once the garbage fraction grows too
        large (see ``Simulator._compact_heap``).
    _sim:
        The owning simulator while the event sits in its heap.  The engine
        clears it when the event fires, so cancelling afterwards does not
        count towards the heap's garbage statistics.
    """

    __slots__ = ("callback", "args", "cancelled", "_sim")

    def __init__(self, callback: Callable[..., Any], args: tuple,
                 sim: "Simulator") -> None:
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._sim: Optional["Simulator"] = sim

    def cancel(self) -> None:
        """Cancel the event.  Idempotent; safe to call after it fired."""
        if not self.cancelled:
            self.cancelled = True
            if self._sim is not None:
                self._sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event {self.callback!r} {state}>"
