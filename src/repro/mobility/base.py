"""Mobility model interface and the trivial static model.

Every model describes its motion as :class:`Waypoint` segments: besides
:meth:`MobilityModel.position` it implements the abstract
:meth:`MobilityModel.segment_at`.  The channel loads each node's
covering segment into its structure-of-arrays kinematics and reloads it
from ``segment_at`` once the segment's span has ended, so it holds
*exact* closed-form positions (origin + velocity + segment span) for
every node; a model without ``segment_at`` cannot be instantiated.
"""

from __future__ import annotations

import dataclasses
import math
from abc import ABC, abstractmethod
from typing import Tuple


@dataclasses.dataclass(frozen=True)
class Waypoint:
    """A linear movement segment.

    The node is at ``start_pos`` at ``start_time`` and moves in a straight
    line, arriving at ``end_pos`` at ``end_time``; it then stays at
    ``end_pos`` until the next segment begins.
    """

    start_time: float
    end_time: float
    start_pos: Tuple[float, float]
    end_pos: Tuple[float, float]

    def position(self, time: float) -> Tuple[float, float]:
        """Interpolated position at ``time`` (clamped to the segment)."""
        if time <= self.start_time or self.end_time <= self.start_time:
            return self.start_pos
        if time >= self.end_time:
            return self.end_pos
        frac = (time - self.start_time) / (self.end_time - self.start_time)
        x = self.start_pos[0] + frac * (self.end_pos[0] - self.start_pos[0])
        y = self.start_pos[1] + frac * (self.end_pos[1] - self.start_pos[1])
        return (x, y)


class MobilityModel(ABC):
    """Position of one node as a function of simulation time."""

    @abstractmethod
    def position(self, time: float) -> Tuple[float, float]:
        """The node's ``(x, y)`` position at ``time`` seconds."""

    def speed_at(self, time: float) -> float:
        """Instantaneous speed (m/s) at ``time``; 0 unless overridden."""
        return 0.0

    @abstractmethod
    def segment_at(self, time: float) -> Waypoint:
        """The :class:`Waypoint` segment covering ``time``.

        Segments must tile time: the returned segment satisfies
        ``start_time <= time < end_time``, and its interpolation equals
        :meth:`position` at every time it covers.
        """


class StaticMobility(MobilityModel):
    """A node that never moves."""

    def __init__(self, x: float, y: float):
        self._pos = (float(x), float(y))

    def position(self, time: float) -> Tuple[float, float]:
        return self._pos

    def segment_at(self, time: float) -> Waypoint:
        # One segment covers all of time; the zero-velocity interpolation
        # (frac = time/inf = 0) reproduces the fixed position exactly.
        return Waypoint(0.0, math.inf, self._pos, self._pos)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"StaticMobility{self._pos}"
