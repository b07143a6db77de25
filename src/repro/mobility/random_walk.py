"""Random walk (random direction) mobility.

Not used by the paper's headline experiments but provided as an
alternative model for sensitivity studies: a node repeatedly picks a
random direction and walks for a fixed leg duration at a random speed,
reflecting off the field boundary.
"""

from __future__ import annotations

import bisect
import math
from typing import List, Tuple

import numpy as np

from repro.mobility.base import MobilityModel, Waypoint


class RandomWalk(MobilityModel):
    """Random-direction walk with boundary reflection.

    Parameters
    ----------
    rng:
        Dedicated random generator for this node's trajectory.
    field_size:
        ``(width, height)`` of the field in metres.
    max_speed:
        Maximum leg speed (uniform in ``(min_speed, max_speed]``).
    min_speed:
        Minimum leg speed.
    leg_duration:
        Duration of one straight-line leg in seconds.
    """

    _EXTEND_CHUNK = 200.0

    def __init__(self, rng: np.random.Generator,
                 field_size: Tuple[float, float] = (1000.0, 1000.0),
                 max_speed: float = 10.0, min_speed: float = 0.1,
                 leg_duration: float = 5.0):
        if max_speed <= 0 or min_speed <= 0 or min_speed > max_speed:
            raise ValueError("speeds must satisfy 0 < min_speed <= max_speed")
        if leg_duration <= 0:
            raise ValueError("leg_duration must be positive")
        self.rng = rng
        self.field_size = (float(field_size[0]), float(field_size[1]))
        self.max_speed = float(max_speed)
        self.min_speed = float(min_speed)
        self.leg_duration = float(leg_duration)

        start = (float(rng.uniform(0, self.field_size[0])),
                 float(rng.uniform(0, self.field_size[1])))
        self._segments: List[Waypoint] = [Waypoint(0.0, 0.0, start, start)]
        self._segment_starts: List[float] = [0.0]
        self._end_time = 0.0
        self._pos = start
        # Memo of the last segment a query landed in (queries cluster in
        # time); a hit is equivalent to the bisect it replaces.
        self._cached_index = 0

    def _reflect(self, value: float, limit: float) -> float:
        """Reflect ``value`` into ``[0, limit]``."""
        if limit <= 0:
            return 0.0
        period = 2 * limit
        value = value % period
        return value if value <= limit else period - value

    def _extend_to(self, time: float) -> None:
        while self._end_time <= time:
            angle = float(self.rng.uniform(0, 2 * math.pi))
            speed = float(self.rng.uniform(self.min_speed, self.max_speed))
            t0 = self._end_time
            t1 = t0 + self.leg_duration
            raw_x = self._pos[0] + speed * self.leg_duration * math.cos(angle)
            raw_y = self._pos[1] + speed * self.leg_duration * math.sin(angle)
            end = (self._reflect(raw_x, self.field_size[0]),
                   self._reflect(raw_y, self.field_size[1]))
            seg = Waypoint(t0, t1, self._pos, end)
            self._segments.append(seg)
            self._segment_starts.append(t0)
            self._end_time = t1
            self._pos = end

    def _segment_index(self, time: float) -> int:
        """Index of the segment covering ``time``; memo hit skips the bisect.

        The fast-path predicate is the half-open span the bisect would
        select, so the two can never disagree (same shape as
        :meth:`repro.mobility.random_waypoint.RandomWaypoint._segment_index`).
        """
        starts = self._segment_starts
        index = self._cached_index
        if (index + 1 < len(starts)
                and starts[index] <= time < starts[index + 1]):
            return index
        index = max(bisect.bisect_right(starts, time) - 1, 0)
        self._cached_index = index
        return index

    def position(self, time: float) -> Tuple[float, float]:
        if time < 0:
            time = 0.0
        if time >= self._end_time:
            self._extend_to(time + self._EXTEND_CHUNK)
        index = self._segment_index(time)
        seg = self._segments[index]
        if self._kin_push is not None and index != self._kin_pushed_index:
            # Segment change: push it into the channel's SoA kinematics.
            self._kin_pushed_index = index
            self._kin_push(self._kin_index, seg)
        return seg.position(time)

    def segment_at(self, time: float) -> Waypoint:
        """The leg segment covering ``time`` (extends the trajectory)."""
        if time < 0:
            time = 0.0
        if time >= self._end_time:
            self._extend_to(time + self._EXTEND_CHUNK)
        index = self._segment_index(time)
        self._kin_pushed_index = index
        return self._segments[index]
