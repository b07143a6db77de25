"""Random waypoint mobility (the paper's model).

Behaviour (paper §IV-A): a node starts at a uniformly random position,
picks a uniformly random destination inside the field, travels there in a
straight line at a constant speed drawn uniformly from
``(min_speed, max_speed]``, pauses for ``pause_time`` seconds, and
repeats.

The trajectory is materialised lazily as a list of
:class:`~repro.mobility.base.Waypoint` segments; position queries binary-
search the segment list, so looking up a position is O(log segments) and
no simulation events are needed to "move" nodes.  Segments are generated
deterministically from the model's own random generator, so the trajectory
depends only on the scenario seed and the node's stream name.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Tuple

import numpy as np

from repro.mobility.base import MobilityModel, Waypoint


class RandomWaypoint(MobilityModel):
    """Random waypoint trajectory inside a rectangular field.

    Parameters
    ----------
    rng:
        Dedicated random generator for this node's trajectory.
    field_size:
        ``(width, height)`` of the simulation field in metres.
    max_speed:
        Maximum speed in m/s; each leg's speed is uniform in
        ``(min_speed, max_speed]``.
    min_speed:
        Minimum speed in m/s.  Strictly positive to avoid the well-known
        random-waypoint "speed decay to zero" pathology.
    pause_time:
        Pause at each destination, seconds (paper: ~1 s).
    initial_position:
        Optional fixed starting position; random when omitted.
    """

    #: How much trajectory (seconds) to generate per extension step.
    _EXTEND_CHUNK = 200.0

    def __init__(
        self,
        rng: np.random.Generator,
        field_size: Tuple[float, float] = (1000.0, 1000.0),
        max_speed: float = 10.0,
        min_speed: float = 0.1,
        pause_time: float = 1.0,
        initial_position: Optional[Tuple[float, float]] = None,
    ):
        if max_speed <= 0:
            raise ValueError("max_speed must be positive")
        if min_speed <= 0 or min_speed > max_speed:
            raise ValueError("min_speed must be in (0, max_speed]")
        if pause_time < 0:
            raise ValueError("pause_time must be non-negative")
        self.rng = rng
        self.field_size = (float(field_size[0]), float(field_size[1]))
        self.max_speed = float(max_speed)
        self.min_speed = float(min_speed)
        self.pause_time = float(pause_time)

        if initial_position is None:
            start = self._random_point()
        else:
            start = (float(initial_position[0]), float(initial_position[1]))
            self._validate_in_field(start)
        self._segments: List[Waypoint] = []
        self._segment_starts: List[float] = []
        self._trajectory_end: float = 0.0
        self._current_pos = start
        # Memo of the last segment a query landed in: consecutive queries
        # cluster in time, so most lookups skip the bisect entirely.
        self._cached_index: int = 0
        self._append_segment(Waypoint(0.0, 0.0, start, start))

    # ------------------------------------------------------------------ #
    # trajectory construction
    # ------------------------------------------------------------------ #
    def _random_point(self) -> Tuple[float, float]:
        return (float(self.rng.uniform(0.0, self.field_size[0])),
                float(self.rng.uniform(0.0, self.field_size[1])))

    def _validate_in_field(self, pos: Tuple[float, float]) -> None:
        if not (0.0 <= pos[0] <= self.field_size[0]
                and 0.0 <= pos[1] <= self.field_size[1]):
            raise ValueError(f"position {pos} outside field {self.field_size}")

    def _append_segment(self, segment: Waypoint) -> None:
        self._segments.append(segment)
        self._segment_starts.append(segment.start_time)
        self._trajectory_end = segment.end_time
        self._current_pos = segment.end_pos

    def _extend_to(self, time: float) -> None:
        """Generate waypoint legs until the trajectory covers ``time``."""
        while self._trajectory_end <= time:
            here = self._current_pos
            t0 = self._trajectory_end
            destination = self._random_point()
            speed = float(self.rng.uniform(self.min_speed, self.max_speed))
            distance = float(np.hypot(destination[0] - here[0],
                                      destination[1] - here[1]))
            travel_time = distance / speed if speed > 0 else 0.0
            if travel_time > 0:
                self._append_segment(Waypoint(t0, t0 + travel_time, here,
                                              destination))
                t0 += travel_time
            if self.pause_time > 0:
                self._append_segment(Waypoint(t0, t0 + self.pause_time,
                                              destination, destination))

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def _segment_index(self, time: float) -> int:
        """Index of the segment covering ``time`` (trajectory must cover it).

        Checks the memoised index first; a hit means ``time`` falls in the
        half-open span ``[starts[i], starts[i+1])``, which is exactly the
        segment ``bisect_right(starts, time) - 1`` would select, so the
        fast path can never disagree with the search it replaces.
        """
        starts = self._segment_starts
        index = self._cached_index
        if (index + 1 < len(starts)
                and starts[index] <= time < starts[index + 1]):
            return index
        index = bisect.bisect_right(starts, time) - 1
        if index < 0:
            index = 0
        self._cached_index = index
        return index

    def position(self, time: float) -> Tuple[float, float]:
        # Hot path: called once per candidate receiver per transmission.
        # The body is _segment_index + Waypoint.position inlined — the
        # expressions MUST stay textually identical to those methods (the
        # float-op order is part of the determinism contract).
        if time < 0:
            time = 0.0
        if time >= self._trajectory_end:
            self._extend_to(time + self._EXTEND_CHUNK)
        starts = self._segment_starts
        index = self._cached_index
        if not (index + 1 < len(starts)
                and starts[index] <= time < starts[index + 1]):
            index = bisect.bisect_right(starts, time) - 1
            if index < 0:
                index = 0
            self._cached_index = index
        seg = self._segments[index]
        start_time = seg.start_time
        end_time = seg.end_time
        start_pos = seg.start_pos
        if time <= start_time or end_time <= start_time:
            return start_pos
        end_pos = seg.end_pos
        if time >= end_time:
            return end_pos
        frac = (time - start_time) / (end_time - start_time)
        x = start_pos[0] + frac * (end_pos[0] - start_pos[0])
        y = start_pos[1] + frac * (end_pos[1] - start_pos[1])
        return (x, y)

    def speed_at(self, time: float) -> float:
        if time < 0:
            time = 0.0
        if time >= self._trajectory_end:
            self._extend_to(time + self._EXTEND_CHUNK)
        seg = self._segments[self._segment_index(time)]
        duration = seg.end_time - seg.start_time
        if duration <= 0:
            return 0.0
        dist = float(np.hypot(seg.end_pos[0] - seg.start_pos[0],
                              seg.end_pos[1] - seg.start_pos[1]))
        return dist / duration

    def segment_at(self, time: float) -> Waypoint:
        """The waypoint segment covering ``time`` (extends the trajectory).

        Used by the channel to (re)load a node's SoA kinematics entry.
        """
        if time < 0:
            time = 0.0
        if time >= self._trajectory_end:
            self._extend_to(time + self._EXTEND_CHUNK)
        return self._segments[self._segment_index(time)]

    def segments_until(self, time: float) -> List[Waypoint]:
        """All waypoint segments covering ``[0, time]`` (for inspection)."""
        self._extend_to(time)
        return [s for s in self._segments if s.start_time <= time]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"RandomWaypoint(max_speed={self.max_speed}, "
                f"pause={self.pause_time}, field={self.field_size})")
