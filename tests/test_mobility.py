"""Unit tests for the mobility models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mobility.base import StaticMobility, Waypoint
from repro.mobility.random_waypoint import RandomWaypoint


class TestWaypoint:
    def test_interpolation(self):
        seg = Waypoint(0.0, 10.0, (0.0, 0.0), (100.0, 0.0))
        assert seg.position(0.0) == (0.0, 0.0)
        assert seg.position(5.0) == (50.0, 0.0)
        assert seg.position(10.0) == (100.0, 0.0)

    def test_clamping_outside_segment(self):
        seg = Waypoint(2.0, 4.0, (0.0, 0.0), (10.0, 10.0))
        assert seg.position(0.0) == (0.0, 0.0)
        assert seg.position(99.0) == (10.0, 10.0)

    def test_zero_duration_segment(self):
        seg = Waypoint(1.0, 1.0, (3.0, 4.0), (3.0, 4.0))
        assert seg.position(1.0) == (3.0, 4.0)


class TestStaticMobility:
    def test_position_never_changes(self):
        model = StaticMobility(12.0, 34.0)
        assert model.position(0.0) == (12.0, 34.0)
        assert model.position(1e6) == (12.0, 34.0)
        assert model.speed_at(5.0) == 0.0


class TestRandomWaypoint:
    def make(self, seed=3, **kwargs):
        params = dict(field_size=(1000.0, 1000.0), max_speed=10.0,
                      min_speed=0.5, pause_time=1.0)
        params.update(kwargs)
        return RandomWaypoint(np.random.default_rng(seed), **params)

    def test_positions_stay_inside_field(self):
        model = self.make()
        for t in np.linspace(0.0, 500.0, 400):
            x, y = model.position(float(t))
            assert 0.0 <= x <= 1000.0
            assert 0.0 <= y <= 1000.0

    def test_trajectory_is_deterministic_per_seed(self):
        a = self.make(seed=9)
        b = self.make(seed=9)
        c = self.make(seed=10)
        times = [0.0, 3.7, 55.0, 120.0]
        assert [a.position(t) for t in times] == [b.position(t) for t in times]
        assert [a.position(t) for t in times] != [c.position(t) for t in times]

    def test_movement_is_continuous(self):
        """No teleporting: displacement over dt is bounded by max_speed*dt."""
        model = self.make(max_speed=20.0)
        dt = 0.1
        prev = model.position(0.0)
        for step in range(1, 600):
            current = model.position(step * dt)
            dist = np.hypot(current[0] - prev[0], current[1] - prev[1])
            assert dist <= 20.0 * dt + 1e-9
            prev = current

    def test_speed_within_bounds(self):
        model = self.make(max_speed=15.0, min_speed=1.0)
        for t in np.linspace(0.0, 300.0, 100):
            speed = model.speed_at(float(t))
            assert 0.0 <= speed <= 15.0 + 1e-9

    def test_initial_position_respected(self):
        model = self.make(initial_position=(100.0, 200.0))
        assert model.position(0.0) == (100.0, 200.0)

    def test_queries_out_of_order_are_consistent(self):
        a = self.make(seed=5)
        b = self.make(seed=5)
        forward = [a.position(t) for t in (10.0, 200.0, 40.0)]
        backward = [b.position(t) for t in (200.0, 10.0, 40.0)]
        assert forward[0] == backward[1]
        assert forward[1] == backward[0]
        assert forward[2] == backward[2]

    def test_segments_until_covers_request(self):
        model = self.make()
        segments = model.segments_until(50.0)
        assert segments[0].start_time == 0.0
        assert segments[-1].start_time <= 50.0

    def test_negative_time_clamped(self):
        model = self.make()
        assert model.position(-5.0) == model.position(0.0)

    def test_invalid_parameters(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            RandomWaypoint(rng, max_speed=0.0)
        with pytest.raises(ValueError):
            RandomWaypoint(rng, max_speed=5.0, min_speed=6.0)
        with pytest.raises(ValueError):
            RandomWaypoint(rng, pause_time=-1.0)
        with pytest.raises(ValueError):
            RandomWaypoint(rng, initial_position=(2000.0, 0.0))
