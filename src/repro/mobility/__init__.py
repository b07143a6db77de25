"""Node mobility models.

The paper uses the random waypoint model: each node picks a uniformly
random destination in the field, moves towards it at a uniformly random
constant speed in ``(0, max_speed]``, pauses for a fixed time, and
repeats.  :class:`~repro.mobility.random_waypoint.RandomWaypoint`
implements this with *analytic* position evaluation — positions are
computed on demand from the waypoint segments instead of being advanced by
periodic movement events, which keeps the event queue free of mobility
ticks (a performance idiom borrowed from NS-2's setdest trace playback).

Also provided: :class:`~repro.mobility.base.StaticMobility` (fixed
positions, used heavily by tests and topology examples).
"""

from repro.mobility.base import MobilityModel, StaticMobility, Waypoint
from repro.mobility.random_waypoint import RandomWaypoint

__all__ = [
    "MobilityModel",
    "StaticMobility",
    "Waypoint",
    "RandomWaypoint",
]


# ---------------------------------------------------------------------- #
# registry self-registration (see repro.registry)
# ---------------------------------------------------------------------- #
# Factories receive the per-node RNG stream and node id; they must draw
# from the RNG in exactly the order the historical builder did (static
# placement draws two uniforms) so existing scenarios stay bit-for-bit.
from repro.registry import MOBILITY  # noqa: E402


@MOBILITY.register("static", params=(),
                   description="fixed positions (explicit or uniformly "
                               "random)")
def _make_static(config, params, *, rng, node_id):
    if config.static_positions is not None:
        x, y = config.static_positions[node_id]
    else:
        x = float(rng.uniform(0, config.field_size[0]))
        y = float(rng.uniform(0, config.field_size[1]))
    return StaticMobility(x, y)


@MOBILITY.register("random_waypoint", params=(),
                   description="the paper's random waypoint model")
def _make_random_waypoint(config, params, *, rng, node_id):
    return RandomWaypoint(rng, field_size=config.field_size,
                          max_speed=config.max_speed,
                          min_speed=config.min_speed,
                          pause_time=config.pause_time, **params)
