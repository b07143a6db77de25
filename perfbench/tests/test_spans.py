"""Self-time accounting, layer attribution and the percentile rule."""

from __future__ import annotations

import functools

import pytest

from perfbench.spans import (
    SpanRecorder, layer_of, layer_of_module, nearest_rank, tail_percentile,
)


def scripted_clock(*ticks):
    """A nanosecond clock returning ``ticks`` in order."""
    values = iter(ticks)
    return lambda: next(values)


def test_nested_spans_split_self_time():
    rec = SpanRecorder(clock=scripted_clock(0, 10, 30, 50))

    def inner():
        return "x"

    def outer():
        return rec.call("mac", "op", inner)

    assert rec.call("net.channel", "op", outer) == "x"
    assert rec.self_ns == {"mac": 20, "net.channel": 30}
    assert rec.top_level_ns == 50
    assert rec.incl_ns[("net.channel", "op")] == 50
    assert rec.depth == 0


def test_raising_callback_still_closes_its_span():
    rec = SpanRecorder(clock=scripted_clock(0, 5, 25, 40, 100, 107))

    def boom():
        raise RuntimeError("callback failed")

    def outer():
        with pytest.raises(RuntimeError):
            rec.call("routing", "dispatch", boom)
        return "recovered"

    assert rec.call("core", "dispatch", outer) == "recovered"
    # core: 40 total, 20 of it inside the raising routing span.
    assert rec.self_ns == {"core": 20, "routing": 20}
    with pytest.raises(RuntimeError):
        rec.call("routing", "dispatch", boom)
    assert rec.self_ns["routing"] == 27
    assert rec.top_level_ns == 47
    assert rec.depth == 0
    assert rec.calls[("routing", "dispatch")] == 2


def test_self_times_add_up_to_the_top_level_spans():
    rec = SpanRecorder()

    def leaf():
        return sum(range(100))

    def middle():
        rec.call("net.interface", "op", leaf)
        rec.call("net.interface", "op", leaf)

    for _ in range(5):
        rec.call("mac", "op", middle)
    assert sum(rec.self_ns.values()) == rec.top_level_ns
    assert all(ns >= 0 for ns in rec.self_ns.values())


def test_layer_of_module_maps_repro_subpackages():
    assert layer_of_module("repro.core.mts") == "core"
    assert layer_of_module("repro.net.channel") == "net.channel"
    assert layer_of_module("repro.sim.engine") == "sim"
    assert layer_of_module("numpy.core") == "other"
    assert layer_of_module(None) == "other"


def test_layer_of_uses_the_owning_instance_and_unwraps_partials():
    class Agent:
        def timer(self):
            pass

    Agent.__module__ = "repro.core.mts"

    def plain():
        pass

    plain.__module__ = "repro.transport.tcp_reno"
    assert layer_of(Agent().timer) == "core"
    assert layer_of(plain) == "transport"
    assert layer_of(functools.partial(plain)) == "transport"


@pytest.mark.parametrize("count,pct", [
    (1, 50.0), (19, 50.0), (20, 50.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9),
])
def test_tail_rule_needs_ten_samples_beyond(count, pct):
    samples = list(range(count))
    chosen, value, n = tail_percentile(samples)
    assert (chosen, n) == (pct, count)
    assert round(count * (100 - chosen) / 100, 9) >= 10 or chosen == 50.0
    assert value == nearest_rank(samples, chosen)


def test_nearest_rank_reports_an_observed_sample():
    samples = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert nearest_rank(samples, 50) == 3.0
    assert nearest_rank(samples, 90) == 5.0
    assert nearest_rank(samples, 0) == 1.0
    with pytest.raises(ValueError):
        tail_percentile([])
