"""The kernel wrappers attribute dispatches by layer and change nothing."""

from __future__ import annotations

import hashlib

import pytest

from perfbench.spans import SpanRecorder, Tally
from perfbench.tracing import Patches, install_kernel
from perfbench.worker import kernel_pass
from repro.scenario.config import ScenarioConfig
from repro.scenario.runner import build_scenario
from repro.sim.engine import Simulator


@pytest.fixture
def traced():
    recorder = SpanRecorder()
    patches = install_kernel(recorder)
    try:
        yield recorder
    finally:
        patches.restore()


def owned_by(module: str, log: list, tag: str):
    def callback(*args):
        log.append((tag, args))
    callback.__module__ = module
    return callback


def test_fire_many_group_members_are_attributed_to_their_owners(traced):
    log: list = []
    sim = Simulator(seed=1)
    rx = owned_by("repro.net.interface", log, "rx")
    mac = owned_by("repro.mac.dcf", log, "mac")
    sim.schedule_fire_many([(0.3, rx, (1,)), (0.1, rx, (2,)),
                            (0.2, mac, (3,))])
    sim.schedule(0.15, owned_by("repro.core.mts", log, "core"))
    sim.run()
    assert log == [("rx", (2,)), ("core", ()), ("mac", (3,)),
                   ("rx", (1,))]
    assert sim.fire_groups == 1 and sim.fire_group_requeued == 2
    assert traced.calls[("net.interface", "dispatch")] == 2
    assert traced.calls[("mac", "dispatch")] == 1
    assert traced.calls[("core", "dispatch")] == 1
    assert sum(traced.self_ns.values()) == traced.top_level_ns


def test_restore_puts_the_original_entry_points_back():
    original = Simulator.__dict__["schedule_fire_many"]
    patches = install_kernel(SpanRecorder())
    assert Simulator.__dict__["schedule_fire_many"] is not original
    patches.restore()
    assert Simulator.__dict__["schedule_fire_many"] is original


def test_patches_restore_removes_added_attributes():
    class Holder:
        pass

    patches = Patches()
    patches.replace(Holder, "extra", 1)
    patches.restore()
    assert not hasattr(Holder, "extra")


def digest(result) -> str:
    return hashlib.sha256(result.to_json().encode()).hexdigest()


def tiny_configs():
    return [ScenarioConfig(protocol="DSR", n_nodes=12,
                           field_size=(500.0, 500.0), sim_time=1.5,
                           max_speed=5.0, seed=seed) for seed in (1, 2)]


def test_traced_pass_accounts_every_span_to_a_cell_window(traced):
    tally = Tally()
    kernel_pass(tiny_configs(), [0, 1], tally, {}, "traced", traced)
    assert (tally.failed, tally.reasons) == (0, [])
    assert traced.top_level_ns > 0


def test_spans_outside_the_cell_windows_are_a_counted_failure(
        traced, monkeypatch):
    from perfbench import worker

    def digest_in_a_span(result):
        return traced.call("other", "digest", digest, result)

    monkeypatch.setattr(worker, "digest_of", digest_in_a_span)
    tally = Tally()
    worker.kernel_pass(tiny_configs(), [0, 1], tally, {}, "traced", traced)
    assert tally.failed == 1
    assert "outside the timed cell windows" in tally.reasons[0]


@pytest.mark.parametrize("protocol", ["MTS", "DSR"])
def test_tracing_never_changes_a_result(protocol):
    config = ScenarioConfig(protocol=protocol, n_nodes=12,
                            field_size=(500.0, 500.0), sim_time=2.5,
                            max_speed=10.0, seed=3)
    untraced = build_scenario(config).run()
    recorder = SpanRecorder()
    patches = install_kernel(recorder)
    try:
        traced = build_scenario(config).run()
    finally:
        patches.restore()
    assert digest(traced) == digest(untraced)
    layers = set(recorder.self_ns)
    assert {"net.channel", "net.interface", "mac"} <= layers
    assert recorder.op_calls("scenario", "build") == 1
    assert recorder.op_calls("metrics", "scenario.collect_results") == 1
    assert all(ns >= 0 for ns in recorder.self_ns.values())
