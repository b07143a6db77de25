"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_events_fire_in_time_order():
    sim = Simulator(seed=1)
    order = []
    sim.schedule(2.0, order.append, "late")
    sim.schedule(1.0, order.append, "early")
    sim.schedule(1.5, order.append, "middle")
    sim.run()
    assert order == ["early", "middle", "late"]


def test_same_time_events_fire_in_insertion_order():
    sim = Simulator(seed=1)
    order = []
    for label in range(10):
        sim.schedule(1.0, order.append, label)
    sim.run()
    assert order == list(range(10))


def test_priority_breaks_ties_before_insertion_order():
    sim = Simulator(seed=1)
    order = []
    sim.schedule(1.0, order.append, "normal", priority=0)
    sim.schedule(1.0, order.append, "urgent", priority=-1)
    sim.run()
    assert order == ["urgent", "normal"]


def test_clock_advances_to_event_times():
    sim = Simulator(seed=1)
    seen = []
    sim.schedule(0.5, lambda: seen.append(sim.now))
    sim.schedule(2.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [0.5, 2.5]
    assert sim.now == 2.5


def test_run_until_stops_clock_at_bound():
    sim = Simulator(seed=1)
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(5.0, fired.append, "b")
    sim.run(until=3.0)
    assert fired == ["a"]
    assert sim.now == 3.0
    # The later event is still pending and fires if we resume.
    sim.run()
    assert fired == ["a", "b"]


def test_run_until_includes_events_at_exact_bound():
    sim = Simulator(seed=1)
    fired = []
    sim.schedule(3.0, fired.append, "edge")
    sim.run(until=3.0)
    assert fired == ["edge"]


def test_cancelled_events_do_not_fire():
    sim = Simulator(seed=1)
    fired = []
    handle = sim.schedule(1.0, fired.append, "cancelled")
    sim.schedule(2.0, fired.append, "kept")
    handle.cancel()
    assert handle.cancelled
    sim.run()
    assert fired == ["kept"]


def test_cancel_via_simulator_helper_accepts_none():
    sim = Simulator(seed=1)
    sim.cancel(None)  # must not raise
    handle = sim.schedule(1.0, lambda: None)
    sim.cancel(handle)
    sim.run()
    assert sim.processed_events == 0


def test_events_scheduled_during_run_are_processed():
    sim = Simulator(seed=1)
    order = []

    def first():
        order.append("first")
        sim.schedule(1.0, lambda: order.append("second"))

    sim.schedule(1.0, first)
    sim.run()
    assert order == ["first", "second"]
    assert sim.now == 2.0


def test_stop_halts_processing():
    sim = Simulator(seed=1)
    fired = []

    def stopper():
        fired.append("stopper")
        sim.stop()

    sim.schedule(1.0, stopper)
    sim.schedule(2.0, fired.append, "never")
    sim.run()
    assert fired == ["stopper"]
    assert sim.pending_events == 1


def test_negative_delay_rejected():
    sim = Simulator(seed=1)
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_nan_delay_rejected_by_schedule():
    """A NaN delay slips past ``delay < 0``; it must not reach the heap,
    where it breaks the time order and leaves the clock at NaN."""
    sim = Simulator(seed=1)
    with pytest.raises(SimulationError, match="NaN"):
        sim.schedule(float("nan"), lambda: None)
    assert sim.pending_events == 0


def test_nan_delay_rejected_by_schedule_fire():
    sim = Simulator(seed=1)
    with pytest.raises(SimulationError, match="NaN"):
        sim.schedule_fire(float("nan"), lambda: None)
    assert sim.pending_events == 0


def test_nan_delay_rejected_by_schedule_fire_many():
    sim = Simulator(seed=1)
    with pytest.raises(SimulationError, match="NaN"):
        sim.schedule_fire_many([(0.1, lambda: None, ()),
                                (float("nan"), lambda: None, ())])
    assert sim.pending_events == 0


def test_nan_time_rejected_by_schedule_at():
    sim = Simulator(seed=1)
    with pytest.raises(SimulationError, match="nan"):
        sim.schedule_at(float("nan"), lambda: None)
    assert sim.pending_events == 0
    sim.run()
    assert sim.now == 0.0


def test_scheduling_in_the_past_rejected():
    sim = Simulator(seed=1)
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_non_callable_fails_at_fire_time():
    # schedule_at no longer validates the callback (hot path); a bogus
    # callback surfaces as a TypeError when the event fires.
    sim = Simulator(seed=1)
    sim.schedule(1.0, "not callable")
    with pytest.raises(TypeError):
        sim.run()


def test_processed_event_counter():
    sim = Simulator(seed=1)
    for i in range(7):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.processed_events == 7


def test_run_with_empty_heap_advances_to_until():
    sim = Simulator(seed=1)
    sim.run(until=4.2)
    assert sim.now == 4.2


@pytest.mark.parametrize("pending", [True, False])
def test_run_until_before_now_rejected(pending):
    """An until bound in the past must not move the clock backwards,
    whether or not events are still pending."""
    sim = Simulator(seed=1)
    fired = []
    if pending:
        sim.schedule(2.0, fired.append, "later")
    sim.run(until=1.0)
    with pytest.raises(SimulationError, match="before now"):
        sim.run(until=0.5)
    assert sim.now == 1.0
    # The clock is intact: a new delay counts from 1.0, not 0.5.
    sim.schedule(0.1, fired.append, "next")
    sim.run()
    assert fired == (["next", "later"] if pending else ["next"])
    assert sim.now == (2.0 if pending else 1.1)


def test_run_until_equal_to_now_is_a_no_op_bound():
    sim = Simulator(seed=1)
    fired = []
    sim.schedule(1.0, fired.append, "edge")
    sim.schedule(2.0, fired.append, "later")
    sim.run(until=1.0)
    sim.run(until=1.0)
    assert fired == ["edge"]
    assert sim.now == 1.0


def test_run_until_nan_rejected():
    sim = Simulator(seed=1)
    fired = []
    sim.schedule(1.0, fired.append, "a")
    with pytest.raises(SimulationError):
        sim.run(until=float("nan"))
    assert fired == []
    assert sim.now == 0.0


def test_pending_events_excludes_cancelled_garbage():
    sim = Simulator(seed=1)
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(3)]
    handles[1].cancel()
    assert sim.pending_events == 2
    assert sim.cancelled_pending == 1
    assert sim.heap_size == 3


def test_cancel_after_fire_does_not_count_as_garbage():
    sim = Simulator(seed=1)
    handle = sim.schedule(1.0, lambda: None)
    sim.run()
    handle.cancel()  # idempotent, documented as safe after firing
    assert sim.cancelled_pending == 0
    assert sim.pending_events == 0


def test_heap_compaction_sheds_cancelled_garbage():
    sim = Simulator(seed=1)
    fired = []
    keep, cancel = [], []
    for i in range(1000):
        handle = sim.schedule(1.0 + i * 1e-3, fired.append, i)
        (cancel if i % 2 else keep).append((i, handle))
    for _i, handle in cancel:
        handle.cancel()
    # 500 cancelled >= _COMPACT_MIN_GARBAGE and >= half the heap.
    assert sim.heap_compactions >= 1
    assert sim.cancelled_pending == 0
    assert sim.heap_size == sim.pending_events == len(keep)
    sim.run()
    assert fired == [i for i, _handle in keep]


def test_compaction_preserves_same_time_ordering():
    sim = Simulator(seed=1)
    # Force the fraction threshold to be reachable with a small heap.
    sim._COMPACT_MIN_GARBAGE = 1
    fired = []
    handles = [sim.schedule(1.0, fired.append, i,
                            priority=(-1 if i % 3 == 0 else 0))
               for i in range(30)]
    cancelled = set(range(12, 28))  # 16 of 30 >= the half-heap threshold
    for i in cancelled:
        handles[i].cancel()
    assert sim.heap_compactions >= 1
    sim.run()
    survivors = [i for i in range(30) if i not in cancelled]
    expected = ([i for i in survivors if i % 3 == 0]
                + [i for i in survivors if i % 3 != 0])
    assert fired == expected


def test_cancelled_events_never_fire_after_compaction():
    sim = Simulator(seed=1)
    sim._COMPACT_MIN_GARBAGE = 1
    fired = []
    handles = [sim.schedule(float(i + 1), fired.append, i) for i in range(10)]
    for i in range(0, 10, 2):
        handles[i].cancel()
    assert sim.heap_compactions >= 1
    # Cancelling an already-compacted-away handle again is harmless.
    handles[0].cancel()
    sim.run()
    assert fired == [1, 3, 5, 7, 9]
    assert sim.cancelled_pending == 0


def test_peak_heap_size_tracks_high_water_mark():
    sim = Simulator(seed=1)
    for i in range(5):
        sim.schedule(float(i + 1), lambda: None)
    assert sim.peak_heap_size == 5
    sim.run()
    assert sim.peak_heap_size == 5
    assert sim.heap_size == 0


def test_kwargs_are_passed_to_callbacks():
    sim = Simulator(seed=1)
    received = {}

    def callback(a, b=None):
        received["a"] = a
        received["b"] = b

    sim.schedule(1.0, callback, 1, b="two")
    sim.run()
    assert received == {"a": 1, "b": "two"}


def test_numpy_scalar_delay_does_not_poison_the_clock():
    import numpy as np

    sim = Simulator(seed=1)
    sim.schedule(np.float64(0.5), lambda: None)
    sim.schedule_at(np.float64(1.5), lambda: None)
    sim.run()
    assert type(sim.now) is float


# ---------------------------------------------------------------------- #
# horizon-batched delivery
# ---------------------------------------------------------------------- #
def test_stop_mid_horizon_halts_remaining_same_time_events():
    sim = Simulator(seed=1)
    order = []
    sim.schedule(1.0, order.append, "first")
    sim.schedule(1.0, lambda: (order.append("stopper"), sim.stop()))
    sim.schedule(1.0, order.append, "never")
    sim.run()
    assert order == ["first", "stopper"]
    assert sim.now == 1.0
    assert sim.processed_events == 2
    # The unfired event is still pending and fires on resume.
    sim.run()
    assert order == ["first", "stopper", "never"]


def test_earlier_event_cancels_later_same_timestamp_event():
    sim = Simulator(seed=1)
    order = []
    handles = {}

    def canceller():
        order.append("canceller")
        handles["victim"].cancel()

    sim.schedule(1.0, canceller)
    handles["victim"] = sim.schedule(1.0, order.append, "victim")
    sim.schedule(1.0, order.append, "after")
    sim.run()
    assert order == ["canceller", "after"]
    assert sim.processed_events == 2
    assert sim.cancelled_pending == 0  # popped, not left as garbage


def test_until_exactly_on_horizon_boundary_fires_the_whole_batch():
    sim = Simulator(seed=1)
    order = []
    for label in range(5):
        sim.schedule(2.0, order.append, label)
    sim.schedule(2.5, order.append, "beyond")
    sim.run(until=2.0)
    assert order == list(range(5))
    assert sim.now == 2.0
    assert sim.pending_events == 1
    sim.run(until=3.0)
    assert order[-1] == "beyond"


def test_compaction_inside_batch_preserves_order():
    sim = Simulator(seed=1)
    order = []
    # A large pool of cancellable far-future events...
    future = [sim.schedule(10.0, order.append, ("future", i))
              for i in range(600)]

    def mass_cancel():
        order.append("canceller")
        # ...cancelled mid-batch: crosses both compaction thresholds
        # (>=256 garbage, >= half the heap), so the heap list is swapped
        # while two same-horizon events are still pending.
        for handle in future:
            handle.cancel()

    sim.schedule(1.0, mass_cancel)
    sim.schedule(1.0, order.append, "second")
    sim.schedule(1.0, order.append, "third")
    sim.run()
    assert sim.heap_compactions >= 1
    assert order == ["canceller", "second", "third"]
    assert sim.processed_events == 3
    assert sim.pending_events == 0


def test_horizon_batch_counters():
    sim = Simulator(seed=1)
    out = []
    for _ in range(3):
        sim.schedule(1.0, out.append, "a")
    for _ in range(2):
        sim.schedule(2.0, out.append, "b")
    sim.schedule(3.0, out.append, "c")
    sim.run()
    assert sim.processed_events == 6
    assert sim.horizon_batches == 3
    assert sim.mean_batch_size == pytest.approx(2.0)


def test_horizon_batch_counters_skip_all_cancelled_timestamps():
    sim = Simulator(seed=1)
    out = []
    victim = sim.schedule(1.0, out.append, "victim")
    victim.cancel()
    sim.schedule(2.0, out.append, "live")
    sim.run()
    # The t=1.0 horizon fired nothing: it must not count as a batch,
    # and the clock must not have been advanced by the cancelled pop.
    assert sim.horizon_batches == 1
    assert sim.mean_batch_size == pytest.approx(1.0)
    assert out == ["live"]


def test_events_scheduled_into_open_horizon_fire_in_key_order():
    sim = Simulator(seed=1)
    order = []

    def spawner():
        order.append("spawner")
        # Same timestamp, scheduled while the horizon batch is open:
        # must still fire within this run, after existing entries.
        sim.schedule(0.0, order.append, "late-arrival")

    sim.schedule(1.0, spawner)
    sim.schedule(1.0, order.append, "pre-existing")
    sim.run()
    assert order == ["spawner", "pre-existing", "late-arrival"]


# ---------------------------------------------------------------------- #
# schedule_fire (fire-and-forget fast path)
# ---------------------------------------------------------------------- #
def test_schedule_fire_interleaves_with_schedule_in_sequence_order():
    sim = Simulator(seed=1)
    order = []
    sim.schedule(1.0, order.append, "event-1")
    sim.schedule_fire(1.0, order.append, "fire-1")
    sim.schedule(1.0, order.append, "event-2")
    sim.schedule_fire(1.0, order.append, "fire-2")
    sim.run()
    assert order == ["event-1", "fire-1", "event-2", "fire-2"]
    assert sim.processed_events == 4


def test_schedule_fire_negative_delay_rejected():
    sim = Simulator(seed=1)
    with pytest.raises(SimulationError):
        sim.schedule_fire(-0.1, lambda: None)


def test_schedule_fire_counts_in_heap_and_batch_stats():
    sim = Simulator(seed=1)
    out = []
    sim.schedule_fire(1.0, out.append, "a")
    sim.schedule_fire(1.0, out.append, "b")
    assert sim.pending_events == 2
    assert sim.peak_heap_size == 2
    sim.run()
    assert out == ["a", "b"]
    assert sim.horizon_batches == 1


# ---------------------------------------------------------------------- #
# schedule_fire_many (grouped fan-out entries)
# ---------------------------------------------------------------------- #
def test_fire_many_matches_scalar_loop_order():
    """A grouped fan-out fires in exactly the order N schedule_fire
    calls would have produced — including members at equal delays, which
    keep registration order."""
    def run(schedule_style):
        sim = Simulator(seed=1)
        order = []
        entries = [(0.3, order.append, ("c",)),
                   (0.1, order.append, ("a",)),
                   (0.2, order.append, ("b1",)),
                   (0.2, order.append, ("b2",)),   # equal delay: after b1
                   (0.1, order.append, ("a2",))]   # equal delay: after a
        if schedule_style == "many":
            sim.schedule_fire_many(entries)
        else:
            for delay, callback, args in entries:
                sim.schedule_fire(delay, callback, *args)
        sim.run()
        return order, sim.processed_events

    grouped, n_grouped = run("many")
    scalar, n_scalar = run("scalar")
    assert grouped == scalar == ["a", "a2", "b1", "b2", "c"]
    assert n_grouped == n_scalar == 5


def test_fire_many_interleaves_with_cancellable_events():
    """Heap events landing between group members still fire in global
    (time, priority, sequence) order, and a cancellation mid-group is
    honoured."""
    sim = Simulator(seed=1)
    order = []
    handle = sim.schedule(0.2, order.append, "cancel-me")
    sim.schedule(0.25, order.append, "between")
    sim.schedule_fire_many([
        (0.1, order.append, ("m1",)),
        (0.2, lambda: (order.append("m2"), handle.cancel()), ()),
        (0.3, order.append, ("m3",)),
    ])
    sim.run()
    # m2 fires at the same timestamp as cancel-me but was sequenced
    # AFTER it... the earlier heap event wins, then m2 cancels nothing
    # retroactively; the 0.25 event splits the group.
    assert order == ["m1", "cancel-me", "m2", "between", "m3"]


def test_fire_many_cancellation_by_member_suppresses_heap_event():
    """A member that cancels a later heap event prevents it firing."""
    sim = Simulator(seed=1)
    order = []
    handle = sim.schedule(0.5, order.append, "victim")
    sim.schedule_fire_many([
        (0.1, order.append, ("m1",)),
        (0.2, lambda: handle.cancel(), ()),
        (0.6, order.append, ("m2",)),
    ])
    sim.run()
    assert order == ["m1", "m2"]


@pytest.mark.parametrize("priority", [-1, 0, 1])
def test_fire_many_member_yields_to_same_time_event_by_priority(priority):
    """A same-time event scheduled by a member fires before the next
    member exactly when its (priority, sequence) key is smaller: a
    negative priority wins over an earlier member sequence number."""
    def run(style):
        sim = Simulator(seed=1)
        order = []

        def first():
            order.append("m0")
            sim.schedule(0.0, order.append, "event", priority=priority)

        entries = [(1.0, first, ()), (1.0, order.append, ("m1",))]
        if style == "many":
            sim.schedule_fire_many(entries)
        else:
            for delay, callback, args in entries:
                sim.schedule_fire(delay, callback, *args)
        sim.run()
        return order

    expected = (["m0", "event", "m1"] if priority < 0
                else ["m0", "m1", "event"])
    assert run("many") == run("scalar") == expected


def test_fire_many_stop_inside_fanout_requeues_and_resumes():
    """stop() from a member callback stops exactly there: the unfired
    members go back to the heap as plain entries, and a later run()
    resumes with them intact."""
    sim = Simulator(seed=1)
    order = []

    def member(i):
        order.append(i)
        if i == 1:
            sim.stop()

    sim.schedule_fire_many([(0.1 * (i + 1), member, (i,))
                            for i in range(5)])
    sim.run()
    assert order == [0, 1]
    assert sim.pending_events == 3
    assert sim.fire_group_requeued == 3
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_fire_many_until_bound_splits_group_and_resumes():
    sim = Simulator(seed=1)
    order = []
    sim.schedule_fire_many([(float(i), order.append, (i,))
                            for i in range(1, 5)])
    sim.run(until=2.0)
    assert order == [1, 2]
    assert sim.now == 2.0
    sim.run()
    assert order == [1, 2, 3, 4]


def test_fire_many_stop_mid_group():
    sim = Simulator(seed=1)
    order = []
    sim.schedule_fire_many([
        (0.1, order.append, ("m1",)),
        (0.2, lambda: (order.append("m2"), sim.stop()), ()),
        (0.3, order.append, ("m3",)),
    ])
    sim.run()
    assert order == ["m1", "m2"]
    sim.run()
    assert order == ["m1", "m2", "m3"]


def test_fire_many_empty_and_single_entry():
    sim = Simulator(seed=1)
    order = []
    sim.schedule_fire_many([])          # no-op
    assert sim.pending_events == 0
    sim.schedule_fire_many([(0.5, order.append, ("solo",))])
    sim.run()
    assert order == ["solo"]
    assert sim.processed_events == 1


def test_fire_many_negative_delay_rejected_atomically():
    """A bad delay anywhere in the batch schedules nothing at all."""
    sim = Simulator(seed=1)
    with pytest.raises(SimulationError):
        sim.schedule_fire_many([(0.1, lambda: None, ()),
                                (-0.2, lambda: None, ())])
    assert sim.pending_events == 0
    sim.run()
    assert sim.processed_events == 0


def test_fire_many_raising_member_preserves_remaining_members():
    """A raising callback mid-group leaves the unfired members in the
    heap, exactly as the scalar loop would have."""
    sim = Simulator(seed=1)
    order = []

    def boom():
        raise RuntimeError("mid-group failure")

    sim.schedule_fire_many([
        (0.1, order.append, ("m1",)),
        (0.2, boom, ()),
        (0.3, order.append, ("m3",)),
    ])
    with pytest.raises(RuntimeError):
        sim.run()
    assert order == ["m1"]
    assert sim.pending_events == 1
    sim.run()
    assert order == ["m1", "m3"]


def test_fire_many_counts_in_heap_and_batch_stats():
    sim = Simulator(seed=1)
    out = []
    sim.schedule_fire_many([(1.0, out.append, ("a",)),
                            (1.0, out.append, ("b",))])
    # A grouped fan-out occupies ONE heap slot until it fires — that is
    # the whole point of the batching — so pending_events (a heap-entry
    # count) reads 1 here, not 2.  Once a run is interrupted mid-group
    # the remainder is pushed back as individual entries and the count
    # becomes member-level again (see the stop() test above).
    assert sim.pending_events == 1
    assert sim.heap_size == 1
    sim.run()
    assert out == ["a", "b"]
    assert sim.processed_events == 2
    assert sim.horizon_batches == 1


def test_fire_many_group_counters():
    """fire_groups/fire_group_members count grouped *scheduling* pushes —
    the counter pair behind perfbench's sim.mean_group_size — independently of
    whether delivery timestamps coincide (mean_batch_size)."""
    sim = Simulator(seed=1)
    out = []
    sim.schedule_fire_many([(0.1, out.append, ("a",)),
                            (0.2, out.append, ("b",)),
                            (0.3, out.append, ("c",))])
    # A single-member batch takes the scalar path: no group counted.
    sim.schedule_fire_many([(0.4, out.append, ("solo",))])
    assert sim.fire_groups == 1
    assert sim.fire_group_members == 3
    assert sim.mean_group_size == pytest.approx(3.0)
    sim.run()
    assert out == ["a", "b", "c", "solo"]
    # Distinct delays, nothing interleaved: the drain never bailed out.
    assert sim.fire_group_requeued == 0
    # Three distinct timestamps from one group: batching at scheduling
    # time does not imply batching at delivery time.
    assert sim.mean_batch_size == pytest.approx(1.0)


def test_fire_many_requeue_counter_on_split_group():
    sim = Simulator(seed=1)
    out = []
    sim.schedule(0.25, out.append, "between")
    sim.schedule_fire_many([(0.1, out.append, ("m1",)),
                            (0.2, out.append, ("m2",)),
                            (0.3, out.append, ("m3",))])
    sim.run()
    assert out == ["m1", "m2", "between", "m3"]
    # The heap event splitting the group sent its tail back to the heap.
    assert sim.fire_group_requeued == 1
    assert sim.mean_group_size == pytest.approx(3.0)


def test_scenario_kernel_counters_are_consistent_and_repeatable():
    """The engine counters perfbench reads, on a real ten-node run: the
    grouped fan-out engages, fired timestamps account for every event,
    and a rerun of the same config counts the same work."""
    from repro.scenario.builder import ScenarioBuilder
    from repro.scenario.config import ScenarioConfig

    def counters():
        config = ScenarioConfig.tiny(protocol="AODV", seed=7)
        scenario = ScenarioBuilder(config).build()
        sim = scenario.sim
        sim.run(until=config.sim_time)
        assert sim.mean_batch_size * sim.horizon_batches == \
            pytest.approx(sim.processed_events)
        assert sim.fire_groups > 0
        assert sim.mean_group_size >= 2.0
        return (sim.processed_events, sim.peak_heap_size, sim.fire_groups,
                sim.fire_group_requeued, scenario.channel.transmissions,
                scenario.channel.grid_stats()["grid_rebuilds"])

    assert counters() == counters()
