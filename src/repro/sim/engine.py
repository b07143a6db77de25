"""The discrete-event simulation engine.

The :class:`Simulator` is deliberately small: a binary heap of entries
keyed by ``(time, sequence)``, a clock, and a handful of run controls.
All network models (channel, MAC, routing agents, TCP) schedule work
through it, which is exactly the structure of the NS-2 scheduler the
paper's evaluation relied on.

Design notes
------------
* Events firing at the same timestamp are ordered by insertion sequence,
  so a run is bit-for-bit reproducible for a given scenario seed.  The
  ordering key leads every heap entry tuple — compared entirely in C, with
  the unique sequence number guaranteeing the comparison never falls
  through to the trailing entry fields.
* The run loop handles one heap entry per iteration: it peeks
  ``heap[0]``, stops there if the entry lies past the ``until`` bound
  (so a bounded run never pops an entry it would have to push back),
  then pops and dispatches it.  ``horizon_batches`` counts the distinct
  timestamps that fired, with one float compare against the last fired
  time per event; ``mean_batch_size`` is events per such timestamp.
* Two shapes of heap entry share the key and the sequence counter.
  :meth:`schedule` / :meth:`schedule_at` push ``(time, sequence, event)``
  and return the cancellable :class:`~repro.sim.events.Event`.  The
  fire-and-forget calls — :meth:`schedule_fire`, and
  :meth:`schedule_fire_many` for the channel's per-receiver fan-out of one
  transmission — push a group ``(time, sequence, members, start)``:
  ``(time, sequence, callback, args)`` members sorted in firing order and
  keyed by the first unfired one, ``members[start]``.  Each member keeps
  the sequence number reserved when it was scheduled.  A popped group
  fires its members directly while each is provably next (one comparison
  against ``heap[0]``); once another entry, an ``until`` bound,
  :meth:`stop` or a raising callback must come first, the unfired suffix
  goes back as one entry.  A fan-out thus costs one heap push + pop per
  transmission, not per receiver.
* Cancellation is lazy: cancelled events stay in the heap and are skipped
  when popped.  This keeps :meth:`Event.cancel` O(1), which matters
  because MAC ACK timeouts and TCP retransmission timers are cancelled far
  more often than they fire.  To stop long runs from drowning in that
  garbage, the heap is compacted (rebuilt without cancelled entries) once
  cancelled events make up at least half of a non-trivially-sized heap;
  compaction preserves the ``(time, sequence)`` order exactly, so results
  are unaffected.
* The engine never sleeps or busy-waits; simulated time advances only by
  popping events, so an idle network costs nothing.
"""

from __future__ import annotations

import heapq
import math
from typing import (Any, Callable, List, Optional, Sequence, Tuple, Union,
                    TYPE_CHECKING)

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

from repro.sim.events import Event
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceLog

#: One fire-and-forget member: ``(time, sequence, callback, args)``.
Member = Tuple[float, int, Callable[..., Any], Tuple[Any, ...]]
#: A heap entry: ``(time, sequence, event)`` or ``(time, sequence,
#: members, start)``.  The leading pair is the full ordering key.
HeapEntry = Union[Tuple[float, int, Event],
                  Tuple[float, int, List[Member], int]]

_heappush = heapq.heappush
_heappop = heapq.heappop


class SimulationError(RuntimeError):
    """Raised for scheduling errors (e.g. scheduling into the past)."""


class Simulator:
    """Heap-based discrete-event scheduler with named random streams.

    Parameters
    ----------
    seed:
        Master seed for the scenario.  All random streams handed out by
        :meth:`rng` are derived deterministically from it.
    trace:
        When true, a :class:`~repro.sim.trace.TraceLog` collects structured
        records of packet-level activity (transmissions, receptions, drops).

    Examples
    --------
    >>> sim = Simulator(seed=42)
    >>> out = []
    >>> _ = sim.schedule(1.0, out.append, "a")
    >>> _ = sim.schedule(0.5, out.append, "b")
    >>> sim.run()
    >>> out
    ['b', 'a']
    """

    #: Compaction is considered only once at least this many cancelled
    #: events sit in the heap (tiny heaps are cheap to pop through).
    _COMPACT_MIN_GARBAGE = 256
    #: ... and triggers once cancelled entries reach this fraction of the
    #: heap.  At one half, compaction work is O(live events) amortised.
    _COMPACT_GARBAGE_FRACTION = 0.5

    def __init__(self, seed: Optional[int] = None,
                 trace: bool = False) -> None:
        #: Current simulation time in seconds.  A plain attribute, not a
        #: property: it is read over a million times per smoke-profile run
        #: (every carrier-sense check and schedule), and descriptor
        #: dispatch was measurable.  Treat as read-only outside the engine.
        self.now: float = 0.0
        self._heap: list[HeapEntry] = []
        self._sequence: int = 0
        self._running: bool = False
        self._stopped: bool = False
        self._processed: int = 0
        self._cancelled_in_heap: int = 0
        #: Number of times the heap was rebuilt to shed cancelled garbage.
        self.heap_compactions: int = 0
        #: High-water mark of the heap size (live + cancelled entries).
        self.peak_heap_size: int = 0
        #: Number of horizon batches delivered: distinct timestamps that
        #: fired at least one event, counted per :meth:`run` call.
        self.horizon_batches: int = 0
        #: Multi-member groups pushed by :meth:`schedule_fire_many` and
        #: the total members they carried.  These measure how often the
        #: grouped fan-out path *engages*; ``horizon_batches`` measures
        #: timestamp coincidence at delivery, which with
        #: distance-dependent propagation delays is a different (and
        #: usually much smaller) thing — see ``mean_batch_size``.
        self.fire_groups: int = 0
        self.fire_group_members: int = 0
        #: Group members handed back to the heap unfired because another
        #: event had to fire first (the grouped drain's bail-out path).  A
        #: suffix that splits again is counted again.
        self.fire_group_requeued: int = 0
        self.rngs = RngRegistry(seed)
        self.trace: Optional[TraceLog] = TraceLog() if trace else None

    # ------------------------------------------------------------------ #
    # clock
    # ------------------------------------------------------------------ #
    @property
    def processed_events(self) -> int:
        """Number of events fired so far (cancelled events excluded)."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of *live* (non-cancelled) events still in the heap.

        Counts every unfired group member, so it walks the heap.
        """
        return sum(len(entry[2]) - entry[3] if len(entry) == 4
                   else not entry[2].cancelled for entry in self._heap)

    @property
    def cancelled_pending(self) -> int:
        """Number of cancelled events still occupying heap slots."""
        return self._cancelled_in_heap

    @property
    def heap_size(self) -> int:
        """Total heap entries (live + cancelled garbage)."""
        return len(self._heap)

    @property
    def mean_batch_size(self) -> float:
        """Mean number of events fired per horizon batch.

        A horizon batch is a *distinct delivery timestamp*.  With
        distance-dependent propagation delays nearly every reception
        lands on its own timestamp, so for the standard profiles this
        sits at ≈ 1.0 by construction — that does **not** mean the
        grouped scheduling path is idle; see :attr:`mean_group_size`
        for how much fan-out batching actually engages.
        """
        if self.horizon_batches == 0:
            return 0.0
        return self._processed / self.horizon_batches

    @property
    def mean_group_size(self) -> float:
        """Mean members per multi-member :meth:`schedule_fire_many` group.

        Measures heap-traffic batching at *scheduling* time (one push
        per transmission fan-out), independent of whether the delivered
        timestamps coincide.
        """
        if self.fire_groups == 0:
            return 0.0
        return self.fire_group_members / self.fire_groups

    # ------------------------------------------------------------------ #
    # random streams
    # ------------------------------------------------------------------ #
    def rng(self, stream: str) -> "np.random.Generator":
        """Return the named, deterministic random stream ``stream``.

        Repeated calls with the same name return the same generator
        instance, so components can keep calling ``sim.rng("mac")`` without
        resetting the stream.
        """
        return self.rngs.stream(stream)

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #
    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Returns the :class:`~repro.sim.events.Event`, whose
        :meth:`~repro.sim.events.Event.cancel` withdraws it.  Inlines the
        push instead of delegating to :meth:`schedule_at`: this is the
        single hottest call in a simulation, and a non-negative delay
        already guarantees the clock invariant that ``schedule_at`` would
        re-check.
        """
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"negative or NaN delay {delay!r}")
        # float() guards the clock: a numpy scalar delay must not leak
        # into heap keys and eventually self.now (schedule_at coerces too).
        time = float(self.now + delay)
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(callback, args, self)
        heap = self._heap
        _heappush(heap, (time, sequence, event))
        if len(heap) > self.peak_heap_size:
            self.peak_heap_size = len(heap)
        return event

    def schedule_fire(self, delay: float, callback: Callable[..., Any],
                      *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: nothing to cancel, no handle.

        The path for events that are never cancelled (the PHY/channel
        reception pipeline schedules hundreds of thousands of these).  It
        pushes a one-member group.  The sequence counter is shared with
        :meth:`schedule`, so the delivery order is exactly what
        ``schedule(delay, callback, *args)`` would have produced.
        """
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"negative or NaN delay {delay!r}")
        time = float(self.now + delay)
        sequence = self._sequence
        self._sequence = sequence + 1
        heap = self._heap
        _heappush(heap, (time, sequence, [(time, sequence, callback, args)],
                         0))
        if len(heap) > self.peak_heap_size:
            self.peak_heap_size = len(heap)

    def schedule_fire_many(
        self,
        entries: Sequence[Tuple[float, Callable[..., Any], Tuple[Any, ...]]],
    ) -> None:
        """Batched :meth:`schedule_fire`: one heap push for a whole fan-out.

        ``entries`` is a sequence of ``(delay, callback, args)`` triples in
        registration order — exactly the arguments an equivalent loop of
        :meth:`schedule_fire` calls would have passed.  Each member is
        assigned the same consecutive sequence numbers that loop would have
        reserved, so the global delivery order is bit-for-bit identical;
        only the heap traffic changes: one group is pushed, keyed by the
        earliest ``(time, sequence)`` member, and the run loop fans it out
        when it pops (see :meth:`run`).  Empty input is a no-op.  The
        channel calls this once per transmission with one entry per
        receiver.
        """
        now = self.now
        sequence = self._sequence
        members: List[Member] = []
        for delay, callback, args in entries:
            if not delay >= 0:  # also rejects NaN
                raise SimulationError(f"negative or NaN delay {delay!r}")
            members.append((float(now + delay), sequence, callback, args))
            sequence += 1
        if not members:
            return
        self._sequence = sequence
        if len(members) > 1:
            # (time, sequence) is unique per member, so tuple sort never
            # compares the callables and yields exact global firing order.
            members.sort()
            self.fire_groups += 1
            self.fire_group_members += len(members)
        first = members[0]
        heap = self._heap
        _heappush(heap, (first[0], first[1], members, 0))
        if len(heap) > self.peak_heap_size:
            self.peak_heap_size = len(heap)

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation time ``time``.

        This is the engine's hottest entry point, so it validates only the
        clock invariant.  A non-callable ``callback`` is not rejected here;
        it surfaces as a ``TypeError`` when the event fires.
        """
        time = float(time)
        if not time >= self.now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule at {time!r}, which is not at or after "
                f"now={self.now!r}"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(callback, args, self)
        heap = self._heap
        _heappush(heap, (time, sequence, event))
        if len(heap) > self.peak_heap_size:
            self.peak_heap_size = len(heap)
        return event

    # ------------------------------------------------------------------ #
    # heap maintenance
    # ------------------------------------------------------------------ #
    def _note_cancelled(self) -> None:
        """Account for a newly-cancelled in-heap event; maybe compact."""
        self._cancelled_in_heap += 1
        if (self._cancelled_in_heap >= self._COMPACT_MIN_GARBAGE
                and self._cancelled_in_heap
                >= self._COMPACT_GARBAGE_FRACTION * len(self._heap)):
            self._compact_heap()

    def _compact_heap(self) -> None:
        """Rebuild the heap without cancelled entries.

        Safe to run at any point between event pops: entries are ordered
        by their full ``(time, sequence)`` key, so re-heapifying the
        surviving entries reproduces the exact pop order the lazy deletion
        path would have produced.  Groups are never cancelled and always
        survive.
        """
        self._heap = [entry for entry in self._heap
                      if len(entry) == 4 or not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0
        self.heap_compactions += 1

    # ------------------------------------------------------------------ #
    # run control
    # ------------------------------------------------------------------ #
    def run(self, until: Optional[float] = None) -> None:
        """Run the event loop, one heap entry per iteration.

        Each iteration peeks ``heap[0]``; an entry past ``until`` never
        leaves the heap, so a later call resumes exactly where this one
        stopped.  :meth:`stop`, cancellation and compaction inside a
        callback take effect before the next entry is considered.

        Parameters
        ----------
        until:
            Stop once the clock would advance beyond this time.  Events at
            exactly ``until`` still fire.  ``None`` runs the heap dry.  A
            bound before the current time, or NaN, raises
            :class:`SimulationError`: the clock never moves backwards.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        if until is None:
            limit = math.inf
        else:
            limit = float(until)
            if not limit >= self.now:  # also true for NaN
                raise SimulationError(
                    f"cannot run until {until!r}, which is before "
                    f"now={self.now!r}")
        self._running = True
        self._stopped = False
        processed = self._processed
        batches = self.horizon_batches
        # NaN compares unequal to every time, so the first event fired in
        # this call opens a new horizon batch.
        last_time = math.nan
        heappop = _heappop
        heap = self._heap
        try:
            while heap:
                if self._stopped:
                    break
                entry = heap[0]
                time = entry[0]
                if time > limit:
                    # limit == until here: the branch is unreachable with
                    # an unbounded run (limit = inf exceeds every time).
                    self.now = limit
                    break
                heappop(heap)
                if len(entry) == 3:
                    event = entry[2]
                    if event.cancelled:
                        self._cancelled_in_heap -= 1
                        continue
                    event._sim = None  # out of the heap: no longer garbage
                    self.now = time
                    event.callback(*event.args)
                else:
                    # A group: members are (time, sequence, callback,
                    # args), pre-sorted in exact global firing order among
                    # themselves.  Fire each directly while it is provably
                    # next in the global order; hand the rest back to the
                    # heap the moment anything else must come first.
                    members = entry[2]
                    m = entry[3]
                    n_members = len(members)
                    while True:
                        member = members[m]
                        time = member[0]
                        self.now = time
                        try:
                            member[2](*member[3])
                        except BaseException:
                            # Keep the heap consistent on a raising
                            # callback: the unfired members survive,
                            # exactly as one entry per member would have.
                            self._requeue(members, m + 1)
                            raise
                        processed += 1
                        if time != last_time:
                            batches += 1
                            last_time = time
                        m += 1
                        if m == n_members:
                            break
                        nxt = members[m]
                        time_n = nxt[0]
                        heap = self._heap
                        if self._stopped or time_n > limit:
                            self._requeue(members, m)
                            break
                        if heap:
                            top = heap[0]
                            time_t = top[0]
                            # The next member fires directly only when its
                            # (time, sequence) key precedes the heap top's.
                            if time_n > time_t or (
                                    time_n == time_t and top[1] < nxt[1]):
                                self._requeue(members, m)
                                break
                    heap = self._heap
                    continue
                processed += 1
                if time != last_time:
                    batches += 1
                    last_time = time
                # Re-read: a cancellation inside the callback may have
                # compacted the heap, swapping in a fresh list.
                heap = self._heap
            else:
                if until is not None:
                    self.now = limit
        finally:
            self._processed = processed
            self.horizon_batches = batches
            self._running = False

    def _requeue(self, members: List[Member], start: int) -> None:
        """Push the unfired members ``start:`` back as one group entry."""
        if start < len(members):
            first = members[start]
            _heappush(self._heap, (first[0], first[1], members, start))
            self.fire_group_requeued += len(members) - start

    def stop(self) -> None:
        """Stop the event loop after the currently firing event returns."""
        self._stopped = True

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"<Simulator t={self.now:.6f} pending={self.pending_events} "
                f"processed={self._processed}>")
