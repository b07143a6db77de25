"""Span recording, self-time accounting and the statistics rules.

Everything here is pure bookkeeping with no dependency on ``repro``, so it
is unit-tested in isolation (``perfbench/tests``).

Self time
---------
A span covers one call into a layer.  Spans nest (a dispatched MAC timer
calls into the interface, which calls the channel, ...), and a layer's
*self* time is its spans' durations minus the time covered by their
direct child spans.  The recorder keeps one children-time accumulator per
open span on a stack; the bottom slot collects the durations of top-level
spans, so ``wall - top_level_ns`` is the time spent outside every span
(the event loop itself, for a simulation).  Spans are aggregated as they
close, so memory stays constant however many millions of events run.
"""

from __future__ import annotations

import functools
import math
import time
import types
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Percentiles the tail rule may report, highest last.
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)


class SpanRecorder:
    """Aggregates nested spans into per-layer self time and per-op totals.

    Single-threaded: one recorder per thread of control.  ``clock`` returns
    integer nanoseconds, so self times are exact and never negative.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        #: layer -> nanoseconds spent in the layer's own code.
        self.self_ns: Dict[str, int] = defaultdict(int)
        #: (layer, op) -> number of spans / inclusive nanoseconds.
        self.calls: Dict[Tuple[str, str], int] = defaultdict(int)
        self.incl_ns: Dict[Tuple[str, str], int] = defaultdict(int)
        #: name -> plain event count (no span), e.g. MAC retries.
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = [0]

    @property
    def top_level_ns(self) -> int:
        """Total duration of spans that had no enclosing span."""
        return self._stack[0]

    @property
    def depth(self) -> int:
        """Number of spans currently open."""
        return len(self._stack) - 1

    def call(self, layer: str, op: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span of ``layer``/``op``.

        The span closes (and is accounted) even when ``fn`` raises.
        """
        stack = self._stack
        clock = self.clock
        stack.append(0)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = clock() - start
            children = stack.pop()
            self.self_ns[layer] += duration - children
            stack[-1] += duration
            key = (layer, op)
            self.calls[key] += 1
            self.incl_ns[key] += duration

    def op_calls(self, layer: str, op: str) -> int:
        return self.calls.get((layer, op), 0)

    def op_incl_s(self, layer: str, op: str) -> float:
        return self.incl_ns.get((layer, op), 0) / 1e9


# ---------------------------------------------------------------------- #
# layer attribution
# ---------------------------------------------------------------------- #
_LAYER_CACHE: Dict[str, str] = {}


def layer_of_module(module: Optional[str]) -> str:
    """Map a module name to its layer: the ``repro`` subpackage.

    ``repro.core.mts`` -> ``core``; the ``net`` package is split one
    level further (``repro.net.channel`` -> ``net.channel``) because its
    modules are separate layers of the stack.  Anything outside ``repro``
    is ``other``.
    """
    if module is None:
        return "other"
    layer = _LAYER_CACHE.get(module)
    if layer is None:
        parts = module.split(".")
        if parts[0] != "repro" or len(parts) < 2:
            layer = "other"
        elif parts[1] == "net" and len(parts) > 2:
            layer = f"net.{parts[2]}"
        else:
            layer = parts[1]
        _LAYER_CACHE[module] = layer
    return layer


def owner_module(callback: Callable) -> Optional[str]:
    """The module of the object that owns ``callback``.

    A bound method belongs to its instance's class (an ``MtsAgent`` timer
    is MTS work even when the method is inherited from the routing base
    class); a plain function or partial belongs to its defining module.
    """
    func = callback
    while isinstance(func, functools.partial):
        func = func.func
    owner = getattr(func, "__self__", None)
    if owner is not None and not isinstance(owner, types.ModuleType):
        return type(owner).__module__
    return getattr(func, "__module__", None)


def layer_of(callback: Callable) -> str:
    return layer_of_module(owner_module(callback))


# ---------------------------------------------------------------------- #
# statistics rules
# ---------------------------------------------------------------------- #
def tail_percentile(samples: Sequence[float]) -> Tuple[float, float, int]:
    """The highest ladder percentile with at least ten samples beyond it.

    Returns ``(percentile, value, sample_count)``.  With fewer than 20
    samples no percentile above the median qualifies and the median is
    returned.  Values use the nearest-rank definition, so a reported
    latency is one that was actually observed.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    chosen = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        # rounded so float error cannot drop p99.9 at exactly 10 samples
        if round(n * (100.0 - pct) / 100.0, 9) >= 10.0:
            chosen = pct
    return chosen, nearest_rank(samples, chosen), n


def nearest_rank(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile ``pct`` of ``samples``."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


# ---------------------------------------------------------------------- #
# failure accounting
# ---------------------------------------------------------------------- #
class Tally:
    """Attempted/failed counts with the reason of every failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def check(self, condition: bool, reason: str) -> bool:
        if condition:
            self.ok()
        else:
            self.fail(reason)
        return condition

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def check_response(tally: Tally, path: str, expected_status: int,
                   expected_body: Optional[bytes], status: int,
                   body: bytes) -> bool:
    """Count one served request: right status and, for 200s, right bytes."""
    if status != expected_status:
        tally.fail(f"{path}: status {status}, expected {expected_status}")
        return False
    if expected_body is not None and body != expected_body:
        tally.fail(f"{path}: {len(body)} bytes differ from the "
                   f"{len(expected_body)}-byte store blob")
        return False
    tally.ok()
    return True
