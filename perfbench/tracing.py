"""Wrap ``repro``'s public entry points with spans — from outside ``src/``.

The traced run installs these wrappers before any scenario is built, so
every object picks up the wrapped class attributes (including bound
methods cached at construction time, such as an interface's
``sim.schedule_fire``).  Nothing in ``src/`` is edited, and the wrappers
only observe: they never reorder, add or drop a call, so a traced cell's
result digest equals the untraced one (the benchmark checks this).

Two groups are installed separately:

* :func:`install_kernel` — the simulator's dispatch of every scheduled
  callback (attributed to the layer of the module owning the callback)
  plus the cross-layer calls between channel, interface, packet, MAC,
  routing, MTS path state, transport, metrics, mobility and the
  eavesdropper;
* :func:`install_pipeline` — the artifact store and figure/table
  rendering used by campaign publication.

``ArtifactRequestHandler.do_GET`` runs in the ``repro-serve`` process and
is wrapped by :mod:`perfbench.serve_launcher`.
"""

from __future__ import annotations

import functools
import sys
import types
from typing import Callable, Iterable, List, Optional, Tuple

from perfbench.spans import SpanRecorder, layer_of, layer_of_module

_MISSING = object()


class Patches:
    """Records attribute replacements so they can be undone (tests)."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def replace(self, owner: object, name: str, value: object) -> None:
        previous = (owner.__dict__.get(name, _MISSING)
                    if isinstance(owner, type) else getattr(owner, name))
        self._undo.append((owner, name, previous))
        setattr(owner, name, value)

    def restore(self) -> None:
        for owner, name, previous in reversed(self._undo):
            if previous is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, previous)
        self._undo.clear()


def _span_wrapper(recorder: SpanRecorder, layer: str, op: str,
                  fn: Callable) -> Callable:
    call = recorder.call

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return call(layer, op, fn, *args, **kwargs)
    return wrapper


def _count_wrapper(recorder: SpanRecorder, name: str, fn: Callable) -> Callable:
    counts = recorder.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _method_wrapper(recorder: SpanRecorder, op: str, fn: Callable) -> Callable:
    """Span attributed to the layer of the *instance's* class, so a method
    inherited from the routing base class still counts as MTS work when an
    ``MtsAgent`` runs it."""
    call = recorder.call

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        return call(layer_of_module(type(self).__module__), op, fn, self,
                    *args, **kwargs)
    return wrapper


def _wrap_methods(patches: Patches, recorder: SpanRecorder, cls: type,
                  names: Iterable[str], layer: Optional[str] = None,
                  op_prefix: str = "") -> None:
    """Wrap each plain function ``cls`` itself defines among ``names``."""
    for name in names:
        raw = cls.__dict__.get(name)
        if not isinstance(raw, types.FunctionType):
            continue
        op = op_prefix + name
        patches.replace(cls, name,
                        _method_wrapper(recorder, op, raw) if layer is None
                        else _span_wrapper(recorder, layer, op, raw))


def _public_methods(cls: type) -> List[str]:
    return [name for name, raw in cls.__dict__.items()
            if isinstance(raw, types.FunctionType)
            and not name.startswith("_")]


def _subclasses(cls: type) -> List[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return sorted(set(found), key=lambda klass: (klass.__module__,
                                                 klass.__qualname__))


def _rebind_function(patches: Patches, fn: Callable, wrapper: Callable) -> None:
    """Replace ``fn`` in every loaded ``repro`` module that binds it.

    ``from x import f`` copies the reference, so the defining module and
    every importer must be patched for callers to see the wrapper.
    """
    for name, module in sorted(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                patches.replace(module, attr, wrapper)


# ---------------------------------------------------------------------- #
def install_kernel(recorder: SpanRecorder,
                   patches: Optional[Patches] = None) -> Patches:
    """Wrap the simulator's dispatch and the kernel's cross-layer calls."""
    import repro.core  # noqa: F401 - registers MTS
    import repro.mobility  # noqa: F401 - registers the mobility models
    import repro.routing  # noqa: F401 - registers DSR/AODV/AOMDV
    from repro.core.checking import SourceRouteSelector
    from repro.core.paths import PathSet
    from repro.mac.dcf import DcfMac
    from repro.metrics.collector import MetricsCollector
    from repro.mobility.base import MobilityModel
    from repro.net.channel import WirelessChannel
    from repro.net.interface import WirelessInterface
    from repro.net.packet import Packet
    from repro.routing.base import RoutingAgent
    from repro.scenario.builder import Scenario, ScenarioBuilder
    from repro.security.eavesdropper import EavesdropperMonitor
    from repro.sim.engine import Simulator
    from repro.transport.tcp_reno import TcpRenoSender
    from repro.transport.tcp_sink import TcpSink

    patches = patches or Patches()
    call = recorder.call

    def traced_callback(callback: Callable) -> Callable:
        layer = layer_of(callback)

        def dispatch(*args, **kwargs):
            return call(layer, "dispatch", callback, *args, **kwargs)
        return dispatch

    schedule = Simulator.schedule
    schedule_at = Simulator.schedule_at
    schedule_fire = Simulator.schedule_fire
    schedule_fire_many = Simulator.schedule_fire_many

    def traced_schedule(self, delay, callback, *args, **kwargs):
        return schedule(self, delay, traced_callback(callback), *args,
                        **kwargs)

    def traced_schedule_at(self, time, callback, *args, **kwargs):
        return schedule_at(self, time, traced_callback(callback), *args,
                           **kwargs)

    def traced_schedule_fire(self, delay, callback, *args):
        return schedule_fire(self, delay, traced_callback(callback), *args)

    def traced_schedule_fire_many(self, entries):
        return schedule_fire_many(
            self, [(delay, traced_callback(callback), args)
                   for delay, callback, args in entries])

    patches.replace(Simulator, "schedule", traced_schedule)
    patches.replace(Simulator, "schedule_at", traced_schedule_at)
    patches.replace(Simulator, "schedule_fire", traced_schedule_fire)
    patches.replace(Simulator, "schedule_fire_many", traced_schedule_fire_many)

    _wrap_methods(patches, recorder, WirelessChannel, ["transmit"])
    _wrap_methods(patches, recorder, WirelessInterface, ["begin_reception"])
    _wrap_methods(patches, recorder, Packet, ["copy"])
    _wrap_methods(patches, recorder, DcfMac, ["receive_frame"])
    patches.replace(DcfMac, "_retry_or_drop", _count_wrapper(
        recorder, "mac.retry_or_drop", DcfMac.__dict__["_retry_or_drop"]))
    for agent in _subclasses(RoutingAgent):
        _wrap_methods(patches, recorder, agent,
                      ["route_input", "route_output", "tap", "link_failed"])
    _wrap_methods(patches, recorder, PathSet, _public_methods(PathSet))
    _wrap_methods(patches, recorder, SourceRouteSelector,
                  _public_methods(SourceRouteSelector))
    _wrap_methods(patches, recorder, TcpRenoSender, ["receive"])
    _wrap_methods(patches, recorder, TcpSink, ["receive"])
    _wrap_methods(patches, recorder, MetricsCollector,
                  [name for name in _public_methods(MetricsCollector)
                   if name.startswith("on_")])
    for model in _subclasses(MobilityModel):
        _wrap_methods(patches, recorder, model, ["position", "segment_at"])
    _wrap_methods(patches, recorder, EavesdropperMonitor,
                  ["_sniff"] + _public_methods(EavesdropperMonitor))
    _wrap_methods(patches, recorder, Scenario, ["collect_results"],
                  layer="metrics", op_prefix="scenario.")
    _wrap_methods(patches, recorder, ScenarioBuilder, ["build"])
    return patches


def install_pipeline(recorder: SpanRecorder,
                     patches: Optional[Patches] = None) -> Patches:
    """Wrap the artifact store and the figure/table renderers."""
    import repro.campaign.runner  # noqa: F401 - binds the renderers
    from repro.campaign.store import ArtifactStore
    from repro.experiments import figures, table1

    patches = patches or Patches()
    _wrap_methods(patches, recorder, ArtifactStore,
                  _public_methods(ArtifactStore), op_prefix="store.")
    for fn in (figures.format_figure, figures.render_figures,
               table1.table1_from_sweep):
        _rebind_function(patches, fn, _span_wrapper(
            recorder, "experiments", "render", fn))
    return patches
