"""Pluggable protocol-stack registry: the scenario stack as data.

Historically every layer choice in :mod:`repro.scenario.builder` was a
hard-coded ``if/elif`` chain, and models that shipped with the package
(e.g. :class:`~repro.net.propagation.TwoRayGround`) were unreachable
from a :class:`~repro.scenario.config.ScenarioConfig`.  This package
turns the whole stack into data: one :class:`ComponentRegistry` per
layer —

* :data:`MOBILITY`     — ``static`` / ``random_waypoint``
* :data:`PROPAGATION`  — ``range`` / ``two_ray`` / ``log_distance_shadowing``
* :data:`ROUTING`      — ``MTS`` / ``DSR`` / ``AODV``
* :data:`TRANSPORT`    — ``tcp_reno`` / ``udp``
* :data:`APPLICATION`  — ``ftp`` / ``cbr``

— so a new workload is a config entry (``propagation_model=...``,
``*_params={...}``) instead of a cross-layer code edit.  Each layer
package self-registers its implementations at import time; the
registries lazily import the layer packages on first use
(:func:`ensure_registered`), so importing :mod:`repro.registry` alone
stays cheap and no import cycles arise.

A registered component carries a factory, a param schema (names and
accepted types, used to validate ``ScenarioConfig.*_params`` up front —
before any worker is dispatched), a description, and free-form metadata
(e.g. the transport ``kind`` an application requires).  Unknown names
fail with a "did you mean …" suggestion plus the full listing.

Registering a component::

    from repro.registry import PROPAGATION, Param

    @PROPAGATION.register("my_model", params=(
        Param("alpha", (float,), "attenuation knob"),
    ), description="one line for the listings")
    def _make_my_model(config, params):
        return MyModel(config.transmission_range, **params)

Factories are called as ``factory(config, params, **context)`` where
``context`` is layer-specific (see :class:`ComponentRegistry.create`
call sites in :mod:`repro.scenario.builder`).
"""

from __future__ import annotations

import dataclasses
import difflib
import importlib
from typing import (
    Callable, Dict, Mapping, Optional, Sequence, Tuple,
)

__all__ = [
    "APPLICATION",
    "Component",
    "ComponentRegistry",
    "MOBILITY",
    "PROPAGATION",
    "Param",
    "REGISTRIES",
    "ROUTING",
    "TRANSPORT",
    "UnknownComponentError",
    "ensure_registered",
    "params_from_dataclass",
]


class UnknownComponentError(ValueError):
    """An unregistered component name, with "did you mean" suggestions."""

    def __init__(self, layer: str, name: str,
                 known: Sequence[str]) -> None:
        self.layer = layer
        self.name = name
        self.known = tuple(known)
        self.suggestions = tuple(difflib.get_close_matches(
            str(name), [str(k) for k in known], n=3, cutoff=0.5))
        hint = (f"; did you mean {self.suggestions[0]!r}?"
                if self.suggestions else "")
        listing = ", ".join(self.known) or "(none registered)"
        super().__init__(
            f"unknown {layer} component {name!r}{hint} "
            f"(available: {listing})")


@dataclasses.dataclass(frozen=True)
class Param:
    """One parameter accepted by a component's factory.

    ``types`` is the tuple of accepted Python types; empty means any
    JSON-compatible value is accepted.  ``int`` is accepted wherever
    ``float`` is declared (JSON does not distinguish them reliably);
    ``bool`` is never accepted for a numeric parameter.
    """

    name: str
    types: Tuple[type, ...] = ()
    doc: str = ""

    def accepts(self, value: object) -> bool:
        """Whether ``value`` satisfies this parameter's type schema."""
        if not self.types:
            return True
        for expected in self.types:
            if expected is float:
                if isinstance(value, (int, float)) \
                        and not isinstance(value, bool):
                    return True
            elif expected is int:
                if isinstance(value, int) and not isinstance(value, bool):
                    return True
            elif isinstance(value, expected):
                return True
        return False

    def type_names(self) -> str:
        """Human-readable accepted-type listing for error messages."""
        if not self.types:
            return "any"
        return "/".join(t.__name__ for t in self.types)


@dataclasses.dataclass(frozen=True)
class Component:
    """One registered implementation of a protocol-stack layer."""

    name: str
    factory: Callable
    #: Parameter schema, keyed by parameter name.
    params: Mapping[str, Param]
    description: str = ""
    #: Free-form layer-specific facts (e.g. transport ``kind``).
    metadata: Mapping[str, object] = dataclasses.field(default_factory=dict)


def params_from_dataclass(cls: type,
                          exclude: Sequence[str] = ()) -> Tuple[Param, ...]:
    """Derive a :class:`Param` schema from a config dataclass.

    Every field with a default becomes a parameter; the accepted type is
    the type of the default value (``None`` defaults accept anything).
    Used by the routing registrations so a protocol's tunables never
    drift from its ``*Config`` dataclass.
    """
    specs = []
    for field in dataclasses.fields(cls):
        if field.name in exclude:
            continue
        if field.default is not dataclasses.MISSING:
            default = field.default
        elif field.default_factory is not dataclasses.MISSING:
            default = field.default_factory()
        else:
            continue
        types = () if default is None else (type(default),)
        specs.append(Param(field.name, types=types, doc=""))
    return tuple(specs)


class ComponentRegistry:
    """Typed name → component registry for one protocol-stack layer.

    Supports ``register`` (direct or as a decorator, duplicates
    rejected), ``resolve`` (unknown names raise
    :class:`UnknownComponentError` with suggestions), ``available()``
    (sorted, stable listing), param validation against each component's
    schema, and ``create`` (validate + call the factory).
    """

    def __init__(self, layer: str,
                 populate: Optional[Callable[[], None]] = None) -> None:
        self.layer = layer
        #: Optional hook run before lookups (the package-level
        #: registries use :func:`ensure_registered`); a registry built
        #: by a test or plugin has none and never triggers the repro
        #: layer-stack import.
        self._populate = populate
        self._components: Dict[str, Component] = {}

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register(self, name: str, factory: Optional[Callable] = None, *,
                 params: Sequence[Param] = (), description: str = "",
                 **metadata: object) -> Callable:
        """Register ``factory`` under ``name``; usable as a decorator.

        Raises :class:`ValueError` on duplicate names — two components
        silently shadowing each other is exactly the config drift this
        subsystem exists to prevent.
        """
        if factory is None:
            def decorator(func: Callable) -> Callable:
                self.register(name, func, params=params,
                              description=description, **metadata)
                return func
            return decorator
        existing = self._components.get(name)
        if existing is not None:

            def source_of(func: Callable) -> Tuple[object, object, object]:
                code = getattr(func, "__code__", None)
                return (getattr(func, "__module__", None),
                        getattr(func, "__qualname__", None),
                        getattr(code, "co_firstlineno", None))

            if source_of(existing.factory) != source_of(factory):
                raise ValueError(
                    f"duplicate registration of {self.layer} component "
                    f"{name!r}")
            # Same factory source re-executing (importlib.reload, or a
            # retry after a failed layer import): replace instead of
            # failing, so a transient import error is not converted
            # into a permanent spurious duplicate.
        self._components[name] = Component(
            name=name, factory=factory,
            params={spec.name: spec for spec in params},
            description=description, metadata=dict(metadata))
        return factory

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def _ensure_populated(self) -> None:
        if self._populate is not None:
            self._populate()

    def available(self) -> Tuple[str, ...]:
        """Sorted names of every registered component (stable listing)."""
        self._ensure_populated()
        return tuple(sorted(self._components))

    def __contains__(self, name: str) -> bool:
        self._ensure_populated()
        return name in self._components

    def __len__(self) -> int:
        self._ensure_populated()
        return len(self._components)

    def resolve(self, name: str) -> Component:
        """The component registered as ``name``.

        Raises
        ------
        UnknownComponentError
            With "did you mean …" suggestions and the full listing.
        """
        self._ensure_populated()
        try:
            return self._components[name]
        except KeyError:
            raise UnknownComponentError(self.layer, name,
                                        sorted(self._components)) from None

    # ------------------------------------------------------------------ #
    # params
    # ------------------------------------------------------------------ #
    def validate_params(self, name: str,
                        params: Optional[Mapping[str, object]]) -> None:
        """Check ``params`` against the schema of component ``name``."""
        component = self.resolve(name)
        for key, value in (params or {}).items():
            spec = component.params.get(key)
            if spec is None:
                known = sorted(component.params)
                suggestions = difflib.get_close_matches(str(key), known,
                                                        n=1, cutoff=0.5)
                hint = (f"; did you mean {suggestions[0]!r}?"
                        if suggestions else "")
                listing = ", ".join(known) or "(none)"
                raise ValueError(
                    f"unknown parameter {key!r} for {self.layer} "
                    f"component {name!r}{hint} (accepted: {listing})")
            if not spec.accepts(value):
                raise ValueError(
                    f"parameter {key!r} of {self.layer} component "
                    f"{name!r} expects {spec.type_names()}, "
                    f"got {value!r}")

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def create(self, name: str,
               params: Optional[Mapping[str, object]] = None, *,
               config: object, **context: object) -> object:
        """Validate ``params`` and call the component's factory.

        The factory receives ``(config, params, **context)``; ``context``
        carries the layer-specific wiring (simulator, node, rng, …).
        """
        component = self.resolve(name)
        self.validate_params(name, params)
        return component.factory(config, dict(params or {}), **context)

    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """Multi-line human-readable listing (CLI ``--list-profiles``)."""
        lines = []
        for name in self.available():
            component = self._components[name]
            param_names = ", ".join(sorted(component.params)) or "-"
            lines.append(f"  {name:<24} {component.description}"
                         f" [params: {param_names}]")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"ComponentRegistry({self.layer!r}, "
                f"components={sorted(self._components)})")


# ---------------------------------------------------------------------- #
# the per-layer registries
# ---------------------------------------------------------------------- #
#: Modules whose import populates the registries (each layer package
#: self-registers its implementations at the bottom of these modules;
#: MTS registers from its home package ``repro.core``).
_LAYER_MODULES = (
    "repro.mobility",
    "repro.net.propagation",
    "repro.routing",
    "repro.core",
    "repro.transport",
    "repro.apps",
)

_populated = False


def ensure_registered() -> None:
    """Import every layer package so its components are registered.

    Idempotent and lazy: called on lookup by the package-level
    registries below, so merely importing :mod:`repro.registry` (or
    registering a component from a layer module) never triggers the
    full-stack import.
    """
    global _populated
    if _populated:
        return
    _populated = True
    try:
        for module in _LAYER_MODULES:
            importlib.import_module(module)
    except BaseException:
        _populated = False
        raise


MOBILITY = ComponentRegistry("mobility", populate=ensure_registered)
PROPAGATION = ComponentRegistry("propagation", populate=ensure_registered)
ROUTING = ComponentRegistry("routing", populate=ensure_registered)
TRANSPORT = ComponentRegistry("transport", populate=ensure_registered)
APPLICATION = ComponentRegistry("application", populate=ensure_registered)

#: Every layer registry by the layer name used in docs and CLIs.
REGISTRIES: Dict[str, ComponentRegistry] = {
    "mobility": MOBILITY,
    "propagation": PROPAGATION,
    "routing": ROUTING,
    "transport": TRANSPORT,
    "application": APPLICATION,
}
