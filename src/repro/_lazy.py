"""Lazy package exports (PEP 562).

A package that re-exports names from its submodules declares one
``name -> defining module`` table and forwards its module-level
``__getattr__`` and ``__dir__`` here.  A name's module is imported on
first access only and the value is then bound into the package globals,
so later lookups never reach ``__getattr__`` again.  Importing a
package therefore costs only what is used: ``repro-serve`` reaches the
artifact store without loading the simulator (or numpy).
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, List, Mapping


def load(namespace: Dict[str, Any], exports: Mapping[str, str],
         name: str) -> Any:
    """Resolve export ``name`` of the package owning ``namespace``."""
    try:
        module = exports[name]
    except KeyError:
        raise AttributeError(f"module {namespace['__name__']!r} has no "
                             f"attribute {name!r}") from None
    value = getattr(importlib.import_module(module), name)
    namespace[name] = value
    return value


def names(namespace: Dict[str, Any], exports: Mapping[str, str]) -> List[str]:
    """``dir()`` of the package: bound globals plus every lazy export."""
    return sorted({*namespace, *exports})
