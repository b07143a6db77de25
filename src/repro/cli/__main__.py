"""Dispatcher: ``python -m repro.cli {cache,campaign,lint,serve,sweep} …``.

Lets the CLIs run straight from a checkout (``PYTHONPATH=src``) without
installing the console entry points declared in ``pyproject.toml``.
Only the chosen tool is imported, so e.g. ``serve`` never loads the
simulator.
"""

from __future__ import annotations

import importlib
import sys

TOOLS = {tool: f"repro.cli.{tool}"
         for tool in ("cache", "campaign", "lint", "serve", "sweep")}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in TOOLS:
        known = "|".join(sorted(TOOLS))
        print(f"usage: python -m repro.cli {{{known}}} ...", file=sys.stderr)
        return 2
    return importlib.import_module(TOOLS[argv[0]]).main(argv[1:])


if __name__ == "__main__":
    sys.exit(main())
