"""Start ``repro-serve`` with its request handler and store traced.

``python3 -m perfbench.serve_launcher --spans OUT -- <repro-serve args>``

Installs the wrappers, then calls :func:`repro.cli.serve.main`.  Each
request's handler time (``ArtifactRequestHandler.do_GET``) and the store
calls it made are kept in memory and written to ``OUT`` as JSON when the
server exits (SIGINT from the benchmark).  Requests are matched to the
client's latencies through the ``X-Bench-Request`` header.
"""

from __future__ import annotations

import argparse
import collections
import functools
import json
import sys
import threading
import time
import types
from pathlib import Path
from typing import List, Optional


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--")
    parser = argparse.ArgumentParser(prog="perfbench.serve_launcher")
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv[:split])

    from repro.campaign.store import ArtifactStore
    from repro.cli import serve

    records: List[dict] = []
    local = threading.local()

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*a, **kw):
            calls = getattr(local, "store_calls", None)
            if calls is not None:
                calls[name] += 1
            return fn(*a, **kw)
        return wrapper

    for name, raw in list(vars(ArtifactStore).items()):
        if isinstance(raw, types.FunctionType) and not name.startswith("_"):
            setattr(ArtifactStore, name, counted(name, raw))

    do_get = serve.ArtifactRequestHandler.do_GET

    @functools.wraps(do_get)
    def traced_do_get(self):
        local.store_calls = collections.Counter()
        started = time.perf_counter_ns()
        try:
            return do_get(self)
        finally:
            records.append({"request": self.headers.get("X-Bench-Request"),
                            "path": self.path,
                            "handler_ns": time.perf_counter_ns() - started,
                            "store_calls": dict(local.store_calls)})
            local.store_calls = None

    serve.ArtifactRequestHandler.do_GET = traced_do_get
    try:
        return serve.main(argv[split + 1:])
    finally:
        Path(args.spans).write_text(json.dumps(list(records)))


if __name__ == "__main__":
    sys.exit(main())
