"""``repro-serve`` — read-only HTTP front end over an artifact store.

The query half of results-as-a-service: a stdlib ``http.server`` that
answers figure/table/sweep queries straight from a
:class:`~repro.campaign.store.ArtifactStore` — **zero simulations**, no
write path, no state beyond the store directory.  Text responses are
byte-identical to ``repro-sweep render`` over the same sweep artifact
(both end with one trailing newline, exactly as ``print`` emits).

Routes (all ``GET``)::

    /healthz                                     liveness probe
    /version                                     stamp contract of this server
    /campaigns                                   JSON list of campaign names
    /campaigns/<c>                               raw index document
    /campaigns/<c>/entries/<e>                   entry record (digests)
    /campaigns/<c>/entries/<e>/sweep             raw sweep artifact JSON
    /campaigns/<c>/entries/<e>/figures           all figures (text)
    /campaigns/<c>/entries/<e>/figures/<figid>   one figure (text)
    /campaigns/<c>/entries/<e>/table1            Table I (text)
    /artifacts/<sha256>                          raw blob by digest

Usage::

    repro-serve STORE_DIR [--host H] [--port P] [--port-file PATH]
                [--allow-stale]

``--port 0`` binds an ephemeral port; ``--port-file`` writes the bound
port after listening starts (how scripts and CI wait for readiness).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import List, Optional, Tuple

from repro.campaign.store import ArtifactStore
from repro.exec.artifact import ARTIFACT_FORMAT_VERSION, StaleArtifactError
from repro.exec.cache import atomic_write_text
from repro.version import __version__

_DIGEST_PATTERN = re.compile(r"^[0-9a-f]{64}$")
_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


class _HTTPError(Exception):
    """Internal: carry an HTTP status + message to the dispatch layer."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ArtifactServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` bound to one artifact store."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], store: ArtifactStore,
                 allow_stale: bool = False, quiet: bool = False) -> None:
        super().__init__(address, ArtifactRequestHandler)
        self.store = store
        self.allow_stale = allow_stale
        self.quiet = quiet


class ArtifactRequestHandler(BaseHTTPRequestHandler):
    """Read-only GET dispatcher over the server's store."""

    server_version = f"repro-serve/{__version__}"
    protocol_version = "HTTP/1.1"

    # -------------------------------------------------------------- #
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        try:
            body, content_type = self._dispatch()
        except _HTTPError as exc:
            self._send_error(exc.status, str(exc))
            return
        except StaleArtifactError as exc:
            self._send_error(409, str(exc))
            return
        except (OSError, ValueError, KeyError) as exc:
            self._send_error(500, f"{type(exc).__name__}: {exc}")
            return
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, status: int, message: str) -> None:
        body = json.dumps({"error": message}).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not getattr(self.server, "quiet", False):
            sys.stderr.write("repro-serve: %s\n" % (format % args))

    # -------------------------------------------------------------- #
    @property
    def _store(self) -> ArtifactStore:
        return self.server.store  # type: ignore[attr-defined]

    def _index(self, campaign: str) -> dict:
        if not _NAME_PATTERN.match(campaign):
            raise _HTTPError(404, f"invalid campaign name {campaign!r}")
        try:
            return self._store.get_index(
                campaign,
                allow_stale=getattr(self.server, "allow_stale", False))
        except KeyError as exc:
            raise _HTTPError(404, str(exc.args[0])) from None

    def _entry_record(self, campaign: str, entry: str) -> dict:
        if not _NAME_PATTERN.match(entry):
            raise _HTTPError(404, f"invalid entry name {entry!r}")
        entries = self._index(campaign).get("entries", {})
        if entry not in entries:
            known = ", ".join(sorted(entries)) or "(none)"
            raise _HTTPError(404, f"campaign {campaign!r} has no entry "
                                  f"{entry!r}; entries: {known}")
        return entries[entry]

    def _text_blob(self, digest: str) -> Tuple[bytes, str]:
        """A stored text deliverable + one trailing newline (print parity)."""
        text = self._store.get_text(digest)
        return (text + "\n").encode("utf-8"), "text/plain; charset=utf-8"

    def _dispatch(self) -> Tuple[bytes, str]:
        path = self.path.split("?", 1)[0]
        parts = [part for part in path.split("/") if part]
        if not parts:
            return (__doc__ + "\n").encode("utf-8"), \
                "text/plain; charset=utf-8"
        if parts == ["healthz"]:
            return b"ok\n", "text/plain; charset=utf-8"
        if parts == ["version"]:
            body = json.dumps({"repro_version": __version__,
                               "artifact_format": ARTIFACT_FORMAT_VERSION},
                              sort_keys=True) + "\n"
            return body.encode("utf-8"), "application/json"
        if parts == ["campaigns"]:
            body = json.dumps(self._store.campaigns()) + "\n"
            return body.encode("utf-8"), "application/json"
        if parts[0] == "campaigns" and len(parts) == 2:
            self._index(parts[1])  # 404 / stamp check before raw read
            return self._store.index_bytes(parts[1]), "application/json"
        if parts[0] == "campaigns" and len(parts) >= 4 \
                and parts[2] == "entries":
            return self._dispatch_entry(parts[1], parts[3], parts[4:])
        if parts[0] == "artifacts" and len(parts) == 2:
            if not _DIGEST_PATTERN.match(parts[1]):
                raise _HTTPError(404, f"not a sha256 digest: {parts[1]!r}")
            if not self._store.has_blob(parts[1]):
                raise _HTTPError(404, f"no blob {parts[1][:12]}…")
            return self._store.get_bytes(parts[1]), \
                "application/octet-stream"
        raise _HTTPError(404, f"no route for {path!r}")

    def _dispatch_entry(self, campaign: str, entry: str,
                        rest: List[str]) -> Tuple[bytes, str]:
        record = self._entry_record(campaign, entry)
        if not rest:
            body = json.dumps(record, indent=2, sort_keys=True) + "\n"
            return body.encode("utf-8"), "application/json"
        if rest == ["sweep"]:
            return self._store.get_bytes(record["sweep"]), \
                "application/json"
        if rest == ["figures"]:
            return self._text_blob(record["figures_all"])
        if rest[0] == "figures" and len(rest) == 2:
            figures = record["figures"]
            if rest[1] not in figures:
                raise _HTTPError(404, f"unknown figure {rest[1]!r}; "
                                      f"published: {sorted(figures)}")
            return self._text_blob(figures[rest[1]])
        if rest == ["table1"]:
            digest = record.get("table1")
            if digest is None:
                raise _HTTPError(404, f"entry {entry!r} has no DSR run; "
                                      f"Table I was not published")
            return self._text_blob(digest)
        raise _HTTPError(404, f"no route below entry {entry!r}: {rest}")


# ------------------------------------------------------------------ #
def build_server(store_root: str, host: str = "127.0.0.1", port: int = 0,
                 allow_stale: bool = False,
                 quiet: bool = False) -> ArtifactServer:
    """Bind (but do not start) an :class:`ArtifactServer` — test hook."""
    return ArtifactServer((host, port), ArtifactStore(store_root),
                          allow_stale=allow_stale, quiet=quiet)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve campaign results from an artifact store "
                    "(read-only, zero simulations).")
    parser.add_argument("store", help="artifact store directory "
                        "(repro-campaign run --store)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8321,
                        help="port to listen on (0 = ephemeral; "
                             "default 8321)")
    parser.add_argument("--port-file", metavar="PATH", default=None,
                        help="write the bound port here once listening "
                             "(readiness signal for scripts/CI)")
    parser.add_argument("--allow-stale", action="store_true",
                        help="serve indexes stamped by a different repro "
                             "version (warns instead of refusing)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-request log lines")
    args = parser.parse_args(argv)
    try:
        server = build_server(args.store, host=args.host, port=args.port,
                              allow_stale=args.allow_stale,
                              quiet=args.quiet)
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
    host, port = server.server_address[:2]
    print(f"repro-serve: store {args.store} on http://{host}:{port} "
          f"(read-only; Ctrl-C to stop)", flush=True)
    if args.port_file:
        atomic_write_text(args.port_file, f"{port}\n")
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
