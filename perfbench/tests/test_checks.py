"""Failure accounting of served responses and the route mix."""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from perfbench import workloads
from perfbench.spans import Tally, check_response
from perfbench.worker import query_loop

BODIES = {"/good": b"stored blob\n", "/tampered": b"stored blob, edited\n"}


class FixedHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_GET(self):  # noqa: N802 - http.server API
        body = BODIES.get(self.path)
        status = 200 if body is not None else 404
        body = body if body is not None else b"{}"
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), FixedHandler)
    httpd.daemon_threads = True
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield httpd.server_address[1]
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_check_response_counts_status_and_bytes():
    tally = Tally()
    assert check_response(tally, "/a", 200, b"x", 200, b"x")
    assert check_response(tally, "/missing", 404, None, 404, b"{}")
    assert not check_response(tally, "/a", 200, b"x", 200, b"y")
    assert not check_response(tally, "/a", 200, b"x", 500, b"x")
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.failed_frac == 0.5
    assert "differ" in tally.reasons[0] and "status 500" in tally.reasons[1]


def test_injected_wrong_bytes_count_into_failed_frac(server):
    stored = BODIES["/good"]
    routes = {
        "figure": [workloads.Route("figure", "/good", 200, stored)],
        "sweep": [workloads.Route("sweep", "/tampered", 200, stored)],
        "not_found": [workloads.Route("not_found", "/nope", 404, None)],
    }
    tally = Tally()
    out = query_loop(server, routes, seed=7, seconds=0.3, tally=tally)
    sequence = workloads.route_sequence(routes, 7)
    tampered = sum(next(sequence).path == "/tampered"
                   for _ in out["latencies"])
    assert len(out["latencies"]) == tally.attempted > 0
    assert tampered > 0
    assert tally.failed == tampered
    assert 0 < tally.failed_frac < 1


def test_route_sequence_is_a_pure_function_of_the_seed():
    routes = {kind: [workloads.Route(kind, f"/{kind}/{i}", 200, b"")
                     for i in range(3)]
              for kind in workloads.ROUTE_KINDS}
    first = workloads.route_sequence(routes, 11)
    second = workloads.route_sequence(routes, 11)
    assert [next(first).path for _ in range(50)] == \
        [next(second).path for _ in range(50)]


def test_route_mix_is_uniform_over_served_routes_plus_a_404_share():
    routes = {"figure": [workloads.Route("figure", f"/f{i}", 200, b"")
                         for i in range(9)],
              "index": [workloads.Route("index", "/i", 200, b"")],
              "not_found": [workloads.Route("not_found", "/x", 404, None)]}
    sequence = workloads.route_sequence(routes, 3)
    draws = [next(sequence).path for _ in range(20_000)]
    share = draws.count("/x") / len(draws)
    assert abs(share - workloads.NOT_FOUND_SHARE) < 0.01
    # ten served routes, each drawn about equally often
    served = [path for path in draws if path != "/x"]
    assert abs(served.count("/i") / len(served) - 0.1) < 0.01


def test_build_routes_expects_text_routes_with_a_trailing_newline():
    blobs = {"a" * 64: b"sweep", "b" * 64: b"all", "c" * 64: b"fig5",
             "d" * 64: b"table"}
    index = {"entries": {"e1": {"sweep": "a" * 64, "figures_all": "b" * 64,
                                "figures": {"fig5": "c" * 64},
                                "table1": "d" * 64}}}
    routes = workloads.build_routes("camp", index, b"{index}", blobs.get)
    by_path = {route.path: route for group in routes.values()
               for route in group}
    entry = "/campaigns/camp/entries/e1"
    assert by_path["/campaigns/camp"].body == b"{index}"
    assert by_path[f"{entry}/sweep"].body == b"sweep"
    assert by_path[f"{entry}/figures"].body == b"all\n"
    assert by_path[f"{entry}/figures/fig5"].body == b"fig5\n"
    assert by_path[f"{entry}/table1"].body == b"table\n"
    assert by_path["/artifacts/" + "c" * 64].body == b"fig5"
    assert all(route.status == 404 and route.body is None
               for route in routes["not_found"])
