"""Workload definitions and seeded input generation.

A workload is a campaign manifest: its cells are simulated in-process
(the kernel phase) and then run, replayed, published and served as a
campaign (the pipeline phase).  The workload seed is consumed here; the
program only ever sees the generated manifest, cell order and query list.

What the seed varies
--------------------
Per-cell simulation work differs by up to ±50 % between topologies, so
drawing fresh topologies per seed would swamp any regression bound.  Every
workload therefore keeps its entries' own topologies and flows (the
profile's ``base_seed``, or a fixed one), and the seed picks each entry's
eavesdropper node (among nodes that are no flow endpoint in any of the
entry's cells, when there is one — the paper's security metrics depend on
it, the simulated traffic does not), the in-process cell order and the
served route sequence.
"""

from __future__ import annotations

import dataclasses
import random
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Workload name -> its manifest entries (why each workload was chosen is
#: recorded in BENCHMARK.json).
WORKLOADS: Dict[str, List[dict]] = {
    "paper_cells": [{"name": "paper", "profile": "bench",
                     "overrides": {"sim_time": 6.0}}],
    "dense_cells": [{"name": "dense", "profile": "dense", "speeds": [10.0],
                     "replications": 2, "overrides": {"sim_time": 3.0}}],
    "campaign_e2e": [{"name": f"tiny{index}", "profile": "smoke",
                      "protocols": ["DSR", "AODV", "MTS"],
                      "speeds": [2.0, 5.0, 10.0, 15.0], "replications": 2,
                      "base_seed": 7000 + 101 * index,
                      "overrides": {"n_nodes": 10,
                                    "field_size": [500.0, 500.0],
                                    "sim_time": 2.0}}
                     for index in range(3)],
}


def generate(workload: str, seed: int) -> dict:
    """The inputs of one run: manifest, in-process cell order, query seed."""
    from repro.campaign.manifest import CampaignSpec
    from repro.scenario.runner import build_scenario

    rng = random.Random(f"{workload}:{seed}")
    entries = [dict(entry, overrides=dict(entry["overrides"]))
               for entry in WORKLOADS[workload]]
    spec = CampaignSpec.from_dict({"campaign": f"perfbench-{workload}",
                                   "entries": entries})
    for entry, (_, settings) in zip(entries, spec.expand()):
        configs = settings.cell_configs()
        endpoints = {node for config in configs
                     for flow in build_scenario(config).flows
                     for node in flow}
        choices = [node for node in range(configs[0].n_nodes)
                   if node not in endpoints]
        if choices:
            entry["overrides"]["eavesdropper_node"] = rng.choice(choices)
    spec = CampaignSpec.from_dict({"campaign": spec.name,
                                   "entries": entries})
    order = list(range(spec.total_cells()))
    rng.shuffle(order)
    return {"workload": workload, "seed": seed,
            "manifest": spec.to_dict(), "order": order,
            "query_seed": rng.randrange(1 << 30)}


# ---------------------------------------------------------------------- #
# served route mix
# ---------------------------------------------------------------------- #
@dataclasses.dataclass(frozen=True)
class Route:
    kind: str
    path: str
    status: int
    #: Exact expected body for 200s; ``None`` for expected 404s.
    body: Optional[bytes]


#: Route kinds of the mix: every route the published index exposes, then
#: requests that must return 404.
ROUTE_KINDS = ("index", "sweep", "figures", "figure", "table1", "artifact",
               "not_found")
#: Share of requests drawn from the expected-404 routes.  The rest are
#: drawn uniformly over every route the index exposes, so the mix follows
#: the published campaign rather than guessed per-kind weights.
NOT_FOUND_SHARE = 0.05


def build_routes(campaign: str, index: dict, index_bytes: bytes,
                 blob: Callable[[str], bytes]) -> Dict[str, List[Route]]:
    """Every route of the mix with the bytes it must serve.

    ``index`` is the campaign's parsed store index, ``index_bytes`` its
    raw file and ``blob(digest)`` reads a stored blob.  Text routes serve
    the blob plus one trailing newline (``print`` parity with
    ``repro-sweep render``).
    """
    base = f"/campaigns/{campaign}"
    routes: Dict[str, List[Route]] = {kind: [] for kind in ROUTE_KINDS}
    routes["index"].append(Route("index", base, 200, index_bytes))
    digests = []
    for name, record in sorted(index["entries"].items()):
        entry = f"{base}/entries/{name}"
        routes["sweep"].append(Route("sweep", f"{entry}/sweep", 200,
                                     blob(record["sweep"])))
        routes["figures"].append(Route(
            "figures", f"{entry}/figures", 200,
            blob(record["figures_all"]) + b"\n"))
        for figure_id, digest in sorted(record["figures"].items()):
            routes["figure"].append(Route(
                "figure", f"{entry}/figures/{figure_id}", 200,
                blob(digest) + b"\n"))
            digests.append(digest)
        if record.get("table1") is None:
            routes["table1"].append(Route("table1", f"{entry}/table1", 404,
                                          None))
        else:
            routes["table1"].append(Route("table1", f"{entry}/table1", 200,
                                          blob(record["table1"]) + b"\n"))
            digests.append(record["table1"])
        digests.extend((record["sweep"], record["figures_all"]))
        routes["not_found"].append(Route(
            "not_found", f"{entry}/figures/fig0", 404, None))
    for digest in sorted(set(digests)):
        routes["artifact"].append(Route("artifact", f"/artifacts/{digest}",
                                        200, blob(digest)))
    routes["not_found"].extend([
        Route("not_found", f"{base}/entries/no-such-entry", 404, None),
        Route("not_found", "/campaigns/no-such-campaign", 404, None),
        Route("not_found", "/artifacts/" + "0" * 64, 404, None),
        Route("not_found", "/no/such/route", 404, None),
    ])
    return routes


def route_sequence(routes: Dict[str, List[Route]], seed: int):
    """Endless seeded draw from the route mix (same seed, same sequence).

    A request is an expected 404 with probability ``NOT_FOUND_SHARE``;
    otherwise it is drawn uniformly over every other route.
    """
    rng = random.Random(seed)
    missing = routes.get("not_found", [])
    served = [route for kind in ROUTE_KINDS if kind != "not_found"
              for route in routes.get(kind, [])]
    while True:
        if missing and (not served or rng.random() < NOT_FOUND_SHARE):
            yield rng.choice(missing)
        else:
            yield rng.choice(served)


def store_blob_reader(store_root: Path) -> Callable[[str], bytes]:
    """Read blobs straight from the store's on-disk layout."""
    def read(digest: str) -> bytes:
        return (store_root / "objects" / digest[:2]
                / f"{digest}.bin").read_bytes()
    return read


def cell_index(spec_entries: Sequence[Tuple[str, object]]
               ) -> Dict[Tuple[str, str, float, int], int]:
    """(entry, protocol, speed, replication) -> position in the cell list."""
    index: Dict[Tuple[str, str, float, int], int] = {}
    for entry_name, settings in spec_entries:
        for protocol, speed, replication in settings.grid():
            index[(entry_name, protocol, float(speed), replication)] = \
                len(index)
    return index
