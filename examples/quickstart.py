#!/usr/bin/env python
"""Quickstart: run one MTS scenario and print every paper metric.

This is the smallest end-to-end use of the public API: configure a
scenario, run it, read the results.  Runtime: a few seconds.

Usage::

    python examples/quickstart.py [--protocol MTS] [--speed 10] [--seed 1]
                                  [--sim-time 30] [--paper-scale]
                                  [--cache DIR] [--json PATH]
"""

from __future__ import annotations

import argparse
import pathlib

from repro.exec import ResultCache
from repro.scenario import ScenarioConfig, run_scenario


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--protocol", default="MTS",
                        choices=["MTS", "DSR", "AODV"],
                        help="routing protocol to simulate")
    parser.add_argument("--speed", type=float, default=10.0,
                        help="maximum node speed in m/s")
    parser.add_argument("--seed", type=int, default=1, help="random seed")
    parser.add_argument("--sim-time", type=float, default=30.0,
                        help="simulated seconds (paper uses 200)")
    parser.add_argument("--paper-scale", action="store_true",
                        help="use the paper's full 200 s / 50 node setup")
    parser.add_argument("--cache", metavar="DIR", default=None,
                        help="result-cache directory: re-running the same "
                             "configuration loads the result from disk")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the full result as JSON")
    args = parser.parse_args()

    if args.paper_scale:
        config = ScenarioConfig.paper_default(protocol=args.protocol,
                                              max_speed=args.speed,
                                              seed=args.seed)
    else:
        config = ScenarioConfig.paper_default(protocol=args.protocol,
                                              max_speed=args.speed,
                                              seed=args.seed,
                                              sim_time=args.sim_time)

    print(f"Running {config.protocol} | {config.n_nodes} nodes | "
          f"{config.field_size[0]:.0f}x{config.field_size[1]:.0f} m | "
          f"max speed {config.max_speed} m/s | {config.sim_time:.0f} s ...")
    cache = ResultCache(args.cache) if args.cache else None
    result = run_scenario(config, cache=cache)
    if cache is not None and cache.hits:
        print("(loaded from cache)")

    flow_src, flow_dst = result.flows[0]
    print()
    print(f"TCP flow {flow_src} -> {flow_dst}, eavesdropper at node "
          f"{result.eavesdropper_node}")
    print(f"  participating nodes          : {result.participating_nodes}")
    print(f"  relay-share std (Fig 6)      : {result.relay_std:.4f}")
    print(f"  interception ratio (Eq 1)    : {result.interception_ratio:.3f} "
          f"(Pe={result.packets_eavesdropped}, Pr={result.packets_received})")
    print(f"  highest interception (Fig 7) : {result.highest_interception_ratio:.3f}")
    print(f"  mean end-to-end delay (Fig 8): {result.mean_delay * 1000:.1f} ms")
    print(f"  TCP throughput (Fig 9)       : {result.throughput_segments} segments "
          f"({result.throughput_kbps:.1f} kb/s)")
    print(f"  delivery rate (Fig 10)       : {result.delivery_rate:.3f}")
    print(f"  control overhead (Fig 11)    : {result.control_overhead} packets "
          f"{dict(result.control_by_kind)}")
    print(f"  simulator events processed   : {result.events_processed}")
    if args.json:
        pathlib.Path(args.json).write_text(result.to_json(), encoding="utf-8")
        print(f"\nFull result written to {args.json}")


if __name__ == "__main__":
    main()
