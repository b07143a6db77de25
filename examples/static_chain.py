#!/usr/bin/env python
"""Static-topology walkthrough: watch MTS discover and probe disjoint paths.

Builds a small *fixed* topology by hand (no mobility): a source and a
destination connected by two parallel relay chains plus one extra relay,
with an eavesdropper pinned next to the upper chain.  Because nothing
moves, the example makes the MTS mechanics easy to observe: the disjoint
paths stored at the destination, the periodic checking rounds, and how
much the pinned eavesdropper intercepts compared with single-path routing.

Topology (distances chosen so only adjacent nodes are in the 250 m range)::

      1 ---- 2            upper chain
     /         \\
    0           5         0 = TCP source, 5 = TCP destination
     \\         /
      3 ---- 4            lower chain
          6                extra relay near the middle (eavesdropper)

Usage::

    python examples/static_chain.py [--protocol MTS] [--sim-time 30]
"""

from __future__ import annotations

import argparse

from repro.scenario import ScenarioConfig
from repro.scenario.runner import build_scenario

#: Hand-placed positions (metres).  Adjacent nodes along each chain are
#: ~230-242 m apart (inside the 250 m range); the two chains are 300 m
#: apart, so they cannot hear each other; the eavesdropper (node 6) sits
#: next to the upper chain's middle link and hears only that chain.
POSITIONS = [
    (0.0, 200.0),     # 0 source
    (190.0, 350.0),   # 1 upper chain
    (420.0, 350.0),   # 2 upper chain
    (190.0, 50.0),    # 3 lower chain
    (420.0, 50.0),    # 4 lower chain
    (610.0, 200.0),   # 5 destination
    (305.0, 300.0),   # 6 extra relay / eavesdropper near the upper-middle
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--protocol", default="MTS",
                        choices=["MTS", "DSR", "AODV"])
    parser.add_argument("--sim-time", type=float, default=30.0)
    args = parser.parse_args()

    config = ScenarioConfig(
        protocol=args.protocol,
        n_nodes=len(POSITIONS),
        field_size=(700.0, 500.0),
        mobility_model="static",
        static_positions=POSITIONS,
        flows=[(0, 5)],
        eavesdropper_node=6,
        sim_time=args.sim_time,
        seed=2,
    )
    scenario = build_scenario(config)
    result = scenario.run()

    print(f"Protocol {config.protocol}, static two-chain topology, "
          f"{config.sim_time:.0f} s simulated")
    print(f"  TCP throughput        : {result.throughput_segments} segments "
          f"({result.throughput_kbps:.1f} kb/s)")
    print(f"  mean end-to-end delay : {result.mean_delay * 1000:.1f} ms")
    print(f"  delivery rate         : {result.delivery_rate:.3f}")
    print(f"  control overhead      : {result.control_overhead} packets")
    print(f"  relays per node       : {dict(sorted(result.relay_counts.items()))}")
    print(f"  eavesdropper (node 6) : Pe={result.packets_eavesdropped} of "
          f"Pr={result.packets_received} "
          f"-> interception ratio {result.interception_ratio:.3f}")

    if config.protocol == "MTS":
        destination_agent = scenario.routing_agent(5)
        flow_state = destination_agent.flows.get(0)
        if flow_state is not None:
            print("\n  MTS state at the destination:")
            print(f"    stored disjoint paths : {flow_state.path_set.paths()}")
            print(f"    checking rounds sent  : {flow_state.checking.rounds_emitted}")
        source_agent = scenario.routing_agent(0)
        selector = source_agent.selectors.get(5)
        if selector is not None:
            print(f"    active path at source : "
                  f"{list(selector.active_path) if selector.active_path else None}")
            print(f"    switches from checks  : {selector.switches_from_check}")


if __name__ == "__main__":
    main()
