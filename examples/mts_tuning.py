#!/usr/bin/env python
"""MTS tuning study: checking interval and path-store size ablations.

The paper fixes two MTS design knobs by fiat — probe every 2–4 seconds and
keep at most five disjoint paths.  This example quantifies both choices on
the same scenario, showing the security/overhead trade-off that motivates
them.

Both ablations are batches of independent runs, so they accept the same
``--workers`` / ``--cache`` knobs as the other examples: knob values run
concurrently on a worker pool, and a cache makes re-running the study
(e.g. with one extra knob value) nearly free.

Usage::

    python examples/mts_tuning.py [--sim-time 25] [--speed 10] [--seed 11]
                                  [--workers 4] [--cache DIR]
"""

from __future__ import annotations

import argparse

from repro.exec import add_executor_options, executor_from_args
from repro.experiments import (
    format_ablation,
    run_check_interval_ablation,
    run_max_paths_ablation,
)
from repro.scenario import ScenarioConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sim-time", type=float, default=25.0)
    parser.add_argument("--speed", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=11)
    add_executor_options(parser)
    args = parser.parse_args()

    base = ScenarioConfig(protocol="MTS", n_nodes=50,
                          field_size=(1000.0, 1000.0),
                          max_speed=args.speed, sim_time=args.sim_time,
                          seed=args.seed)
    executor = executor_from_args(args)

    with executor:
        print("Sweeping the route-checking interval (paper recommends "
              "2-4 s)...")
        interval_results = run_check_interval_ablation(config=base,
                                                       executor=executor)
        print(format_ablation(interval_results, "check_interval_s"))
        print()

        print("Sweeping the maximum number of stored disjoint paths "
              "(paper: 5)...")
        paths_results = run_max_paths_ablation(config=base,
                                               executor=executor)
        print(format_ablation(paths_results, "max_disjoint_paths"))
        print()

    print("Reading guide: shorter checking intervals and larger path stores "
          "spread traffic over more relays (higher participating-node count, "
          "lower relay-std and worst-case interception) at the price of more "
          "routing control packets.")


if __name__ == "__main__":
    main()
