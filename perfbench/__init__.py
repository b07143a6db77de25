"""End-to-end and per-layer benchmark of the repro pipeline.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; ``BENCHMARK.json`` lists the
workloads and metrics, and :mod:`perfbench.metrics` records which
end-to-end metric each per-layer metric should move.
"""
