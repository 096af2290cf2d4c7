"""End-to-end + per-layer benchmark of the URHunter reproduction.

``python -m benchmarks.e2e`` runs the full set (four workloads, untraced
repetitions plus one traced run each) and writes ``BENCH_e2e.json``;
``python -m benchmarks.e2e --workload NAME --seed N --seconds S --trace
0|1`` is the single-run form ``BENCHMARK.json`` names; ``python -m
benchmarks.e2e compare A.json B.json`` judges two result files.  See
``README.md`` in this directory.
"""
