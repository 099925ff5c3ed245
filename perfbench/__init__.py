"""End-to-end and per-layer benchmark of the load-balancing engines.

Run it from the repository root::

    python3 perfbench/run.py --workload serial-diffusion --seed 1 --seconds 10 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and which
layer each per-layer metric is expected to move.
"""
