"""The repository's layered benchmark for the three theorem drivers.

``perfbench/run.py`` measures one workload in a fresh process (end-to-end
metrics untraced, per-layer metrics under ``--trace 1``);
``perfbench/report.py`` runs every workload and writes the committed
report; ``perfbench/ab.py`` times two checkouts with this same harness
code, alternating which side runs first.  The metric names and units
live in ``BENCHMARK.json`` at the repository root.
"""
