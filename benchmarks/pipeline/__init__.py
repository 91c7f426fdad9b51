"""The pipeline benchmark: one ledger for compile, validate, serve and run.

``python -m benchmarks.pipeline run --workload W --seed S`` drives one of
four workloads through the public entry points of ``repro`` and prints
every end-to-end metric; ``--trace 1`` runs the same workload with
outside-in spans around the calls into each layer and prints per-layer
self times instead.  ``python -m benchmarks.pipeline compare`` decides,
from repeated runs of a parent and a change, which metrics moved.  See
``README.md`` in this directory for the metrics, workloads and commands.
"""
