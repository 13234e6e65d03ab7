"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

``python -m benchmarks.suite run --workload W --seed S`` generates the
workload's inputs from the seed, runs it in a fresh exec'd process for a
fixed time, checks every output, and prints every end-to-end metric by
name and unit (the last stdout line is one JSON object).  ``--trace``
instead reports the per-layer ledger, measured by wrapping each layer's
public entry points with the program's own span tracer.  ``aggregate``
and ``compare`` turn the raw per-run files into tables and verdicts.
See ``benchmarks/suite/README.md``.
"""
