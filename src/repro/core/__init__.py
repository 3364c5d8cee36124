"""Experiment orchestration: the repository's public face.

Compose a cluster, a database, and a YCSB workload into one experiment
cell (:mod:`repro.core.experiment`), run any campaign of the table
(:mod:`repro.core.sweep`), explore seeds for consistency violations
(:mod:`repro.core.explorer`), and render paper-style tables
(:mod:`repro.core.report`).

The dependency points one way: the harness imports the components,
and no component imports :mod:`repro.core`.
"""
