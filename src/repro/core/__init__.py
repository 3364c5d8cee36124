"""Experiment orchestration: the repository's public face.

Compose a cluster, a database, and a YCSB workload into one experiment
cell (:mod:`repro.core.experiment`), run any campaign of the table
(:mod:`repro.core.sweep`), and render paper-style tables
(:mod:`repro.core.report`).
"""
