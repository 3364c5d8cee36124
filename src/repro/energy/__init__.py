"""Energy & cost-efficiency subsystem.

The paper's related-work section notes that BigDataBench extends YCSB
with an energy-consumption metric; García-Recuero's HBase study
(arXiv:1509.02640) shows consistency level and replication factor have
first-order energy cost.  This package prices the simulated testbed the
same way:

- :mod:`repro.energy.power` — the per-node power model: utilization
  draws (CPU / disk / NIC) plus a lazy power-state machine
  (active / DVFS P-state / deep sleep) whose wake transitions cost
  deterministic sim-time latency;
- :mod:`repro.energy.meter` — :class:`EnergyMeter` integrates the model
  over a measured window into an :class:`EnergyReport` (joules by
  component, joules/op), tolerating nodes joining mid-run;
- :mod:`repro.energy.cost` — :func:`~repro.energy.cost.price` prices a
  report in dollars ($/kWh + per-instance-hour), yielding $/Mops.
"""
