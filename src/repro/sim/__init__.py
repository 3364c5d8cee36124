"""Discrete-event simulation kernel.

A compact, dependency-free, simpy-like kernel: an :class:`Environment`
drives generator-based :class:`Process` coroutines through a time-ordered
event queue.  Processes ``yield`` events (timeouts, other processes,
resource requests, composite conditions) and are resumed when those events
trigger.

The kernel is fully deterministic: given the same seed streams
(:mod:`repro.sim.rng`) and the same process creation order, two runs
produce identical schedules.
"""
