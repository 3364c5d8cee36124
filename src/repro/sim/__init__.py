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

from repro.sim.kernel import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    ModelledFailure,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.resources import Container, PriorityResource, Resource, Store
from repro.sim.rng import RngRegistry
from repro.sim.trace import KernelTracer

__all__ = [
    "AllOf",
    "AnyOf",
    "Container",
    "Environment",
    "Event",
    "Interrupt",
    "KernelTracer",
    "ModelledFailure",
    "PriorityResource",
    "Process",
    "Resource",
    "RngRegistry",
    "SimulationError",
    "Store",
    "Timeout",
]
