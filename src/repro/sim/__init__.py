"""Seeded random-number streams shared by the simulator and the runtime.

Every stochastic component draws from its own named stream derived from a
single root seed (:class:`RngStreams`), so a run is reproducible from one
integer.  The simulator itself has no event engine: it advances one
scheduling period at a time (:meth:`repro.core.system.StreamingSystem.step_round`).
"""

from repro.sim.rng import RngStreams, spawn_generator

__all__ = [
    "RngStreams",
    "spawn_generator",
]
