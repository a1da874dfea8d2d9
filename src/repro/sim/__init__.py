"""Process-oriented discrete-event simulation kernel.

The paper's simulator was CSIM (Schwetman, "CSIM: A C-based,
process-oriented simulation language").  This package keeps the part of
that vocabulary the protocol models reach, all in
:mod:`repro.sim.kernel` (whose docstring states the dispatch-order
contract):

* :class:`Simulator` -- the event heap and simulated clock,
* :class:`Process` -- a generator-driven process,
* :class:`Facility` -- a single server with a FIFO wait queue,

plus :class:`~repro.sim.rng.RngRegistry` -- named, independently seeded
random streams for reproducible experiments.

A process body is a plain Python generator that yields :class:`Hold` or
``facility.request()``; helper generators compose with ``yield from``::

    sim = Simulator()
    cpu = Facility(sim)

    def job(name):
        yield cpu.request()    # wait for the single server
        yield Hold(1.5)        # service time
        cpu.release()
        print(sim.now, name)

    sim.spawn(job("first"))
    sim.spawn(job("second"))
    sim.run(until=10.0)
"""

from repro.sim.kernel import (
    Facility,
    Hold,
    Process,
    SimulationError,
    Simulator,
)
from repro.sim.rng import RngRegistry

__all__ = [
    "Simulator",
    "SimulationError",
    "Process",
    "Hold",
    "Facility",
    "RngRegistry",
]
