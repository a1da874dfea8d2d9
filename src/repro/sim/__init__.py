"""Process-oriented discrete-event simulation kernel.

The paper's simulator was CSIM (Schwetman, "CSIM: A C-based,
process-oriented simulation language").  This package keeps the part of
that vocabulary the protocol models reach, all in
:mod:`repro.sim.kernel` (whose docstring states the dispatch-order
contract):

* :class:`Simulator` -- the event heap and simulated clock,
* :class:`Process` -- a generator-driven process,
* :class:`Mailbox` -- a FIFO message queue with one blocking receiver,
* :class:`Facility` -- a single server with a FIFO wait queue,

plus :class:`~repro.sim.rng.RngRegistry` -- named, independently seeded
random streams for reproducible experiments.

A process body is a plain Python generator that yields :class:`Hold`,
:class:`Receive` or ``facility.request()``; helper generators compose
with ``yield from``::

    sim = Simulator()
    box = Mailbox(sim)

    def server():
        while True:
            msg = yield Receive(box)
            yield Hold(1.5)        # service time
            print(sim.now, msg)

    sim.spawn(server())
    box.send("hello")
    sim.run(until=10.0)
"""

from repro.sim.kernel import (
    Facility,
    Hold,
    Mailbox,
    Process,
    Receive,
    SimulationError,
    Simulator,
)
from repro.sim.rng import RngRegistry

__all__ = [
    "Simulator",
    "SimulationError",
    "Process",
    "Hold",
    "Receive",
    "Mailbox",
    "Facility",
    "RngRegistry",
]
