"""Live asyncio runtime: D-GMC switches over real UDP sockets.

This package is the second execution backend next to the discrete-event
simulator.  The same protocol logic (:class:`repro.core.switch.DgmcSwitch`,
:class:`repro.lsr.router.UnicastRouter`) runs as asyncio hosts exchanging
:mod:`repro.core.wire`-encoded LSAs over loopback UDP:

* :mod:`repro.net.transport` -- :class:`~repro.net.transport.UdpTransport`,
  the datagram implementation of the :class:`repro.lsr.flooding.Transport`
  seam (ack/retransmit, dedup, fault injection),
* :mod:`repro.net.frames` -- the DATA/ACK datagram framing,
* :mod:`repro.net.faults` -- seeded loss / reorder / delay injection,
* :mod:`repro.net.host` -- :class:`~repro.net.host.LiveSwitch`, one
  protocol host,
* :mod:`repro.net.fabric` -- :class:`~repro.net.fabric.LiveFabric`, boots
  N switches and drives a workload to quiescence,
* :mod:`repro.net.resync` -- hello-based failure detection and the
  neighbor database-exchange (resync) protocol,
* :mod:`repro.net.chaos` -- the seeded crash/partition/churn soak harness,
* :mod:`repro.net.equiv` -- the simulated-vs-live equivalence harness.

The dependency runs one way: this package imports the protocol stack
(``repro.core``, ``repro.lsr``, ``repro.sim``), which imports nothing from
here at any depth (``tests/test_layering.py``); the named invariants chaos
and the equivalence harness check live in :mod:`repro.core.invariants`.
Import names from the submodule that defines them; the package itself
imports none.
"""
