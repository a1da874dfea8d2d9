"""repro: a reproduction of the D-GMC multipoint-connection protocol.

Implements Huang & McKinley, *A Lightweight Protocol for Multipoint
Connections under Link-State Routing* (ICDCS 1996), together with every
substrate the paper depends on: a process-oriented discrete-event
simulation kernel (:mod:`repro.sim`), a network/topology model
(:mod:`repro.topo`), an OSPF-like link-state unicast substrate
(:mod:`repro.lsr`), multicast tree algorithms (:mod:`repro.trees`), the
D-GMC protocol itself (:mod:`repro.core`), the MOSPF / brute-force / CBT
baselines (:mod:`repro.baselines`), workload generators
(:mod:`repro.workloads`), and the experiment harness that measures the
paper's metrics and regenerates its figures (:mod:`repro.harness`).

Quickstart::

    import random
    from repro import DgmcNetwork, ProtocolConfig, JoinEvent
    from repro.topo import waxman_network

    net = waxman_network(30, random.Random(7))
    dgmc = DgmcNetwork(net, ProtocolConfig(compute_time=0.5, per_hop_delay=0.05))
    dgmc.register_symmetric(1)
    dgmc.inject(JoinEvent(3, 1), at=1.0)
    dgmc.inject(JoinEvent(11, 1), at=2.0)
    dgmc.run()
    assert dgmc.agreement(1)[0]
"""

from repro.core import (
    ConnectionSpec,
    ConnectionType,
    DgmcNetwork,
    DgmcSwitch,
    JoinEvent,
    LeaveEvent,
    LinkEvent,
    McLsa,
    McEvent,
    McState,
    NodeEvent,
    ProtocolConfig,
    Role,
    VectorTimestamp,
)
from repro.topo import Network
from repro.core.invariants import VerificationError, verify_deployment

__version__ = "1.0.0"

__all__ = [
    "DgmcNetwork",
    "DgmcSwitch",
    "ProtocolConfig",
    "ConnectionSpec",
    "ConnectionType",
    "Role",
    "JoinEvent",
    "LeaveEvent",
    "LinkEvent",
    "NodeEvent",
    "McLsa",
    "McEvent",
    "McState",
    "VectorTimestamp",
    "Network",
    "verify_deployment",
    "VerificationError",
    "__version__",
]
