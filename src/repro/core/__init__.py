"""The D-GMC protocol: the paper's primary contribution.

D-GMC (Distributed Generic Multipoint Connection protocol) constructs and
maintains multipoint connections under link-state routing.  Switches that
detect events compute new MC topologies locally and flood them as
*proposals* in MC LSAs; vector timestamps arbitrate between concurrent,
possibly inconsistent proposals.

Layout mirrors the paper:

* :mod:`repro.core.timestamp` -- the n-tuple timestamps and their partial
  order (Section 3, "Timestamps"),
* :mod:`repro.core.lsa` -- the MC LSA tuple ``(S, F, V, G, P, T)``
  (Section 3.1),
* :mod:`repro.core.mc` -- connection types, membership roles, specs,
* :mod:`repro.core.state` -- per-(switch, MC) state: R / E / C timestamps,
  member list, make_proposal_flag, installed topology (Section 3.2),
* :mod:`repro.core.events` -- join / leave / link event descriptions,
* :mod:`repro.core.switch` -- the switch entity hosting the two protocol
  routines ``EventHandler()`` (Figure 4) and ``ReceiveLSA()`` (Figure 5),
* :mod:`repro.core.protocol` -- the network-wide protocol instance wiring
  switches, flooding fabric, unicast routers, and metrics together,
* :mod:`repro.core.invariants` -- the correctness contract: every named
  invariant, stated once, behind one entry function every harness calls.
"""

from repro.core.timestamp import VectorTimestamp
from repro.core.lsa import McEvent, McLsa
from repro.core.mc import ConnectionSpec, ConnectionType, Role
from repro.core.state import McState
from repro.core.events import JoinEvent, LeaveEvent, LinkEvent, MemberEvent, NodeEvent
from repro.core.switch import DgmcSwitch
from repro.core.invariants import check_agreement
from repro.core.protocol import DgmcNetwork, ProtocolConfig

__all__ = [
    "check_agreement",
    "VectorTimestamp",
    "McLsa",
    "McEvent",
    "ConnectionType",
    "ConnectionSpec",
    "Role",
    "McState",
    "JoinEvent",
    "LeaveEvent",
    "LinkEvent",
    "NodeEvent",
    "MemberEvent",
    "DgmcSwitch",
    "DgmcNetwork",
    "ProtocolConfig",
]
