"""Link-state routing (LSR) substrate: the paper's "underlying unicast protocol".

An OSPF-like unicast protocol, built from scratch:

* :mod:`repro.lsr.lsa` -- router LSAs describing a switch's incident links,
* :mod:`repro.lsr.lsdb` -- per-switch link-state database and network image,
* :mod:`repro.lsr.spf` -- Dijkstra shortest-path-first computations,
* :mod:`repro.lsr.spfcache` -- per-image memoization of SPF results, shared
  by every image of one content in a deployment,
* :mod:`repro.lsr.flooding` -- the simulated hop-by-hop flooding fabric,
* :mod:`repro.lsr.router` -- the unicast router entity at each switch.

The D-GMC protocol (``repro.core``) rides on this substrate: its MC LSAs
are flooded through the same fabric, and its topology computations run on
the network image assembled here.
"""

from repro.lsr.lsa import NonMcLsa, RouterLsa
from repro.lsr.lsdb import LinkStateDatabase
from repro.lsr.spf import dijkstra, routing_table, shortest_path
from repro.lsr.spfcache import SpfCache
from repro.lsr.flooding import FloodDelivery, FloodingFabric
from repro.lsr.router import UnicastRouter

__all__ = [
    "RouterLsa",
    "NonMcLsa",
    "LinkStateDatabase",
    "dijkstra",
    "shortest_path",
    "routing_table",
    "SpfCache",
    "FloodingFabric",
    "FloodDelivery",
    "UnicastRouter",
]
