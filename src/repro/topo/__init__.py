"""Network topology model and random topology generators.

The paper's network consists of *switches* joined by point-to-point
*links*.  :class:`Network` captures that model;
:mod:`repro.topo.generators` builds the random graphs used by the
simulation study ("10 graphs were generated randomly for each network
size").
"""

from repro.topo.graph import Link, Network
from repro.topo.generators import (
    clustered_network,
    dumbbell_network,
    grid_network,
    random_connected_network,
    ring_network,
    star_network,
    tree_network,
    waxman_network,
)
from repro.topo.validate import TopologyError, validate_network

__all__ = [
    "Network",
    "Link",
    "waxman_network",
    "random_connected_network",
    "grid_network",
    "ring_network",
    "star_network",
    "tree_network",
    "dumbbell_network",
    "clustered_network",
    "validate_network",
    "TopologyError",
]
