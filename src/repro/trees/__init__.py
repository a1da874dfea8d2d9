"""Multicast tree (MC topology) computation algorithms.

The D-GMC protocol is "independent of the particular algorithm used to
compute the MC topology; algorithms for both Steiner trees and
source-rooted trees can be accommodated" (Section 1).  D-GMC runs one
computation per MC type; the other heuristics here are the yardsticks and
baselines the benchmarks compare against:

* :mod:`repro.trees.spt` -- source-rooted shortest-path trees (MOSPF-style),
* :mod:`repro.trees.steiner` -- Steiner heuristics (KMB and pruned-SPT),
* :mod:`repro.trees.dynamic` -- incremental greedy updates (Imase–Waxman
  dynamic Steiner, the paper's Section 3.5 "incremental update"),
* :mod:`repro.trees.cbt` -- core selection and core-based trees (the CBT
  baseline),
* :mod:`repro.trees.algorithms` -- the
  :class:`~repro.trees.algorithms.TopologyAlgorithm` each MC type maps to:
  shared incremental Steiner trees, or per-sender source-rooted trees.
"""

from repro.trees.base import McTopology, MulticastTree, TreeError
from repro.trees.spt import prune_to_receivers, source_rooted_tree
from repro.trees.steiner import kmb_steiner_tree, pruned_spt_steiner_tree
from repro.trees.dynamic import GreedyDynamicSteiner, graft_path, prune_member
from repro.trees.cbt import core_based_tree, select_core
from repro.trees.algorithms import (
    SharedTreeAlgorithm,
    SourceTreesAlgorithm,
    TopologyAlgorithm,
    make_algorithm,
)

__all__ = [
    "MulticastTree",
    "McTopology",
    "TreeError",
    "source_rooted_tree",
    "prune_to_receivers",
    "kmb_steiner_tree",
    "pruned_spt_steiner_tree",
    "GreedyDynamicSteiner",
    "graft_path",
    "prune_member",
    "select_core",
    "core_based_tree",
    "TopologyAlgorithm",
    "SharedTreeAlgorithm",
    "SourceTreesAlgorithm",
    "make_algorithm",
]
