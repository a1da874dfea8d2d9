"""The topology computation of each MC type, behind one interface.

D-GMC is "independent of the particular algorithm used to compute the MC
topology".  A :class:`TopologyAlgorithm` maps (network image, member list
with roles, previously installed topology) to a new
:class:`~repro.trees.base.McTopology`:

* :class:`SharedTreeAlgorithm` -- one shared Steiner tree over the member
  set (symmetric and receiver-only MCs), kept by Section 3.5's
  incremental updates (:class:`~repro.trees.dynamic.GreedyDynamicSteiner`),
* :class:`SourceTreesAlgorithm` -- one source-rooted shortest-path tree per
  sender (asymmetric MCs, MOSPF-style).

The connection type alone picks the computation, and both are stateless:
:func:`make_algorithm` hands every switch the same instance.
Determinism is required: all switches computing on the same image and
member list must produce equal topologies (value equality of
:class:`McTopology`), which every implementation here guarantees.

A local image may be partitioned (a failed link or switch the rest of the
network has not repaired around), and the paper leaves partitions for
further study; a computation must still not fail there.  Each one serves
the members a single component holds -- :func:`dominant_members` for a
shared tree, :func:`reachable_members` per sender -- and both group
members by the image's component labels
(:func:`~repro.lsr.spf.component_labels`), which a cached image computes
once per content.  So a computation pays for its membership, not for a
walk of the image.
"""

from __future__ import annotations

import abc
from typing import Dict, Mapping, Optional

from repro.lsr.spf import component_labels
from repro.trees.base import McTopology, MulticastTree
from repro.trees.dynamic import GreedyDynamicSteiner
from repro.trees.spt import source_rooted_tree

#: Membership roles.  A symmetric member holds both.
SENDER = "sender"
RECEIVER = "receiver"

#: switch id -> set of roles
MemberRoles = Mapping[int, frozenset]


class TopologyAlgorithm(abc.ABC):
    """Strategy interface for MC topology computation."""

    @abc.abstractmethod
    def compute(
        self,
        adj: Mapping[int, Mapping[int, float]],
        members: MemberRoles,
        previous: Optional[McTopology],
    ) -> McTopology:
        """Return the new MC topology.

        ``adj`` is the switch's network image, ``members`` the member list
        with roles, ``previous`` the currently installed topology (enables
        incremental updates) or ``None``.
        """


def reachable_members(
    adj: Mapping[int, Mapping[int, float]],
    members: frozenset,
    anchor: Optional[int] = None,
) -> frozenset:
    """Members in the same component as ``anchor`` (default: smallest member).

    Network partitions are beyond the paper's protocol ("the ability of
    the protocol to survive [...] network partitioning remains for further
    study"), but topology computation must not fail when the local image
    is partitioned: each partition deterministically serves the members it
    can reach, anchored at the smallest member id present.  An anchor
    absent from the image reaches only itself.
    """
    if not members:
        return members
    if anchor is None:
        anchor = min(members)
    labels = component_labels(adj)
    label = labels.get(anchor)
    if label is None:
        return frozenset(m for m in members if m == anchor)
    return frozenset(m for m in members if labels.get(m) == label)


def dominant_members(
    adj: Mapping[int, Mapping[int, float]], members: frozenset
) -> frozenset:
    """The largest member group that is mutually connected.

    Shared trees use this instead of anchoring at ``min(members)``: when a
    switch dies (a "nodal event") its ghost membership lingers, and an
    anchor that happens to be the ghost would strand every live member.
    A member absent from the image is a group of its own.  Groups are
    compared by member count, ties broken by smallest member id, so all
    switches pick the same group.

    The members are grouped by the image's component labels
    (:func:`~repro.lsr.spf.component_labels`), which a cached image
    computes once per content: the cost per call is the member count,
    not the image.  When every member is in the image under one label (as
    on any connected image), the members are the group: no grouping pass
    runs.
    """
    labels = component_labels(adj)
    shared = set(map(labels.get, members))
    if len(shared) == 1 and None not in shared:
        # The construction the grouping below makes, so the set iterates
        # as it always did.
        return frozenset(sorted(members))
    groups: Dict[int, list] = {}
    # A label is a node of the image, so an absent member's own id keys
    # a group nobody else joins.
    for m in sorted(members):
        groups.setdefault(labels.get(m, m), []).append(m)
    # Groups are in order of smallest member, and max() keeps the first
    # of equal sizes.
    return frozenset(max(groups.values(), key=len, default=()))


def receivers_of(members: MemberRoles) -> frozenset:
    return frozenset(x for x, roles in members.items() if RECEIVER in roles)


def senders_of(members: MemberRoles) -> frozenset:
    return frozenset(x for x, roles in members.items() if SENDER in roles)


class SharedTreeAlgorithm(TopologyAlgorithm):
    """One shared tree spanning every member switch.

    The tree is kept by Section 3.5's incremental update: grafts and prunes
    from the installed tree, rebuilt from scratch when the network broke it
    or it grew too costly (:meth:`GreedyDynamicSteiner.update`).
    """

    _dynamic = GreedyDynamicSteiner()

    def compute(
        self,
        adj: Mapping[int, Mapping[int, float]],
        members: MemberRoles,
        previous: Optional[McTopology],
    ) -> McTopology:
        member_set = dominant_members(adj, frozenset(members))
        if not member_set:
            return McTopology.empty()
        prev_tree = previous.shared_tree if previous is not None else None
        return McTopology.shared(self._dynamic.update(adj, prev_tree, member_set))


class SourceTreesAlgorithm(TopologyAlgorithm):
    """One source-rooted shortest-path tree per sender (asymmetric MCs)."""

    def compute(
        self,
        adj: Mapping[int, Mapping[int, float]],
        members: MemberRoles,
        previous: Optional[McTopology],
    ) -> McTopology:
        receivers = receivers_of(members)
        senders = senders_of(members)
        if not senders or not receivers:
            return McTopology.empty()
        trees: dict[int, MulticastTree] = {}
        for s in sorted(senders):
            # Partition degradation: each sender serves the receivers it
            # can currently reach (see reachable_members).
            reachable = reachable_members(adj, receivers - {s}, anchor=s) - {s}
            trees[s] = source_rooted_tree(adj, s, reachable)
        return McTopology.per_source(trees)


#: One instance per computation: neither holds state between calls.
_SHARED_TREE = SharedTreeAlgorithm()
_ALGORITHMS: Dict[str, TopologyAlgorithm] = {
    "symmetric": _SHARED_TREE,
    "receiver-only": _SHARED_TREE,
    "asymmetric": SourceTreesAlgorithm(),
}


def make_algorithm(connection_type: str) -> TopologyAlgorithm:
    """The topology computation of an MC type, keyed by its name.

    ``"symmetric"`` and ``"receiver-only"`` yield the shared
    :class:`SharedTreeAlgorithm`; ``"asymmetric"`` the shared
    :class:`SourceTreesAlgorithm`.
    """
    try:
        return _ALGORITHMS[connection_type]
    except KeyError:
        raise ValueError(f"unknown connection type {connection_type!r}") from None
