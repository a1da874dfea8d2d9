"""Tree and topology value objects shared by all algorithms.

A :class:`MulticastTree` is an immutable set of undirected edges plus the
member set it was built for.  A :class:`McTopology` is the complete
"topological description of the MC" carried in a proposal LSA: for shared
trees (symmetric and receiver-only MCs) it holds one tree under the key
``SHARED``; for asymmetric MCs it maps each sender to its source-rooted
tree.  Both are hashable values, so proposals compare by content.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

Edge = Tuple[int, int]

#: Key under which a shared (non-source-specific) tree is stored.
SHARED = -1


class TreeError(ValueError):
    """Raised when a tree violates a structural requirement."""


def canonical_edge(u: int, v: int) -> Edge:
    """Undirected edge as a sorted tuple."""
    return (u, v) if u <= v else (v, u)


def canonical_edges(edges: Iterable[Edge]) -> FrozenSet[Edge]:
    return frozenset(canonical_edge(u, v) for u, v in edges)


@dataclass(frozen=True)
class MulticastTree:
    """An undirected tree (or forest) spanning an MC's members.

    ``edges`` are canonical sorted tuples; ``members`` is the member set
    the tree was computed for; ``root`` is the source for source-rooted
    trees and ``None`` for shared trees.
    """

    edges: FrozenSet[Edge]
    members: FrozenSet[int]
    root: Optional[int] = None

    @staticmethod
    def build(
        edges: Iterable[Edge], members: Iterable[int], root: Optional[int] = None
    ) -> "MulticastTree":
        return MulticastTree(canonical_edges(edges), frozenset(members), root)

    @staticmethod
    def empty(members: Iterable[int] = (), root: Optional[int] = None) -> "MulticastTree":
        return MulticastTree(frozenset(), frozenset(members), root)

    def nodes(self) -> FrozenSet[int]:
        """All switches touched by the tree (members included even if isolated)."""
        touched = {x for e in self.edges for x in e}
        touched.update(self.members)
        if self.root is not None:
            touched.add(self.root)
        return frozenset(touched)

    def adjacency(self) -> Mapping[int, Tuple[int, ...]]:
        """Neighbours per node, in sorted-edge order (memoised, read-only)."""
        return self._adjacency

    @cached_property
    def _adjacency(self) -> Mapping[int, Tuple[int, ...]]:
        adj: Dict[int, list[int]] = {}
        for u, v in sorted(self.edges):
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        return MappingProxyType({x: tuple(nbrs) for x, nbrs in adj.items()})

    def __getstate__(self) -> Dict[str, object]:
        # Copies and pickles carry the fields only: a read-only mapping
        # does not pickle, and the memo rebuilds on first use.
        return {name: getattr(self, name) for name in ("edges", "members", "root")}

    def degree(self, node: int) -> int:
        return sum(1 for e in self.edges if node in e)

    def cost(self, weights: Mapping[Edge, float]) -> float:
        """Total edge cost under ``weights`` (keyed by canonical edge)."""
        return sum(weights[e] for e in self.edges)

    def is_tree(self) -> bool:
        """True when the edge set is acyclic and connected (ignoring members)."""
        if not self.edges:
            return True
        adj = self.adjacency()
        nodes = list(adj)
        seen = {nodes[0]}
        stack = [(nodes[0], None)]
        while stack:
            node, came_from = stack.pop()
            for nbr in adj[node]:
                if nbr == came_from:
                    came_from = None  # consume one back-edge (parallel-free)
                    continue
                if nbr in seen:
                    return False
                seen.add(nbr)
                stack.append((nbr, node))
        return len(seen) == len(nodes)

    def spans(self, members: Iterable[int]) -> bool:
        """True when every member is connected into one component of the tree.

        A single member with no edges counts as spanned (trivial tree).
        """
        members = set(members)
        if len(members) <= 1:
            return True
        adj = self.adjacency()
        start = next(iter(members))
        if start not in adj:
            return False
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for nbr in adj.get(node, ()):
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        return members <= seen

    def validate(self, members: Optional[Iterable[int]] = None) -> None:
        """Raise :class:`TreeError` unless this is a tree spanning ``members``."""
        if not self.is_tree():
            raise TreeError("edge set contains a cycle or is disconnected")
        target = self.members if members is None else frozenset(members)
        if not self.spans(target):
            raise TreeError(f"tree does not span members {sorted(target)}")

    def with_members(self, members: Iterable[int]) -> "MulticastTree":
        return MulticastTree(self.edges, frozenset(members), self.root)

    def __len__(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MulticastTree(|edges|={len(self.edges)}, "
            f"members={sorted(self.members)}, root={self.root})"
        )


@dataclass(frozen=True)
class McTopology:
    """The complete topological description of an MC, as carried in LSAs.

    ``trees`` maps ``SHARED`` (for symmetric / receiver-only MCs) or a
    sender id (for asymmetric MCs) to a :class:`MulticastTree`.
    """

    trees: Tuple[Tuple[int, MulticastTree], ...]

    @staticmethod
    def shared(tree: MulticastTree) -> "McTopology":
        return McTopology(((SHARED, tree),))

    @staticmethod
    def per_source(trees: Mapping[int, MulticastTree]) -> "McTopology":
        return McTopology(tuple(sorted(trees.items())))

    @staticmethod
    def empty() -> "McTopology":
        return McTopology(())

    def tree_map(self) -> Dict[int, MulticastTree]:
        return dict(self.trees)

    @property
    def shared_tree(self) -> Optional[MulticastTree]:
        return self.tree_map().get(SHARED)

    def all_edges(self) -> FrozenSet[Edge]:
        """Every edge of every tree (memoised: a topology is immutable)."""
        return self._all_edges

    def edge_nodes(self) -> FrozenSet[int]:
        """Every switch that some tree edge touches (memoised)."""
        return self._edge_nodes

    @cached_property
    def _all_edges(self) -> FrozenSet[Edge]:
        edges: set[Edge] = set()
        for _, tree in self.trees:
            edges |= tree.edges
        return frozenset(edges)

    @cached_property
    def _edge_nodes(self) -> FrozenSet[int]:
        return frozenset(x for edge in self._all_edges for x in edge)

    def spans(self, members: Iterable[int]) -> bool:
        """True when every constituent tree spans ``members``.

        A topology that fails this is *degraded*: it was computed while
        part of the membership was unreachable (partition, crashed
        switch) and serves only the dominant component.  An empty
        topology spans only an empty-or-singleton membership.
        """
        member_set = frozenset(members)
        if not self.trees:
            return len(member_set) <= 1
        return all(tree.spans(member_set) for _, tree in self.trees)

    def total_cost(self, weights: Mapping[Edge, float]) -> float:
        return sum(tree.cost(weights) for _, tree in self.trees)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        keys = [("shared" if k == SHARED else k) for k, _ in self.trees]
        return f"McTopology(keys={keys})"


def edge_weights(adj: Mapping[int, Mapping[int, float]]) -> Dict[Edge, float]:
    """Canonical-edge weight map from an adjacency view."""
    weights: Dict[Edge, float] = {}
    for u, nbrs in adj.items():
        for v, w in nbrs.items():
            weights[canonical_edge(u, v)] = w
    return weights
