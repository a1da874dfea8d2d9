"""Tests for incremental (dynamic) Steiner maintenance: graft, prune, policy."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.lsr import spf
from repro.obs import attach
from repro.obs.metrics import REGISTRY
from repro.topo.generators import grid_network, random_connected_network, waxman_network
from repro.topo.graph import Network
from repro.trees.base import MulticastTree, TreeError, edge_weights
from repro.trees.dynamic import REBUILD_TESTS, GreedyDynamicSteiner, graft_path, prune_member
from repro.trees.steiner import pruned_spt_steiner_tree


def grid_adj():
    return spf.network_adjacency(grid_network(3, 3))


class TestGraft:
    def test_graft_into_empty_tree(self):
        tree = MulticastTree.empty()
        grown = graft_path(grid_adj(), tree, 4)
        assert grown.members == frozenset({4})
        assert len(grown.edges) == 0

    def test_graft_attaches_by_cheapest_path(self):
        adj = grid_adj()
        tree = MulticastTree.build([(0, 1)], [0, 1])
        grown = graft_path(adj, tree, 2)
        assert grown.edges == frozenset({(0, 1), (1, 2)})

    def test_graft_existing_node_is_noop_on_edges(self):
        adj = grid_adj()
        tree = MulticastTree.build([(0, 1), (1, 2)], [0, 2])
        grown = graft_path(adj, tree, 1)
        assert grown.edges == tree.edges
        assert 1 in grown.members

    def test_graft_unreachable_raises(self):
        adj = {0: {1: 1.0}, 1: {0: 1.0}, 2: {}}
        tree = MulticastTree.build([(0, 1)], [0, 1])
        with pytest.raises(TreeError):
            graft_path(adj, tree, 2)

    def test_graft_may_use_steiner_nodes(self):
        adj = grid_adj()
        tree = MulticastTree.build([(0, 1), (1, 2)], [0, 2])
        grown = graft_path(adj, tree, 7)  # grid center column bottom
        grown.validate([0, 2, 7])
        assert grown.is_tree()


class TestPrune:
    def test_prune_leaf_removes_branch(self):
        adj = grid_adj()
        tree = MulticastTree.build([(0, 1), (1, 2), (2, 5), (5, 8)], [0, 2, 8])
        pruned = prune_member(tree, 8)
        assert pruned.edges == frozenset({(0, 1), (1, 2)})
        assert pruned.members == frozenset({0, 2})

    def test_prune_relay_keeps_edges(self):
        tree = MulticastTree.build([(0, 1), (1, 2)], [0, 1, 2])
        pruned = prune_member(tree, 1)
        assert pruned.edges == tree.edges
        assert pruned.members == frozenset({0, 2})

    def test_prune_cascades_through_steiner_chain(self):
        # 0 -1- 1 -2- 2 with members {0, 2}: removing 2 strips both edges
        # past the remaining member.
        tree = MulticastTree.build([(0, 1), (1, 2), (2, 3)], [0, 3])
        pruned = prune_member(tree, 3)
        assert pruned.edges == frozenset()
        assert pruned.members == frozenset({0})

    def test_prune_absent_member_is_noop(self):
        tree = MulticastTree.build([(0, 1)], [0, 1])
        pruned = prune_member(tree, 9)
        assert pruned.edges == tree.edges

    def test_prune_respects_root(self):
        tree = MulticastTree.build([(0, 1)], [0, 1], root=1)
        pruned = prune_member(tree, 1)
        # root 1 stays on the tree even as a non-member leaf
        assert pruned.edges == frozenset({(0, 1)})


def _without_rebuilds(monkeypatch):
    monkeypatch.setattr(GreedyDynamicSteiner, "REBUILD_THRESHOLD", float("inf"))


class TestPolicy:
    def test_first_computation_is_from_scratch(self):
        adj = grid_adj()
        tree = GreedyDynamicSteiner().update(adj, None, frozenset({0, 8}))
        tree.validate([0, 8])
        assert tree == pruned_spt_steiner_tree(adj, {0, 8})

    def test_join_is_incremental(self, monkeypatch):
        _without_rebuilds(monkeypatch)
        adj = grid_adj()
        dyn = GreedyDynamicSteiner()
        tree = dyn.update(adj, None, frozenset({0, 8}))
        tree2 = dyn.update(adj, tree, frozenset({0, 8, 2}))
        tree2.validate([0, 8, 2])
        assert tree2 == graft_path(adj, tree, 2)

    def test_leave_is_incremental(self, monkeypatch):
        _without_rebuilds(monkeypatch)
        adj = grid_adj()
        dyn = GreedyDynamicSteiner()
        tree = dyn.update(adj, None, frozenset({0, 8, 2}))
        tree2 = dyn.update(adj, tree, frozenset({0, 8}))
        tree2.validate([0, 8])
        assert tree2 == prune_member(tree, 2)

    def test_threshold_picks_graft_or_fresh_tree(self):
        # Triangle 0-1-2 with a tail 0-3-4, unit weights.  The installed
        # tree takes the long side 0-1-2; grafting 4 costs 4, the fresh
        # tree 0-2, 0-3-4 costs 3.  The ratio 4/3 stays under the 1.5
        # threshold, so the graft is kept; a 1.0 threshold takes the
        # fresh tree.
        adj = {0: {}, 1: {}, 2: {}, 3: {}, 4: {}}
        for u, v in ((0, 1), (0, 2), (0, 3), (1, 2), (3, 4)):
            adj[u][v] = adj[v][u] = 1.0
        installed = MulticastTree.build([(0, 1), (1, 2)], [0, 2])
        members = frozenset({0, 2, 4})
        dyn = GreedyDynamicSteiner()
        grafted = graft_path(adj, installed, 4)
        fresh = pruned_spt_steiner_tree(adj, members)
        assert grafted.edges == frozenset({(0, 1), (1, 2), (0, 3), (3, 4)})
        assert fresh.edges == frozenset({(0, 2), (0, 3), (3, 4)})
        assert dyn.update(adj, installed, members) == grafted
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(GreedyDynamicSteiner, "REBUILD_THRESHOLD", 1.0)
            assert dyn.update(adj, installed, members) == fresh

    def test_broken_tree_edge_forces_rebuild(self):
        adj = grid_adj()
        dyn = GreedyDynamicSteiner()
        members = frozenset({0, 8})
        tree = dyn.update(adj, None, members)
        # remove an edge the tree uses from the adjacency (link failure)
        u, v = sorted(tree.edges)[0]
        broken = {
            x: {y: w for y, w in nbrs.items() if {x, y} != {u, v}}
            for x, nbrs in adj.items()
        }
        tree2 = dyn.update(broken, tree, members)
        tree2.validate([0, 8])
        assert tree2 == pruned_spt_steiner_tree(broken, members)
        assert (u, v) not in tree2.edges

    def test_empty_membership_returns_empty(self):
        dyn = GreedyDynamicSteiner()
        tree = dyn.update(grid_adj(), None, frozenset())
        assert len(tree.edges) == 0

    def test_tight_threshold_triggers_rebuild(self, monkeypatch):
        # With threshold 1.0 any degradation rebuilds; cost never exceeds
        # the fresh heuristic's.
        monkeypatch.setattr(GreedyDynamicSteiner, "REBUILD_THRESHOLD", 1.0)
        adj = grid_adj()
        weights = edge_weights(adj)
        dyn = GreedyDynamicSteiner()
        members = frozenset({0, 8})
        tree = dyn.update(adj, None, members)
        for new in (2, 6, 4):
            members = members | {new}
            tree = dyn.update(adj, tree, members)
            fresh = pruned_spt_steiner_tree(adj, members)
            assert tree.cost(weights) <= fresh.cost(weights) + 1e-9

    @given(st.integers(4, 20), st.integers(0, 200), st.integers(3, 12))
    @settings(max_examples=25, deadline=None)
    def test_random_join_leave_sequences_stay_valid(self, n, seed, steps):
        rng = random.Random(seed)
        net = random_connected_network(n, rng)
        adj = spf.network_adjacency(net)
        dyn = GreedyDynamicSteiner()
        members = {rng.randrange(n)}
        tree = dyn.update(adj, None, frozenset(members))
        for _ in range(steps):
            absent = [x for x in range(n) if x not in members]
            if absent and (len(members) == 1 or rng.random() < 0.6):
                members.add(rng.choice(absent))
            else:
                members.remove(rng.choice(sorted(members)))
            tree = dyn.update(adj, tree, frozenset(members))
            tree.validate(members)
            assert tree.is_tree()


def edge_weights_update(adj, previous, members):
    """``GreedyDynamicSteiner.update`` as it was: one ``edge_weights(adj)``
    map over the whole image per computation, to check tree edges and to
    price the two trees."""
    threshold = GreedyDynamicSteiner.REBUILD_THRESHOLD
    if not members:
        return MulticastTree.empty()
    if previous is None or not previous.members:
        return pruned_spt_steiner_tree(adj, members)
    weights = edge_weights(adj)
    if any(e not in weights for e in previous.edges):
        return pruned_spt_steiner_tree(adj, members)
    tree = previous
    try:
        for gone in sorted(previous.members - members):
            tree = prune_member(tree, gone)
        for new in sorted(members - previous.members):
            tree = graft_path(adj, tree, new)
    except TreeError:
        return pruned_spt_steiner_tree(adj, members)
    if threshold != float("inf") and len(members) >= 2:
        fresh = pruned_spt_steiner_tree(adj, members)
        if tree.cost(weights) > threshold * fresh.cost(weights):
            return fresh
    return MulticastTree(tree.edges, members, tree.root)


class TestEdgeWeightsFormulation:
    @given(
        st.integers(6, 30), st.integers(0, 10_000), st.integers(4, 16),
        st.sampled_from([1.0, 1.2, 1.5]),
    )
    @settings(max_examples=40, deadline=None)
    def test_update_returns_the_edge_weights_trees(self, n, seed, steps, threshold):
        """Over random Waxman images, join/leave sequences and failures of
        non-bridge links: the same trees, edge for edge and member for member."""
        rng = random.Random(seed)
        net = waxman_network(n, rng)
        dyn = GreedyDynamicSteiner()
        members = {rng.randrange(n)}
        tree = None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(GreedyDynamicSteiner, "REBUILD_THRESHOLD", threshold)
            for _ in range(steps):
                if rng.random() < 0.2:
                    bridges = set(net.bridges())
                    spare = sorted(
                        link.key for link in net.links() if link.key not in bridges
                    )
                    if spare:
                        net.set_link_state(*rng.choice(spare), up=False)
                absent = [x for x in range(n) if x not in members]
                if absent and (len(members) == 1 or rng.random() < 0.6):
                    members.add(rng.choice(absent))
                else:
                    members.remove(rng.choice(sorted(members)))
                adj = net.spf_view()
                new = dyn.update(adj, tree, frozenset(members))
                assert new == edge_weights_update(adj, tree, frozenset(members))
                tree = new


@st.composite
def churn_cases(draw):
    """A seeded Waxman graph and a membership script over it.

    Each step is a member set or ``("down", k)``: fail the ``k``-th
    non-bridge link of the installed tree (mod their count).  The steps
    mix single joins and leaves, runs of several leaves at once (a chained
    subtraction), joins and leaves in one step, and anchor changes (the
    smallest member leaves, or a smaller switch joins)."""
    n = draw(st.integers(8, 30))
    net = waxman_network(n, random.Random(draw(st.integers(0, 10_000))))
    edges = tuple((link.u, link.v, link.delay) for link in net.links())
    members = set(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=4, unique=True)))
    script = [frozenset(members)]
    for _ in range(draw(st.integers(4, 24))):
        kind = draw(st.sampled_from(
            ["join", "join", "leave", "leave", "leaves", "swap", "anchor", "down"]
        ))
        absent = sorted(set(range(n)) - members)
        others = sorted(members - {min(members)})
        if kind == "down":
            script.append(("down", draw(st.integers(0, 50))))
            continue
        if kind == "join" and absent:
            members.add(draw(st.sampled_from(absent)))
        elif kind == "leave" and others:
            members.discard(draw(st.sampled_from(others)))
        elif kind == "leaves" and len(others) >= 2:
            gone = draw(st.lists(st.sampled_from(others), min_size=2, max_size=3, unique=True))
            members -= set(gone)
        elif kind == "swap" and others and absent:
            members.discard(draw(st.sampled_from(others)))
            members.add(draw(st.sampled_from(absent)))
        elif kind == "anchor":
            lower = [x for x in absent if x < min(members)]
            if lower and draw(st.booleans()):
                members.add(draw(st.sampled_from(lower)))
            elif len(members) >= 2:
                members.discard(min(members))
        script.append(frozenset(members))
    return n, edges, tuple(script)


#: A join then a leave whose cost ratio is 1.5 + 2.2e-16: the bound
#: carried through the leave (7/3-ish minus the leaver's 1.1) exceeds the
#: fresh tree's float cost by one rounding, so only the slack makes the
#: bound defer to the build, which rebuilds.
RATIO_AT_THRESHOLD = (
    3,
    ((0, 1, 1.1), (0, 2, 1.3), (1, 2, 0.8500000000000003)),
    (frozenset({0, 1}), frozenset({0, 1, 2}), frozenset({0, 2})),
)


class TestRebuildBound:
    """The rebuild test settled by a content's lower bound returns what
    building the comparison tree every time returns."""

    @given(churn_cases())
    @example(RATIO_AT_THRESHOLD)
    @settings(max_examples=80, deadline=None)
    def test_cached_update_equals_the_always_build_oracle(self, case):
        n, edges, script = case
        net = Network(n)
        for u, v, delay in edges:
            net.add_link(u, v, delay=delay)
        dyn = GreedyDynamicSteiner()
        tree = None
        members = frozenset()
        for step in script:
            if isinstance(step, tuple):
                bridges = set(net.bridges())
                spare = sorted(e for e in tree.edges if e not in bridges) if tree else []
                if spare:
                    net.set_link_state(*spare[step[1] % len(spare)], up=False)
                continue
            members = step
            cached = net.spf_view()
            # The same content as a plain dict, in the same order: no
            # bounds, so every test builds.
            plain = {u: dict(row) for u, row in cached.rows.items()}
            got = dyn.update(cached, tree, members)
            want = dyn.update(plain, tree, members)
            assert got == want
            assert list(got.edges) == list(want.edges)
            tree = got

    def test_ratio_at_threshold_rebuilds(self):
        n, edges, script = RATIO_AT_THRESHOLD
        net = Network(n)
        for u, v, delay in edges:
            net.add_link(u, v, delay=delay)
        dyn = GreedyDynamicSteiner()
        tree = None
        for members in script:
            tree = dyn.update(net.spf_view(), tree, members)
        assert tree.edges == frozenset({(0, 2)})

    def test_counter_reads_bound_settlements_on_a_cached_image_only(self):
        def settled(how):
            return REGISTRY.snapshot()[attach.REBUILD_TESTS + '{settled="%s"}' % how]

        rng = random.Random(5)
        net = waxman_network(40, rng)
        script = [frozenset(rng.sample(range(40), 6))]
        for _ in range(30):
            members = set(script[-1])
            if rng.random() < 0.5 or len(members) < 4:
                members.add(rng.choice(sorted(set(range(40)) - members)))
            else:
                members.discard(rng.choice(sorted(members - {min(members)})))
            script.append(frozenset(members))
        dyn = GreedyDynamicSteiner()
        tests = len(script) - 1
        for image, cached in ((net.spf_view(), True), (spf.network_adjacency(net), False)):
            bound, built = settled("bound"), settled("built")
            tree = None
            for members in script:
                tree = dyn.update(image, tree, members)
            by_bound = settled("bound") - bound
            assert by_bound + settled("built") - built == tests
            # A plain image settles none.
            assert by_bound > tests // 2 if cached else by_bound == 0
        assert REBUILD_TESTS.bound == settled("bound")
