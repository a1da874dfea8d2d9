"""Tests for the systematic state-space explorer (repro.stress).

Covers the three properties the methodology rests on:

* canonicalization -- symmetric interleavings collapse to one canonical
  state, distinct states never do, and replays are bit-identical;
* exploration -- the shipped protocol survives exhaustive 3-switch
  exploration with zero counterexamples, while each deviation knob
  (ablating the M vector, ablating degraded-tree repair) yields a
  counterexample within the same budget;
* minimization -- a minimized schedule still violates, and removing any
  single step makes the violation disappear (1-minimality).
"""

from __future__ import annotations

import pytest

from repro.stress import (
    StressExecutor,
    StressOptions,
    explore,
    minimize_schedule,
    replay_violates,
)
from repro.workloads.stress import get_scenario


def _fresh(scenario, **overrides) -> StressExecutor:
    return StressExecutor(scenario, scenario.make_config(**overrides))


class TestCanonicalKey:
    def test_fresh_executors_agree(self):
        sc = get_scenario("membership-race")
        assert _fresh(sc).canonical_key() == _fresh(sc).canonical_key()

    def test_replay_is_deterministic(self):
        sc = get_scenario("membership-race")
        schedule = [("event", 0), ("advance",), ("event", 1)]
        a, b = _fresh(sc), _fresh(sc)
        a.replay(schedule)
        b.replay(schedule)
        assert a.canonical_key() == b.canonical_key()

    def test_commuting_deliveries_collapse(self):
        """Two pending LSAs to different switches commute: delivering
        them in either order reaches the same canonical state."""
        sc = get_scenario("membership-race")
        probe = _fresh(sc)
        probe.replay([("event", 0), ("advance",)])
        by_seq = sorted(probe.transport.pending.items())
        assert len(by_seq) >= 2
        (s1, p1), (s2, p2) = by_seq[0], by_seq[1]
        assert p1.dest != p2.dest  # deliveries genuinely independent
        a, b = _fresh(sc), _fresh(sc)
        a.replay([("event", 0), ("advance",), ("deliver", s1), ("deliver", s2)])
        b.replay([("event", 0), ("advance",), ("deliver", s2), ("deliver", s1)])
        assert a.canonical_key() == b.canonical_key()

    def test_distinct_states_differ(self):
        sc = get_scenario("membership-race")
        probe = _fresh(sc)
        probe.replay([("event", 0), ("advance",)])
        seq = min(probe.transport.pending)
        full = _fresh(sc)
        full.replay([("event", 0), ("advance",), ("deliver", seq)])
        partial = _fresh(sc)
        partial.replay([("event", 0), ("advance",)])
        assert full.canonical_key() != partial.canonical_key()
        assert _fresh(sc).canonical_key() != partial.canonical_key()

    def test_drop_and_deliver_differ(self):
        sc = get_scenario("membership-race")
        probe = StressExecutor(sc, sc.make_config(), loss_branching=True)
        probe.replay([("event", 0), ("advance",)])
        seq = min(probe.transport.pending)
        delivered = StressExecutor(sc, sc.make_config(), loss_branching=True)
        delivered.replay([("event", 0), ("advance",), ("deliver", seq)])
        dropped = StressExecutor(sc, sc.make_config(), loss_branching=True)
        dropped.replay([("event", 0), ("advance",), ("drop", seq)])
        assert delivered.canonical_key() != dropped.canonical_key()


def test_advance_is_offered_for_a_zero_delay_entry_alone():
    """Zero-delay work lives in the kernel's current-instant FIFO, not the
    heap; an executor holding nothing else must still offer ``advance``."""
    probe = _fresh(get_scenario("membership-race"))
    assert ("advance",) not in probe.enabled_steps()
    ran = []
    probe.sim.schedule(0.0, lambda: ran.append(probe.sim.now))
    assert ("advance",) in probe.enabled_steps()
    assert not probe.quiescent()
    probe.apply(("advance",))
    assert ran == [probe.sim.now]
    assert ("advance",) not in probe.enabled_steps()


def test_pending_seqs_after_one_flood_are_the_interchange_format():
    """One flood parks one send per destination, in id order, with
    consecutive seqs -- the numbers the committed counterexamples
    (tests/data/stress/*.json) name in their ``deliver`` steps."""
    probe = _fresh(get_scenario("membership-race"))
    probe.replay([("event", 0), ("advance",)])
    pending = probe.transport.pending
    assert [(seq, p.src, p.dest) for seq, p in pending.items()] == [(5, 0, 1), (6, 0, 2)]


class TestExploration:
    @pytest.mark.parametrize("name", ["membership-race", "degraded-repair"])
    def test_shipped_protocol_exhausts_clean(self, name):
        report = explore(get_scenario(name), StressOptions())
        assert report.exhaustive and not report.budget_hit
        assert report.ok, [ce.detail for ce in report.counterexamples]
        assert report.states_explored > 0
        assert report.terminal_states > 0

    @pytest.mark.parametrize(
        "name, budget, states, terminals, transitions",
        [
            ("membership-race", None, 286, 3, 3918),
            ("degraded-repair", None, 247, 1, 4375),
            ("triple-conflict", 5000, 180, 3, 5000),
        ],
    )
    def test_state_space_is_pinned(self, name, budget, states, terminals, transitions):
        """The three CI scenarios reach exactly the states they reached
        under the dense-tuple stamps (triple-conflict: in its first 5000
        transitions of DFS order).  Dedup rides on ``McState.canonical()``
        and the canonical LSA payloads, so a stamp representation that
        split or merged states -- a stored zero, an unstable hash, a
        sorted-vs-unsorted key -- would move these counts."""
        options = StressOptions() if budget is None else StressOptions(max_transitions=budget)
        report = explore(get_scenario(name), options)
        assert report.ok
        assert report.exhaustive == (budget is None)
        assert (report.states_explored, report.terminal_states, report.transitions) == (
            states, terminals, transitions,
        )

    def test_m_vector_ablation_finds_agreement_violation(self):
        report = explore(
            get_scenario("membership-race"),
            StressOptions(config_overrides={"ablate_member_stamp": True}),
        )
        assert not report.ok
        ce = report.counterexamples[0]
        assert ce.invariant == "agreement"
        assert ce.minimized
        assert ce.config == {"ablate_member_stamp": True}

    def test_degraded_repair_ablation_finds_spans_violation(self):
        report = explore(
            get_scenario("degraded-repair"),
            StressOptions(config_overrides={"ablate_degraded_repair": True}),
        )
        assert not report.ok
        assert report.counterexamples[0].invariant == "spans"

    @pytest.mark.parametrize("strategy", ["bfs", "guided"])
    def test_other_strategies_find_the_same_race(self, strategy):
        report = explore(
            get_scenario("membership-race"),
            StressOptions(
                strategy=strategy,
                config_overrides={"ablate_member_stamp": True},
            ),
        )
        assert not report.ok
        assert report.counterexamples[0].invariant == "agreement"

    def test_strategies_explore_the_same_state_space(self):
        """dfs and bfs visit different orders but the same canonical set."""
        dfs = explore(get_scenario("degraded-repair"), StressOptions())
        bfs = explore(
            get_scenario("degraded-repair"), StressOptions(strategy="bfs")
        )
        assert dfs.exhaustive and bfs.exhaustive
        assert dfs.states_explored == bfs.states_explored
        assert dfs.terminal_states == bfs.terminal_states

    def test_budget_truncates_and_reports(self):
        report = explore(
            get_scenario("membership-race"), StressOptions(max_transitions=10)
        )
        assert report.budget_hit
        assert not report.exhaustive
        assert report.transitions <= 10

    def test_depth_bound_truncates_and_reports(self):
        report = explore(
            get_scenario("membership-race"), StressOptions(max_depth=2)
        )
        assert not report.exhaustive
        assert report.max_depth_seen <= 2

    def test_counterexample_stop_is_not_exhaustive(self):
        report = explore(
            get_scenario("membership-race"),
            StressOptions(config_overrides={"ablate_member_stamp": True}),
        )
        assert not report.ok
        assert not report.exhaustive  # stopped at the counterexample cap


class TestMinimizer:
    def _find_violation(self):
        scenario = get_scenario("membership-race")
        overrides = {"ablate_member_stamp": True}
        report = explore(
            scenario,
            StressOptions(config_overrides=overrides, minimize=False),
        )
        assert not report.ok
        return scenario, overrides, report.counterexamples[0]

    def test_minimized_still_violates(self):
        scenario, overrides, ce = self._find_violation()
        minimized = minimize_schedule(
            scenario, ce.schedule, config_overrides=overrides,
            invariant=ce.invariant,
        )
        assert len(minimized) <= len(ce.schedule)
        assert replay_violates(
            scenario, minimized, config_overrides=overrides,
            invariant=ce.invariant,
        )

    def test_minimized_is_1_minimal(self):
        scenario, overrides, ce = self._find_violation()
        minimized = minimize_schedule(
            scenario, ce.schedule, config_overrides=overrides,
            invariant=ce.invariant,
        )
        for i in range(len(minimized)):
            trial = minimized[:i] + minimized[i + 1 :]
            assert not replay_violates(
                scenario, trial, config_overrides=overrides,
                invariant=ce.invariant,
            ), f"removing step {i} ({minimized[i]}) should break the repro"

    def test_non_violating_schedule_returned_unchanged(self):
        scenario = get_scenario("membership-race")
        schedule = [("event", 0), ("event", 1)]
        assert not replay_violates(scenario, schedule)
        assert minimize_schedule(scenario, schedule) == schedule
