"""Systematic search over event/delivery interleavings (STRESS-style).

Three pluggable strategies over the transition system that
:class:`~repro.stress.executor.StressExecutor` exposes:

* ``dfs`` (default) -- exhaustive depth-first search with canonical-state
  deduplication.  Backtracking re-materializes the parent state by
  replaying its schedule from a fresh executor (stateless search: the
  protocol stack contains running generators, so states are *replayed*,
  never copied).
* ``bfs`` -- exhaustive breadth-first search; finds shallowest violations
  first at the cost of keeping the frontier's schedules in memory.
* ``guided`` -- the practical adaptation of STRESS *backward search*:
  states are expanded best-first under a violation-proximity score
  derived from the invariant predicates themselves (member-view
  divergence, C-stamp divergence, reordered pending LSAs, in-flight
  computations).  Where true backward search would enumerate predecessors
  of a violating state -- impossible against a real implementation whose
  transition relation is only executable forward -- the guided strategy
  walks forward while greedily descending the same distance-to-violation
  metric, and is used with a transition budget on the 4-5-switch
  scenarios where exhaustive search is out of reach.

All strategies dedupe on :meth:`StressExecutor.canonical_key`, count
every applied transition (replays included) against ``max_transitions``,
and report whether the exploration was *exhaustive* (frontier drained
within budget) -- the property the CI gate asserts for 3-switch runs.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.invariants import Violation
from repro.obs import flight
from repro.stress.executor import InfeasibleStep, StressExecutor
from repro.stress.minimize import minimize_schedule
from repro.stress.model import (
    Counterexample,
    Step,
    StressScenario,
    describe_step,
)

STRATEGIES = ("dfs", "bfs", "guided")


@dataclass
class StressOptions:
    """Everything one exploration run is tuned by."""

    strategy: str = "dfs"
    #: Hard budget on applied transitions, replays included.
    max_transitions: int = 250_000
    #: Depth bound on schedules (None = unbounded; exhaustiveness is only
    #: claimed when no expansion was suppressed by the bound).
    max_depth: Optional[int] = None
    loss_branching: bool = False
    max_drops: int = 1
    minimize: bool = True
    #: ProtocolConfig field overrides (e.g. the deviation knobs).
    config_overrides: Dict[str, bool] = field(default_factory=dict)


@dataclass
class StressReport:
    """Outcome of one exploration."""

    scenario: str
    strategy: str
    states_explored: int = 0
    pruned: int = 0
    transitions: int = 0
    terminal_states: int = 0
    max_depth_seen: int = 0
    exhaustive: bool = False
    budget_hit: bool = False
    counterexamples: List[Counterexample] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def summary_lines(self) -> List[str]:
        lines = [
            f"stress {self.scenario}: strategy={self.strategy} "
            f"states={self.states_explored} pruned={self.pruned} "
            f"transitions={self.transitions}",
            f"terminal states: {self.terminal_states}  "
            f"max depth: {self.max_depth_seen}  "
            f"exhaustive: {self.exhaustive}"
            + ("  (transition budget hit)" if self.budget_hit else ""),
        ]
        for ce in self.counterexamples:
            tag = "minimized, " if ce.minimized else ""
            lines.append(
                f"  COUNTEREXAMPLE {ce.invariant} "
                f"({tag}{len(ce.schedule)} steps): {ce.detail}"
            )
        if not self.counterexamples:
            lines.append("  no counterexamples")
        return lines


class _BudgetExceeded(Exception):
    pass


class _Search:
    """Shared bookkeeping for every strategy."""

    def __init__(self, scenario: StressScenario, options: StressOptions):
        self.scenario = scenario
        self.options = options
        self.report = StressReport(scenario.name, options.strategy)
        self.visited: Set[Tuple] = set()
        self.truncated = False

    def fresh(self) -> StressExecutor:
        return StressExecutor(
            self.scenario,
            self.scenario.make_config(**self.options.config_overrides),
            loss_branching=self.options.loss_branching,
            max_drops=self.options.max_drops,
        )

    def apply(self, ex: StressExecutor, step: Step) -> None:
        if self.report.transitions >= self.options.max_transitions:
            self.report.budget_hit = True
            raise _BudgetExceeded
        self.report.transitions += 1
        ex.apply(step)

    def materialize(self, schedule: List[Step]) -> StressExecutor:
        ex = self.fresh()
        for step in schedule:
            self.apply(ex, step)
        return ex

    def record_violation(
        self, schedule: List[Step], violations: List[Violation]
    ) -> None:
        """Record a counterexample (the search stops at the first)."""
        v = violations[0]
        ce = Counterexample(
            scenario=self.scenario.name,
            invariant=v.invariant,
            detail=v.detail,
            schedule=list(schedule),
            config=dict(self.options.config_overrides),
        )
        if self.options.minimize:
            ce.schedule = minimize_schedule(
                self.scenario,
                ce.schedule,
                config_overrides=self.options.config_overrides,
                invariant=ce.invariant,
                loss_branching=self.options.loss_branching,
                max_drops=self.options.max_drops,
            )
            ce.minimized = True
        self.report.counterexamples.append(ce)
        flight.dump_on_violation(
            f"stress-{ce.invariant}",
            {
                "scenario": ce.scenario,
                "invariant": ce.invariant,
                "detail": ce.detail,
                "config_overrides": ce.config,
                "minimized": ce.minimized,
                "schedule": [
                    describe_step(step, self.scenario) for step in ce.schedule
                ],
            },
        )


def _score(ex: StressExecutor) -> int:
    """Violation proximity: how close this state is to breaking agreement.

    The guided strategy's heuristic, derived from the violation
    predicates: count the distinct member views and distinct C stamps
    across switches (agreement distance), pending event LSAs that are
    already stale at their destination (reordering pressure -- the M
    vector's failure mode), and in-flight computations (withdrawal and
    stale-proposal pressure).
    """
    states = ex.states()
    member_views = {
        tuple(sorted((m, tuple(sorted(r))) for m, r in s.members.items()))
        for s in states.values()
    }
    stamps = {s.current_stamp for s in states.values()}
    score = 3 * (len(member_views) - 1) + 2 * (len(stamps) - 1)
    for p in ex.transport.pending.values():
        payload = p.payload
        if hasattr(payload, "timestamp") and hasattr(payload, "source"):
            dest_state = states.get(p.dest)
            if (
                dest_state is not None
                and payload.timestamp[payload.source]
                <= dest_state.received[payload.source]
            ):
                score += 2  # delivering this LSA exercises the stale path
    for sw in ex.dgmc.switches.values():
        score += len(sw.inflight_computes)
    return score


def explore(
    scenario: StressScenario, options: Optional[StressOptions] = None
) -> StressReport:
    """Run one exploration and return its report."""
    options = options or StressOptions()
    if options.strategy not in STRATEGIES:
        raise ValueError(
            f"unknown strategy {options.strategy!r} (choose from {STRATEGIES})"
        )
    search = _Search(scenario, options)
    try:
        if options.strategy == "dfs":
            _explore_dfs(search)
        elif options.strategy == "bfs":
            _explore_bfs(search)
        else:
            _explore_guided(search)
        search.report.exhaustive = not search.truncated
    except _BudgetExceeded:
        search.report.exhaustive = False
    return search.report


def _enter_state(
    search: _Search, ex: StressExecutor, schedule: List[Step]
) -> Tuple[Optional[List[Step]], bool]:
    """Dedup, count, and check one reached state.

    Returns ``(steps_to_expand, stop)``: ``steps_to_expand`` is ``None``
    when the state should not be expanded (seen before, violating,
    terminal, or depth-bounded); ``stop`` ends the whole search.
    """
    report = search.report
    key = ex.canonical_key()
    if key in search.visited:
        report.pruned += 1
        return None, False
    search.visited.add(key)
    report.states_explored += 1
    report.max_depth_seen = max(report.max_depth_seen, len(schedule))
    violations = ex.check_invariants()
    if violations:
        search.record_violation(schedule, violations)
        # Stopping at the counterexample leaves the frontier undrained;
        # never claim exhaustiveness for such a run.
        search.truncated = True
        return None, True
    steps = ex.enabled_steps()
    if not steps:
        report.terminal_states += 1
        return None, False
    if (
        search.options.max_depth is not None
        and len(schedule) >= search.options.max_depth
    ):
        search.truncated = True
        return None, False
    return steps, False


def _explore_dfs(search: _Search) -> None:
    ex: Optional[StressExecutor] = search.fresh()
    path: List[Step] = []
    steps, stop = _enter_state(search, ex, path)
    if stop or steps is None:
        return
    frames: List[deque] = [deque(steps)]
    while frames:
        frame = frames[-1]
        if not frame:
            frames.pop()
            if path:
                path.pop()
            ex = None  # parent state re-materialized lazily on next apply
            continue
        step = frame.popleft()
        if ex is None:
            ex = search.materialize(path)
        try:
            search.apply(ex, step)
        except InfeasibleStep:  # pragma: no cover - enabled steps only
            ex = None
            continue
        path.append(step)
        steps, stop = _enter_state(search, ex, path)
        if stop:
            return
        if steps is None:
            path.pop()
            ex = None
            continue
        frames.append(deque(steps))


def _explore_bfs(search: _Search) -> None:
    ex = search.fresh()
    steps, stop = _enter_state(search, ex, [])
    if stop or steps is None:
        return
    frontier: deque = deque([([], steps)])
    while frontier:
        schedule, steps = frontier.popleft()
        for step in steps:
            ex = search.materialize(schedule)
            try:
                search.apply(ex, step)
            except InfeasibleStep:  # pragma: no cover - enabled steps only
                continue
            child = schedule + [step]
            child_steps, stop = _enter_state(search, ex, child)
            if stop:
                return
            if child_steps is not None:
                frontier.append((child, child_steps))


def _explore_guided(search: _Search) -> None:
    ex = search.fresh()
    steps, stop = _enter_state(search, ex, [])
    if stop or steps is None:
        return
    counter = 0
    # Max-heap on violation proximity; insertion order breaks ties, so
    # the frontier ordering is fully deterministic.
    heap = [(-_score(ex), 0, [], steps)]
    while heap:
        _, _, schedule, steps = heapq.heappop(heap)
        for step in steps:
            ex = search.materialize(schedule)
            try:
                search.apply(ex, step)
            except InfeasibleStep:  # pragma: no cover - enabled steps only
                continue
            child = schedule + [step]
            child_steps, stop = _enter_state(search, ex, child)
            if stop:
                return
            if child_steps is not None:
                counter += 1
                heapq.heappush(
                    heap, (-_score(ex), counter, child, child_steps)
                )
