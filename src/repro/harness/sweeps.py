"""Parameter sweeps over network size with per-size aggregation.

"In these experiments, networks containing up to 100 switches were
simulated.  In each set of simulations, 10 graphs were generated randomly
for each network size."  (Section 4.2; digits OCR-reconstructed.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

from repro.harness.metrics import Aggregate, TrialMetrics, aggregate
from repro.sim.rng import RngRegistry
from repro.workloads.scenario import Scenario

#: Build a scenario for (network size, graph index, per-trial RNG registry).
ScenarioFactory = Callable[[int, int, RngRegistry], Scenario]
#: Run a scenario, producing trial metrics.
TrialRunner = Callable[[Scenario], TrialMetrics]


@dataclass
class SweepRow:
    """Aggregated metrics for one network size."""

    size: int
    trials: List[TrialMetrics]

    def agg(self, metric: Callable[[TrialMetrics], float]) -> Aggregate:
        return aggregate(metric(t) for t in self.trials)

    @property
    def computations_per_event(self) -> Aggregate:
        return self.agg(lambda t: t.computations_per_event)

    @property
    def floodings_per_event(self) -> Aggregate:
        return self.agg(lambda t: t.floodings_per_event)

    @property
    def convergence_rounds(self) -> Aggregate:
        return self.agg(lambda t: t.convergence_rounds)

    @property
    def all_agreed(self) -> bool:
        return all(t.agreed for t in self.trials)


def sweep(
    sizes: Sequence[int],
    graphs_per_size: int,
    scenario_factory: ScenarioFactory,
    runner: TrialRunner,
    seed: int = 0,
) -> List[SweepRow]:
    """Run ``graphs_per_size`` random-graph trials at each network size.

    Each (size, graph index) pair gets an independent RNG registry derived
    from ``seed``, so trials are reproducible individually and the sweep is
    reproducible as a whole.
    """
    rows: List[SweepRow] = []
    root = RngRegistry(seed)
    for size in sizes:
        trials: List[TrialMetrics] = []
        for g in range(graphs_per_size):
            registry = root.fork(f"size={size}/graph={g}")
            scenario = scenario_factory(size, g, registry)
            trials.append(runner(scenario))
        rows.append(SweepRow(size, trials))
    return rows
