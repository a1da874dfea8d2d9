"""Performance metrics of the simulation study (Section 4.1).

"We are interested in the following performance metrics: topology
computations per event, flooding operations per event, and convergence
time.  The first metric reveals the computational overhead incurred by an
MC protocol, the second measures the communication overhead, and the third
represents the protocol's responsiveness to member changes."

* :class:`TrialMetrics` -- per-trial raw counters,
* :class:`Aggregate` / :func:`aggregate` -- mean and 95% confidence
  intervals across trials (the paper reports "mean values [...] along
  their 95% confidence intervals"),
* :func:`convergence_rounds` -- convergence time in *rounds*
  (round = Tf + Tc),
* :class:`LoadDistribution` -- how the computations spread over switches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Sequence

from repro.obs import attach


@dataclass
class TrialMetrics:
    """Raw counters from one simulation trial (one graph, one schedule).

    The "per event" ratios use the paper's denominator: the number of
    injected MC events (membership changes, plus one per affected
    connection for link events).

    ``metrics`` holds the network registry's sample deltas over the
    measured phase (see :mod:`repro.obs.attach` for the sample names);
    the SPF counters below are read-only views into it.
    """

    events: int
    computations: int
    floodings: int
    #: Simulated time of the first injected event.
    first_event_time: float = 0.0
    #: Simulated time the last switch installed its final topology.
    last_install_time: float = 0.0
    #: Round length (Tf + Tc) used to normalize convergence.
    round_length: float = 1.0
    #: Whether all switches agreed after quiescence.
    agreed: bool = True
    #: Free-form protocol label ("dgmc", "mospf", "brute-force", ...).
    protocol: str = "dgmc"
    #: Registry sample deltas for the measured phase.
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def computations_per_event(self) -> float:
        return self.computations / self.events if self.events else 0.0

    @property
    def floodings_per_event(self) -> float:
        return self.floodings / self.events if self.events else 0.0

    @property
    def convergence_time(self) -> float:
        """Wall (simulated) time from first event to final install."""
        return max(0.0, self.last_install_time - self.first_event_time)

    @property
    def convergence_rounds(self) -> float:
        """Convergence time normalized to rounds (Tf + Tc)."""
        if self.round_length <= 0:
            return 0.0
        return self.convergence_time / self.round_length

    # -- registry-backed SPF counters --------------------------------------

    @property
    def dijkstra_runs(self) -> int:
        """Full Dijkstra executions during the measured phase."""
        return int(self.metrics.get(attach.DIJKSTRA_RUNS, 0))

    @property
    def spf_hits(self) -> int:
        return int(self.metrics.get(attach.SPF_HITS, 0))

    @property
    def spf_misses(self) -> int:
        return int(self.metrics.get(attach.SPF_MISSES, 0))

    @property
    def spf_invalidations(self) -> int:
        return int(self.metrics.get(attach.SPF_INVALIDATIONS, 0))

    @property
    def spf_hit_rate(self) -> float:
        """Fraction of SPF queries answered from the cache."""
        total = self.spf_hits + self.spf_misses
        return self.spf_hits / total if total else 0.0


# -- cross-trial aggregation ------------------------------------------------
#
# "In each set of simulations, 10 graphs were generated randomly for each
# network size.  The mean values are presented along their 95% confidence
# intervals."  (Section 4.2; graph count OCR-reconstructed.)


@dataclass(frozen=True)
class Aggregate:
    """Mean +- 95% CI half-width over a set of trials."""

    mean: float
    halfwidth: float
    count: int
    minimum: float
    maximum: float

    @property
    def low(self) -> float:
        return self.mean - self.halfwidth

    @property
    def high(self) -> float:
        return self.mean + self.halfwidth

    def __str__(self) -> str:
        return f"{self.mean:.3f} +- {self.halfwidth:.3f} (n={self.count})"


# Two-sided 97.5% Student-t quantiles for small sample sizes; the fallback
# 1.96 is the normal quantile used for n > 30.
_T_975 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
    16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
    21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
    26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
}


def t_quantile_975(dof: int) -> float:
    """Two-sided 95% Student-t critical value for ``dof`` degrees of freedom."""
    if dof <= 0:
        return float("inf")
    return _T_975.get(dof, 1.96)


def aggregate(values: Iterable[float]) -> Aggregate:
    """Mean and 95% CI of a sample (Student-t for small n).

    One streaming pass (Welford's algorithm), so a generator is fine.
    """
    count = 0
    mean = m2 = 0.0
    minimum, maximum = math.inf, -math.inf
    for value in values:
        count += 1
        delta = value - mean
        mean += delta / count
        m2 += delta * (value - mean)
        minimum = min(minimum, value)
        maximum = max(maximum, value)
    if count == 0:
        return Aggregate(0.0, 0.0, 0, 0.0, 0.0)
    halfwidth = 0.0
    if count > 1:
        stdev = math.sqrt(m2 / (count - 1))  # unbiased sample variance
        halfwidth = t_quantile_975(count - 1) * stdev / math.sqrt(count)
    return Aggregate(mean, halfwidth, count, minimum, maximum)


def aggregate_metric(
    trials: Sequence[TrialMetrics], metric: Callable[[TrialMetrics], float]
) -> Aggregate:
    """Aggregate one derived metric over a set of trials."""
    return aggregate(metric(t) for t in trials)


# -- convergence time, measured in rounds -----------------------------------


def convergence_rounds(
    first_event_time: float,
    last_install_time: float,
    flooding_diameter: float,
    compute_time: float,
) -> float:
    """Convergence time in rounds: "We define the time Tf + Tc to be a
    round" (Section 4.1) -- how long after the first event of a burst
    until the last switch installed the final, globally agreed topology.

    "The convergence times are not presented [for sparse workloads]
    because our definition of convergence time does not apply to sparse
    events, which seldom conflict with each other": the burst boundaries
    are therefore explicit arguments, and the result is only meaningful
    for bursty schedules.  Returns 0.0 when the installs all precede the
    burst (no reaction was needed -- e.g. events that cancel out).
    """
    round_length = flooding_diameter + compute_time
    if round_length <= 0:
        raise ValueError("round length must be positive")
    return max(0.0, last_install_time - first_event_time) / round_length


# -- per-switch computational load ------------------------------------------
#
# "The main objective of the D-GMC protocol is to reduce the overall
# computational load on network switches" (Section 4).  Beyond the total,
# the *distribution* matters: D-GMC concentrates work at event-detecting
# switches (most switches do nothing per event), while the brute-force
# protocol loads every switch uniformly.


@dataclass(frozen=True)
class LoadDistribution:
    """Summary of computations per switch over a run."""

    per_switch: Dict[int, int]
    n: int

    @property
    def total(self) -> int:
        return sum(self.per_switch.values())

    @property
    def peak(self) -> int:
        """Computations at the busiest switch."""
        return max(self.per_switch.values(), default=0)

    @property
    def busy_switches(self) -> int:
        """Switches that computed at least once."""
        return sum(1 for c in self.per_switch.values() if c > 0)

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    def jain_fairness(self) -> float:
        """Jain's fairness index over all n switches (1 = perfectly uniform).

        Low values mean the load is concentrated -- which, for D-GMC, is a
        feature: uninvolved switches are left alone.
        """
        counts = [self.per_switch.get(x, 0) for x in range(self.n)]
        total = sum(counts)
        if total == 0:
            return 1.0
        squares = sum(c * c for c in counts)
        return (total * total) / (self.n * squares)


def load_distribution(
    computation_log: Iterable, n: int, connection_id: int | None = None
) -> LoadDistribution:
    """Build a :class:`LoadDistribution` from a protocol's computation log.

    Accepts any records with ``switch`` and ``connection_id`` attributes
    (e.g. :class:`repro.core.protocol.ComputationRecord`).
    """
    per_switch: Dict[int, int] = {x: 0 for x in range(n)}
    for rec in computation_log:
        if connection_id is not None and rec.connection_id != connection_id:
            continue
        per_switch[rec.switch] += 1
    return LoadDistribution(per_switch, n)
