"""Per-phase wall-time profiling of a representative D-GMC run.

``python -m repro profile`` runs a deterministic membership-churn plus
link-churn workload with a fresh (sink-less) tracer enabled, measures the
wall time around the simulation, and decomposes it into the tracer's
per-category **self time** (span duration minus enclosed spans):

* ``spf``             -- full Dijkstra executions,
* ``flooding``        -- flood scheduling in the fabric,
* ``arbitration``     -- topology computation, LSA drains, installs,
* ``kernel-overhead`` -- event dispatch and run-loop bookkeeping.

Because the kernel's outer ``run`` span covers the whole event loop and
every other span nests inside it, the categories partition the loop's
wall time: their sum must cover >= 90% of the measured time (gated by the
CLI's exit status and by ``tests/test_obs.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Optional

#: Tracer category -> display phase (unknown categories pass through).
PHASE_NAMES = {
    "spf": "spf",
    "flood": "flooding",
    "arbitration": "arbitration",
    "kernel": "kernel-overhead",
}

#: Canonical display order.
PHASE_ORDER = ("spf", "flooding", "arbitration", "kernel-overhead")


@dataclass
class PhaseBreakdown:
    """Wall-time decomposition of one profiled run."""

    #: display phase -> accumulated span self time, wall seconds.
    phases: Dict[str, float]
    #: Wall time measured around the simulation run.
    wall_s: float
    events_dispatched: int = 0
    sim_time: float = 0.0

    @property
    def accounted_s(self) -> float:
        return sum(self.phases.values())

    @property
    def coverage(self) -> float:
        """Fraction of the measured wall time the phases account for."""
        return self.accounted_s / self.wall_s if self.wall_s > 0 else 0.0

    def render(self) -> str:
        lines = ["phase breakdown (wall time):"]
        ordered = [p for p in PHASE_ORDER if p in self.phases]
        ordered += sorted(set(self.phases) - set(PHASE_ORDER))
        for phase in ordered:
            secs = self.phases[phase]
            share = secs / self.wall_s if self.wall_s > 0 else 0.0
            lines.append(f"  {phase:<16} {secs * 1e3:9.2f} ms  {share:6.1%}")
        lines.append(
            f"  {'accounted':<16} {self.accounted_s * 1e3:9.2f} ms  "
            f"{self.coverage:6.1%} of {self.wall_s * 1e3:.2f} ms measured"
        )
        lines.append(
            f"  ({self.events_dispatched} kernel events, "
            f"sim time {self.sim_time:.1f})"
        )
        return "\n".join(lines)


def _profile_workload(n: int, joiners: int, flaps: int, seed: int):
    """Build the profiled deployment with its events already injected.

    Conflicting join bursts exercise arbitration (triggered proposals,
    withdrawals), leaves/rejoins keep the churn going, and link flaps
    drive non-MC LSAs plus SPF invalidations -- so every phase shows up.
    """
    import random

    from repro.core import DgmcNetwork, JoinEvent, LeaveEvent, ProtocolConfig
    from repro.core.events import LinkEvent
    from repro.topo.generators import waxman_network

    rng = random.Random(seed)
    net = waxman_network(n, rng)
    dgmc = DgmcNetwork(net, ProtocolConfig(compute_time=0.5, per_hop_delay=0.05))
    dgmc.register_symmetric(1)
    members = rng.sample(range(net.n), joiners)
    for sw in members:  # conflicting burst
        dgmc.inject(JoinEvent(sw, 1), at=1.0 + rng.random())
    t = 100.0
    for sw in members[: joiners // 2]:  # staggered leave/rejoin churn
        dgmc.inject(LeaveEvent(sw, 1), at=t)
        t += 25.0
        dgmc.inject(JoinEvent(sw, 1), at=t)
        t += 25.0
    for link in list(net.links())[:flaps]:  # link churn
        dgmc.inject(LinkEvent(link.u, link.u, link.v, up=False), at=t)
        t += 25.0
        dgmc.inject(LinkEvent(link.u, link.u, link.v, up=True), at=t)
        t += 25.0
    return dgmc


def run_profile(
    quick: bool = False,
    seed: int = 1996,
    switches: Optional[int] = None,
    members: Optional[int] = None,
) -> PhaseBreakdown:
    """Run the profile workload under a fresh tracer; return the breakdown.

    ``switches`` / ``members`` size the network and the joining burst
    (default 48 / 16, or 16 / 6 with ``quick``), so the breakdown can be
    taken at the sizes the end-to-end benchmark runs (n=400).

    The tracer is enabled but has **no sinks**: spans only feed the
    per-category self-time accounting, keeping the measurement itself
    cheap.  The process-wide tracer is restored afterwards.
    """
    from repro.obs.tracer import Tracer, use_tracer

    n = switches if switches is not None else (16 if quick else 48)
    joiners = members if members is not None else (6 if quick else 16)
    if not 2 <= joiners <= n:
        raise ValueError(f"need 2 <= members <= switches, got {joiners} / {n}")
    dgmc = _profile_workload(n, joiners, 2 if quick else 6, seed)
    tracer = Tracer(enabled=True)
    with use_tracer(tracer):
        start = perf_counter()
        dgmc.run()
        wall = perf_counter() - start

    phases: Dict[str, float] = {}
    for cat, secs in tracer.phase_breakdown().items():
        name = PHASE_NAMES.get(cat, cat or "other")
        phases[name] = phases.get(name, 0.0) + secs
    return PhaseBreakdown(
        phases=phases,
        wall_s=wall,
        events_dispatched=dgmc.sim.events_dispatched,
        sim_time=dgmc.sim.now,
    )
