"""Link-failure injection: exercising the paper's fault-tolerance claim.

Section 6: "Being a link-state routing protocol, the D-GMC protocol has
the intrinsic advantage in fault tolerance.  The protocol handles faulty
components in the network through topology computations triggered by
link/nodal events."

:class:`FailureInjector` schedules failure/repair cycles against a running
:class:`~repro.core.protocol.DgmcNetwork`.  By default it only fails links
whose loss keeps the network connected (partition survival is the paper's
explicit non-goal); set ``allow_partition`` to stress the degradation
path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.events import LinkEvent
from repro.core.protocol import DgmcNetwork


@dataclass
class FailureRecord:
    """One injected failure/repair cycle."""

    edge: Tuple[int, int]
    failed_at: float
    repaired_at: Optional[float]


class FailureInjector:
    """Schedules link failures (and optional repairs) on a deployment."""

    def __init__(
        self,
        dgmc: DgmcNetwork,
        rng: random.Random,
        allow_partition: bool = False,
    ) -> None:
        self.dgmc = dgmc
        self.rng = rng
        self.allow_partition = allow_partition
        self.records: List[FailureRecord] = []

    # -- selection ----------------------------------------------------------

    def _safe_candidates(self) -> List[Tuple[int, int]]:
        """Up links whose loss is acceptable under the partition policy.

        Without ``allow_partition`` the safe links are exactly the up links
        that are not bridges -- computed in one O(V + E) lowpoint pass
        (:meth:`~repro.topo.graph.Network.bridges`) instead of deep-copying
        the network once per link.  An already-disconnected network has no
        safe candidates (every removal probe used to fail), matching the
        old probing behaviour exactly.
        """
        up_links = [link.key for link in self.dgmc.net.links()]
        if self.allow_partition:
            return up_links
        if not self.dgmc.net.is_connected():
            return []
        bridges = set(self.dgmc.net.bridges())
        return [key for key in up_links if key not in bridges]

    # -- scheduling -----------------------------------------------------------

    def schedule_cycle(
        self, fail_at: float, repair_after: Optional[float] = None
    ) -> None:
        """Schedule one failure (edge chosen at fire time) and its repair.

        The edge is selected when the failure fires, against the network's
        state at that moment, so stacked cycles never pick an already-dead
        link and never disconnect the network (unless allowed).
        """
        self.dgmc.sim.schedule_at(
            fail_at, lambda: self._fire_failure(repair_after)
        )

    def schedule_campaign(
        self,
        start: float,
        count: int,
        mean_gap: float,
        mean_downtime: Optional[float] = None,
    ) -> None:
        """Schedule ``count`` failure cycles with exponential gaps.

        ``mean_downtime`` of None means failures are permanent (no repair).
        """
        t = start
        for _ in range(count):
            t += self.rng.expovariate(1.0 / mean_gap)
            downtime = (
                None
                if mean_downtime is None
                else self.rng.expovariate(1.0 / mean_downtime)
            )
            self.schedule_cycle(t, repair_after=downtime)

    # -- firing ---------------------------------------------------------------------

    def _fire_failure(self, repair_after: Optional[float]) -> None:
        candidates = self._safe_candidates()
        if not candidates:
            return  # nothing can fail safely right now
        edge = candidates[self.rng.randrange(len(candidates))]
        record = FailureRecord(edge, self.dgmc.sim.now, None)
        self.records.append(record)
        u, v = edge
        self.dgmc.fire_event(LinkEvent(u, u, v, up=False))
        if repair_after is not None:
            self.dgmc.sim.schedule(
                repair_after, lambda: self._fire_repair(record)
            )

    def _fire_repair(self, record: FailureRecord) -> None:
        u, v = record.edge
        link = self.dgmc.net.link(u, v)
        if link.up:
            return  # already repaired (should not happen; defensive)
        record.repaired_at = self.dgmc.sim.now
        self.dgmc.fire_event(LinkEvent(u, u, v, up=True))

    # -- accounting ---------------------------------------------------------------------

    @property
    def failures_injected(self) -> int:
        return len(self.records)

    @property
    def repairs_completed(self) -> int:
        return sum(1 for r in self.records if r.repaired_at is not None)
