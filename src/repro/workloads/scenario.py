"""A scenario bundles everything one simulation trial needs.

The harness (:mod:`repro.harness.experiment`) executes scenarios against
D-GMC or a baseline protocol and extracts the paper's metrics.  The
scenario itself is pure data: the physical network, the connection type,
the membership schedule, and the timing parameters Tc (topology
computation time) and the per-hop LSA delay that together set the paper's
Tf-to-Tc ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.topo.graph import Network
from repro.workloads.membership import MembershipSchedule


@dataclass
class Scenario:
    """One runnable simulation trial."""

    net: Network
    schedule: MembershipSchedule
    connection_type: str = "symmetric"
    connection_id: int = 1
    #: Tc: time for one topology computation.
    compute_time: float = 1.0
    #: The per-hop LSA transmission time.
    per_hop_delay: float = 0.05
    #: Free-form label for reports.
    label: str = ""

    def flooding_diameter(self) -> float:
        """Tf: the worst-case flooding completion time for this network."""
        return self.net.flooding_diameter(per_hop_delay=self.per_hop_delay)

    @property
    def round_length(self) -> float:
        """The paper's *round*: Tf + Tc."""
        return self.flooding_diameter() + self.compute_time

    def describe(self) -> str:
        tf = self.flooding_diameter()
        return (
            f"Scenario({self.label or 'unnamed'}: n={self.net.n}, "
            f"{self.connection_type}, events={len(self.schedule.events)}, "
            f"Tc={self.compute_time:g}, Tf={tf:g})"
        )
