"""Deployment invariant verification: the DESIGN.md §6 checks as a library.

Downstream users embedding D-GMC in larger simulations can call
:func:`verify_deployment` after quiescence to assert the protocol's
correctness conditions; the test suite uses the same code, so the checks
themselves are exercised continuously.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.protocol import DgmcNetwork


class VerificationError(AssertionError):
    """A protocol invariant does not hold."""


@dataclass
class VerificationReport:
    """Outcome of one verification pass."""

    connection_id: int
    checks: List[str] = field(default_factory=list)

    def note(self, check: str) -> None:
        self.checks.append(check)


def verify_deployment(
    dgmc: DgmcNetwork,
    connection_id: int,
    expect_members: Optional[frozenset] = None,
) -> VerificationReport:
    """Verify a quiescent deployment's invariants for one connection.

    Checks (raises :class:`VerificationError` on the first failure):

    1. quiescence -- no queued LSAs, no pending simulation events;
    2. agreement -- identical member lists, C stamps, and installed
       topologies at every live switch;
    3. timestamp sanity -- ``R == E`` and ``R >= C`` at quiescence;
    4. topology validity -- installed trees are acyclic, span the (live,
       reachable) members, and use only up links;
    5. optional membership expectation (``expect_members``).
    """
    report = VerificationReport(connection_id)

    if not dgmc.quiescent():
        raise VerificationError("deployment is not quiescent")
    report.note("quiescent")

    ok, detail = dgmc.agreement(connection_id)
    if not ok:
        raise VerificationError(f"agreement failed: {detail}")
    report.note(f"agreement ({detail})")

    states = {
        x: s
        for x, s in dgmc.states_for(connection_id).items()
        if x not in dgmc.dead_switches
    }
    if not states:
        if expect_members:
            raise VerificationError(
                f"expected members {sorted(expect_members)} but the "
                "connection is destroyed everywhere"
            )
        report.note("connection destroyed everywhere")
        return report

    for x, state in states.items():
        if not state.received.geq(state.expected):
            raise VerificationError(f"switch {x}: R < E at quiescence")
        if not state.expected.geq(state.received):
            raise VerificationError(f"switch {x}: E < R at quiescence")
        if not state.received.geq(state.current_stamp):
            raise VerificationError(f"switch {x}: C exceeds R")
    report.note("timestamps consistent (R == E >= C)")

    reference = states[min(states)]
    if expect_members is not None:
        live_expected = frozenset(expect_members) - dgmc.dead_switches
        if frozenset(reference.members) - dgmc.dead_switches != live_expected:
            raise VerificationError(
                f"member list {sorted(reference.members)} != expected "
                f"{sorted(expect_members)}"
            )
        report.note("membership matches expectation")

    if reference.installed is not None and reference.members:
        up_edges = {link.key for link in dgmc.net.links()}
        from repro.lsr import spf
        from repro.trees.algorithms import dominant_members

        adj = spf.network_adjacency(dgmc.net)
        for key, tree in reference.installed.trees:
            if not tree.is_tree():
                raise VerificationError(f"tree {key} is cyclic or disconnected")
            if not tree.edges <= up_edges:
                raise VerificationError(f"tree {key} uses a down link")
            if key == -1:  # shared tree: must span the dominant member group
                servable = dominant_members(
                    adj, frozenset(reference.members)
                )
                if not tree.spans(servable):
                    raise VerificationError(
                        f"shared tree misses members {sorted(servable)}"
                    )
        report.note("installed topology valid")
    return report
