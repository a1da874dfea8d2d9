"""The invariant x harness matrix: one contract, checked whole, everywhere.

For every name in ``ALL_INVARIANTS`` one violation is planted on a settled
3-switch deployment (a mutated ``McState``, a dominated install recorded
through ``InstallLog.record``, a downed link), and the shared entry
function, ``verify_deployment``, ``StressExecutor.check_invariants``, the
chaos soak's stable-point check and the equivalence harness's verdict
must each report exactly that name.
Parametrised over ``ALL_INVARIANTS``: a name added later without a
planting here fails with a ``KeyError``.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core.invariants import (
    ALL_INVARIANTS,
    LIVE_ONLY,
    SETTLED_ONLY,
    VerificationError,
    check_invariants,
    verify_deployment,
)
from repro.core.timestamp import Stamp
from repro.lsr.lsdb import LinkStateDatabase
from repro.net import chaos, equiv
from repro.stress import StressExecutor, StressScenario
from repro.trees.base import McTopology, MulticastTree

CID = 1
MEMBERS = (0, 2)
TRIANGLE = StressScenario(
    name="matrix",
    description="members 0 and 2 on a triangle, nothing left to branch on",
    switches=3,
    links=((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)),
    initial_members=MEMBERS,
    events=(),
)


def shared(*edges) -> McTopology:
    return McTopology.shared(MulticastTree.build(edges, MEMBERS))


def install_everywhere(dgmc, topology) -> None:
    for state in dgmc.states_for(CID).values():
        state.installed = topology


def diverge_roles(dgmc) -> None:
    dgmc.states_for(CID)[2].members[0] = frozenset({"sender"})


def outrun_expected(dgmc) -> None:
    for state in dgmc.states_for(CID).values():
        state.received.increment(1)  # R > E: an event nobody announced


def empty_a_restarted_lsdb(dgmc) -> None:
    dgmc.routers[1].lsdb = LinkStateDatabase(dgmc.net.n, dgmc.routers[1].lsdb.solved)


PLANT = {
    "agreement": diverge_roles,
    "tree-bytes": lambda d: setattr(d.states_for(CID)[2], "installed", shared((0, 1), (1, 2))),
    "tree-structure": lambda d: install_everywhere(d, shared((0, 1), (1, 2), (0, 2))),
    "spans": lambda d: install_everywhere(d, shared()),
    "stamp-order": outrun_expected,
    "links-up": lambda d: d.net.set_link_state(0, 2, False),
    "stale-install": lambda d: d.install_log.record(0.0, 0, CID, Stamp(), 0),
    "lsdb-complete": empty_a_restarted_lsdb,
}

#: Topologies that differ encode differently and vice versa, so the byte
#: comparison can only fire beside agreement's installed-topology clause;
#: alone it would mean the wire codec is not injective.
REPORTED = {"tree-bytes": ("agreement", "tree-bytes")}


def names(violations) -> tuple:
    return tuple(dict.fromkeys(v.invariant for v in violations))


def as_fabric(dgmc) -> SimpleNamespace:
    """What the chaos check reads of a ``LiveFabric``, every host restarted."""
    return SimpleNamespace(
        states_for=dgmc.states_for,
        net=dgmc.net,
        install_log=dgmc.install_log,
        hosts={x: SimpleNamespace(router=r) for x, r in dgmc.routers.items()},
        generations={x: 2 for x in dgmc.routers},
    )


@pytest.mark.parametrize("name", ALL_INVARIANTS)
def test_every_harness_reports_the_planted_violation(name):
    ex = StressExecutor(TRIANGLE)
    dgmc = ex.dgmc
    assert ex.terminal() and ex.check_invariants() == []
    assert dgmc.states_for(CID)[0].installed == shared((0, 2))
    assert chaos._stable_invariants(as_fabric(dgmc), CID, "") == []

    PLANT[name](dgmc)
    everywhere = REPORTED.get(name, (name,))
    simulated = () if name in LIVE_ONLY else everywhere  # the live-only row

    data = (CID, dgmc.states_for(CID), dgmc.net, dgmc.install_log)
    assert names(check_invariants(*data, settled=True)) == simulated
    unsettled = () if name in SETTLED_ONLY else simulated
    assert names(check_invariants(*data, settled=False)) == unsettled
    assert names(ex.check_invariants()) == simulated
    assert names(chaos._stable_invariants(as_fabric(dgmc), CID, "")) == everywhere
    verdict = equiv._result("discrete", dgmc, CID)
    if simulated:
        with pytest.raises(VerificationError, match=f"^{simulated[0]}: "):
            verify_deployment(dgmc, CID)
        assert not verdict.agreed and verdict.detail.startswith(f"{simulated[0]}: ")
    else:
        verify_deployment(dgmc, CID)
        assert verdict.agreed
