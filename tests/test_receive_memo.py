"""The ReceiveLSA() memo answers exactly what the drain computes.

A switch drains a batch of LSAs through its deployment's
:class:`~repro.core.switch.ReceiveMemo`: one lookup per distinct
``(record, batch)``, :meth:`DgmcSwitch._drain_inbox` only on a miss.  Each
run below is made twice -- as shipped, and with the table patched to miss
every lookup, so every batch is drained -- and the two must agree on every
install, every computation and every switch's canonical state.
"""

from __future__ import annotations

import os
from random import Random

import pytest

from repro.core import DgmcNetwork, JoinEvent, LeaveEvent, LinkEvent, ProtocolConfig
from repro.core import state as state_module, timestamp
from repro.core.mc import ConnectionSpec, ConnectionType
from repro.core.state import McState
from repro.core.switch import ReceiveMemo
from repro.core.timestamp import Stamp
from repro.net import equiv
from repro.stress import Counterexample, replay_violates
from repro.topo.generators import grid_network, waxman_network
from repro.workloads.stress import get_scenario

CID = 1
SPEC = ConnectionSpec(CID, ConnectionType.SYMMETRIC)


@pytest.fixture
def always_miss(monkeypatch):
    monkeypatch.setattr(ReceiveMemo, "get", lambda self, key, operands: None)


def outcome(dgmc: DgmcNetwork):
    """Everything a run decided: installs, computations, canonical states."""
    return (
        list(dgmc.install_log),
        [(r.time, r.switch, r.connection_id) for r in dgmc.computation_log],
        {
            (x, cid): state.canonical()
            for x, switch in sorted(dgmc.switches.items())
            for cid, state in sorted(switch.states.items())
        },
    )


def churn_run(config: ProtocolConfig = None) -> DgmcNetwork:
    """Seeded joins and leaves on a 24-switch Waxman network, two events
    per instant so proposals conflict."""
    rng = Random(11)
    dgmc = DgmcNetwork(
        waxman_network(24, Random(5)),
        config or ProtocolConfig(compute_time=1.0, per_hop_delay=0.1),
    )
    dgmc.register_symmetric(CID)
    members = rng.sample(range(24), 8)
    at = 1.0
    for x in members:
        dgmc.inject(JoinEvent(x, CID), at=at)
        at += 0.3
    for _ in range(30):
        at += rng.choice((0.2, 0.7, 4.0))
        joiner = rng.choice([x for x in range(24) if x not in members])
        leaver = members.pop(rng.randrange(len(members)))
        members.append(joiner)
        dgmc.inject(JoinEvent(joiner, CID), at=at)
        dgmc.inject(LeaveEvent(leaver, CID), at=at)
    dgmc.run()
    return dgmc


def flap_run() -> DgmcNetwork:
    """Fail and heal installed tree edges of a 4x4 grid, fast reroute on."""
    dgmc = DgmcNetwork(
        grid_network(4, 4),
        ProtocolConfig(compute_time=1.0, per_hop_delay=0.1, enable_frr=True),
    )
    dgmc.register_symmetric(CID)
    for i, x in enumerate((0, 5, 10, 15, 3, 12)):
        dgmc.inject(JoinEvent(x, CID), at=1.0 + i)
    dgmc.run()
    for _ in range(6):
        u, v = sorted(dgmc.states_for(CID)[0].installed.all_edges())[0]
        now = dgmc.sim.now
        dgmc.inject(LinkEvent(detector=u, u=u, v=v, up=False), at=now + 1.0)
        dgmc.inject(LinkEvent(detector=v, u=u, v=v, up=True), at=now + 1.5)
        dgmc.run()
    return dgmc


class TestMemoEqualsDrain:
    def test_churn(self, request):
        memoised = churn_run()
        # A class of switches is one lookup (repro.core.switch.receive_run),
        # so the table answers what repeats across instants: 298 of 779 here.
        assert memoised.receive_memo.hits > 0
        request.getfixturevalue("always_miss")
        assert outcome(churn_run()) == outcome(memoised)

    def test_link_flap(self, request):
        memoised = flap_run()
        assert memoised.receive_memo.hits > 0
        request.getfixturevalue("always_miss")
        assert outcome(flap_run()) == outcome(memoised)

    def test_live_against_discrete(self, request):
        scenario = equiv.make_scenario(switches=8, seed=3, events=5)

        def verdict():
            discrete = equiv.run_discrete(scenario)
            report = equiv.check_equivalence(discrete, equiv.run_live(scenario))
            assert report.ok, report.detail
            return discrete.trees, report.live.trees, report.live.members

        memoised = verdict()
        request.getfixturevalue("always_miss")
        assert verdict() == memoised


class TestOneTablePerDeployment:
    """The knobs change the transition (``ablate_rc_gate`` and
    ``ablate_re_gate`` whether a proposal is due, ``ablate_member_stamp``
    the member list), so one learnt under one configuration must never
    answer for another: deployments built in one process, in any order,
    decide what each decides when every batch is drained."""

    CONFIGS = (
        {},
        {"ablate_rc_gate": True},
        {"ablate_member_stamp": True},
        {"ablate_re_gate": True},
    )

    def run(self, knobs):
        # Floods of 0.45 per hop overlap the 1.0 computations, so triggered
        # proposals race and the rc gate decides differently.
        config = ProtocolConfig(compute_time=1.0, per_hop_delay=0.45, **knobs)
        return outcome(churn_run(config))

    def test_interleaved_deployments_match_the_drain(self, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(ReceiveMemo, "get", lambda self, key, operands: None)
            drained = [self.run(knobs) for knobs in self.CONFIGS]
        assert drained[0] != drained[1]  # the rc gate changes this run
        together = [self.run(knobs) for knobs in self.CONFIGS * 2]
        assert together == drained * 2

    def test_the_m_vector_race_survives_a_shipped_run_before_it(self):
        """The committed M-vector counterexample breaks agreement under
        ``ablate_member_stamp`` and not without it, whichever ran first:
        a table shared across the two would replay the shipped drain."""
        ce = Counterexample.load(
            os.path.join(os.path.dirname(__file__), "data", "stress",
                         "membership-race__agreement.json")
        )
        scenario = get_scenario(ce.scenario)
        for _ in range(2):
            assert not replay_violates(scenario, ce.schedule)
            assert replay_violates(
                scenario, ce.schedule, config_overrides=ce.config,
                invariant=ce.invariant,
            )


class TestSharedValues:
    def test_member_map_refuses_in_place_writes(self):
        state = McState(SPEC, 24)
        state.apply_join(3, None)
        members = state.members
        for write in (
            lambda: members.__setitem__(4, frozenset({"sender"})),
            lambda: members.pop(3),
            lambda: members.update({5: frozenset()}),
            lambda: members.clear(),
            lambda: members.__delitem__(3),
        ):
            with pytest.raises(TypeError):
                write()
        assert dict(state.members) == {3: frozenset({"sender", "receiver"})}

    def test_state_stamps_refuse_in_place_writes(self):
        state = McState(SPEC, 24)
        state.received = Stamp({0: 2, 5: 1})
        for write in (
            lambda: state.received.increment(0),
            lambda: state.expected.merge(state.received),
            lambda: state.member_stamp.__setitem__(0, 9),
        ):
            with pytest.raises(TypeError):
                write()
        received = state.received.snapshot()  # the writable copy
        received.increment(0)
        state.received = received
        assert state.received == received

    def test_equal_member_maps_are_one_object(self):
        a = McState(SPEC, 24)
        b = McState(SPEC, 24)
        for x in (1, 2, 3):
            a.apply_join(x, None)
        for x in (3, 1, 4, 2):
            b.apply_join(x, None)
        b.apply_leave(4)
        assert a.members is b.members
        assert a.record is b.record


def test_every_table_stays_within_its_bound(monkeypatch):
    """The transition table and the record table forget their oldest
    entries past ``BOUND``, and eviction changes no decision."""
    free = outcome(churn_run())
    monkeypatch.setattr(timestamp, "BOUND", 8)
    state_module._RECORDS.clear()  # the run above left this run's records
    dgmc = churn_run()
    tables = (dgmc.receive_memo.table, state_module._RECORDS)
    assert [len(table) for table in tables] == [8] * 2  # every one evicted
    assert outcome(dgmc) == free
