"""Tests for workload generation: feasibility, spacing, validation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.membership import (
    MembershipSchedule,
    ScheduledEvent,
    bursty_schedule,
    sparse_schedule,
)
from repro.workloads.scenario import Scenario
from repro.topo.generators import grid_network


class TestBursty:
    def test_events_inside_window(self, rng):
        sched = bursty_schedule(20, rng, count=10, window=2.0, start=5.0)
        assert len(sched.events) == 10
        for ev in sched.events:
            assert 5.0 <= ev.time <= 7.0

    def test_chronological(self, rng):
        sched = bursty_schedule(20, rng, count=15, window=1.0)
        times = [ev.time for ev in sched.events]
        assert times == sorted(times)

    def test_validate_passes(self, rng):
        bursty_schedule(10, rng, count=8, window=1.0).validate()

    def test_initial_members_respected(self, rng):
        init = frozenset({1, 2, 3})
        sched = bursty_schedule(20, rng, count=5, initial_members=init)
        assert sched.initial_members == init
        sched.validate()

    @given(st.integers(2, 30), st.integers(0, 500), st.integers(1, 25))
    @settings(max_examples=30, deadline=None)
    def test_always_feasible(self, n, seed, count):
        sched = bursty_schedule(n, random.Random(seed), count=count)
        sched.validate()  # raises on infeasibility


class TestSparse:
    def test_mean_gap_roughly_respected(self, rng):
        sched = sparse_schedule(30, rng, count=200, mean_gap=10.0)
        gaps = [
            b.time - a.time for a, b in zip(sched.events, sched.events[1:])
        ]
        mean = sum(gaps) / len(gaps)
        assert 7.0 < mean < 13.0

    def test_validate_passes(self, rng):
        sparse_schedule(15, rng, count=30).validate()

    @given(st.integers(2, 20), st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_always_feasible(self, n, seed):
        sparse_schedule(n, random.Random(seed), count=15).validate()


class TestScheduleModel:
    def test_final_members(self):
        sched = MembershipSchedule(
            frozenset({0}),
            [
                ScheduledEvent(1.0, 1, True),
                ScheduledEvent(2.0, 2, True),
                ScheduledEvent(3.0, 0, False),
            ],
        )
        assert sched.final_members() == frozenset({1, 2})
        assert sched.span == 3.0

    def test_validate_rejects_double_join(self):
        sched = MembershipSchedule(
            frozenset({0}),
            [ScheduledEvent(1.0, 1, True), ScheduledEvent(2.0, 1, True)],
        )
        with pytest.raises(ValueError, match="joins twice"):
            sched.validate()

    def test_validate_rejects_absent_leave(self):
        sched = MembershipSchedule(
            frozenset({0}), [ScheduledEvent(1.0, 5, False)]
        )
        with pytest.raises(ValueError, match="absent"):
            sched.validate()

    def test_validate_rejects_emptying(self):
        sched = MembershipSchedule(
            frozenset({0}), [ScheduledEvent(1.0, 0, False)]
        )
        with pytest.raises(ValueError, match="empties"):
            sched.validate()

    def test_validate_rejects_disorder(self):
        sched = MembershipSchedule(
            frozenset({0}),
            [ScheduledEvent(2.0, 1, True), ScheduledEvent(1.0, 2, True)],
        )
        with pytest.raises(ValueError, match="order"):
            sched.validate()

    def test_empty_schedule(self):
        sched = MembershipSchedule(frozenset({0}), [])
        assert sched.span == 0.0
        sched.validate()


class TestScenario:
    def test_round_length(self):
        net = grid_network(1, 4)
        sched = MembershipSchedule(frozenset({0}), [])
        sc = Scenario(
            net=net, schedule=sched, compute_time=2.0, per_hop_delay=1.0
        )
        assert sc.flooding_diameter() == pytest.approx(3.0)
        assert sc.round_length == pytest.approx(5.0)

    def test_describe_mentions_key_facts(self):
        net = grid_network(1, 4)
        sched = MembershipSchedule(frozenset({0}), [])
        sc = Scenario(net=net, schedule=sched, label="demo")
        text = sc.describe()
        assert "demo" in text and "n=4" in text


class TestZipfWeights:
    def test_normalized_and_monotone(self):
        from repro.workloads.zipf import zipf_weights

        weights = zipf_weights(50, 1.1)
        assert sum(weights) == pytest.approx(1.0)
        assert weights == sorted(weights, reverse=True)

    def test_rejects_empty(self):
        from repro.workloads.zipf import zipf_weights

        with pytest.raises(ValueError):
            zipf_weights(0, 1.1)


class TestZipfWorkload:
    def test_generated_workload_is_feasible(self, rng):
        from repro.workloads.zipf import zipf_churn_workload

        workload = zipf_churn_workload(20, 50, rng)
        workload.validate()  # raises on infeasibility
        assert workload.total_packets == workload.total_batches * 256
        assert workload.total_events > 0

    def test_popularity_drives_initial_size(self, rng):
        from repro.workloads.zipf import zipf_churn_workload

        workload = zipf_churn_workload(
            20, 50, rng, max_initial_members=12
        )
        members = workload.initial_members()
        assert len(members[0]) == 12  # rank 0 gets the max
        assert len(members[49]) == 2  # the tail gets the floor
        assert all(len(m) >= 2 for m in members.values())

    def test_validate_rejects_infeasible(self):
        from repro.workloads.zipf import (
            ChurnPhase,
            GroupEvent,
            PacketBatch,
            ZipfWorkload,
        )

        workload = ZipfWorkload(
            n=5,
            groups=1,
            s=1.1,
            initial=((0, (1, 2)),),
            phases=(
                ChurnPhase(
                    events=(GroupEvent(0, 1, join=True),),  # already present
                    batches=(PacketBatch(((1, 0),)),),
                ),
            ),
        )
        with pytest.raises(ValueError):
            workload.validate()

    def test_validate_rejects_non_member_source(self):
        from repro.workloads.zipf import ChurnPhase, PacketBatch, ZipfWorkload

        workload = ZipfWorkload(
            n=5,
            groups=1,
            s=1.1,
            initial=((0, (1, 2)),),
            phases=(
                ChurnPhase(events=(), batches=(PacketBatch(((4, 0),)),)),
            ),
        )
        with pytest.raises(ValueError):
            workload.validate()

    @given(st.integers(4, 25), st.integers(0, 300))
    @settings(max_examples=25, deadline=None)
    def test_always_feasible(self, n, seed):
        from repro.workloads.zipf import zipf_churn_workload

        workload = zipf_churn_workload(
            n, 20, random.Random(seed), phases=2, events_per_phase=10,
            batches_per_phase=2, batch_size=16,
        )
        workload.validate()


class TestConvergedGroups:
    def _deployment(self, n=10):
        from repro.core import DgmcNetwork, ProtocolConfig
        from repro.topo.generators import ring_network

        return DgmcNetwork(
            ring_network(n),
            ProtocolConfig(compute_time=0.5, per_hop_delay=0.05),
        )

    def test_seed_installs_shared_state_everywhere(self, rng):
        from repro.workloads.zipf import ConvergedGroups, zipf_churn_workload

        dgmc = self._deployment()
        workload = zipf_churn_workload(
            10, 5, rng, phases=1, events_per_phase=4, batches_per_phase=1,
            batch_size=8,
        )
        ConvergedGroups(dgmc).seed(workload)
        for g, members in workload.initial:
            state = dgmc.switches[0].states[g]
            assert state.installed is not None
            assert state.member_set == frozenset(members)
            # one shared object across all switches, by construction
            assert all(
                dgmc.switches[x].states[g] is state for x in range(10)
            )
        assert len(dgmc.install_log) == 5

    def test_apply_churn_records_install(self, rng):
        from repro.workloads.zipf import ConvergedGroups, zipf_churn_workload

        dgmc = self._deployment()
        workload = zipf_churn_workload(
            10, 5, rng, phases=1, events_per_phase=6, batches_per_phase=1,
            batch_size=8,
        )
        seeder = ConvergedGroups(dgmc)
        seeder.seed(workload)
        log0 = len(dgmc.install_log)
        event = workload.phases[0].events[0]
        before = dgmc.switches[0].states[event.group].member_set
        seeder.apply(event)
        after = dgmc.switches[0].states[event.group].member_set
        assert (event.switch in after) == event.join
        assert after != before
        assert len(dgmc.install_log) == log0 + 1

    def test_seed_rejects_size_mismatch(self, rng):
        from repro.workloads.zipf import ConvergedGroups, zipf_churn_workload

        dgmc = self._deployment(n=10)
        workload = zipf_churn_workload(12, 3, rng)
        with pytest.raises(ValueError):
            ConvergedGroups(dgmc).seed(workload)


class TestReplayWorkload:
    def test_replay_is_reference_identical(self, rng):
        from repro.workloads.zipf import replay_workload, zipf_churn_workload
        from repro.topo.generators import waxman_network
        from repro.core import DgmcNetwork, ProtocolConfig

        net = waxman_network(15, rng)
        dgmc = DgmcNetwork(
            net, ProtocolConfig(compute_time=0.5, per_hop_delay=0.05)
        )
        workload = zipf_churn_workload(
            15, 10, rng, phases=2, events_per_phase=6, batches_per_phase=2,
            batch_size=32,
        )
        result = replay_workload(
            dgmc, workload, hop_delay=0.05, reference_sample=40
        )
        assert result.packets == workload.total_packets
        assert result.reference_packets == 40
        assert result.identical_deliveries
        assert result.mismatches == []
        assert result.batched_report.packets == result.packets
        assert result.latencies()  # deliveries happened and were stamped

    def test_mospf_contrast_counts_computations(self, rng):
        from repro.workloads.zipf import mospf_contrast, zipf_churn_workload
        from repro.topo.generators import waxman_network

        net = waxman_network(10, rng)
        workload = zipf_churn_workload(
            10, 5, rng, phases=1, events_per_phase=4, batches_per_phase=1,
            batch_size=16,
        )
        contrast = mospf_contrast(
            net, workload, compute_time=0.5, per_hop_delay=0.05
        )
        assert contrast["datagrams"] == 16
        assert contrast["tree_computations"] > 0
        assert contrast["computations_per_datagram"] > 0
        assert contrast["delivered"] > 0
