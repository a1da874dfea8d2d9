"""Chaos soak harness: seeded schedules and a small end-to-end soak."""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.core.lsa import McEvent, McLsa
from repro.net.chaos import (
    ChaosAction,
    ChaosSettings,
    build_schedule,
    run_chaos_soak_sync,
)
from repro.net.fabric import LiveFabric
from repro.topo.graph import Network
from tests.stamps import S


def replay(n: int, seed: int, count: int, members: set) -> list:
    return build_schedule(n, random.Random(seed), count, set(members))


class TestBuildSchedule:
    def test_same_seed_same_schedule(self):
        a = replay(12, 1996, 20, {0, 1, 2, 3})
        b = replay(12, 1996, 20, {0, 1, 2, 3})
        assert a == b

    def test_different_seed_different_schedule(self):
        a = replay(12, 1, 20, {0, 1, 2, 3})
        b = replay(12, 2, 20, {0, 1, 2, 3})
        assert a != b

    @pytest.mark.parametrize("seed", range(10))
    def test_guarantees_and_feasibility(self, seed):
        n = 12
        actions = replay(n, seed, 20, {0, 1, 2, 3})
        kinds = [a.kind for a in actions]
        # Acceptance-critical cycles are always present.
        assert "crash" in kinds and "restart" in kinds
        assert "partition" in kinds and "heal" in kinds
        assert "race" in kinds  # the reorder hazard fires in every soak
        # Replay the schedule symbolically: it must be feasible throughout
        # and end at a stable point.
        crashed: set = set()
        partitioned = False
        roster = {0, 1, 2, 3}
        for action in actions:
            if action.kind == "crash":
                assert action.target not in crashed
                crashed.add(action.target)
            elif action.kind == "restart":
                assert action.target in crashed
                crashed.discard(action.target)
            elif action.kind == "partition":
                assert not partitioned
                assert len(action.groups) == 2
                side, rest = (set(g) for g in action.groups)
                assert side | rest == set(range(n)) and not (side & rest)
                assert len(side) >= 2 and len(rest) >= 2
                partitioned = True
            elif action.kind == "heal":
                assert partitioned
                partitioned = False
            elif action.kind == "join":
                assert action.target not in roster
                roster.add(action.target)
            else:
                # A race is a leave plus an adjacent link flap from the
                # same switch -- roster-wise it behaves like a leave.
                assert action.kind in ("leave", "race")
                assert action.target in roster
                roster.discard(action.target)
                assert len(roster) >= 2
                if action.kind == "race":
                    assert not partitioned
        assert not crashed and not partitioned

    def test_small_net_never_partitions(self):
        """n < 4 cannot form two groups of >= 2, so no partition is drawn."""
        for seed in range(5):
            actions = replay(3, seed, 10, {0, 1})
            assert all(a.kind != "partition" for a in actions)

    def test_describe(self):
        assert ChaosAction("crash", 3).describe() == "crash 3"
        assert ChaosAction("heal").describe() == "heal"
        part = ChaosAction("partition", groups=((0, 1), (2, 3)))
        assert part.describe() == "partition0,1|2,3"


class TestChaosSettings:
    def test_live_config_carries_knobs(self):
        cfg = ChaosSettings(loss=0.25, duplicate_rate=0.05, seed=7).live_config()
        assert cfg.faults is not None
        assert cfg.faults.loss == 0.25
        assert cfg.faults.duplicate_rate == 0.05
        assert cfg.faults.seed == 7
        assert cfg.hello_interval > 0
        assert cfg.dead_interval > cfg.hello_interval


class TestCrashBlackhole:
    def test_send_toward_crashed_host_leaves_no_pending_state(self):
        """A crash must not let later traffic arm the retransmit budget:
        frames toward the corpse fail fast instead of wedging quiescence
        for ~12s of exponential backoff."""

        async def run():
            net = Network(3)
            for u, v in ((0, 1), (1, 2), (2, 0)):
                net.add_link(u, v, delay=1.0)
            fabric = LiveFabric(net)
            await fabric.start()
            try:
                await fabric.crash(2)
                before = dict(fabric.transport.counters())
                fabric.transport.send(
                    0, 2, McLsa(0, McEvent.LEAVE, 1, None, S(1))
                )
                pending = [
                    key for key in fabric.transport.pending_keys()
                    if key[1] == 2
                ]
                return pending, before, dict(fabric.transport.counters())
            finally:
                await fabric.shutdown()

        pending, before, after = asyncio.run(run())
        assert pending == []
        assert (
            after["live_blackholed_total"]
            >= before["live_blackholed_total"] + 1
        )
        assert (
            after["live_delivery_failures_total"]
            >= before["live_delivery_failures_total"] + 1
        )


class TestSoakSmoke:
    def test_small_seeded_soak_settles(self):
        report = run_chaos_soak_sync(
            ChaosSettings(switches=6, seed=7, actions=8, quiesce_timeout=30.0)
        )
        assert report.ok, report.violations
        assert report.checks >= 1
        assert report.crash_count >= 1
        assert report.restarted  # at least one cold restart happened
        # Resync rebuilt the restarted switches: handshakes really ran.
        assert report.counters["resync_dbd_sent_total"] >= 1
        assert report.counters["live_hellos_sent_total"] >= 1
        assert report.prom  # Prometheus dump for the CI artifact

    def test_report_summary_mentions_seed(self):
        report = run_chaos_soak_sync(
            ChaosSettings(switches=6, seed=7, actions=8, quiesce_timeout=30.0)
        )
        text = "\n".join(report.summary_lines())
        assert "seed 7" in text
        assert "violations: 0" in text
