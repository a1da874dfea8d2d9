"""End-to-end tests of the live UDP runtime and the equivalence harness.

The acceptance bar of the live backend: a 12-switch seeded scenario run
over real loopback sockets converges to *byte-identical* installed trees
vs. the discrete-event simulation (zero loss), and still reaches
agreement with 10% injected datagram loss.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.events import JoinEvent, NodeEvent
from repro.core.lsa import McEvent, McLsa
from repro.core.protocol import ProtocolConfig
from repro.core.timestamp import Stamp
from repro.net.equiv import (
    check_equivalence,
    make_scenario,
    run_discrete,
    run_live,
)
from repro.net.fabric import LiveConfig, LiveFabric, PumpFailure
from repro.net.faults import FaultPlan
from repro.net.frames import McSnapshot
from repro.net.resync import ResyncManager
from repro.net.transport import RetransmitPolicy
from repro.obs import flight
from repro.topo.generators import ring_network


LOSSY = LiveConfig(
    faults=FaultPlan(loss=0.10, seed=7),
    policy=RetransmitPolicy(rto=0.01, rto_max=0.1, max_attempts=60),
)


class TestEquivalence:
    def test_12_switches_zero_loss_byte_identical(self):
        """The tentpole acceptance: live == simulated, as wire bytes."""
        scenario = make_scenario(switches=12, seed=1996, events=8)
        discrete = run_discrete(scenario)
        live = run_live(scenario)
        assert discrete.agreed, discrete.detail
        assert live.agreed, live.detail
        report = check_equivalence(discrete, live)
        assert report.ok, report.detail
        # Byte-identical means the tree *bytes* match, not just flags.
        assert live.trees == discrete.trees
        assert any(tree for tree in live.trees.values())
        assert live.members == discrete.members

    def test_12_switches_with_loss_still_agrees(self):
        scenario = make_scenario(switches=12, seed=1996, events=8)
        live = run_live(scenario, live=LOSSY)
        assert live.agreed, live.detail
        assert live.counters["live_drops_injected_total"] > 0
        assert live.counters["live_retransmits_total"] > 0
        assert live.counters["live_delivery_failures_total"] == 0

    def test_loss_preserves_tree_bytes_too(self):
        """Barrier pacing + reliable transport: loss changes nothing final."""
        scenario = make_scenario(switches=8, seed=3, events=5)
        discrete = run_discrete(scenario)
        live = run_live(scenario, live=LOSSY)
        report = check_equivalence(discrete, live)
        assert report.ok, report.detail

    def test_different_seeds_differ(self):
        """The harness is not vacuous: seeds actually change the outcome."""
        a = run_discrete(make_scenario(switches=8, seed=1, events=5))
        b = run_discrete(make_scenario(switches=8, seed=2, events=5))
        assert a.trees != b.trees or a.members != b.members

    def test_check_equivalence_flags_divergence(self):
        scenario = make_scenario(switches=6, seed=4, events=3)
        discrete = run_discrete(scenario)
        live = run_live(scenario)
        tampered = live.trees.copy()
        victim = min(tampered)
        tampered[victim] = b"\x00bogus"
        live.trees = tampered
        report = check_equivalence(discrete, live)
        assert not report.ok
        assert f"switches [{victim}]" in report.detail

    def test_scenario_events_well_separated(self):
        scenario = make_scenario(switches=8, seed=5, events=4)
        times = [at for at, _ in scenario.timeline]
        assert times == sorted(times)
        round_length = (
            scenario.net.flooding_diameter(per_hop_delay=scenario.per_hop_delay)
            + scenario.compute_time
        )
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert min(gaps) >= 5.0 * round_length


class TestLiveFabric:
    def test_shutdown_is_graceful_and_idempotent(self):
        async def run():
            scenario = make_scenario(switches=5, seed=9, events=2)
            fabric = LiveFabric(scenario.net.copy(), scenario.config)
            fabric.register_symmetric(scenario.connection_id)
            for at, event in scenario.timeline:
                fabric.inject(event, at=at)
            await fabric.run()
            await fabric.shutdown()
            await fabric.shutdown()  # second call must be a no-op
            assert all(host._task is None for host in fabric.hosts.values())
            return fabric

        fabric = asyncio.run(run())
        ok, detail = fabric.agreement(1)
        assert ok, detail

    @pytest.mark.parametrize("events", [0, 4])
    def test_run_pays_one_barrier_per_event(self, events):
        async def run():
            scenario = make_scenario(switches=5, seed=9, events=2)
            fabric = LiveFabric(scenario.net.copy(), scenario.config)
            fabric.register_symmetric(scenario.connection_id)
            barriers = []
            quiesce = fabric.quiesce

            async def counted(timeout=None):
                barriers.append(1)
                await quiesce(timeout)

            fabric.quiesce = counted
            for at, event in scenario.timeline[:events]:
                fabric.inject(event, at=at)
            try:
                await fabric.run()
            finally:
                await fabric.shutdown()
            return fabric.events_injected, len(barriers), fabric.agreement(1)

        fired, barriers, (ok, detail) = asyncio.run(run())
        assert fired == events
        assert barriers == max(events, 1)
        assert ok, detail

    def test_node_events_rejected_with_pointer(self):
        scenario = make_scenario(switches=5, seed=9, events=2)
        fabric = LiveFabric(scenario.net.copy(), scenario.config)
        with pytest.raises(NotImplementedError, match="live-runtime"):
            fabric.inject(NodeEvent(2, up=False), at=1.0)

    def test_install_log_populated(self):
        async def run():
            scenario = make_scenario(switches=5, seed=9, events=2)
            fabric = LiveFabric(scenario.net.copy(), scenario.config)
            fabric.register_symmetric(scenario.connection_id)
            for at, event in scenario.timeline:
                fabric.inject(event, at=at)
            try:
                await fabric.run()
            finally:
                await fabric.shutdown()
            return fabric

        fabric = asyncio.run(run())
        assert fabric.install_log
        switches = {rec.switch for rec in fabric.install_log}
        assert len(switches) > 1  # installs happened network-wide

    def test_back_to_back_events_converge(self):
        """Events racing on the wire (no barrier between them) still reach
        agreement."""

        async def run():
            scenario = make_scenario(switches=6, seed=11, events=3)
            fabric = LiveFabric(scenario.net.copy(), scenario.config)
            fabric.register_symmetric(scenario.connection_id)
            try:
                await fabric.start()
                for _, event in scenario.timeline:
                    fabric.fire_event(event)
                await fabric.quiesce()
                return fabric.agreement(scenario.connection_id)
            finally:
                await fabric.shutdown()

        ok, detail = asyncio.run(run())
        assert ok, detail

    def test_duplicate_connection_rejected(self):
        scenario = make_scenario(switches=5, seed=9, events=2)
        fabric = LiveFabric(scenario.net.copy(), scenario.config)
        fabric.register_symmetric(1)
        with pytest.raises(ValueError, match="already registered"):
            fabric.register_symmetric(1)


class TestIngestValidation:
    """A frame that decodes must not kill (or wedge) a host."""

    def test_out_of_range_indices_are_rejected_and_the_pump_survives(self):
        """Regression: a stamp the codec accepts but the network cannot
        own used to raise inside ``sim.step()`` (wrong length) and kill
        the pump task silently; sparse stamps would instead absorb the
        bogus origin into E and never propose again.  A frame naming a
        connection that is not provisioned used to raise ``KeyError`` out
        of the datagram callback, after it was acked.  Every frame below
        travels the real path: encode, UDP, decode, ingest."""

        async def run():
            scenario = make_scenario(switches=5, seed=9, events=2)
            fabric = LiveFabric(scenario.net.copy(), scenario.config)
            fabric.register_symmetric(1)
            await fabric.start()
            try:
                fabric.fire_event(JoinEvent(0, 1))
                await fabric.quiesce()
                victim = fabric.hosts[2]
                expected_before = victim.states[1].expected.snapshot()
                bogus = Stamp({0: 1, 4000: 7})
                fabric.transport.send(
                    1, 2, McLsa(1, McEvent.LEAVE, 1, None, bogus)
                )
                fabric.transport.send(
                    1, 2, McLsa(4000, McEvent.LEAVE, 1, None, Stamp({0: 2}))
                )
                fabric.transport.send_snap(
                    1, 2, McSnapshot(1, bogus, bogus, Stamp(), 5, Stamp(), (), None)
                )
                fine = Stamp({1: 1})
                fabric.transport.send(1, 2, McLsa(1, McEvent.LEAVE, 99, None, fine))
                fabric.transport.send_snap(
                    1, 2, McSnapshot(99, fine, fine, Stamp(), 1, Stamp(), (), None)
                )
                await fabric.quiesce()
                assert not victim._task.done()  # the pump is still running
                assert victim.states[1].expected == expected_before
                assert 99 not in victim.states  # no state from a rejected frame
                # ... and still doing its job.
                fabric.fire_event(JoinEvent(2, 1))
                await fabric.quiesce()
                return fabric.agreement(1), fabric.metrics.snapshot()
            finally:
                await fabric.shutdown()

        (ok, detail), counters = asyncio.run(run())
        assert ok, detail
        assert counters['live_rejected_total{reason="stamp-origin-out-of-range"}'] == 2
        assert counters['live_rejected_total{reason="source-out-of-range"}'] == 1
        assert counters['live_rejected_total{reason="unknown-connection"}'] == 2


class TestPumpSupervision:
    """A host whose pump task dies fails the barrier at once, by name."""

    @staticmethod
    async def fabric_with_a_doomed_host(boom: Exception) -> LiveFabric:
        fabric = LiveFabric(
            ring_network(4), ProtocolConfig(), LiveConfig(quiesce_timeout=3.0)
        )
        fabric.register_symmetric(1)
        await fabric.start()

        def explode(record, batch):
            raise boom

        fabric.hosts[2].switch._transition = explode
        return fabric

    def test_dead_pump_raises_a_named_failure_at_the_next_poll(self, tmp_path):
        boom = RuntimeError("inbox drain exploded")

        async def run():
            fabric = await self.fabric_with_a_doomed_host(boom)
            recorder = flight.install_recorder(flight.FlightRecorder(str(tmp_path)))
            loop = asyncio.get_running_loop()
            try:
                fabric.fire_event(JoinEvent(0, 1))
                started = loop.time()
                with pytest.raises(PumpFailure) as first:
                    await fabric.quiesce()
                elapsed = loop.time() - started
                with pytest.raises(PumpFailure):  # and every barrier after
                    await fabric.quiesce()
                return first.value, elapsed, fabric.metrics.snapshot(), recorder.dumps
            finally:
                flight.uninstall_recorder()
                await fabric.shutdown()  # already reported: no second raise

        failure, elapsed, counters, dumps = asyncio.run(run())
        assert elapsed < 1.0  # not the 3 s quiesce_timeout
        assert "host 2" in str(failure) and "inbox drain exploded" in str(failure)
        assert failure.__cause__ is boom
        assert counters["live_pump_failures_total"] == 1
        assert len(dumps) == 1 and "pump-failure" in dumps[0]

    def test_shutdown_raises_a_failure_no_barrier_reported(self):
        boom = RuntimeError("inbox drain exploded")

        async def run():
            fabric = await self.fabric_with_a_doomed_host(boom)
            fabric.fire_event(JoinEvent(0, 1))
            deadline = asyncio.get_running_loop().time() + 1.0
            while not fabric.metrics.snapshot()["live_pump_failures_total"]:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.005)
            with pytest.raises(PumpFailure) as info:
                await fabric.shutdown()
            return fabric, info.value

        fabric, failure = asyncio.run(run())
        assert failure.__cause__ is boom
        assert fabric.transport.idle  # torn down whole before the raise
        assert all(e.is_closing() for e in fabric.transport._endpoints.values())
        assert all(host._task is None for host in fabric.hosts.values())

    def test_dead_hello_task_is_reported_and_shutdown_completes(self, monkeypatch):
        boom = RuntimeError("hello exploded")
        send_hellos = ResyncManager.send_hellos

        def doomed_send_hellos(self):
            if self.host.switch_id == 2:
                raise boom
            send_hellos(self)

        monkeypatch.setattr(ResyncManager, "send_hellos", doomed_send_hellos)

        async def run():
            fabric = LiveFabric(
                ring_network(4), ProtocolConfig(), LiveConfig(hello_interval=0.01)
            )
            fabric.register_symmetric(1)
            await fabric.start()
            while fabric.hosts[2]._hello_task is not None and not (
                fabric.hosts[2]._hello_task.done()
            ):
                await asyncio.sleep(0.005)
            with pytest.raises(PumpFailure) as info:
                await fabric.shutdown()
            return fabric, info.value

        fabric, failure = asyncio.run(run())
        assert "host 2" in str(failure) and failure.__cause__ is boom
        assert all(
            host._task is None and host._hello_task is None
            for host in fabric.hosts.values()
        )
        assert all(e.is_closing() for e in fabric.transport._endpoints.values())
        assert fabric.metrics.snapshot()["live_pump_failures_total"] == 1


class TestLiveCli:
    def test_live_command_zero_loss_with_equivalence(self, capsys, tmp_path):
        from repro.cli import main

        metrics = tmp_path / "live.prom"
        code = main(
            [
                "live",
                "--switches", "8",
                "--events", "4",
                "--seed", "1996",
                "--check-equivalence",
                "--metrics", str(metrics),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "agreement: True" in out
        assert "equivalence vs discrete-event backend: True" in out
        assert "live_datagrams_sent_total" in out
        assert "live_retransmits_total" in out
        prom = metrics.read_text()
        assert "# TYPE live_datagrams_sent_total counter" in prom

    def test_live_command_with_loss(self, capsys):
        from repro.cli import main

        code = main(
            ["live", "--switches", "6", "--events", "3", "--loss", "0.1"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "loss=0.1" in out


class TestBootSeeding:
    def test_no_boot_flood_crosses_the_wire(self):
        """seed_converged_lsdb derives peers' LSAs locally: joining the
        first member is the first traffic ever sent."""

        async def run():
            scenario = make_scenario(switches=6, seed=13, events=2)
            fabric = LiveFabric(scenario.net.copy(), scenario.config)
            fabric.register_symmetric(1)
            try:
                await fabric.start()
                await fabric.quiesce()
                counters_before = dict(fabric.counters())
                fabric._fire(JoinEvent(0, 1))
                await fabric.quiesce()
                counters_after = dict(fabric.counters())
                return counters_before, counters_after
            finally:
                await fabric.shutdown()

        before, after = asyncio.run(run())
        assert before["live_datagrams_sent_total"] == 0
        assert after["live_datagrams_sent_total"] > 0
