"""Tests for mailboxes: FIFO delivery, one blocking receiver, non-blocking reads."""

from __future__ import annotations

import pytest

from repro.sim.kernel import Hold, Mailbox, Receive, SimulationError


class TestBasics:
    def test_send_then_receive_preserves_fifo(self, sim):
        box = Mailbox(sim)
        got = []

        def consumer():
            for _ in range(3):
                got.append((yield Receive(box)))

        for i in range(3):
            box.send(i)
        sim.spawn(consumer())
        sim.run()
        assert got == [0, 1, 2]

    def test_receive_blocks_until_send(self, sim):
        box = Mailbox(sim)
        got = []

        def consumer():
            got.append(((yield Receive(box)), sim.now))

        sim.spawn(consumer())
        sim.schedule(5.0, lambda: box.send("late"))
        sim.run()
        assert got == [("late", 5.0)]

    def test_second_blocked_receiver_is_rejected(self, sim):
        """One receiver per mailbox: parking a second would lose the first."""
        box = Mailbox(sim)

        def consumer():
            yield Receive(box)

        sim.spawn(consumer())
        sim.spawn(consumer())
        with pytest.raises(SimulationError, match="one receiver"):
            sim.run()

    def test_same_instant_sends_wake_once_and_queue_the_rest(self, sim):
        """The batch rule ReceiveLSA() relies on: the first message of an
        instant is the wake, the others are there to drain when it runs."""
        box = Mailbox(sim)
        batches = []

        def daemon():
            while True:
                batch = [(yield Receive(box))]
                while not box.empty:
                    batch.append(box.try_receive()[1])
                batches.append((sim.now, batch))
                yield Hold(0.5)

        sim.spawn(daemon())
        for i in range(3):
            sim.schedule(1.0, lambda i=i: box.send(i))
        sim.schedule(1.2, lambda: box.send("while busy"))
        sim.run()
        assert batches == [(1.0, [0, 1, 2]), (1.5, ["while busy"])]

    def test_len_and_empty(self, sim):
        box = Mailbox(sim)
        assert box.empty
        assert box.peek_all() == []
        box.send(1)
        assert not box.empty
        assert box.peek_all() == [1]

    def test_mailbox_is_truthy_even_when_empty(self, sim):
        box = Mailbox(sim)
        assert bool(box) is True

    def test_peek_all_does_not_consume(self, sim):
        box = Mailbox(sim)
        box.send("x")
        box.send("y")
        assert box.peek_all() == ["x", "y"]
        assert box.peek_all() == ["x", "y"]


class TestTryReceive:
    def test_try_receive_nonempty(self, sim):
        box = Mailbox(sim)
        box.send(7)
        ok, value = box.try_receive()
        assert ok and value == 7
        assert box.empty

    def test_try_receive_empty(self, sim):
        box = Mailbox(sim)
        ok, value = box.try_receive()
        assert not ok and value is None
