"""The simulation event loop and clock.

The kernel is a classic calendar-queue discrete-event simulator: a binary
heap of ``(time, priority, sequence, event)`` tuples.  The ``sequence``
counter is unique, so it breaks ties deterministically -- which makes
every run with the same seed bit-for-bit reproducible (DESIGN.md
invariant 7) -- and heap comparisons never reach the event object: they
are plain tuple compares, done in C.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Iterator, List, Optional, Tuple

from repro.obs import tracer as obs_tracer


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. scheduling in the past)."""


class _ScheduledEvent:
    """The handle of one scheduled action (the heap orders by the tuple
    around it, never by this object)."""

    __slots__ = ("action", "cancelled")

    def __init__(self, action: Callable[[], None]) -> None:
        self.action = action
        self.cancelled = False

    def cancel(self) -> None:
        """Mark this event so the kernel skips it when popped."""
        self.cancelled = True


class SimEvent:
    """A condition that processes can wait on and that can be fired once.

    Comparable to a CSIM *event*: zero or more processes block on it via
    :class:`~repro.sim.process.WaitEvent`; :meth:`fire` wakes them all and
    records an optional payload value.  A fired event stays fired (waiting
    on it afterwards returns immediately), unless :meth:`reset` is called.
    """

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self._sim = sim
        self.name = name
        self.fired = False
        self.value: Any = None
        self._waiters: list[Callable[[Any], None]] = []

    def fire(self, value: Any = None) -> None:
        """Fire the event, waking every waiter at the current time."""
        if self.fired:
            return
        self.fired = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for wake in waiters:
            self._sim.schedule(0.0, lambda w=wake: w(value))

    def reset(self) -> None:
        """Return the event to the un-fired state (waiters are unaffected)."""
        self.fired = False
        self.value = None

    def add_waiter(self, wake: Callable[[Any], None]) -> None:
        """Register a wake callback; invoked immediately if already fired."""
        if self.fired:
            self._sim.schedule(0.0, lambda: wake(self.value))
        else:
            self._waiters.append(wake)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "fired" if self.fired else f"{len(self._waiters)} waiting"
        return f"SimEvent({self.name!r}, {state})"


class Simulator:
    """Discrete-event simulation kernel with a process scheduler.

    The public surface:

    * :attr:`now` -- current simulated time,
    * :meth:`schedule` -- run a callback after a delay,
    * :meth:`spawn` -- start a generator-based process,
    * :meth:`run` -- drive the event loop,
    * :meth:`event` -- create a :class:`SimEvent` bound to this kernel.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[Tuple[float, int, int, _ScheduledEvent]] = []
        self._seq = itertools.count()
        self._processes: list[Any] = []
        self._running = False
        #: Number of events dispatched so far (diagnostic).
        self.events_dispatched = 0

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def queue_depth(self) -> int:
        """Pending entries in the event heap (cancelled entries included)."""
        return len(self._heap)

    def schedule(
        self,
        delay: float,
        action: Callable[[], None],
        priority: int = 0,
    ) -> _ScheduledEvent:
        """Schedule ``action`` to run ``delay`` time units from now.

        Returns the heap entry, whose :meth:`~_ScheduledEvent.cancel` method
        can be used to retract the event before it fires.  ``priority``
        breaks same-time ties (lower runs first).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        entry = _ScheduledEvent(action)
        heapq.heappush(
            self._heap, (self._now + delay, priority, next(self._seq), entry)
        )
        return entry

    def schedule_at(
        self, time: float, action: Callable[[], None], priority: int = 0
    ) -> _ScheduledEvent:
        """Schedule ``action`` at an absolute simulated time."""
        return self.schedule(time - self._now, action, priority)

    def spawn(self, generator: Iterator[Any], name: Optional[str] = None) -> Any:
        """Start a new process from a generator; it runs at the current time.

        Returns the :class:`~repro.sim.process.Process` wrapper.
        """
        from repro.sim.process import Process  # local import to avoid a cycle

        proc = Process(self, generator, name=name)
        self._processes.append(proc)
        self.schedule(0.0, proc._step_none)
        return proc

    def event(self, name: str = "") -> SimEvent:
        """Create a new :class:`SimEvent` bound to this simulator."""
        return SimEvent(self, name)

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` if the heap is empty."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Dispatch a single event.  Returns ``False`` when nothing is left.

        When the process-wide tracer is enabled, each dispatch runs inside
        a ``dispatch`` span (category ``kernel``) carrying the simulated
        time and queue depth; the disabled path costs one attribute check.
        """
        tracer = obs_tracer.TRACER
        if not tracer.enabled:
            return self._step()
        with tracer.span(
            "dispatch", cat="kernel", sim_time=self._now, queue_depth=len(self._heap)
        ):
            return self._step()

    def _step(self) -> bool:
        while self._heap:
            time, _, _, entry = heapq.heappop(self._heap)
            if entry.cancelled:
                continue
            if time < self._now - 1e-12:
                raise SimulationError("event heap corrupted: time went backwards")
            self._now = max(self._now, time)
            self.events_dispatched += 1
            entry.action()
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run until the heap drains, ``until`` is reached, or ``max_events``.

        Returns the simulated time at which the loop stopped.  When stopping
        on ``until``, the clock is advanced to exactly ``until`` (events at
        later times stay queued).
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        tracer = obs_tracer.TRACER
        try:
            if not tracer.enabled:
                return self._run_loop(until, max_events)
            # The outer span makes the whole loop (heap peeks included)
            # attributable in the per-phase profile; dispatch spans nest
            # inside it, so kernel self-time is genuine loop overhead.
            with tracer.span("run", cat="kernel", sim_time=self._now):
                return self._run_loop(until, max_events)
        finally:
            self._running = False

    def _run_loop(
        self, until: Optional[float], max_events: Optional[int]
    ) -> float:
        dispatched = 0
        while True:
            nxt = self.peek()
            if nxt is None:
                break
            if until is not None and nxt > until:
                self._now = until
                break
            if max_events is not None and dispatched >= max_events:
                break
            self.step()
            dispatched += 1
        return self._now

    def run_instant(self, eps: float = 1e-9) -> int:
        """Dispatch every event scheduled at the *current* instant.

        Deterministic branch-point hook for the systematic explorer
        (:mod:`repro.stress`): after an externally chosen action (an LSA
        delivery, an injected event), the zero-delay cascade it triggers
        -- process wake-ups, mailbox drains, flood bookkeeping -- runs to
        completion while strictly-future events (topology-computation
        completions) stay queued as further branch points.  Returns the
        number of events dispatched.
        """
        dispatched = 0
        anchor = self._now
        while True:
            nxt = self.peek()
            if nxt is None or nxt > anchor + eps:
                break
            self.step()
            dispatched += 1
        return dispatched

    def advance_to_next(self, eps: float = 1e-9) -> Optional[float]:
        """Advance to the next scheduled instant and drain it entirely.

        The explorer's ``advance`` transition: jump the clock to the
        earliest pending event (deterministically -- ties broken by the
        heap's ``(time, priority, seq)`` order), dispatch it, then drain
        the zero-delay cascade at that instant via :meth:`run_instant`.
        Returns the new simulated time, or ``None`` when nothing is
        pending.
        """
        if self.peek() is None:
            return None
        self.step()
        self.run_instant(eps)
        return self._now

    def run_until_quiescent(
        self, idle_check: Callable[[], bool], max_time: float = float("inf")
    ) -> float:
        """Run until the heap drains *and* ``idle_check()`` holds, or ``max_time``.

        Useful for protocols where quiescence involves external state (e.g.
        all mailboxes empty) in addition to an empty event heap.
        """
        while True:
            nxt = self.peek()
            if nxt is None:
                if idle_check():
                    break
                raise SimulationError(
                    "event heap drained but idle_check() is false: deadlock"
                )
            if nxt > max_time:
                self._now = max_time
                break
            self.step()
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Simulator(now={self._now:.6g}, pending={len(self._heap)})"
