"""The discrete-event kernel: a heap, a process and a CPU.

The paper's two protocol entities are CSIM processes that block on a
mailbox and hold one CPU for Tc.  The mailbox is plain data on the protocol's
own state (``DgmcSwitch.deliver_mc_lsa``); what is left of CSIM is this:

* :class:`Simulator` -- a binary heap of ``(time, seq, action)`` entries,
  a FIFO of the actions due at the current instant, and the simulated clock,
* :class:`Process` -- one ``send()``-driven body that yields
  :class:`Hold` or a facility :class:`Request`,
* :class:`Facility` -- one server with a FIFO wait queue.

**The order contract.**  Entries dispatch in ``(time, seq)`` order and
``seq`` is a global counter drawn at scheduling time, so same-time
entries run in the order they were scheduled and a run is a pure function
of its inputs (DESIGN.md invariant 7).  Everything that resumes a process
is its own deferred dispatch, scheduled with zero delay at the instant it
becomes due and never run inline, so it runs after the code that caused
it: the first step of a spawned process, a CPU grant (immediate or handed
over by :meth:`Facility.release`), and the end of a :class:`Hold`.  That
same-instant LSAs drain as one ``ReceiveLSA()`` batch is the same deferral
applied by the switch, and is stated there (``DgmcSwitch.deliver_mc_lsa``).

**Wake runs.**  :meth:`Simulator.schedule_wake` is a zero-delay entry that
many wakes share: a wake joins the *open run* -- the current instant's
FIFO tail, when that tail is a run of the same dispatch function -- and
otherwise opens a new run at the tail.  The run, when dispatched, hands
every wake enrolled in it to its dispatch function at once, in enrolment
order.  A run is the FIFO tail exactly while nothing else was scheduled
for this instant since it opened, so each wake lands where a zero-delay
entry of its own would have sat, right behind the wakes before it: the
order is still ``(time, seq)`` order, with one dispatch per run.  A flood
reaching ~400 switches at ~14 arrival instants is ~14 runs, not ~400
entries.

Zero-delay work never touches the heap.  An action whose time equals
``now`` is appended to the current instant's FIFO; dispatch takes from the
heap while its head is due (``time <= now``), else from the FIFO, else
advances the clock to the heap's head.  That *is* ``(time, seq)`` order:
every heap entry due at instant t was scheduled before t began, so its
``seq`` is smaller than that of anything scheduled during t; and what is
scheduled during t for t runs first-scheduled-first, which is a FIFO.  A
flood of :class:`~repro.lsr.flooding.FloodingFabric` is one heap entry per
distinct arrival instant, not one per destination (see there).
The explorer (:mod:`repro.stress`) replays schedules against this order,
and the seeded counts of ``benchmarks/e2e/run.py --selfcheck`` are bound to
it; ``tests/test_sim_order_contract.py`` pins one run of it and
``tests/test_sim_properties.py`` checks it against a plain heap.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from functools import partial
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.obs import tracer as obs_tracer

#: Entries this close to the current time belong to the current instant.
_INSTANT = 1e-9


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. scheduling in the past)."""


class Simulator:
    """The event heap and the simulated clock.

    The public surface:

    * :attr:`now` -- current simulated time,
    * :meth:`schedule` / :meth:`schedule_at` -- run a callback later,
    * :meth:`schedule_wake` -- enrol a zero-delay wake into the open run,
    * :meth:`spawn` -- start a process,
    * :meth:`run` -- drive the event loop; :meth:`step`, :meth:`peek`,
      :meth:`run_instant` and :meth:`advance_to_next` drive it piecewise
      (the live pump and the systematic explorer).
    """

    def __init__(self) -> None:
        #: Current simulated time (read it; only dispatch moves it).
        self.now = 0.0
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        #: Actions due at the current instant, in the order they were scheduled.
        self._fifo: Deque[Callable[[], None]] = deque()
        self._seq = itertools.count()
        self._running = False
        #: Number of events dispatched so far (diagnostic).
        self.events_dispatched = 0

    @property
    def queue_depth(self) -> int:
        """Pending entries: the current instant's FIFO plus the heap."""
        return len(self._fifo) + len(self._heap)

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Schedule ``action`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        if time == self.now:
            self._fifo.append(action)
        else:
            heapq.heappush(self._heap, (time, next(self._seq), action))

    def schedule_at(self, time: float, action: Callable[[], None]) -> None:
        """Schedule ``action`` at an absolute simulated time."""
        self.schedule(time - self.now, action)

    def schedule_wake(self, item: Any, dispatch: Callable[[List[Any]], None]) -> None:
        """Wake ``item`` at the current instant, in the open wake run.

        When the FIFO's tail is a run of ``dispatch`` (nothing else was
        scheduled for this instant since it opened) ``item`` joins it;
        else ``item`` opens a new run there.  The run is one entry that
        calls ``dispatch(items)`` with its items in enrolment order (the
        module docstring has why that is ``(time, seq)`` order).
        ``dispatch`` is compared by identity, so pass a plain function.
        """
        fifo = self._fifo
        if fifo:
            run = fifo[-1]
            if type(run) is partial and run.func is dispatch:
                run.args[0].append(item)
                return
        # The run is the partial itself, so dispatching it is no Python call.
        fifo.append(partial(dispatch, [item]))

    def spawn(self, body: Any) -> None:
        """Start a process; its first step is an entry at the current instant.

        ``body`` is a generator, or any object with a generator's
        ``send`` (a tracer may wrap the generator in a proxy).
        """
        self.schedule(0.0, Process(self, body).resume)

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` if nothing is pending."""
        if self._fifo:
            return self.now
        return self._heap[0][0] if self._heap else None

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
            "dispatch", cat="kernel", sim_time=self.now, queue_depth=self.queue_depth
        ):
            return self._step()

    def _step(self) -> bool:
        # Heap entries due by now were scheduled before this instant began,
        # so they precede everything the instant itself appended.
        heap = self._heap
        if heap and (heap[0][0] <= self.now or not self._fifo):
            time, _, action = heapq.heappop(heap)
            if time < self.now - 1e-12:
                raise SimulationError("event heap corrupted: time went backwards")
            if time > self.now:
                self.now = time
        elif self._fifo:
            action = self._fifo.popleft()
        else:
            return False
        self.events_dispatched += 1
        action()
        return True

    def run(self, until: Optional[float] = None) -> float:
        """Run until nothing is pending or ``until`` is reached.

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
                return self._run_loop(until, self._step)
            # The outer span covers the whole loop (heap peeks included);
            # dispatch spans nest inside it.
            with tracer.span("run", cat="kernel", sim_time=self.now):
                return self._run_loop(until, self.step)
        finally:
            self._running = False

    def _run_loop(self, until: Optional[float], step: Callable[[], bool]) -> float:
        heap, fifo = self._heap, self._fifo
        while fifo or heap:
            if until is not None and not fifo and heap[0][0] > until:
                self.now = until
                break
            step()
        return self.now

    def run_instant(self) -> int:
        """Dispatch every event scheduled at the *current* instant.

        Deterministic branch-point hook for the systematic explorer
        (:mod:`repro.stress`): after an externally chosen action (an LSA
        delivery, an injected event), the zero-delay cascade it triggers
        -- process wake-ups, inbox drains, flood bookkeeping -- runs to
        completion while strictly-future events (topology-computation
        completions) stay queued as further branch points.  Returns the
        number of events dispatched.
        """
        dispatched = 0
        horizon = self.now + _INSTANT
        heap, fifo = self._heap, self._fifo
        while fifo or (heap and heap[0][0] <= horizon):
            self.step()
            dispatched += 1
        return dispatched

    def advance_to_next(self) -> Optional[float]:
        """Advance to the next scheduled instant and drain it entirely.

        The explorer's ``advance`` transition: jump the clock to the
        earliest pending event (deterministically -- ties broken by the
        heap's ``(time, seq)`` order), dispatch it, then drain the
        zero-delay cascade at that instant via :meth:`run_instant`.
        Returns the new simulated time, or ``None`` when nothing is
        pending.
        """
        if self.peek() is None:
            return None
        self.step()
        self.run_instant()
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Simulator(now={self.now:.6g}, pending={self.queue_depth})"


class Command:
    """Base class for objects a process body may yield to the kernel."""

    __slots__ = ()

    def apply(self, proc: "Process") -> None:
        raise NotImplementedError


class Process:
    """Drives one body: resume it, apply the command it yields, repeat.

    A process is referenced only by whatever will resume it next -- a
    kernel entry or the facility it queues for -- so a finished process is
    garbage.
    """

    __slots__ = ("sim", "_body")

    def __init__(self, sim: Simulator, body: Any) -> None:
        self.sim = sim
        self._body = body

    def resume(self) -> None:
        """Run the body to its next ``yield`` and apply the command it yields.

        An exception raised by the body propagates out of the dispatching
        :meth:`Simulator.step`.
        """
        try:
            command = self._body.send(None)
        except StopIteration:
            return
        if not isinstance(command, Command):
            raise SimulationError(
                f"{self._body!r} yielded unsupported object {command!r}; "
                "yield Hold or a facility request"
            )
        command.apply(self)


class Hold(Command):
    """Suspend the process for ``delay`` simulated time units."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"Hold delay must be >= 0, got {delay}")
        self.delay = delay

    def apply(self, proc: Process) -> None:
        proc.sim.schedule(self.delay, proc.resume)


class Request(Command):
    """Yieldable command that acquires a facility's server."""

    __slots__ = ("facility",)

    def __init__(self, facility: "Facility") -> None:
        self.facility = facility

    def apply(self, proc: Process) -> None:
        facility = self.facility
        if facility.busy:
            facility._waiters.append(proc)
        else:
            facility.busy = True
            facility.sim.schedule(0.0, proc.resume)


class Facility:
    """One server with a FIFO wait queue (a switch CPU).

    Processes acquire it with ``yield facility.request()`` and must call
    :meth:`release` exactly once when done; releasing an idle facility
    raises.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        #: Whether a process holds (or has just been granted) the server.
        self.busy = False
        self._waiters: Deque[Process] = deque()

    def request(self) -> Request:
        """Return the yieldable acquire command for this facility."""
        return Request(self)

    def release(self) -> None:
        """Release the server; hands it to the oldest waiter if any."""
        if not self.busy:
            raise SimulationError("release() on an idle facility")
        if self._waiters:
            # Hand over the server without dropping occupancy.
            self.sim.schedule(0.0, self._waiters.popleft().resume)
        else:
            self.busy = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "busy" if self.busy else "idle"
        return f"Facility({state}, queued={len(self._waiters)})"
