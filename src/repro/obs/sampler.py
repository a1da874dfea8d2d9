"""A sampling profiler: where a run's CPU time goes, by layer and function.

``signal.setitimer(ITIMER_PROF, INTERVAL_S)`` interrupts the process after
every :data:`INTERVAL_S` of CPU time it uses (the kernel rounds up to its
tick: 4 ms on a 250 Hz kernel).
The handler walks the interrupted stack to the innermost frame of a
``repro`` module and charges the sample there: to that module's layer, to
its function, and to the pair (calling ``repro`` function, function).
Unlike the e2e tracer's wrappers (``benchmarks/e2e/trace.py``), whose own
cost lands in the caller, a sample costs the same wherever it lands, so a
layer that makes many small calls does not read high (docs/benchmarking.md,
"Sampled shares").

The layers are the e2e tracer's; :data:`MODULE_LAYERS` maps modules onto
them.  A sample in ``repro`` code no layer owns (topology generators,
workload generators, observability) goes to :data:`OTHER`, and one with no
``repro`` frame on the stack at all to :data:`OUTSIDE`.

Samples count only while :meth:`Sampler.armed` is active, so a harness can
confine them to its timed sections.  Signals reach the main thread only,
and ``ITIMER_PROF`` exists on POSIX only.
"""

from __future__ import annotations

import signal
from collections import Counter
from contextlib import contextmanager
from typing import Iterator, List

#: The e2e tracer's layer names (``benchmarks/e2e/trace.py`` ``LAYERS``).
LAYERS = (
    "sim",
    "core.timestamp",
    "core.switch",
    "trees",
    "lsr.flooding",
    "lsr.spf",
    "lsr.lsdb",
    "frr",
    "core.wire",
    "net.frames",
    "net.transport",
    "net.host",
    "dataplane",
)

#: Module (or package) -> layer; a module takes its longest listed prefix.
#: ``lsr.lsdb`` holds the router as the tracer's does (``UnicastRouter``).
MODULE_LAYERS = {
    "repro.sim": "sim",
    "repro.core": "core.switch",
    "repro.core.timestamp": "core.timestamp",
    "repro.core.wire": "core.wire",
    "repro.trees": "trees",
    "repro.lsr": "lsr.spf",
    "repro.lsr.flooding": "lsr.flooding",
    "repro.lsr.lsdb": "lsr.lsdb",
    "repro.lsr.router": "lsr.lsdb",
    "repro.frr": "frr",
    "repro.net": "net.host",
    "repro.net.frames": "net.frames",
    "repro.net.transport": "net.transport",
    "repro.dataplane": "dataplane",
}

OTHER = "other repro"
OUTSIDE = "outside repro"

#: CPU seconds between samples asked of the kernel.
INTERVAL_S = 0.001
#: Rows of the function and caller tables in a report.
TOP = 15


def layer_of(module: str) -> str:
    """The layer of a ``repro`` module, by its longest listed prefix."""
    parts = module.split(".")
    for cut in range(len(parts), 0, -1):
        layer = MODULE_LAYERS.get(".".join(parts[:cut]))
        if layer is not None:
            return layer
    return OTHER


def _innermost_repro(frame):
    """``frame`` or the nearest frame out of it that runs ``repro`` code."""
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module == "repro" or module.startswith("repro."):
            return frame
        frame = frame.f_back
    return None


class Sampler:
    """CPU-time samples of the innermost ``repro`` frame.

    Use as a context manager to install the handler and the timer, and
    :meth:`armed` around what should be sampled::

        with Sampler() as sampler:
            with sampler.armed():
                work()
        print(sampler.report())
    """

    def __init__(self) -> None:
        self.samples = 0
        self.layers: Counter = Counter()
        self.functions: Counter = Counter()
        #: ``(caller, function)`` -> samples; the caller is the next
        #: ``repro`` frame out (``None`` when there is none).
        self.callers: Counter = Counter()
        self._armed = False
        self._previous = None

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    @contextmanager
    def armed(self) -> Iterator[None]:
        """Count the samples that land inside this block."""
        self._armed = True
        try:
            yield
        finally:
            self._armed = False

    def _sample(self, signum, frame) -> None:
        # A tick that interrupts the handler itself is the profiler's cost.
        if not self._armed or frame.f_globals.get("__name__") == __name__:
            return
        self.samples += 1
        frame = _innermost_repro(frame)
        if frame is None:
            self.layers[OUTSIDE] += 1
            return
        self.layers[layer_of(frame.f_globals["__name__"])] += 1
        function = _function_name(frame)
        self.functions[function] += 1
        caller = _innermost_repro(frame.f_back)
        self.callers[(caller and _function_name(caller), function)] += 1

    def report(self) -> dict:
        """Shares of the samples: every layer, the :data:`TOP` functions
        and caller -> function pairs."""
        total = self.samples or 1

        def ranked(counter: Counter) -> List[tuple]:
            return [(key, count / total) for key, count in counter.most_common(TOP)]

        return {
            "samples": self.samples,
            "interval_s": INTERVAL_S,
            "layers": {
                layer: count / total for layer, count in self.layers.most_common()
            },
            "functions": [
                {"function": function, "share": share}
                for function, share in ranked(self.functions)
            ],
            "callers": [
                {"caller": caller, "function": function, "share": share}
                for (caller, function), share in ranked(self.callers)
            ],
        }


def _function_name(frame) -> str:
    code = frame.f_code
    name = getattr(code, "co_qualname", code.co_name)  # co_qualname: 3.11+
    return f"{frame.f_globals['__name__']}.{name}"
