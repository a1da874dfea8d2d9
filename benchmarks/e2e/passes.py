"""The two passes over one workload, each run in its own fresh process.

* :func:`timed_pass` -- tracing off, no wrappers installed (checked): the
  end-to-end metrics.  Set-up is repeated and its median reported.
* :func:`traced_pass` -- wrappers and the bench tracer installed: every
  per-layer metric.  A short untraced stretch runs first so the tracing
  overhead is measured inside the same process.

Both are time-boxed (``seconds`` of rounds after set-up) but always run
the workload's fixed *prefix* of rounds first; the protocol's per-event
counts and the input digest are taken over that prefix only, so they
repeat exactly however many further rounds the machine had time for.
"""

from __future__ import annotations

import gc
import os
import resource
import tracemalloc
from time import perf_counter
from typing import Dict, List, Optional

from . import metrics as mx
from . import workloads as wl
from .clock import Clock, median, percentile
from .scenarios import Round, Scenario, make_scenario
from .trace import Trace, installed_wrappers

#: Set-ups per timed pass (the median is reported).
SETUP_REPEATS = 3

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def _prefix_rounds(spec: wl.Spec, quick: bool) -> int:
    return spec.quick_prefix_rounds if quick else spec.prefix_rounds


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


class _Collector:
    """Rounds of one stretch: the window totals and the latency samples."""

    def __init__(self) -> None:
        self.window = mx.Window()
        self.raw_ms: List[float] = []
        self.norm_ms: List[float] = []
        self.converge: List[float] = []
        self.rounds = 0

    def add(self, rnd: Round) -> None:
        self.window.add(rnd)
        self.rounds += 1
        for raw, norm in rnd.samples:
            self.raw_ms.append(raw)
            self.norm_ms.append(norm)
        self.converge.extend(rnd.converge)


def _base_result(
    spec, seed, kind, scenario: Scenario, window: mx.Window,
    extra_ops: int, extra_failed: int,
) -> dict:
    """Verdict over every checked operation, warm-up rounds included."""
    failed = window.failed + extra_failed
    return {
        "workload": spec.name,
        "seed": seed,
        "pass": kind,
        "correct": failed == 0,
        "attempted": window.ops + extra_ops,
        "failed": failed,
        "failures": scenario.failures,
    }


def _settle_heap() -> None:
    """Park the deployment in the collector's permanent generation.

    A converged deployment is hundreds of thousands of long-lived
    objects; left in generation 2, every full collection re-walks them
    (40 ms pauses at a ~10% rate on the data-plane workload, landing on
    or off the p90 by luck).  Freezing after set-up is what a
    long-running daemon would do after boot; young-generation
    collections of per-op garbage still run and still count.
    """
    gc.collect()
    gc.freeze()


def _refuse_wrappers() -> None:
    left = installed_wrappers()
    if left:
        raise RuntimeError(f"timed pass refused: trace wrappers installed: {left}")


def timed_pass(spec: wl.Spec, seed: int, seconds: float, quick: bool) -> dict:
    _refuse_wrappers()
    # The clock's probe arena (13 MB) is the instrument's, not the
    # program's: measure what it adds to the high-water mark and take
    # it off again below.
    rss_before_clock = _peak_rss_mb()
    clock = Clock()
    clock_rss_mb = _peak_rss_mb() - rss_before_clock

    scenario = make_scenario(spec, seed, clock)
    setups = [scenario.setup()]
    prefix = _prefix_rounds(spec, quick)
    digest = wl.Digest()
    timed = _Collector()
    _settle_heap()
    try:
        _refuse_wrappers()
        deadline = perf_counter() + seconds
        while timed.rounds < prefix or perf_counter() < deadline:
            timed.add(
                scenario.next_round(digest if timed.rounds < prefix else None)
            )
            if timed.rounds == prefix:
                # Logs grow with every round, and a faster commit fits
                # more rounds into the time box: read the high-water
                # mark after a fixed amount of work, not at exit -- one
                # deployment and its prefix rounds, nothing else yet.
                peak_rss_mb = _peak_rss_mb() - clock_rss_mb
    finally:
        scenario.teardown()

    # The further set-ups (the median is reported) come after the
    # measurement so their garbage is not in the memory figure.
    gc.unfreeze()
    for _ in range(SETUP_REPEATS - 1):
        again = make_scenario(spec, seed, clock)
        setups.append(again.setup())
        again.teardown()
        scenario.failures.extend(again.failures)
        del again
        gc.collect()

    result = _base_result(
        spec, seed, "timed", scenario, timed.window,
        sum(s[2] for s in setups), sum(s[3] for s in setups),
    )
    result["metrics"] = mx.end_to_end(
        [s[1] for s in setups], timed.norm_ms, timed.window, peak_rss_mb
    )
    result["info"] = {
        "rounds": timed.rounds,
        "events": timed.window.events,
        "samples": len(timed.norm_ms),
        "events_sha256": digest.hexdigest(),
        "prefix_rounds": prefix,
        "raw_setup_s": median([s[0] for s in setups]),
        "raw_op_ms_p50": median(timed.raw_ms),
        "raw_op_ms_p90": percentile(timed.raw_ms, 0.90),
        "raw_throughput_per_s": (
            timed.window.work / timed.window.busy_raw_s
            if timed.window.busy_raw_s else 0.0
        ),
        "slowdown_median": median(clock.slowdowns),
    }
    return result


def traced_pass(spec: wl.Spec, seed: int, seconds: float, quick: bool) -> dict:
    clock = Clock()
    trace = Trace()

    tracemalloc.start()
    base_bytes = tracemalloc.get_traced_memory()[0]
    scenario = make_scenario(spec, seed, clock, trace)
    _, _, extra_ops, extra_failed = scenario.setup()
    state_bytes = tracemalloc.get_traced_memory()[0] - base_bytes
    tracemalloc.stop()

    prefix = _prefix_rounds(spec, quick)
    digest = wl.Digest()
    reference = _Collector()
    traced = _Collector()
    prefix_window: Optional[mx.Window] = None
    _settle_heap()
    try:
        deadline = perf_counter() + seconds
        # Untraced reference stretch (fixed length, so the traced prefix
        # always starts from the same generator state).
        for _ in range(max(3, prefix // 2)):
            reference.add(scenario.next_round(None))
        trace.install()
        try:
            scenario.rebind()
            native_start = scenario.native()
            while traced.rounds < prefix or perf_counter() < deadline:
                trace.round_id = traced.rounds
                in_prefix = traced.rounds < prefix
                traced.add(scenario.next_round(digest if in_prefix else None))
                if traced.rounds == prefix:
                    prefix_window = mx.Window(**vars(traced.window))
                    prefix_native = _delta(scenario.native(), native_start)
                    prefix_converge = list(traced.converge)
                    prefix_ctrl_bytes = (
                        trace.counts["net.wire_bytes"]
                        if spec.kind == "live" else scenario.wire.ctrl_bytes
                    )
            native = _delta(scenario.native(), native_start)
        finally:
            trace.remove()
    finally:
        scenario.teardown()

    window = traced.window
    result = _base_result(
        spec, seed, "traced", scenario, window,
        extra_ops + reference.window.ops, extra_failed + reference.window.failed,
    )
    metrics = mx.protocol_metrics(
        prefix_native, prefix_window, prefix_ctrl_bytes, prefix_converge
    )
    metrics["fail_share"] = result["failed"] / result["attempted"]
    metrics.update(
        mx.layer_metrics(
            trace, scenario, native, window, traced.norm_ms, reference.norm_ms,
            state_bytes / scenario.state_units(),
        )
    )
    metrics["clock.slowdown_median"] = median(clock.slowdowns)
    metrics["clock.raw_op_ms_p50"] = median(reference.raw_ms)
    metrics["clock.op_ms_p50"] = median(reference.norm_ms)
    result["metrics"] = metrics
    os.makedirs(RESULTS_DIR, exist_ok=True)
    trace_path = os.path.join(RESULTS_DIR, f"TRACE_{spec.name}.json")
    trace.write_chrome(trace_path, spec.name)
    result["info"] = {
        "rounds": traced.rounds,
        "events": window.events,
        "samples": len(traced.norm_ms),
        "events_sha256": digest.hexdigest(),
        "prefix_rounds": prefix,
        "reference_rounds": reference.rounds,
        "spans_retained": len(trace.spans),
        "spans_dropped": trace.spans_dropped,
        "trace_file": os.path.relpath(trace_path),
    }
    return result
