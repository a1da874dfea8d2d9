"""The observability layer: tracer, metrics registry, attach plumbing, profiler."""

from __future__ import annotations

import json
import pathlib
import warnings

import pytest

from repro.core import DgmcNetwork, JoinEvent, ProtocolConfig
from repro.harness.metrics import TrialMetrics
from repro.obs import attach
from repro.obs.metrics import MetricsRegistry, merge_sum
from repro.obs.profile import PHASE_ORDER, PhaseBreakdown, run_profile
from repro.obs.tracer import (
    JsonlSink,
    RingBufferSink,
    TraceEvent,
    Tracer,
    get_tracer,
    use_tracer,
)
from repro.sim import Simulator
from repro.topo.generators import ring_network
from repro.obs.timeline import build_timeline

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_trace.json"


def ring_deployment(record_history: bool = False) -> DgmcNetwork:
    """The deterministic two-join scenario shared by the trace tests."""
    dgmc = DgmcNetwork(
        ring_network(6), ProtocolConfig(compute_time=0.5, per_hop_delay=0.05)
    )
    dgmc.fabric.record_history = record_history
    dgmc.register_symmetric(1)
    dgmc.inject(JoinEvent(0, 1), at=10.0)
    dgmc.inject(JoinEvent(3, 1), at=30.0)
    return dgmc


def traced_run(dgmc: DgmcNetwork) -> Tracer:
    tracer = Tracer(enabled=True)
    tracer.add_sink(RingBufferSink())
    with use_tracer(tracer):
        dgmc.run()
    return tracer


class TestSpans:
    def test_nesting_emits_in_exit_order_and_partitions_self_time(self):
        tracer = Tracer(enabled=True)
        ring = tracer.add_sink(RingBufferSink())
        with tracer.span("outer", cat="a"):
            with tracer.span("inner", cat="b"):
                pass
        assert [e.name for e in ring.events()] == ["inner", "outer"]
        outer = ring.events()[1]
        inner = ring.events()[0]
        # Self time (duration minus enclosed spans) partitions the outer
        # span exactly: a + b == outer duration, b == inner duration.
        assert tracer.phase_self["b"] == pytest.approx(inner.dur / 1e6)
        assert tracer.phase_self["a"] + tracer.phase_self["b"] == pytest.approx(
            outer.dur / 1e6
        )
        assert tracer.phase_self["a"] >= 0.0

    def test_same_category_accumulates(self):
        tracer = Tracer(enabled=True)
        for _ in range(3):
            with tracer.span("s", cat="c"):
                pass
        assert tracer.phase_self["c"] > 0.0
        assert set(tracer.phase_breakdown()) == {"c"}

    def test_span_carries_both_clocks(self):
        tracer = Tracer(enabled=True)
        ring = tracer.add_sink(RingBufferSink())
        with tracer.span("first", cat="c", sim_time=42.5):
            pass
        with tracer.span("second", cat="c", sim_time=41.0):
            pass
        first, second = ring.events()
        # Wall clock: microseconds from the tracer epoch, monotone.
        assert 0.0 <= first.ts <= second.ts
        assert first.dur >= 0.0
        # Sim clock: carried verbatim (may run against the wall clock).
        assert first.sim_ts == 42.5 and second.sim_ts == 41.0
        chrome = first.to_chrome()
        assert chrome["ts"] == first.ts
        assert chrome["args"]["sim_time"] == 42.5

    def test_span_args_mutable_until_exit(self):
        tracer = Tracer(enabled=True)
        ring = tracer.add_sink(RingBufferSink())
        with tracer.span("flood", cat="flood", fanout=0) as span:
            span.args["fanout"] = 7
        assert ring.events()[0].args["fanout"] == 7

    def test_instant_event(self):
        tracer = Tracer(enabled=True)
        ring = tracer.add_sink(RingBufferSink())
        tracer.instant("withdraw", cat="arbitration", tid=3, sim_time=9.0, conn=1)
        [event] = ring.events()
        assert event.ph == "i" and event.tid == 3
        assert event.to_chrome()["s"] == "t"

    def test_disabled_tracer_hot_path_emits_nothing(self):
        tracer = Tracer(enabled=False)
        ring = tracer.add_sink(RingBufferSink())
        with use_tracer(tracer):
            sim = Simulator()
            sim.schedule(1.0, lambda: None)
            sim.run()
        assert len(ring) == 0 and tracer.events_emitted == 0


class TestRingBufferSink:
    def test_eviction_keeps_newest_and_counts(self):
        sink = RingBufferSink(capacity=4)
        for i in range(6):
            sink.emit(TraceEvent(name=f"e{i}", cat="c", ph="X", ts=float(i)))
        assert len(sink) == 4
        assert sink.evicted == 2
        assert [e.name for e in sink.events()] == ["e2", "e3", "e4", "e5"]

    def test_eviction_reported_in_chrome_metadata(self):
        tracer = Tracer(enabled=True)
        sink = tracer.add_sink(RingBufferSink(capacity=2))
        for _ in range(5):
            with tracer.span("s", cat="c"):
                pass
        assert tracer.chrome_trace()["metadata"]["evicted_events"] == sink.evicted == 3


class TestChromeTraceSchema:
    def test_export_is_valid_trace_event_json(self, tmp_path):
        dgmc = ring_deployment()
        tracer = traced_run(dgmc)
        out = tmp_path / "trace.json"
        written = tracer.export_chrome(str(out))
        trace = json.loads(out.read_text())
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        assert len(events) == written + 1  # + process_name metadata
        assert events[0]["ph"] == "M" and events[0]["name"] == "process_name"
        for event in events:
            assert isinstance(event["name"], str) and event["name"]
            assert event["ph"] in {"X", "i", "M"}
            assert isinstance(event["ts"], float) and event["ts"] >= 0.0
            assert isinstance(event["pid"], int) and isinstance(event["tid"], int)
            if event["ph"] == "X":
                assert event["dur"] >= 0.0
            elif event["ph"] == "i":
                assert event["s"] == "t"
        names = {e["name"] for e in events}
        assert {"dispatch", "dijkstra", "compute", "install", "flood"} <= names

    def test_protocol_spans_use_switch_tids(self):
        tracer = traced_run(ring_deployment())
        computes = [e for e in tracer.events() if e.name == "compute"]
        assert computes and all(0 <= e.tid < 6 for e in computes)
        floods = [e for e in tracer.events() if e.name == "flood"]
        assert all(e.args.get("fanout", 0) > 0 for e in floods)


class TestJsonlSink:
    def test_one_chrome_object_per_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(enabled=True)
        sink = tracer.add_sink(JsonlSink(str(path)))
        with tracer.span("s", cat="c", sim_time=1.0):
            pass
        tracer.instant("i", cat="c")
        sink.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        span, instant = (json.loads(line) for line in lines)
        assert span["name"] == "s" and span["ph"] == "X"
        assert instant["name"] == "i" and instant["ph"] == "i"


class TestGoldenTrace:
    def test_fixed_seed_trace_matches_committed_golden(self):
        """The deterministic projection of the traced two-join scenario.

        Wall times vary run to run; the *sequence* of emitted events --
        names, categories, switch tids, simulated timestamps -- is fully
        deterministic (DESIGN.md invariant 7) and pinned here.  Refresh
        with ``python tests/data/regen_golden_trace.py`` when the
        instrumentation points intentionally change.
        """
        tracer = traced_run(ring_deployment())
        events = tracer.events()
        projection = {
            "kernel_events": sum(1 for e in events if e.cat == "kernel"),
            "events": [
                [e.name, e.cat, e.tid, e.sim_ts]
                for e in events
                if e.cat != "kernel"
            ],
        }
        assert projection == json.loads(GOLDEN_PATH.read_text())


class TestMetricsInstruments:
    def test_counter_is_monotone(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("g")
        g.set(5)
        g.inc(2)
        g.dec(4)
        assert g.value == 3.0

    def test_histogram_buckets_and_mean(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1, 4))
        for v in (0.5, 3, 100):
            h.observe(v)
        assert h.cumulative() == [(1.0, 1), (4.0, 2), (float("inf"), 3)]
        assert h.mean == pytest.approx(103.5 / 3)

    def test_histogram_observes_a_value_many_times_at_once(self):
        one_by_one = MetricsRegistry().histogram("h", buckets=(1, 4))
        counted = MetricsRegistry().histogram("h", buckets=(1, 4))
        for value, count in ((1, 3), (3, 5), (9, 2)):
            for _ in range(count):
                one_by_one.observe(value)
            counted.observe(value, count)
        assert counted.cumulative() == one_by_one.cumulative()
        assert (counted.sum, counted.count) == (one_by_one.sum, one_by_one.count) == (36, 10)

    def test_get_or_create_is_idempotent_but_type_strict(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_merge_sum(self):
        assert merge_sum([{"a": 1.0, "b": 2.0}, {"a": 3.0, "c": 1.0}]) == {
            "a": 4.0,
            "b": 2.0,
            "c": 1.0,
        }


class TestSnapshotDelta:
    def test_counters_subtract_gauges_report_current(self):
        reg = MetricsRegistry()
        c, g, h = reg.counter("c"), reg.gauge("g"), reg.histogram("h", buckets=(1,))
        c.inc(2)
        g.set(5)
        h.observe(1)
        snap = reg.snapshot()
        assert snap == {"c": 2.0, "g": 5.0, "h_count": 1.0, "h_sum": 1.0}
        c.inc(3)
        g.set(1)
        h.observe(4)
        assert reg.delta(snap) == {"c": 3.0, "g": 1.0, "h_count": 1.0, "h_sum": 4.0}

    def test_collectors_run_before_every_snapshot(self):
        reg = MetricsRegistry()
        source = {"n": 0}
        reg.register_collector(
            lambda r: r.counter("mirrored_total").set_total(source["n"])
        )
        assert reg.snapshot()["mirrored_total"] == 0.0
        source["n"] = 7
        assert reg.snapshot()["mirrored_total"] == 7.0


class TestPrometheusText:
    def test_exposition_format(self):
        reg = MetricsRegistry()
        reg.counter("requests_total", "total requests").inc(3)
        reg.gauge("depth").set(2.5)
        h = reg.histogram("latency", "latencies", buckets=(1, 2))
        h.observe(0.5)
        h.observe(5)
        text = reg.to_prometheus()
        assert "# HELP requests_total total requests" in text
        assert "# TYPE requests_total counter" in text
        assert "requests_total 3" in text
        assert "depth 2.5" in text
        assert "# TYPE latency histogram" in text
        assert 'latency_bucket{le="1"} 1' in text
        assert 'latency_bucket{le="2"} 1' in text
        assert 'latency_bucket{le="+Inf"} 2' in text
        assert "latency_sum 5.5" in text
        assert "latency_count 2" in text
        assert text.endswith("\n")

    def test_labelled_counters_form_one_family(self):
        reg = MetricsRegistry()
        a = reg.counter("rejected_total", "frames dropped", reason="a")
        b = reg.counter("rejected_total", "frames dropped", reason="b")
        assert a is not b
        assert a is reg.counter("rejected_total", reason="a")
        a.inc(2)
        b.inc()
        assert reg.snapshot() == {
            'rejected_total{reason="a"}': 2.0,
            'rejected_total{reason="b"}': 1.0,
        }
        text = reg.to_prometheus()
        assert text.count("# TYPE rejected_total counter") == 1
        assert text.count("# HELP rejected_total frames dropped") == 1
        assert 'rejected_total{reason="a"} 2' in text
        assert 'rejected_total{reason="b"} 1' in text


class TestNetworkMetrics:
    @pytest.fixture(scope="class")
    def run(self):
        dgmc = ring_deployment()
        snap0 = dgmc.metrics.snapshot()
        dgmc.run()
        return dgmc, snap0

    def test_delta_tracks_the_protocol_counters(self, run):
        dgmc, snap0 = run
        delta = dgmc.metrics.delta(snap0)
        assert delta[attach.COMPUTATIONS] == dgmc.total_computations() > 0
        assert delta[attach.FLOOD_OPERATIONS] == dgmc.fabric.total_floods > 0
        assert delta[attach.LSA_DELIVERIES] == dgmc.fabric.delivery_count > 0
        assert delta[attach.EVENTS_DISPATCHED] == dgmc.sim.events_dispatched > 0
        assert delta[attach.DIJKSTRA_RUNS] > 0

    def test_every_sample_name_is_emitted_exactly_once(self, run):
        """One collector per owner: no sample is missing, none doubled."""
        dgmc, _ = run
        names = [
            value
            for key, value in vars(attach).items()
            if key.isupper() and not key.startswith("STRESS_")
        ]
        assert len(names) == len(set(names)) == 14
        snap = dgmc.metrics.snapshot()
        lines = dgmc.metrics.to_prometheus().splitlines()
        for name in names:
            assert name in snap
            assert sum(line.startswith(name + " ") for line in lines) == 1
            assert lines.count(f"# TYPE {name} counter") + lines.count(
                f"# TYPE {name} gauge"
            ) == 1

    def test_prometheus_dump_covers_the_stack(self, run):
        dgmc, _ = run
        text = dgmc.metrics.to_prometheus()
        assert "# TYPE spf_cache_hits_total counter" in text
        assert "# TYPE flood_fanout histogram" in text
        assert "flood_hops_bucket" in text  # per_hop_delay was configured
        assert "sim_events_dispatched_total" in text

    def test_trial_metrics_properties_read_the_sample_names(self):
        tm = TrialMetrics(
            events=4,
            computations=4,
            floodings=4,
            metrics={
                attach.DIJKSTRA_RUNS: 7,
                attach.SPF_HITS: 9,
                attach.SPF_MISSES: 3,
                attach.SPF_INVALIDATIONS: 2,
            },
        )
        assert tm.dijkstra_runs == 7
        assert (tm.spf_hits, tm.spf_misses, tm.spf_invalidations) == (9, 3, 2)
        assert tm.spf_hit_rate == 0.75
        empty = TrialMetrics(events=0, computations=0, floodings=0)
        assert empty.dijkstra_runs == 0 and empty.spf_hit_rate == 0.0


class TestTimelineWarning:
    def test_warns_when_history_was_never_recorded(self):
        dgmc = ring_deployment(record_history=False)
        dgmc.run()
        with pytest.warns(UserWarning, match="record_history"):
            entries = build_timeline(dgmc)
        assert not any(e.kind == "flood" for e in entries)

    def test_silent_when_history_recorded(self):
        dgmc = ring_deployment(record_history=True)
        dgmc.run()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entries = build_timeline(dgmc)
        assert any(e.kind == "flood" for e in entries)

    def test_silent_when_nothing_flooded(self):
        dgmc = DgmcNetwork(
            ring_network(4), ProtocolConfig(compute_time=0.5, per_hop_delay=0.05)
        )
        dgmc.register_symmetric(1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert build_timeline(dgmc) == []


class TestProfile:
    def test_breakdown_arithmetic_and_render(self):
        b = PhaseBreakdown(
            phases={"spf": 0.3, "kernel-overhead": 0.6},
            wall_s=1.0,
            events_dispatched=10,
            sim_time=5.0,
        )
        assert b.accounted_s == pytest.approx(0.9)
        assert b.coverage == pytest.approx(0.9)
        text = b.render()
        assert "spf" in text and "kernel-overhead" in text and "accounted" in text

    def test_quick_profile_accounts_for_the_wall_time(self):
        breakdown = run_profile(quick=True)
        assert breakdown.coverage >= 0.9
        assert set(breakdown.phases) <= set(PHASE_ORDER)
        assert breakdown.events_dispatched > 0
        assert breakdown.sim_time > 0.0

    def test_profile_is_sizeable(self):
        """--switches/--members: the same workload at another n."""
        small = run_profile(quick=True)
        bigger = run_profile(quick=True, switches=30, members=9)
        assert bigger.coverage >= 0.9
        assert bigger.events_dispatched > small.events_dispatched
        with pytest.raises(ValueError):
            run_profile(switches=4, members=9)


class TestCliExport:
    def test_trace_command_writes_all_artifacts(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "t.json"
        jsonl_path = tmp_path / "t.jsonl"
        prom_path = tmp_path / "m.prom"
        rc = main(
            [
                "trace",
                "--export-trace",
                str(trace_path),
                "--export-jsonl",
                str(jsonl_path),
                "--metrics",
                str(prom_path),
            ]
        )
        assert rc == 0
        trace = json.loads(trace_path.read_text())
        names = {e["name"] for e in trace["traceEvents"]}
        assert {"compute", "install", "flood", "dijkstra", "dispatch"} <= names
        for line in jsonl_path.read_text().splitlines():
            json.loads(line)
        assert "# TYPE spf_cache_hits_total counter" in prom_path.read_text()
        assert get_tracer().enabled is False  # CLI restores the disabled default
        assert "wrote" in capsys.readouterr().out
