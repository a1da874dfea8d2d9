"""Causal observability: trace contexts, SLO chains, flight recorder, merge.

The distributed half of :mod:`repro.obs` -- everything that exists so a
cause born on one host can be followed across the wire: the 12-byte
:class:`TraceContext`, its ride inside version-2 frames, the flow events
that draw the causal arrows, the convergence-SLO chains keyed on trace
ids, the flight recorder that snapshots the lot on a violation, and the
per-host trace merge that puts it all on one wall-clock axis.
"""

from __future__ import annotations

import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lsa import McEvent, McLsa
from repro.lsr.lsa import NonMcLsa, RouterLsa
from repro.net.frames import (
    FRAME_VERSION,
    DataFrame,
    FrameDecodeError,
    LsuFrame,
    McSnapshot,
    SnapFrame,
    decode_frame,
    encode_data,
    encode_lsu,
    encode_snap,
)
from repro.obs.context import (
    CAUSE_CODES,
    CAUSE_NAMES,
    TraceContext,
    TraceContextError,
)
from repro.obs.flight import (
    FlightRecorder,
    dump_on_violation,
    install_recorder,
    installed_recorder,
    uninstall_recorder,
)
from repro.obs.merge import MergeError, export_host_traces, merge_traces
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLO_BUCKETS, SloTracker
from repro.obs.tracer import RingBufferSink, Tracer, use_tracer
from tests.stamps import S

def ctx(cause="join", origin=3, connection_id=1, seq=7, hop=0):
    return TraceContext(origin, connection_id, cause, seq, hop)


class FakeClock:
    """Deterministic monotonic clock for SLO-window arithmetic."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


# ---------------------------------------------------------------------------
# TraceContext wire form
# ---------------------------------------------------------------------------


class TestTraceContext:
    def test_wire_round_trip_every_cause(self):
        for cause in CAUSE_CODES:
            original = ctx(cause=cause, origin=41, connection_id=-1, seq=9, hop=4)
            blob = original.to_wire()
            assert len(blob) == TraceContext.WIRE_SIZE == 12
            decoded = TraceContext.from_wire(blob)
            assert decoded == original
            assert decoded.hop == 4  # hop survives the wire despite compare=False

    def test_cause_tables_are_inverse(self):
        assert {CAUSE_NAMES[c]: c for c in CAUSE_NAMES} == CAUSE_CODES

    def test_unknown_cause_name_rejected_at_construction(self):
        with pytest.raises(TraceContextError, match="unknown trace cause"):
            TraceContext(0, 1, "reboot", 0)

    def test_wrong_length_rejected(self):
        with pytest.raises(TraceContextError, match="12 bytes"):
            TraceContext.from_wire(b"\x00" * 11)
        with pytest.raises(TraceContextError, match="12 bytes"):
            TraceContext.from_wire(ctx().to_wire() + b"\x00")

    def test_unknown_cause_code_rejected(self):
        blob = bytearray(ctx().to_wire())
        blob[10] = 200  # the cause-code byte (origin u16 | conn i32 | seq u32)
        with pytest.raises(TraceContextError, match="cause code 200"):
            TraceContext.from_wire(bytes(blob))

    def test_hop_excluded_from_equality_and_trace_id(self):
        a, b = ctx(hop=0), ctx(hop=9)
        assert a == b
        assert a.trace_id() == b.trace_id() == "o3.7.join"

    def test_next_hop_increments_and_caps(self):
        stepped = ctx(hop=0).next_hop()
        assert stepped.hop == 1
        assert stepped == ctx()  # identity unchanged
        assert ctx(hop=255).next_hop().hop == 255  # capped, still wire-packable
        ctx(hop=255).next_hop().to_wire()

    def test_flow_id_is_chrome_safe_and_transfer_unique(self):
        c = ctx()
        a = c.flow_id(0, 1, 5)
        assert 0 <= a <= 0x7FFFFFFF
        assert a == c.flow_id(0, 1, 5)  # deterministic per arrow
        ids = {c.flow_id(0, 1, 5), c.flow_id(1, 0, 5), c.flow_id(0, 1, 6)}
        assert len(ids) == 3  # direction and frame seq both fold in

    def test_to_args_names_the_chain(self):
        args = ctx(cause="link-down", hop=2).to_args()
        assert args == {
            "trace_id": "o3.7.link-down",
            "cause": "link-down",
            "origin": 3,
            "hop": 2,
        }

    @given(
        origin=st.integers(0, 0xFFFF),
        connection_id=st.integers(-(2**31), 2**31 - 1),
        cause=st.sampled_from(sorted(CAUSE_CODES)),
        seq=st.integers(0, 2**32 - 1),
        hop=st.integers(0, 255),
    )
    @settings(max_examples=100, deadline=None)
    def test_fuzz_round_trip_full_field_ranges(
        self, origin, connection_id, cause, seq, hop
    ):
        original = TraceContext(origin, connection_id, cause, seq, hop)
        decoded = TraceContext.from_wire(original.to_wire())
        assert decoded == original and decoded.hop == hop

    @given(blob=st.binary(min_size=12, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_fuzz_decode_never_crashes_uncontrolled(self, blob):
        try:
            decoded = TraceContext.from_wire(blob)
        except TraceContextError:
            return
        assert decoded.to_wire() == blob  # anything accepted re-encodes exactly


# ---------------------------------------------------------------------------
# Trace context inside version-2 frames
# ---------------------------------------------------------------------------


def _snapshot(with_ctx=None) -> McSnapshot:
    return McSnapshot(
        connection_id=1,
        received=S(1, 0, 2),
        expected=S(1, 1, 2),
        current=S(1, 0, 2),
        proposer=2,
        member_stamp=S(1, 0, 1),
        members=((0, frozenset(["sender"])), (2, frozenset(["receiver"]))),
        topology=None,
        ctx=with_ctx,
    )


class TestFrameContextPropagation:
    def test_data_frame_reattaches_context(self):
        c = ctx(cause="leave", seq=12)
        lsa = McLsa(3, McEvent.LEAVE, 1, None, S(0, 0, 0, 5), ctx=c)
        frame = decode_frame(encode_data(3, 8, 42, lsa))
        assert isinstance(frame, DataFrame)
        assert frame.lsa == lsa  # ctx excluded from LSA equality
        assert frame.lsa.ctx == c
        assert frame.lsa.ctx.trace_id() == c.trace_id()

    def test_snap_frame_reattaches_context(self):
        c = ctx(cause="resync", origin=2, connection_id=1)
        frame = decode_frame(encode_snap(2, 5, 9, _snapshot(with_ctx=c)))
        assert isinstance(frame, SnapFrame)
        assert frame.snapshot == _snapshot()  # ctx excluded from equality
        assert frame.snapshot.ctx == c

    def test_lsu_frame_reattaches_context(self):
        c = ctx(cause="link-down", connection_id=-1)
        lsa = NonMcLsa(4, RouterLsa(4, 3, ((5, 1.0, True),)), ctx=c)
        frame = decode_frame(encode_lsu(4, 5, 2, lsa))
        assert isinstance(frame, LsuFrame)
        assert frame.lsa.ctx == c

    def test_context_free_frames_decode_with_none(self):
        lsa = McLsa(0, McEvent.LEAVE, 1, None, S(1))
        frame = decode_frame(encode_data(0, 1, 1, lsa))
        assert frame.lsa.ctx is None

    def test_v1_frames_are_rejected_as_unsupported(self):
        """Version 1 (no trace-context prefix) was decoded but never
        emitted by any encoder here; it is no longer a supported version,
        with or without a context prefix in the body."""
        c = ctx()
        for lsa in (
            McLsa(0, McEvent.LEAVE, 1, None, S(1)),
            McLsa(3, McEvent.LEAVE, 1, None, S(0, 0, 0, 5), ctx=c),
        ):
            wire = bytearray(encode_data(3, 8, 42, lsa))
            wire[1] = 1
            with pytest.raises(FrameDecodeError, match="unsupported frame version 1"):
                decode_frame(bytes(wire))

    @given(
        cause=st.sampled_from(sorted(CAUSE_CODES)),
        origin=st.integers(0, 0xFFFF),
        seq=st.integers(0, 2**32 - 1),
        hop=st.integers(0, 255),
        frame_seq=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_fuzz_ctx_carrying_data_frames_round_trip(
        self, cause, origin, seq, hop, frame_seq
    ):
        c = TraceContext(origin, 1, cause, seq, hop)
        lsa = McLsa(0, McEvent.LEAVE, 1, None, S(1, 2), ctx=c)
        frame = decode_frame(encode_data(0, 1, frame_seq, lsa))
        assert frame.lsa.ctx == c and frame.lsa.ctx.hop == hop
        assert frame.seq == frame_seq

    def test_version_constants(self):
        assert FRAME_VERSION == 2


# ---------------------------------------------------------------------------
# Flow events: the causal arrows between host lanes
# ---------------------------------------------------------------------------


class TestFlowEvents:
    def _tracer(self):
        tracer = Tracer(enabled=True)
        ring = tracer.add_sink(RingBufferSink())
        return tracer, ring

    def test_matched_pair_shares_id_and_binds_to_slice_end(self):
        tracer, ring = self._tracer()
        c = ctx()
        fid = c.flow_id(0, 1, 5)
        tracer.flow("udp_send", "s", fid, cat="net", pid=0, **c.to_args())
        tracer.flow("udp_recv", "f", fid, cat="net", pid=1, **c.to_args())
        start, finish = (e.to_chrome() for e in ring.events())
        assert start["ph"] == "s" and finish["ph"] == "f"
        assert start["id"] == finish["id"] == fid
        assert "bp" not in start and finish["bp"] == "e"
        assert start["pid"] == 0 and finish["pid"] == 1
        assert start["args"]["trace_id"] == finish["args"]["trace_id"]

    def test_golden_flow_event_schema(self):
        """The exact Chrome dict shape Perfetto ingests for an arrow."""
        tracer, ring = self._tracer()
        tracer.flow("udp_send", "s", 77, cat="net", tid=3, pid=2, trace_id="o0.1.join")
        (event,) = ring.events()
        chrome = event.to_chrome()
        ts = chrome.pop("ts")
        assert isinstance(ts, float) and ts >= 0.0
        assert chrome == {
            "name": "udp_send",
            "cat": "net",
            "ph": "s",
            "pid": 2,
            "tid": 3,
            "id": 77,
            "args": {"trace_id": "o0.1.join"},
        }

    def test_invalid_phase_rejected(self):
        tracer, _ = self._tracer()
        with pytest.raises(ValueError, match="flow phase"):
            tracer.flow("x", "t", 1)

    def test_sinkless_flow_is_a_cheap_no_op(self):
        tracer = Tracer(enabled=True)
        tracer.flow("udp_send", "s", 1)
        assert tracer.events_emitted == 0


# ---------------------------------------------------------------------------
# SLO chains
# ---------------------------------------------------------------------------


class TestSloTracker:
    def _tracker(self):
        clock = FakeClock()
        tracker = SloTracker(MetricsRegistry(), clock=clock)
        return tracker, clock

    def test_install_chain_closes_when_needed_covered(self):
        tracker, clock = self._tracker()
        c = ctx(cause="join")
        tracker.begin(c, {0, 1, 2})
        clock.advance(0.010)
        tracker.record_install(c, 0, {0, 1, 2})
        tracker.record_install(c, 1, {0, 1, 2})
        assert tracker.install_latency.count == 0  # 2 of 3, still open
        clock.advance(0.020)
        tracker.record_install(c, 2, {0, 1, 2})
        assert tracker.install_latency.count == 1
        assert tracker.install_latency.sum == pytest.approx(0.030)
        assert tracker.open_chains() == {}

    def test_cause_routes_to_the_matching_histogram(self):
        tracker, clock = self._tracker()
        for cause, hist in (
            ("link-down", tracker.repair_latency),
            ("resync", tracker.resync_duration),
            ("leave", tracker.install_latency),
        ):
            c = ctx(cause=cause, seq=hash(cause) & 0xFFFF)
            tracker.begin(c, {0})
            clock.advance(0.001)
            tracker.record_install(c, 0, {0})
            assert hist.count == 1, cause

    def test_needed_set_refreshes_from_installer_view(self):
        """A member leaving mid-chain stops being waited for."""
        tracker, clock = self._tracker()
        c = ctx(cause="join")
        tracker.begin(c, {0, 1, 2})
        clock.advance(0.005)
        tracker.record_install(c, 0, {0, 2})  # 1 left while converging
        assert tracker.install_latency.count == 0
        tracker.record_install(c, 2, {0, 2})
        assert tracker.install_latency.count == 1  # 1 was never required

    def test_zero_member_event_converges_immediately(self):
        tracker, _ = self._tracker()
        tracker.begin(ctx(cause="leave"), set())
        assert tracker.zero_member_events.value == 1
        assert tracker.open_chains() == {}
        assert tracker.finalize() == 0  # nothing dangling

    def test_installs_without_context_or_chain_are_ignored(self):
        tracker, _ = self._tracker()
        tracker.record_install(None, 0, {0})
        tracker.record_install(ctx(seq=999), 0, {0})  # never begun
        assert tracker.install_latency.count == 0

    def test_finalize_counts_never_converged(self):
        tracker, _ = self._tracker()
        tracker.begin(ctx(seq=1), {0, 1})
        tracker.begin(ctx(seq=2), {0})
        assert set(tracker.open_chains()) == {"o3.1.join", "o3.2.join"}
        assert tracker.finalize() == 2
        assert tracker.never_converged.value == 2
        assert tracker.finalize() == 0  # books already closed

    def test_resync_handshake_timing(self):
        tracker, clock = self._tracker()
        tracker.resync_started(4, 7)
        clock.advance(0.250)
        tracker.resync_finished(4, 7)
        assert tracker.resync_duration.count == 1
        assert tracker.resync_duration.sum == pytest.approx(0.250)
        tracker.resync_finished(4, 7)  # unmatched reply: no-op
        tracker.resync_finished(9, 9)  # never started: no-op
        assert tracker.resync_duration.count == 1

    def test_control_frame_counters_per_cause(self):
        tracker, _ = self._tracker()
        tracker.record_control("link-down")
        tracker.record_control("link-down")
        tracker.record_control("join")
        tracker.record_control("not-a-cause")  # silently dropped
        prom = tracker.registry.to_prometheus()
        assert "slo_control_frames_link_down_total 2" in prom
        assert "slo_control_frames_join_total 1" in prom

    def test_buckets_cover_sub_millisecond_to_seconds(self):
        assert SLO_BUCKETS[0] <= 0.001 and SLO_BUCKETS[-1] >= 5.0
        assert list(SLO_BUCKETS) == sorted(SLO_BUCKETS)


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------


@pytest.fixture
def no_recorder():
    """Leave the process-wide hook as the tests found it."""
    previous = installed_recorder()
    uninstall_recorder()
    yield
    if previous is not None:
        install_recorder(previous)


class TestFlightRecorder:
    def test_dump_payload_is_self_describing(self, tmp_path, no_recorder):
        tracer = Tracer(enabled=True, pid=3)
        tracer.add_sink(RingBufferSink())
        registry = MetricsRegistry()
        registry.counter("violations_total", "t").inc(2)
        with use_tracer(tracer):
            tracer.instant("mc_install", cat="protocol", tid=1)
            recorder = FlightRecorder(str(tmp_path))
            path = recorder.dump(
                "chaos agreement", context={"seed": 1996}, registry=registry
            )
        payload = json.loads(open(path, encoding="utf-8").read())
        assert payload["kind"] == "flight-recorder"
        assert payload["reason"] == "chaos agreement"
        assert payload["context"] == {"seed": 1996}
        assert payload["metrics"]["violations_total"] == 2
        assert payload["host_pid"] == 3
        assert payload["tracer_epoch_unix"] == tracer.epoch_unix
        assert [e["name"] for e in payload["trace_events"]] == ["mc_install"]

    def test_sequence_numbers_and_slug_sanitization(self, tmp_path, no_recorder):
        recorder = FlightRecorder(str(tmp_path))
        first = recorder.dump("agreement: s1 != s2")
        second = recorder.dump("agreement: s1 != s2")
        weird = recorder.dump("///")
        assert first.endswith("FLIGHT_agreement-s1-s2_001.json")
        assert second.endswith("FLIGHT_agreement-s1-s2_002.json")
        assert weird.endswith("FLIGHT_violation_003.json")
        assert recorder.dumps == [first, second, weird]

    def test_dump_keeps_only_the_ring_tail(self, tmp_path, no_recorder):
        tracer = Tracer(enabled=True)
        tracer.add_sink(RingBufferSink())
        with use_tracer(tracer):
            for i in range(10):
                tracer.instant(f"e{i}")
            path = FlightRecorder(str(tmp_path), max_events=3).dump("x")
        payload = json.loads(open(path, encoding="utf-8").read())
        assert [e["name"] for e in payload["trace_events"]] == ["e7", "e8", "e9"]

    def test_dump_without_ring_buffer_still_writes(self, tmp_path, no_recorder):
        with use_tracer(Tracer()):  # no sinks at all
            path = FlightRecorder(str(tmp_path)).dump("no-ring")
        assert json.loads(open(path, encoding="utf-8").read())["trace_events"] == []

    def test_hook_lifecycle(self, tmp_path, no_recorder):
        assert installed_recorder() is None
        assert dump_on_violation("nothing installed") is None  # silent no-op
        recorder = install_recorder(FlightRecorder(str(tmp_path)))
        assert installed_recorder() is recorder
        path = dump_on_violation("hooked", context={"k": "v"})
        assert path is not None and recorder.dumps == [path]
        uninstall_recorder()
        assert dump_on_violation("gone again") is None
        assert recorder.dumps == [path]

    def test_dump_on_violation_swallows_io_errors(self, tmp_path, no_recorder):
        target = tmp_path / "not-a-dir"
        target.write_text("file, not directory")
        install_recorder(FlightRecorder(str(target)))
        assert dump_on_violation("disk trouble") is None  # never raises


# ---------------------------------------------------------------------------
# Cross-host trace merge
# ---------------------------------------------------------------------------


class TestTraceMerge:
    def _host_trace(self, path, epoch, events, pid=0):
        lines = [
            {
                "name": "clock_sync",
                "cat": "__metadata",
                "ph": "M",
                "ts": 0.0,
                "pid": pid,
                "tid": 0,
                "args": {"epoch_unix": epoch},
            }
        ]
        lines.extend(events)
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        return str(path)

    def test_export_splits_lanes_and_leads_with_clock_sync(self, tmp_path):
        tracer = Tracer(enabled=True)
        tracer.add_sink(RingBufferSink())
        tracer.instant("a", pid=0)
        tracer.instant("b", pid=2)
        tracer.instant("c", pid=0)
        paths = export_host_traces(tracer, str(tmp_path), prefix="t")
        assert [p.rsplit("/", 1)[1] for p in paths] == [
            "t_host0.jsonl",
            "t_host2.jsonl",
        ]
        lane0 = [json.loads(line) for line in open(paths[0], encoding="utf-8")]
        assert lane0[0]["name"] == "clock_sync"
        assert lane0[0]["args"]["epoch_unix"] == tracer.epoch_unix
        assert [e["name"] for e in lane0[1:]] == ["a", "c"]

    def test_epoch_delta_shifts_onto_one_axis(self, tmp_path):
        # Host 1 booted 2 seconds after host 0; its local ts=100us event
        # really happened 2.0001s into host 0's axis.
        early = self._host_trace(
            tmp_path / "h0.jsonl",
            1000.0,
            [{"name": "send", "ph": "s", "ts": 50.0, "pid": 0, "tid": 0, "id": 9}],
            pid=0,
        )
        late = self._host_trace(
            tmp_path / "h1.jsonl",
            1002.0,
            [{"name": "recv", "ph": "f", "ts": 100.0, "pid": 1, "tid": 0, "id": 9}],
            pid=1,
        )
        out = tmp_path / "merged.json"
        trace = merge_traces([early, late], out_path=str(out))
        by_name = {e["name"]: e for e in trace["traceEvents"]}
        assert by_name["send"]["ts"] == pytest.approx(50.0)
        assert by_name["recv"]["ts"] == pytest.approx(2_000_100.0)
        assert by_name["send"]["id"] == by_name["recv"]["id"]  # arrow survives
        assert trace["metadata"]["base_epoch_unix"] == 1000.0
        assert json.loads(out.read_text()) == trace

    def test_clock_sync_dropped_but_other_metadata_kept(self, tmp_path):
        path = self._host_trace(
            tmp_path / "h.jsonl",
            5.0,
            [
                {
                    "name": "process_name",
                    "cat": "__metadata",
                    "ph": "M",
                    "ts": 0.0,
                    "pid": 0,
                    "tid": 0,
                    "args": {"name": "host0"},
                },
                {"name": "e", "ph": "i", "ts": 1.0, "pid": 0, "tid": 0},
            ],
        )
        names = [e["name"] for e in merge_traces([path])["traceEvents"]]
        assert "clock_sync" not in names
        assert names == ["process_name", "e"]  # metadata sorts first

    def test_file_without_clock_sync_is_accepted_unshifted(self, tmp_path):
        anchored = self._host_trace(
            tmp_path / "a.jsonl",
            1000.0,
            [{"name": "x", "ph": "i", "ts": 10.0, "pid": 0, "tid": 0}],
        )
        bare = tmp_path / "b.jsonl"
        bare.write_text(
            json.dumps({"name": "y", "ph": "i", "ts": 20.0, "pid": 1, "tid": 0})
            + "\n"
        )
        trace = merge_traces([anchored, str(bare)])
        by_name = {e["name"]: e for e in trace["traceEvents"]}
        assert by_name["x"]["ts"] == 10.0 and by_name["y"]["ts"] == 20.0

    def test_merge_errors(self, tmp_path):
        with pytest.raises(MergeError, match="no trace files"):
            merge_traces([])
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(MergeError, match="not JSON"):
            merge_traces([str(bad)])
        listy = tmp_path / "list.jsonl"
        listy.write_text("[1, 2]\n")
        with pytest.raises(MergeError, match="not a trace object"):
            merge_traces([str(listy)])

    def test_export_then_merge_round_trips_same_process(self, tmp_path):
        """The writer half and reader half agree without any real network."""
        tracer = Tracer(enabled=True)
        tracer.add_sink(RingBufferSink())
        c = ctx()
        fid = c.flow_id(0, 1, 1)
        tracer.flow("udp_send", "s", fid, pid=0, **c.to_args())
        tracer.flow("udp_recv", "f", fid, pid=1, **c.to_args())
        paths = export_host_traces(tracer, str(tmp_path))
        trace = merge_traces(paths)
        arrows = [e for e in trace["traceEvents"] if e["ph"] in ("s", "f")]
        assert len(arrows) == 2
        assert arrows[0]["id"] == arrows[1]["id"] == fid
        # Same tracer, same epoch: the merge must not have shifted anything.
        assert arrows[0]["ts"] <= arrows[1]["ts"]


# ---------------------------------------------------------------------------
# `repro trace` regression: the timeline must actually record
# ---------------------------------------------------------------------------


class TestTraceCommandHistory:
    def test_trace_command_records_flood_history(self, capsys):
        """`repro trace` must flip record_history on before running --
        without it the timeline silently renders empty and warns."""
        from repro.cli import main

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["--seed", "2", "trace", "--switches", "6", "--members", "3"])
        assert rc == 0
        assert not [w for w in caught if "record_history" in str(w.message)]
        out = capsys.readouterr().out
        assert "agreement: True" in out
        assert "flood" in out  # timeline rows exist, not just headers
