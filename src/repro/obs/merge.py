"""Fuse per-host trace files into one cross-host Chrome trace.

The live runtime is one process today, but its observability contract is
written for the sharded soak on the roadmap: every host (or host shard)
exports its own JSONL trace whose first record is a ``clock_sync``
metadata line carrying the emitting tracer's ``epoch_unix`` -- the wall
time its microsecond axis starts at.  :func:`merge_traces` reads any
number of such files, shifts each file's timestamps by its epoch delta
against the earliest epoch seen, and emits a single Chrome trace dict.

Causality survives the merge for free: flow-event ids are derived from
the trace context plus the frame key (origin, seq, cause, src, dest,
frame seq), which is globally unique without any coordination -- the
``s`` emitted by the sender's file binds to the ``f`` emitted by the
receiver's file no matter which process wrote which.

:func:`export_host_traces` is the writer half for the single-process
fabric: it splits a tracer's ring buffer by ``pid`` lane (one lane per
live host, see ``LiveSwitch._pump_loop``) so the merged output is
byte-equivalent to what N separate processes would have produced.
:func:`traced_run` wraps a whole live run in a tracer and writes both
halves' artifacts when the run ends, however it ends.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.obs.tracer import RingBufferSink, Tracer, use_tracer

__all__ = ["MergeError", "export_host_traces", "merge_traces", "traced_run"]


class MergeError(ValueError):
    """A trace file could not be parsed or lacked required metadata."""


def _clock_sync_line(pid: int, epoch_unix: float) -> Dict[str, Any]:
    return {
        "name": "clock_sync",
        "cat": "__metadata",
        "ph": "M",
        "ts": 0.0,
        "pid": pid,
        "tid": 0,
        "args": {"epoch_unix": epoch_unix},
    }


def export_host_traces(
    tracer: Tracer,
    directory: str,
    prefix: str = "trace",
) -> List[str]:
    """Write one JSONL trace per ``pid`` lane of ``tracer``'s ring buffer.

    Each file starts with a ``clock_sync`` metadata line (all lanes of
    one tracer share its epoch) followed by the lane's events in emission
    order, one Chrome-format JSON object per line.  Returns the paths
    written, ordered by pid.
    """
    lanes: Dict[int, List[Dict[str, Any]]] = {}
    for event in tracer.events():
        lanes.setdefault(event.pid, []).append(event.to_chrome())
    os.makedirs(directory, exist_ok=True)
    paths: List[str] = []
    for pid in sorted(lanes):
        path = os.path.join(directory, f"{prefix}_host{pid}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(_clock_sync_line(pid, tracer.epoch_unix)))
            fh.write("\n")
            for chrome in lanes[pid]:
                fh.write(json.dumps(chrome, sort_keys=True))
                fh.write("\n")
        paths.append(path)
    return paths


def _read_jsonl(path: str) -> List[Dict[str, Any]]:
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MergeError(f"{path}:{lineno}: not JSON ({exc})") from exc
            if not isinstance(record, dict):
                raise MergeError(f"{path}:{lineno}: not a trace object")
            records.append(record)
    return records


def merge_traces(
    paths: Iterable[str],
    out_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Merge per-host JSONL traces onto one wall-clock time axis.

    Each file's ``clock_sync`` metadata anchors its microsecond axis;
    every event timestamp is shifted by the file's epoch delta against
    the earliest epoch across all files, so one host's ``udp_send`` and
    another's ``udp_recv`` land in true wall order.  A file without a
    ``clock_sync`` line is accepted unshifted (delta zero) -- merging
    same-process exports must not require the writer half.

    Returns the Chrome trace dict; also writes it to ``out_path`` when
    given.
    """
    paths = list(paths)
    if not paths:
        raise MergeError("no trace files to merge")
    files: List[Dict[str, Any]] = []
    for path in paths:
        records = _read_jsonl(path)
        epoch: Optional[float] = None
        for record in records:
            if record.get("name") == "clock_sync" and record.get("ph") == "M":
                args = record.get("args") or {}
                if "epoch_unix" in args:
                    epoch = float(args["epoch_unix"])
                    break
        files.append({"path": path, "records": records, "epoch": epoch})
    known = [f["epoch"] for f in files if f["epoch"] is not None]
    base = min(known) if known else 0.0
    merged: List[Dict[str, Any]] = []
    for entry in files:
        epoch = entry["epoch"]
        shift_us = ((epoch - base) * 1e6) if epoch is not None else 0.0
        for record in entry["records"]:
            if record.get("ph") == "M":
                # Metadata is timeless; clock_sync already served its
                # purpose and would be misleading post-shift.
                if record.get("name") == "clock_sync":
                    continue
                merged.append(record)
                continue
            shifted = dict(record)
            shifted["ts"] = float(record.get("ts", 0.0)) + shift_us
            merged.append(shifted)
    # Stable wall order with metadata first: viewers tolerate unsorted
    # input, but deterministic output makes the merge testable.
    merged.sort(key=lambda r: (r.get("ph") != "M", float(r.get("ts", 0.0))))
    trace: Dict[str, Any] = {
        "traceEvents": merged,
        "displayTimeUnit": "ms",
        "metadata": {
            "merged_files": [os.path.basename(f["path"]) for f in files],
            "base_epoch_unix": base,
        },
    }
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(trace, fh, indent=None, sort_keys=True)
            fh.write("\n")
    return trace


@contextmanager
def traced_run(trace_dir: Optional[str], prefix: str) -> Iterator[List[str]]:
    """Trace the enclosed live run into ``trace_dir`` (no-op when unset).

    Installs a ring-buffered :class:`Tracer` as the process-wide tracer
    for the block.  On any exit -- an exception included, since a run
    that dies is the one whose trace matters most -- it writes one JSONL
    trace per host lane (``<prefix>_host<pid>.jsonl``) and, if any lane
    recorded events, their merge (``<prefix>_merged_trace.json``).  The
    yielded list receives those paths, merged trace last, as the block
    exits.
    """
    written: List[str] = []
    if not trace_dir:
        yield written
        return
    tracer = Tracer(enabled=True)
    tracer.add_sink(RingBufferSink(200_000))
    try:
        with use_tracer(tracer):
            yield written
    finally:
        written.extend(export_host_traces(tracer, trace_dir, prefix=prefix))
        if written:
            merged = os.path.join(trace_dir, f"{prefix}_merged_trace.json")
            merge_traces(written, out_path=merged)
            written.append(merged)
