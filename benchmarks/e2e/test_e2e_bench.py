"""Checks of the benchmark itself.  Not collected by tier-1 (pyproject's
``testpaths`` is ``tests``); run explicitly with ``pytest benchmarks/e2e``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"

sys.path.insert(0, str(ROOT / "src"))

from e2e import metrics as mx  # noqa: E402
from e2e import workloads as wl  # noqa: E402
from e2e.run import FULL_SECONDS  # noqa: E402
from e2e.trace import Trace, installed_wrappers  # noqa: E402


def test_benchmark_json_matches_the_declarations():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["run_seconds"] == FULL_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(wl.SPECS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == list(mx.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == list(mx.PER_LAYER)


def test_same_seed_same_inputs_and_membership_stays_on_target():
    spec = wl.SPECS["churn_dense_n64"]
    one, two = wl.ChurnGenerator(spec, 7), wl.ChurnGenerator(spec, 7)
    assert one.initial() == two.initial()
    for _ in range(200):
        assert one.next_round() == two.next_round()
        assert all(len(m) == spec.members for m in one.members.values())
    assert wl.ChurnGenerator(spec, 8).initial() != one.initial()

    live = wl.SPECS["live_udp_n16"]
    gen = wl.LiveGenerator(live, 7)
    for _ in range(500):
        gen.next_event(lambda c: [])
        assert abs(len(gen.members) - live.members) <= wl.LIVE_MEMBER_SLACK

    zipf = wl.ZipfGenerator(wl.SPECS["zipf_traffic_n100"], 7)
    for _ in range(3):
        zipf.next_phase()
    assert all(
        abs(len(zipf.members[g]) - zipf.target[g]) <= 2 for g in zipf.members
    )


def test_wrappers_come_off_and_the_timed_pass_refuses_them():
    from e2e import passes

    assert installed_wrappers() == []
    trace = Trace()
    trace.install()
    try:
        assert installed_wrappers()
        with pytest.raises(RuntimeError, match="wrappers installed"):
            passes.timed_pass(wl.SPECS["churn_dense_n64"], 1, 0.1, quick=True)
    finally:
        trace.remove()
    assert installed_wrappers() == []


def test_fails_without_the_program_under_test(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__", "TRACE_*"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "churn_dense_n64",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_selfcheck_two_runs_agree():
    # Ten minutes: every workload twice, both passes, at full length.
    proc = subprocess.run(
        [sys.executable, str(RUN), "--selfcheck"],
        cwd=ROOT, capture_output=True, text=True, timeout=3000,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
