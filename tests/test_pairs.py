"""The paired A/B table of ``benchmarks/pairs.py``, on canned result lines."""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "benchmarks" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stdout(p50: float, throughput: float, failed: int = 0, attempted: int = 1000) -> str:
    """What ``run.py --trace 0`` prints: a report, then the result line."""
    record = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {
            "op_ms_p50": {"value": p50, "unit": "ms"},
            "throughput_per_s": {"value": throughput, "unit": "1/s"},
        },
    }
    return "\n".join([
        "# live_udp_n16 seed=1996 pass=timed seconds=18 quick=False",
        f"op_ms_p50 {p50:>16.6f} ms",
        'E2E-DETAIL {"not": "the result line"}',
        json.dumps(record),
    ])


METRICS = [
    {"name": "op_ms_p50", "better": "lower"},
    {"name": "throughput_per_s", "better": "higher"},
]


def test_the_result_line_is_the_last_json_object(pairs):
    run = pairs.parse_result(stdout(1.5, 600.0, failed=2) + "\n")
    assert run["failed"] == 2 and run["metrics"]["op_ms_p50"]["value"] == 1.5
    with pytest.raises(ValueError):
        pairs.parse_result("# nothing here\n")


def test_quartiles_are_inclusive(pairs):
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_numbers_keep_four_significant_digits(pairs):
    assert [pairs.fmt(x) for x in (9.1764, 12.4, 0.0612, 608.33, 612345.0, 0.0)] == [
        "9.176", "12.40", "0.061", "608.3", "612.3k", "0",
    ]


def test_rows_for_a_resolved_win_and_an_unresolved_metric(pairs):
    parent = [(1.42, 600.0), (1.41, 610.0), (1.44, 590.0), (1.40, 640.0), (1.43, 620.0)]
    change = [(1.18, 640.0), (1.19, 580.0), (1.17, 600.0), (1.20, 612.0), (1.21, 615.0)]
    runs = [
        (pairs.parse_result(stdout(*p)), pairs.parse_result(stdout(*c, failed=int(i == 0))))
        for i, (p, c) in enumerate(zip(parent, change))
    ]
    header, rule, p50, throughput, ops = pairs.HEADER + pairs.table_rows(
        "live_udp_n16", runs, METRICS
    )
    assert header.startswith("| workload (pairs) | metric | parent q1 / median / q3")
    assert p50 == (
        "| `live_udp_n16` (5) | `op_ms_p50` | 1.410 / 1.420 / 1.430 | "
        "1.180 / 1.190 / 1.200 | 5/5 | -16.2% (parent IQR 0.020; "
        "every change run better than every parent run) |"
    )
    # Higher is better: two wins, and +0.3% is inside the parent's IQR.
    assert throughput == (
        "|  | `throughput_per_s` | 600.0 / 610.0 / 620.0 | "
        "600.0 / 612.0 / 615.0 | 2/5 | +0.3% (parent IQR 20.00 — unresolved) |"
    )
    assert ops == "|  | failed / attempted | 0 / 5,000 | 1 / 5,000 | | |"


class Finished:
    def __init__(self, returncode: int, stdout: str) -> None:
        self.returncode, self.stdout, self.stderr = returncode, stdout, ""


def test_calls_come_from_each_checkouts_profiler(pairs, tmp_path):
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "profile.py").write_text("")
    seen = []

    def run(cmd, cwd, **kwargs):
        seen.append((cmd[1:], cwd))
        return Finished(0, "# note\n" + json.dumps({"events": 40, "per_event": 4178.3}))

    assert pairs.calls_per_event(tmp_path, "churn_dense_n64", 7, run=run) == 4178.3
    assert seen == [([str(tmp_path / "benchmarks" / "profile.py"), "--workload",
                      "churn_dense_n64", "--seed", "7", "--calls"], tmp_path)]
    assert pairs.calls_per_event(tmp_path, "w", 7, run=lambda *a, **k: Finished(2, "")) is None
    assert pairs.calls_per_event(tmp_path / "none", "w", 7, run=run) is None


def test_an_unresolved_wall_beside_flat_calls_is_layout_noise(pairs):
    parent = [(1.42, 600.0), (1.41, 610.0), (1.44, 590.0), (1.40, 640.0), (1.43, 620.0)]
    change = [(1.43, 600.0), (1.40, 610.0), (1.42, 590.0), (1.44, 640.0), (1.41, 620.0)]
    runs = [(pairs.parse_result(stdout(*p)), pairs.parse_result(stdout(*c)))
            for p, c in zip(parent, change)]
    *_, flat = pairs.table_rows("w", runs, METRICS, calls=(4178.3, 4180.0))
    assert flat == (
        "|  | repro calls / event | 4178 | 4180 | | +0.0% "
        "(flat; the unresolved wall reading is layout noise) |"
    )
    *_, fell = pairs.table_rows("w", runs, METRICS, calls=(16828.5, 9500.0))
    assert fell == "|  | repro calls / event | 16828 | 9500 | | -43.5% |"
    *_, missing = pairs.table_rows("w", runs, METRICS, calls=(None, 9500.0))
    assert missing == "|  | repro calls / event | n/a | 9500 | | not counted |"
