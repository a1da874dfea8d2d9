"""The benchmark regression harness: schema, invariants, baseline gating."""

from __future__ import annotations

import copy
import importlib.util
import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
REGRESS_PATH = ROOT / "benchmarks" / "regress.py"


@pytest.fixture(scope="module")
def regress():
    spec = importlib.util.spec_from_file_location("regress", REGRESS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def quick_report(regress):
    """One quick-mode run shared by the schema/invariant/baseline tests."""
    return regress.run_benchmarks("quick")


def as_baseline(regress, report):
    """A committed-format baseline holding ``report`` as its mode's entry."""
    return {"schema": regress.SCHEMA, "modes": {report["mode"]: report}}


class TestReportSchema:
    def test_header_fields(self, regress, quick_report):
        assert quick_report["schema"] == regress.SCHEMA
        assert quick_report["mode"] == "quick"
        assert quick_report["sizes"] == [16]
        assert json.loads(json.dumps(quick_report)) == quick_report

    def test_every_benchmark_reports_wall_time(self, regress, quick_report):
        benches = quick_report["benchmarks"]
        expected = {
            name for name, bench in regress.BENCHMARKS.items() if "quick" in bench.modes
        }
        assert set(benches) == expected
        for record in benches.values():
            assert record["wall_time_s"] >= 0.0

    def test_churn_benchmarks_report_protocol_counters(self, quick_report):
        for name in ("exp1_churn", "exp2_churn"):
            record = quick_report["benchmarks"][name]
            assert record["events"] > 0
            assert record["computations"] > 0
            assert record["dijkstra_runs"] > 0
            assert record["all_agreed"] is True
            assert 0.0 <= record["spf_hit_rate"] <= 1.0


class TestInvariants:
    def test_quick_run_satisfies_invariants(self, regress, quick_report):
        assert regress.check_invariants(quick_report) == []

    def test_cache_equivalence_meets_acceptance_bar(self, quick_report):
        eq = quick_report["benchmarks"]["cache_equivalence"]
        assert eq["identical_trees"] is True
        assert eq["dijkstra_reduction"] >= 2.0

    def test_violations_are_reported(self, regress, quick_report):
        broken = copy.deepcopy(quick_report)
        broken["benchmarks"]["cache_equivalence"]["identical_trees"] = False
        broken["benchmarks"]["cache_equivalence"]["dijkstra_reduction"] = 1.2
        broken["benchmarks"]["exp1_churn"]["all_agreed"] = False
        failures = regress.check_invariants(broken)
        assert len(failures) == 3


class TestIspfGate:
    def test_only_selects_ispf_benchmark(self, regress):
        report = regress.run_benchmarks("quick", only=["ispf_churn"])
        assert set(report["benchmarks"]) == {"ispf_churn"}
        record = report["benchmarks"]["ispf_churn"]
        assert record["identical_trees"] is True
        assert record["identical_tables"] is True

    def test_failure_churn_meets_acceptance_bar(self, regress):
        report = regress.run_benchmarks("quick", only=["ispf_failure_churn"])
        fc = report["benchmarks"]["ispf_failure_churn"]
        assert fc["identical_trees"] is True
        assert fc["identical_tables"] is True
        assert fc["ispf_repairs"] > 0
        assert fc["relaxations_ispf"] < fc["relaxations_full"]
        assert regress.check_invariants(report) == []

    def test_ispf_violations_are_reported(self, regress):
        report = {
            "sizes": [20, 100],
            "benchmarks": {
                "ispf_failure_churn": {
                    "identical_trees": False,
                    "identical_tables": False,
                    "ispf_repairs": 0,
                    "relaxation_reduction": 1.5,
                },
            },
        }
        failures = regress.check_invariants(report)
        assert len(failures) == 4
        # The relaxation gate only applies at acceptance scale (n >= 100).
        report["sizes"] = [16]
        assert len(regress.check_invariants(report)) == 3


class TestDataplaneGate:
    def test_throughput_reports_identical_deliveries(self, regress):
        report = regress.run_benchmarks("quick", only=["dataplane_throughput"])
        assert set(report["benchmarks"]) == {"dataplane_throughput"}
        dp = report["benchmarks"]["dataplane_throughput"]
        assert dp["identical_deliveries"] is True
        assert dp["mismatches"] == 0
        assert dp["batched_pps"] > 0
        assert dp["delivery_p99_sim"] >= dp["delivery_p50_sim"]
        # the >= 10x speedup gate only applies at acceptance scale
        assert regress.check_invariants(report) == []

    def test_contrast_counts_mospf_computations(self, regress):
        report = regress.run_benchmarks("quick", only=["dataplane_contrast"])
        dc = report["benchmarks"]["dataplane_contrast"]
        assert dc["mospf_computations_per_datagram"] > 0
        assert dc["dgmc_data_path_computations"] == 0
        assert dc["batched_pps"] > dc["mospf_pps"]
        assert regress.check_invariants(report) == []

    def test_dataplane_violations_are_reported(self, regress):
        report = {
            "sizes": [20, 100],
            "benchmarks": {
                "dataplane_throughput": {
                    "reference_packets": 360,
                    "identical_deliveries": False,
                    "mismatches": 3,
                    "speedup": 4.0,
                },
                "dataplane_contrast": {
                    "mospf_computations_per_datagram": 0.0,
                    "batched_pps": 100.0,
                    "mospf_pps": 200.0,
                },
            },
        }
        failures = regress.check_invariants(report)
        assert len(failures) == 4
        # The speedup gate only applies at acceptance scale (n >= 100).
        report["sizes"] = [16]
        assert len(regress.check_invariants(report)) == 3


class TestBaselineComparison:
    def test_identical_run_passes(self, regress, quick_report):
        baseline = as_baseline(regress, quick_report)
        assert regress.compare_to_baseline(quick_report, baseline) == []

    def test_wall_time_regression_fails(self, regress, quick_report):
        baseline = as_baseline(regress, copy.deepcopy(quick_report))
        run = copy.deepcopy(quick_report)
        base_time = baseline["modes"]["quick"]["benchmarks"]["exp1_churn"]["wall_time_s"] = 1.0
        run["benchmarks"]["exp1_churn"]["wall_time_s"] = base_time * 1.5
        failures = regress.compare_to_baseline(run, baseline)
        assert len(failures) == 1
        assert "wall time" in failures[0]
        # Within tolerance: no failure.
        run["benchmarks"]["exp1_churn"]["wall_time_s"] = base_time * 1.2
        assert regress.compare_to_baseline(run, baseline) == []

    def test_counter_regression_fails(self, regress, quick_report):
        baseline = as_baseline(regress, copy.deepcopy(quick_report))
        run = copy.deepcopy(quick_report)
        run["benchmarks"]["exp1_churn"]["dijkstra_runs"] = (
            quick_report["benchmarks"]["exp1_churn"]["dijkstra_runs"] * 2
        )
        failures = regress.compare_to_baseline(run, baseline)
        assert any("dijkstra_runs" in f for f in failures)

    def test_mode_mismatch_fails(self, regress, quick_report):
        baseline = copy.deepcopy(quick_report)
        baseline["mode"] = "smoke"
        failures = regress.compare_to_baseline(quick_report, baseline)
        assert failures and "mode" in failures[0]

    def test_multi_mode_baseline_selects_entry(self, regress, quick_report):
        baseline = {"schema": regress.SCHEMA,
                    "modes": {"quick": copy.deepcopy(quick_report)}}
        assert regress.compare_to_baseline(quick_report, baseline) == []
        # An entry for a different mode only does not match.
        baseline = {"schema": regress.SCHEMA,
                    "modes": {"smoke": copy.deepcopy(quick_report)}}
        failures = regress.compare_to_baseline(quick_report, baseline)
        assert failures and "mode" in failures[0]

    def test_missing_benchmark_in_baseline_is_skipped(self, regress, quick_report):
        baseline = as_baseline(regress, copy.deepcopy(quick_report))
        del baseline["modes"]["quick"]["benchmarks"]["spf_substrate"]
        assert regress.compare_to_baseline(quick_report, baseline) == []


class TestMain:
    def test_main_writes_report_and_checks_baseline(self, regress, tmp_path):
        out = tmp_path / "BENCH_quick.json"
        baseline = tmp_path / "baseline.json"
        assert (
            regress.main(
                [
                    "--mode",
                    "quick",
                    "--out",
                    str(out),
                    "--baseline",
                    str(baseline),
                    "--update-baseline",
                ]
            )
            == 0
        )
        report = json.loads(out.read_text())
        assert report["schema"] == regress.SCHEMA
        saved = json.loads(baseline.read_text())
        assert saved["modes"]["quick"] == report
        # Observability artifacts land next to the report.
        assert (tmp_path / "TRACE_quick.json").exists()
        assert (tmp_path / "METRICS_quick.prom").exists()
        # Same-machine re-run against the fresh baseline passes the gate;
        # the recorded wall times are padded so a loaded host can't flap it.
        for record in saved["modes"]["quick"]["benchmarks"].values():
            record["wall_time_s"] = record["wall_time_s"] * 5 + 1.0
        baseline.write_text(json.dumps(saved))
        assert (
            regress.main(
                [
                    "--mode",
                    "quick",
                    "--out",
                    str(out),
                    "--baseline",
                    str(baseline),
                    "--check",
                ]
            )
            == 0
        )

    def test_missing_baseline_fails_check(self, regress, tmp_path):
        assert (
            regress.main(
                [
                    "--mode",
                    "quick",
                    "--only",
                    "spf_substrate",
                    "--out",
                    str(tmp_path / "b.json"),
                    "--baseline",
                    str(tmp_path / "nope.json"),
                    "--check",
                ]
            )
            == 1
        )

    def test_update_baseline_refuses_a_run_that_fails_its_invariants(
        self, regress, tmp_path, monkeypatch
    ):
        """A broken run must never become the reference the gate compares to."""
        entry = regress.BENCHMARKS["exp1_churn"]
        monkeypatch.setitem(
            regress.BENCHMARKS,
            "exp1_churn",
            entry._replace(run=lambda sizes, graphs: {"all_agreed": False}),
        )
        baseline = tmp_path / "baseline.json"
        baseline.write_text('{"schema": "repro-bench/v1", "modes": {}}\n')
        before = baseline.read_bytes()
        argv = [
            "--mode", "quick", "--only", "exp1_churn",
            "--out", str(tmp_path / "BENCH_quick.json"),
            "--baseline", str(baseline), "--update-baseline",
        ]
        assert regress.main(argv) == 1
        assert baseline.read_bytes() == before


class TestRegistry:
    """The registry, the committed baseline and CI name the same gates."""

    @pytest.fixture(scope="class")
    def baseline(self):
        return json.loads((ROOT / "benchmarks" / "bench_baseline.json").read_text())

    def test_modes_ci_and_baseline_agree(self, regress, baseline):
        registry_modes = {mode for b in regress.BENCHMARKS.values() for mode in b.modes}
        assert registry_modes == set(regress.MODES)
        ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
        gated = set()
        for args in re.findall(r"python benchmarks/regress\.py ([^\n]*)", ci):
            words = args.split()
            if "--check" in words:
                gated.update(re.findall(r"--mode (\w+)", args))
                if "--smoke" in words:
                    gated.add("smoke")
        assert registry_modes - {"quick"} <= gated
        assert set(baseline["modes"]) == registry_modes

    def test_every_gated_key_is_in_the_baseline_record(self, regress, baseline):
        missing = [
            (mode, name, key)
            for name, bench in regress.BENCHMARKS.items()
            for mode in bench.modes
            for key in ("wall_time_s", *bench.counters, *bench.latencies)
            if key not in baseline["modes"][mode]["benchmarks"][name]
        ]
        assert missing == []
