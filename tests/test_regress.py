"""The benchmark regression harness: schema, invariants, baseline gating."""

from __future__ import annotations

import copy
import importlib.util
import json
import pathlib

import pytest

REGRESS_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "regress.py"
)


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


class TestReportSchema:
    def test_header_fields(self, regress, quick_report):
        assert quick_report["schema"] == regress.SCHEMA
        assert quick_report["mode"] == "quick"
        assert quick_report["sizes"] == [16]
        assert json.loads(json.dumps(quick_report)) == quick_report

    def test_every_benchmark_reports_wall_time(self, regress, quick_report):
        benches = quick_report["benchmarks"]
        # The ispf pair, the live SLO bench, and the dataplane and frr
        # benches only run under their own --mode (or --only).
        expected = (
            set(regress.BENCHMARKS)
            - set(regress.ISPF_BENCHMARKS)
            - set(regress.CONVERGENCE_BENCHMARKS)
            - set(regress.DATAPLANE_BENCHMARKS)
            - set(regress.FRR_BENCHMARKS)
        )
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
        assert (
            regress.compare_to_baseline(quick_report, quick_report, 0.25, 0.10)
            == []
        )

    def test_wall_time_regression_fails(self, regress, quick_report):
        baseline = copy.deepcopy(quick_report)
        run = copy.deepcopy(quick_report)
        base_time = baseline["benchmarks"]["exp1_churn"]["wall_time_s"] = 1.0
        run["benchmarks"]["exp1_churn"]["wall_time_s"] = base_time * 1.5
        failures = regress.compare_to_baseline(run, baseline, 0.25, 0.10)
        assert len(failures) == 1
        assert "wall time" in failures[0]
        # Within tolerance: no failure.
        run["benchmarks"]["exp1_churn"]["wall_time_s"] = base_time * 1.2
        assert regress.compare_to_baseline(run, baseline, 0.25, 0.10) == []

    def test_counter_regression_fails(self, regress, quick_report):
        baseline = copy.deepcopy(quick_report)
        run = copy.deepcopy(quick_report)
        run["benchmarks"]["exp1_churn"]["dijkstra_runs"] = (
            baseline["benchmarks"]["exp1_churn"]["dijkstra_runs"] * 2
        )
        failures = regress.compare_to_baseline(run, baseline, 0.25, 0.10)
        assert any("dijkstra_runs" in f for f in failures)

    def test_mode_mismatch_fails(self, regress, quick_report):
        baseline = copy.deepcopy(quick_report)
        baseline["mode"] = "smoke"
        failures = regress.compare_to_baseline(quick_report, baseline, 0.25, 0.10)
        assert failures and "mode" in failures[0]

    def test_multi_mode_baseline_selects_entry(self, regress, quick_report):
        baseline = {"schema": regress.SCHEMA,
                    "modes": {"quick": copy.deepcopy(quick_report)}}
        assert (
            regress.compare_to_baseline(quick_report, baseline, 0.25, 0.10)
            == []
        )
        # An entry for a different mode only does not match.
        baseline = {"schema": regress.SCHEMA,
                    "modes": {"smoke": copy.deepcopy(quick_report)}}
        failures = regress.compare_to_baseline(quick_report, baseline, 0.25, 0.10)
        assert failures and "mode" in failures[0]

    def test_missing_benchmark_in_baseline_is_skipped(self, regress, quick_report):
        baseline = copy.deepcopy(quick_report)
        del baseline["benchmarks"]["spf_substrate"]
        assert (
            regress.compare_to_baseline(quick_report, baseline, 0.25, 0.10)
            == []
        )


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
        # Same-machine re-run against the fresh baseline passes the gate.
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
                    "--tolerance",
                    "5.0",
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
