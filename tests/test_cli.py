"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestHelp:
    """The console entry point must answer --help for every command."""

    def test_top_level_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "repro" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command",
        ["figures", "compare", "trace", "profile", "live", "chaos", "stress",
         "dataplane"],
    )
    def test_subcommand_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert command in capsys.readouterr().out

    def test_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for command in ("figures", "compare", "trace", "profile", "live",
                        "chaos", "stress", "dataplane"):
            assert command in out


class TestCommands:
    def test_trace_runs_and_agrees(self, capsys):
        assert main(["--seed", "3", "trace", "--switches", "10", "--members", "3"]) == 0
        out = capsys.readouterr().out
        assert "agreement: True" in out
        assert "convergence profile" in out
        assert "flood" in out

    def test_profile_takes_a_size(self, capsys):
        assert main(["profile", "--switches", "20", "--members", "5"]) == 0
        assert "phase breakdown" in capsys.readouterr().out
        with pytest.raises(SystemExit, match="members <= switches"):
            main(["profile", "--switches", "4", "--members", "9"])

    def test_compare_quick(self, capsys):
        assert main(["compare", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "MOSPF" in out and "brute-force" in out

    def test_figures_quick(self, capsys):
        assert main(["figures", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out and "Figure 8" in out
        assert " NO" not in out


class TestDataplaneCommand:
    def test_runs_and_checks_equivalence(self, capsys, tmp_path):
        metrics = tmp_path / "dataplane.prom"
        code = main(
            ["dataplane", "--switches", "12", "--groups", "20",
             "--phases", "1", "--events", "4", "--batches", "1",
             "--batch-size", "32", "--reference-sample", "16",
             "--mospf", "--metrics", str(metrics)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "deliveries identical to reference: True" in out
        assert "speedup" in out
        assert "MOSPF baseline" in out
        text = metrics.read_text()
        assert "dataplane_packets_total 32" in text
        assert "dataplane_batches_total" in text

    def test_reference_sample_zero_skips_check(self, capsys):
        code = main(
            ["dataplane", "--switches", "10", "--groups", "10",
             "--phases", "1", "--events", "2", "--batches", "1",
             "--batch-size", "16", "--reference-sample", "0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "reference engine" not in out


class TestStressCommand:
    def test_list_scenarios(self, capsys):
        assert main(["stress", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("membership-race", "degraded-repair", "triple-conflict",
                     "ring4-churn", "mesh5-link-storm"):
            assert name in out

    def test_clean_run_exits_zero(self, capsys, tmp_path):
        metrics = tmp_path / "stress.prom"
        code = main(
            ["stress", "--scenario", "membership-race",
             "--require-exhaustive", "--metrics", str(metrics)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "no counterexamples" in out
        assert "FAILED" not in out
        text = metrics.read_text()
        assert "stress_states_total" in text
        assert "stress_pruned_total" in text
        assert "stress_exhaustive 1" in text

    def test_violation_exits_nonzero_and_names_invariant(self, capsys):
        code = main(
            ["stress", "--scenario", "membership-race", "--disable-m-vector"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "COUNTEREXAMPLE agreement" in out
        assert "FAILED invariant: agreement" in out

    def test_expect_counterexample_inverts_exit_code(self, capsys, tmp_path):
        code = main(
            ["stress", "--scenario", "degraded-repair",
             "--disable-degraded-repair", "--expect-counterexample",
             "--out", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "expected counterexample found (spans)" in out
        written = list(tmp_path.glob("*.json"))
        assert len(written) == 1

    def test_replay_committed_counterexample(self, capsys):
        import glob
        import os

        path = sorted(
            glob.glob(
                os.path.join(
                    os.path.dirname(__file__), "data", "stress", "*.json"
                )
            )
        )[0]
        code = main(["stress", "--replay", path])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILED invariant:" in out

    def test_budget_violation_fails_require_exhaustive(self, capsys):
        code = main(
            ["stress", "--scenario", "membership-race", "--budget", "10",
             "--require-exhaustive"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILED exhaustiveness" in out


class TestChaosCommand:
    def test_violations_name_their_invariant(self, capsys, monkeypatch):
        from repro.net import chaos as chaos_mod
        from repro.net.chaos import ChaosReport, ChaosSettings

        report = ChaosReport(
            settings=ChaosSettings(switches=4, seed=1, actions=1),
            schedule=["crash 0"],
            checks=2,
            violations=["final: agreement: member list mismatch"],
            violation_names=["agreement"],
        )
        monkeypatch.setattr(
            chaos_mod, "run_chaos_soak_sync", lambda settings: report
        )
        code = main(
            ["chaos", "--switches", "4", "--actions", "1", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILED invariant: agreement" in out

    def test_clean_soak_exits_zero(self, capsys, monkeypatch):
        from repro.net import chaos as chaos_mod
        from repro.net.chaos import ChaosReport, ChaosSettings

        report = ChaosReport(
            settings=ChaosSettings(switches=4, seed=1, actions=1),
            schedule=["join 1"],
            checks=2,
        )
        monkeypatch.setattr(
            chaos_mod, "run_chaos_soak_sync", lambda settings: report
        )
        code = main(
            ["chaos", "--switches", "4", "--actions", "1", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "FAILED" not in out
