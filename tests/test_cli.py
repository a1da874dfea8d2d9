"""Tests for the command-line interface."""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import cli
from repro.cli import build_parser, main

REPO = Path(__file__).resolve().parent.parent


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestSharedOptions:
    @pytest.mark.parametrize(
        "verb",
        ["figures", "compare", "trace", "profile", "live", "chaos",
         "dataplane"],
    )
    def test_seed_after_the_verb_reaches_the_handler(self, verb, monkeypatch):
        seen = []
        monkeypatch.setattr(
            cli, f"_cmd_{verb}", lambda args: seen.append(args.seed) or 0
        )
        assert main([verb, "--seed", "5"]) == 0
        assert seen == [5]


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
        assert main(["trace", "--switches", "10", "--members", "3", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "agreement: True" in out
        assert "convergence profile" in out
        assert "flood" in out

    def test_trace_rejects_more_members_than_switches(self):
        with pytest.raises(SystemExit, match="members <= switches"):
            main(["trace", "--switches", "4", "--members", "9"])

    def test_profile_takes_a_size(self, capsys):
        # All 24 switches joining keep the named share (~97.5%, ~1.5 pp
        # spread) well clear of the 90% gate the exit status reports.
        assert main(["profile", "--quick", "--switches", "24", "--members", "24"]) == 0
        out = capsys.readouterr().out
        assert "named layers" in out and "trees.dynamic.graft_path" in out
        with pytest.raises(SystemExit, match="members <= switches"):
            main(["profile", "--switches", "4", "--members", "9"])


class TestTraceCommand:
    def test_failed_run_leaves_the_process_tracer_alone(
        self, monkeypatch, tmp_path
    ):
        from repro.core import DgmcNetwork
        from repro.obs import tracer as obs_tracer

        sinks = []

        class RecordingSink(obs_tracer.JsonlSink):
            def __init__(self, target):
                super().__init__(target)
                sinks.append(self)

        def dying_run(self, *args, **kwargs):
            raise RuntimeError("run died")

        monkeypatch.setattr(obs_tracer, "JsonlSink", RecordingSink)
        monkeypatch.setattr(DgmcNetwork, "run", dying_run)
        with pytest.raises(RuntimeError, match="run died"):
            main(["trace", "--switches", "6", "--members", "2",
                  "--export-jsonl", str(tmp_path / "t.jsonl")])
        assert obs_tracer.TRACER._sinks == []
        assert not obs_tracer.TRACER.enabled
        assert len(sinks) == 1 and sinks[0]._file.closed


class TestLiveCommand:
    def test_trace_dir_is_written_when_the_run_dies(
        self, monkeypatch, tmp_path
    ):
        from repro.net import equiv
        from repro.obs import tracer as obs_tracer

        def dying_run_live(scenario, **kwargs):
            with obs_tracer.TRACER.span("work", cat="test", pid=3):
                pass
            raise RuntimeError("run died")

        monkeypatch.setattr(equiv, "run_live", dying_run_live)
        with pytest.raises(RuntimeError, match="run died"):
            main(["live", "--switches", "4", "--events", "1", "--seed", "5",
                  "--trace-dir", str(tmp_path)])
        trace = json.loads((tmp_path / "live_s5_trace.json").read_text())
        assert 3 in {e["pid"] for e in trace["traceEvents"]}


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


# ---------------------------------------------------------------------------
# Every command line the repository prints must still parse
# ---------------------------------------------------------------------------

#: ``repro ...`` or ``python -m repro[.cli] ...``, after any ``VAR=value``.
_COMMAND = re.compile(r"^\s*(?:\w+=\S*\s+)*(?:python3? -m\s+repro(?:\.cli)?|repro)\s")


def _repro_argv(line):
    """The arguments of the ``repro`` command one shell line runs, or None."""
    m = _COMMAND.match(line)
    if m is None:
        return None
    argv = []
    for arg in shlex.split(line[m.end():], comments=True):
        if arg in ("|", "||", "&&", ";"):
            break
        argv.append(arg)
    return argv


def _shell_commands(text):
    """Commands of a shell snippet, ``\\``-continued lines joined."""
    lines = re.sub(r"\\\n\s*", " ", text).splitlines()
    return [argv for argv in map(_repro_argv, lines) if argv is not None]


def _workflow_commands(path):
    """Commands of a workflow's ``run:`` steps, folded (``>``) blocks joined."""
    lines = path.read_text().splitlines()
    commands = []
    for i, line in enumerate(lines):
        m = re.match(r"(\s*)(?:- )?run:\s*([>|]?)(.*)$", line)
        if not m:
            continue
        indent, style, inline = len(m.group(1)), m.group(2), m.group(3)
        body = [inline]
        for follow in lines[i + 1:] if style else ():
            if follow.strip() and len(follow) - len(follow.lstrip()) <= indent:
                break
            body.append(follow.strip())
        commands += _shell_commands((" " if style == ">" else "\n").join(body))
    return commands


def _markdown_commands(path):
    """Commands inside the fenced code blocks of a Markdown file."""
    blocks = re.findall(r"^ *```[^\n]*\n(.*?)^ *```", path.read_text(), re.M | re.S)
    return [argv for block in blocks for argv in _shell_commands(block)]


def _chaos_replay_commands(monkeypatch):
    """The replay line a chaos flight-recorder artifact carries."""
    from repro.core.invariants import Violation
    from repro.net import chaos
    from repro.obs import flight

    replays = []
    monkeypatch.setattr(
        flight,
        "dump_on_violation",
        lambda reason, context, registry: replays.append(context["replay"]),
    )
    for settings in (
        chaos.ChaosSettings(),
        chaos.ChaosSettings(reorder=0.2, ablate_member_stamp=True, frr=True),
    ):
        chaos._record_violations(
            chaos.ChaosReport(settings=settings, schedule=[]),
            [Violation("agreement", "planted")],
            SimpleNamespace(metrics=None),
        )
    return [_repro_argv(line) for line in replays]


def _printed_commands(monkeypatch):
    found = []
    for path in sorted((REPO / ".github" / "workflows").glob("*.yml")):
        found += [(path.name, argv) for argv in _workflow_commands(path)]
    docs = [REPO / "README.md", REPO / ".claude" / "skills" / "verify" / "SKILL.md"]
    for path in docs + sorted((REPO / "docs").glob("*.md")):
        found += [(path.name, argv) for argv in _markdown_commands(path)]
    found += [("chaos replay", argv) for argv in _chaos_replay_commands(monkeypatch)]
    return found


class TestPrintedCommandsParse:
    """CI steps, docs and the flight recorder's replay line name only
    options that exist: a failure must replay from the command it prints."""

    def test_every_printed_command_parses(self, monkeypatch):
        found = _printed_commands(monkeypatch)
        assert {"ci.yml", "stress-deep.yml", "README.md", "SKILL.md",
                "chaos replay"} <= {source for source, _ in found}
        parser = build_parser()
        for source, argv in found:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"{source}: repro {shlex.join(argv)} does not parse")
