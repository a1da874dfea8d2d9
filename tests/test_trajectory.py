"""``benchmarks/trajectory.py`` renders the root BENCH files' git history.

Each test builds a throwaway repository whose commits touch the three
files one at a time, so which commit may own a row is known exactly.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import subprocess
from typing import Dict, List, Optional

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def trajectory():
    spec = importlib.util.spec_from_file_location(
        "trajectory", ROOT / "benchmarks" / "trajectory.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def git(repo: pathlib.Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
         "-c", "commit.gpgsign=false", *args],
        cwd=repo, capture_output=True, text=True, check=True,
    ).stdout.strip()


def write(repo: pathlib.Path, name: str, data: dict) -> None:
    (repo / name).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def commit(repo: pathlib.Path, message: str) -> str:
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", message)
    return git(repo, "log", "-1", "--format=%h")


def e2e(op_ms: Dict[str, float]) -> dict:
    return {"workloads": {w: {"end_to_end": {"op_ms_p50": v}} for w, v in op_ms.items()}}


def profile(shares: Dict[str, float], calls: Optional[Dict[str, float]] = None) -> dict:
    record = {"layers": {layer: {"share": s, "ms_per_event": s} for layer, s in shares.items()}}
    if calls is not None:
        record["calls"] = {"per_event": sum(calls.values()), "layers": calls}
    return {"workloads": {"w": record}}


def scaling(runs: Dict[str, float]) -> dict:
    return {"workload": "w", "runs": {
        label: {"sizes": [{"n": 50}, {"n": 100}], "slopes": {"op_ms_p50": slope}}
        for label, slope in runs.items()
    }}


@pytest.fixture(scope="module")
def history(tmp_path_factory):
    """Four commits, each touching only the files it names, then an
    uncommitted edit of ``BENCH_e2e.json``; returns (repo, shas)."""
    repo = tmp_path_factory.mktemp("history")
    git(repo, "init", "-q")
    shas = {}
    write(repo, "BENCH_e2e.json", e2e({"a": 1.5, "b": 3.0}))
    shas["e2e"] = commit(repo, "e2e only")
    write(repo, "BENCH_profile.json", profile({"sim": 0.5, "trees": 0.25, "lsr": 0.125, "dp": 0.0625}))
    shas["profile"] = commit(repo, "profile only, no calls")
    (repo / "unrelated.txt").write_text("touches no BENCH file\n")
    shas["unrelated"] = commit(repo, "no BENCH file")
    write(repo, "BENCH_profile.json", profile({"sim": 0.25, "trees": 0.5, "lsr": 0.125},
                                              {"sim": 100.0, "trees": 20.0}))
    write(repo, "BENCH_scaling.json", scaling({"first": 0.75}))
    shas["calls"] = commit(repo, "profile with calls, first scaling run")
    write(repo, "BENCH_e2e.json", e2e({"a": 1.25, "b": 2.5, "c": 8.0}))
    write(repo, "BENCH_scaling.json", scaling({"first": 0.75, "second": 0.5}))
    shas["second"] = commit(repo, "e2e again, second scaling run")
    write(repo, "BENCH_e2e.json", e2e({"a": 0.875, "b": 2.5, "c": 8.0}))
    return repo, shas


def tables(text: str) -> Dict[str, List[List[str]]]:
    """Body rows of every table, by the title of its section."""
    out: Dict[str, List[List[str]]] = {}
    title = None
    for line in text.splitlines():
        if line.startswith("## "):
            title, rows = line[3:], []
            out[title] = rows
        elif line.startswith("| ") and title is not None:
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return {t: rows[1:] for t, rows in out.items()}  # drop each header row


def section(text: str, prefix: str) -> List[List[str]]:
    (rows,) = [rows for title, rows in tables(text).items() if title.startswith(prefix)]
    return rows


def test_one_op_ms_row_per_commit_that_touched_e2e_then_the_working_tree(trajectory, history):
    repo, shas = history
    rows = section(trajectory.render(repo), "`op_ms_p50`")
    assert rows == [
        [f"`{shas['e2e']}`", "1.500", "3.000", ""],
        [f"`{shas['second']}`", "1.250", "2.500", "8.000"],
        ["working tree", "0.875", "2.500", "8.000"],
    ]


def test_calls_are_blank_before_the_profile_counts_them(trajectory, history):
    repo, shas = history
    rows = section(trajectory.render(repo), "Calls into `repro` per event: `w`")
    assert rows == [
        [f"`{shas['profile']}`", "", "", ""],
        [f"`{shas['calls']}`", "120.0", "100.0", "20.00"],
    ]


def test_top_three_sampled_layers_per_profile_commit(trajectory, history):
    repo, shas = history
    rows = section(trajectory.render(repo), "Top three sampled layers")
    assert rows == [
        [f"`{shas['profile']}`", "`sim` 50.0%, `trees` 25.0%, `lsr` 12.5%"],
        [f"`{shas['calls']}`", "`trees` 50.0%, `sim` 25.0%, `lsr` 12.5%"],
    ]


def test_each_scaling_run_appears_once_at_the_commit_that_recorded_it(trajectory, history):
    repo, shas = history
    rows = section(trajectory.render(repo), "Log-log slopes")
    assert rows == [
        [f"`{shas['calls']}`", "`first`", "50, 100", "0.750"],
        [f"`{shas['second']}`", "`second`", "50, 100", "0.500"],
    ]


def test_commits_that_touch_no_bench_file_are_left_out(trajectory, history):
    repo, shas = history
    text = trajectory.render(repo)
    assert shas["unrelated"] not in text
    legend = [line for line in text.splitlines() if line.startswith("- `")]
    order = [shas[key] for key in ("e2e", "profile", "calls", "second")]
    assert legend == [f"- `{sha}` {git(repo, 'log', '-1', '--format=%s', sha)}" for sha in order]


def test_a_clean_working_tree_adds_no_row(trajectory, history, tmp_path):
    repo, _ = history
    clone = tmp_path / "clone"
    git(tmp_path, "clone", "-q", str(repo), str(clone))
    rendered = trajectory.render(clone)
    assert "working tree" not in rendered
    assert section(rendered, "`op_ms_p50`") == section(trajectory.render(repo), "`op_ms_p50`")[:-1]


def test_two_renders_print_the_same_bytes(trajectory, history):
    repo, _ = history
    assert trajectory.render(repo) == trajectory.render(repo)


def test_any_argument_is_rejected(trajectory, capsys):
    assert trajectory.main(["--quick"]) == 2
    assert "no arguments" in capsys.readouterr().err
