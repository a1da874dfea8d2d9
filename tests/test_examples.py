"""Smoke tests: every example script runs clean via its main()."""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def load_example(name: str):
    path = EXAMPLES / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name",
    [
        path.stem
        for path in sorted(EXAMPLES.glob("*.py"))
        if path.stem != "reproduce_figures"  # has its own test below
    ],
)
def test_example_runs(name, capsys):
    module = load_example(name)
    module.main()
    out = capsys.readouterr().out
    assert "network" in out
    assert "FAILED" not in out


def test_reproduce_figures_quick(capsys):
    module = load_example("reproduce_figures")
    assert module.main(["--quick"]) == 0
    out = capsys.readouterr().out
    assert "Figure 6" in out
    assert "Figure 7" in out
    assert "Figure 8" in out
    assert "MOSPF" in out and "brute-force" in out
    assert " NO" not in out  # every row agreed
