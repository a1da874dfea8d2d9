"""Import layering: the protocol stack does not load the live runtime.

``repro.net`` imports ``repro.core`` / ``repro.lsr`` / ``repro.sim``, never
the other way round, so a simulation (or the model checker) pays for no
asyncio and no UDP transport.  The runtime probe runs in a subprocess:
this process has long since imported everything.  The AST walk catches
what the probe cannot see -- an import inside a function body.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

PROBE = """
import sys
import repro.core, repro.lsr, repro.trees, repro.sim, repro.topo
loaded = sorted(m for m in sys.modules if m == "asyncio" or m.startswith("repro.net"))
assert not loaded, loaded
"""


def test_protocol_stack_imports_neither_asyncio_nor_the_live_runtime():
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


BELOW_THE_LIVE_RUNTIME = ("core", "lsr", "sim", "trees", "topo", "frr", "stress")


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_nothing_below_the_live_runtime_imports_it_at_any_depth():
    offenders = []
    for package in BELOW_THE_LIVE_RUNTIME:
        for path in sorted(Path(SRC, "repro", package).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for module in _imported_modules(tree):
                if module == "repro.net" or module.startswith("repro.net."):
                    offenders.append(f"{path.relative_to(SRC)}: {module}")
    assert not offenders, offenders
