"""Import layering: the protocol stack does not load the live runtime.

``repro.net`` imports ``repro.core`` / ``repro.lsr`` / ``repro.sim``, never
the other way round, so a simulation (or the model checker) pays for no
asyncio and no UDP transport.  The runtime probe runs in a subprocess:
this process has long since imported everything.  The AST walk catches
what the probe cannot see -- an import inside a function body.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

from repro.core import DgmcNetwork, JoinEvent, LinkEvent, ProtocolConfig
from repro.topo.generators import ring_network

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


def test_src_imports_exactly_the_declared_dependencies():
    """The shortest-path stack is pure Python: nothing under ``src/``
    imports numpy or scipy at any depth, and what it does import from
    outside the standard library is ``pyproject.toml``'s ``dependencies``."""
    third_party = set()
    for path in sorted(Path(SRC).rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for module in _imported_modules(tree):
            top = module.split(".")[0]
            if top != "repro" and top not in sys.stdlib_module_names:
                third_party.add(top)
    assert not third_party & {"numpy", "scipy"}
    pyproject = (Path(SRC).parent / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies = \[(.*?)^\]", pyproject, re.S | re.M).group(1)
    declared = {
        re.match(r"[\w.-]+", spec).group(0) for spec in re.findall(r'"([^"]+)"', block)
    }
    assert third_party == declared


TRACE_PY = Path(SRC).parent / "benchmarks" / "e2e" / "trace.py"


def test_the_frozen_benchmark_tracer_still_binds_every_name_it_wraps(monkeypatch):
    """``benchmarks/e2e/trace.py`` wraps classes and functions of ``src/``
    *by name* and reads two return values (``len(plan.fragments)``,
    ``len(activated)``).  The regression driver runs it unedited after a
    PR is finished, so a rename -- or a call site the rebinding cannot
    reach -- must fail here, not there."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # load read-only
    spec = importlib.util.spec_from_file_location("_e2e_trace", TRACE_PY)
    trace_py = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_py)
    trace = trace_py.Trace()
    trace.install()
    try:
        assert trace_py.installed_wrappers()
        trace.paused = False
        dgmc = DgmcNetwork(
            ring_network(6),
            ProtocolConfig(compute_time=0.5, per_hop_delay=0.05, enable_frr=True),
        )
        dgmc.register_symmetric(1)
        for i, member in enumerate((0, 2, 4)):
            dgmc.inject(JoinEvent(member, 1), at=10.0 * (i + 1))
        dgmc.run()
        u, v = sorted(dgmc.states_for(1)[0].installed.all_edges())[0]
        dgmc.inject(LinkEvent(u, u, v, up=False), at=dgmc.sim.now + 1.0)
        dgmc.run()
    finally:
        trace.paused = True
        trace.remove()
    assert trace_py.installed_wrappers() == []
    # The install path and the failure detection both ran through the
    # wrappers, and their after-hooks could size what came back.
    assert trace.calls("frr", "compute_backup_plan") > 0
    assert trace.counts["frr.fragments"] > 0
    assert trace.counts["frr.activations"] == 2  # one per endpoint


# -- the documents name code that exists ------------------------------------------

ROOT = Path(SRC).parent
DOCUMENTS = [ROOT / "README.md", ROOT / "DESIGN.md", *sorted((ROOT / "docs").glob("*.md"))]
PACKAGES = sorted(
    path.name for path in Path(SRC, "repro").iterdir() if (path / "__init__.py").exists()
)
#: ``src/repro/core/switch.py``, ``repro/sim/kernel.py``, ``lsr/spfcache.py``.
SOURCE_PATH = re.compile(
    r"(?<![\w./-])(?:src/)?(?:repro/)?((?:%s)/[\w/]*\w\.py)\b" % "|".join(PACKAGES)
)
#: ``repro.core.timestamp.VectorTimestamp.merge``: modules, then attributes.
DOTTED_NAME = re.compile(r"(?<![\w./-])repro(?:\.[A-Za-z_]\w*)+")


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            found = importlib.util.find_spec(".".join(parts[:cut]))
        except ModuleNotFoundError:  # a parent that is not a package
            continue
        if found is not None:
            target = importlib.import_module(".".join(parts[:cut]))
            for attribute in parts[cut:]:
                if not hasattr(target, attribute):
                    return False
                target = getattr(target, attribute)
            return True
    return False


def test_every_source_path_and_dotted_name_in_the_documents_resolves():
    missing = []
    for document in DOCUMENTS:
        text = document.read_text(encoding="utf-8")
        for match in SOURCE_PATH.finditer(text):
            if not Path(SRC, "repro", match.group(1)).exists():
                missing.append(f"{document.name}: {match.group(0)}")
        for match in DOTTED_NAME.finditer(text):
            if not _resolves(match.group(0)):
                missing.append(f"{document.name}: {match.group(0)}")
    assert not missing, missing


def test_the_design_package_map_is_the_source_tree():
    """DESIGN.md section 3: every file a row names exists, every package has a row."""
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    block = text[text.index("```\nsrc/repro/\n"):]
    block = block[: block.index("\ntests/")]
    rows, missing = set(), []
    package = None
    for line in block.splitlines()[2:]:
        head = re.match(r"  (\w+)/ ", line)
        if head:
            package = head.group(1)
            rows.add(package)
        elif not line.startswith("   "):
            continue  # a top-level module row (cli.py)
        for name in re.findall(r"(?<![\w/])\w+\.py\b", line):
            if not Path(SRC, "repro", package, name).exists():
                missing.append(f"{package}/{name}")
    assert not missing, missing
    assert rows == set(PACKAGES), rows ^ set(PACKAGES)
