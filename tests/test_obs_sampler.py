"""The sampling profiler: samples land where the CPU time goes, and are
named by the e2e tracer's layers."""

from __future__ import annotations

import functools
import importlib
import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.obs.sampler import INTERVAL_S, LAYERS, MODULE_LAYERS, OTHER, Sampler, layer_of

TRACE_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "trace.py"

PLANTED = """
def busy(seconds):
    end = process_time() + seconds
    while process_time() < end:
        pass

def caller(seconds):
    busy(seconds)
"""


def planted(module: str) -> dict:
    """``busy`` and ``caller`` defined as if in ``module``."""
    namespace = {"__name__": module, "process_time": time.process_time}
    exec(compile(PLANTED, f"<{module}>", "exec"), namespace)
    return namespace


def test_a_planted_busy_function_gets_the_samples():
    code = planted("repro.core.timestamp")
    with Sampler() as sampler:
        with sampler.armed():
            code["caller"](0.5)
        code["busy"](0.2)  # disarmed: not counted
    report = sampler.report()
    assert 20 <= report["samples"] <= 0.6 / INTERVAL_S
    assert report["functions"][0]["function"] == "repro.core.timestamp.busy"
    assert report["functions"][0]["share"] >= 0.8
    assert report["layers"]["core.timestamp"] >= 0.8
    top = report["callers"][0]
    assert (top["caller"], top["function"]) == (
        "repro.core.timestamp.caller", "repro.core.timestamp.busy"
    )


def test_the_layer_names_are_the_e2e_tracers(monkeypatch):
    """Read the frozen tracer the way tests/test_layering.py does; every
    module it wraps must map to the layer it charges that module to."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # load read-only
    spec = importlib.util.spec_from_file_location("_e2e_trace", TRACE_PY)
    trace_py = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_py)
    assert LAYERS == trace_py.LAYERS
    assert set(MODULE_LAYERS.values()) == set(LAYERS)
    for layer, module, *_ in trace_py.CLASS_TARGETS + trace_py.FUNCTION_TARGETS:
        assert layer_of(module) == layer, module
    for module in MODULE_LAYERS:
        assert importlib.util.find_spec(module) is not None, module
    assert layer_of("repro.topo.generators") == OTHER


ROOT = Path(__file__).resolve().parents[1]
PROFILE_PY = ROOT / "benchmarks" / "profile.py"


def test_call_counts_repeat_across_fresh_processes():
    """``profile.py --calls`` is a deterministic count: two fresh processes
    count the same calls on the link-flap workload's quick prefix."""
    cmd = [sys.executable, str(PROFILE_PY), "--workload", "linkflap_frr_n60",
           "--calls", "--quick"]
    runs = [
        subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        for _ in range(2)
    ]
    first, second = (json.loads(run.stdout.splitlines()[-1]) for run in runs)
    assert first == second
    assert first["events"] > 0 and first["per_event"] > 0
    assert first["layers"]["lsr.flooding"] > 0
    assert sum(first["layers"].values()) == pytest.approx(first["per_event"])


def _resolves(name: str) -> bool:
    """Whether a sampled ``module.qualname`` still names code: the longest
    importable module prefix, then attributes up to the first ``<locals>``
    / ``<listcomp>`` / ... component, ending at a function, a property or
    a cached property (whose getter the qualname names).  A dataclass's
    generated methods are named ``__create_fn__.<locals>.__init__`` in the
    declaring module."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        rest = []
        for part in parts[cut:]:
            if part.startswith("<"):
                break
            rest.append(part)
        if rest == ["__create_fn__"]:
            return True
        try:
            for part in rest:
                target = getattr(target, part)
        except AttributeError:
            return False
        return callable(target) or isinstance(target, (property, functools.cached_property))
    return False


def test_every_function_in_the_committed_profile_still_resolves():
    """A committed profile naming deleted code is stale: regenerate it."""
    report = json.loads((ROOT / "BENCH_profile.json").read_text(encoding="utf-8"))
    names = set()
    for record in report["workloads"].values():
        names.update(row["function"] for row in record["functions"])
        names.update(row["caller"] for row in record["callers"] if row["caller"])
        names.update(row["function"] for row in record["callers"])
        names.update(row["function"] for row in record.get("calls", {}).get("functions", ()))
    names = {name for name in names if name.startswith("repro.")}
    assert names
    assert sorted(name for name in names if not _resolves(name)) == []


def test_the_resolver_rejects_a_deleted_function():
    assert _resolves("repro.lsr.flooding.FloodingFabric.flood")
    assert _resolves("repro.lsr.flooding.FloodingFabric.flood.<locals>.<dictcomp>")
    assert _resolves("repro.core.lsa.__create_fn__.<locals>.__init__")
    assert _resolves("repro.sim.kernel.Simulator.queue_depth")  # a property
    assert not _resolves("repro.dataplane.engine.BatchForwardingEngine._compile")
    assert not _resolves("repro.no_such_module.f")
