"""The sampling profiler: samples land where the CPU time goes, and are
named by the e2e tracer's layers."""

from __future__ import annotations

import importlib.util
import sys
import time
from pathlib import Path

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
