"""Import layering: the protocol stack does not load the live runtime.

``repro.net`` imports ``repro.core`` / ``repro.lsr`` / ``repro.sim``, never
the other way round at module level, so a simulation (or the model
checker) pays for no asyncio and no UDP transport.  Runs in a subprocess:
this process has long since imported everything.
"""

from __future__ import annotations

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
