"""Experiment harness: runs scenarios and regenerates the paper's figures.

* :mod:`repro.harness.experiment` -- one trial loop that runs a scenario
  under D-GMC or a baseline and extracts
  :class:`~repro.harness.metrics.TrialMetrics`,
* :mod:`repro.harness.metrics` -- the paper's three metrics: per-trial
  counters, mean + 95% CI aggregation, rounds, per-switch load,
* :mod:`repro.harness.sweeps` -- repeat over network sizes and random
  graphs, aggregating with 95% confidence intervals,
* :mod:`repro.harness.figures` -- the drivers for Experiments 1-3
  (Figures 6, 7, 8) and the baseline comparison,
* :mod:`repro.harness.report` -- plain-text rendering of figure series.
"""

from repro.harness.experiment import PROTOCOLS, run_trial
from repro.harness.sweeps import SweepRow, sweep
from repro.harness.figures import (
    baseline_comparison,
    experiment1,
    experiment2,
    experiment3,
)
from repro.harness.report import render_rows

__all__ = [
    "PROTOCOLS",
    "run_trial",
    "sweep",
    "SweepRow",
    "experiment1",
    "experiment2",
    "experiment3",
    "baseline_comparison",
    "render_rows",
]
