"""Tests for trial metrics and cross-trial aggregation."""

from __future__ import annotations

import pytest

from repro.harness.metrics import (
    Aggregate,
    TrialMetrics,
    aggregate,
    aggregate_metric,
    convergence_rounds,
)


class TestTrialMetrics:
    def make(self, **kw):
        defaults = dict(
            events=10,
            computations=25,
            floodings=15,
            first_event_time=100.0,
            last_install_time=150.0,
            round_length=10.0,
        )
        defaults.update(kw)
        return TrialMetrics(**defaults)

    def test_per_event_ratios(self):
        m = self.make()
        assert m.computations_per_event == pytest.approx(2.5)
        assert m.floodings_per_event == pytest.approx(1.5)

    def test_zero_events_gives_zero_ratios(self):
        m = self.make(events=0)
        assert m.computations_per_event == 0.0
        assert m.floodings_per_event == 0.0

    def test_convergence(self):
        m = self.make()
        assert m.convergence_time == pytest.approx(50.0)
        assert m.convergence_rounds == pytest.approx(5.0)

    def test_convergence_never_negative(self):
        m = self.make(last_install_time=50.0)  # installed before the burst
        assert m.convergence_time == 0.0

    def test_zero_round_length(self):
        m = self.make(round_length=0.0)
        assert m.convergence_rounds == 0.0


class TestConvergenceRounds:
    def test_basic(self):
        assert convergence_rounds(0.0, 30.0, 5.0, 5.0) == pytest.approx(3.0)

    def test_clamped_at_zero(self):
        assert convergence_rounds(10.0, 5.0, 1.0, 1.0) == 0.0

    def test_zero_round_rejected(self):
        with pytest.raises(ValueError):
            convergence_rounds(0.0, 1.0, 0.0, 0.0)


class TestAggregate:
    def test_known_sample(self):
        agg = aggregate([1.0, 2.0, 3.0, 4.0, 5.0])
        assert agg.mean == pytest.approx(3.0)
        assert agg.count == 5
        assert agg.minimum == 1.0
        assert agg.maximum == 5.0
        assert agg.low < 3.0 < agg.high
        assert agg.low == pytest.approx(agg.mean - agg.halfwidth)

    def test_empty(self):
        agg = aggregate([])
        assert agg.count == 0
        assert agg.mean == 0.0

    def test_singleton_has_zero_halfwidth(self):
        agg = aggregate([7.0])
        assert agg.halfwidth == 0.0

    def test_str_mentions_mean_and_n(self):
        text = str(aggregate([1.0, 2.0]))
        assert "n=2" in text

    def test_aggregate_metric(self):
        trials = [
            TrialMetrics(events=2, computations=4, floodings=2),
            TrialMetrics(events=2, computations=8, floodings=2),
        ]
        agg = aggregate_metric(trials, lambda t: t.computations_per_event)
        assert agg.mean == pytest.approx(3.0)

    def test_ci_contains_true_mean_usually(self):
        # sanity on the Student-t path: CI of a tight sample is tight
        agg = aggregate([10.0, 10.1, 9.9, 10.0, 10.05, 9.95])
        assert agg.halfwidth < 0.2
