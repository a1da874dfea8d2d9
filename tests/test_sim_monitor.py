"""Tests for cross-trial statistics: streaming mean and 95% CI (Welford).

The CSIM-style ``Table`` these tests were written against was folded into
its one caller, :func:`repro.harness.metrics.aggregate`; the file keeps
its name so the test ids do not move.
"""

from __future__ import annotations

import math
import statistics

import pytest
from hypothesis import given, strategies as st

from repro.harness.metrics import aggregate, t_quantile_975


def halfwidth_of(data):
    return (
        t_quantile_975(len(data) - 1) * statistics.stdev(data) / math.sqrt(len(data))
    )


class TestTable:
    def test_empty_table(self):
        agg = aggregate([])
        assert agg.count == 0
        assert agg.mean == 0.0
        assert agg.halfwidth == 0.0

    def test_single_observation(self):
        agg = aggregate([5.0])
        assert agg.mean == 5.0
        assert agg.halfwidth == 0.0
        assert agg.minimum == agg.maximum == 5.0

    def test_known_sample(self):
        data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        agg = aggregate(data)
        assert agg.count == len(data)
        assert agg.mean == pytest.approx(statistics.mean(data))
        assert agg.halfwidth == pytest.approx(halfwidth_of(data))
        assert agg.minimum == 2.0
        assert agg.maximum == 9.0

    def test_confidence_interval_matches_formula(self):
        data = [1.0, 2.0, 3.0, 4.0, 5.0]
        agg = aggregate(iter(data))  # one streaming pass: a generator is fine
        expected_hw = halfwidth_of(data)
        assert agg.halfwidth == pytest.approx(expected_hw)
        assert agg.low == pytest.approx(3.0 - expected_hw)
        assert agg.high == pytest.approx(3.0 + expected_hw)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=200))
    def test_welford_matches_statistics_module(self, data):
        agg = aggregate(data)
        assert agg.mean == pytest.approx(statistics.mean(data), rel=1e-9, abs=1e-6)
        assert agg.halfwidth == pytest.approx(halfwidth_of(data), rel=1e-6, abs=1e-4)


class TestTQuantile:
    def test_small_dof_values(self):
        assert t_quantile_975(1) == pytest.approx(12.706)
        assert t_quantile_975(9) == pytest.approx(2.262)

    def test_large_dof_uses_normal(self):
        assert t_quantile_975(1000) == pytest.approx(1.96)

    def test_monotone_decreasing(self):
        values = [t_quantile_975(d) for d in range(1, 40)]
        assert values == sorted(values, reverse=True)

    def test_published_table_agreement(self):
        """The two-sided 95% column of the published Student-t table."""
        table = {1: 12.706, 5: 2.571, 10: 2.228, 25: 2.060, 30: 2.042}
        for dof, expected in table.items():
            assert t_quantile_975(dof) == pytest.approx(expected, abs=5e-3)
