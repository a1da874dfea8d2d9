"""Tests for the experiment harness: trial runners, sweeps, rendering."""

from __future__ import annotations

import random

import pytest

from repro.harness.experiment import PROTOCOLS, run_trial
from repro.harness.figures import (
    EXP1_COMPUTE,
    EXP1_PER_HOP,
    baseline_comparison,
    experiment1,
    experiment2,
    experiment3,
)
from repro.harness.report import render_comparison, render_rows
from repro.harness.sweeps import sweep
from repro.sim.rng import RngRegistry
from repro.topo.generators import waxman_network
from repro.workloads.membership import bursty_schedule, sparse_schedule
from repro.workloads.scenario import Scenario


def tiny_scenario(n=12, sparse=True, seed=3):
    rng = random.Random(seed)
    net = waxman_network(n, rng)
    if sparse:
        sched = sparse_schedule(n, rng, count=5, mean_gap=500.0)
    else:
        sched = bursty_schedule(n, rng, count=5, window=1.0)
    return Scenario(
        net=net,
        schedule=sched,
        compute_time=EXP1_COMPUTE,
        per_hop_delay=EXP1_PER_HOP,
        label="tiny",
    )


class TestTrialRunners:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_trial_contract(self, protocol):
        """Every protocol counts the schedule's events, agrees, reports its
        label and reproduces its counts exactly."""
        a = run_trial(tiny_scenario(sparse=False), protocol)
        b = run_trial(tiny_scenario(sparse=False), protocol)
        assert a.events == 5
        assert a.agreed
        assert a.protocol == protocol
        assert (a.computations, a.floodings, a.last_install_time) == (
            b.computations,
            b.floodings,
            b.last_install_time,
        )

    def test_dgmc_sparse_trial_near_unity(self):
        m = run_trial(tiny_scenario(sparse=True))
        assert m.computations_per_event <= 1.5
        assert m.floodings_per_event <= 1.5

    def test_dgmc_bursty_trial(self):
        m = run_trial(tiny_scenario(sparse=False))
        assert m.convergence_rounds > 0

    def test_brute_force_costs_n_per_event(self):
        m = run_trial(tiny_scenario(n=12, sparse=True), "brute-force")
        assert m.computations_per_event == pytest.approx(12.0)

    def test_mospf_costs_tree_size_per_event(self):
        m = run_trial(tiny_scenario(n=12, sparse=True), "mospf")
        # senders = initial member (1); each event triggers computations at
        # every on-tree router: strictly more than D-GMC's ~1.
        assert m.computations_per_event > 1.5

    def test_asymmetric_scenarios_supported(self):
        sc = tiny_scenario()
        sc.connection_type = "asymmetric"
        m = run_trial(sc)
        assert m.agreed
        assert m.events == 5

    def test_unknown_connection_type_rejected(self):
        sc = tiny_scenario()
        sc.connection_type = "broadcast"
        with pytest.raises(ValueError):
            run_trial(sc)

    def test_brute_force_rejects_unknown_connection_type(self):
        # Not silently run as receiver-only.
        sc = tiny_scenario()
        sc.connection_type = "broadcast"
        with pytest.raises(ValueError):
            run_trial(sc, "brute-force")


class TestSweep:
    def test_rows_per_size(self):
        def factory(n, g, reg):
            return tiny_scenario(n=n, seed=reg.root_seed % 1000)

        rows = sweep((8, 12), 3, factory, run_trial, seed=1)
        assert [r.size for r in rows] == [8, 12]
        assert all(len(r.trials) == 3 for r in rows)
        assert all(r.all_agreed for r in rows)

    def test_aggregates_exposed(self):
        def factory(n, g, reg):
            return tiny_scenario(n=n, seed=g)

        rows = sweep((10,), 3, factory, run_trial)
        row = rows[0]
        assert row.computations_per_event.count == 3
        assert row.floodings_per_event.mean > 0


class TestFigureDrivers:
    def test_experiment1_smoke(self):
        rows = experiment1(sizes=(10,), graphs_per_size=2)
        assert rows[0].all_agreed
        assert rows[0].computations_per_event.mean >= 1.0

    def test_experiment2_smoke(self):
        rows = experiment2(sizes=(10,), graphs_per_size=2)
        assert rows[0].all_agreed

    def test_experiment3_near_unity(self):
        rows = experiment3(sizes=(10,), graphs_per_size=2)
        assert rows[0].all_agreed
        assert rows[0].computations_per_event.mean == pytest.approx(1.0, abs=0.3)
        assert rows[0].floodings_per_event.mean == pytest.approx(1.0, abs=0.3)

    def test_baseline_comparison_ordering(self):
        rows = baseline_comparison(sizes=(12,), graphs_per_size=2)
        row = rows[0]
        assert row.dgmc.mean < row.mospf.mean
        assert row.dgmc.mean < row.brute_force.mean
        assert row.brute_force.mean == pytest.approx(12.0)


class TestReport:
    def test_render_rows(self):
        rows = experiment3(sizes=(8,), graphs_per_size=2)
        text = render_rows(rows, "My Title")
        assert "My Title" in text
        assert "proposals/event" in text
        assert "    8 " in text

    def test_render_rows_without_convergence(self):
        rows = experiment3(sizes=(8,), graphs_per_size=2)
        text = render_rows(rows, "T", include_convergence=False)
        assert "convergence" not in text

    def test_render_comparison(self):
        rows = baseline_comparison(sizes=(8,), graphs_per_size=2)
        text = render_comparison(rows, "Versus")
        assert "D-GMC" in text and "MOSPF" in text and "brute-force" in text
