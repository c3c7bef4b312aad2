"""Tests for the PathFinder negotiation subsystem (repro.congestion.negotiate).

Covers the loop's contracts end to end on a small deterministic
contention scenario: convergence to zero overuse, demand accounting
(committed demand equals the wirelength of the chosen trees), replay
determinism, the delay-budget guardrail, the pinned-point baseline mode,
the ``negotiate_iter`` observability stream, and the ledger metric dict.
"""

import json
import random

import numpy as np
import pytest

from repro import obs
from repro.congestion.model import CapacityGrid
from repro.congestion.negotiate import (
    NegotiatedRouter,
    NegotiatorConfig,
    Scenario,
)
from repro.exceptions import PolicyError
from repro.geometry.net import random_net

NETS = 60
CELLS = 10
SEED = 7


@pytest.fixture(autouse=True)
def _quiet_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture(scope="module")
def scenario():
    return Scenario.random(nets=NETS, cells=CELLS, seed=SEED)


@pytest.fixture(scope="module")
def frontier_result(scenario):
    return NegotiatedRouter(scenario, NegotiatorConfig()).run()


@pytest.fixture(scope="module")
def baseline_result(scenario):
    return NegotiatedRouter(
        scenario, NegotiatorConfig(point_policy="min_delay")
    ).run()


class TestScenario:
    def test_random_is_deterministic(self):
        a = Scenario.random(nets=8, cells=4, seed=3)
        b = Scenario.random(nets=8, cells=4, seed=3)
        assert [n.pins for n in a.nets] == [n.pins for n in b.nets]
        assert np.array_equal(a.grid.capacity, b.grid.capacity)

    def test_auto_capacity_targets_utilization(self):
        sc = Scenario.random(nets=8, cells=4, seed=3, utilization=0.5)
        hpwl = 0.0
        for net in sc.nets:
            xs = [p.x for p in net.pins]
            ys = [p.y for p in net.pins]
            hpwl += (max(xs) - min(xs)) + (max(ys) - min(ys))
        expected = hpwl / 16.0 / 0.5
        assert float(sc.grid.capacity[0, 0]) == pytest.approx(expected)

    def test_explicit_capacity_wins(self):
        sc = Scenario.random(nets=4, cells=4, seed=1, capacity=123.0)
        assert float(sc.grid.capacity.max()) == 123.0

    def test_nets_are_named_and_in_region(self):
        sc = Scenario.random(nets=5, cells=4, seed=2, span=200.0)
        assert [n.name for n in sc.nets] == [f"n{i:04d}" for i in range(5)]
        for net in sc.nets:
            for p in net.pins:
                assert 0.0 <= p.x <= 200.0 and 0.0 <= p.y <= 200.0


class TestConvergence:
    def test_converges_to_zero_overuse(self, frontier_result):
        result = frontier_result
        assert result.converged
        assert result.final_overuse == 0.0
        assert result.grid.total_overuse() == 0.0
        assert result.grid.overused_cells() == 0
        assert 1 <= result.iteration_count <= 40

    def test_first_iteration_had_contention(self, frontier_result):
        # The scenario is only a test of negotiation if pass 1 overflows.
        assert frontier_result.iterations[0].total_overuse > 0.0

    def test_every_net_has_a_chosen_point(self, scenario, frontier_result):
        chosen = frontier_result.chosen
        assert set(chosen) == {n.name for n in scenario.nets}
        compiled = {c.net.name: c for c in scenario._compiled}
        for name, k in chosen.items():
            assert 0 <= k < len(compiled[name].front)

    def test_delay_budget_guardrail(self, scenario, frontier_result):
        # Every final choice meets its (1 + slack) * lower-bound budget.
        assert frontier_result.worst_delay == 0.0
        compiled = {c.net.name: c for c in scenario._compiled}
        for name, k in frontier_result.chosen.items():
            c = compiled[name]
            assert float(c.point_d[k]) <= c.budget + 1e-9

    def test_demand_accounts_for_chosen_wirelength(self, frontier_result):
        # Nets live inside the grid region, so committed demand must sum
        # to exactly the total wirelength of the chosen trees.
        demand_total = float(frontier_result.grid.demand.sum())
        assert demand_total == pytest.approx(
            frontier_result.total_wirelength, rel=1e-9
        )

    def test_replay_is_deterministic(self, scenario, frontier_result):
        replay = NegotiatedRouter(scenario, NegotiatorConfig()).run()
        assert replay.chosen == frontier_result.chosen
        assert [
            (s.index, s.total_overuse, s.swaps, s.total_wirelength)
            for s in replay.iterations
        ] == [
            (s.index, s.total_overuse, s.swaps, s.total_wirelength)
            for s in frontier_result.iterations
        ]
        assert np.array_equal(
            replay.grid.demand, frontier_result.grid.demand
        )

    def test_runs_share_one_routing_pass(self, scenario, frontier_result):
        # The compiled frontiers are cached on the scenario; a second
        # router prepares without routing anything again.
        router = NegotiatedRouter(scenario, NegotiatorConfig())
        assert router.prepare() is scenario._compiled

    def test_pres_fac_escalates_across_iterations(self, scenario):
        config = NegotiatorConfig(max_iterations=3)
        result = NegotiatedRouter(scenario, config).run()
        pres = [s.pres_fac for s in result.iterations]
        for earlier, later in zip(pres, pres[1:]):
            assert later == pytest.approx(earlier * config.pres_fac_mult)

    def test_empty_scenario_converges_trivially(self):
        grid = CapacityGrid.uniform(0, 0, 10, 10, 2, 2, capacity=1.0)
        result = NegotiatedRouter(Scenario(nets=[], grid=grid)).run()
        assert result.converged
        assert result.iteration_count == 1
        assert result.total_wirelength == 0.0


class TestBaselineComparison:
    def test_pinned_baseline_never_swaps(self, baseline_result):
        assert baseline_result.total_swaps == 0
        assert all(s.swaps == 0 for s in baseline_result.iterations)

    def test_baseline_converges(self, baseline_result):
        assert baseline_result.converged
        assert baseline_result.final_overuse == 0.0

    def test_frontier_beats_baseline(self, frontier_result, baseline_result):
        # The paper's claim at test scale: frontier swapping resolves the
        # same contention in no more passes and strictly less wire.
        assert (
            frontier_result.iteration_count
            <= baseline_result.iteration_count
        )
        assert (
            frontier_result.total_wirelength
            < baseline_result.total_wirelength
        )
        assert frontier_result.worst_delay <= baseline_result.worst_delay

    def test_unknown_point_policy_raises(self, scenario):
        router = NegotiatedRouter(
            scenario, NegotiatorConfig(point_policy="nope")
        )
        with pytest.raises(PolicyError):
            router.run()


class TestObservability:
    def test_iteration_events_and_counters(self, tmp_path):
        scenario = Scenario.random(nets=12, cells=4, seed=5)
        obs.enable()
        obs.events_enable()
        result = NegotiatedRouter(scenario, NegotiatorConfig()).run()
        path = tmp_path / "events.jsonl"
        obs.flush_events(path)
        events = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line
        ]
        iters = [e for e in events if e["kind"] == "negotiate_iter"]
        assert len(iters) == result.iteration_count
        assert [e["iteration"] for e in iters] == list(
            range(1, result.iteration_count + 1)
        )
        for event in iters:
            for key in (
                "overuse",
                "overused_cells",
                "worst_delay",
                "wirelength",
                "swaps",
                "pres_fac",
                "wall_s",
            ):
                assert key in event
        flat = obs.flatten_snapshot(obs.snapshot())
        assert flat["negotiate.iterations"] == result.iteration_count
        assert flat["negotiate.nets"] == 12.0
        assert flat["negotiate.final_overuse"] == result.final_overuse

    def test_metrics_dict_shape(self, frontier_result):
        metrics = frontier_result.metrics()
        assert set(metrics) == {
            "negotiate.iterations",
            "negotiate.converged",
            "negotiate.final_overuse",
            "negotiate.overused_cells",
            "negotiate.worst_delay",
            "negotiate.total_wirelength",
            "negotiate.swaps",
        }
        assert metrics["negotiate.converged"] == 1.0
        assert metrics["negotiate.iterations"] == float(
            frontier_result.iteration_count
        )
        base = frontier_result.metrics(prefix="baseline")
        assert set(base) == {
            k.replace("negotiate.", "baseline.") for k in metrics
        }


class TestDesignFlowBridge:
    def test_route_design_negotiated_runs_config_frame(self):
        from repro.eval import DesignFlowConfig, route_design_negotiated

        rng = random.Random(31)
        nets = [
            random_net(4, rng=rng, span=300.0, name=f"d{i}")
            for i in range(10)
        ]
        config = DesignFlowConfig(span=300.0, cells=4, capacity=2000.0)
        result = route_design_negotiated(nets, config)
        assert result.converged
        assert set(result.chosen) == {n.name for n in nets}
        assert result.grid.nx == result.grid.ny == 4
        assert float(result.grid.capacity.max()) == 2000.0
