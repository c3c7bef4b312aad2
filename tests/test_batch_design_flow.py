"""Tests for batch routing and the design-level congestion flow."""

import random

import pytest

from repro.core.batch import BatchResult, route_batch
from repro.core.patlabor import PatLaborConfig
from repro.eval.design_flow import (
    DesignFlowConfig,
    route_design,
)
from repro.geometry.net import Net, random_net


def workload(count=6, seed=1, degrees=(4, 5, 6)):
    rng = random.Random(seed)
    return [
        random_net(rng.choice(degrees), rng=rng, name=f"n{i}")
        for i in range(count)
    ]


class TestRouteBatch:
    def test_serial_routes_everything(self):
        nets = workload()
        result = route_batch(nets, jobs=1)
        assert set(result.fronts) == {n.name for n in nets}
        assert result.total_solutions >= len(nets)
        assert result.seconds > 0

    def test_cache_pays_on_duplicates(self):
        nets = workload(count=3)
        tripled = nets + [n.translated(10, 10) for n in nets] + nets
        # Names collide after translation; rename for unique keys.
        renamed = []
        for i, n in enumerate(tripled):
            renamed.append(Net(pins=n.pins, name=f"m{i}"))
        result = route_batch(renamed, jobs=1, use_cache=True)
        assert result.cache_hits >= len(nets)

    def test_no_cache_mode(self):
        nets = workload(count=2)
        result = route_batch(nets, jobs=1, use_cache=False)
        assert result.cache_hits == 0 and result.cache_misses == 0

    def test_parallel_matches_serial_objectives(self):
        nets = workload(count=6, seed=3)
        serial = route_batch(nets, jobs=1)
        parallel = route_batch(nets, jobs=2)
        assert set(serial.fronts) == set(parallel.fronts)
        for name in serial.fronts:
            a = [(round(w, 6), round(d, 6)) for w, d, _ in serial.fronts[name]]
            b = [(round(w, 6), round(d, 6)) for w, d, _ in parallel.fronts[name]]
            assert a == b

    def test_parallel_drops_payloads(self):
        nets = workload(count=3, seed=4)
        result = route_batch(nets, jobs=2)
        for front in result.fronts.values():
            assert all(p is None for _w, _d, p in front)

    def test_parallel_forks_no_more_workers_than_nets(self, monkeypatch):
        import repro.serve.pool as pool

        sizes = []

        class RecordingPool(pool.WorkerPool):
            def __init__(self, spec, workers):
                sizes.append(workers)
                super().__init__(spec, workers)

        monkeypatch.setattr(pool, "WorkerPool", RecordingPool)
        nets = workload(count=2, seed=6)
        result = route_batch(nets, jobs=4)
        assert sizes == [2]
        assert set(result.fronts) == {n.name for n in nets}

    def test_parallel_deals_nets_round_robin(self):
        """Worker shard k is nets[k::jobs], so a degree-sorted list is
        spread over the workers; each worker records only the obs layers
        the parent has on (here the event log)."""
        from repro import obs

        nets = sorted(
            workload(count=7, seed=8, degrees=(4, 5, 6, 7)),
            key=lambda n: len(n.pins),
        )
        obs.reset()
        obs.events_enable()
        try:
            result = route_batch(nets, jobs=3, use_cache=False)
            by_pid = {}
            for event in obs.get_event_log().events():
                if event["kind"] == "net_routed":
                    by_pid.setdefault(event["pid"], set()).add(event["net"])
            worker_timers = obs.snapshot()["timers"]
            worker_spans = obs.get_trace_collector().events()
        finally:
            obs.events_disable()
            obs.reset()
        names = [n.name for n in nets]
        shards = [set(names[k::3]) for k in range(3)]
        assert set().union(*by_pid.values()) == set(names)
        # A worker may take more than one shard, never part of one.
        for routed in by_pid.values():
            assert routed == set().union(*(s for s in shards if s & routed))
        assert "serve.worker_net_seconds" not in worker_timers
        assert worker_spans == []
        serial = route_batch(nets, jobs=1, use_cache=False)
        for name in names:
            assert [(w, d) for w, d, _ in result.fronts[name]] == [
                (w, d) for w, d, _ in serial.fronts[name]
            ]

    def test_custom_config_propagates(self):
        nets = [random_net(12, rng=random.Random(5), name="big")]
        result = route_batch(
            nets, config=PatLaborConfig(iterations=1), jobs=1
        )
        assert result.fronts["big"]


class TestDesignFlow:
    def _nets(self, count=8, seed=7):
        rng = random.Random(seed)
        return [
            random_net(rng.choice((4, 5, 6)), rng=rng, span=1000.0, name=f"d{i}")
            for i in range(count)
        ]

    def test_flow_commits_every_net(self):
        nets = self._nets()
        result = route_design(nets, strategy="pareto")
        assert len(result.outcomes) == len(nets)
        assert result.total_wirelength > 0

    def test_pareto_meets_budgets(self):
        """With the Pareto set available, every feasible budget is met
        (the delay endpoint always satisfies a (1+slack) budget)."""
        nets = self._nets(seed=8)
        result = route_design(nets, strategy="pareto")
        assert result.budget_misses == 0

    def test_shortest_strategy_meets_budgets_with_more_wire(self):
        nets = self._nets(seed=9)
        pareto = route_design(nets, strategy="pareto")
        fast = route_design(nets, strategy="shortest")
        assert fast.budget_misses == 0
        assert pareto.total_wirelength <= fast.total_wirelength + 1e-6

    def test_rsmt_strategy_misses_budgets(self):
        """Timing-blind min-wire trees must blow some delay budgets on a
        tight slack."""
        nets = self._nets(count=12, seed=10)
        config = DesignFlowConfig(delay_slack=0.02)
        rsmt_flow = route_design(nets, strategy="rsmt", config=config)
        pareto_flow = route_design(nets, strategy="pareto", config=config)
        assert pareto_flow.budget_misses <= rsmt_flow.budget_misses
        assert rsmt_flow.budget_misses > 0

    def test_demand_accumulates(self):
        nets = self._nets(seed=11)
        result = route_design(nets, strategy="pareto")
        total_demand = sum(sum(col) for col in result.demand.weights)
        # Every committed wirelength lands somewhere on the grid.
        assert total_demand > 0
        assert total_demand <= result.total_wirelength + 1e-6

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            route_design(self._nets(count=1), strategy="magic")

    def test_overflow_and_utilization_reported(self):
        nets = self._nets(count=10, seed=12)
        config = DesignFlowConfig(capacity=10.0)  # tiny capacity: overflow
        result = route_design(nets, strategy="pareto", config=config)
        assert result.overflow > 0
        assert result.max_utilization > 1.0
