"""Tests for the shipped default lookup table."""

import random

import pytest

from repro.core.pareto_dw import pareto_dw, pareto_frontier
from repro.geometry.net import Net
from repro.lut.default import DATA_FILE, default_router, default_table


class TestDefaultTable:
    def test_data_file_ships(self):
        assert DATA_FILE.exists(), "shipped LUT data missing from the package"

    def test_covers_degrees_4_to_6(self):
        table = default_table()
        assert table.degrees == [4, 5, 6]
        for n in (2, 3, 4, 5, 6):
            assert table.covers(n)

    def test_full_enumeration(self):
        table = default_table()
        assert table.stats[4].num_index == 16
        assert table.stats[5].num_index == 89
        assert table.stats[6].num_index == 579
        assert not table.stats[6].sampled

    def test_degree6_topo_count_near_paper(self):
        """Paper Table II: avg #Topo = 10.67 at degree 6."""
        table = default_table()
        assert 7.0 <= table.stats[6].avg_topologies <= 14.0

    def test_cached_singleton(self):
        assert default_table() is default_table()

    @pytest.mark.parametrize("degree", [4, 5, 6])
    def test_exact_against_dw(self, degree, assert_fronts_equal):
        router = default_router()
        rng = random.Random(degree * 7)
        for _ in range(4):
            from repro.geometry.net import random_net

            net = random_net(degree, rng=rng)
            assert_fronts_equal(router.route(net), pareto_frontier(net))

    def test_real_valued_fronts_match_dw_to_last_bits(self):
        """LUT vs DW on real-valued nets: same points, 1e-12 relative.

        The LUT sums each row in symbolic order, so its objectives may
        differ from the DP's in the last bits (``docs/numerics.md`` §4);
        the bound here is six orders tighter than ``assert_fronts_equal``.
        """
        table = default_table()
        rng = random.Random(11)
        for i in range(60):
            degree = 4 + i % 3
            pts = [
                (rng.uniform(0, 1000), rng.uniform(0, 1000))
                for _ in range(degree)
            ]
            net = Net.from_points(pts[0], pts[1:])
            lut = [(w, d) for w, d, _ in table.lookup(net)]
            ref = [(w, d) for w, d, _ in pareto_dw(net, kernels=False)]
            assert len(lut) == len(ref)
            for got, want in zip(lut, ref):
                for a, b in zip(got, want):
                    assert a == pytest.approx(b, rel=1e-12, abs=0.0), (i, lut, ref)

    def test_default_router_config_kwargs(self):
        router = default_router(iterations=2, seed=5)
        assert router.config.iterations == 2
        assert router.config.seed == 5
