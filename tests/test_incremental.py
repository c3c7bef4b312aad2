"""Incremental / ECO engine: deltas, state reuse, exactness, rip-up.

The load-bearing property here is the exactness contract: an incremental
solve through :class:`~repro.incremental.engine.IncrementalRouter` must
be **bit-identical** to a cold full re-route of the edited net whenever
the edited net's dispatch tier is exact (``closed_form`` / ``lut`` /
``dw``), whether the edit was solved or served from the cache — warm
starts may only change *how fast* the answer arrives, never the answer.
``local_search`` is heuristic, so only solution quality is asserted
there, cache hits on nets past lambda included.
"""

import dataclasses
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.core.pareto_dw import (
    DWState,
    dw_signature,
    pareto_dw,
    pareto_dw_with_state,
)
from repro.engine import EngineSpec, build_engine
from repro.exceptions import (
    InvalidNetError,
    ProtocolVersionError,
    SerializationError,
)
from repro.geometry.net import Net, random_net
from repro.incremental import (
    IncrementalRouter,
    NetDelta,
    adapt_tree,
    apply_delta,
    delta_from_payload,
    delta_to_payload,
    format_delta,
    grid_preserving_move,
    load_deltas,
    parse_deltas,
    perturb_nets,
    save_deltas,
)
from repro.io.nets_format import save_nets
from repro.lut.default import default_table
from repro.routing.tree import RoutingTree
from repro.serve.protocol import PROTOCOL_VERSION, check_version


def _objectives(front):
    return [(w, d) for w, d, _t in front]


def _fresh_engine(**kwargs):
    """A cold engine (no shared caches with any other instance)."""
    return build_engine(EngineSpec(router="patlabor", **kwargs))


def _lattice_net(name="lattice"):
    """A boundary-lattice net with one vacancy.

    Every pin sits on the 4x3 Hanan lattice's boundary, so moving a sink
    onto the vacancy keeps the coordinate lines, the Lemma-2 survivors,
    and the Lemma-4 boundary flag — i.e. the DW signature — unchanged,
    guaranteeing the warm path has subset fronts to reuse.
    """
    xs, ys = (0.0, 333.0, 666.0, 1000.0), (0.0, 500.0, 1000.0)
    boundary = [
        (x, y)
        for x in xs
        for y in ys
        if x in (xs[0], xs[-1]) or y in (ys[0], ys[-1])
    ]
    source, vacancy = (0.0, 0.0), (666.0, 0.0)
    sinks = [p for p in boundary if p not in (source, vacancy)][:7]
    return Net.from_points(source, sinks, name=name)


# ------------------------------------------------------------- deltas


class TestNetDelta:
    def test_replay_format_round_trip(self):
        deltas = [
            NetDelta("move", net="a", sink_index=2, point=(1.5, 2.25)),
            NetDelta("add", net="b", point=(0.1, 9.0)),
            NetDelta("remove", net="c", sink_index=0),
            NetDelta("source", net="d", point=(3.0, 4.0)),
            NetDelta(
                "blockage", region=(0.0, 0.0, 10.0, 10.0), scale=0.25
            ),
        ]
        text = "".join(format_delta(d) + "\n" for d in deltas)
        import io

        assert list(parse_deltas(io.StringIO(text))) == deltas

    def test_file_round_trip(self, tmp_path):
        deltas = perturb_nets(
            [random_net(6, rng=random.Random(1), name="n")],
            seed=2,
            kind="move",
            count=4,
        )
        path = tmp_path / "stream.deltas"
        assert save_deltas(deltas, path) == 4
        assert load_deltas(path) == deltas

    def test_comments_and_blanks_ignored(self):
        import io

        text = "# header\n\nremove n 1\n  # indented comment\n"
        assert list(parse_deltas(io.StringIO(text))) == [
            NetDelta("remove", net="n", sink_index=1)
        ]

    def test_wire_codec_round_trip(self):
        for delta in (
            NetDelta("move", net="a", sink_index=1, point=(7.0, 8.0)),
            NetDelta("blockage", region=(1.0, 2.0, 3.0, 4.0), scale=0.0),
        ):
            assert delta_from_payload(delta_to_payload(delta)) == delta

    def test_malformed_payload_raises(self):
        with pytest.raises(SerializationError):
            delta_from_payload({"no": "kind"})
        with pytest.raises(SerializationError):
            delta_from_payload({"kind": "move", "net": "a", "point": [1]})
        with pytest.raises(SerializationError):
            delta_from_payload({"kind": "teleport", "net": "a"})

    def test_validation(self):
        with pytest.raises(SerializationError):
            NetDelta("move", net="a", sink_index=0)  # no point
        with pytest.raises(SerializationError):
            NetDelta("move", net="a", point=(0.0, 0.0))  # no index
        with pytest.raises(SerializationError):
            NetDelta("add", point=(0.0, 0.0))  # no net
        with pytest.raises(SerializationError):
            NetDelta("blockage", scale=0.5)  # no region

    def test_immutable_and_hashable(self):
        delta = NetDelta("remove", net="a", sink_index=1)
        with pytest.raises(AttributeError):
            delta.net = "b"
        assert delta in {NetDelta("remove", net="a", sink_index=1)}

    def test_apply_delta_semantics(self):
        net = Net.from_points((0, 0), [(10, 0), (0, 10)], name="n")
        moved = apply_delta(
            net, NetDelta("move", net="n", sink_index=0, point=(5.0, 5.0))
        )
        assert (moved.sinks[0].x, moved.sinks[0].y) == (5.0, 5.0)
        grown = apply_delta(net, NetDelta("add", net="n", point=(3.0, 4.0)))
        assert grown.degree == net.degree + 1
        shrunk = apply_delta(grown, NetDelta("remove", net="n", sink_index=2))
        assert shrunk.pins == net.pins
        rerooted = apply_delta(
            net, NetDelta("source", net="n", point=(1.0, 1.0))
        )
        assert (rerooted.source.x, rerooted.source.y) == (1.0, 1.0)
        blocked = apply_delta(
            net, NetDelta("blockage", region=(0, 0, 1, 1), scale=0.0)
        )
        assert blocked is net

    def test_apply_delta_out_of_range(self):
        net = Net.from_points((0, 0), [(10, 0)], name="n")
        with pytest.raises(SerializationError):
            apply_delta(
                net, NetDelta("move", net="n", sink_index=5, point=(1.0, 1.0))
            )

    def test_perturb_deterministic_and_replayable(self):
        rng = random.Random(11)
        nets = [random_net(7, rng=rng, name=f"p{i}") for i in range(4)]
        a = perturb_nets(nets, seed=5, kind="move", count=10)
        b = perturb_nets(nets, seed=5, kind="move", count=10)
        assert a == b
        # The stream replays in order without tripping Net validation.
        current = {n.name: n for n in nets}
        for delta in a:
            current[delta.net] = apply_delta(current[delta.net], delta)

    def test_perturb_requires_unique_names(self):
        rng = random.Random(1)
        nets = [random_net(5, rng=rng, name="dup") for _ in range(2)]
        with pytest.raises(SerializationError):
            perturb_nets(nets, seed=1)

    def test_grid_preserving_move_preserves_signature(self):
        net = _lattice_net()
        delta = grid_preserving_move(net, random.Random(8))
        assert delta is not None
        assert dw_signature(apply_delta(net, delta)) == dw_signature(net)


# ------------------------------------------------------- DW state reuse


class TestDWStateReuse:
    def test_warm_solve_bit_identical_with_reuse(self):
        net = _lattice_net()
        cold, state, reuse0 = pareto_dw_with_state(net)
        assert isinstance(state, DWState)
        assert reuse0.reused_masks == 0
        delta = grid_preserving_move(net, random.Random(8))
        assert delta is not None
        edited = apply_delta(net, delta)
        warm, _state2, reuse = pareto_dw_with_state(edited, state=state)
        assert reuse.reused_masks > 0
        reference = pareto_dw(edited)
        assert warm == reference  # trees included — bit identical

    def test_warm_solve_array_parity(self):
        net = _lattice_net("parity")
        _cold, state, _r = pareto_dw_with_state(net)
        delta = grid_preserving_move(net, random.Random(3))
        assert delta is not None
        edited = apply_delta(net, delta)
        warm, _s, _r2 = pareto_dw_with_state(edited, state=state)
        array = pareto_dw(edited, representation="array")
        assert _objectives(warm) == _objectives(array)

    def test_signature_mismatch_means_no_reuse(self):
        net = _lattice_net("off-grid")
        _cold, state, _r = pareto_dw_with_state(net)
        # A move off the lattice adds a coordinate line: full recompute.
        edited = apply_delta(
            net,
            NetDelta("move", net=net.name, sink_index=0, point=(123.0, 77.0)),
        )
        warm, _s, reuse = pareto_dw_with_state(edited, state=state)
        assert reuse.reused_masks == 0
        assert warm == pareto_dw(edited)


# -------------------------------------------------- incremental engine


class TestIncrementalRouter:
    def _engine(self):
        return build_engine(
            EngineSpec(router="patlabor", cache="symmetry", incremental=True)
        )

    def test_capabilities_flag(self):
        assert self._engine().capabilities.incremental is True
        assert _fresh_engine().capabilities.incremental is False

    def test_unknown_net_raises(self):
        engine = self._engine()
        with pytest.raises(InvalidNetError):
            engine.apply_delta(
                NetDelta("move", net="ghost", sink_index=0, point=(1.0, 1.0))
            )

    def test_blockage_is_noop(self):
        engine = self._engine()
        result = engine.apply_delta(
            NetDelta("blockage", region=(0, 0, 1, 1), scale=0.5)
        )
        assert result.tier == "unchanged" and result.net is None

    def test_session_tracking_and_lru(self):
        inner = _fresh_engine()
        engine = IncrementalRouter(inner, max_sessions=2)
        rng = random.Random(0)
        nets = [random_net(5, rng=rng, name=f"s{i}") for i in range(3)]
        for net in nets:
            engine.route(net)
        assert engine.num_sessions == 2
        assert engine.session_net("s0") is None  # evicted
        assert engine.session_net("s2") == nets[2]
        engine.forget("s2")
        assert engine.session_net("s2") is None

    def test_stream_bit_identical_to_cold(self):
        """20 mixed edits; every exact-tier result equals a cold re-route."""
        rng = random.Random(42)
        nets = [random_net(4 + i % 5, rng=rng, name=f"n{i}") for i in range(5)]
        engine = self._engine()
        for net in nets:
            engine.route(net)
        current = {n.name: n for n in nets}
        checked_exact = 0
        for seed, kind in ((1, "move"), (2, "add"), (3, "remove")):
            for delta in perturb_nets(
                list(current.values()), seed=seed, kind=kind, count=5
            ):
                result = engine.apply_delta(delta)
                current[delta.net] = apply_delta(current[delta.net], delta)
                cold_front = _fresh_engine().route(current[delta.net])
                if result.exact:
                    checked_exact += 1
                    assert _objectives(result.front) == _objectives(
                        cold_front
                    ), f"{delta!r} via {result.tier}"
                else:
                    best = min(w for w, _d, _t in result.front)
                    cold_best = min(w for w, _d, _t in cold_front)
                    assert best <= cold_best * 1.10
        assert checked_exact > 0

    def test_dw_reuse_on_lattice_stream(self):
        """Repeat grid-preserving edits reuse retained subset fronts."""
        net = _lattice_net("warm")
        engine = self._engine()
        engine.route(net)
        rng = random.Random(9)
        current = net
        saw_reuse = False
        for _ in range(3):
            delta = grid_preserving_move(current, rng)
            assert delta is not None
            result = engine.apply_delta(delta)
            current = apply_delta(current, delta)
            assert result.tier == "dw"
            assert _objectives(result.front) == _objectives(
                _fresh_engine().route(current)
            )
            saw_reuse = saw_reuse or result.reused_masks > 0
        assert saw_reuse

    def test_cache_short_circuit(self):
        """An edit that undoes the previous one is served from cache."""
        net = _lattice_net("undo")
        engine = self._engine()
        engine.route(net)
        delta = grid_preserving_move(net, random.Random(2))
        assert delta is not None
        engine.apply_delta(delta)
        old = (net.sinks[delta.sink_index].x, net.sinks[delta.sink_index].y)
        undo = NetDelta(
            "move", net=net.name, sink_index=delta.sink_index, point=old
        )
        result = engine.apply_delta(undo)
        assert result.cache_hit and result.tier == "cache"
        assert _objectives(result.front) == _objectives(
            _fresh_engine().route(net)
        )

    def test_local_search_warm_start_quality(self):
        """Above-lambda edits warm-start local search; quality must hold."""
        rng = random.Random(7)
        net = random_net(11, rng=rng, name="big")
        engine = self._engine()
        engine.route(net)
        delta = perturb_nets([net], seed=1, kind="move", count=1)[0]
        result = engine.apply_delta(delta)
        assert result.tier == "local_search"
        edited = apply_delta(net, delta)
        cold = _fresh_engine().route(edited)
        best = min(w for w, _d, _t in result.front)
        cold_best = min(w for w, _d, _t in cold)
        assert best <= cold_best * 1.10


def _move_undo_redo(net, seed):
    """A one-pin move, the move undone, then the same move again."""
    move = perturb_nets([net], seed=seed, kind="move", count=1)[0]
    sink = net.sinks[move.sink_index]
    undo = NetDelta(
        "move", net=net.name, sink_index=move.sink_index, point=(sink.x, sink.y)
    )
    return [move, undo, move]


class TestCacheHitExactness:
    """A cache hit is exact only when the net's dispatch tier is exact.

    Redoing a move on a degree-10 net hits the cache entry the warm
    local search published on the first move; that front differs from a
    cold re-route, so it must not be held to bit-identity.
    """

    def _net(self):
        return random_net(10, rng=random.Random(0), name="big")

    def test_redo_past_lambda_is_inexact_cache_hit(self):
        net = self._net()
        options = {"lut": default_table()}
        engine = build_engine(
            EngineSpec(
                router="patlabor",
                router_options=options,
                cache="symmetry",
                incremental=True,
            )
        )
        engine.route(net)
        results = [engine.apply_delta(d) for d in _move_undo_redo(net, 0)]
        assert [r.tier for r in results] == ["local_search", "cache", "cache"]
        assert not any(r.exact for r in results)
        cold = _fresh_engine(router_options=options).route(results[2].net)
        # The scenario is only a regression case while the replayed warm
        # front really differs from the cold one.
        assert _objectives(results[2].front) != _objectives(cold)

    def test_exact_cache_hit_is_exact(self):
        net = _lattice_net("exact-hit")
        engine = build_engine(
            EngineSpec(router="patlabor", cache="symmetry", incremental=True)
        )
        engine.route(net)
        results = [engine.apply_delta(d) for d in _move_undo_redo(net, 1)]
        assert [r.tier for r in results][1:] == ["cache", "cache"]
        assert all(r.exact for r in results)

    def test_cli_compare_cold_passes_move_undo_redo(self, tmp_path, capsys):
        net = self._net()
        nets_path = tmp_path / "big.nets"
        deltas_path = tmp_path / "big.deltas"
        save_nets([net], nets_path)
        save_deltas(_move_undo_redo(net, 0), deltas_path)
        rc = cli_main([
            "eco", "--nets", str(nets_path), "--deltas", str(deltas_path),
            "--compare-cold", "--json",
        ])
        report = json.loads(capsys.readouterr().out)
        assert report["tiers"] == {"cache": 2, "local_search": 1}
        assert report["compared"] == report["bit_identical"] == 0
        assert rc == 0


class TestAdaptTree:
    def _tree(self, net):
        return _fresh_engine().route(net)[0][2]

    def test_each_kind_yields_valid_tree(self):
        net = random_net(7, rng=random.Random(3), name="t")
        tree = self._tree(net)
        cases = [
            NetDelta("move", net="t", sink_index=1, point=(401.0, 17.0)),
            NetDelta("add", net="t", point=(500.0, 500.0)),
            NetDelta("remove", net="t", sink_index=len(net.sinks) - 1),
            NetDelta("source", net="t", point=(900.0, 900.0)),
        ]
        for delta in cases:
            edited = apply_delta(net, delta)
            adapted = adapt_tree(tree, edited, delta)
            assert isinstance(adapted, RoutingTree)
            assert adapted.net == edited
            assert adapted.wirelength() > 0.0


# -------------------------------------------------- negotiation rip-up


class TestNegotiationIncremental:
    def _scenario(self):
        from repro.congestion.negotiate import (
            NegotiatedRouter,
            NegotiatorConfig,
            Scenario,
        )

        scenario = Scenario.random(nets=60, cells=8, span=1000.0, seed=7)
        config = NegotiatorConfig(max_iterations=40)
        return NegotiatedRouter(scenario, config), scenario

    def test_move_converges_with_frozen_background(self):
        router, scenario = self._scenario()
        previous = router.run()
        assert previous.converged and previous.committed is not None
        delta = scenario.perturb(seed=21, kind="move", count=1)[0]
        result = router.run_incremental(previous, delta)
        assert result.converged
        assert result.final_overuse == 0.0
        # The edited net's chosen tree is for the edited geometry.
        edited = apply_delta(
            next(n for n in scenario.nets if n.name == delta.net), delta
        )
        assert any(n.name == delta.net and n == edited for n in scenario.nets)

    def test_add_and_mild_blockage_converge(self):
        router, scenario = self._scenario()
        previous = router.run()
        add = scenario.perturb(seed=22, kind="add", count=1)[0]
        mid = router.run_incremental(previous, add)
        assert mid.converged
        blockage = scenario.perturb(
            seed=23, kind="blockage", count=1, blockage_scale=0.9
        )[0]
        result = router.run_incremental(mid, blockage)
        assert result.converged

    def test_requires_committed_state(self):
        router, scenario = self._scenario()
        previous = router.run()
        stripped = dataclasses.replace(previous, committed=None)
        with pytest.raises(ValueError):
            router.run_incremental(
                stripped, scenario.perturb(seed=1, kind="move", count=1)[0]
            )

    def test_unknown_net_raises(self):
        router, _scenario = self._scenario()
        previous = router.run()
        with pytest.raises(ValueError):
            router.run_incremental(
                previous,
                NetDelta("move", net="ghost", sink_index=0, point=(1.0, 1.0)),
            )


# ------------------------------------------------------ wire protocol


class TestProtocolVersion:
    def test_eco_needs_v2(self):
        check_version({"op": "eco", "v": PROTOCOL_VERSION}, "eco")
        with pytest.raises(ProtocolVersionError):
            check_version({"op": "eco"}, "eco")  # unversioned = v1
        with pytest.raises(ProtocolVersionError):
            check_version({"op": "eco", "v": 1}, "eco")

    def test_bad_version_type(self):
        with pytest.raises(ProtocolVersionError):
            check_version({"op": "eco", "v": "two"}, "eco")

    def test_ungated_ops_accept_any_version(self):
        for op in ("ping", "route", "stats", "shutdown"):
            check_version({"op": op}, op)
            check_version({"op": op, "v": 99}, op)


# ---------------------------------------------------------- cache API


class TestCacheLookupSeed:
    def test_lookup_miss_then_seed_then_hit(self):
        engine = _fresh_engine(cache="symmetry")
        net = random_net(6, rng=random.Random(5), name="c")
        assert engine.lookup(net) is None
        front = engine.route(net)
        assert engine.lookup(net) == front
        other = random_net(6, rng=random.Random(6), name="c2")
        engine.seed(other, front)
        assert engine.lookup(other) == front


# --------------------------------------------------------- properties


slow = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        HealthCheck.large_base_example,
        HealthCheck.filter_too_much,
    ],
)

coords = st.integers(0, 30)


@st.composite
def small_nets(draw, min_degree=4, max_degree=8):
    n = draw(st.integers(min_degree, max_degree))
    pts = set()
    while len(pts) < n:
        pts.add((draw(coords), draw(coords)))
    ordered = sorted(pts)
    rng = random.Random(draw(st.integers(0, 10**6)))
    rng.shuffle(ordered)
    return Net.from_points(ordered[0], ordered[1:], name="hyp")


class TestIncrementalProperties:
    @slow
    @given(
        small_nets(),
        st.integers(0, 10**6),
        st.lists(
            st.sampled_from(["move", "add", "remove"]), min_size=1, max_size=3
        ),
    )
    def test_random_streams_match_cold_reroutes(self, net, seed, kinds):
        """Any delta stream: exact tiers bit-identical, heuristic close."""
        engine = build_engine(
            EngineSpec(router="patlabor", cache="symmetry", incremental=True)
        )
        engine.route(net)
        current = net
        for offset, kind in enumerate(kinds):
            if kind == "remove" and current.degree <= 2:
                continue
            delta = perturb_nets(
                [current], seed=seed + offset, kind=kind, count=1, span=30.0
            )[0]
            result = engine.apply_delta(delta)
            current = apply_delta(current, delta)
            cold = _fresh_engine().route(current)
            if result.exact:
                assert _objectives(result.front) == _objectives(cold)
            else:
                best = min(w for w, _d, _t in result.front)
                assert best <= min(w for w, _d, _t in cold) * 1.10
