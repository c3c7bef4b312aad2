"""``negotiate_chip``: PathFinder negotiation over Pareto frontiers.

Each chip is ``Scenario.random`` with 1000 degree 4-6 nets on a 24x24
grid at 45% utilization, negotiated by ``NegotiatedRouter`` with the
default ``NegotiatorConfig``: 2-6 iterations to zero overuse on each of
~500 chips tried (at 50% some seeds never converge). Frontiers come from
the engine ``repro negotiate`` builds (PatLabor with the bundled lookup
table behind the symmetry cache), so prepare (routing plus rasterizing
every frontier) and the price / select / commit loop carry the time.
The engine is built per chip and handed in through ``engine=`` behind a
thin wrapper that times each net's frontier for ``p50_ms`` / ``p95_ms``.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List, Optional

from harness import (
    Pass,
    Tracer,
    check_front,
    close_fronts,
    install_engine_layers,
    normalized_hv,
    objective_pairs,
    run_blocks,
    self_peak_rss_mb,
    snap_to_grid,
    span_of,
    untraced,
)

from repro.congestion.negotiate import NegotiatedRouter, NegotiatorConfig, Scenario
from repro.core.pareto_dw import pareto_dw
from repro.engine import EngineSpec, build_engine
from repro.lut import default as lut_default

CHIP_NETS = 1000
CHIP_CELLS = 24
CHIP_UTILIZATION = 0.45
#: Nets per chip whose trees are checked, and whose fronts are compared
#: with the ``kernels=False`` DW oracle. Table rows sum objectives in
#: their own order, so on these real-valued pins the table may differ
#: from the oracle in the last bits (the ``lut_last_bits_share``
#: property); an integer-snapped copy of each net, where every order
#: gives the same floats, must match it exactly.
CHECKED_NETS = 50
ORACLE_NETS = 3


class TimedEngine:
    """The engine, with each ``route`` call's wall time recorded."""

    def __init__(self, engine: Any, out: Pass, tracer: Optional[Tracer]) -> None:
        self.engine = engine
        self.out = out
        self.tracer = tracer

    def route(self, net: Any) -> Any:
        self.out.host.maybe_probe()
        t0 = time.perf_counter()
        with span_of(self.tracer, "engine.route"):
            front = self.engine.route(net)
        self.out.latencies_ms.append(self.out.scaled(time.perf_counter() - t0) * 1e3)
        return front


def engine_spec() -> EngineSpec:
    """The stack ``NegotiatedRouter`` builds when given no engine."""
    return EngineSpec(
        router="patlabor",
        router_options={"lut": lut_default.default_table()},
        cache="symmetry",
    )


def blocks(seed: int):
    """Endless stream of chips (one block = one chip)."""
    rng = random.Random(seed)
    while True:
        yield Scenario.random(
            CHIP_NETS,
            cells=CHIP_CELLS,
            utilization=CHIP_UTILIZATION,
            seed=rng.randrange(2**31),
        )


def check_chip(
    router: NegotiatedRouter,
    result: Any,
    rng: random.Random,
    checker: Any,
    oracle: Dict[str, int],
) -> Optional[str]:
    """Why a negotiated chip is wrong, or None.

    The chip must end at zero overuse with the reported wirelength equal
    to its committed points; a sample of its fronts must hold valid trees
    and match the DW oracle.
    """
    if not result.converged or result.final_overuse != 0.0:
        return f"chip ended at overuse {result.final_overuse} after {result.iteration_count} iterations"
    compiled = router.prepare()
    committed = 0.0
    for c in compiled:
        committed += float(c.point_w[result.chosen[c.net.name]])
    if committed != result.total_wirelength:
        return f"committed wirelength {committed} != reported {result.total_wirelength}"
    sample = rng.sample(compiled, min(CHECKED_NETS, len(compiled)))
    for c in sample:
        problem = check_front(c.net, c.front)
        if problem is not None:
            return problem
    for c in sample[:ORACLE_NETS]:
        expected = objective_pairs(pareto_dw(c.net, kernels=False))
        if not close_fronts(objective_pairs(c.front), expected):
            return f"{c.net.name}: lookup-table front differs from the DW oracle"
        oracle["checked"] += 1
        oracle["last_bits"] += objective_pairs(c.front) != expected
        snapped = snap_to_grid(c.net)
        if snapped is not None and objective_pairs(checker.route(snapped)) != objective_pairs(
            pareto_dw(snapped, kernels=False)
        ):
            return f"{c.net.name}: lookup-table front differs from the DW oracle on the grid"
    return None


def run(
    seed: int,
    seconds: float,
    setups: int,
    max_blocks: Optional[int] = None,
    tracer: Optional[Tracer] = None,
) -> Pass:
    """One measured pass; ``tracer`` (when given) records layer spans.

    Set-up is loading the bundled lookup table from disk and building the
    engine, the work ``repro negotiate`` does before its first net.
    """
    out = Pass()
    for _ in range(setups):
        lut_default.default_table.cache_clear()
        out.host.probe()
        t0 = time.perf_counter()
        build_engine(engine_spec())
        out.setup_s.append(out.scaled(time.perf_counter() - t0))
    iterations: List[int] = []
    swaps: List[int] = []
    rng = random.Random(seed + 1)
    checker = build_engine(engine_spec())
    oracle = {"checked": 0, "last_bits": 0}

    def negotiate(scenario: Scenario) -> None:
        out.items += 1
        out.host.probe()
        engine = TimedEngine(build_engine(engine_spec()), out, tracer)
        router = NegotiatedRouter(scenario, NegotiatorConfig(), engine=engine)
        try:
            t0 = time.perf_counter()
            with span_of(tracer, "chip"):
                result = router.run()
            dt = out.scaled(time.perf_counter() - t0)
        except Exception as exc:  # counted, reported, and the run goes on
            out.fail(f"chip {out.items}: {type(exc).__name__}: {exc}")
            return
        out.busy_s += dt
        out.work += len(scenario.nets)
        iterations.append(result.iteration_count)
        swaps.append(result.total_swaps)
        # Checked at once, so no chip outlives its turn.
        with untraced(tracer):
            problem = check_chip(router, result, rng, checker, oracle)
            compiled = router.prepare()
        if problem is not None:
            out.fail(problem)
            return
        for c in compiled:
            out.hv.append(normalized_hv(c.net, objective_pairs(c.front)))
            out.hpwl_sum += c.net.bbox().half_perimeter
        out.wl_sum += result.total_wirelength

    if tracer is not None:
        install_engine_layers(tracer)
        tracer.patch(NegotiatedRouter, "prepare", "congestion.prepare")
        tracer.patch(NegotiatedRouter, "run", "congestion.run")
    try:
        out.blocks = run_blocks(blocks(seed), negotiate, seconds, max_blocks)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out.peak_rss_mb = self_peak_rss_mb()

    out.properties = {
        "iterations": iterations,
        "swaps": swaps,
        "chips": len(iterations),
        "lut_last_bits_share": oracle["last_bits"] / max(1, oracle["checked"]),
    }
    if tracer is not None and iterations:
        totals = tracer.totals()
        n = len(iterations)
        out.layers = {
            "congestion.prepare_ms": totals.get("congestion.prepare", (0, 0.0))[1] * 1e3 / n,
            "congestion.iteration_ms": totals.get("congestion.run", (0, 0.0))[1] * 1e3 / sum(iterations),
        }
    out.layers["congestion.iterations"] = sum(iterations) / max(1, len(iterations))
    out.layers["congestion.swaps"] = sum(swaps) / max(1, len(swaps))
    return out
