"""``route_mix``: the paper's own traffic through the ``repro route`` engine.

Unique ICCAD-like nets (:func:`repro.eval.benchmarks.synth_net`
geometry) are routed one at a time, in process, by the engine that
``repro route`` builds with default flags: PatLabor, lambda = 9, no
lookup table, cache off. Each block holds 50 exact-tier nets in the
Table III degree 4-9 proportions plus 5 nets of 10-50 pins at fixed
quantiles of the 1/d^2 tail, one per equal-probability stratum, cycling
every four blocks (see :func:`tail_cycle`); pin-geometry styles are
stratified too (see :func:`blocks`). The ~9% tail share
keeps ``p50_ms`` inside the exact-net mode and ``p95_ms`` inside the
large-net mode.

A run holds at least one whole cycle. The tail nets take most of the
time, so a run that stops inside a later cycle would measure a lighter
or heavier mix than the cycle's; every latency is therefore weighted by
its degree's share of the cycle over the degree's count in the run
(:func:`harness.mix_weights`), and ``nets_per_s``, ``p50_ms`` and
``p95_ms`` are those of the cycle's mix.
"""

from __future__ import annotations

import random
import time
from typing import Dict, Iterator, List, Optional

from harness import (
    Pass,
    Tracer,
    check_front,
    install_engine_layers,
    log,
    median,
    mix_weights,
    normalized_hv,
    objective_pairs,
    run_blocks,
    self_peak_rss_mb,
    snap_to_grid,
    span_of,
    untraced,
)

from repro.baselines.brute_force import brute_force_frontier
from repro.core.patlabor import DEFAULT_LAMBDA, PatLaborConfig
from repro.core.pareto_dw import pareto_dw
from repro.engine import EngineSpec, build_engine
from repro.eval.benchmarks import ICCAD15_DEGREE_COUNTS, synth_net
from repro.geometry.net import Net

BLOCK_EXACT = 50
BLOCK_TAIL = 5
#: ``synth_net``'s pin-geometry styles in its 4:3:2:1 proportions, in the
#: order they are dealt to a block's exact nets sorted by degree and to
#: the 20 tail quantiles of a cycle sorted by degree. Entries 6-9 hold one
#: of each style, so the heaviest stratum of the tail (29-46 pins, most
#: of a run's time) always has every style once.
STYLE_PATTERN = (
    "clustered2", "clustered3", "clustered2", "smoothed", "clustered3",
    "clustered2", "uniform", "smoothed", "clustered3", "clustered2",
)
TAIL_DEGREES = range(10, 51)
#: Blocks after which the tail degrees repeat.
TAIL_CYCLE = 4
#: Engine builds per set-up measurement (one build takes microseconds).
BUILDS_PER_SETUP = 1001
#: Exact-tier nets checked against the ``kernels=False`` oracle: every net
#: up to degree 7 (milliseconds each), a seeded sample above.
ORACLE_ALL_UP_TO = 7
ORACLE_SAMPLE = {8: 2, 9: 1}
#: Degree-4 nets checked against brute-force enumeration (~1 s each).
BRUTE_FORCE_NETS = 1


def exact_degrees() -> List[int]:
    """Degrees 4-9 of one block, Table III proportions (largest remainder)."""
    total = sum(ICCAD15_DEGREE_COUNTS.values())
    quotas = {d: BLOCK_EXACT * c / total for d, c in ICCAD15_DEGREE_COUNTS.items()}
    counts = {d: int(q) for d, q in quotas.items()}
    short = BLOCK_EXACT - sum(counts.values())
    for d in sorted(quotas, key=lambda d: counts[d] - quotas[d])[:short]:
        counts[d] += 1
    return [d for d in sorted(counts) for _ in range(counts[d])]


def tail_cycle() -> List[List[int]]:
    """Tail degrees of each block of one :data:`TAIL_CYCLE` cycle.

    The cycle holds the 1/d^2 distribution over 10-50 pins at
    ``BLOCK_TAIL * TAIL_CYCLE`` equally spaced quantiles, and each block
    takes one quantile from each of ``BLOCK_TAIL`` equal-probability
    strata, so every run of whole cycles draws the same tail degrees.
    """
    weights = [1.0 / (d * d) for d in TAIL_DEGREES]
    total = sum(weights)
    points = BLOCK_TAIL * TAIL_CYCLE

    def quantile(p: float) -> int:
        below = 0.0
        for d, w in zip(TAIL_DEGREES, weights):
            below += w / total
            if below >= p:
                return d
        return TAIL_DEGREES[-1]

    return [
        [quantile((k * TAIL_CYCLE + b + 0.5) / points) for k in range(BLOCK_TAIL)]
        for b in range(TAIL_CYCLE)
    ]


def blocks(seed: int) -> Iterator[List[Net]]:
    """Endless deterministic stream of shuffled blocks of unique nets.

    Degrees and pin-geometry styles are stratified: every block pairs the
    same exact-tier degrees with the same styles, and every tail quantile
    of the cycle has a fixed style, each in ``synth_net``'s proportions
    (see :data:`STYLE_PATTERN`), so runs differ in geometry, not in mix.
    """
    rng = random.Random(seed)
    exact = [(d, STYLE_PATTERN[i % len(STYLE_PATTERN)]) for i, d in enumerate(exact_degrees())]
    cycle = tail_cycle()
    index = 0
    block = 0
    while True:
        b = block % TAIL_CYCLE
        members = list(exact)
        for k, d in enumerate(cycle[b]):
            members.append((d, STYLE_PATTERN[(k * TAIL_CYCLE + b) % len(STYLE_PATTERN)]))
        rng.shuffle(members)
        nets = []
        for d, style in members:
            nets.append(Net(pins=synth_net(d, rng, style=style).pins, name=f"r{index}"))
            index += 1
        block += 1
        yield nets


def cycle_shares() -> Dict[int, float]:
    """Each degree's share of one tail cycle, the mix the metrics measure."""
    degrees = exact_degrees() * TAIL_CYCLE + [d for b in tail_cycle() for d in b]
    return {d: degrees.count(d) / len(degrees) for d in set(degrees)}


def engine_spec() -> EngineSpec:
    """The stack ``repro route`` builds with default flags."""
    return EngineSpec(
        router="patlabor",
        router_options={"lut": None, "config": PatLaborConfig(lam=DEFAULT_LAMBDA)},
        cache=None,
    )


def run(
    seed: int,
    seconds: float,
    setups: int,
    max_blocks: Optional[int] = None,
    tracer: Optional[Tracer] = None,
) -> Pass:
    """One measured pass; ``tracer`` (when given) records layer spans."""
    out = Pass()
    engine = None
    for _ in range(setups):
        out.host.probe()
        samples = []
        for _ in range(BUILDS_PER_SETUP):
            t0 = time.perf_counter()
            engine = build_engine(engine_spec())
            samples.append(out.scaled(time.perf_counter() - t0))
        out.setup_s.append(median(samples))
    routed: List[tuple] = []
    tiers: Dict[str, int] = {}
    degrees: List[int] = []

    def route_block(block: List[Net]) -> None:
        for net in block:
            out.host.maybe_probe()
            out.items += 1
            tier = engine.dispatch_tier(net)
            tiers[tier] = tiers.get(tier, 0) + 1
            try:
                t0 = time.perf_counter()
                with span_of(tracer, "engine.route"):
                    front = engine.route(net)
                dt = out.scaled(time.perf_counter() - t0)
            except Exception as exc:  # counted, reported, and the run goes on
                out.fail(f"{net.name} (degree {net.degree}): {type(exc).__name__}: {exc}")
                continue
            out.busy_s += dt
            out.latencies_ms.append(dt * 1e3)
            degrees.append(net.degree)
            out.work += 1
            # Checked at once, so only objective pairs outlive the net.
            with untraced(tracer):
                problem = check_front(net, front)
            if problem is not None:
                out.fail(problem)
                continue
            pairs = objective_pairs(front)
            out.add_quality(net, pairs)
            if net.degree > DEFAULT_LAMBDA:
                out.hv.append(normalized_hv(net, pairs))
            routed.append((net, pairs))

    if tracer is not None:
        install_engine_layers(tracer)
    try:
        out.blocks = run_blocks(
            blocks(seed), route_block, seconds, max_blocks, min_blocks=TAIL_CYCLE
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
    out.peak_rss_mb = self_peak_rss_mb()
    out.weights = mix_weights(degrees, cycle_shares())

    log(f"route_mix: comparing sampled fronts of {len(routed)} nets with oracles")
    rng = random.Random(seed + 1)
    by_degree: Dict[int, List[tuple]] = {}
    for net, pairs in routed:
        by_degree.setdefault(net.degree, []).append((net, pairs))
    for d in range(4, DEFAULT_LAMBDA + 1):
        pool = by_degree.get(d, [])
        if d > ORACLE_ALL_UP_TO:
            pool = rng.sample(pool, min(ORACLE_SAMPLE[d], len(pool)))
        for net, pairs in pool:
            if pairs != objective_pairs(pareto_dw(net, kernels=False)):
                out.fail(f"{net.name}: front differs from the kernels=False DW oracle")
    # Brute force sums objectives in its own order, so it is compared on
    # integer-snapped copies, where every order gives the same floats.
    fours = by_degree.get(4, [])
    snapped = [snap_to_grid(net) for net, _pairs in rng.sample(fours, len(fours))]
    for net in [n for n in snapped if n is not None][:BRUTE_FORCE_NETS]:
        expected = [tuple(p) for p in brute_force_frontier(net)]
        if objective_pairs(engine.route(net)) != expected:
            out.fail(f"{net.name}: front differs from brute-force enumeration")

    histogram: Dict[str, int] = {}
    for net, _pairs in routed:
        key = str(net.degree) if net.degree <= DEFAULT_LAMBDA else "10-50"
        histogram[key] = histogram.get(key, 0) + 1
    out.properties = {
        "degree_histogram": histogram,
        "tier_mix": tiers,
        "tail_share": histogram.get("10-50", 0) / max(1, len(routed)),
    }
    return out
