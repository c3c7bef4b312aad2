"""perfbench: the repository benchmark, one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload route_mix --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
with no tracing installed. ``--trace 1`` runs the same inputs twice —
untraced for half of ``--seconds``, then traced over the same blocks —
and reports the per-layer metrics plus ``trace.overhead_ratio``.

Human-readable lines (metrics with units, sample counts, property
shares, failures) go to stdout first; the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. The exit code
is 0 only when every output check passed, 1 when one failed, and 2 when
the program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from harness import Pass, Tracer, engine_layer_metrics, hd_quantile, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("route_mix", "serve_repeat", "eco_edits", "negotiate_chip")
#: Set-ups per metric run; ``setup_s`` is their median.
SETUPS = 5


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the metric names and units this run must print."""
    with open(ROOT / "BENCHMARK.json") as fp:
        return json.load(fp)


def timings(
    latencies_ms: List[float], weights: Optional[List[float]], work: int, busy_s: float
) -> Dict[str, float]:
    """Throughput and latency quantiles of one stretch of items.

    A weighted stretch times one item per unit of its mix, so its
    throughput is the inverse of the weighted mean latency.
    """
    if weights is not None:
        nets_per_s = 1e3 / sum(w * t for w, t in zip(weights, latencies_ms))
    else:
        nets_per_s = work / busy_s
    return {
        "nets_per_s": nets_per_s,
        "p50_ms": hd_quantile(latencies_ms, 0.50, weights),
        "p95_ms": hd_quantile(latencies_ms, 0.95, weights),
    }


def end_to_end(p: Pass) -> Dict[str, float]:
    """The end-to-end metrics of one untraced pass.

    Each timing of a pass of several segments is the median of the
    segments' values, so one segment on a slow stretch of the host moves
    none of them.
    """
    if len(p.segments) > 1:
        ends = p.segments[1:] + [(len(p.latencies_ms), p.work, p.busy_s)]
        parts = [
            timings(p.latencies_ms[i0:i1], None, w1 - w0, b1 - b0)
            for (i0, w0, b0), (i1, w1, b1) in zip(p.segments, ends)
            if i1 > i0
        ]
        times = {name: median([t[name] for t in parts]) for name in parts[0]}
    else:
        times = timings(p.latencies_ms, p.weights, p.work, p.busy_s)
    return {
        "setup_s": median(p.setup_s),
        **times,
        "front_hv": sum(p.hv) / len(p.hv),
        "wirelength": p.wl_sum / p.hpwl_sum,
        "peak_rss_mb": p.peak_rss_mb,
    }


def _terminate(signum: int, frame: Any) -> None:
    # SIGTERM unwinds like an exception, so the serve daemon is stopped.
    sys.exit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    try:
        spec = load_spec()
        workload = importlib.import_module(args.workload)
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        base = workload.run(args.seed, args.seconds / 2, setups=1)
        tracer = Tracer()
        traced = workload.run(
            args.seed, args.seconds, setups=1, max_blocks=base.blocks, tracer=tracer
        )
        names = spec["per_layer"]
        metrics = {m["name"]: 0.0 for m in names}
        # Span-derived metrics come from the traced pass; what a workload
        # derives from its results (tier latencies, ratios) from the
        # untraced one, which ran the same blocks.
        metrics.update(engine_layer_metrics(tracer, traced.items))
        metrics.update(traced.layers)
        metrics.update(base.layers)
        metrics["trace.overhead_ratio"] = traced.busy_s / base.busy_s
        passes = [base, traced]
        properties = base.properties
    else:
        p = workload.run(args.seed, args.seconds, setups=SETUPS)
        names = spec["end_to_end"]
        metrics = end_to_end(p)
        passes = [p]
        properties = p.properties
        print(f"samples: {len(p.latencies_ms)} latencies, {len(p.setup_s)} set-ups, "
              f"{len(p.hv)} hypervolume fronts")
        factors = p.host.factors
        stolen = p.host.stolen_shares
        print(f"host speed factor: median {median(factors):.4g} over {len(factors)} probes "
              f"(min {min(factors):.4g}, max {max(factors):.4g}); stolen CPU share: median "
              f"{median(stolen):.3g}, max {max(stolen):.3g}; every timing is its wall time "
              f"divided by the median factor of the last probes before it over the share "
              f"not stolen")

    unknown = set(metrics) - {m["name"] for m in names}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    attempted = sum(p.items for p in passes)
    failed = sum(p.failed for p in passes)
    report = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names}
    for name, entry in report.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(f"failed_ratio = {failed / max(1, attempted):.6g} ({failed}/{attempted})")
    print("properties: " + json.dumps(properties, sort_keys=True))
    for p in passes:
        for message in p.errors:
            print(f"FAILED: {message}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": report,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
