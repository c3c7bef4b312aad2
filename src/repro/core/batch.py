"""Batch routing: route whole net lists with caching, serially or in parallel.

The paper's use case is "route millions of nets"; this module provides the
throughput layer a production deployment needs:

* :func:`route_batch` — route a net list, optionally across worker
  processes (nets are independent), through any registered router
  (``method=...``) with a translation- or symmetry-canonicalizing cache
  in front (``cache_mode=...``).
* :class:`BatchResult` — per-net Pareto sets plus throughput statistics.

Both paths build their engine from one
:class:`repro.serve.pool.WorkerSpec`; the parallel path runs on the
daemon's :class:`repro.serve.pool.WorkerPool`, whose workers build it
**once, at pool initialization**, so only net payloads and plain
objective results cross process boundaries. With ``cache_store`` set,
every worker shares one persistent disk tier, so canonical patterns
solved by one worker (or a previous run) are disk hits for all the
others.

When observability is enabled (:func:`repro.obs.enable`) the run is
profiled end to end: per-net route times, per-shard throughput, and the
workers' own metric registries merged back into the parent process —
all surfaced both in the global registry and in
:attr:`BatchResult.metrics`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from ..geometry.net import Net
from .. import obs
from ..obs import emit_event, span, timer_observe
from .pareto import Solution
from .patlabor import PatLaborConfig

if TYPE_CHECKING:
    from ..serve.pool import WorkerSpec


@dataclass
class BatchResult:
    """Outcome of one batch run."""

    fronts: Dict[str, List[Solution]]
    seconds: float
    cache_hits: int = 0
    cache_misses: int = 0
    #: Structured profile of the run (only populated while
    #: :func:`repro.obs.enable` is active): headline throughput numbers
    #: plus one entry per worker. ``None`` on unprofiled runs.
    metrics: Optional[Dict[str, object]] = field(default=None, repr=False)

    @property
    def nets_per_second(self) -> float:
        return len(self.fronts) / self.seconds if self.seconds > 0 else 0.0

    @property
    def total_solutions(self) -> int:
        return sum(len(f) for f in self.fronts.values())

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


def _route_serial(
    nets: Sequence[Net], spec: "WorkerSpec"
) -> Tuple[Dict[str, List[Solution]], int, int]:
    """Route ``nets`` in this process on one engine; fronts keep trees."""
    router = spec.build()
    fronts: Dict[str, List[Solution]] = {}
    try:
        for i, net in enumerate(nets):
            t0 = time.perf_counter()
            fronts[net.name or f"net_{i}"] = router.route(net)
            timer_observe("batch.net_seconds", time.perf_counter() - t0)
    finally:
        close = getattr(router, "close", None)
        if callable(close):
            close()
    hits = getattr(router, "hits", 0) + getattr(router, "store_hits", 0)
    return fronts, hits, getattr(router, "misses", 0)


def _route_parallel(
    nets: Sequence[Net], spec: "WorkerSpec", workers: int
) -> Tuple[Dict[str, List[Solution]], int, int, List[Dict[str, float]]]:
    """Route ``nets`` as one :func:`repro.serve.pool.route_chunk` per worker.

    Worker ``k`` gets the round-robin shard ``nets[k::workers]``, which
    spreads a degree-sorted net list (as ``repro gen-nets`` writes it)
    evenly. Returns objective-only fronts, cache hit/miss counts (from
    each net's ``served`` tier; both 0 without a cache), and one stats
    entry per shard. :func:`repro.serve.pool.retire` flushes every
    worker's store counters and merges its telemetry back.
    """
    from ..serve import pool
    from ..serve.protocol import net_to_payload, result_front

    payloads = [net_to_payload(net) for net in nets]
    with pool.WorkerPool(spec, workers) as executor:
        futures = [
            executor.submit(pool.route_chunk, payloads[k::workers], k)
            for k in range(workers)
        ]
        shards = [future.result() for future in futures]
        pool.retire(executor)
    entries: List[Dict[str, Any]] = [{}] * len(nets)
    for k, shard in enumerate(shards):
        entries[k::workers] = shard
    fronts = {
        net.name or f"net_{i}": result_front(entry)
        for i, (net, entry) in enumerate(zip(nets, entries))
    }
    misses = sum(entry["served"] == "routed" for entry in entries)
    hits = len(entries) - misses
    if spec.cache_mode is None:
        hits = misses = 0
    for entry in entries:
        timer_observe("batch.net_seconds", entry["seconds"])
    stats: List[Dict[str, float]] = []
    for shard in shards:
        seconds = sum(entry["seconds"] for entry in shard)
        timer_observe("batch.worker_seconds", seconds)
        stats.append({
            "nets": len(shard),
            "seconds": seconds,
            "nets_per_second": len(shard) / seconds if seconds > 0 else 0.0,
        })
    return fronts, hits, misses, stats


def route_batch(
    nets: Sequence[Net],
    *,
    config: Optional[PatLaborConfig] = None,
    jobs: int = 1,
    use_cache: bool = True,
    method: str = "patlabor",
    cache_mode: str = "translation",
    cache_store: Optional[str] = None,
) -> BatchResult:
    """Route every net; returns per-net Pareto sets keyed by net name.

    ``method`` names any router registered with :mod:`repro.engine`
    (``"patlabor"``, ``"salt"``, ``"pareto-ks"``, ...); each worker
    assembles its own engine stack from that name, so there is no
    batch-local method table. ``cache_mode`` selects the cache's
    canonicalization (``"translation"`` or ``"symmetry"``) and
    ``cache_store`` optionally adds a persistent disk tier shared by
    every worker (both only when ``use_cache`` is set; disk hits count
    into :attr:`BatchResult.cache_hits`).

    With ``jobs > 1`` the nets are dealt round-robin into
    ``min(jobs, len(nets))`` shards on a
    :class:`repro.serve.pool.WorkerPool` of that many workers (the
    daemon's pool), and the returned solutions carry ``None`` payloads
    (objectives only); run serially when the trees themselves are
    needed. Each observability layer enabled in the parent — metrics
    registry, Chrome-trace capture, structured event log — is recorded
    by the workers too and merged back, so cross-process runs still
    produce one registry, one trace, and one chronological event stream.
    """
    from ..serve.pool import WorkerSpec

    config = config or PatLaborConfig()
    profiling = obs.enabled()
    logging_events = obs.events_enabled()
    spec = WorkerSpec(
        method=method,
        cache_mode=cache_mode if use_cache else None,
        store_path=cache_store if use_cache else None,
        use_default_lut=False,
        router_options={"config": config} if method == "patlabor" else {},
    )
    t0 = time.perf_counter()
    workers: List[Dict[str, float]] = []
    with span("batch.route_batch"):
        if not nets:
            # Nothing to route: skip pool setup entirely. Ratio metrics
            # (cache_hit_rate, nets_per_second) read 0.0 on this path.
            fronts: Dict[str, List[Solution]] = {}
            hits = misses = 0
        elif jobs <= 1:
            fronts, hits, misses = _route_serial(nets, spec)
        else:
            fronts, hits, misses, workers = _route_parallel(
                nets, spec, min(jobs, len(nets))
            )
    result = BatchResult(
        fronts=fronts,
        seconds=time.perf_counter() - t0,
        cache_hits=hits,
        cache_misses=misses,
    )
    if profiling:
        obs.counter_add("batch.nets", len(result.fronts))
        result.metrics = {
            "nets": len(result.fronts),
            "seconds": result.seconds,
            "nets_per_second": result.nets_per_second,
            "cache_hit_rate": result.cache_hit_rate,
            "cache_hits": result.cache_hits,
            "cache_misses": result.cache_misses,
            "workers": workers,
        }
    if logging_events and nets:
        emit_event(
            "batch_done",
            nets=len(result.fronts),
            jobs=max(1, jobs),
            seconds=result.seconds,
            nets_per_second=result.nets_per_second,
            cache_hits=result.cache_hits,
            cache_misses=result.cache_misses,
            cache_hit_rate=result.cache_hit_rate,
            peak_rss_kb=obs.peak_rss_kb(),
        )
    return result
