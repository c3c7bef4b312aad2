"""The one worker pool: one resident engine per worker, chunked tasks.

Both the daemon and :func:`repro.core.batch.route_batch` run on a
:class:`WorkerPool`. The engine — router, lookup table, cache tiers — is
built **exactly once per worker**, inside :func:`init_worker` (the pool
initializer), and parked in a module global. Routing tasks are
:func:`route_chunk` calls carrying one share of the caller's net
payloads per worker (the daemon sends contiguous :func:`chunks`, batch
round-robin shards); work every worker must do once (readiness, and the
store flush and telemetry drain of :func:`retire`) goes through
:func:`broadcast`.

The lookup table is additionally pre-loaded in the *parent* when the
pool is created, so on fork start methods every worker inherits the
parsed table copy-on-write; on spawn methods each worker loads it once
from disk. Either way: once per worker, never per task.

Every worker resolves its router through the standard
:func:`repro.engine.build.build_engine` middleware stack, so pool
traffic gets the same validation, canonicalizing cache (optionally
backed by the shared persistent store), and observability as every other
entry point.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing.synchronize import Barrier
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple
from typing import TypeVar

from .. import obs
from ..engine.build import EngineSpec, build_engine
from ..engine.protocol import Router, route_select
from .protocol import net_from_payload, result_to_payload

T = TypeVar("T")

#: Seconds a :func:`broadcast` task waits at the barrier before the round
#: is abandoned and retried.
BARRIER_TIMEOUT_S = 5.0


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to assemble its engine stack.

    A frozen, pickle-friendly description shipped once through the pool
    initializer (never per task). ``use_default_lut`` arms PatLabor with
    the shipped degree-4..6 table; ``store_path`` attaches the shared
    persistent cache tier; ``telemetry`` turns the worker's own obs
    registry, event log, and trace collector on so the daemon can drain
    per-worker metrics (:func:`retire`) at shutdown.
    """

    method: str = "patlabor"
    cache_mode: Optional[str] = "symmetry"
    cache_entries: int = 100_000
    store_path: Optional[str] = None
    use_default_lut: bool = True
    telemetry: bool = False
    router_options: Dict[str, Any] = field(default_factory=dict)

    def build(self) -> Router:
        """Assemble the engine stack this spec describes."""
        options: Dict[str, Any] = dict(self.router_options)
        if self.use_default_lut and self.method == "patlabor":
            from ..lut.default import default_table

            options.setdefault("lut", default_table())
        return build_engine(
            EngineSpec(
                router=self.method,
                router_options=options,
                cache=self.cache_mode,
                cache_entries=self.cache_entries,
                cache_store=self.store_path,
            )
        )


#: The worker-resident engine, built once by :func:`init_worker`.
_ENGINE: Optional[Router] = None

#: The pool-wide barrier :func:`broadcast` tasks meet at, set by
#: :func:`init_worker`.
_BARRIER: Barrier


def init_worker(
    spec: WorkerSpec, barrier: Barrier, layers: Tuple[bool, bool, bool]
) -> None:
    """Pool initializer: build this worker's engine once, park it globally.

    The obs buffers a fork-started worker inherits are cleared first, so
    :func:`retire_worker` ships only this worker's share. The worker then
    records the obs layers the parent had on when the pool was created
    (``layers``: registry, event log, trace collector), or all three with
    ``spec.telemetry``, for the parent to fold back (histogram merges are
    associative, so the fold order across workers never changes the
    totals). ``barrier`` is the pool's :func:`broadcast` barrier.
    """
    global _ENGINE, _BARRIER
    obs.reset()
    enables = (obs.enable, obs.events_enable, obs.trace_enable)
    for enable, on in zip(enables, layers):
        if on or spec.telemetry:
            enable()
    _BARRIER = barrier
    _ENGINE = spec.build()


class WorkerPool(ProcessPoolExecutor):
    """A process pool whose ``workers`` processes each hold one engine.

    Every worker runs :func:`init_worker` with ``spec``, ``barrier`` (a
    ``multiprocessing.Barrier`` sized to the pool) and the obs layers on
    in this process. A ``spec`` that arms the default lookup table has it
    parsed here, so fork-started workers inherit it copy-on-write.
    """

    def __init__(self, spec: WorkerSpec, workers: int) -> None:
        if spec.use_default_lut and spec.method == "patlabor":
            from ..lut.default import default_table

            default_table()
        self.workers = max(1, workers)
        self.barrier = multiprocessing.Barrier(self.workers)
        #: Serialises broadcast rounds: two interleaved rounds would meet
        #: at one barrier and could hand one worker two tasks of a round.
        self.broadcast_lock = threading.Lock()
        layers = (obs.enabled(), obs.events_enabled(), obs.trace_enabled())
        super().__init__(
            max_workers=self.workers,
            initializer=init_worker,
            initargs=(spec, self.barrier, layers),
        )


def chunks(items: Sequence[T], parts: int) -> List[Tuple[int, Sequence[T]]]:
    """Split ``items`` into at most ``parts`` contiguous near-equal runs.

    Returns ``(first_index, run)`` pairs in order. Run lengths differ by
    at most one and, for non-empty ``items``, are never zero: fewer items
    than parts gives one single-item run per item.
    """
    parts = max(1, min(parts, len(items)))
    bounds = [len(items) * k // parts for k in range(parts + 1)]
    return [(a, items[a:b]) for a, b in zip(bounds, bounds[1:])]


def _at_barrier(fn: Callable[[], Any], timeout: float) -> Tuple[bool, Any]:
    """Broadcast task body: wait for every worker, then run ``fn`` once.

    Returns ``(False, None)`` when the barrier broke (a sibling task did
    not arrive within ``timeout``), in which case ``fn`` did not run.
    """
    try:
        _BARRIER.wait(timeout)
    except threading.BrokenBarrierError:
        return False, None
    return True, fn()


def broadcast(
    pool: WorkerPool, fn: Callable[[], T], *, attempts: Optional[int] = 3
) -> List[T]:
    """Run ``fn`` exactly once in every worker of ``pool``; one result each.

    Submits ``pool.workers`` tasks that each wait on the pool's barrier
    before calling ``fn``; a worker blocked at the barrier cannot take a
    second task, so the barrier opens only once every worker holds one.
    A round in which a task waited past :data:`BARRIER_TIMEOUT_S` runs no
    ``fn`` and is retried on the reset barrier, up to ``attempts`` rounds
    (``None``: until one succeeds), then ``TimeoutError``. A dead worker
    surfaces as ``BrokenProcessPool``.
    """
    rounds = itertools.count() if attempts is None else range(attempts)
    for _ in rounds:
        with pool.broadcast_lock:
            futures = [
                pool.submit(_at_barrier, fn, BARRIER_TIMEOUT_S)
                for _ in range(pool.workers)
            ]
            answers = [future.result() for future in futures]
            if all(ok for ok, _value in answers):
                return [value for _ok, value in answers]
            # Every task of the round has returned, so no worker is
            # waiting: resetting cannot strand one.
            pool.barrier.reset()
    raise TimeoutError(f"broadcast missed a worker in {attempts} attempt(s)")


def route_payload(
    payload: Dict[str, Any],
    with_trees: bool = False,
    request_id: Optional[str] = None,
    net_id: Optional[str] = None,
    select: Optional[str] = None,
) -> Dict[str, Any]:
    """Route one net payload on the resident engine (runs in a worker).

    Returns the response entry for this net plus accounting the server
    aggregates: which cache tier served it (``memory`` / ``store`` /
    ``routed``, derived from the engine's counter deltas) and the worker
    wall time.

    ``request_id`` / ``net_id`` are the daemon-assigned trace identity:
    the route runs inside :func:`repro.obs.request_context`, so worker-
    side spans and ``net_routed`` events carry them, and they ride the
    result back (``request_id`` in the out dict) for end-to-end checks.

    ``select`` is an optional frontier point-policy spec (see
    :func:`repro.engine.resolve_point_policy`); when given, the chosen
    index rides the result as ``"chosen"`` — the same selection hook the
    congestion negotiator uses, applied worker-side so the whole front
    never has to cross the wire just to pick one tree.
    """
    if _ENGINE is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("worker pool used before init_worker")
    engine = _ENGINE
    net = net_from_payload(payload)
    chosen: Optional[int] = None
    mem0 = int(getattr(engine, "hits", 0))
    store0 = int(getattr(engine, "store_hits", 0))
    with obs.request_context(request_id, net_id):
        t0 = time.perf_counter()
        if select is not None:
            front, chosen = route_select(engine, net, select)
        else:
            front = engine.route(net)
        seconds = time.perf_counter() - t0
        obs.timer_observe("serve.worker_net_seconds", seconds)
    if int(getattr(engine, "hits", 0)) > mem0:
        served = "memory"
    elif int(getattr(engine, "store_hits", 0)) > store0:
        served = "store"
    else:
        served = "routed"
    out = result_to_payload(
        net.name or "net", front, served, with_trees=with_trees
    )
    out["seconds"] = seconds
    if chosen is not None:
        out["chosen"] = chosen
    if request_id is not None:
        out["request_id"] = request_id
    return out


def route_chunk(
    payloads: Sequence[Dict[str, Any]],
    first_index: int,
    with_trees: bool = False,
    request_id: Optional[str] = None,
    select: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Route a run of net payloads in order (the pool's one route task).

    ``first_index`` is the position of ``payloads[0]`` in the caller's
    net list. With a ``request_id`` (the daemon, which sends contiguous
    runs), net ``i`` of the run is traced as
    ``<request_id>/<first_index + i>``.
    """
    return [
        route_payload(
            payload,
            with_trees,
            request_id,
            None if request_id is None else f"{request_id}/{first_index + i}",
            select,
        )
        for i, payload in enumerate(payloads)
    ]


def worker_ready() -> Dict[str, Any]:
    """Readiness probe body: proof this worker's initializer completed.

    The daemon broadcasts this after pool creation; the returned dicts
    are the evidence behind ``/readyz`` (one distinct pid per worker,
    store flags showing the persistent tier is attached and not
    degraded).
    """
    store = getattr(_ENGINE, "store", None) if _ENGINE is not None else None
    return {
        "pid": os.getpid(),
        "engine": _ENGINE is not None,
        "store_attached": store is not None,
        "store_healthy": bool(getattr(store, "healthy", True)),
    }


def retire_worker() -> Dict[str, Any]:
    """A worker's last task: release its engine, ship its obs state.

    Broadcast once by :func:`retire`. Closing the engine flushes its
    persistent tier, so every worker's session hit/miss statistics land
    in the store's meta table (pool workers exit without running
    ``atexit`` hooks) and ``repro cache stats`` stays truthful. Returns
    the registry snapshot (with raw timer samples), the buffered
    structured events, and the buffered trace events — each empty for a
    layer the worker did not record.
    """
    close = getattr(_ENGINE, "close", None)
    if callable(close):
        close()
    return {
        "pid": os.getpid(),
        "snapshot": obs.get_registry().snapshot(with_samples=True),
        "events": obs.drain_events(),
        "trace": obs.get_trace_collector().drain(),
    }


def retire(pool: WorkerPool) -> None:
    """Retire every worker of ``pool`` once, before it shuts down.

    Broadcasts :func:`retire_worker` and folds what each worker recorded
    into this process's obs registry, event log, and trace collector.
    """
    for worker in broadcast(pool, retire_worker):
        obs.get_registry().merge_snapshot(worker["snapshot"])
        obs.get_event_log().extend(worker["events"])
        obs.get_trace_collector().extend(worker["trace"])
