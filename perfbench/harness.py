"""Shared machinery of the perfbench workloads.

* :class:`Pass` — what one measured pass of a workload produced: item
  latencies, set-up samples, failures, quality sums and properties.
* :func:`run_blocks` — the time-boxed loop. Inputs come in *blocks*
  whose composition is fixed (degree mix, repeat share, edit mix), so a
  run that ends after a different number of blocks still measures the
  same traffic shape.
* :class:`Tracer` — spans recorded from outside the program: wrappers
  patched over each layer's public function at the name its caller
  resolves, removed again by :meth:`Tracer.uninstall`.
* :class:`HostSpeed` — a fixed probe timed between items; recorded times
  are divided by its slowdown factor, so a shared host's slow phases do
  not read as a slower program.
* Output checks (:func:`check_front`, :func:`objective_pairs`) and
  statistics (:func:`hd_quantile`, :func:`mix_weights`,
  :func:`normalized_hv`, peak RSS).
"""

from __future__ import annotations

import contextlib
import inspect
import os
import random
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    ContextManager,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

#: Reference point of the normalized hypervolume: wirelength in units of
#: the net's half-perimeter, delay in units of its L1 delay lower bound.
#: Both normalizers depend only on pin geometry, never on the router.
HV_REFERENCE = (3.0, 2.0)

#: Relative slack of the tree-attains-its-objectives check. Exact tiers
#: sum objectives in DP order and the tree in node order, so the two can
#: differ in the last bits; docs/numerics.md lets a payload tree attain or
#: weakly dominate its reported pair.
OBJECTIVE_SLACK = 1e-12

#: Failure messages kept per pass (the count is always exact).
MAX_ERRORS = 5

#: Host-speed probe: a fixed pure-Python workload (tuple allocation, a
#: sort and dict inserts, the operations the router spends its time on),
#: timed this many times per probe, the fastest counting so a moment of
#: interference from the benchmark's own processes does not; the probe
#: time that reads as factor 1 (a fixed scale, near the probe's time on
#: the 2-vCPU x86 VM the bounds were set on); the least time between
#: probes made before workload items; and how many of the latest probes
#: the factor is the median of, so one disturbed probe moves no item.
PROBE_REPEATS = 3
PROBE_REFERENCE_S = 2.5e-3
PROBE_INTERVAL_S = 0.2
PROBE_WINDOW = 5


def _cpu_ticks() -> Tuple[int, int]:
    """Busy and stolen clock ticks of all CPUs since boot (``/proc/stat``).

    Stolen ticks count time a virtual CPU wanted to run while the
    hypervisor ran another guest. Hosts without the file read (0, 0).
    """
    try:
        with open("/proc/stat") as fp:
            fields = [int(v) for v in fp.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    if len(fields) < 8:
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal


def _probe_work() -> int:
    rng = random.Random(1)
    pairs = [(rng.random(), rng.random()) for _ in range(3000)]
    pairs.sort()
    table = {}
    for a, b in pairs:
        table[a] = b
    return len(table)


class HostSpeed:
    """How slowly the host runs right now, from a fixed probe workload.

    On a shared host a core runs the same work up to ~1.5x slower while
    its neighbours are busy, in phases of a second to minutes, which
    moves every timing of a run alike; in other phases the hypervisor
    takes the virtual CPUs away for a share of the time, which the
    fastest-of-three probe does not see. A workload probes before its
    items (:meth:`maybe_probe`) and before each set-up (:meth:`probe`);
    every time it records is divided by :attr:`factor`: the median
    slowdown of the last :data:`PROBE_WINDOW` probes, over the share of
    busy CPU time not stolen since the probe that many before, raised to
    ``cpus``. Work that needs ``cpus`` virtual CPUs at once stalls while
    any of them is taken: a request to the serve daemon passes through
    processes on both. Timings so read as on a host that runs the probe
    in :data:`PROBE_REFERENCE_S` and steals nothing. Probe and tick
    counts are outside the program under test, so no change to it can
    move them.
    """

    def __init__(self, cpus: int = 1) -> None:
        self.cpus = cpus
        self.factor = 1.0
        self.factors: List[float] = []
        self.stolen_shares: List[float] = []
        self.ticks = [_cpu_ticks()]
        self.last = float("-inf")

    def probe(self) -> float:
        """Time the probe; return and keep the new factor."""
        times = []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            _probe_work()
            times.append(time.perf_counter() - t0)
        self.factors.append(min(times) / PROBE_REFERENCE_S)
        self.ticks.append(_cpu_ticks())
        busy0, stolen0 = self.ticks[-1 - min(PROBE_WINDOW, len(self.ticks) - 1)]
        busy, stolen = self.ticks[-1][0] - busy0, self.ticks[-1][1] - stolen0
        self.stolen_shares.append(stolen / (busy + stolen) if busy + stolen else 0.0)
        not_stolen = (1.0 - self.stolen_shares[-1]) ** self.cpus
        self.factor = median(self.factors[-PROBE_WINDOW:]) / not_stolen
        self.last = time.perf_counter()
        return self.factor

    def maybe_probe(self) -> None:
        """Probe if :data:`PROBE_INTERVAL_S` passed since the last probe."""
        if time.perf_counter() - self.last >= PROBE_INTERVAL_S:
            self.probe()


@dataclass
class Pass:
    """Everything one measured pass of a workload produced."""

    items: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    blocks: int = 0
    #: Work units behind ``nets_per_s`` (nets routed, edited or negotiated).
    work: int = 0
    #: Summed measured item time (input generation excluded). This and
    #: the latencies and set-up samples are :meth:`scaled` times.
    busy_s: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    #: Per-latency weights restoring the workload's target mix (see
    #: :func:`mix_weights`); None weighs every latency alike.
    weights: Optional[List[float]] = None
    #: Start of each segment of an unweighted pass: (index into
    #: ``latencies_ms``, ``work``, ``busy_s``) when it began. A pass of
    #: several segments (serve: one per daemon) reports each timing as the
    #: median of its segments' values (see :meth:`mark_segment`).
    segments: List[Tuple[int, int, float]] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    hv: List[float] = field(default_factory=list)
    wl_sum: float = 0.0
    hpwl_sum: float = 0.0
    peak_rss_mb: float = 0.0
    properties: Dict[str, Any] = field(default_factory=dict)
    #: Per-layer metrics the workload derives without spans.
    layers: Dict[str, float] = field(default_factory=dict)
    host: HostSpeed = field(default_factory=HostSpeed)

    def scaled(self, seconds: float) -> float:
        """A time just measured, at the reference host speed."""
        return seconds / self.host.factor

    def mark_segment(self) -> None:
        """Start a new segment: what follows is timed as its own sample."""
        self.segments.append((len(self.latencies_ms), self.work, self.busy_s))

    def fail(self, message: str) -> None:
        """Count one failed item and keep its message (first few only)."""
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)

    def add_quality(self, net: Any, pairs: Sequence[Tuple[float, float]]) -> None:
        """Fold one front into the ``wirelength`` sums (min-wire point)."""
        self.wl_sum += min(w for w, _d in pairs)
        self.hpwl_sum += net.bbox().half_perimeter


def run_blocks(
    blocks: Iterator[Any],
    run_block: Callable[[Any], None],
    seconds: float,
    max_blocks: Optional[int] = None,
    clock: Callable[[], float] = time.perf_counter,
    min_blocks: int = 1,
) -> int:
    """Run whole blocks until ``seconds`` elapse (or ``max_blocks`` ran).

    A block that starts before the deadline runs to its end, so every
    pass holds whole blocks, at least ``min_blocks`` of them. ``clock`` measures the elapsed time; a
    workload that sets up inside its blocks passes one that leaves the
    set-up out. Returns the number of blocks run.
    """
    t0 = clock()
    done = 0
    for block in blocks:
        if max_blocks is not None:
            if done >= max_blocks:
                break
        elif done >= min_blocks and clock() - t0 >= seconds:
            break
        run_block(block)
        done += 1
    return done


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated ``q``-quantile (0 <= q <= 1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    """The 0.5-quantile of ``values``."""
    return percentile(values, 0.5)


def hd_quantile(
    values: Sequence[float], q: float, weights: Optional[Sequence[float]] = None
) -> float:
    """Harrell-Davis estimate of the ``q``-quantile of ``values``.

    A mean of all order statistics, each weighted by the mass that
    Beta((n+1)q, (n+1)(1-q)) puts on its share of the sample (Harrell and
    Davis, Biometrika 69(3), 1982). It averages the values around the
    quantile instead of interpolating two of them, so it moves less from
    run to run where few items lie near the quantile, as the tail of
    ``route_mix`` does. With ``weights``, each value's share is its
    weight's and n is the effective size (sum w)^2 / sum w^2.
    """
    import numpy as np
    from scipy.special import betainc

    if not values:
        raise ValueError("quantile of an empty sample")
    order = np.argsort(np.asarray(values, dtype=float), kind="stable")
    ordered = np.asarray(values, dtype=float)[order]
    w = np.ones(len(ordered)) if weights is None else np.asarray(weights, dtype=float)[order]
    n = w.sum() ** 2 / (w * w).sum()
    edges = np.concatenate(([0.0], np.cumsum(w) / w.sum()))
    mass = np.diff(betainc((n + 1) * q, (n + 1) * (1 - q), np.clip(edges, 0.0, 1.0)))
    return float(np.dot(mass, ordered))


def mix_weights(keys: Sequence[Any], shares: Dict[Any, float]) -> List[float]:
    """Weights giving each key its share of the target mix, whatever it got.

    A run that stops inside a cycle of its inputs holds some kinds of
    item more often than the cycle does; weighting each item by its
    kind's share over the kind's count in the run measures the cycle's
    mix. Kinds absent from the run drop out and the rest are rescaled.
    """
    counts: Dict[Any, int] = {}
    for key in keys:
        counts[key] = counts.get(key, 0) + 1
    total = sum(shares[key] for key in counts)
    return [shares[key] / (total * counts[key]) for key in keys]


def normalized_hv(net: Any, pairs: Sequence[Tuple[float, float]]) -> float:
    """Hypervolume of a front with w / HPWL and d / delay lower bound.

    Measured against :data:`HV_REFERENCE`; points beyond it add nothing.
    """
    hpwl = net.bbox().half_perimeter
    lower = net.delay_lower_bound()
    points = sorted((w / hpwl, d / lower) for w, d in pairs)
    ref_w, ref_d = HV_REFERENCE
    volume = 0.0
    ceiling = ref_d
    for w, d in points:
        if w < ref_w and d < ceiling:
            volume += (ref_w - w) * (ceiling - d)
            ceiling = d
    return volume


def objective_pairs(front: Iterable[Sequence[Any]]) -> List[Tuple[float, float]]:
    """The ``(w, d)`` pairs of a front of ``(w, d, tree)`` solutions."""
    return [(s[0], s[1]) for s in front]


def close_fronts(
    a: Sequence[Tuple[float, float]], b: Sequence[Tuple[float, float]]
) -> bool:
    """Equal fronts up to :data:`OBJECTIVE_SLACK` (summation order)."""
    return len(a) == len(b) and all(
        abs(x - y) <= OBJECTIVE_SLACK * max(1.0, abs(y))
        for p, q in zip(a, b)
        for x, y in zip(p, q)
    )


def snap_to_grid(net: Any) -> Optional[Any]:
    """``net`` with integer pin coordinates, or None if two pins merge."""
    pins = [(float(round(p.x)), float(round(p.y))) for p in net.pins]
    if len(set(pins)) != len(pins):
        return None
    return type(net)(pins=pins, name=net.name)


def _recomputed_objective(tree: Any) -> Tuple[float, float]:
    """``(w, d)`` of a tree recomputed from its points and parents."""
    pts = tree.points
    parent = tree.parent
    wire = sum(
        abs(pts[i].x - pts[p].x) + abs(pts[i].y - pts[p].y)
        for i, p in enumerate(parent)
        if p >= 0
    )
    dist: Dict[int, float] = {0: 0.0}

    def path(u: int) -> float:
        chain = []
        while u not in dist:
            chain.append(u)
            u = parent[u]
        for v in reversed(chain):
            p = parent[v]
            dist[v] = dist[p] + (abs(pts[v].x - pts[p].x) + abs(pts[v].y - pts[p].y))
        return dist[chain[0]] if chain else dist[u]

    delay = max(path(i) for i in range(1, tree.net.degree))
    return wire, delay


def check_front(net: Any, front: Sequence[Sequence[Any]]) -> Optional[str]:
    """Why ``front`` is not a valid Pareto set of trees for ``net``, or None.

    Every tree must pass :func:`repro.routing.validate.check_tree`, span
    ``net``, and attain its reported ``(w, d)`` when recomputed from its
    points (within :data:`OBJECTIVE_SLACK`); the pairs must be sorted by
    wirelength and mutually non-dominated.
    """
    from repro.exceptions import ReproError
    from repro.routing.validate import check_tree

    if not front:
        return f"{net.name}: empty front"
    for w, d, tree in front:
        if tree is None:
            return f"{net.name}: solution without a tree"
        if tuple(tree.net.pins) != tuple(net.pins):
            return f"{net.name}: tree spans another net"
        try:
            check_tree(tree)
        except ReproError as exc:
            return f"{net.name}: {exc}"
        tw, td = _recomputed_objective(tree)
        if tw > w + OBJECTIVE_SLACK * max(1.0, w) or td > d + OBJECTIVE_SLACK * max(1.0, d):
            return f"{net.name}: reported {(w, d)} but tree measures {(tw, td)}"
    pairs = objective_pairs(front)
    for (w0, d0), (w1, d1) in zip(pairs, pairs[1:]):
        if not (w0 < w1 and d0 > d1):
            return f"{net.name}: front not strictly Pareto-sorted at {(w0, d0)}, {(w1, d1)}"
    return None


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of process ``pid``, in MiB."""
    with open(f"/proc/{pid}/status") as fp:
        for line in fp:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid``, from ``/proc/<pid>/task/*/children``."""
    out: List[int] = []
    for tid in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{tid}/children") as fp:
            out.extend(int(c) for c in fp.read().split())
    return out


def log(message: str) -> None:
    """Progress line on stderr (stdout ends with the result line)."""
    print(message, file=sys.stderr, flush=True)


# ----------------------------------------------------------------- tracing

#: One recorded span: ``[name, start, end, parent_index, tag]``.
Span = List[Any]


class Tracer:
    """In-memory spans recorded from the benchmark's side of each layer.

    :meth:`patch` replaces ``owner.attr`` (a module function, method
    or classmethod) with a wrapper that records a span per
    call; :meth:`span` opens a span around benchmark code, such as one
    workload item. Spans nest by call order on the single benchmark
    thread, so a span's parent is the innermost span open when it began.
    ``tag`` callables receive ``(args, kwargs, result)`` and attach a
    value (such as the net degree) to the span.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._undo: List[Tuple[Any, str, Any, Any]] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around benchmark code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, func: Callable[..., Any], name: str, tag: Optional[Callable[..., Any]]) -> Callable[..., Any]:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = tracer._open(name)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                tracer._close(index)
                if tag is not None:
                    tracer.spans[index][4] = tag(args, kwargs, result)

        traced.__wrapped__ = func  # type: ignore[attr-defined]
        return traced

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        tag: Optional[Callable[..., Any]] = None,
    ) -> None:
        """Wrap ``owner.attr`` so each call records a span called ``name``."""
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, classmethod):
            wrapped: Any = classmethod(self._wrap(original.__func__, name, tag))
        else:
            wrapped = self._wrap(original, name, tag)
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original, wrapped))

    def uninstall(self) -> None:
        """Restore every patched attribute (in reverse patch order)."""
        while self._undo:
            owner, attr, original, _wrapped = self._undo.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Run benchmark-side work (output checks) with no span recorded."""
        for owner, attr, original, _wrapped in reversed(self._undo):
            setattr(owner, attr, original)
        try:
            yield
        finally:
            for owner, attr, _original, wrapped in self._undo:
                setattr(owner, attr, wrapped)

    def self_times(self) -> List[float]:
        """Per span: its duration minus the durations of its children."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def has_ancestor(self, index: int, name: str) -> bool:
        """True when a span called ``name`` encloses span ``index``."""
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """Span name -> (calls, summed self seconds)."""
        out: Dict[str, Tuple[int, float]] = {}
        for s, own in zip(self.spans, self.self_times()):
            calls, total = out.get(s[0], (0, 0.0))
            out[s[0]] = (calls + 1, total + own)
        return out


def span_of(tracer: Optional[Tracer], name: str) -> ContextManager[None]:
    """``tracer.span(name)``, or a no-op on an untraced pass."""
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def untraced(tracer: Optional[Tracer]) -> ContextManager[None]:
    """``tracer.paused()``, or a no-op on an untraced pass."""
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


def degree_tag(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> int:
    """Span tag: the degree of the net passed as first argument."""
    net = args[0] if args else kwargs["net"]
    return int(net.degree)


def install_engine_layers(tracer: Tracer) -> None:
    """Patch the routing-engine layers every workload may pass through.

    Each wrapper sits at the name the caller resolves: PatLabor calls
    ``pareto_dw``, ``reassemble`` and ``wirelength_refine`` through its
    module globals, the ECO DW tier calls ``pareto_dw_with_state``
    through :mod:`repro.incremental.engine`, and local search imports
    ``rsmt`` from ``repro.baselines.rsmt`` at call time (that module is
    reached through ``sys.modules`` because the ``repro.baselines``
    package re-exports a function under the same name).
    """
    import importlib

    from repro.core import patlabor
    from repro.core.policy import SelectionPolicy
    from repro.geometry.hanan import HananGrid
    from repro.incremental import engine as incremental_engine
    from repro.lut.table import LookupTable

    importlib.import_module("repro.baselines.rsmt")
    rsmt_module = sys.modules["repro.baselines.rsmt"]

    tracer.patch(patlabor, "pareto_dw", "core.pareto_dw", tag=degree_tag)
    tracer.patch(
        incremental_engine, "pareto_dw_with_state", "core.pareto_dw", tag=degree_tag
    )
    tracer.patch(HananGrid, "of_net", "geometry.hanan")
    tracer.patch(HananGrid, "distance_matrix", "geometry.hanan")
    tracer.patch(LookupTable, "lookup", "lut.lookup")
    tracer.patch(rsmt_module, "rsmt", "baselines.rsmt")
    tracer.patch(patlabor.PatLabor, "route", "core.patlabor.route")
    tracer.patch(patlabor.PatLabor, "local_search", "core.patlabor.local_search")
    tracer.patch(patlabor, "reassemble", "core.patlabor.reassemble")
    tracer.patch(SelectionPolicy, "select", "core.policy.select")
    tracer.patch(patlabor, "wirelength_refine", "routing.refine")


#: Degrees the per-degree DW metrics cover (the exact tier, n <= lambda).
DW_DEGREES = range(4, 10)
#: Local-search sub-nets hold the source plus lambda - 1 sinks.
SUBNET_DEGREE = 9


def engine_layer_metrics(tracer: Tracer, items: int) -> Dict[str, float]:
    """Per-layer metrics of the engine layers, from recorded spans.

    ``*_ms`` and ``*.calls`` are per workload item (net, request, edit
    or chip); the ``.dN`` variants are the mean self time of one call at
    degree N.
    """
    own = tracer.self_times()
    per_item = 1e3 / items
    out: Dict[str, float] = {}
    direct = subnet = 0.0
    dw_calls = 0
    by_degree: Dict[Tuple[str, int], List[float]] = {}
    for index, s in enumerate(tracer.spans):
        if s[0] != "core.pareto_dw":
            continue
        dw_calls += 1
        kind = "subnet" if tracer.has_ancestor(index, "core.patlabor.local_search") else "direct"
        if kind == "subnet":
            subnet += own[index]
        else:
            direct += own[index]
        by_degree.setdefault((kind, s[4]), []).append(own[index])
    out["core.pareto_dw.calls"] = dw_calls / items
    out["core.pareto_dw.direct_ms"] = direct * per_item
    out["core.pareto_dw.subnet_ms"] = subnet * per_item
    for n in DW_DEGREES:
        calls = by_degree.get(("direct", n), [])
        out[f"core.pareto_dw.direct_ms.d{n}"] = 1e3 * sum(calls) / len(calls) if calls else 0.0
    calls = by_degree.get(("subnet", SUBNET_DEGREE), [])
    out[f"core.pareto_dw.subnet_ms.d{SUBNET_DEGREE}"] = 1e3 * sum(calls) / len(calls) if calls else 0.0
    totals = tracer.totals()

    def ms(name: str) -> float:
        return totals.get(name, (0, 0.0))[1] * per_item

    out["geometry.hanan.ms"] = ms("geometry.hanan")
    out["lut.lookup.calls"] = totals.get("lut.lookup", (0, 0.0))[0] / items
    out["lut.lookup.ms"] = ms("lut.lookup")
    out["baselines.rsmt.ms"] = ms("baselines.rsmt")
    out["core.patlabor.local_search_ms"] = ms("core.patlabor.local_search")
    out["core.patlabor.reassemble_ms"] = ms("core.patlabor.reassemble")
    out["core.policy.select_ms"] = ms("core.policy.select")
    out["routing.refine.ms"] = ms("routing.refine")
    out["engine.overhead_ms"] = ms("engine.route") + ms("engine.apply_delta")
    return out
