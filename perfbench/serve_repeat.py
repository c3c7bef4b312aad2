"""``serve_repeat``: ``repro serve`` daemons driven by one closed-loop client.

Each daemon runs as a subprocess with default flags (2 workers, symmetry
cache, bundled degree 4-6 lookup table) on a Unix socket in the working
directory; a run uses five in turn, each for a fifth of the time (see
:func:`run`). One :class:`~repro.serve.client.ServeClient` sends a
request only after the previous reply arrived. Each request carries 20 nets of
degree 2-6 on an integer grid: 10 fresh nets (two of each degree) and 10
repeats of an earlier net, translated, mirrored, or both. Routing here is
closed-form or table-lookup cheap, so the client codec, socket, daemon
dispatch, pool IPC and the per-worker LRU dominate.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from harness import (
    HostSpeed,
    Pass,
    Tracer,
    child_pids,
    log,
    median,
    normalized_hv,
    objective_pairs,
    proc_peak_rss_mb,
    run_blocks,
    snap_to_grid,
    span_of,
)

from repro.core.pareto_dw import pareto_dw
from repro.eval.benchmarks import synth_net
from repro.geometry.net import Net
from repro.serve import client as client_module
from repro.serve.client import ServeClient
from repro.serve.pool import WorkerSpec

NETS_PER_REQUEST = 20
FRESH_DEGREES = (2, 3, 4, 5, 6)
REPEATS_PER_REQUEST = NETS_PER_REQUEST - 2 * len(FRESH_DEGREES)
SPAN = 1000
#: Requests whose fronts are compared with an in-process engine.
CHECKED_REQUESTS = 60
#: Nets compared with the ``kernels=False`` DW oracle (degree >= 4).
ORACLE_NETS = 10
STARTUP_TIMEOUT_S = 60.0
#: Peak RSS of each daemon is read after this many of its requests: the
#: worker caches grow with the traffic served, so a fixed point keeps a
#: faster daemon (which serves more requests in a run) from reading as a
#: bigger one. ``peak_rss_mb`` is the median over a pass's daemons.
RSS_AT_REQUEST = 200


def _fresh_net(degree: int, rng: random.Random, name: str) -> Net:
    """A synth_net-shaped net snapped to the integer grid.

    Integer pins keep translated and mirrored repeats exact, so every
    tier's front compares ``==`` with a fresh solve of the same net.
    """
    while True:
        net = snap_to_grid(Net(pins=synth_net(degree, rng).pins, name=name))
        if net is not None:
            return net


def _variant(net: Net, rng: random.Random, name: str) -> Tuple[Net, str]:
    """A translated and/or mirrored copy of ``net`` (exact on the grid)."""
    kind = rng.choice(("translate", "mirror", "mirror+translate"))
    pins = [(p.x, p.y) for p in net.pins]
    if "mirror" in kind:
        axis = rng.choice(("x", "y", "diagonal"))
        if axis == "x":
            pins = [(SPAN - x, y) for x, y in pins]
        elif axis == "y":
            pins = [(x, SPAN - y) for x, y in pins]
        else:
            pins = [(y, x) for x, y in pins]
    if "translate" in kind:
        dx = float(rng.randint(-SPAN // 2, SPAN // 2))
        dy = float(rng.randint(-SPAN // 2, SPAN // 2))
        pins = [(x + dx, y + dy) for x, y in pins]
    return Net(pins=pins, name=name), kind


def blocks(seed: int) -> Iterator[List[Tuple[Net, str]]]:
    """Endless deterministic stream of requests: ``[(net, origin), ...]``.

    ``origin`` is ``"fresh"`` or the repeat transform applied.
    """
    rng = random.Random(seed)
    history: List[Net] = []
    index = 0
    while True:
        fresh = []
        for degree in FRESH_DEGREES * 2:
            fresh.append((_fresh_net(degree, rng, f"s{index}"), "fresh"))
            index += 1
        history.extend(net for net, _ in fresh)
        repeats = []
        for _ in range(REPEATS_PER_REQUEST):
            repeats.append(_variant(rng.choice(history), rng, f"s{index}"))
            index += 1
        request = fresh + repeats
        rng.shuffle(request)
        yield request


class Daemon:
    """One ``repro serve`` subprocess on a Unix socket in the cwd."""

    def __init__(self) -> None:
        self.socket = f".perfbench-{os.getpid()}.sock"
        if os.path.exists(self.socket):
            os.unlink(self.socket)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--socket", self.socket],
            stdout=subprocess.DEVNULL,
        )
        self.client: Optional[ServeClient] = None

    def wait_ready(self) -> ServeClient:
        """Block until a ping is answered with the worker pool ready."""
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with code {self.proc.returncode}")
            if os.path.exists(self.socket):
                try:
                    if self.client is None:
                        self.client = ServeClient(socket_path=self.socket)
                    if self.client.ping() and self.client.stats()["ready"]:
                        return self.client
                except OSError:
                    self.client = None
            time.sleep(0.002)
        raise RuntimeError("daemon did not become ready")

    def peak_rss_mb(self) -> float:
        """Peak RSS of the daemon plus its pool workers."""
        pids = [self.proc.pid] + child_pids(self.proc.pid)
        return sum(proc_peak_rss_mb(pid) for pid in pids)

    def stop(self) -> None:
        """Shut the daemon down and wait for it; kill it and its workers if stuck."""
        try:
            if self.client is not None:
                self.client.shutdown()
                self.client.close()
            self.proc.wait(timeout=30)
        except BaseException:
            if self.proc.poll() is None:
                for pid in child_pids(self.proc.pid):
                    os.kill(pid, signal.SIGKILL)
                self.proc.kill()
            self.proc.wait()
            raise
        finally:
            if os.path.exists(self.socket):
                os.unlink(self.socket)


def _start(out: Pass) -> Tuple[Daemon, float]:
    out.host.probe()
    t0 = time.perf_counter()
    daemon = Daemon()
    try:
        daemon.wait_ready()
    except BaseException:
        daemon.stop()
        raise
    return daemon, out.scaled(time.perf_counter() - t0)


def install_client_layers(tracer: Tracer, captured: List[Tuple[str, float]]) -> None:
    """Patch the client-side codec; capture each result's tier and seconds.

    ``result_front`` receives every decoded result payload, which carries
    the serving tier and the worker-measured wall time of its net.
    """

    def request_size(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> int:
        return len(result) if args and args[0].get("op") == "route" else -1

    def result_tier(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> None:
        captured.append((str(args[0].get("served")), float(args[0].get("seconds", 0.0))))

    tracer.patch(client_module, "encode_message", "serve.client_codec", tag=request_size)
    tracer.patch(client_module, "decode_message", "serve.client_codec")
    tracer.patch(client_module, "net_to_payload", "serve.client_codec")
    tracer.patch(client_module, "result_front", "serve.client_codec", tag=result_tier)


def run(
    seed: int,
    seconds: float,
    setups: int,
    max_blocks: Optional[int] = None,
    tracer: Optional[Tracer] = None,
) -> Pass:
    """One measured pass; ``tracer`` (when given) records client spans.

    The pass is split into ``setups`` segments, each on a daemon of its
    own serving a stream of its own for an equal share of ``seconds``
    (``max_blocks`` requests, when given). How the kernel places a new
    daemon's processes on the cores holds for that daemon's life and
    moves its latencies by up to a third, so a pass uses several daemons,
    each a segment of its own whose timings the reported medians are
    taken over (:meth:`harness.Pass.mark_segment`); each start is one
    ``setup_s`` sample.
    """
    out = Pass(host=HostSpeed(cpus=2))
    answered: List[Tuple[List[Tuple[Net, str]], List[Any]]] = []
    captured: List[Tuple[str, float]] = []
    #: Unscaled request wall time, to split against worker-measured time.
    request_s = [0.0]
    rss: List[float] = []
    served = {"served_memory": 0, "served_store": 0, "served_routed": 0}
    queue_depth_max = 0
    streams = random.Random(seed)
    for _ in range(setups):
        daemon, setup = _start(out)
        out.setup_s.append(setup)
        try:
            client = daemon.client
            assert client is not None
            first = len(answered)

            def send(request: List[Tuple[Net, str]]) -> None:
                out.host.maybe_probe()
                out.items += 1
                nets = [net for net, _ in request]
                try:
                    t0 = time.perf_counter()
                    with span_of(tracer, "serve.request"):
                        results = client.route(nets)
                    elapsed = time.perf_counter() - t0
                    request_s[0] += elapsed
                    dt = out.scaled(elapsed)
                except Exception as exc:  # counted, reported, and the run goes on
                    out.fail(f"request {out.items}: {type(exc).__name__}: {exc}")
                    return
                out.busy_s += dt
                out.latencies_ms.append(dt * 1e3)
                out.work += len(nets)
                answered.append((request, results))
                if len(answered) - first == RSS_AT_REQUEST:
                    rss.append(daemon.peak_rss_mb())

            if tracer is not None:
                install_client_layers(tracer, captured)
            out.mark_segment()
            try:
                out.blocks += run_blocks(
                    blocks(streams.getrandbits(32)), send, seconds / setups, max_blocks
                )
            finally:
                if tracer is not None:
                    tracer.uninstall()
            stats = client.stats()
            for key in served:
                served[key] += int(stats[key])
            queue_depth_max = max(queue_depth_max, int(stats["queue_depth_max"]))
            if len(answered) - first < RSS_AT_REQUEST:
                rss.append(daemon.peak_rss_mb())
        finally:
            daemon.stop()
    out.peak_rss_mb = median(rss)

    log(f"serve_repeat: checking {len(answered)} responses")
    # A request fails once, however many of its nets are wrong.
    problems: Dict[int, str] = {}
    for r, (request, results) in enumerate(answered):
        for (net, _origin), (name, front) in zip(request, results):
            if name != net.name or not front:
                problems.setdefault(r, f"{net.name}: answered as {name!r} with {len(front)} points")
                continue
            pairs = objective_pairs(front)
            out.add_quality(net, pairs)
            out.hv.append(normalized_hv(net, pairs))
    rng = random.Random(seed + 1)
    reference = WorkerSpec().build()
    for r in rng.sample(range(len(answered)), min(CHECKED_REQUESTS, len(answered))):
        request, results = answered[r]
        for (net, _origin), (_name, front) in zip(request, results):
            if objective_pairs(front) != objective_pairs(reference.route(net)):
                problems.setdefault(r, f"{net.name}: daemon front differs from the in-process engine")
    exact = [
        (r, net, front)
        for r, (request, results) in enumerate(answered)
        for (net, _o), (_n, front) in zip(request, results)
        if net.degree >= 4
    ]
    for r, net, front in rng.sample(exact, min(ORACLE_NETS, len(exact))):
        if objective_pairs(front) != objective_pairs(pareto_dw(net, kernels=False)):
            problems.setdefault(r, f"{net.name}: daemon front differs from the kernels=False DW oracle")
    for message in problems.values():
        out.fail(message)

    sent = sum(len(request) for request, _ in answered)
    repeats = sum(1 for request, _ in answered for _net, o in request if o != "fresh")
    memory = served["served_memory"]
    out.properties = {
        "repeat_share": repeats / max(1, sent),
        "memory_share": memory / max(1, sent),
        "store_share": served["served_store"] / max(1, sent),
        "routed_share": served["served_routed"] / max(1, sent),
        "nets_sent": sent,
    }
    out.layers = {"core.cache.hit_ratio": memory / max(1, repeats)}
    if tracer is not None:
        totals = tracer.totals()
        requests = max(1, len(answered))
        worker_s = sum(s for _tier, s in captured)
        by_tier: Dict[str, List[float]] = {}
        for tier, s in captured:
            by_tier.setdefault(tier, []).append(s)
        sizes = [s[4] for s in tracer.spans if s[0] == "serve.client_codec" and isinstance(s[4], int) and s[4] >= 0]
        request_ms = request_s[0] * 1e3 / requests
        worker_ms = worker_s * 1e3 / requests
        outside_ms = request_ms - worker_ms
        out.layers.update({
            "serve.client_codec_ms": totals.get("serve.client_codec", (0, 0.0))[1] * 1e3 / requests,
            "serve.worker_ms": worker_ms,
            "serve.outside_router_ms": outside_ms,
            "serve.outside_router_share": outside_ms / request_ms,
            "serve.queue_depth_max": float(queue_depth_max),
            "serve.request_bytes": sum(sizes) / max(1, len(sizes)),
        })
        for tier in ("memory", "store", "routed"):
            values = by_tier.get(tier, [])
            out.layers[f"serve.worker_ms.{tier}"] = 1e3 * sum(values) / len(values) if values else 0.0
    return out
