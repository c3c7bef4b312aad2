"""Pareto-KS: divide-and-conquer Pareto approximation (paper, Section IV-B).

Extends the Kalpakis–Sherman partitioning heuristic to the bicriterion
setting. The plane is split at a median pin (alternating x/y axes); both
halves keep the split pin so their trees share a node and union into a
spanning tree. Base cases are solved exactly — by Pareto-DW, or by lookup
table when one is supplied (paper, Remark 1). Combining two sub-frontiers
forms all ``|S1| x |S2|`` tree unions, evaluates them, and Pareto-filters
— the ``S1 ⊕ S2`` of Theorem 4.

Every sub-instance is rooted at its pin closest to the global source, per
the paper's step 3; final objectives are always measured from the true
source on the assembled tree, so reported values are exact even though the
frontier itself is approximate.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from ..geometry.net import Net
from ..geometry.point import Point, l1
from ..obs import counter_add, emit_event, events_enabled, gauge_max, span
from ..routing.tree import RoutingTree
from .frontier import pareto_filter_sorted
from .pareto import Solution, clean_front
from .pareto_dw import pareto_dw

#: Base-case routing oracle: maps a small net to Pareto solutions whose
#: payloads are RoutingTree instances.
BaseSolver = Callable[[Net], List[Solution]]

PointEdges = List[Tuple[Point, Point]]


def _tree_edges(tree: RoutingTree) -> PointEdges:
    return [
        (tree.points[i], tree.points[p])
        for i, p in tree.edges()
        if tree.points[i] != tree.points[p]
    ]


def _evaluate(net: Net, edges: PointEdges) -> Solution:
    tree = RoutingTree.from_edges(net, edges)
    w, d = tree.objective()
    return (w, d, tree)


def pareto_ks(
    net: Net,
    *,
    base_size: int = 9,
    base_solver: Optional[BaseSolver] = None,
    max_front: int = 32,
) -> List[Solution]:
    """Approximate the Pareto frontier of ``net`` by divide and conquer.

    Parameters
    ----------
    base_size:
        Sub-instances at or below this pin count are solved exactly
        (paper: ``log n`` in theory, ``λ = 9`` with lookup tables).
    base_solver:
        Exact small-net oracle; defaults to :func:`pareto_dw`.
    max_front:
        Intermediate fronts are truncated to this many solutions (evenly
        spread by wirelength) to bound the ``|S|^2`` combination cost.
    """
    solver: BaseSolver = base_solver or pareto_dw
    source = net.source

    def solve(points: List[Point], axis: int) -> List[Solution]:
        # Root at the pin closest to the global source (== source if present).
        root_idx = min(range(len(points)), key=lambda i: l1(points[i], source))
        sub = Net.from_points(
            points[root_idx],
            [p for i, p in enumerate(points) if i != root_idx],
            name=f"{net.name}/ks{len(points)}",
        )
        if len(points) <= base_size:
            counter_add("ks.base_cases")
            return solver(sub)

        ordered = sorted(points, key=lambda p: (p[axis], p[1 - axis]))
        k = len(ordered) // 2
        left = ordered[: k + 1]
        right = ordered[k:]
        s1 = _truncate(solve(left, 1 - axis), max_front)
        s2 = _truncate(solve(right, 1 - axis), max_front)

        counter_add("ks.combinations", len(s1) * len(s2))
        combined: List[Solution] = []
        for _, _, t1 in s1:
            e1 = _tree_edges(t1)
            for _, _, t2 in s2:
                combined.append(_evaluate(sub, e1 + _tree_edges(t2)))
        return pareto_filter_sorted(combined)

    emitting = events_enabled()
    if emitting:
        import time as _time

        t0 = _time.perf_counter()
    with span("ks.solve"):
        solutions = solve(list(net.pins), axis=0)
        # Re-root every tree on the true net and measure from the true source.
        final = [
            _evaluate(net, _tree_edges(tree)) for _, _, tree in solutions
        ]
        front = clean_front(final)
    gauge_max("ks.front_size", len(front))
    if emitting:
        emit_event(
            "ks_solve",
            net=net.name or f"net_{id(net):x}",
            degree=net.degree,
            front_size=len(front),
            wall_s=_time.perf_counter() - t0,
        )
    return front


def _truncate(front: Sequence[Solution], limit: int) -> List[Solution]:
    """Keep at most ``limit`` solutions, evenly spaced along the front."""
    front = list(front)
    if len(front) <= limit:
        return front
    step = (len(front) - 1) / (limit - 1)
    picked = [front[round(i * step)] for i in range(limit)]
    # Preserve the extremes exactly.
    picked[0] = front[0]
    picked[-1] = front[-1]
    # A subsequence of a sorted front is sorted: the linear fast path hits.
    return pareto_filter_sorted(picked)
