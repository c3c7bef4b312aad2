"""Adapters exposing every algorithm in the library as a :class:`Router`.

Importing this module populates the registry (``repro.engine`` does so on
import). :class:`PatLabor` already satisfies the protocol natively; the
function-style baselines are wrapped in :class:`FunctionRouter`, which
pins down the name/capabilities metadata the middleware needs.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from ..core.pareto import Solution
from ..core.patlabor import DEFAULT_LAMBDA, PatLabor, PatLaborConfig
from ..geometry.net import Net
from ..routing.tree import RoutingTree
from .protocol import Router, RouterCapabilities
from .registry import register_router

RouteFn = Callable[[Net], List[Solution]]
TreeFn = Callable[[Net], RoutingTree]


class FunctionRouter:
    """A :class:`Router` over a plain ``net -> solutions`` function."""

    def __init__(
        self, name: str, fn: RouteFn, capabilities: RouterCapabilities
    ) -> None:
        self.name = name
        self.capabilities = capabilities
        self._fn = fn

    def route(self, net: Net) -> List[Solution]:
        """Delegate to the wrapped function."""
        return self._fn(net)

    def __repr__(self) -> str:
        return f"FunctionRouter({self.name!r})"


def single_tree_router(
    name: str, fn: TreeFn, capabilities: RouterCapabilities
) -> Router:
    """Wrap a one-tree constructor as a singleton-front :class:`Router`."""

    def route(net: Net) -> List[Solution]:
        tree = fn(net)
        w, d = tree.objective()
        return [(w, d, tree)]

    return FunctionRouter(name, route, capabilities)


@register_router(
    "patlabor",
    display_name="PatLabor",
    summary="the paper's practical Pareto router (exact to lambda, "
    "local search above)",
)
def make_patlabor(
    config: Optional[PatLaborConfig] = None,
    lut: Any = None,
    policy: Any = None,
) -> Router:
    """PatLabor with an optional lookup table / config / policy."""
    return PatLabor(lut=lut, config=config, policy=policy)


@register_router(
    "pareto-dw",
    display_name="ParetoDW",
    summary="exact Pareto-frontier Dreyfus-Wagner DP (small nets only)",
)
def make_pareto_dw(max_degree: Optional[int] = None) -> Router:
    """The exact DP, degree-capped (default cap: the module's ceiling)."""
    from ..core.pareto_dw import DEFAULT_MAX_DEGREE, pareto_dw

    limit = max_degree if max_degree is not None else DEFAULT_MAX_DEGREE

    def route(net: Net) -> List[Solution]:
        return pareto_dw(net, max_degree=limit)

    return FunctionRouter(
        "pareto-dw",
        route,
        RouterCapabilities(exact_up_to=limit, max_degree=limit),
    )


@register_router(
    "pareto-ks",
    display_name="ParetoKS",
    summary="divide-and-conquer Pareto approximation (Kalpakis-Sherman)",
)
def make_pareto_ks(base_size: int = 9, max_front: int = 32) -> Router:
    """Pareto-KS with configurable base-case size and front cap."""
    from ..core.pareto_ks import pareto_ks

    def route(net: Net) -> List[Solution]:
        return pareto_ks(net, base_size=base_size, max_front=max_front)

    return FunctionRouter(
        "pareto-ks", route, RouterCapabilities(exact_up_to=base_size)
    )


@register_router(
    "salt",
    display_name="SALT",
    summary="shallow-light trees over an epsilon sweep (Chen & Young)",
)
def make_salt() -> Router:
    """The SALT epsilon-sweep baseline."""
    from ..baselines.salt import salt_sweep

    return FunctionRouter("salt", salt_sweep, RouterCapabilities())


@register_router(
    "ysd",
    display_name="YSD",
    summary="learned weighted-sum substitute (convex-hull points only)",
)
def make_ysd() -> Router:
    """The YSD weighted-sum baseline substitute."""
    from ..baselines.ysd import ysd

    return FunctionRouter("ysd", ysd, RouterCapabilities())


@register_router(
    "pd",
    display_name="PD",
    summary="Prim-Dijkstra alpha sweep with PD-II refinement",
)
def make_pd() -> Router:
    """The PD(-II) alpha-sweep baseline."""
    from ..baselines.prim_dijkstra import pd_sweep

    return FunctionRouter("pd", pd_sweep, RouterCapabilities())


@register_router(
    "rsmt",
    display_name="RSMT",
    summary="minimum-wirelength Steiner tree (FLUTE substitute), "
    "singleton front",
)
def make_rsmt() -> Router:
    """The RSMT engine as a one-solution router."""
    from ..baselines.rsmt import rsmt

    return single_tree_router(
        "rsmt", rsmt,
        RouterCapabilities(pareto=False, frontier_selection=False),
    )


@register_router(
    "rsma",
    display_name="RSMA",
    summary="Cordova-Lee shortest-path arborescence, singleton front",
)
def make_rsma() -> Router:
    """The RSMA heuristic as a one-solution router."""
    from ..baselines.rsma import rsma

    return single_tree_router(
        "rsma", rsma,
        RouterCapabilities(pareto=False, frontier_selection=False),
    )


#: Re-exported for keeping adapter defaults in sync with PatLabor's lambda.
__all__ = [
    "FunctionRouter",
    "single_tree_router",
    "make_patlabor",
    "make_pareto_dw",
    "make_pareto_ks",
    "make_salt",
    "make_ysd",
    "make_pd",
    "make_rsmt",
    "make_rsma",
    "DEFAULT_LAMBDA",
]
