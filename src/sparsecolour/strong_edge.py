"""Strong edge colouring via the square of the line graph.

A strong edge colouring of a host graph H is a vertex colouring of L²(H),
the graph on E(H) joining edges at distance at most two.  The pipeline peels
L²(H) down to its dense core (every survivor keeps at least (2 - eta) D²
neighbours inside the core, D the host max degree), colours the core with the
iterative engine when the measured sparsity admits a feasible schedule, and
extends to the peeled edges greedily in reverse peel order, which by
construction never needs a colour index past the peel threshold.

Also provides the strong-neighbourhood geometry of a host edge (the X / Y
vertex sets, the scaled quantities alpha, beta, gamma, the 4-cycle count
between X and Y) and the associated edge-density bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional, Union

from .graph import Graph, GraphError, first_fit, local_sparsity

Threshold = Union[int, float, Fraction]


def c5_blowup(k: int) -> Graph:
    """Five groups of k independent vertices, adjacent groups fully joined.

    Max degree 2k; the square of its line graph is a clique on 5k² vertices,
    the extremal example for strong edge colouring.
    """
    if k < 1:
        raise GraphError("blow-up factor must be at least 1")
    edges = []
    for group in range(5):
        nxt = (group + 1) % 5
        for i in range(k):
            for j in range(k):
                edges.append((group * k + i, nxt * k + j))
    return Graph.from_edges(5 * k, edges)


def line_graph_square(h: Graph) -> tuple[Graph, list[tuple[int, int]]]:
    """The graph on E(h) joining edges at distance <= 2, plus the edge index.

    Output vertex i is host edge edge_index[i]; two edge-vertices are
    adjacent iff the host edges share an endpoint or are joined by an edge.
    """
    edge_index = list(h.edges())
    if not edge_index:
        raise GraphError("line graph square needs at least one edge")
    incident: list[list[int]] = [[] for _ in range(h.n)]
    for i, (u, v) in enumerate(edge_index):
        incident[u].append(i)
        incident[v].append(i)
    adjacency: list[set[int]] = [set() for _ in edge_index]
    for i, (u, v) in enumerate(edge_index):
        reach = set()
        for x in (u, v):
            for w in h.neighbours(x):
                reach.update(incident[w])
        reach.update(incident[u])
        reach.update(incident[v])
        reach.discard(i)
        adjacency[i] = reach
    return Graph([sorted(s) for s in adjacency]), edge_index


def strong_neighbourhood(h: Graph, e: tuple[int, int]) -> set[tuple[int, int]]:
    """Host edges within distance two of e (excluding e), as canonical pairs."""
    u, v = e
    near = set(h.neighbours(u)) | set(h.neighbours(v))
    result = set()
    for x in near:
        for w in h.neighbours(x):
            f = (min(x, w), max(x, w))
            if f != (min(u, v), max(u, v)):
                result.add(f)
    return result


@dataclass(frozen=True)
class StrongNeighbourhoodProfile:
    """Geometry of the strong neighbourhood of a host edge uv.

    X is N(u) | N(v) minus the endpoints, Y the second neighbourhood N(X)
    beyond X and the endpoints.  alpha, beta and gamma scale the common
    neighbourhood size, the edges inside X, and sum d_X(y)(D - d_X(y)) over Y
    by D, D² and D³ respectively.  strong_degree is the number of edges at
    distance <= 2, c4 the number of 4-cycles alternating between X and Y
    (each unordered cycle once).
    """

    edge: tuple[int, int]
    max_degree: int
    x_vertices: frozenset[int]
    y_vertices: frozenset[int]
    alpha: float
    beta: float
    gamma: float
    strong_degree: int
    c4: int


def strong_profile(h: Graph, e: tuple[int, int]) -> StrongNeighbourhoodProfile:
    u, v = e
    if not h.has_edge(u, v):
        raise GraphError(f"({u},{v}) is not an edge")
    d = h.max_degree()
    x = (h.neighbour_set(u) | h.neighbour_set(v)) - {u, v}
    y = set()
    for w in x:
        y.update(h.neighbours(w))
    y -= x | {u, v}
    edges_in_x = 0
    for w in x:
        edges_in_x += len(h.neighbour_set(w) & x)
    edges_in_x //= 2
    gamma_sum = 0
    for w in y:
        dx = len(h.neighbour_set(w) & x)
        gamma_sum += dx * (d - dx)
    c4 = 0
    x_sorted = sorted(x)
    for i, x1 in enumerate(x_sorted):
        for x2 in x_sorted[i + 1 :]:
            shared = len(h.neighbour_set(x1) & h.neighbour_set(x2) & y)
            c4 += comb(shared, 2)
    return StrongNeighbourhoodProfile(
        edge=(min(u, v), max(u, v)),
        max_degree=d,
        x_vertices=frozenset(x),
        y_vertices=frozenset(y),
        alpha=len(h.neighbour_set(u) & h.neighbour_set(v)) / d,
        beta=edges_in_x / d**2,
        gamma=gamma_sum / d**3,
        strong_degree=len(strong_neighbourhood(h, e)),
        c4=c4,
    )


def strong_degree_bound(p: StrongNeighbourhoodProfile) -> float:
    """(2 - alpha - beta) D² - 2D, an upper bound on the strong degree of a
    regular host."""
    d = p.max_degree
    return (2 - p.alpha - p.beta) * d * d - 2 * d


def c4_lower_bound(p: StrongNeighbourhoodProfile) -> float:
    """Lower bound on the X-Y 4-cycle count of a regular host:
    ((2-a-2b-g)² / (2(2-a)²) D⁴ - (7 - g/2) D³) / 2."""
    d = p.max_degree
    lead = (2 - p.alpha - 2 * p.beta - p.gamma) ** 2 / (2 * (2 - p.alpha) ** 2)
    return 0.5 * (lead * d**4 - (7 - p.gamma / 2) * d**3)


def strong_neighbourhood_edge_bound(
    p: StrongNeighbourhoodProfile,
    max_degree: Optional[int] = None,
    improved: bool = True,
) -> float:
    """Upper bound on the edges induced by the strong neighbourhood
    (regular host):

        (2 - a - b - g/2) D⁴ - 2 C4 [- g²/(2(2-a-b)) D⁴] + (g/2 - 2) D³

    with the bracketed strengthening included unless improved=False.
    """
    d = max_degree if max_degree is not None else p.max_degree
    if p.alpha + p.beta >= 2:
        raise GraphError("alpha + beta must stay below 2 for a simple host")
    bound = (
        (2 - p.alpha - p.beta - p.gamma / 2) * d**4
        - 2 * p.c4
        + (p.gamma / 2 - 2) * d**3
    )
    if improved:
        bound -= p.gamma**2 / (2 * (2 - p.alpha - p.beta)) * d**4
    return bound


# -- core extraction -----------------------------------------------------------


def f_core(g: Graph, threshold: Threshold) -> frozenset[int]:
    """Maximum vertex set whose induced subgraph has min degree >= threshold.

    Computed by iterated peeling; vertices exactly at the threshold stay.
    Exact (Fraction) thresholds avoid float boundary flapping.
    """
    order, survivors = f_core_with_order(g, threshold)
    return survivors


def f_core_with_order(
    g: Graph, threshold: Threshold
) -> tuple[list[int], frozenset[int]]:
    """As f_core, also returning the removal order of the peeled vertices."""
    alive = set(range(g.n))
    degree = {v: g.degree(v) for v in alive}
    removal_order: list[int] = []
    queue = sorted(v for v in alive if degree[v] < threshold)
    pending = set(queue)
    while queue:
        nxt: list[int] = []
        for v in queue:
            alive.discard(v)
            removal_order.append(v)
            for w in g.neighbours(v):
                if w in alive and w not in pending:
                    degree[w] -= 1
                    if degree[w] < threshold:
                        nxt.append(w)
                        pending.add(w)
                elif w in alive:
                    degree[w] -= 1
        queue = sorted(nxt)
    return removal_order, frozenset(alive)


@dataclass(frozen=True)
class CoreDensityReport:
    """Comparison of core-neighbourhood edge counts against the closed bound.

    For every core edge e the exact number of edges induced by the core part
    of its strong neighbourhood is compared with
    (31/6 - 128/(3(10-3 eta)) + 4 eta - eta²) D⁴; `max_ratio` is the largest
    measured/bound ratio (None when the core is empty: a vacuous pass).
    """

    eta: float
    threshold: float
    core_size: int
    bound: float
    max_ratio: Optional[float]
    passed: bool


def f_core_density_check(h: Graph, eta: float) -> CoreDensityReport:
    """Extract the core at threshold (2 - eta) D² and check its density bound."""
    if not 0 <= eta <= 0.3:
        raise GraphError(f"eta={eta} outside [0, 0.3]")
    if not h.is_regular():
        raise GraphError("density check requires a regular host")
    d = h.max_degree()
    square, edge_index = line_graph_square(h)
    threshold = Fraction(2) - Fraction(str(eta)) if isinstance(eta, float) else 2 - eta
    threshold = threshold * d * d
    core = f_core(square, threshold)
    bound = (31 / 6 - 128 / (3 * (10 - 3 * eta)) + 4 * eta - eta * eta) * d**4
    max_ratio = None
    passed = True
    for e in core:
        core_nbrs = core & square.neighbour_set(e)
        count = 0
        for w in core_nbrs:
            count += len(square.neighbour_set(w) & core_nbrs)
        count //= 2
        ratio = count / bound if bound > 0 else float("inf")
        if max_ratio is None or ratio > max_ratio:
            max_ratio = ratio
        if count > bound:
            passed = False
    return CoreDensityReport(
        eta=eta,
        threshold=float(threshold),
        core_size=len(core),
        bound=bound,
        max_ratio=max_ratio,
        passed=passed,
    )


# -- the pipeline ----------------------------------------------------------------


@dataclass(frozen=True)
class StrongColouringReport:
    """Result of the strong edge colouring pipeline.

    `colours[i]` is the colour of host edge `edge_index[i]`; the colouring is
    re-validated by a direct distance-2 scan of the host.  `engine_used`
    records whether the core was coloured by the iterative engine;
    `engine_warning` is set when the engine was attempted but fell back to
    greedy.
    """

    colours: dict[int, int]
    edge_index: list[tuple[int, int]]
    num_colours: int
    ratio_to_delta_sq: float
    f_core_size: int
    engine_used: bool
    engine_warning: Optional[str]
    valid: bool


def _validate_strong_colouring(
    h: Graph, edge_index: list[tuple[int, int]], colours: dict[int, int]
) -> bool:
    # Independent scan: edges sharing an endpoint or joined by an edge must
    # differ, checked straight from the host adjacency.
    id_of = {e: i for i, e in enumerate(edge_index)}
    for i, e in enumerate(edge_index):
        for f in strong_neighbourhood(h, e):
            j = id_of[f]
            if colours[i] == colours[j]:
                return False
    return True


def strong_edge_colour(
    h: Graph, eta: float = 0.164, seed: int = 0, max_restarts: int = 200
) -> StrongColouringReport:
    """Colour the host's edges so edges at distance <= 2 differ.

    Peels the line graph square to its (2 - eta) D² core, colours the core
    (iterative engine when a feasible schedule exists, greedy otherwise) and
    extends through the peel in reverse order with first-fit.
    """
    if not 0 <= eta <= 0.3:
        raise GraphError(f"eta={eta} outside [0, 0.3]")
    if h.m == 0:
        raise GraphError("host graph has no edges")
    d = h.max_degree()
    square, edge_index = line_graph_square(h)
    threshold = (Fraction(2) - Fraction(str(eta))) * d * d
    removal_order, core = f_core_with_order(square, threshold)

    colours: dict[int, int] = {}
    engine_used = False
    warning: Optional[str] = None
    if core:
        core_sorted = sorted(core)
        core_graph, core_ids = square.induced(core_sorted)
        core_colours, engine_used, warning = _colour_core(
            core_graph, seed, max_restarts
        )
        colours.update({core_ids[v]: col for v, col in core_colours.items()})

    # Reverse-peel extension: when a vertex returns, its coloured neighbours
    # are exactly the survivors present at its removal, fewer than the
    # threshold, so first-fit stays below threshold + 1 colours.
    first_fit(square, reversed(removal_order), colours)

    num = len(set(colours.values()))
    valid = _validate_strong_colouring(h, edge_index, colours)
    assert valid, "pipeline produced an invalid strong edge colouring"
    return StrongColouringReport(
        colours=colours,
        edge_index=edge_index,
        num_colours=num,
        ratio_to_delta_sq=num / d**2,
        f_core_size=len(core),
        engine_used=engine_used,
        engine_warning=warning,
        valid=valid,
    )


def _colour_core(
    core_graph: Graph, seed: int, max_restarts: int
) -> tuple[dict[int, int], bool, Optional[str]]:
    """Colour the core with the iterative engine if feasible, else greedily."""
    from .bounds import approx_eps
    from .correspondence import uniform_lists
    from .ncp import ScheduleError, build_schedule, default_beta, iterative_colour

    delta_core = None
    if core_graph.n and core_graph.max_degree() >= 2:
        delta_core = local_sparsity(core_graph).delta
    max_deg = core_graph.max_degree()
    warning = None
    if delta_core is not None and delta_core > 0 and max_deg >= 2:
        eps_target = approx_eps(min(delta_core, 0.9), "ours")
        k = math.ceil((1 - eps_target) * (max_deg + 1))
        if k >= 1 and k <= max_deg:
            eps_prime = 1 - k / (max_deg + 1)
            delta_prime = 0.95 * delta_core
            try:
                beta = default_beta(eps_prime, delta_prime)
                schedule = build_schedule(
                    eps_prime, delta_core, beta, delta_prime, max_deg + 1
                )
                assignment = uniform_lists(core_graph, k)
                result = iterative_colour(
                    core_graph, assignment, schedule, seed, max_restarts
                )
                if result.ok:
                    return dict(result.colouring), True, None
                warning = f"engine failed ({result.failure_reason}); greedy fallback"
            except ScheduleError as exc:
                warning = f"no feasible schedule ({exc}); greedy fallback"
    return first_fit(core_graph, range(core_graph.n)), False, warning
