"""Strong edge colouring via the square of the line graph.

A strong edge colouring of a host graph H is a vertex colouring of L²(H),
the graph on E(H) joining edges at distance at most two.  The pipeline peels
L²(H) down to its dense core (every survivor keeps at least (2 - eta) D²
neighbours inside the core, D the host max degree), colours the core with the
iterative engine when the measured sparsity admits a feasible schedule, and
extends to the peeled edges greedily in reverse peel order, which by
construction never needs a colour index past the peel threshold.  L²(H) is
never built whole.  The first peel wave is certified from host degree sums:
an edge whose bound s(u) + s(v) - deg(u) - deg(v) (s(x) the degree sum over
N(x)) is below the threshold is peeled without its row being read.  Other
rows come on demand from one set per host vertex (at most sum deg² entries),
built only when the first such row or exact degree is asked for; the size
cap on those sets is checked up front all the same.  Only a non-empty core
is built as a graph, and the extension reads one colour bitmask per host
vertex.

Also provides the strong-neighbourhood geometry of a host edge (the X / Y
vertex sets, the scaled quantities alpha, beta, gamma, the 4-cycle count
between X and Y) and the associated edge-density bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import comb
from typing import Optional, Union

from .bounds import STRONG_EDGE_ETA, approx_eps
from .correspondence import AssignmentError, uniform_lists
from .graph import (
    Graph,
    GraphError,
    first_fit,
    local_sparsity,
    lowest_clear_bit,
    neighbourhood_edge_count,
)
from .ncp import MAX_RESTARTS, ScheduleError, build_schedule, iterative_colour

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


# Largest sum of deg(w)² over host vertices, a bound on the entries of the
# near-edge sets, for which they may be built.  Checked before any set is
# built, also on a host whose peel would build none, so that whether a host
# is refused depends on its size alone.  Measured with tracemalloc at 24 to
# 83 bytes per estimated entry (set slots and the shared edge-id ints; on
# K150, rr(600,12), G(400,0.03) and rr(2000,40)), so at the cap the sets
# take at most about 1 GB.
NEAR_SIZE_CAP = 12_000_000


def _near_edge_sets(h: Graph, edge_index: list[tuple[int, int]]) -> list[set[int]]:
    """near[x]: the ids of the host edges with an endpoint in N(x)."""
    incident: list[list[int]] = [[] for _ in range(h.n)]
    for i, (u, v) in enumerate(edge_index):
        incident[u].append(i)
        incident[v].append(i)
    return [set().union(*map(incident.__getitem__, h.neighbours(x))) for x in range(h.n)]


class _SquareRows:
    """The rows of L²(h), computed on demand from the host's near-edge sets.

    Vertex i is host edge edge_index[i].  The row of edge uv is
    near[u] | near[v] without uv itself; those include the edges at u and at
    v, since v is in N(u) and u in N(v).  The near sets hold at most
    sum deg(w)² entries, where L²(h) has up to m (2D² - 2D) adjacency
    entries; no row is kept.  The sets are built the first time a row or an
    exact degree is asked for, so a host whose edges are all certified by
    `degree_bounds` builds none; the constructor checks their size against
    `NEAR_SIZE_CAP` even so.  Offers the `n`, `degree_bounds`, `degree` and
    `neighbour_set` that `f_core_with_order` reads, and `induced` for a core.
    """

    def __init__(self, h: Graph):
        edge_index = list(h.edges())
        if not edge_index:
            raise GraphError("line graph square needs at least one edge")
        entries = sum(h.degree(w) ** 2 for w in range(h.n))
        if entries > NEAR_SIZE_CAP:
            raise GraphError(
                f"near-edge sets would hold about {entries} entries, above the "
                f"cap of {NEAR_SIZE_CAP} entries"
            )
        self._host = h
        self.edge_index = edge_index
        self.n = len(edge_index)

    @cached_property
    def _near(self) -> list[set[int]]:
        return _near_edge_sets(self._host, self.edge_index)

    def degree_bounds(self) -> list[int]:
        """An upper bound on each row's size, from host degree sums alone.

        With s(x) the sum of deg(w) over w in N(x), near[x] holds at most
        s(x) edges, and near[u] & near[v] holds every edge at u or at v,
        deg(u) + deg(v) - 1 of them.  So the row of uv has at most
        s(u) + s(v) - deg(u) - deg(v) entries: 2D² - 2D on a D-regular host
        of girth at least 5, where the bound is exact.
        """
        h = self._host
        deg = [h.degree(x) for x in range(h.n)]
        # s(x) - deg(x), so that the bound of uv is one sum.
        reach = [
            sum(map(deg.__getitem__, h.neighbours(x))) - deg[x] for x in range(h.n)
        ]
        return [reach[u] + reach[v] for u, v in self.edge_index]

    def degree(self, i: int) -> int:
        u, v = self.edge_index[i]
        near_u, near_v = self._near[u], self._near[v]
        return len(near_u) + len(near_v) - len(near_u & near_v) - 1

    def neighbour_set(self, i: int) -> set[int]:
        u, v = self.edge_index[i]
        row = self._near[u] | self._near[v]
        row.discard(i)
        return row

    def induced(self, vertices: list[int]) -> tuple[Graph, tuple[int, ...]]:
        """As `Graph.induced` on L²(h), building only the listed rows."""
        index = {old: new for new, old in enumerate(vertices)}
        adjacency = [
            sorted(index[w] for w in self.neighbour_set(old) & index.keys())
            for old in vertices
        ]
        return Graph(adjacency), tuple(vertices)


def line_graph_square(h: Graph) -> tuple[Graph, list[tuple[int, int]]]:
    """The graph on E(h) joining edges at distance <= 2, plus the edge index.

    Output vertex i is host edge edge_index[i]; two edge-vertices are
    adjacent iff the host edges share an endpoint or are joined by an edge.
    """
    rows = _SquareRows(h)
    # Rows are built as tuples, which Graph keeps without copying.
    adjacency = [tuple(sorted(rows.neighbour_set(i))) for i in range(rows.n)]
    return Graph(adjacency), rows.edge_index


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
    p: StrongNeighbourhoodProfile, improved: bool = True
) -> float:
    """Upper bound on the edges induced by the strong neighbourhood
    (regular host):

        (2 - a - b - g/2) D⁴ - 2 C4 [- g²/(2(2-a-b)) D⁴] + (g/2 - 2) D³

    with the bracketed strengthening included unless improved=False.
    """
    d = p.max_degree
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
    return f_core_with_order(g, threshold)[1]


def f_core_with_order(
    g: Graph, threshold: Threshold
) -> tuple[list[int], frozenset[int]]:
    """As f_core, also returning the removal order of the peeled vertices.

    Vertices are removed in waves, each wave in ascending id order: the first
    wave is every vertex below the threshold, and each later wave is the
    vertices the previous one pushed below it.  `g` needs only `n`, `degree`
    and `neighbour_set`; once every vertex is queued no row is read again.
    When `g` also offers `degree_bounds()`, upper bounds on the degrees (as
    `_SquareRows` does), a vertex whose bound is below the threshold joins
    the first wave without its degree being asked for.
    """
    # Degrees are integers, so comparing with the ceiling is exact and
    # avoids a Fraction comparison per vertex.
    threshold = math.ceil(threshold)
    degree_bounds = getattr(g, "degree_bounds", None)
    if degree_bounds is None:
        degree = [g.degree(v) for v in range(g.n)]
    else:
        # A vertex whose bound is below the threshold is in the first wave
        # whatever its degree, and a queued vertex's degree is never read.
        degree = [
            b if b < threshold else g.degree(v)
            for v, b in enumerate(degree_bounds())
        ]
    removal_order: list[int] = []
    queue = [v for v in range(g.n) if degree[v] < threshold]
    # Only vertices never queued can still be pushed below the threshold; a
    # queued vertex's degree is never read again, so it is not updated.
    unqueued = set(range(g.n)).difference(queue)
    while queue:
        nxt: list[int] = []
        for v in queue:
            removal_order.append(v)
            if not unqueued:
                continue
            for w in g.neighbour_set(v) & unqueued:
                degree[w] -= 1
                if degree[w] < threshold:
                    nxt.append(w)
                    unqueued.discard(w)
        queue = sorted(nxt)
    return removal_order, frozenset(unqueued)


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


def _peel(
    h: Graph, eta: float, host_error: Optional[str]
) -> tuple[_SquareRows, Fraction, list[int], frozenset[int]]:
    """The rows of L²(h), the exact threshold (2 - eta) D², the removal order
    and the core; eta is checked first, then `host_error` raised if set."""
    if not 0 <= eta <= 0.3:
        raise GraphError(f"eta={eta} outside [0, 0.3]")
    if host_error:
        raise GraphError(host_error)
    rows = _SquareRows(h)
    threshold = (Fraction(2) - Fraction(str(eta))) * h.max_degree() ** 2
    removal_order, core = f_core_with_order(rows, threshold)
    return rows, threshold, removal_order, core


def f_core_density_check(h: Graph, eta: float) -> CoreDensityReport:
    """Extract the core at threshold (2 - eta) D² and check its density bound."""
    rows, threshold, _, core = _peel(
        h, eta, None if h.is_regular() else "density check requires a regular host"
    )
    core_graph, _ = rows.induced(sorted(core))
    d = h.max_degree()
    # Positive for every eta in [0, 0.3].
    bound = (31 / 6 - 128 / (3 * (10 - 3 * eta)) + 4 * eta - eta * eta) * d**4
    counts = [neighbourhood_edge_count(core_graph, e) for e in range(core_graph.n)]
    peak = max(counts, default=None)
    return CoreDensityReport(
        eta=eta,
        threshold=float(threshold),
        core_size=core_graph.n,
        bound=bound,
        max_ratio=None if peak is None else peak / bound,
        passed=peak is None or peak <= bound,
    )


# -- the pipeline ----------------------------------------------------------------


@dataclass(frozen=True)
class StrongColouringReport:
    """Result of the strong edge colouring pipeline.

    `colours[i]` is the colour of host edge `edge_index[i]`; the colouring is
    re-validated from the host adjacency through per-vertex colour sets.
    `engine_used` records whether the core was coloured by the iterative
    engine; `engine_warning` is set when the engine was attempted but fell
    back to greedy.
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
    """True iff `colours[i]` colours host edge `edge_index[i]` strongly.

    `edge_index` must be exactly `h.edges()` and every position coloured.
    Checked from the host adjacency in O(m D), not through L²(h): a colouring
    is strong iff the colours at each vertex are distinct and, at each host
    edge xy, the colour sets at x and y have only the colour of xy in common
    (a second shared colour would sit on two edges joined by xy).
    """
    if edge_index != list(h.edges()):
        return False
    if colours.keys() != set(range(len(edge_index))):
        return False
    colours_at: list[set[int]] = [set() for _ in range(h.n)]
    for i, (u, v) in enumerate(edge_index):
        c = colours[i]
        if c in colours_at[u] or c in colours_at[v]:
            return False
        colours_at[u].add(c)
        colours_at[v].add(c)
    return all(len(colours_at[u] & colours_at[v]) == 1 for u, v in edge_index)


def strong_edge_colour(
    h: Graph, eta: float = STRONG_EDGE_ETA, seed: int = 0, max_restarts: int = MAX_RESTARTS
) -> StrongColouringReport:
    """Colour the host's edges so edges at distance <= 2 differ.

    Peels the line graph square to its (2 - eta) D² core, colours the core
    (iterative engine when a feasible schedule exists, greedy otherwise) and
    extends through the peel in reverse order with first-fit.
    """
    rows, _, removal_order, core = _peel(
        h, eta, "host graph has no edges" if h.m == 0 else None
    )
    edge_index = rows.edge_index

    colours: dict[int, int] = {}
    engine_used = False
    warning: Optional[str] = None
    if core:
        core_graph, core_ids = rows.induced(sorted(core))
        core_colours, engine_used, warning = _colour_core(
            core_graph, seed, max_restarts
        )
        colours.update({core_ids[v]: col for v, col in core_colours.items()})
    _extend_reverse_peel(h, edge_index, removal_order, colours)

    num = len(set(colours.values()))
    valid = _validate_strong_colouring(h, edge_index, colours)
    assert valid, "pipeline produced an invalid strong edge colouring"
    return StrongColouringReport(
        colours=colours,
        edge_index=edge_index,
        num_colours=num,
        ratio_to_delta_sq=num / h.max_degree() ** 2,
        f_core_size=len(core),
        engine_used=engine_used,
        engine_warning=warning,
        valid=valid,
    )


def _extend_reverse_peel(
    h: Graph,
    edge_index: list[tuple[int, int]],
    removal_order: list[int],
    colours: dict[int, int],
) -> None:
    """First-fit on L²(h) through the peel in reverse, extending `colours`.

    Each host vertex keeps an int mask of the colours on its edges.  Edge uv
    gets the lowest clear bit of the OR of the masks at N(u) | N(v): those
    are the colours of the coloured edges with an endpoint there, which are
    exactly uv's coloured square neighbours.  When an edge returns, its
    coloured neighbours are the survivors present at its removal, fewer than
    the peel threshold, so the colours stay below threshold + 1.
    """
    mask_at = [0] * h.n
    for i, c in colours.items():
        u, v = edge_index[i]
        mask_at[u] |= 1 << c
        mask_at[v] |= 1 << c
    for i in reversed(removal_order):
        u, v = edge_index[i]
        used = 0
        for x in h.neighbours(u):
            used |= mask_at[x]
        for x in h.neighbours(v):
            used |= mask_at[x]
        c = lowest_clear_bit(used)
        colours[i] = c
        mask_at[u] |= 1 << c
        mask_at[v] |= 1 << c


def _colour_core(
    core_graph: Graph, seed: int, max_restarts: int
) -> tuple[dict[int, int], bool, Optional[str]]:
    """Colour the core with the iterative engine if feasible, else greedily.

    The warning says why the engine did not colour it: no feasible schedule,
    a size refusal of the assignment, regularised copy or statistic index
    ("engine refused"), or a failed run.
    """
    max_deg = core_graph.max_degree()
    delta_core = local_sparsity(core_graph).delta if max_deg >= 2 else 0.0
    warning = None

    def fallback(reason: Optional[str]):
        return first_fit(core_graph, range(core_graph.n)), False, reason

    if delta_core > 0:
        eps_target = approx_eps(min(delta_core, 0.9), "ours")
        k = math.ceil((1 - eps_target) * (max_deg + 1))
        if k >= 1 and k <= max_deg:
            eps_prime = 1 - k / (max_deg + 1)
            try:
                schedule = build_schedule(eps_prime, delta_core)
            except ScheduleError as exc:
                return fallback(f"no feasible schedule ({exc}); greedy fallback")
            try:
                assignment = uniform_lists(core_graph, k)
                result = iterative_colour(
                    core_graph, assignment, schedule, seed, max_restarts
                )
            except (AssignmentError, ScheduleError) as exc:
                return fallback(f"engine refused ({exc}); greedy fallback")
            if result.ok:
                return dict(result.colouring), True, None
            warning = f"engine failed ({result.failure_reason}); greedy fallback"
    return fallback(warning)
