"""Strong edge colouring via the square of the line graph.

A strong edge colouring of a host graph H is a vertex colouring of L²(H),
the graph on E(H) joining edges at distance at most two.  The pipeline has
three steps: it peels L²(H) down to its dense core (every survivor keeps at
least (2 - eta) D² neighbours inside the core, D the host max degree), lets
the iterative engine colour the core when the measured sparsity admits a
feasible schedule, and colours every other edge in one first-fit pass: the
core in id order if the engine did not colour it, then the peeled edges in
reverse peel order, which by construction never needs a colour index past
the peel threshold.  L²(H) is never built whole.  The first peel wave is
certified from host degree sums: an edge whose bound s(u) + s(v) - deg(u) -
deg(v) (s(x) the degree sum over N(x)) is below the threshold is peeled
without its row being read.  Other rows come on demand from one set per
host vertex (at most sum deg² entries), built only when the first such row
or exact degree is asked for; their bytes are checked against the memory
budget up front all the same.  Only a non-empty core is built as a graph,
and the first-fit pass reads one colour bitmask per host vertex.

Also provides the strong-neighbourhood geometry of a host edge (the X / Y
vertex sets, the scaled quantities alpha, beta, gamma, the 4-cycle count
between X and Y) and the associated edge-density bounds.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain
from math import comb
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .bounds import STRONG_EDGE_ETA, approx_eps, core_edge_bound_max
from . import budget
from .correspondence import uniform_lists
from .graph import Graph, GraphError, local_sparsity
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


# Bytes per near-set entry, of sum deg(w)² (tracemalloc: 24 to 100 on K150,
# rr(600,12), G(400,0.03), rr(2000,40) and rr(5000,3)).
NEAR_ENTRY_BYTES = 104


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
    `degree_bounds` builds none; the constructor checks their bytes against
    the memory budget even so, so whether a host is refused depends on its
    size alone.  Offers the `n`, `degree_bounds`, `degree` and
    `neighbour_set` that `f_core_with_order` reads, and `induced` for a core.
    """

    def __init__(self, h: Graph):
        edge_index = list(h.edges())
        if not edge_index:
            raise GraphError("line graph square needs at least one edge")
        entries = int((h.degrees() ** 2).sum())
        budget.check(f"near-edge sets of about {entries} entries", entries * NEAR_ENTRY_BYTES)
        self._host = h
        self.edge_index = edge_index
        self.n = len(edge_index)

    @cached_property
    def _near(self) -> list[set[int]]:
        return _near_edge_sets(self._host, self.edge_index)

    def degree_bounds(self) -> np.ndarray:
        """An upper bound on each row's size, from host degree sums alone.

        With s(x) the sum of deg(w) over w in N(x), near[x] holds at most
        s(x) edges, and near[u] & near[v] holds every edge at u or at v,
        deg(u) + deg(v) - 1 of them.  So the row of uv has at most
        s(u) + s(v) - deg(u) - deg(v) entries: 2D² - 2D on a D-regular host
        of girth at least 5, where the bound is exact.
        """
        h = self._host
        deg = h.degrees()
        # s(x) - deg(x), so that the bound of uv is one sum.
        sums = np.concatenate([[0], np.cumsum(deg[h.indices])])[h.indptr]
        reach = np.diff(sums) - deg
        eu, ev = h.edge_array().T
        return reach[eu] + reach[ev]

    def degree(self, i: int) -> int:
        u, v = self.edge_index[i]
        near_u, near_v = self._near[u], self._near[v]
        return len(near_u) + len(near_v) - len(near_u & near_v) - 1

    def neighbour_set(self, i: int) -> set[int]:
        u, v = self.edge_index[i]
        row = self._near[u] | self._near[v]
        row.discard(i)
        return row

    def induced(self, vertices: Sequence[int]) -> tuple[Graph, tuple[int, ...]]:
        """As `Graph.induced` on L²(h), building only the listed rows."""
        index = {old: new for new, old in enumerate(vertices)}
        rows = [[index[w] for w in self.neighbour_set(old) & index.keys()] for old in vertices]
        lengths = list(map(len, rows))
        arcs = np.fromiter(chain.from_iterable(rows), np.int64, sum(lengths))
        arcs += np.repeat(np.arange(len(rows)) * len(rows), lengths)
        arcs.sort()
        return Graph(len(rows), arcs), tuple(vertices)


def line_graph_square(h: Graph) -> tuple[Graph, list[tuple[int, int]]]:
    """The graph on E(h) joining edges at distance <= 2, plus the edge index.

    Output vertex i is host edge edge_index[i]; two edge-vertices are
    adjacent iff the host edges share an endpoint or are joined by an edge.
    """
    rows = _SquareRows(h)
    return rows.induced(range(rows.n))[0], rows.edge_index


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
    the first wave without its degree being asked for.  When the first wave
    is every vertex, it is returned as the removal order with no row read.
    """
    # Degrees are integers, so comparing with the ceiling is exact and
    # avoids a Fraction comparison per vertex.
    threshold = math.ceil(threshold)
    degree_bounds = getattr(g, "degree_bounds", None)
    if degree_bounds is None:
        degree = np.array([g.degree(v) for v in range(g.n)], dtype=np.int64)
    else:
        # A vertex whose bound is below the threshold is in the first wave
        # whatever its degree, and a queued vertex's degree is never read.
        degree = np.array(degree_bounds(), dtype=np.int64)
        exact = np.flatnonzero(degree >= threshold)
        degree[exact] = [g.degree(v) for v in exact.tolist()]
    queue = np.flatnonzero(degree < threshold).tolist()
    if len(queue) == g.n:
        return queue, frozenset()
    removal_order: list[int] = []
    # Only vertices never queued can still be pushed below the threshold; a
    # queued vertex's degree is never read again, so it is not updated.
    unqueued = set(np.flatnonzero(degree >= threshold).tolist())
    degree = degree.tolist()
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
    bound = core_edge_bound_max(eta, eta) * d**4
    # A nonempty core's degrees pass the threshold, so its sparsity is defined.
    counts = local_sparsity(core_graph).neighbourhood_edges if core_graph.n else ()
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
    Checked on arrays from the host adjacency, not through L²(h): a
    colouring is strong iff the colours at each vertex are distinct and, at
    each host edge xy, the colour sets at x and y have only the colour of xy
    in common (a second shared colour would sit on two edges joined by xy).
    Colours are renumbered 0..C-1 in order of first use, so the keys
    vertex * C + colour fit in int64 whatever the colours are.  Sorted, the
    keys of vertex x fill positions indptr[x] to indptr[x + 1]; each colour
    at x is looked up among the keys at y, x the endpoint of lower degree:
    sum over edges of deg(x) <= sum deg² lookups of a few int64 words each,
    where `_SquareRows` has checked NEAR_ENTRY_BYTES per entry of that sum
    against the memory budget.  The edge index is compared with the rows of
    the host's edge array one tuple at a time: `np.asarray` of m tuples
    costs more, and `np.fromiter` would take "3" or 0.5 for an id.
    """
    edges = h.edge_array()
    m = len(edges)
    if len(edge_index) != m or len(colours) != m:
        return False
    if not all(map(operator.eq, edge_index, zip(*edges.T.tolist()))):
        return False
    try:
        listed = list(map(colours.__getitem__, range(m)))
    except KeyError:
        return False
    dense = dict(zip(dict.fromkeys(listed), range(m)))
    colour = np.fromiter(map(dense.__getitem__, listed), np.int64, m)
    eu, ev = edges.T
    keys = np.sort(np.concatenate([eu * len(dense) + colour, ev * len(dense) + colour]))
    if np.any(keys[1:] == keys[:-1]):
        return False
    # Each edge's own colour is found once, at y; any other hit is a clash.
    deg = h.degrees()
    x = np.where(deg[eu] <= deg[ev], eu, ev)
    counts = deg[x]
    wanted = np.repeat(h.indptr[x] - np.cumsum(counts) + counts, counts)
    wanted += np.arange(len(wanted))
    wanted = keys[wanted]  # the keys at x, one block per edge,
    wanted += np.repeat((eu + ev - 2 * x) * len(dense), counts)  # moved to y
    return int(np.count_nonzero(np.isin(wanted, keys))) == m


def strong_edge_colour(
    h: Graph, eta: float = STRONG_EDGE_ETA, seed: int = 0, max_restarts: int = MAX_RESTARTS
) -> StrongColouringReport:
    """Colour the host's edges so edges at distance <= 2 differ.

    Peels the line graph square to its (2 - eta) D² core, lets
    `_colour_core` try the iterative engine there, and colours every edge
    the engine did not in one first-fit pass: the core in id order, if the
    engine returned no colouring, then the peel in reverse order.
    """
    rows, _, removal_order, core = _peel(
        h, eta, "host graph has no edges" if h.m == 0 else None
    )
    edge_index = rows.edge_index

    colours: dict[int, int] = {}
    engine_used = False
    warning: Optional[str] = None
    core_order = sorted(core)
    if core:
        core_graph, _ = rows.induced(core_order)
        core_colours, warning = _colour_core(core_graph, seed, max_restarts)
        engine_used = core_colours is not None
        if engine_used:
            colours = {core_order[v]: col for v, col in core_colours.items()}
            core_order = []
    del rows  # and its near sets, before the first-fit pass and the validation
    _first_fit_edges(h, edge_index, chain(core_order, reversed(removal_order)), colours)

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


def _first_fit_edges(
    h: Graph,
    edge_index: list[tuple[int, int]],
    order: Iterable[int],
    colours: dict[int, int],
) -> None:
    """First-fit on L²(h) along `order`, extending `colours`.

    Each host vertex keeps an int mask of the colours on its edges.  Edge uv
    gets the lowest clear bit of the OR of the masks at N(u) | N(v): those
    are the colours of the coloured edges with an endpoint there, which are
    exactly uv's coloured square neighbours, as `graph.first_fit` reads
    them on the square.  When a peeled edge returns, its coloured neighbours
    are the survivors present at its removal, fewer than the peel threshold,
    so the colours stay below threshold + 1.

    While consecutive edges share u, as ids do along the core and a one-wave
    peel, the OR over N(u) is kept as `near_u`.  That is exact: colouring
    uv' changes only the masks at u and v', v' in N(u), and both gain the
    same bit, which the next edge uv reads at u, in N(v).
    """
    nbrs = list(map(h.neighbours, range(h.n)))
    mask_at = [0] * h.n
    for i, c in colours.items():
        u, v = edge_index[i]
        mask_at[u] |= 1 << c
        mask_at[v] |= 1 << c
    last_u, near_u = -1, 0
    for i in order:
        u, v = edge_index[i]
        if u != last_u:
            last_u, near_u = u, 0
            for x in nbrs[u]:
                near_u |= mask_at[x]
        used = near_u
        for x in nbrs[v]:
            used |= mask_at[x]
        bit = ~used & (used + 1)  # the lowest clear bit, as lowest_clear_bit finds it
        colours[i] = bit.bit_length() - 1
        mask_at[u] |= bit
        mask_at[v] |= bit


def _colour_core(
    core_graph: Graph, seed: int, max_restarts: int
) -> tuple[Optional[dict[int, int]], Optional[str]]:
    """The iterative engine's colouring of the core, or None, and a warning.

    The warning says why the engine did not colour it: no feasible schedule,
    a memory-budget refusal of one of its allocations ("engine refused"),
    or a failed run; None when the engine succeeds or is not tried.
    """
    max_deg = core_graph.max_degree()
    delta_core = local_sparsity(core_graph).delta if max_deg >= 2 else 0.0
    if delta_core <= 0:
        return None, None
    eps_target = approx_eps(min(delta_core, 0.9), "ours")
    k = math.ceil((1 - eps_target) * (max_deg + 1))
    if not 1 <= k <= max_deg:
        return None, None
    try:
        schedule = build_schedule(1 - k / (max_deg + 1), delta_core)
    except ScheduleError as exc:
        return None, f"no feasible schedule ({exc}); greedy fallback"
    try:
        assignment = uniform_lists(core_graph, k)
        result = iterative_colour(core_graph, assignment, schedule, seed, max_restarts)
    except budget.BudgetError as exc:
        return None, f"engine refused ({exc}); greedy fallback"
    if result.ok:
        return dict(result.colouring), None
    return None, f"engine failed ({result.failure_reason}); greedy fallback"
