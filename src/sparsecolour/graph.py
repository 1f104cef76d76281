"""Undirected simple graphs with dense 0-based vertex ids.

The Graph type is a thin immutable wrapper around sorted adjacency lists.
All operations in this module are read-only or return new values, so
instances can be shared freely between threads.

Also provides:
  * neighbourhood sparsity instrumentation (how far each neighbourhood is
    from being complete),
  * complement matchings, minimum-degree orderings and first-fit colouring,
  * DIMACS and JSON import/export.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator, Optional, Sequence


class GraphError(ValueError):
    """Raised for malformed graph constructions or inputs."""


class Graph:
    """Undirected simple graph on vertices 0..n-1.

    Invariants: no self-loops, adjacency symmetric, neighbour lists sorted
    strictly ascending (hence no multi-edges).
    """

    __slots__ = ("_adj", "_adj_sets")

    def __init__(self, adjacency: Sequence[Sequence[int]]):
        adj = tuple(tuple(nbrs) for nbrs in adjacency)
        n = len(adj)
        for u, nbrs in enumerate(adj):
            prev = -1
            for v in nbrs:
                if not 0 <= v < n:
                    raise GraphError(f"neighbour {v} of {u} out of range")
                if v == u:
                    raise GraphError(f"self-loop at vertex {u}")
                if v <= prev:
                    raise GraphError(f"adjacency of {u} not strictly ascending")
                prev = v
        sets = tuple(frozenset(nbrs) for nbrs in adj)
        for u, nbrs in enumerate(adj):
            for v in nbrs:
                if u not in sets[v]:
                    raise GraphError(f"edge {u}-{v} not symmetric")
        self._adj = adj
        self._adj_sets = sets

    # -- construction -----------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop ({u},{v})")
            adj[u].add(v)
            adj[v].add(u)
        return cls([sorted(s) for s in adj])

    # -- basic queries ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def m(self) -> int:
        return sum(len(a) for a in self._adj) // 2

    def degree(self, u: int) -> int:
        return len(self._adj[u])

    def neighbours(self, u: int) -> tuple[int, ...]:
        return self._adj[u]

    def neighbour_set(self, u: int) -> frozenset[int]:
        return self._adj_sets[u]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj_sets[u]

    def max_degree(self) -> int:
        return max((len(a) for a in self._adj), default=0)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, nbrs in enumerate(self._adj):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def is_regular(self) -> bool:
        degs = {len(a) for a in self._adj}
        return len(degs) <= 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self._adj == other._adj

    def __hash__(self) -> int:
        return hash(self._adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # -- derived graphs ---------------------------------------------------

    def induced(self, vertices: Sequence[int]) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph on `vertices`; new ids follow the given order.

        Returns (subgraph, old_ids) with old_ids[new] = old.
        """
        old_ids = tuple(vertices)
        if len(set(old_ids)) != len(old_ids):
            raise GraphError("induced vertex list contains duplicates")
        index = {old: new for new, old in enumerate(old_ids)}
        adj = [
            sorted(index[w] for w in self._adj[old] if w in index)
            for old in old_ids
        ]
        return Graph(adj), old_ids

    def complement(self) -> "Graph":
        n = self.n
        return Graph(
            [
                [v for v in range(n) if v != u and v not in self._adj_sets[u]]
                for u in range(n)
            ]
        )


# -- sparsity ---------------------------------------------------------------


@dataclass(frozen=True)
class SparsityReport:
    """How far every neighbourhood is from inducing a complete graph.

    `neighbourhood_edges[v]` is the number of edges inside N(v).  `delta` is
    the largest value such that every neighbourhood induces at most
    (1 - delta) * C(max_degree, 2) edges; the binomial always uses the global
    maximum degree, even at low-degree vertices.  When `per_vertex` was
    requested, `per_vertex_delta[v]` uses C(deg(v), 2) instead (None where
    deg(v) < 2).
    """

    neighbourhood_edges: tuple[int, ...]
    max_degree: int
    delta: float
    per_vertex_delta: Optional[tuple[Optional[float], ...]] = None


def neighbourhood_edge_count(g: Graph, v: int) -> int:
    """Number of edges of g with both endpoints in N(v)."""
    nbrs = g.neighbours(v)
    nbr_set = g.neighbour_set(v)
    count = 0
    for w in nbrs:
        count += len(g.neighbour_set(w) & nbr_set)
    return count // 2


def local_sparsity(g: Graph, per_vertex: bool = False) -> SparsityReport:
    """Measure neighbourhood density of every vertex.

    Requires max degree >= 2 (otherwise C(max_degree, 2) = 0 and the measure
    is undefined).
    """
    max_deg = g.max_degree()
    if max_deg < 2:
        raise GraphError("sparsity undefined: graph has maximum degree <= 1")
    counts = tuple(neighbourhood_edge_count(g, v) for v in range(g.n))
    denom = comb(max_deg, 2)
    delta = 1.0 - max(counts) / denom
    per_vertex_delta = None
    if per_vertex:
        per_vertex_delta = tuple(
            (1.0 - counts[v] / comb(g.degree(v), 2)) if g.degree(v) >= 2 else None
            for v in range(g.n)
        )
    return SparsityReport(counts, max_deg, delta, per_vertex_delta)


# -- complement matching ------------------------------------------------------


def complement_matching(g: Graph, omega: int) -> list[tuple[int, int]]:
    """Greedy maximal matching in the complement of g.

    For omega = clique number of g the matching has size at least
    ceil((n - omega) / 2): the unmatched vertices are pairwise adjacent in g
    (a clique), which is asserted as the certificate.
    """
    matched: set[int] = set()
    matching: list[tuple[int, int]] = []
    n = g.n
    for u in range(n):
        if u in matched:
            continue
        for v in range(u + 1, n):
            if v in matched or g.has_edge(u, v):
                continue
            matching.append((u, v))
            matched.add(u)
            matched.add(v)
            break
    unmatched = [u for u in range(n) if u not in matched]
    for i, u in enumerate(unmatched):
        for v in unmatched[i + 1 :]:
            assert g.has_edge(u, v), "unmatched complement vertices must form a clique"
    assert len(matching) >= -((omega - n) // 2), (
        f"complement matching of size {len(matching)} below guaranteed "
        f"ceil(({n}-{omega})/2)"
    )
    return matching


# -- orderings and bounds -----------------------------------------------------


def min_degree_ordering(g: Graph, subset: Sequence[int]) -> list[int]:
    """Order `subset` so each vertex has minimum degree among the rest.

    At step i the chosen vertex v_i minimises its degree in the subgraph
    induced by the not-yet-chosen vertices; ties break on smallest id.
    """
    remaining = set(subset)
    if len(remaining) != len(subset):
        raise GraphError("subset contains duplicates")
    order: list[int] = []
    while remaining:
        best = min(
            remaining,
            key=lambda v: (len(g.neighbour_set(v) & remaining), v),
        )
        order.append(best)
        remaining.remove(best)
    return order


def list_chromatic_upper(n: int, omega: int) -> int:
    """Upper bound floor((n + omega) / 2) on the list chromatic number."""
    if not 1 <= omega <= n:
        raise GraphError(f"clique number {omega} out of range for n={n}")
    return (n + omega) // 2


# -- first-fit colouring -----------------------------------------------------


def first_fit(
    g: Graph, order: Iterable[int], colours: Optional[dict[int, int]] = None
) -> dict[int, int]:
    """Give each vertex of `order` the smallest colour >= 0 that no already
    coloured neighbour uses.

    Extends `colours` in place (a new dict when None) and returns it.
    """
    if colours is None:
        colours = {}
    for v in order:
        used = {colours[w] for w in g.neighbours(v) if w in colours}
        colour = 0
        while colour in used:
            colour += 1
        colours[v] = colour
    return colours


# -- DIMACS / JSON io ---------------------------------------------------------


class DimacsError(ValueError):
    """Raised for malformed DIMACS input, with the offending line number."""


def parse_dimacs(text: str) -> Graph:
    """Parse DIMACS edge format (`p edge n m`, 1-based `e u v` lines).

    Comments (`c`) are ignored.  Self-loops and duplicate edges are rejected
    with their line number.
    """
    n: Optional[int] = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise DimacsError(f"line {lineno}: duplicate problem line")
            if len(fields) != 4 or fields[1] != "edge":
                raise DimacsError(f"line {lineno}: expected 'p edge <n> <m>'")
            try:
                n = int(fields[2])
                int(fields[3])
            except ValueError as exc:
                raise DimacsError(f"line {lineno}: bad problem line") from exc
            if n < 0:
                raise DimacsError(f"line {lineno}: negative vertex count")
        elif fields[0] == "e":
            if n is None:
                raise DimacsError(f"line {lineno}: edge before problem line")
            if len(fields) != 3:
                raise DimacsError(f"line {lineno}: expected 'e <u> <v>'")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError as exc:
                raise DimacsError(f"line {lineno}: bad edge endpoints") from exc
            if not (1 <= u <= n and 1 <= v <= n):
                raise DimacsError(f"line {lineno}: endpoint out of range 1..{n}")
            if u == v:
                raise DimacsError(f"line {lineno}: self-loop {u}")
            key = (min(u, v) - 1, max(u, v) - 1)
            if key in seen:
                raise DimacsError(f"line {lineno}: duplicate edge {u} {v}")
            seen.add(key)
            edges.append(key)
        else:
            raise DimacsError(f"line {lineno}: unknown record '{fields[0]}'")
    if n is None:
        raise DimacsError("missing problem line")
    return Graph.from_edges(n, edges)


def to_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.m}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def to_json_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def from_json_dict(data: object) -> Graph:
    """Graph from {"n": <int >= 0>, "edges": [[u, v], ...]}; any other shape
    raises GraphError."""
    if not (isinstance(data, dict) and _is_int(data.get("n")) and data["n"] >= 0):
        raise GraphError('graph JSON must be an object with an integer "n" >= 0')
    edges = data.get("edges")
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(map(_is_int, e)) for e in edges
    ):
        raise GraphError('graph JSON "edges" must be a list of [u, v] integer pairs')
    return Graph.from_edges(data["n"], [tuple(e) for e in edges])
