"""Undirected simple graphs with dense 0-based vertex ids.

The Graph type is a thin immutable wrapper around sorted adjacency lists.
All operations in this module are read-only or return new values, so
instances can be shared freely between threads.

Also provides:
  * neighbourhood sparsity instrumentation (how far each neighbourhood is
    from being complete),
  * minimum-degree orderings and first-fit colouring,
  * DIMACS and JSON import/export.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain
from math import comb
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np


class GraphError(ValueError):
    """Raised for malformed graph constructions or inputs."""


class Graph:
    """Undirected simple graph on vertices 0..n-1.

    Invariants: no self-loops, adjacency symmetric, neighbour lists sorted
    strictly ascending (hence no multi-edges).
    """

    __slots__ = ("_adj", "_adj_sets", "_edge_array")

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
        self._edge_array = None

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

    def edge_array(self) -> np.ndarray:
        """edges() as a read-only (m, 2) int64 array, built once."""
        if self._edge_array is None:
            starts = np.repeat(np.arange(self.n), [len(a) for a in self._adj])
            ends = np.fromiter(chain.from_iterable(self._adj), np.int64, len(starts))
            self._edge_array = np.stack([starts, ends], axis=1)[starts < ends]
            self._edge_array.flags.writeable = False
        return self._edge_array

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


# -- sparsity ---------------------------------------------------------------


@dataclass(frozen=True)
class SparsityReport:
    """How far every neighbourhood is from inducing a complete graph.

    `neighbourhood_edges[v]` is the number of edges inside N(v).  `delta` is
    the largest value such that every neighbourhood induces at most
    (1 - delta) * C(max_degree, 2) edges; the binomial always uses the global
    maximum degree, even at low-degree vertices.
    """

    neighbourhood_edges: tuple[int, ...]
    max_degree: int
    delta: float


def neighbourhood_edge_count(g: Graph, v: int) -> int:
    """Number of edges of g with both endpoints in N(v)."""
    nbrs = g.neighbours(v)
    nbr_set = g.neighbour_set(v)
    count = 0
    for w in nbrs:
        count += len(g.neighbour_set(w) & nbr_set)
    return count // 2


def local_sparsity(g: Graph) -> SparsityReport:
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
    return SparsityReport(counts, max_deg, delta)


# -- orderings ----------------------------------------------------------------


def min_degree_ordering(g: Graph) -> list[int]:
    """Order g's vertices so each has minimum degree among the rest.

    At step i the chosen vertex v_i minimises its degree in the subgraph
    induced by the not-yet-chosen vertices; ties break on smallest id.  Each
    vertex keeps its residual degree in a heap keyed by (degree, id); a
    removal pushes its neighbours' lowered keys and leaves the old ones to be
    skipped as stale, so the whole order costs O((n + m) log n).
    """
    remaining = set(range(g.n))
    degree = {v: g.degree(v) for v in remaining}
    heap = [(d, v) for v, d in degree.items()]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        d, v = heapq.heappop(heap)
        if d != degree[v]:
            continue
        order.append(v)
        remaining.remove(v)
        for w in g.neighbour_set(v) & remaining:
            degree[w] -= 1
            heapq.heappush(heap, (degree[w], w))
    return order


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
        used = 0
        for w in g.neighbours(v):
            c = colours.get(w)
            if c is not None:
                used |= 1 << c
        colours[v] = lowest_clear_bit(used)
    return colours


def lowest_clear_bit(mask: int) -> int:
    """The smallest colour >= 0 whose bit is clear in the colour mask `mask`."""
    return (~mask & (mask + 1)).bit_length() - 1


# -- DIMACS / JSON io ---------------------------------------------------------


class DimacsError(ValueError):
    """Raised for malformed DIMACS input, with the offending line number."""


# The most vertices a graph file may declare, refused before one neighbour set
# per vertex is allocated: the largest graph `gen` writes, `--star 2000000`.
MAX_FILE_VERTICES = 2_000_001


def _vertex_count_error(n: int) -> Optional[str]:
    if n > MAX_FILE_VERTICES:
        return f"vertex count {n} above the cap of {MAX_FILE_VERTICES} vertices"
    return None


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
            if error := _vertex_count_error(n):
                raise DimacsError(f"line {lineno}: {error}")
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
    if error := _vertex_count_error(data["n"]):
        raise GraphError(f"graph JSON: {error}")
    return Graph.from_edges(data["n"], [tuple(e) for e in edges])
