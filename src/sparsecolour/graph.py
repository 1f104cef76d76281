"""Undirected simple graphs with dense 0-based vertex ids.

A Graph holds its adjacency once, as read-only CSR int64 arrays `indptr` and
`indices` that one constructor builds from ascending arc keys u * n + v;
`Graph.from_edges` is the validating entry.  The numpy engines read the
arrays, and the Python algorithms loop over neighbour tuples and frozensets,
which a graph builds once, the first time one is asked for.  Instances are
immutable, so they can be shared freely between threads.

Also provides neighbourhood sparsity instrumentation (how far each
neighbourhood is from being complete), minimum-degree orderings, first-fit
colouring and DIMACS and JSON import/export.
"""

from __future__ import annotations

import heapq
import json
import re
from array import array
from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import budget


class GraphError(ValueError):
    """Raised for malformed graph constructions or inputs."""


class Graph:
    """Undirected simple graph on vertices 0..n-1, stored as CSR: the
    neighbours of u are indices[indptr[u]:indptr[u + 1]], strictly ascending,
    symmetric and never u.  The constructor takes the ascending int64 keys
    u * n + v of the arcs, one for each direction of each edge, and trusts
    them: they come from `from_edges`, a checked loader or another graph."""

    __slots__ = ("indptr", "indices", "_rows", "_sets")

    def __init__(self, n: int, arcs: np.ndarray):
        self.indptr = np.searchsorted(arcs, np.arange(n + 1, dtype=np.int64) * n)
        self.indices = arcs % n
        self.indptr.flags.writeable = self.indices.flags.writeable = False
        self._rows = self._sets = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Repeated and reversed pairs collapse; endpoints are checked first."""
        keys = array("q")
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop ({u},{v})")
            keys.append(u * n + v)
        return cls(n, _arcs(n, np.frombuffer(keys, np.int64)))

    # -- basic queries ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    @property
    def m(self) -> int:
        return len(self.indices) // 2

    def degree(self, u: int) -> int:
        return int(self.indptr[u + 1] - self.indptr[u])

    def neighbours(self, u: int) -> tuple[int, ...]:
        if self._rows is None:
            self._rows = self._split(tuple)
        return self._rows[u]

    def neighbour_set(self, u: int) -> frozenset[int]:
        if self._sets is None:
            self._sets = self._split(frozenset)
        return self._sets[u]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbour_set(u)

    def _ints(self, ids: np.ndarray) -> list[int]:
        """`ids` as Python ints, one int object per vertex."""
        return list(map(list(range(self.n)).__getitem__, ids.tolist()))

    def _split(self, kind) -> tuple:
        flat, ends = self._ints(self.indices), self.indptr.tolist()
        return tuple(kind(flat[a:b]) for a, b in zip(ends, ends[1:]))

    def degrees(self) -> np.ndarray:
        return self.indptr[1:] - self.indptr[:-1]

    def max_degree(self) -> int:
        return int(self.degrees().max(initial=0))

    def arc_sources(self) -> np.ndarray:
        """The source of every arc, aligned with `indices`."""
        return np.repeat(np.arange(self.n), self.degrees())

    def edge_array(self) -> np.ndarray:
        """Every edge (u, v), u < v, ascending, as an (m, 2) int64 array."""
        src = self.arc_sources()
        upper = src < self.indices
        edges = np.empty((self.m, 2), dtype=np.int64)
        edges[:, 0], edges[:, 1] = src[upper], self.indices[upper]
        return edges

    def edges(self) -> Iterator[tuple[int, int]]:
        """edge_array() as tuples of Python ints."""
        return zip(*map(self._ints, self.edge_array().T))

    def is_regular(self) -> bool:
        return len(set(self.degrees().tolist())) <= 1

    def __eq__(self, other: object) -> bool:
        same = isinstance(other, Graph) and np.array_equal(self.indptr, other.indptr)
        return same and np.array_equal(self.indices, other.indices)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # -- derived graphs ---------------------------------------------------

    def induced(self, vertices: Sequence[int]) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph on `vertices`; new ids follow the given order.

        Returns (subgraph, old_ids) with old_ids[new] = old.
        """
        old_ids = tuple(vertices)
        new_id = np.full(self.n, -1, dtype=np.int64)
        new_id[list(old_ids)] = np.arange(len(old_ids))
        if np.count_nonzero(new_id >= 0) != len(old_ids):
            raise GraphError("induced vertex list contains duplicates")
        src, dst = new_id[self.arc_sources()], new_id[self.indices]
        inside = (src >= 0) & (dst >= 0)
        arcs = src[inside] * len(old_ids) + dst[inside]
        arcs.sort()
        return Graph(len(old_ids), arcs), old_ids


def _arcs(n: int, keys: np.ndarray) -> np.ndarray:
    """The ascending arc keys, once per direction, of the edges with keys
    u * n + v, however often and in whichever direction `keys` lists them."""
    arcs = np.concatenate([keys, keys % n * n + keys // n])
    arcs.sort()
    return arcs[np.diff(arcs, prepend=-1) != 0]


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


def local_sparsity(g: Graph) -> SparsityReport:
    """Measure neighbourhood density of every vertex.

    Requires max degree >= 2 (otherwise C(max_degree, 2) = 0 and the measure
    is undefined).
    """
    max_deg = g.max_degree()
    if max_deg < 2:
        raise GraphError("sparsity undefined: graph has maximum degree <= 1")
    nbrs = g.neighbour_set  # each edge inside N(v) is seen from both of its ends
    counts = tuple(sum(len(nbrs(w) & nbrs(v)) for w in g.neighbours(v)) // 2 for v in range(g.n))
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


# Bytes a vertex and an edge, above the tracemalloc peaks of loading
# (`parse_dimacs` 16 and 66, `from_json_dict` 16 and 56 to 58, on random
# regular graphs of degree 1 to 200) and of `gen` (228 an edge on rr(2000,20)).
LOAD_BYTES, GEN_BYTES = (20, 72), (24, 256)


def check_graph(n: int, m: int, per: tuple[int, int] = LOAD_BYTES) -> None:
    """Refuse a graph of n vertices and m edges past the memory budget."""
    budget.check(f"graph of {n} vertices and {m} edges", per[0] * n + per[1] * m)


_LINE_CHUNK = 1 << 12

# Edge lines the bulk path reads: `e` and two ids of 1 to 18 ASCII digits
# (so below 2^63), apart by spaces or tabs, each ending in \n or \r\n.
_EDGE_LINES = re.compile(r"(?:e[ \t]+[0-9]{1,18}[ \t]+[0-9]{1,18}\r?\n)*")
_BLANKS = str.maketrans("e\t\r", "   ")

# Line breaks of str.splitlines, the whitespace str.strip removes besides
# "\n", "\r", " " and "\t", and a line's first non-blank `e` with what precedes it.
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_ODD_SPACE = _BREAKS[2:] + "\x1f\xa0\u1680\u202f\u205f\u3000" + "".join(map(chr, range(8192, 8203)))
_EDGE_LINE = re.compile(rf"(?:\A|[{_BREAKS}])[^\S{_BREAKS}]*e")


def _edge_line_count(text: str) -> int:
    r"""The lines, split as `str.splitlines` splits them, whose first
    non-blank character is `e`: where every line ends in "\n" or "\r\n" and
    none begins with a blank, the `e`s at the start and after a "\n"."""
    odd = any(c in text for c in _ODD_SPACE) or text[:1] in " \t" or re.search(r"\n[ \t]", text)
    if odd or "\r" in text and text.count("\r") != text.count("\r\n"):
        return sum(1 for _ in _EDGE_LINE.finditer(text))
    return text.count("\ne") + text.startswith("e")


def parse_dimacs(text: str) -> Graph:
    """Parse DIMACS edge format (`p edge n m`, 1-based `e u v` lines).

    Comments (`c`) are ignored.  Self-loops and duplicate edges are rejected
    with their line number, the first faulty line first.  At the problem
    line, before any per-line structure, a graph of its n vertices and of as
    many edges as lines begin with `e`, after any blanks, is checked against
    the memory budget.
    Lines are split as `str.splitlines` splits them.  Up to the problem line
    they are read one at a time; after it, a chunk of _LINE_CHUNK or more
    characters at a time, in bulk when every line of the chunk matches
    `_EDGE_LINES` and none is out of range or a self-loop, and else one at a
    time, so that a comment, a blank or faulty line is read by the same
    rules as before the problem line.
    """
    n: Optional[int] = None
    keys, where = array("q"), array("q")
    lineno = pos = 0
    try:
        while pos < len(text):
            if n is None:  # a line at a time, up to the problem line
                stop = text.find("\n", pos) + 1 or len(text)
            else:
                stop = text.find("\n", pos + _LINE_CHUNK) + 1 or len(text)
                if _EDGE_LINES.fullmatch(text, pos, stop):
                    read = _read_edge_lines(text[pos:stop], n, lineno, keys, where)
                    if read:
                        lineno, pos = lineno + read, stop
                        continue
            for raw in text[pos:stop].splitlines():
                lineno += 1
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
                    check_graph(n, _edge_line_count(text))
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
                    keys.append((u - 1) * n + v - 1)
                    where.append(lineno)
                else:
                    raise DimacsError(f"line {lineno}: unknown record '{fields[0]}'")
            pos = stop
        if n is None:
            raise DimacsError("missing problem line")
    except DimacsError:
        _refuse_duplicates(n, keys, where)  # a repeat on an earlier line comes first
        raise
    _refuse_duplicates(n, keys, where)
    del where
    return Graph(n, _arcs(n, np.frombuffer(keys, np.int64)))


def _read_edge_lines(lines: str, n: int, lineno: int, keys: array, where: array) -> int:
    """Append the keys and line numbers of `lines`, edge lines that match
    `_EDGE_LINES` and follow line `lineno`, and return how many there are;
    or append nothing and return 0 if one is out of range or a self-loop."""
    ids = np.fromstring(lines.translate(_BLANKS), dtype=np.int64, sep=" ")
    u, v = ids[0::2], ids[1::2]
    if ids.min() < 1 or ids.max() > n or (u == v).any():
        return 0
    keys.frombytes(((u - 1) * n + v - 1).tobytes())
    where.frombytes(np.arange(lineno + 1, lineno + len(u) + 1).tobytes())
    return len(u)


def _refuse_duplicates(n: Optional[int], keys: array, where: array) -> None:
    """Raise the error of the first line, where[i], whose edge keys[i] (its
    u * n + v as written) repeats an earlier one."""
    if not keys:
        return
    u, v = np.divmod(np.frombuffer(keys, np.int64), n)
    edge = np.minimum(u, v) * n + np.maximum(u, v)
    order = np.argsort(edge, kind="stable")  # each edge's first line first
    repeats = order[1:][edge[order[1:]] == edge[order[:-1]]]
    if repeats.size:
        i = repeats.min()
        raise DimacsError(f"line {where[i]}: duplicate edge {u[i] + 1} {v[i] + 1}")


def to_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.m}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def to_json_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": g.edge_array().tolist()}


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def from_json_dict(data: object) -> Graph:
    """Graph from {"n": <int >= 0>, "edges": [[u, v], ...]}; any other shape,
    or an edge `Graph.from_edges` refuses, raises GraphError."""
    if not (isinstance(data, dict) and _is_int(data.get("n")) and data["n"] >= 0):
        raise GraphError('graph JSON must be an object with an integer "n" >= 0')
    edges = data.get("edges")
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(map(_is_int, e)) for e in edges
    ):
        raise GraphError('graph JSON "edges" must be a list of [u, v] integer pairs')
    check_graph(data["n"], len(edges))
    return Graph.from_edges(data["n"], edges)


# Bytes a list, object or key of a graph's JSON text costs while it is
# parsed, above the tracemalloc peaks of `json.loads` and `from_json_dict`
# together (145 to 208 a list on random regular graphs, complete graphs and
# cycles; 110 to 211 an object or key on objects of 10^5 keys).
JSON_ITEM_BYTES = 216


def parse_json(text: str) -> Graph:
    """`from_json_dict(json.loads(text))`, refused first, before any list
    exists, if as many lists, objects and keys as the text has `[`, `{` and
    `:` characters would take more than the memory budget."""
    items = text.count("[") + text.count("{") + text.count(":")
    budget.check(f"JSON graph of {items} lists, objects and keys", items * JSON_ITEM_BYTES)
    return from_json_dict(json.loads(text))
