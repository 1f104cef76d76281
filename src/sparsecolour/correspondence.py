"""Correspondence (DP-) colouring: colour sets plus per-edge matchings.

Every edge carries a partial injective map between the endpoint colour sets;
a colouring is valid when no edge's endpoint colours are matched by its map.
List colouring embeds as the special case where every map is the identity on
shared colours.

Row u of `values` (n x kmax, int64, read-only) holds u's colours in
ascending order, padded with -1 past `sizes[u]`; equal sets, as in uniform
lists, share one row.  Maps are stored as colour indices, once per edge on
the canonical orientation min(u, v) -> max(u, v): `edges` (E x 2, sorted by
(u, v), the order of Graph.edges()) and `fwd` (E x kmax), where fwd[e, i] is
the index at v of the colour matched with u's i-th colour, or -1.  The
reverse direction is the inverse, which makes the inversion-consistency
invariant hold by construction.  Every operation works on these arrays with
no Python loop over the edges; `colour_sets` and `edge_maps` are read-only
views built on demand, and dict maps are converted on construction.  Map
arrays, and all a uniform assignment stores, are checked against the memory
budget before they are allocated; the colouring check holds O(|f|) memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from . import budget
from .graph import Graph

# A partial colouring is a plain dict vertex -> colour; absent keys are
# uncoloured vertices.
PartialColouring = dict[int, int]

class AssignmentError(ValueError):
    """Raised for malformed correspondence assignments."""


def map_dtype(width: int) -> np.dtype:
    """The integer type of map entries indexing sets of up to `width` colours."""
    return np.dtype(np.int16 if width < 2**15 else np.int32)


def _map_array(rows: int, width: int, fill) -> np.ndarray:
    """A (rows x width) map array set to `fill`, checked against the budget."""
    dtype = map_dtype(width)
    budget.check(f"assignment maps of {rows} x {width} entries", rows * width * dtype.itemsize)
    out = np.empty((rows, width), dtype=dtype)
    out[...] = fill
    return out


def _in_set(sizes: np.ndarray, width: int) -> np.ndarray:
    """(n, width) mask of the indices inside each vertex's set."""
    return np.arange(width) < sizes[:, None]


class CorrespondenceAssignment:
    """Per-vertex colour sets and per-edge partial injective colour maps.

    `values[u, :sizes[u]]` (`colour_sets[u]` as a tuple) are u's colours in
    ascending order, and `edges` and `fwd` hold the maps.  `edge_maps[(u, v)]`
    (u < v) maps colours of u injectively to colours of v.  Built from dict
    maps, an assignment refuses, naming the vertex or edge, an unsorted or
    repeating colour set, a key that is not canonical, a non-injective map
    and one using colours outside its endpoint sets.  Equality compares
    colour sets and maps.
    """

    __slots__ = ("values", "sizes", "edges", "fwd", "_row_of")

    def __init__(
        self,
        colour_sets: Sequence[Sequence[int]],
        edge_maps: Mapping[tuple[int, int], Mapping[int, int]],
    ):
        sets = [tuple(s) for s in colour_sets]
        for u, s in enumerate(sets):
            if list(s) != sorted(set(s)):
                raise AssignmentError(f"colour set of {u} not sorted/unique")
        sizes = np.fromiter(map(len, sets), np.int64, len(sets))
        values = np.full((len(sets), int(sizes.max(initial=0))), -1, dtype=np.int64)
        values[_in_set(sizes, values.shape[1])] = [col for s in sets for col in s]
        keys = sorted(edge_maps)
        fwd = _map_array(len(keys), values.shape[1], -1)
        index_of = [dict(zip(s, range(len(s)))) for s in sets]
        for e, (u, v) in enumerate(keys):
            mp = edge_maps[(u, v)]
            image = set(mp.values())
            if not 0 <= u < v < len(sets):
                raise AssignmentError(f"edge map key ({u},{v}) not canonical")
            if len(image) != len(mp):
                raise AssignmentError(f"edge map ({u},{v}) not injective")
            if not (mp.keys() <= index_of[u].keys() and image <= index_of[v].keys()):
                raise AssignmentError(
                    f"edge map ({u},{v}) uses colours outside the endpoint sets"
                )
            for c1, c2 in mp.items():
                fwd[e, index_of[u][c1]] = index_of[v][c2]
        self._of(values, sizes, np.array(keys, dtype=np.int64).reshape(-1, 2), fwd, self)

    @classmethod
    def _of(cls, values, sizes, edges, fwd, into=None) -> CorrespondenceAssignment:
        """From arrays that hold the invariants, filling `into` when given;
        `values` is made read-only."""
        c = cls.__new__(cls) if into is None else into
        values.flags.writeable = False
        c.values, c.sizes, c.edges, c.fwd, c._row_of = values, sizes, edges, fwd, None
        return c

    def __eq__(self, other: object) -> bool:
        # Equal sets give equal widths, so equal arrays are equal maps.
        return isinstance(other, CorrespondenceAssignment) and (
            np.array_equal(self.sizes, other.sizes)
            and np.array_equal(self.values, other.values)
            and np.array_equal(self.edges, other.edges)
            and np.array_equal(self.fwd, other.fwd)
        )

    @property
    def colour_sets(self) -> tuple[tuple[int, ...], ...]:
        """Every colour set as a sorted tuple; built afresh on each access."""
        rows = zip(self.values.tolist(), self.sizes.tolist())
        return tuple(tuple(row[:size]) for row, size in rows)

    @property
    def edge_maps(self) -> Mapping[tuple[int, int], dict[int, int]]:
        """Every map as a dict, read-only; built afresh on each access."""
        edges = self.edges.tolist()
        return MappingProxyType({(u, v): self.map_between(u, v) for u, v in edges})

    def min_size(self) -> int:
        return int(self.sizes.min()) if len(self.sizes) else 0

    def _row(self, u: int, v: int) -> Optional[int]:
        """The map row of edge uv, or None if it has no map."""
        if self._row_of is None:
            self._row_of = {(a, b): e for e, (a, b) in enumerate(self.edges.tolist())}
        return self._row_of.get((min(u, v), max(u, v)))

    def map_between(self, u: int, v: int) -> dict[int, int]:
        """The colour map from u to v (inverting the stored orientation)."""
        row = self._row(u, v)
        if row is None:
            return {}
        a, b = self.values[min(u, v)].tolist(), self.values[max(u, v)].tolist()
        pairs = [(a[i], b[j]) for i, j in enumerate(self.fwd[row].tolist()) if j >= 0]
        return dict(pairs) if u < v else {c2: c1 for c1, c2 in pairs}

    def correspondent(self, u: int, v: int, colour: int) -> Optional[int]:
        """Colour at v matched with `colour` at u, or None if unmatched: a
        search of u's set, then one map entry (a scan of the row if u > v)."""
        row, i = self._row(u, v), _index_of(self, u, colour)
        if row is None or i < 0:
            return None
        j = self.fwd[row, i] if u < v else next(iter(np.flatnonzero(self.fwd[row] == i)), -1)
        return int(self.values[v, j]) if j >= 0 else None


# Colour entries the colouring check compares at once.
_CHECK_ENTRIES = 1 << 16


def _index_of(c: CorrespondenceAssignment, u: int, colour: int) -> int:
    """The index of `colour` in u's set, or -1, by a search of its row."""
    colours = c.values[u, : c.sizes[u]]
    i = int(np.searchsorted(colours, colour))
    return i if i < len(colours) and colours[i] == colour else -1


def indices(c: CorrespondenceAssignment, f: PartialColouring) -> Optional[np.ndarray]:
    """Per vertex, the index of its colour under f (-1 where f has none);
    None when some colour lies outside its vertex's set.  Rows are compared
    in chunks of at most _CHECK_ENTRIES entries, or one row at a time if a
    row is wider, so the check holds O(|f|) memory beside one row."""
    idx = np.full(len(c.sizes), -1, dtype=np.int64)
    us = np.fromiter(f.keys(), np.int64, len(f))
    colours = np.fromiter(f.values(), np.int64, len(f))
    step = max(1, _CHECK_ENTRIES // max(c.values.shape[1], 1))
    for lo in range(0, len(us), step):
        u, colour = us[lo : lo + step], colours[lo : lo + step]
        hit = c.values[u] == colour[:, None]
        # A set's colours are unique and come before its padding, so the
        # first hit is the colour's index if it lies inside the set.
        at = hit.argmax(axis=1)
        if not (hit[np.arange(len(u)), at] & (at < c.sizes[u])).all():
            return None
        idx[u] = at
    return idx


def _rows_on(g: Graph, c: CorrespondenceAssignment) -> tuple[np.ndarray, np.ndarray]:
    """g's edges in edges() order, as a (2, m) array of their ends u < v, and
    c's map rows for them in that order; an edge without a map gets an empty
    row."""
    edges = g.edge_array()
    if np.array_equal(c.edges, edges):
        return edges.T, c.fwd
    span = max(g.n, len(c.sizes))
    keys, wanted = c.edges @ [span, 1], edges @ [span, 1]  # both ascending
    at = np.minimum(np.searchsorted(keys, wanted), max(len(keys) - 1, 0))
    hit = keys[at] == wanted if len(keys) else np.zeros(len(edges), dtype=bool)
    rows = np.full((len(edges), c.fwd.shape[1]), -1, dtype=c.fwd.dtype)
    rows[hit] = c.fwd[at[hit]]
    return edges.T, rows


def validate_assignment(g: Graph, c: CorrespondenceAssignment) -> None:
    """Check what needs the host graph (construction checks the rest): one
    colour set per vertex, no negative colour and no map on a non-edge."""
    if len(c.sizes) != g.n:
        raise AssignmentError("colour set count does not match vertex count")
    negative = ((c.values < 0) & _in_set(c.sizes, c.values.shape[1])).any(axis=1)
    if negative.any():
        raise AssignmentError(f"negative colour at vertex {negative.argmax()}")
    known = np.isin(c.edges @ [g.n, 1], g.edge_array() @ [g.n, 1])
    if not known.all():
        u, v = c.edges[known.argmin()].tolist()
        raise AssignmentError(f"edge map for non-edge ({u},{v})")


def _bijective(sizes: np.ndarray, ends: np.ndarray, rows: np.ndarray) -> bool:
    """True when every map row is a bijection between its endpoint sets."""
    return bool(np.all(sizes[ends] == (rows >= 0).sum(axis=1)))


def is_total(g: Graph, c: CorrespondenceAssignment) -> bool:
    """True when every edge map is a bijection between its endpoint sets."""
    return _bijective(c.sizes, *_rows_on(g, c))


def map_rows(g: Graph, c: CorrespondenceAssignment) -> tuple[np.ndarray, ...]:
    """g's edges as arrays eu, ev and c's map rows on them as one (m, 2, k)
    array at `map_dtype(k)`, [e, 0] u->v and [e, 1] its inverse v->u, c
    checked first: one nonempty set per vertex and a bijection on each edge."""
    if len(c.sizes) != g.n:
        raise AssignmentError("assignment does not match graph size")
    if g.n and c.sizes.min() == 0:
        raise AssignmentError("all colour sets must be nonempty")
    ends, forward = _rows_on(g, c)
    if not _bijective(c.sizes, ends, forward):
        raise AssignmentError("round execution needs a total assignment")
    (m, k), dtype = forward.shape, map_dtype(forward.shape[1])
    rows = np.full((m, 2, k), -1, dtype=dtype)
    rows[:, 0] = forward
    # A bijection's -1 entries lie past its set, so they scatter into the
    # last column, which is -1 in the inverse wherever it is -1 forward.
    rows[np.arange(m)[:, None], 1, forward] = np.arange(k, dtype=dtype)
    rows[:, 1, k - 1 :][rows[:, 0, k - 1 :] < 0] = -1
    return (*np.ascontiguousarray(ends), rows)


def from_lists(
    g: Graph, lists: Sequence[Iterable[int]]
) -> CorrespondenceAssignment:
    """Embed a list assignment: identity maps on shared colours per edge.

    A colouring is then valid iff it is a proper list colouring.  Equal lists
    share one row.  Otherwise every colour gets its rank among all colours,
    offset by its vertex times the number of ranks, and one search of these
    ascending keys finds each colour of u among v's.
    """
    sets = [sorted(set(l)) for l in lists]
    if len(sets) != g.n:
        raise AssignmentError("need one colour list per vertex")
    for u, s in enumerate(sets):
        if not s:
            raise AssignmentError(f"empty colour list at vertex {u}")
    if all(s == sets[0] for s in sets):
        return _shared(g, np.array(sets[0] if sets else [], dtype=np.int64))
    c = CorrespondenceAssignment(sets, {})
    edges, width = g.edge_array(), c.values.shape[1]
    fwd = _map_array(len(edges), width, -1)
    inside = _in_set(c.sizes, width)
    # Padding ranks last, so the keys ascend along every row and overall.
    padded = np.where(inside, c.values, c.values.max() + 1)
    ranks, key = np.unique(padded, return_inverse=True)
    key = key.reshape(inside.shape) + len(ranks) * np.arange(g.n)[:, None]
    eu, ev = edges.T
    wanted = key[eu] + len(ranks) * (ev - eu)[:, None]
    at = np.minimum(np.searchsorted(key.ravel(), wanted), key.size - 1)
    e, i = np.nonzero((key.ravel()[at] == wanted) & inside[eu])
    fwd[e, i] = at[e, i] - ev[e] * width
    return CorrespondenceAssignment._of(c.values, c.sizes, edges, fwd)


def _shared(g: Graph, row: np.ndarray) -> CorrespondenceAssignment:
    """Every vertex on the set `row`, broadcast to (n, k); identity maps."""
    k = len(row)
    edges = g.edge_array()  # before the maps, so its transients never meet them
    fwd = _map_array(g.m, k, np.arange(k))
    values = np.broadcast_to(row, (g.n, k))
    return CorrespondenceAssignment._of(values, np.full(g.n, k), edges, fwd)


def uniform_lists(g: Graph, k: int) -> CorrespondenceAssignment:
    """List assignment {0..k-1} at every vertex (identity maps, total).

    What it stores, the row of k colours, n sizes, m edges and (m x k)
    maps, and 2 KiB for their array headers, is checked against the budget
    first.
    """
    nbytes = 8 * (k + g.n + 2 * g.m) + g.m * k * map_dtype(k).itemsize + 2048
    budget.check(f"assignment of {k} colours on {g.m} edges", nbytes)
    return _shared(g, np.arange(k, dtype=np.int64))


def truncate(c: CorrespondenceAssignment, k: int) -> CorrespondenceAssignment:
    """Restrict every colour set to its k smallest colours.

    Edge maps are restricted to pairs whose endpoints both survive: the first
    k columns, less entries of k or more.  Every colouring valid after
    truncation was valid before it.
    """
    if (c.sizes < k).any():
        raise AssignmentError(f"some colour set smaller than k={k}")
    fwd = c.fwd[:, :k].copy()
    fwd[fwd >= k] = -1
    sizes = np.minimum(c.sizes, k)
    return CorrespondenceAssignment._of(c.values[:, :k], sizes, c.edges, fwd)


def totalize(g: Graph, c: CorrespondenceAssignment) -> CorrespondenceAssignment:
    """Extend every edge map to a bijection between the endpoint sets.

    Requires all colour sets to share one size (truncate first).  The
    extension is deterministic: in each row the j-th unmatched colour at u is
    paired with the j-th unmatched colour at v, both in ascending order.
    Valid colourings of the result are valid for the input, since the result
    only adds forbidden pairs.
    """
    sizes = set(c.sizes.tolist())
    if len(sizes) > 1:
        raise AssignmentError(f"totalize needs equal colour set sizes, got {sizes}")
    ends, fwd = _rows_on(g, c)
    fwd, k = fwd.copy(), fwd.shape[1]
    used = np.zeros((len(fwd), k + 1), dtype=bool)  # -1 marks the spare column k
    used[np.arange(len(fwd))[:, None], fwd] = True
    # A row has as many free indices at u as at v, and both masks list them
    # row by row in ascending order.
    fwd[fwd < 0] = np.flatnonzero(~used[:, :k]) % k
    return CorrespondenceAssignment._of(c.values, c.sizes, ends.T, fwd)


def is_valid_colouring(
    g: Graph, c: CorrespondenceAssignment, f: PartialColouring
) -> bool:
    """True iff every coloured vertex uses its own set and no edge with both
    ends coloured has matched colours."""
    idx = indices(c, f)
    return idx is not None and _valid_on(idx, *_rows_on(g, c))


def _valid_on(idx: np.ndarray, ends: np.ndarray, rows: np.ndarray) -> bool:
    """True when no edge of `ends` with both ends coloured under the colour
    indices `idx` (-1 where uncoloured) has them matched by its row."""
    eu, ev = ends
    both = (idx[eu] >= 0) & (idx[ev] >= 0)
    return not (rows[both, idx[eu[both]]] == idx[ev[both]]).any()


@dataclass(frozen=True)
class Residual:
    """Uncoloured part of an instance after a valid partial colouring.

    `vertices[new_id] = old_id` maps the residual graph back to the host.
    Any valid colouring of the residual, translated through `vertices` and
    united with the partial colouring, is valid for the host instance.
    """

    graph: Graph
    assignment: CorrespondenceAssignment
    vertices: tuple[int, ...]


def residual_assignment(
    g: Graph, c: CorrespondenceAssignment, f: PartialColouring
) -> Residual:
    """Instance induced on uncoloured vertices after removing matched colours.

    Every uncoloured vertex loses the colours matched with its coloured
    neighbours' colours, marked through the rows between coloured and
    uncoloured ends.  The survivors are re-indexed by rank, and the rows of
    the induced edges restricted to them.  Residual colour sets may become
    empty, which surfaces later as greedy failure rather than an error here.
    The masks and the induced edges' rows are checked against the budget.
    """
    idx, ((eu, ev), rows) = indices(c, f), _rows_on(g, c)
    if idx is None or not _valid_on(idx, (eu, ev), rows):
        raise AssignmentError("partial colouring is not valid for the assignment")
    uncoloured = np.flatnonzero(idx < 0)
    inner = (idx[eu] < 0) & (idx[ev] < 0)
    # Peak bytes per colour slot (tracemalloc): 24 for each vertex's keep mask and
    # rank, 40 for an uncoloured one's colours, 72 for an edge between two of them.
    n, k = len(idx), rows.shape[1]
    nbytes = k * (24 * n + 40 * len(uncoloured) + 72 * int(inner.sum()))
    budget.check(f"residual masks of {n} x {k} entries", nbytes)
    keep = _in_set(c.sizes, k)
    out = (idx[eu] >= 0) & (idx[ev] < 0)  # coloured u, uncoloured v
    j = rows[out, idx[eu[out]]]
    keep[ev[out][j >= 0], j[j >= 0]] = False
    into = (idx[eu] < 0) & (idx[ev] >= 0)  # uncoloured u, coloured v
    e, i = np.nonzero(rows[into] == idx[ev[into]][:, None])
    keep[eu[into][e], i] = False

    sizes = keep[uncoloured].sum(axis=1)
    rank = np.cumsum(keep, axis=1) - 1
    su, sv, rows = eu[inner], ev[inner], rows[inner]
    e, i = np.nonzero(rows >= 0)
    j = rows[e, i]
    ok = keep[su[e], i] & keep[sv[e], j]
    fwd = _map_array(len(rows), int(sizes.max(initial=0)), -1)
    fwd[e[ok], rank[su[e[ok]], i[ok]]] = rank[sv[e[ok]], j[ok]]
    values = np.full((len(uncoloured), fwd.shape[1]), -1, dtype=np.int64)
    r, i = np.nonzero(keep[uncoloured])
    values[r, rank[uncoloured[r], i]] = c.values[uncoloured[r], i]
    # Ascending old ids keep the induced edges in the (u, v) order of the rows.
    sub, old_ids = g.induced(uncoloured.tolist())
    c_sub = CorrespondenceAssignment._of(values, sizes, sub.edge_array(), fwd)
    return Residual(sub, c_sub, old_ids)
