"""Correspondence (DP-) colouring: colour sets plus per-edge matchings.

Every edge carries a partial injective map between the endpoint colour sets;
a colouring is valid when no edge's endpoint colours are matched by its map.
List colouring embeds as the special case where every map is the identity on
shared colours.

Maps are stored as colour indices, once per edge on the canonical orientation
min(u, v) -> max(u, v): `edges` (E x 2, sorted by (u, v), the order of
Graph.edges()) and `fwd` (E x kmax, kmax the largest set size), where
fwd[e, i] is the index at v of the colour matched with u's i-th colour, or -1
if that colour is unmatched.  The reverse direction is the inverse, which
makes the inversion-consistency invariant hold by construction.  Embedding
lists, truncating, totalizing, checking and taking residuals work on these
arrays with no Python loop over the edges; `edge_maps` is a read-only dict
view of them, built on demand, and dict maps are converted on construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .graph import Graph

# A partial colouring is a plain dict vertex -> colour; absent keys are
# uncoloured vertices.
PartialColouring = dict[int, int]

# Map entries, 2mk for m maps of width k (both directions, as the compiled
# round engine holds them), past which an assignment is refused before its
# arrays are allocated.  An entry takes 8 bytes compiled and 1 stored.
ASSIGNMENT_ENTRIES_CAP = 20_000_000


class AssignmentError(ValueError):
    """Raised for malformed correspondence assignments."""


def _map_array(rows: int, width: int, fill) -> np.ndarray:
    """A (rows x width) map array set to `fill`, refused above the cap before
    it is allocated."""
    if 2 * rows * width > ASSIGNMENT_ENTRIES_CAP:
        raise AssignmentError(
            f"assignment would have {2 * rows * width} map entries (about "
            f"{18 * rows * width / 2**20:.0f} MiB stored and compiled), above "
            f"the cap of {ASSIGNMENT_ENTRIES_CAP} entries"
        )
    out = np.empty((rows, width), dtype=np.int16 if width < 2**15 else np.int32)
    out[...] = fill
    return out


def _in_set(sizes: np.ndarray, width: int) -> np.ndarray:
    """(n, width) mask of the indices inside each vertex's set."""
    return np.arange(width) < sizes[:, None]


class CorrespondenceAssignment:
    """Per-vertex colour sets and per-edge partial injective colour maps.

    `colour_sets[u]` is a sorted tuple of the colours at u, `sizes` their
    sizes, and `edges` and `fwd` hold the maps.  `edge_maps[(u, v)]` (u < v)
    maps colours of u injectively to colours of v; the reverse map is the
    inverse.  Built from dict maps, an assignment refuses, naming the vertex
    or edge, an unsorted or repeating colour set, a key that is not
    canonical, a non-injective map and one using colours outside its
    endpoint sets.  Equality compares colour sets and maps.
    """

    __slots__ = ("colour_sets", "sizes", "edges", "fwd", "_values", "_row_of")

    def __init__(
        self,
        colour_sets: Sequence[Sequence[int]],
        edge_maps: Mapping[tuple[int, int], Mapping[int, int]],
    ):
        sets = tuple(tuple(s) for s in colour_sets)
        for u, s in enumerate(sets):
            if list(s) != sorted(set(s)):
                raise AssignmentError(f"colour set of {u} not sorted/unique")
        keys = sorted(edge_maps)
        fwd = _map_array(len(keys), max(map(len, sets), default=0), -1)
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
        self._set(sets, np.array(keys, dtype=np.int64).reshape(-1, 2), fwd)

    @classmethod
    def _of(cls, colour_sets, edges: np.ndarray, fwd: np.ndarray):
        """From arrays that hold the invariants, fwd as wide as the largest set."""
        c = cls.__new__(cls)
        c._set(colour_sets, edges, fwd)
        return c

    def _set(self, colour_sets, edges, fwd) -> None:
        self.colour_sets: tuple[tuple[int, ...], ...] = colour_sets
        self.sizes = np.fromiter(map(len, colour_sets), np.int64, len(colour_sets))
        self.edges, self.fwd, self._values, self._row_of = edges, fwd, None, None

    def __eq__(self, other: object) -> bool:
        # Equal sets give equal widths, so equal arrays are equal maps.
        return isinstance(other, CorrespondenceAssignment) and (
            self.colour_sets == other.colour_sets
            and np.array_equal(self.edges, other.edges)
            and np.array_equal(self.fwd, other.fwd)
        )

    @property
    def edge_maps(self) -> Mapping[tuple[int, int], dict[int, int]]:
        """Every map as a dict, read-only; built afresh on each access."""
        edges = self.edges.tolist()
        return MappingProxyType({(u, v): self.map_between(u, v) for u, v in edges})

    def values(self) -> np.ndarray:
        """Colour sets as a read-only (n, kmax) int64 array padded with -1."""
        if self._values is None:
            shape = (len(self.sizes), self.fwd.shape[1])
            self._values = np.full(shape, -1, dtype=np.int64)
            self._values[_in_set(self.sizes, shape[1])] = np.fromiter(
                chain.from_iterable(self.colour_sets), np.int64, int(self.sizes.sum())
            )
            self._values.flags.writeable = False
        return self._values

    def min_size(self) -> int:
        return int(self.sizes.min()) if self.colour_sets else 0

    def map_between(self, u: int, v: int) -> dict[int, int]:
        """The colour map from u to v (inverting the stored orientation)."""
        if self._row_of is None:
            self._row_of = {(a, b): e for e, (a, b) in enumerate(self.edges.tolist())}
        row = self._row_of.get((min(u, v), max(u, v)))
        if row is None:
            return {}
        a, b = self.colour_sets[min(u, v)], self.colour_sets[max(u, v)]
        pairs = [(a[i], b[j]) for i, j in enumerate(self.fwd[row].tolist()) if j >= 0]
        return dict(pairs) if u < v else {c2: c1 for c1, c2 in pairs}

    def correspondent(self, u: int, v: int, colour: int) -> Optional[int]:
        """Colour at v matched with `colour` at u, or None if unmatched."""
        return self.map_between(u, v).get(colour)

    def corresponds(self, u: int, v: int, cu: int, cv: int) -> bool:
        """True when colour cu at u and colour cv at v are matched."""
        return self.correspondent(u, v, cu) == cv


def _indices(c: CorrespondenceAssignment, f: PartialColouring) -> Optional[np.ndarray]:
    """Per vertex, the index of its colour under f (-1 where f has none);
    None when some colour lies outside its vertex's set."""
    idx = np.full(len(c.colour_sets), -1, dtype=np.int64)
    if f:
        us = np.fromiter(f.keys(), np.int64, len(f))
        hit = c.values()[us] == np.fromiter(f.values(), np.int64, len(f))[:, None]
        hit &= _in_set(c.sizes[us], c.fwd.shape[1])
        if not hit.any(axis=1).all():
            return None
        idx[us] = hit.argmax(axis=1)
    return idx


def _rows_on(g: Graph, c: CorrespondenceAssignment) -> np.ndarray:
    """c's map rows for g's edges in edges() order; an edge without a map
    gets an empty row."""
    edges = g.edge_array()
    if np.array_equal(c.edges, edges):
        return c.fwd
    span = max(g.n, len(c.colour_sets))
    keys, wanted = c.edges @ [span, 1], edges @ [span, 1]  # both ascending
    at = np.minimum(np.searchsorted(keys, wanted), max(len(keys) - 1, 0))
    hit = keys[at] == wanted if len(keys) else np.zeros(len(edges), dtype=bool)
    rows = np.full((len(edges), c.fwd.shape[1]), -1, dtype=c.fwd.dtype)
    rows[hit] = c.fwd[at[hit]]
    return rows


def validate_assignment(g: Graph, c: CorrespondenceAssignment) -> None:
    """Check what needs the host graph (construction checks the rest): one
    colour set per vertex, no negative colour and no map on a non-edge."""
    if len(c.colour_sets) != g.n:
        raise AssignmentError("colour set count does not match vertex count")
    negative = ((c.values() < 0) & _in_set(c.sizes, c.fwd.shape[1])).any(axis=1)
    if negative.any():
        raise AssignmentError(f"negative colour at vertex {negative.argmax()}")
    known = np.isin(c.edges @ [g.n, 1], g.edge_array() @ [g.n, 1])
    if not known.all():
        u, v = c.edges[known.argmin()].tolist()
        raise AssignmentError(f"edge map for non-edge ({u},{v})")


def is_total(g: Graph, c: CorrespondenceAssignment) -> bool:
    """True when every edge map is a bijection between its endpoint sets."""
    matched = (_rows_on(g, c) >= 0).sum(axis=1)
    eu, ev = g.edge_array().T
    return bool(np.all((matched == c.sizes[eu]) & (matched == c.sizes[ev])))


def from_lists(
    g: Graph, lists: Sequence[Iterable[int]]
) -> CorrespondenceAssignment:
    """Embed a list assignment: identity maps on shared colours per edge.

    A colouring is then valid iff it is a proper list colouring.  Equal lists
    give identity rows.  Otherwise every colour gets its rank among all
    colours, offset by its vertex times the number of ranks, and one search
    of these ascending keys finds each colour of u among v's.
    """
    colour_sets = tuple(tuple(sorted(set(l))) for l in lists)
    if len(colour_sets) != g.n:
        raise AssignmentError("need one colour list per vertex")
    for u, s in enumerate(colour_sets):
        if not s:
            raise AssignmentError(f"empty colour list at vertex {u}")
    edges, width = g.edge_array(), max(map(len, colour_sets), default=0)
    if len(set(colour_sets)) <= 1:
        fwd = _map_array(len(edges), width, np.arange(width))
        return CorrespondenceAssignment._of(colour_sets, edges, fwd)
    fwd = _map_array(len(edges), width, -1)
    c = CorrespondenceAssignment._of(colour_sets, edges, fwd)
    inside = _in_set(c.sizes, width)
    # Padding ranks last, so the keys ascend along every row and overall.
    padded = np.where(inside, c.values(), c.values().max() + 1)
    ranks, key = np.unique(padded, return_inverse=True)
    key = key.reshape(inside.shape) + len(ranks) * np.arange(g.n)[:, None]
    eu, ev = edges.T
    wanted = key[eu] + len(ranks) * (ev - eu)[:, None]
    at = np.minimum(np.searchsorted(key.ravel(), wanted), key.size - 1)
    e, i = np.nonzero((key.ravel()[at] == wanted) & inside[eu])
    fwd[e, i] = at[e, i] - ev[e] * width
    return c


def uniform_lists(g: Graph, k: int) -> CorrespondenceAssignment:
    """List assignment {0..k-1} at every vertex (identity maps, total)."""
    return from_lists(g, [range(k)] * g.n)


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
    sets = tuple(s[:k] for s in c.colour_sets)
    return CorrespondenceAssignment._of(sets, c.edges, fwd)


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
    fwd = _rows_on(g, c).copy()
    e, i = np.nonzero(fwd >= 0)
    used = np.zeros(fwd.shape, dtype=bool)
    used[e, fwd[e, i]] = True
    # A row has as many free indices at u as at v, and both masks list them
    # row by row in ascending order.
    fwd[fwd < 0] = np.nonzero(~used)[1]
    return CorrespondenceAssignment._of(c.colour_sets, g.edge_array(), fwd)


def is_valid_colouring(
    g: Graph, c: CorrespondenceAssignment, f: PartialColouring
) -> bool:
    """True iff every coloured vertex uses its own set and no edge with both
    ends coloured has matched colours."""
    idx = _indices(c, f)
    if idx is None:
        return False
    eu, ev = g.edge_array().T
    both = (idx[eu] >= 0) & (idx[ev] >= 0)
    return not (_rows_on(g, c)[both, idx[eu[both]]] == idx[ev[both]]).any()


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
    """
    if not is_valid_colouring(g, c, f):
        raise AssignmentError("partial colouring is not valid for the assignment")
    idx, rows = _indices(c, f), _rows_on(g, c)
    eu, ev = g.edge_array().T
    keep = _in_set(c.sizes, rows.shape[1])
    out = (idx[eu] >= 0) & (idx[ev] < 0)  # coloured u, uncoloured v
    j = rows[out, idx[eu[out]]]
    keep[ev[out][j >= 0], j[j >= 0]] = False
    into = (idx[eu] < 0) & (idx[ev] >= 0)  # uncoloured u, coloured v
    e, i = np.nonzero(rows[into] == idx[ev[into]][:, None])
    keep[eu[into][e], i] = False

    uncoloured = np.flatnonzero(idx < 0)
    sizes = keep[uncoloured].sum(axis=1)
    flat = c.values()[uncoloured][keep[uncoloured]].tolist()
    ends = np.cumsum(sizes).tolist()
    new_sets = tuple(tuple(flat[a:b]) for a, b in zip([0, *ends], ends))
    inner = (idx[eu] < 0) & (idx[ev] < 0)
    su, sv, rows = eu[inner], ev[inner], rows[inner]
    e, i = np.nonzero(rows >= 0)
    j = rows[e, i]
    ok = keep[su[e], i] & keep[sv[e], j]
    rank = np.cumsum(keep, axis=1) - 1
    fwd = _map_array(len(rows), int(sizes.max(initial=0)), -1)
    fwd[e[ok], rank[su[e[ok]], i[ok]]] = rank[sv[e[ok]], j[ok]]
    new_id = np.cumsum(idx < 0) - 1
    edges = np.stack([new_id[su], new_id[sv]], axis=1)
    sub, old_ids = g.induced(uncoloured.tolist())
    return Residual(sub, CorrespondenceAssignment._of(new_sets, edges, fwd), old_ids)
