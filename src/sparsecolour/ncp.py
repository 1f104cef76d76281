"""Randomised partial-colouring rounds and the iterative colouring driver.

One round, on a graph with a total correspondence assignment:

  Step 1: every vertex draws a tentative colour uniformly from its set.
  Step 2: every edge draws one of its two ends uniformly.
  Step 3: a vertex keeps its colour unless some incident edge both matches
          the endpoint colours under its map and points at that vertex.

A kept conflict is impossible, so the kept vertices always form a valid
partial colouring.  Repeated corresponding colours in a neighbourhood shrink
the residual lists more slowly than the residual degree, which is what the
iterative driver exploits; attempts whose statistics or quasirandomness fall
outside the configured thresholds are simply rerun with a fresh derived seed
(bounded whole-round restarts stand in for the existential argument that a
good outcome exists).

Common uncoloured neighbours are counted here alone, per trial
(`_nuv_counts`), for one uncoloured set (`quasirandom_check`) and as Monte
Carlo's sums from packed words (`_nuv_moments`), all through `_common_sums`.

Randomness is counter-based: every draw is a splitmix64 hash of
(seed, kind, entity id), so results are independent of iteration order,
and any trial can be replayed from its derived seed.

The residual sparsity experiment runs the same rounds, unrestarted, for a
few iterations and records how sparse each residual graph stays; it and the
driver build every residual through one step (`_residual_step`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import budget
from .bounds import savings_rate
from .correspondence import (
    CorrespondenceAssignment,
    PartialColouring,
    Residual,
    indices,
    is_valid_colouring,
    map_dtype,
    map_rows,
    residual_assignment,
    totalize,
    truncate,
)
from .graph import Graph, GraphError, and_counts, local_sparsity, min_degree_ordering

# -- counter-based randomness --------------------------------------------------

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

KIND_COLOUR = 0xC01
KIND_DIRECTION = 0xD12
KIND_RESTART = 0x5E5
KIND_ROUND = 0x707
KIND_TRIAL = 0x371


def _sm64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK
    x = ((x ^ (x >> 30)) * _M1) & _MASK
    x = ((x ^ (x >> 27)) * _M2) & _MASK
    return x ^ (x >> 31)


def derive_seed(*parts: int) -> int:
    """Fold integers into a 64-bit seed (order matters)."""
    h = _GOLDEN
    for p in parts:
        h = _sm64(h ^ (int(p) & _MASK))
    return h


_GOLDEN_NP, _M1_NP, _M2_NP = np.uint64(_GOLDEN), np.uint64(_M1), np.uint64(_M2)
_ONE, _S27, _S30, _S31 = np.uint64(1), np.uint64(27), np.uint64(30), np.uint64(31)


def _sm64_np(x: np.ndarray) -> np.ndarray:
    """splitmix64 of every entry, computed in place."""
    x += _GOLDEN_NP
    x ^= x >> _S30
    x *= _M1_NP
    x ^= x >> _S27
    x *= _M2_NP
    x ^= x >> _S31
    return x


def _derived_seeds(seed: int, kind: int, start: int, stop: int) -> np.ndarray:
    """derive_seed(seed, kind, t) for t = start..stop-1, as one uint64 array."""
    ids = np.arange(start, stop, dtype=np.uint64)
    ids ^= np.uint64(derive_seed(seed, kind))
    return _sm64_np(ids)


def _kind_bases(seeds: Sequence[int] | np.ndarray, kind: int) -> np.ndarray:
    """derive_seed(s, kind) for each seed s in [0, 2^64), as one uint64 array."""
    h = np.array(seeds, dtype=np.uint64)
    h ^= _GOLDEN_NP
    h = _sm64_np(h)
    h ^= np.uint64(kind)
    return _sm64_np(h)


def _entity_draws(seeds: Sequence[int] | np.ndarray, kind: int, ids: np.ndarray) -> np.ndarray:
    """derive_seed(seeds[i], kind, ids[j]) as entry (i, j) of one uint64
    array, hashed in one pass, for uint64 entity ids."""
    return _sm64_np(_kind_bases(seeds, kind)[:, None] ^ ids)


def _direction_bits(
    seeds: Sequence[int] | np.ndarray, trial: np.ndarray, edge_ids: np.ndarray
) -> np.ndarray:
    """derive_seed(seeds[trial[i]], KIND_DIRECTION, edge_ids[i]) & 1 for
    each i: the end, 0 for u and 1 for v, that edge u-v points at."""
    h = _kind_bases(seeds, KIND_DIRECTION).take(trial)
    h ^= edge_ids
    return (_sm64_np(h) & _ONE).astype(np.int64)


# -- round outcome and statistics ----------------------------------------------


def keep_probability(k: int, degree: int) -> float:
    """Probability (1 - 1/(2k))^degree that a vertex keeps its colour."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return (1.0 - 1.0 / (2.0 * k)) ** degree


@dataclass(frozen=True)
class RoundOutcome:
    """Full randomness record of one round.

    `f1` is the tentative colour per vertex, `direction[(u, v)]` the end the
    edge points at, `kept` the vertices that kept their tentative colour, and
    `f` the resulting (valid) partial colouring, i.e. f1 restricted to kept.
    """

    f1: tuple[int, ...]
    direction: dict[tuple[int, int], int]
    kept: frozenset[int]
    f: PartialColouring


@dataclass(frozen=True)
class RoundStats:
    """Derived statistics of a round outcome.

    col[u]   -- kept neighbours of u;
    dist[u]  -- distinct colours at u matched by kept neighbours' colours;
    pairs[u] -- non-adjacent kept pairs in N(u) matching one colour at u;
    triples[u] -- same for non-adjacent kept triples;
    common_uncoloured[(u, v)] -- |N(u) & N(v) & uncoloured| for pairs at
    distance <= 2 and u = v.
    """

    col: tuple[int, ...]
    dist: tuple[int, ...]
    pairs: tuple[int, ...]
    triples: tuple[int, ...]
    common_uncoloured: dict[tuple[int, int], int]


# Peak bytes per in-row and triangle candidate over the whole index build
# (tracemalloc: 41 on the PG(2,7) strong-edge core, 61 on K60).
STATS_ROW_BYTES = 72

# Map entries one chunk of `_Compiled._inconsistent` gathers per map.
TEST_CHUNK_ENTRIES = 1 << 16


def _check_compiled(what: str, n: int, m: int, kmax: int, rows: int) -> None:
    """Refuse a compiled instance past the budget: `rows` map rows of kmax
    entries at `map_dtype(kmax)` (a direction map is 2m; a ball of the
    regularised copy also holds g's total assignment and map rows while it
    gathers its own), twenty int64 arrays of m entries, four of n, and the
    index buffers of `map_rows`'s scatter (150 KB traced on large rows)."""
    entries = rows * kmax * map_dtype(kmax).itemsize
    nbytes = entries + 8 * (20 * m + 4 * n) + 160 * 1024
    budget.check(f"{what} of {n} vertices, {m} edges and {kmax} colours", nbytes)


class _Compiled:
    """Array form of (graph, total assignment) for fast rounds and stats.

    One constructor takes the instance as arrays: edge e is eu[e] - ev[e],
    sorted by (u, v) with u < v; `rows[e, 0]` and `rows[e, 1]` are its map
    rows u->v and v->u, each entry the colour index at the target matched
    with the source's colour index (-1 if none); `k_arr` is the set size per
    vertex and `colour_values` the colour sets padded to (focus, kmax).
    `vertex_ids` and `edge_ids` (uint64) key each vertex's colour draw and
    each edge's direction draw.  `_compile(g, c)` builds a whole instance,
    which is its own focus, keyed 0..n-1 and 0..m-1, and
    `_regularize_with_assignment` the radius-2 ball of the regularised copy
    of one around its vertices, keyed by their ids in the whole copy.  Only
    the vertices below `focus`, one per row of `colour_values`, are real:
    statistic rows, common-uncoloured pairs, outcomes and statistics cover
    them alone, while the draws and the keep rule still run on every
    vertex; a ball's kept flags are exact within distance 1 of the focus,
    all that the statistics read.  The direction map is `rows` read as
    (2m x kmax), unwidened: row 2e is u->v and row 2e+1 is v->u.  The
    statistic index and the common-neighbour rows are built together, on
    first use, from one listing of neighbour pairs (`_build_stats`), and
    the pairs' tuples on first read (`nuv_pairs`).
    `identity` records once whether every map row is the identity,
    `dir_map[r, i] == i` for every entry, as uniform lists give; it is
    False whenever some edge's ends have sets of different sizes, since
    the entries past a set are -1.  `_row_classes` then reads a row's class
    as its source's colour index, with no gather from the map.
    """

    def __init__(self, eu, ev, rows, k_arr, colour_values, max_degree, vertex_ids, edge_ids):
        self.n, self.m, self.focus = len(k_arr), len(eu), len(colour_values)
        self.vertex_ids, self.edge_ids = vertex_ids, edge_ids
        self.kmax = max(rows.shape[2], 1)
        dir_map = rows.reshape(2 * self.m, self.kmax)
        self.eu, self.ev, self.dir_map, self.k_arr = eu, ev, dir_map, k_arr
        self.colour_values, self.max_degree = colour_values, max_degree
        self.k_draw = k_arr.astype(np.uint64)
        self.ends = np.stack([eu, ev], axis=1)  # ends[e, d]: where bit d points
        self.dir_src, self.dir_dst = self.ends.reshape(-1), self.ends[:, ::-1].reshape(-1)
        self.dir_flat = dir_map.reshape(-1)  # entry (row, i) at row * kmax + i
        self.identity = _identity_rows(dir_map)
        # The rows looked up once per trial: the forward row of every edge,
        # in the order fwd_edge (those into vertices outside the focus
        # first), then the backward rows into focus vertices.  The keep rule
        # reads the first m; the statistics read the rows into focus
        # vertices, which start at stat_start.
        outside = ev >= self.focus
        self.fwd_edge = np.argsort(~outside, kind="stable")
        self.fwd_dst = ev[self.fwd_edge]
        self.stat_start = int(np.count_nonzero(outside))
        backward_rows = 2 * np.flatnonzero(eu < self.focus) + 1
        look_rows = np.concatenate([2 * self.fwd_edge, backward_rows])
        self.stat_rows = look_rows[self.stat_start :]
        self.stat_src = self.dir_src[self.stat_rows]
        self.stat_dst = self.dir_dst[self.stat_rows]
        # Distinct negative stand-ins, -stat_shift, for the class of an
        # uncoloured source.
        self.stat_shift = 1 + np.arange(len(self.stat_rows), dtype=np.int64)
        self.look_src = self.dir_src[look_rows]
        self.look_base = look_rows * self.kmax
        self._stats_built = False
        self._nuv_built = False

    # Lazily built structures for pair/triple statistics.
    def _build_stats(self) -> None:
        """Index the edges and triangles inside each focus neighbourhood
        that a kept mask can make count, and the common neighbourhoods
        (`nuv_*`), from one `_neighbour_pairs` listing of the statistic rows
        a -> u read as u -> a, and of those from outside the focus as they
        are.  An entry is a focus vertex u and, per member, the statistic
        row of its edge into u: `in_rows` holds the edges a-b inside N(u)
        as (u, a, b), a < b, whose triangle u-a-b is inconsistent
        (`_inconsistent`), and `tri_rows` the triangles a < b < c as (u, a,
        b, c), one field per row, from pairs of in-rows (u, a, b), (u, a, c)
        with b-c an edge; paths are counted from the in-rows by
        `_stats_arrays`.  On identity maps every triangle is consistent,
        so both are empty and the edges inside neighbourhoods are not
        listed.  The candidate in-rows are entries of the listing, whose
        check bounds their test; the in-rows kept and the triangle
        candidates are checked at STATS_ROW_BYTES a row before listing.
        """
        if self._stats_built:
            return
        src, dst, n = self.stat_src, self.stat_dst, self.n
        out = np.flatnonzero(src >= self.focus)
        # Every arc as its distinct key middle * n + end, sorted.
        arcs = np.concatenate([dst * n + src, src[out] * n + dst[out]])
        order = None if self.identity else np.argsort(arcs)
        middle, end = np.divmod(np.sort(arcs) if order is None else arcs[order], max(n, 1))
        del arcs
        edge_keys = self.eu * n + self.ev  # ascending, as the edges are sorted
        found, nuv = _neighbour_pairs(middle, end, edge_keys, n, self.focus, order is not None)
        self.nuv_keys, self.nuv_sizes, self.nuv_concat, self.nuv_pair_of_entry = nuv
        if found is None:  # identity maps make every triangle consistent
            self.in_rows = np.empty((3, 0), dtype=np.int64)
            self.tri_rows = np.empty((4, 0), dtype=np.int64)
            self._stats_built = True
            return
        row = np.concatenate([np.arange(len(src)), out])[order]
        a, b = found
        inconsistent = self._inconsistent(row[a], row[b], edge_keys)
        a, b = a[inconsistent], b[inconsistent]
        self.in_rows = np.array([middle[a], row[a], row[b]])
        # The in-rows run in (u, a, b) order: those sharing (u, a) are consecutive.
        run_end = np.searchsorted(a, a, side="right")
        rows = len(a) + _pair_count(run_end, 1)
        budget.check(f"statistic index of up to {rows} rows", rows * STATS_ROW_BYTES)
        first, second = _group_pairs(run_end, 1)
        closed = _in_sorted(edge_keys, end[b[first]] * self.n + end[b[second]])
        first, second = first[closed], second[closed]
        # Filled in place: the triangles can be the largest arrays built.
        tri = self.tri_rows = np.empty((4, len(first)), dtype=np.int64)
        tri[0], tri[1] = middle[a[first]], row[a[first]]
        tri[2], tri[3] = row[b[first]], row[b[second]]
        self._stats_built = True

    def _inconsistent(self, first: np.ndarray, second: np.ndarray, edge_keys) -> np.ndarray:
        """Whether the triangle u-a-b of each pair of statistic rows first[i]
        (a -> u) and second[i] (b -> u), a < b and a-b an edge, is
        inconsistent: some colour index x of a has u->b(a->u(x)) != a->b(x).

        In a consistent triangle, two kept ends of a-b in one class at u
        would have corresponding colours, and the keep rule uncolours an end
        of every such edge; so only an inconsistent triangle's in-row can
        count.  The maps are gathered at their dtype, TEST_CHUNK_ENTRIES map
        entries at a time."""
        found = np.empty(len(first), dtype=bool)
        step = max(1, TEST_CHUNK_ENTRIES // self.kmax)
        for lo in range(0, len(first), step):
            ra, rb = first[lo : lo + step], second[lo : lo + step]
            a_u = self.dir_map[self.stat_rows[ra]]
            u_b = self.dir_map[self.stat_rows[rb] ^ 1]
            ab_key = self.stat_src[ra] * self.n + self.stat_src[rb]
            a_b = self.dir_map[2 * np.searchsorted(edge_keys, ab_key)]
            # -1 past a's set, where a->b is -1 too.
            via_u = np.take_along_axis(u_b, a_u, axis=1)
            found[lo : lo + step] = ((via_u != a_b) & (a_u >= 0)).any(axis=1)
        return found

    def _build_nuv(self) -> None:
        """The common-neighbour rows `nuv_*`, which `_build_stats` builds."""
        self._build_stats()
        self._nuv_built = True

    @functools.cached_property
    def nuv_pairs(self) -> list[tuple[int, int]]:
        """The distance-<=2 pairs of `nuv_keys` as (x, y) tuples, made on
        first read, by the reports and round statistics that key by them."""
        self._build_stats()
        return _pair_tuples(self.nuv_keys, self.n, self.focus)


def _identity_rows(dir_map: np.ndarray) -> bool:
    """Whether `dir_map[r, i] == i` for every entry, tested TEST_CHUNK_ENTRIES
    map entries at a time, so that no (rows x kmax) temporary is made."""
    rows, kmax = dir_map.shape
    step = max(1, TEST_CHUNK_ENTRIES // kmax)
    ident = np.arange(kmax, dtype=dir_map.dtype)
    return all((dir_map[lo : lo + step] == ident).all() for lo in range(0, rows, step))


def _compile(g: Graph, c: CorrespondenceAssignment) -> _Compiled:
    """The whole instance (g, c), c total, compiled; every vertex is in its
    focus."""
    _check_compiled("compiled instance", g.n, g.m, max(c.fwd.shape[1], 1), 2 * g.m)
    ids = np.arange(g.n, dtype=np.uint64), np.arange(g.m, dtype=np.uint64)
    return _Compiled(*map_rows(g, c), c.sizes, c.values, g.max_degree(), *ids)


def _pair_count(group_end: np.ndarray, gap: int) -> int:
    """The number of pairs `_group_pairs(group_end, gap)` yields."""
    return int((group_end - np.arange(len(group_end)) - gap).sum())


def _group_pairs(group_end: np.ndarray, gap: int):
    """Every index pair (i, j) with i + gap <= j < group_end[i], in
    ascending order, where group_end[i] ends the run of entries holding i:
    gap 1 gives the pairs i < j within each run, gap 0 adds i = j."""
    idx = np.arange(len(group_end))
    later = group_end - idx - gap
    total = int(later.sum())
    # int32 indexes halve the transient memory where they can hold them.
    kind = np.int32 if total < 2**31 and len(idx) < 2**31 else np.int64
    first = np.repeat(idx.astype(kind), later)
    run_start = np.repeat((np.cumsum(later) - later).astype(kind), later)
    rank = np.arange(total, dtype=kind) - run_start
    rank += first
    rank += gap
    return first, rank


def _in_sorted(keys: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Whether each entry of `wanted` is in the ascending `keys`."""
    at = np.searchsorted(keys, wanted)
    np.minimum(at, len(keys) - 1, out=at)
    return keys[at] == wanted


# Peak bytes of the listing per entry, a middle and two of its neighbours,
# and per distance-<=2 pair, with the arcs it reads (tracemalloc, over the
# whole index build, in bytes per entry plus pair: 25 to 29 on K60, the
# PG(2,7) strong-edge core and C5 blow-ups, where the pairs are few; 27 to
# 33 on sparse random hosts and balls of regularised copies; 38 to 46 on
# perfect matchings, long paths and disjoint triangles, where the arcs are
# as many as the entries; within 2 of each other with or without the edges
# inside each neighbourhood).
DISTANCE2_ENTRY_BYTES = 42
DISTANCE2_PAIR_BYTES = 66

# Bits of the listing's sort keys; past them it takes a stable sort instead.
KEY_BITS = 63


def _check_distance2(entries: int, pairs: int = 0) -> None:
    nbytes = entries * DISTANCE2_ENTRY_BYTES + pairs * DISTANCE2_PAIR_BYTES
    budget.check(f"distance-2 pair index of {entries} entries", nbytes)


def _neighbour_pairs(middle, end, edge_keys, n: int, focus: int, inner: bool = True):
    """Every pair of arcs i <= j from one middle w, ends x = end[i] <= y =
    end[j], listed once in (w, x, y) order after the memory budget check,
    which is made again with the pairs once they are counted.

    The arcs w -> x, sorted by (w, x), are those of an n-vertex graph that
    touch its focus 0..focus-1; `edge_keys` are its edges' ascending keys
    u * n + v, u < v.  Returns (inner, common): `inner`, the entries (i, j)
    with w in the focus and x - y an edge (the edges inside N(w)), or None
    when `inner` is False, and then only the arcs that end in the focus are
    read; `common`, every pair x <= y < focus at distance <= 2, ascending,
    with x = y and adjacent pairs even with no common neighbour, as (keys,
    sizes, concat, pair_of_entry): each pair's key x * n + y, the common
    neighbourhoods one after another in `concat`, each sorted, their sizes,
    and the pair of each entry of `concat`.
    """
    if not inner and focus < n:
        keep = end < focus
        middle, end = middle[keep], end[keep]
    group_end = np.searchsorted(middle, middle, side="right")
    entries = _pair_count(group_end, 0)
    _check_distance2(entries)
    i, j = _group_pairs(group_end, 0)
    key = end[i] * n  # x * n + y
    key += end[j]
    found = None
    if inner:
        # The entries from middles in the focus come first, as i ascends;
        # no key of x = y is an edge's.
        stop = int(np.searchsorted(i, np.searchsorted(middle, focus)))
        edge = np.empty(stop, dtype=bool)
        for lo in range(0, stop, TEST_CHUNK_ENTRIES):
            edge[lo : lo + TEST_CHUNK_ENTRIES] = _in_sorted(
                edge_keys, key[lo : min(lo + TEST_CHUNK_ENTRIES, stop)]
            )
        found = np.flatnonzero(edge)
        found = i[found], j[found]
        del edge
        if focus < n:  # x <= y, so y < focus puts both ends in the focus
            common = np.flatnonzero(end[j] < focus)
            i, key = i[common], key[common]
    del j
    # Marks, sentinel entries w + 1 = 0: x = x for an x that no arc ends at,
    # and every adjacent pair, are pairs even with no common neighbour.
    alone = np.flatnonzero(np.bincount(end, minlength=focus)[:focus] == 0)
    marks = np.concatenate([alone * (n + 1), edge_keys[edge_keys % max(n, 1) < focus]])
    keys = np.concatenate([marks, key])
    del key
    bits = max(n, 1).bit_length()  # w + 1 <= n fits in them
    if (focus * n) << bits <= 1 << KEY_BITS:
        # One sort of ((x n + y) << bits) + w + 1 lists the pairs in (x, y)
        # order, a mark first, and each common neighbourhood ascending.
        keys <<= bits
        tail = keys[len(marks) :]
        tail += middle[i]
        tail += 1
        del i, tail
        keys.sort()
        w1 = keys & ((1 << bits) - 1)
        keys >>= bits
    else:  # a stable sort keeps the marks first and the middles ascending
        w1 = np.zeros(len(keys), dtype=np.int64)
        w1[len(marks) :] = middle[i] + 1
        del i
        order = np.argsort(keys, kind="stable")
        keys, w1 = keys[order], w1[order]
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    start = np.flatnonzero(first)
    pair_keys = keys[start]
    del keys, first
    sizes = np.diff(start, append=len(w1)) - (w1[start] == 0)
    _check_distance2(entries, len(sizes))
    concat = w1[w1 != 0]
    concat -= 1
    pair_of_entry = np.repeat(np.arange(len(sizes)), sizes)
    return found, (pair_keys, sizes, concat, pair_of_entry)


# Peak bytes per pair of `_pair_tuples`: its tuple, the list's pointer to it,
# the two lists of ends it zips and, as there are at least as many pairs as
# vertices, an int object per vertex (tracemalloc: 78 on sparse random
# hosts, 106 on a perfect matching).
PAIR_TUPLE_BYTES = 120


def _pair_tuples(keys: np.ndarray, n: int, focus: int) -> list[tuple[int, int]]:
    """The pairs with keys x * n + y, x <= y < focus, as (x, y) tuples of
    one int object per vertex, after the memory budget check."""
    budget.check(f"distance-2 pair tuples of {len(keys)} pairs", len(keys) * PAIR_TUPLE_BYTES)
    vertex = np.fromiter(range(focus), object, focus)
    low, high = (vertex.take(x).tolist() for x in np.divmod(keys, max(n, 1)))
    return list(zip(low, high))


def _row_classes(comp: _Compiled, f1_idx: np.ndarray) -> np.ndarray:
    """The class of every looked-up row under (B, n) int64 colour indices:
    the colour index at the row's target matched with its source's colour
    (-1 if none), shape (B, L), as int64 for `_stats_arrays`' keys.  Where
    every map row is the identity (`comp.identity`), that is the source's
    own colour index, taken with no gather from the map."""
    src_idx = f1_idx.take(comp.look_src, axis=1)
    if comp.identity:
        return src_idx
    return comp.dir_flat.take(comp.look_base + src_idx).astype(np.int64)


def _round_arrays(comp: _Compiled, seeds: Sequence[int] | np.ndarray):
    """Execute one round per seed, all at once.

    Returns (f1_idx, kept, cls), one row per seed: the colour index per
    vertex (B, n), the kept mask (B, n) and the class of every looked-up
    row (B, L), which the keep rule reads here and `_stats_arrays` reads
    again.  Row i is what seed i alone gives.  The keep rule reads the
    direction of an edge only where its ends' colours correspond, so only
    those edges' bits are hashed; `_outcome_from_arrays` hashes the rest of
    the one outcome it builds.
    """
    f1_idx = (_entity_draws(seeds, KIND_COLOUR, comp.vertex_ids) % comp.k_draw).astype(np.int64)
    cls = _row_classes(comp, f1_idx)
    kept = np.ones(f1_idx.shape, dtype=bool)
    conflicts = np.flatnonzero(cls[:, : comp.m] == f1_idx.take(comp.fwd_dst, axis=1))
    trial, e = np.divmod(conflicts, max(comp.m, 1))  # faster than a 2-d nonzero
    e = comp.fwd_edge[e]
    kept[trial, comp.ends[e, _direction_bits(seeds, trial, comp.edge_ids.take(e))]] = False
    return f1_idx, kept, cls


# Peak bytes of `_stats_arrays` per class count (one per trial, colour index
# and focus vertex): an int64 count and its four int64 terms (tracemalloc: 40).
CLASS_COUNT_BYTES = 48


def _stats_arrays(comp: _Compiled, cls: np.ndarray, kept: np.ndarray):
    """Col, Dist, pair and triple counts per trial and focus vertex, from
    class counts.

    `cls` and `kept` are B trials' row classes and kept masks, (B, L) and
    (B, n) as `_round_arrays` returns them; each result is (B, focus).  The
    kept mask must be one the keep rule can give: no edge inside a focus
    neighbourhood has two kept ends with corresponding colours, since the
    statistic index holds the in-rows of inconsistent triangles alone.  A
    kept neighbour a of u belongs to the class of the colour at u matched
    with a's colour.  Pair/triple counts over all same-class kept members
    are corrected down to non-adjacent ones by inclusion-exclusion over the
    edges, paths and triangles inside each neighbourhood.  A statistic row
    (an edge a->u) has as value a's class if a is kept and a negative id of
    its own otherwise, so "same class, all kept" is plain equality of
    values.  A path x-w-y inside N(u) with three equal values is a pair of
    same-valued in-rows at w's row, so the paths are counted, not listed.
    """
    comp._build_stats()
    trials, n, kmax = len(kept), comp.focus, comp.kmax
    rows = len(comp.stat_src)
    cls = cls[:, comp.stat_start :]
    kept_src = kept.take(comp.stat_src, axis=1)
    # counts[b, i, u]: kept neighbours of u in the class of u's i-th colour.
    key = cls * n
    key += comp.stat_dst
    key += np.arange(0, trials * kmax * n, kmax * n)[:, None]
    counts = np.bincount(np.compress(kept_src.ravel(), key), minlength=trials * kmax * n)
    counts = counts.reshape(trials, kmax, n)
    terms = _class_terms(comp.max_degree).take(counts, axis=0).sum(axis=1)
    col, dist, p_u, t_u = terms[..., 0], terms[..., 1], terms[..., 2], terms[..., 3]

    # Triple corrections as (trial * n + u, weight), summed in one pass;
    # only they read the values, so none are made when both indexes are
    # empty, as on uniform lists.
    keys, weights = [], []
    if comp.in_rows.size or comp.tri_rows.size:
        # The class if kept and -stat_shift otherwise, branch-free.
        val = cls + comp.stat_shift
        val *= kept_src
        val -= comp.stat_shift
    u, a, b = comp.in_rows
    if u.size:
        val_a = val.take(a, axis=1)
        trial, row = (val_a == val.take(b, axis=1)).nonzero()
        u_hit = u.take(row)
        hit = trial * n + u_hit
        p_u -= np.bincount(hit, minlength=trials * n).reshape(trials, n)
        keys.append(hit)
        weights.append(2 - counts[trial, val_a[trial, row], u_hit])
        # Same-valued in-rows per (trial, row); their pairs at w's row are
        # the paths x-w-y.
        at_row = trial * rows
        same_at = np.bincount(
            np.concatenate([at_row + a.take(row), at_row + b.take(row)]),
            minlength=trials * rows,
        ).reshape(trials, rows)
        trial, row = (same_at > 1).nonzero()
        keys.append(trial * n + comp.stat_dst.take(row))
        weights.append(_class_terms(comp.max_degree)[same_at[trial, row], 2])
    u, a, b, c = comp.tri_rows
    if u.size:
        val_b = val.take(b, axis=1)
        equal = (val.take(a, axis=1) == val_b) & (val_b == val.take(c, axis=1))
        trial, row = equal.nonzero()
        keys.append(trial * n + u.take(row))
        weights.append(np.full(len(row), -1))
    if keys:
        t_u += np.bincount(
            np.concatenate(keys), weights=np.concatenate(weights), minlength=trials * n
        ).astype(np.int64).reshape(trials, n)
    return col, dist, p_u, t_u


@functools.lru_cache(maxsize=8)
def _class_terms(max_degree: int) -> np.ndarray:
    """Per class size c <= max_degree: c, [c > 0], C(c, 2) and C(c, 3)."""
    c = np.arange(max_degree + 1)
    terms = np.array([c, c > 0, c * (c - 1) // 2, c * (c - 1) * (c - 2) // 6]).T.copy()
    terms.flags.writeable = False  # shared by every caller through the cache
    return terms


def _common_sums(values: np.ndarray, concat: np.ndarray, pair_of_entry: np.ndarray, pairs: int):
    """Per distance-<=2 pair, the float64 sum of the (n,) `values` over its
    common neighbourhood, given as `_neighbour_pairs` lists them."""
    return np.bincount(pair_of_entry, weights=values[concat], minlength=pairs)


def _nuv_counts(comp: _Compiled, kept: np.ndarray) -> np.ndarray:
    """|N(u) & N(v) & uncoloured| per trial and distance-<=2 pair, (B, P)
    from (B, n) kept masks."""
    comp._build_nuv()
    pairs = len(comp.nuv_keys)
    rows = (comp.nuv_concat, comp.nuv_pair_of_entry, pairs)
    counts = [_common_sums(uncoloured, *rows) for uncoloured in ~kept]
    return np.array(counts, dtype=np.int64).reshape(len(kept), pairs)


# Rows per chunk of the cross term's pair index, whose sum over pairs p of
# |C_p|(|C_p| - 1)/2 rows grows like the fourth power of the degree on dense
# graphs, however many trials or pairs.
CROSS_CHUNK_ROWS = 1 << 16


def _pack_words(bits: np.ndarray) -> np.ndarray:
    """One uint64 per column of a (<= 64, n) bool array, bit i from row i
    (in packbits' order)."""
    packed = np.zeros((8, bits.shape[1]), dtype=np.uint8)
    packed[: (len(bits) + 7) // 8] = np.packbits(bits, axis=0)
    return np.ascontiguousarray(packed.T).view(np.uint64).ravel()


def _nuv_moments(comp: _Compiled, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum_t nuv_t(p) and sum_t nuv_t(p)^2 per distance-<=2 pair p, int64,
    from the (n, blocks) words of `_pack_words`: with U_w vertex w's word,
    the first sums popcount(U_w) over p's common neighbourhood C_p and every
    block, and the second adds twice the sum of popcount(U_w & U_w') over
    w < w' in C_p.  That cross term costs O(sum |C_p|^2) word operations a
    block, against O(64 sum |C_p|) trial by trial, so it pays on sparse
    graphs and costs more where common neighbourhoods are large (C5 blow-ups)."""
    comp._build_nuv()
    pairs = len(comp.nuv_keys)
    uncoloured = np.bitwise_count(words).sum(axis=1, dtype=np.int64)
    total = _common_sums(uncoloured, comp.nuv_concat, comp.nuv_pair_of_entry, pairs)
    total = total.astype(np.int64)
    cross = np.zeros(pairs, dtype=np.int64)
    for w, w2, p, lo, hi in _common_pair_chunks(comp):
        both = and_counts(words, w, w2)
        cross[lo:hi] += np.bincount(p, weights=both, minlength=hi - lo).astype(np.int64)
    return total, total + 2 * cross


def _common_pair_chunks(comp: _Compiled):
    """Every pair w < w' of common neighbours of every distance-<=2 pair p.

    Yields (w, w', p - lo, lo, hi) for the pairs p in lo..hi-1, the arrays
    as int32; a chunk holds the rows of whole pairs, about CROSS_CHUNK_ROWS
    of them (more only when one pair alone has more).
    """
    sizes, concat, pair_of_entry = comp.nuv_sizes, comp.nuv_concat, comp.nuv_pair_of_entry
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    group_end = offsets[1:][pair_of_entry]
    per_pair = sizes * (sizes - 1) // 2
    chunk = (np.cumsum(per_pair) - per_pair) // CROSS_CHUNK_ROWS
    cuts = [0, *(np.flatnonzero(np.diff(chunk)) + 1).tolist(), len(sizes)]
    for lo, hi in zip(cuts, cuts[1:]):
        e0, e1 = offsets[lo], offsets[hi]
        first, second = (e0 + x for x in _group_pairs(group_end[e0:e1] - e0, 1))
        yield (
            concat[first].astype(np.int32),
            concat[second].astype(np.int32),
            (pair_of_entry[first] - lo).astype(np.int32),
            lo,
            hi,
        )


# Trials per kernel call, and rows per call over its trials: a trial's
# vertex and edge draws, its statistic, in-row and triangle rows and, where
# the call counts them, its common-uncoloured entries.  Larger slices spread
# numpy's per-call overhead over more trials, but their arrays outgrow the
# cache: in Monte Carlo on random 20-regular hosts the best slice was 8-16
# trials, on C5 blow-ups 32-64.  The draws count because the ball of a
# regularised copy draws on every vertex but keeps statistics on its focus
# alone.
SLICE_TRIALS = 64
SLICE_ROWS = 1 << 16


def _slice_width(comp: _Compiled, common_uncoloured: bool) -> int:
    """The most trials one kernel call takes on comp: at most SLICE_TRIALS,
    SLICE_ROWS rows (a trial's draws on all of comp, a whole instance or a
    ball, and its statistic rows on the focus) and the memory budget's
    worth of class counts (CLASS_COUNT_BYTES per colour index, focus vertex
    and trial), and at least one.  An instance whose one trial's class
    counts exceed the budget is refused before the indexes are built.  Row
    i of every kernel result is what trial i alone gives, so the width
    changes no result."""
    counts = max(CLASS_COUNT_BYTES * comp.kmax * comp.focus, 1)
    budget.check(f"class counts of {comp.kmax} colours on {comp.focus} vertices", counts)
    comp._build_stats()
    rows = comp.n + comp.m + len(comp.stat_src)
    rows += comp.in_rows.shape[1] + comp.tri_rows.shape[1]
    if common_uncoloured:
        rows += len(comp.nuv_concat)
    return min(SLICE_TRIALS, max(1, SLICE_ROWS // max(rows, 1)), budget.MEMORY_BUDGET // counts)


def _kept_colouring(comp: _Compiled, f1_idx: np.ndarray, kept: np.ndarray) -> PartialColouring:
    """The kept focus vertices' colours, {vertex: colour} in ascending
    vertex order, from one trial's colour indices and kept mask."""
    kept_ids = np.flatnonzero(kept[: comp.focus])
    return dict(zip(kept_ids.tolist(), comp.colour_values[kept_ids, f1_idx[kept_ids]].tolist()))


def _outcome_from_arrays(
    comp: _Compiled, seed: int, f1_idx: np.ndarray, kept: np.ndarray
) -> RoundOutcome:
    """The outcome of `seed` on the focus vertices and the edges between
    them, from its colour indices and kept mask."""
    focus = comp.focus
    f1 = tuple(comp.colour_values[np.arange(focus), f1_idx[:focus]].tolist())
    inside = np.flatnonzero(comp.ev < focus)
    dirs = _direction_bits([seed], np.zeros(len(inside), dtype=np.intp), comp.edge_ids[inside])
    direction = {
        (u, v): (u if d == 0 else v)
        for u, v, d in zip(
            comp.eu[inside].tolist(), comp.ev[inside].tolist(), dirs.tolist()
        )
    }
    f = _kept_colouring(comp, f1_idx, kept)
    return RoundOutcome(f1, direction, frozenset(f), f)


def run_round(g: Graph, c: CorrespondenceAssignment, seed: int) -> RoundOutcome:
    """One round on a total assignment; deterministic given the seed."""
    comp = _compile(g, c)
    seed = int(seed) & _MASK
    f1_idx, kept, _ = _round_arrays(comp, [seed])
    return _outcome_from_arrays(comp, seed, f1_idx[0], kept[0])


def _stats_record(comp: _Compiled, f1_idx: np.ndarray, kept: np.ndarray) -> RoundStats:
    """RoundStats of the focus vertices under one trial's colour indices
    and kept mask."""
    f1_idx, kept = f1_idx[None], kept[None]
    arrays = _stats_arrays(comp, _row_classes(comp, f1_idx), kept)
    col, dist, p_u, t_u = (tuple(x[0].tolist()) for x in arrays)
    nuv = _nuv_counts(comp, kept)[0]
    return RoundStats(col, dist, p_u, t_u, dict(zip(comp.nuv_pairs, nuv.tolist())))


def round_stats(
    g: Graph, c: CorrespondenceAssignment, outcome: RoundOutcome
) -> RoundStats:
    """Statistics of an outcome produced from (g, c): its tentative colours
    must come from c, and its kept vertices' colours, f, must form a valid
    partial colouring of (g, c), as the keep rule makes them."""
    comp = _compile(g, c)
    if len(outcome.f1) != comp.n:
        raise ValueError("outcome does not match the instance")
    f1_idx = indices(c, dict(enumerate(outcome.f1)))
    if f1_idx is None:
        raise ValueError("outcome uses colours outside the assignment")
    if not is_valid_colouring(g, c, {u: outcome.f1[u] for u in outcome.kept}):
        raise ValueError("outcome's kept colours are not a valid partial colouring")
    kept = np.zeros(comp.n, dtype=bool)
    kept[list(outcome.kept)] = True
    return _stats_record(comp, f1_idx, kept)


# -- quasirandomness -------------------------------------------------------------


def asymptotic_slack(max_degree: float) -> float:
    """sqrt(D) (ln D)^5 deviation allowance (0 for D <= 1).

    It exceeds D for every D from 4 to 10^15, and a pair's deviation is at
    most |N(u) & N(v)| <= D, so under this allowance the quasirandomness
    check cannot fail at those degrees."""
    if max_degree <= 1:
        return 0.0
    return math.sqrt(max_degree) * math.log(max_degree) ** 5


# The practical profile's statistic threshold, as a share of the asymptotic
# one, and the coefficient of its sqrt(D ln D) allowance.
PRACTICAL_TAU = 0.5
PRACTICAL_SLACK_COEFF = 3.0


def practical_slack(max_degree: float) -> float:
    """PRACTICAL_SLACK_COEFF sqrt(D ln D) deviation allowance, usable at
    small max degree (0 for D <= 1)."""
    if max_degree <= 1:
        return 0.0
    return PRACTICAL_SLACK_COEFF * math.sqrt(max_degree * math.log(max_degree))


@dataclass(frozen=True)
class QuasirandomReport:
    ok: bool
    worst_pair: Optional[tuple[int, int]]
    worst_deviation: float
    allowed: float


def quasirandom_check(
    g: Graph,
    uncoloured: set[int] | frozenset[int],
    mu: float,
    allowed: float,
) -> QuasirandomReport:
    """Check |#(N(u) & N(v) & uncoloured) - mu |N(u) & N(v)|| <= allowed
    for every pair at distance <= 2 and every u = v; report the worst pair."""
    src, dst = g.arc_sources(), g.indices
    edge_keys = (src * g.n + dst)[src < dst]
    _, (keys, sizes, concat, pair_of_entry) = _neighbour_pairs(src, dst, edge_keys, g.n, g.n, False)
    if not len(keys):
        return QuasirandomReport(True, None, -1.0, allowed)
    hits = np.isin(np.arange(g.n), list(uncoloured))
    dev = np.abs(_common_sums(hits, concat, pair_of_entry, len(keys)) - mu * sizes)
    worst = int(np.argmax(dev))  # the first pair of largest deviation
    worst_dev = float(dev[worst])
    return QuasirandomReport(worst_dev <= allowed, divmod(int(keys[worst]), g.n), worst_dev, allowed)


# -- restarted rounds -------------------------------------------------------------

# Rounds tried per iteration before the driver gives up.
MAX_RESTARTS = 200


@dataclass(frozen=True)
class RoundParams:
    """Thresholds a round must meet before it is accepted.

    `mu` is the expected uncoloured fraction used by the quasirandomness
    check and `slack` its allowance; `stat_threshold` is the minimum
    acceptable pairs-minus-triples count at every uncoloured vertex.
    """

    mu: float
    slack: float
    stat_threshold: float


def asymptotic_stat_threshold(k: int, max_degree: int, delta: float) -> float:
    """(1 - 1/ln D) (D delta / 2k e^{-D/k} - D^2 delta^{3/2} / 6k^2 e^{-7D/8k}) D.

    Reduces to 0 for max degree <= e (the factor would go negative)."""
    d = float(max_degree)
    if d <= 1 or k < 1:
        return 0.0
    factor = max(0.0, 1.0 - 1.0 / math.log(d))
    expr = (d * delta) / (2 * k) * math.exp(-d / k) - (
        d * d * delta**1.5
    ) / (6 * k * k) * math.exp(-7 * d / (8 * k))
    return factor * expr * d


def default_round_params(
    k: int,
    max_degree: int,
    delta: float,
    profile: str = "practical",
) -> RoundParams:
    """Thresholds at the given sparsity: the published formulas, or the
    `practical` profile which scales the statistic threshold by PRACTICAL_TAU
    and uses the sqrt(D ln D) allowance (the published allowances are vacuous
    or unattainable at desk-scale degrees)."""
    mu = 1.0 - keep_probability(k, max_degree) if max_degree else 0.0
    base = asymptotic_stat_threshold(k, max_degree, delta)
    if profile == "asymptotic":
        return RoundParams(mu, asymptotic_slack(max_degree), base)
    if profile == "practical":
        return RoundParams(mu, practical_slack(max_degree), PRACTICAL_TAU * base)
    raise ValueError(f"unknown profile {profile!r}")


@dataclass(frozen=True)
class AttemptResult:
    """The attempt `attempt_round` keeps, on its focus vertices: `f1` the
    tentative colour per vertex, `f` the kept ones as {vertex: colour} in
    ascending vertex order, and col, dist, pairs and triples per vertex as
    in RoundStats; with the counts of its statistic violations (uncoloured
    vertices) and quasirandomness violations (pairs)."""

    ok: bool
    restarts: int
    f1: tuple[int, ...]
    f: PartialColouring
    col: tuple[int, ...]
    dist: tuple[int, ...]
    pairs: tuple[int, ...]
    triples: tuple[int, ...]
    stat_violations: int
    quasirandom_violations: int


def attempt_round(
    comp: _Compiled,
    params: RoundParams,
    seed: int,
    max_restarts: int = MAX_RESTARTS,
) -> AttemptResult:
    """Rerun rounds with derived seeds until no bad event holds.

    Bad events: the pairs-minus-triples statistic falling below threshold at
    an uncoloured vertex, and a quasirandomness violation of the uncoloured
    set.  `comp` is a compiled instance: `_compile(g, c)` of a whole one,
    whose focus is every vertex, or the ball of the regularised copy from
    `_regularize_with_assignment` the driver passes, whose focus is the
    residual graph's vertices.  The throwaway copies' own statistics never
    influence the residual instance, so only vertices (and vertex pairs) in
    the focus are checked, and a ball's draws, keyed by their ids in the
    whole copy, give what the whole copy would.  The result describes the
    focus vertices alone.

    Attempt a uses seed derive_seed(seed, KIND_RESTART, a).  The attempts
    run through the batch kernel in slices of 1, 2, 4, ... attempts, each
    at most `_slice_width` wide, so no slice draws more attempts than came
    before it; every attempt of a slice is scored by array operations.

    On success returns the first accepted attempt, with `restarts` its
    index; after exhausting the restart budget, returns ok=False carrying
    the first attempt of the fewest violations and its violation counts.
    """
    cap = _slice_width(comp, common_uncoloured=True)  # builds both indexes
    comp._build_nuv()
    sizes = comp.nuv_sizes.astype(np.float64)
    # A pair's deviation |count - mu |C_p|| is largest at count 0 or |C_p|,
    # in the check's own float expressions too; where no pair can exceed
    # the slack there, the counts are not made.
    reach = np.maximum(np.abs(params.mu * sizes), np.abs(sizes - params.mu * sizes))
    can_fail = bool((reach > params.slack).any())
    attempts = max(1, max_restarts)
    best: Optional[tuple] = None  # (violation count, attempt, its arrays)
    start, width = 0, 1
    while start < attempts:
        stop = min(start + width, attempts)
        seeds = _derived_seeds(seed, KIND_RESTART, start, stop)
        f1_idx, kept, cls = _round_arrays(comp, seeds)
        col, dist, p_u, t_u = _stats_arrays(comp, cls, kept)
        low = (p_u - t_u) < params.stat_threshold
        stat_bad = (low & ~kept[:, : comp.focus]).sum(axis=1)
        quasi_bad = np.zeros_like(stat_bad)
        if can_fail:
            deviation = np.abs(_nuv_counts(comp, kept) - params.mu * sizes)
            quasi_bad = (deviation > params.slack).sum(axis=1)
        totals = stat_bad + quasi_bad
        i = int(totals.argmin())  # the first attempt of the fewest violations
        if best is None or totals[i] < best[0]:
            arrays = (f1_idx, kept, col, dist, p_u, t_u, stat_bad, quasi_bad)
            best = (int(totals[i]), start + i, tuple(x[i] for x in arrays))
            if best[0] == 0:
                break
        start, width = stop, min(2 * width, cap)
    total, attempt, (f1_idx, kept, *stats, stat_bad, quasi_bad) = best
    ok = total == 0
    f1 = comp.colour_values[np.arange(comp.focus), f1_idx[: comp.focus]]
    return AttemptResult(
        ok,
        attempt if ok else attempts,
        tuple(f1.tolist()),
        _kept_colouring(comp, f1_idx, kept),
        *(tuple(x.tolist()) for x in stats),
        int(stat_bad),
        int(quasi_bad),
    )


# -- iteration schedule ------------------------------------------------------------


class ScheduleError(ValueError):
    """Raised when no valid iteration schedule exists for the parameters."""


@dataclass(frozen=True)
class ScheduleRow:
    eps: float
    gamma: float
    delta: float


@dataclass(frozen=True)
class IterationSchedule:
    """Per-iteration parameter table of the colour procedure.

    Row i holds eps_i = eps' - i beta/2, gamma_i = eps_i e^{-1/(2(1-eps_i))}
    + beta and delta_i, interpolating from delta down to delta'; every row
    has gamma_i < savings_rate(eps_i, delta_i), and the final eps is
    negative.  The driver reads delta_i of the row of each iteration.
    """

    rows: tuple[ScheduleRow, ...]
    beta: float

    @property
    def iterations(self) -> int:
        return len(self.rows) - 1


def _gamma_map(eps: float) -> float:
    return eps * math.exp(-1.0 / (2.0 * (1.0 - eps)))


def default_beta(eps_prime: float, delta_prime: float) -> float:
    """Half the feasibility gap at (eps', delta'); positive iff feasible."""
    return 0.5 * (savings_rate(eps_prime, delta_prime) - _gamma_map(eps_prime))


# delta' as a share of the host's sparsity delta, where none is given.
DELTA_PRIME_SHARE = 0.95

# Schedule rows, ceil(2 eps / beta) + 2, past which `build_schedule` refuses
# before building any.  A row takes 176 bytes (the row object, its attribute
# dict and three floats; tracemalloc, CPython 3.11), so a table at the cap
# holds about 170 MiB and takes about 3 s to build on a 2-vCPU x86 host.
SCHEDULE_ROWS_CAP = 1_000_000


def build_schedule(
    eps: float,
    delta: float,
    beta: Optional[float] = None,
    delta_prime: Optional[float] = None,
) -> IterationSchedule:
    """Build and validate the iteration table.

    `eps` is the exact list-size deficit of the instance, 1 - k /
    (max_degree + 1), and `delta` its sparsity.  delta' defaults to
    DELTA_PRIME_SHARE delta and beta to default_beta(eps, delta').  Requires
    0 < eps < 0.5, 0 <= delta' < delta <= 1, beta > 0 small enough that
    gamma_i < savings_rate(eps_i, delta_i) on every row, and at most
    SCHEDULE_ROWS_CAP rows.
    """
    if delta_prime is None:
        delta_prime = DELTA_PRIME_SHARE * delta
    if beta is None:
        beta = default_beta(eps, delta_prime)
    if not 0 < eps < 0.5:
        raise ScheduleError(f"eps={eps} outside (0, 0.5)")
    if not 0 <= delta_prime < delta <= 1:
        raise ScheduleError(
            f"need 0 <= delta_prime < delta <= 1 (got {delta_prime}, {delta})"
        )
    if not beta > 0:
        raise ScheduleError("beta must be positive")
    if _gamma_map(eps) + beta >= savings_rate(eps, delta_prime):
        raise ScheduleError(
            f"infeasible beta={beta}: row 0 needs "
            f"{_gamma_map(eps) + beta:.6f} < {savings_rate(eps, delta_prime):.6f}"
        )
    # Fails for inf as well: 2 eps / beta overflows for the smallest betas.
    if not 2.0 * eps / beta + 2 <= SCHEDULE_ROWS_CAP:
        raise ScheduleError(
            f"beta={beta} would plan about {2.0 * eps / beta + 2:.3g} schedule "
            f"rows, above the cap of {SCHEDULE_ROWS_CAP} rows"
        )
    big_t = math.ceil(2.0 * eps / beta) + 1
    rows = []
    for i in range(big_t + 1):
        eps_i = eps - i * beta / 2.0
        gamma_i = _gamma_map(eps_i) + beta
        delta_i = delta - (i / big_t) * (delta - delta_prime)
        if gamma_i >= savings_rate(eps_i, delta_i):
            raise ScheduleError(
                f"infeasible beta={beta}: gamma_{i}={gamma_i:.6f} >= "
                f"savings_rate={savings_rate(eps_i, delta_i):.6f}"
            )
        rows.append(ScheduleRow(eps_i, gamma_i, delta_i))
    if rows[-1].eps >= 0:
        raise ScheduleError("final eps must be negative (beta too small?)")
    return IterationSchedule(tuple(rows), beta)


# -- greedy completion ---------------------------------------------------------------


def _greedy_correspondence(
    g: Graph, c: CorrespondenceAssignment, order: Sequence[int]
) -> tuple[PartialColouring, list[int]]:
    """First-fit along `order`, skipping colours matched with coloured
    neighbours' colours."""
    f: PartialColouring = {}
    failed: list[int] = []
    for v in order:
        # Unmatched colours add None, so at most len(forbidden) colours of v
        # are taken, and the first len(forbidden) + 1 hold a free one.
        forbidden = {c.correspondent(w, v, f[w]) for w in g.neighbours(v) if w in f}
        free = c.values[v, : min(int(c.sizes[v]), len(forbidden) + 1)].tolist()
        choice = next((col for col in free if col not in forbidden), None)
        if choice is None:
            failed.append(v)
        else:
            f[v] = choice
    return f, failed


@dataclass(frozen=True)
class CompletionResult:
    ok: bool
    colouring: PartialColouring
    failed_at: tuple[int, ...] = ()


def greedy_complete(g: Graph, c: CorrespondenceAssignment) -> CompletionResult:
    """Colour the whole instance first-fit along a minimum-degree ordering.

    When every vertex has more colours than neighbours the colouring always
    succeeds; otherwise the attempt is made anyway and the vertices left
    uncoloured are reported.  A partial colouring is extended by colouring
    its residual instance.
    """
    f, failed = _greedy_correspondence(g, c, min_degree_ordering(g))
    if failed:
        return CompletionResult(False, f, tuple(failed))
    assert is_valid_colouring(g, c, f), "greedy completion must be valid"
    return CompletionResult(True, f)


# -- iterative driver ---------------------------------------------------------------

def _regularize_with_assignment(
    g: Graph, c: CorrespondenceAssignment
) -> tuple[_Compiled, CorrespondenceAssignment]:
    """The instance a round runs on: c cut to its smallest set and made
    total, regularised by doubling, and compiled on the copy's radius-2
    ball around g, its focus (`_ball`).

    A round's statistics on the focus read colours within distance 2 of it
    and directions at distance 1 alone, and every draw is keyed by its
    vertex id or edge rank in the whole copy, so the ball gives what the
    whole copy would.  Returns the compiled ball and the total assignment
    on g.  The ball is counted and checked against the memory budget
    first; it holds g, so it is at least as large as the work on g's own
    maps that comes before it.
    """
    target = g.max_degree()
    deficit = target - g.degrees()
    steps = int(deficit.max(initial=0))
    if (g.n << steps) * max(target, 1) >= 2**63:
        raise budget.BudgetError(
            f"regularised copy of {g.n} * 2^{steps} vertices would key its draws past 63 bits"
        )
    n_ball, m_ball = _ball_size(g, deficit)
    kmax = max(c.min_size(), 1)
    _check_compiled("regularised copy's ball", n_ball, m_ball, kmax, 2 * m_ball + 3 * g.m)
    total = totalize(g, truncate(c, c.min_size()))
    eu, ev, rows = map_rows(g, total)
    vertex_ids, edge_ids, bu, bv, source = _ball(eu, ev, deficit)
    joining = source == g.m
    rows = rows.take(np.minimum(source, g.m - 1), axis=0)
    # A joining edge's ends carry the same set, of a map row's size.
    rows[joining] = np.arange(rows.shape[2], dtype=rows.dtype)
    k_arr = total.sizes.take(vertex_ids % max(g.n, 1))
    ids = vertex_ids.astype(np.uint64), edge_ids.astype(np.uint64)
    return _Compiled(bu, bv, rows, k_arr, total.values, target, *ids), total


def _ball_size(g: Graph, deficit: np.ndarray) -> tuple[int, int]:
    """The vertex and edge counts of `_ball` on g: over the steps s, the
    deficient set D_s = {x : d(x) > s}, its closed neighbourhood and the
    edges at it, and per vertex x the pairs of steps below d(x)."""
    src, dst = g.arc_sources(), g.indices
    reach = deficit.copy()  # the largest deficit in each closed neighbourhood
    np.maximum.at(reach, src, deficit[dst])
    pairs = int((deficit * (deficit - 1) // 2).sum())
    at_deficient = int(np.maximum(deficit[src], deficit[dst]).sum()) // 2
    vertices = g.n + int(reach.sum()) + pairs
    edges = g.m + int(deficit.sum()) + at_deficient + 2 * pairs
    return vertices, edges


def _ranks_in_runs(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., counts[i] - 1 for each i in turn, as one array."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def _ball(eu: np.ndarray, ev: np.ndarray, deficit: np.ndarray):
    """The radius-2 ball around layer 0 of the regularised copy of the
    graph g with edges eu-ev, sorted by (u, v), and deficits d(x) = D -
    deg(x) below its maximum degree D.

    Each doubling step takes two copies of the current graph and joins
    every vertex of degree below D to its twin by the identity map, until
    the graph is regular.  After S = max d(x) steps, copy vertex (L, x), L
    < 2^S, has id L n + x and is joined to (L + 2^s, x) wherever s < d(x)
    and bit s of L is 0; copies reuse their original's map rows, and layer
    0 is g.  The ball's vertices are (0, x); the twins (2^s, x), s < d(x);
    and the twins' neighbours (2^s, y), y in N(x), and (2^s + 2^t, x), t !=
    s, t < d(x).  Its edges are those with an end within distance 1 of
    layer 0: layer 0's own, the joining edges (0, x) - (2^s, x), and every
    edge at a twin.
    Ranks in the copy's (u, v) order come from lower ends: the first
    forward edge of (L, x) has rank

        L m + sum_s c_s Z_s(L) + F(x) + sum_{s : bit s of L is 0} C_s(x),

    where F(x) counts g's forward edges below x, c_s = |D_s| for D_s = {x :
    d(x) > s}, C_s(x) = |D_s & [0, x)| and Z_s(L) the layers below L with
    bit s 0.  Its same-layer edges follow in the order of their upper
    ends, then its joining edges in step order.

    Returns the ball's vertex ids in the copy, ascending; its edges' ranks,
    ascending, with their ends as positions among the vertex ids; and each
    edge's source, its edge in g or m for a joining edge.
    """
    n, m, steps = len(deficit), len(eu), int(deficit.max(initial=0))
    if not steps:  # g is regular, and its own copy
        return np.arange(n), np.arange(m), eu, ev, np.arange(m)
    first = np.searchsorted(eu, np.arange(n + 1))  # F(x)
    tx = np.repeat(np.arange(n), deficit)  # the twins of layer 0, by x then step
    ts = _ranks_in_runs(deficit)
    keys = np.sort(ts * n + tx)  # D_0, D_1, ... in turn
    starts = np.searchsorted(keys, np.arange(steps + 1) * n)
    # The rank of (L, 0)'s first edge, for L = 0 and each L = 2^l.
    layer = np.concatenate([[0], 1 << np.arange(steps)])[:, None]
    s = np.arange(steps)
    z = (layer >> (s + 1) << s) + np.minimum(layer & ((2 << s) - 1), 1 << s)
    layer_rank = layer[:, 0] * m + z @ np.diff(starts)

    # Each edge by its lower end (2^l, x), l = -1 for layer 0, with F(x)
    # plus its place among the forward edges of that end, its upper end's
    # id and its source: layer 0's edges, the joining edges at layer 0, the
    # edges at D_l in layer 2^l, and the joining edges at (2^l, x).
    reach = np.maximum(deficit[eu], deficit[ev])
    e3, s3 = np.repeat(np.arange(m), reach), _ranks_in_runs(reach)
    i4, k4 = np.repeat(np.arange(len(tx)), deficit[tx] - 1), _ranks_in_runs(deficit[tx] - 1)
    s4, x4 = ts[i4], tx[i4]
    t4 = k4 + (k4 >= s4)
    level = np.concatenate([np.full(m + len(tx), -1), s3, s4])
    x = np.concatenate([eu, tx, eu[e3], x4])
    place = np.concatenate([np.arange(m), first[tx + 1] + ts, e3, first[x4 + 1] + k4])
    upper = np.concatenate(
        [ev, tx + (n << ts), ev[e3] + (n << s3), x4 + n * ((1 << s4) + (1 << t4))]
    )
    source = np.concatenate([np.arange(m), np.full(len(tx), m), e3, np.full(len(i4), m)])
    # sum_s C_s(x) = sum of d below x, less C_l(x) where bit l is set.
    rank = place + layer_rank[level + 1] + (np.cumsum(deficit) - deficit)[x]
    twin = level >= 0
    rank[twin] -= np.searchsorted(keys, level[twin] * n + x[twin]) - starts[level[twin]]
    lower = x + np.where(twin, n << np.maximum(level, 0), 0)
    order = np.argsort(rank)
    vertex_ids = np.sort(np.concatenate([np.arange(n), lower, upper]))
    vertex_ids = vertex_ids[np.diff(vertex_ids, prepend=-1) != 0]
    bu, bv = np.searchsorted(vertex_ids, lower[order]), np.searchsorted(vertex_ids, upper[order])
    return vertex_ids, rank[order], bu, bv, source[order]


@dataclass(frozen=True)
class VertexRoundRecord:
    """One vertex's view of a round, keyed by its original id."""

    vertex: int
    kept: bool
    f1: int
    col: int
    dist: int
    pairs: int
    triples: int


@dataclass(frozen=True)
class RoundReport:
    """Per-iteration telemetry of the driver (real residual vertices only)."""

    index: int
    k: int
    k_prime: Optional[int]
    residual_max_degree: int
    residual_sparsity: Optional[float]
    restarts: int
    coloured: int
    remaining: int
    vertices: tuple[VertexRoundRecord, ...] = ()


@dataclass(frozen=True)
class ColouringResult:
    ok: bool
    colouring: PartialColouring
    rounds: tuple[RoundReport, ...]
    failure_reason: Optional[str] = None
    failed_iteration: Optional[int] = None


def _residual_step(
    g: Graph, c: CorrespondenceAssignment, f: PartialColouring
) -> tuple[Residual, Optional[float]]:
    """The residual instance of (g, c) after f, and its local sparsity
    delta, or None when its maximum degree is below 2."""
    residual = residual_assignment(g, c, f)
    if residual.graph.max_degree() < 2:
        return residual, None
    return residual, local_sparsity(residual.graph).delta


def iterative_colour(
    g: Graph,
    c: CorrespondenceAssignment,
    schedule: IterationSchedule,
    seed: int,
    max_restarts: int = MAX_RESTARTS,
    profile: str = "practical",
) -> ColouringResult:
    """Colour g by iterated rounds on the regularised residual graph.

    Runs one accepted round per schedule row (restarting rounds whose
    thresholds fail), rebuilds the residual instance, and finishes greedily
    once the minimum residual list exceeds the residual max degree.  The
    returned colouring is validated against the input assignment.
    """
    colouring: PartialColouring = {}
    ids: tuple[int, ...] = tuple(range(g.n))
    cur_g, cur_c = g, c
    reports: list[RoundReport] = []
    iteration = 0

    def failure(reason: str) -> ColouringResult:
        return ColouringResult(False, colouring, tuple(reports), reason, iteration)

    while cur_g.n:
        k_min = cur_c.min_size()
        if k_min == 0:
            return failure("a residual colour list is empty")
        if k_min > cur_g.max_degree():
            finish = greedy_complete(cur_g, cur_c)
            if not finish.ok:
                return failure(f"greedy finish failed at vertex {ids[finish.failed_at[0]]}")
            colouring.update({ids[v]: col for v, col in finish.colouring.items()})
            break
        if iteration >= schedule.iterations:
            return failure("schedule exhausted before the greedy threshold was reached")
        row = schedule.rows[iteration]
        reg, work_c = _regularize_with_assignment(cur_g, cur_c)
        params = default_round_params(k_min, reg.max_degree, row.delta, profile)
        result = attempt_round(
            reg, params, derive_seed(seed, KIND_ROUND, iteration), max_restarts
        )
        if not result.ok:
            return failure(
                f"round {iteration} exhausted {max_restarts} restarts "
                f"({result.stat_violations} statistic and "
                f"{result.quasirandom_violations} quasirandomness "
                "violations in the best attempt)"
            )
        f_real = result.f
        newly = {ids[v]: col for v, col in f_real.items()}
        assert not set(newly) & set(colouring), "a kept colour must never change"
        colouring.update(newly)
        residual, sparsity = _residual_step(cur_g, work_c, f_real)
        per_vertex = zip(result.f1, result.col, result.dist, result.pairs, result.triples)
        vertex_records = tuple(
            VertexRoundRecord(ids[v], v in f_real, *row) for v, row in enumerate(per_vertex)
        )
        reports.append(
            RoundReport(
                index=iteration,
                k=k_min,
                k_prime=residual.assignment.min_size() if residual.graph.n else None,
                residual_max_degree=residual.graph.max_degree(),
                residual_sparsity=sparsity,
                restarts=result.restarts,
                coloured=len(f_real),
                remaining=residual.graph.n,
                vertices=vertex_records,
            )
        )
        ids = tuple(ids[v] for v in residual.vertices)
        cur_g, cur_c = residual.graph, residual.assignment
        iteration += 1
    assert len(colouring) == g.n
    assert is_valid_colouring(g, c, colouring), "driver produced an invalid colouring"
    return ColouringResult(True, colouring, tuple(reports))


# -- residual sparsity experiment -----------------------------------------------------


@dataclass(frozen=True)
class SparsityTrialRound:
    round_index: int
    residual_vertices: int
    residual_max_degree: int
    residual_delta: Optional[float]
    delta_ratio: Optional[float]
    quasirandom_worst: float
    quasirandom_allowed: float


@dataclass(frozen=True)
class SparsityExperimentReport:
    host_delta: float
    rounds: int
    trials: int
    trial_rounds: tuple[tuple[SparsityTrialRound, ...], ...]


def residual_sparsity_experiment(
    g: Graph,
    c: CorrespondenceAssignment,
    rounds: int,
    trials: int,
    seed: int,
) -> SparsityExperimentReport:
    """Measure how neighbourhood sparsity survives successive rounds.

    Requires a regular host with max degree >= 2.  Per trial, runs rounds on
    the (re-regularised, re-totalised) residual instance and records the
    sparsity of the uncoloured subgraph plus the worst quasirandom deviation
    of the uncoloured set; no assertion is made (the stability statement is
    asymptotic), the ratios are reported for regression.
    """
    if not g.is_regular():
        raise GraphError("experiment requires a regular host graph")
    # Every round indexes the distance-2 pairs of a subgraph of g.
    _check_distance2(sum(d * (d + 1) // 2 for d in map(g.degree, range(g.n))))
    host_delta = local_sparsity(g).delta
    all_trials = []
    for t in range(trials):
        cur_g, cur_c = g, c
        trial_rows = []
        for i in range(rounds):
            if cur_g.n == 0 or cur_c.min_size() == 0:
                break
            reg, work_c = _regularize_with_assignment(cur_g, cur_c)
            round_seed = derive_seed(seed, KIND_TRIAL, t, i)
            f1_idx, kept, _ = _round_arrays(reg, [round_seed])
            f_real = _kept_colouring(reg, f1_idx[0], kept[0])
            mu = 1.0 - keep_probability(cur_c.min_size(), reg.max_degree)
            qr = quasirandom_check(
                cur_g,
                set(range(cur_g.n)) - f_real.keys(),
                mu,
                asymptotic_slack(cur_g.max_degree()),
            )
            residual, delta = _residual_step(cur_g, work_c, f_real)
            ratio = delta / host_delta if delta is not None and host_delta > 0 else None
            trial_rows.append(
                SparsityTrialRound(
                    round_index=i,
                    residual_vertices=residual.graph.n,
                    residual_max_degree=residual.graph.max_degree(),
                    residual_delta=delta,
                    delta_ratio=ratio,
                    quasirandom_worst=qr.worst_deviation,
                    quasirandom_allowed=qr.allowed,
                )
            )
            cur_g, cur_c = residual.graph, residual.assignment
        all_trials.append(tuple(trial_rows))
    return SparsityExperimentReport(
        host_delta=host_delta,
        rounds=rounds,
        trials=trials,
        trial_rounds=tuple(all_trials),
    )
