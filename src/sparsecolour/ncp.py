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

Randomness is counter-based: every draw is a splitmix64 hash of
(seed, kind, entity id), so results are independent of iteration order and
thread count, and any trial can be replayed from its derived seed.
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
    AssignmentError,
    CorrespondenceAssignment,
    PartialColouring,
    _bijective,
    _indices,
    _map_dtype,
    _rows_on,
    is_valid_colouring,
    residual_assignment,
    totalize,
    truncate,
)
from .graph import Graph, local_sparsity, min_degree_ordering

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


def _entity_draws(
    seeds: Sequence[int] | np.ndarray, kinds: Sequence[int], ids: Sequence[np.ndarray]
) -> np.ndarray:
    """64-bit draws hashed in one pass: a row per seed, and the entity ids
    of each kind in turn as columns, one uint64 array per kind.  With kinds
    (k0, k1) and ids (i0, i1), entry (i, len(i0) + j) matches
    derive_seed(seeds[i], k1, i1[j]) for seeds in [0, 2^64)."""
    h = np.array(seeds, dtype=np.uint64)
    h ^= _GOLDEN_NP
    # bases[i, j] = derive_seed(seeds[i], kinds[j])
    bases = _sm64_np(_sm64_np(h)[:, None] ^ np.array(kinds, dtype=np.uint64))
    draws = np.empty((len(h), sum(map(len, ids))), dtype=np.uint64)
    at = 0
    for j, col in enumerate(ids):
        np.bitwise_xor(bases[:, j : j + 1], col, out=draws[:, at : at + len(col)])
        at += len(col)
    return _sm64_np(draws)


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


def _check_compiled(what: str, n: int, m: int, kmax: int, rows: int) -> None:
    """Refuse a compiled instance past the budget: `rows` map rows of kmax
    entries at `_map_dtype(kmax)` (a direction map is 2m; a ball of the
    regularised copy also holds g's total assignment and map rows while it
    gathers its own), twenty int64 arrays of m entries, four of n, and the
    index buffers of `_map_rows`'s scatter (150 KB traced on large rows)."""
    entries = rows * kmax * _map_dtype(kmax).itemsize
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
    first use, from one listing of neighbour pairs (`_build_stats`).
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
        stat_rows = look_rows[self.stat_start :]
        self.stat_src = self.dir_src[stat_rows]
        self.stat_dst = self.dir_dst[stat_rows]
        # Distinct negative stand-ins, -stat_shift, for the class of an
        # uncoloured source.
        self.stat_shift = 1 + np.arange(len(stat_rows), dtype=np.int64)
        self.look_src = self.dir_src[look_rows]
        self.look_base = look_rows * self.kmax
        self._stats_built = False
        self._nuv_built = False

    # Lazily built structures for pair/triple statistics.
    def _build_stats(self) -> None:
        """Index the edges and triangles inside each focus neighbourhood,
        and the common neighbourhoods (`nuv_*`), from one `_neighbour_pairs`
        listing of the statistic rows a -> u read as u -> a, and of those
        from outside the focus as they are.  An entry is a focus vertex u
        and, per member, the statistic row of its edge into u: `in_rows`
        holds the edges a-b inside N(u) as (u, a, b), a < b, and `tri_rows`
        the triangles a < b < c as (u, a, b, c), one field per row; paths
        are counted from the in-rows by `_stats_arrays`.  The triangles are
        the pairs of in-rows (u, a, b), (u, a, c) with b-c an edge; they and
        the in-rows are checked at STATS_ROW_BYTES a row before listing.
        """
        if self._stats_built:
            return
        src, dst = self.stat_src, self.stat_dst
        out = np.flatnonzero(src >= self.focus)
        arcs = np.concatenate([[dst, src, np.arange(len(src))], [src[out], dst[out], out]], axis=1)
        middle, end, row = arcs = arcs[:, np.lexsort(arcs[1::-1])]  # by (middle, end)
        edge_keys = self.eu * self.n + self.ev  # ascending, as the edges are sorted
        (a, b), nuv = _neighbour_pairs(middle, end, edge_keys, self.n, self.focus)
        self.nuv_pairs, self.nuv_sizes, self.nuv_concat, self.nuv_pair_of_entry = nuv
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

    def _build_nuv(self) -> None:
        """The common-neighbour rows `nuv_*`, which `_build_stats` builds."""
        self._build_stats()
        self._nuv_built = True


def _map_rows(g: Graph, c: CorrespondenceAssignment) -> tuple[np.ndarray, ...]:
    """g's edges as arrays eu, ev and c's map rows on them as one (m, 2, k)
    array at `_map_dtype(k)`, [e, 0] u->v and [e, 1] its inverse v->u, c
    checked first: one nonempty set per vertex and a bijection on each edge."""
    if len(c.sizes) != g.n:
        raise AssignmentError("assignment does not match graph size")
    if g.n and c.sizes.min() == 0:
        raise AssignmentError("all colour sets must be nonempty")
    ends, forward = _rows_on(g, c)
    if not _bijective(c.sizes, ends, forward):
        raise AssignmentError("round execution needs a total assignment")
    (m, k), dtype = forward.shape, _map_dtype(forward.shape[1])
    rows = np.full((m, 2, k), -1, dtype=dtype)
    rows[:, 0] = forward
    # A bijection's -1 entries lie past its set, so they scatter into the
    # last column, which is -1 in the inverse wherever it is -1 forward.
    rows[np.arange(m)[:, None], 1, forward] = np.arange(k, dtype=dtype)
    rows[:, 1, k - 1 :][rows[:, 0, k - 1 :] < 0] = -1
    return (*np.ascontiguousarray(ends), rows)


def _compile(g: Graph, c: CorrespondenceAssignment) -> _Compiled:
    """The whole instance (g, c), c total, compiled; every vertex is in its
    focus."""
    _check_compiled("compiled instance", g.n, g.m, max(c.fwd.shape[1], 1), 2 * g.m)
    ids = np.arange(g.n, dtype=np.uint64), np.arange(g.m, dtype=np.uint64)
    return _Compiled(*_map_rows(g, c), c.sizes, c.values, g.max_degree(), *ids)


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


# Peak bytes per entry, a middle and two of its neighbours, while both indexes
# are built (tracemalloc: 54 to 62 on C5 blow-ups and balls, 102 to 112 on
# sparse random hosts, 152 on long paths, where most pairs are a tuple alone).
DISTANCE2_ENTRY_BYTES = 160


def _check_distance2(entries: int) -> None:
    budget.check(f"distance-2 pair index of {entries} entries", entries * DISTANCE2_ENTRY_BYTES)


def _neighbour_pairs(middle, end, edge_keys, n: int, focus: int):
    """Every pair of arcs i <= j from one middle w, ends x = end[i] <= y =
    end[j], listed once in (w, x, y) order after the memory budget check.

    The arcs w -> x, sorted by (w, x), are those of an n-vertex graph that
    touch its focus 0..focus-1; `edge_keys` are its edges' ascending keys
    u * n + v, u < v.  Returns (inner, common): `inner`, the entries (i, j)
    with w in the focus and x - y an edge (the edges inside N(w)); `common`,
    every pair x <= y < focus at distance <= 2, ascending, with x = y and
    adjacent pairs even with no common neighbour, as (pairs, sizes, concat,
    pair_of_entry): the common neighbourhoods one after another in `concat`,
    each sorted, their sizes, and the pair of each entry of `concat`.
    """
    group_end = np.searchsorted(middle, middle, side="right")
    _check_distance2(_pair_count(group_end, 0))
    i, j = _group_pairs(group_end, 0)
    key = end[i] * n  # x * n + y
    key += end[j]
    inner = np.flatnonzero((i < j) & (middle[i] < focus))
    inner = inner[_in_sorted(edge_keys, key[inner])]
    inner = i[inner], j[inner]
    # x <= y, so y < focus puts both ends in the focus; one stable sort by
    # (x, y) keeps the middles of each pair in ascending order.
    common = np.flatnonzero(end[j] < focus)
    order = common[np.argsort(key[common], kind="stable")]
    key, concat = key[order], middle[i[order]]
    del i, j, common, order
    adjacent = edge_keys[edge_keys % max(n, 1) < focus]
    pair_keys = np.sort(np.concatenate([key, np.arange(focus) * (n + 1), adjacent]))
    pair_keys = pair_keys[np.diff(pair_keys, prepend=-1) != 0]
    pair_of_entry = np.searchsorted(pair_keys, key)
    del key
    sizes = np.bincount(pair_of_entry, minlength=len(pair_keys))
    vertex = np.fromiter(range(focus), object, focus)  # one int object per vertex
    low, high = (vertex.take(x).tolist() for x in np.divmod(pair_keys, max(n, 1)))
    return inner, (list(zip(low, high)), sizes, concat, pair_of_entry)


def _row_classes(comp: _Compiled, f1_idx: np.ndarray) -> np.ndarray:
    """The class of every looked-up row under (B, n) colour indices: the
    colour index at the row's target matched with its source's colour (-1
    if none), shape (B, L), widened to int64 for `_stats_arrays`' keys."""
    return comp.dir_flat.take(comp.look_base + f1_idx.take(comp.look_src, axis=1)).astype(np.int64)


def _round_arrays(comp: _Compiled, seeds: Sequence[int] | np.ndarray):
    """Execute one round per seed, all at once.

    Returns (f1_idx, dirs, kept, cls), one row per seed: the colour index
    per vertex (B, n), the direction bit per edge (B, m), the kept mask
    (B, n) and the class of every looked-up row (B, L), which the keep rule
    reads here and `_stats_arrays` reads again.  Row i is what seed i alone
    gives.
    """
    n = comp.n
    ids = comp.vertex_ids, comp.edge_ids
    draws = _entity_draws(seeds, (KIND_COLOUR, KIND_DIRECTION), ids)
    f1_idx = (draws[:, :n] % comp.k_draw).astype(np.int64)
    dirs = (draws[:, n:] & _ONE).astype(np.int64)
    cls = _row_classes(comp, f1_idx)
    kept = np.ones(f1_idx.shape, dtype=bool)
    trial, e = (cls[:, : comp.m] == f1_idx.take(comp.fwd_dst, axis=1)).nonzero()
    e = comp.fwd_edge[e]
    kept[trial, comp.ends[e, dirs[trial, e]]] = False
    return f1_idx, dirs, kept, cls


# Peak bytes of `_stats_arrays` per class count (one per trial, colour index
# and focus vertex): an int64 count and its four int64 terms (tracemalloc: 40).
CLASS_COUNT_BYTES = 48


def _stats_arrays(comp: _Compiled, cls: np.ndarray, kept: np.ndarray):
    """Col, Dist, pair and triple counts per trial and focus vertex, from
    class counts.

    `cls` and `kept` are B trials' row classes and kept masks, (B, L) and
    (B, n) as `_round_arrays` returns them; each result is (B, focus).  A
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
    # The value is the class if kept and -stat_shift otherwise, branch-free.
    val = cls + comp.stat_shift
    val *= kept_src
    val -= comp.stat_shift
    terms = _class_terms(comp.max_degree).take(counts, axis=0).sum(axis=1)
    col, dist, p_u, t_u = terms[..., 0], terms[..., 1], terms[..., 2], terms[..., 3]

    # Triple corrections as (trial * n + u, weight), summed in one pass.
    keys, weights = [], []
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


def _nuv_counts(comp: _Compiled, kept: np.ndarray) -> np.ndarray:
    """|N(u) & N(v) & uncoloured| per trial and distance-<=2 pair, (B, P)
    from (B, n) kept masks."""
    comp._build_nuv()
    pairs = len(comp.nuv_pairs)
    counts = [
        np.bincount(comp.nuv_pair_of_entry, weights=uncoloured, minlength=pairs)
        for uncoloured in ~kept.take(comp.nuv_concat, axis=1)
    ]
    return np.array(counts, dtype=np.int64).reshape(len(kept), pairs)


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
    and trial), and at least one.  Row i of every kernel result is what
    trial i alone gives, so the width changes no result."""
    comp._build_stats()
    rows = comp.n + comp.m + len(comp.stat_src)
    rows += comp.in_rows.shape[1] + comp.tri_rows.shape[1]
    if common_uncoloured:
        rows += len(comp.nuv_concat)
    counts = max(CLASS_COUNT_BYTES * comp.kmax * comp.focus, 1)
    return max(1, min(SLICE_TRIALS, SLICE_ROWS // max(rows, 1), budget.MEMORY_BUDGET // counts))


def _outcome_from_arrays(
    comp: _Compiled, f1_idx: np.ndarray, dirs: np.ndarray, kept: np.ndarray
) -> RoundOutcome:
    """The outcome on the focus vertices and the edges between them."""
    focus = comp.focus
    f1 = tuple(comp.colour_values[np.arange(focus), f1_idx[:focus]].tolist())
    inside = np.flatnonzero(comp.ev < focus)
    direction = {
        (u, v): (u if d == 0 else v)
        for u, v, d in zip(
            comp.eu[inside].tolist(), comp.ev[inside].tolist(), dirs[inside].tolist()
        )
    }
    kept_set = frozenset(np.flatnonzero(kept[:focus]).tolist())
    f = {u: f1[u] for u in kept_set}
    return RoundOutcome(f1, direction, kept_set, f)


def run_round(g: Graph, c: CorrespondenceAssignment, seed: int) -> RoundOutcome:
    """One round on a total assignment; deterministic given the seed."""
    comp = _compile(g, c)
    f1_idx, dirs, kept, _ = _round_arrays(comp, [int(seed) & _MASK])
    return _outcome_from_arrays(comp, f1_idx[0], dirs[0], kept[0])


def _stats_from_arrays(comp: _Compiled, f1_idx, kept) -> RoundStats:
    """RoundStats of one trial's colour indices and kept mask."""
    f1_idx, kept = f1_idx[None], kept[None]
    arrays = _stats_arrays(comp, _row_classes(comp, f1_idx), kept)
    col, dist, p_u, t_u = (x[0] for x in arrays)
    return _stats_record(comp, col, dist, p_u, t_u, _nuv_counts(comp, kept)[0])


def _stats_record(comp: _Compiled, col, dist, p_u, t_u, nuv) -> RoundStats:
    """RoundStats of the focus vertices from already computed arrays."""
    return RoundStats(
        col=tuple(col.tolist()),
        dist=tuple(dist.tolist()),
        pairs=tuple(p_u.tolist()),
        triples=tuple(t_u.tolist()),
        common_uncoloured=dict(zip(comp.nuv_pairs, nuv.tolist())),
    )


def round_stats(
    g: Graph, c: CorrespondenceAssignment, outcome: RoundOutcome
) -> RoundStats:
    """Statistics of an outcome produced from (g, c)."""
    comp = _compile(g, c)
    if len(outcome.f1) != comp.n:
        raise ValueError("outcome does not match the instance")
    f1_idx = _indices(c, dict(enumerate(outcome.f1)))
    if f1_idx is None:
        raise ValueError("outcome uses colours outside the assignment")
    kept = np.zeros(comp.n, dtype=bool)
    kept[list(outcome.kept)] = True
    return _stats_from_arrays(comp, f1_idx, kept)


# -- quasirandomness -------------------------------------------------------------


def asymptotic_slack(max_degree: float) -> float:
    """sqrt(D) (ln D)^5 deviation allowance (0 for D <= 1)."""
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
    _, (pairs, sizes, concat, pair_of_entry) = _neighbour_pairs(src, dst, edge_keys, g.n, g.n)
    if not pairs:
        return QuasirandomReport(True, None, -1.0, allowed)
    hits = np.isin(concat, list(uncoloured)).astype(np.float64)
    in_unc = np.bincount(pair_of_entry, weights=hits, minlength=len(pairs))
    dev = np.abs(in_unc - mu * sizes)
    worst = int(np.argmax(dev))  # the first pair of largest deviation
    worst_dev = float(dev[worst])
    return QuasirandomReport(worst_dev <= allowed, pairs[worst], worst_dev, allowed)


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
class ViolationReport:
    """Bad events of one attempt: vertices whose pairs-minus-triples count
    fell below threshold, and pairs failing the quasirandomness allowance."""

    stat_vertices: tuple[int, ...]
    quasirandom_pairs: tuple[tuple[int, int], ...]

    @property
    def total(self) -> int:
        return len(self.stat_vertices) + len(self.quasirandom_pairs)


@dataclass(frozen=True)
class AttemptResult:
    ok: bool
    outcome: RoundOutcome
    stats: RoundStats
    restarts: int
    violations: ViolationReport


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
    whole copy, give what the whole copy would.  The returned outcome and
    statistics describe the focus vertices alone: `f1`, `kept`, `f` and the
    per-vertex statistics are indexed by focus vertex, `direction` covers
    the edges between focus vertices and `common_uncoloured` the pairs of
    focus vertices.

    Attempt a uses seed derive_seed(seed, KIND_RESTART, a).  The attempts
    run through the batch kernel in slices of 1, 2, 4, ... attempts, each
    at most `_slice_width` wide, so no slice draws more attempts than came
    before it; every attempt of a slice is scored by array operations.

    On success returns the first accepted attempt, with `restarts` its
    index; after exhausting the restart budget, returns ok=False carrying
    the first attempt of the fewest violations and its violation report.
    """
    cap = _slice_width(comp, common_uncoloured=True)  # builds both indexes
    sizes = comp.nuv_sizes.astype(np.float64)
    attempts = max(1, max_restarts)
    best: Optional[tuple] = None  # (violation count, attempt, its arrays)
    start, width = 0, 1
    while start < attempts:
        stop = min(start + width, attempts)
        seeds = _derived_seeds(seed, KIND_RESTART, start, stop)
        f1_idx, dirs, kept, cls = _round_arrays(comp, seeds)
        col, dist, p_u, t_u = _stats_arrays(comp, cls, kept)
        nuv = _nuv_counts(comp, kept)
        stat_bad = ((p_u - t_u) < params.stat_threshold) & ~kept[:, : comp.focus]
        quasi_bad = np.abs(nuv.astype(np.float64) - params.mu * sizes) > params.slack
        totals = stat_bad.sum(axis=1) + quasi_bad.sum(axis=1)
        i = int(totals.argmin())  # the first attempt of the fewest violations
        if best is None or totals[i] < best[0]:
            arrays = (f1_idx, dirs, kept, col, dist, p_u, t_u, nuv, stat_bad, quasi_bad)
            best = (int(totals[i]), start + i, tuple(x[i] for x in arrays))
            if best[0] == 0:
                break
        start, width = stop, min(2 * width, cap)
    total, attempt, arrays = best
    f1_idx, dirs, kept, col, dist, p_u, t_u, nuv, stat_bad, quasi_bad = arrays
    violations = ViolationReport(
        tuple(np.flatnonzero(stat_bad).tolist()),
        tuple(comp.nuv_pairs[j] for j in np.flatnonzero(quasi_bad).tolist()),
    )
    outcome = _outcome_from_arrays(comp, f1_idx, dirs, kept)
    stats = _stats_record(comp, col, dist, p_u, t_u, nuv)
    ok = total == 0
    return AttemptResult(ok, outcome, stats, attempt if ok else attempts, violations)


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
    eu, ev, rows = _map_rows(g, total)
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
                f"({len(result.violations.stat_vertices)} statistic and "
                f"{len(result.violations.quasirandom_pairs)} quasirandomness "
                "violations in the best attempt)"
            )
        f_real = dict(sorted(result.outcome.f.items()))
        newly = {ids[v]: col for v, col in f_real.items()}
        assert not set(newly) & set(colouring), "a kept colour must never change"
        colouring.update(newly)
        residual = residual_assignment(cur_g, work_c, f_real)
        sparsity = None
        if residual.graph.n and residual.graph.max_degree() >= 2:
            sparsity = local_sparsity(residual.graph).delta
        vertex_records = tuple(
            VertexRoundRecord(
                vertex=ids[v],
                kept=v in result.outcome.kept,
                f1=result.outcome.f1[v],
                col=result.stats.col[v],
                dist=result.stats.dist[v],
                pairs=result.stats.pairs[v],
                triples=result.stats.triples[v],
            )
            for v in range(cur_g.n)
        )
        reports.append(
            RoundReport(
                index=iteration,
                k=k_min,
                k_prime=residual.assignment.min_size() if residual.graph.n else None,
                residual_max_degree=residual.graph.max_degree() if residual.graph.n else 0,
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
