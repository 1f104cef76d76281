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

from .bounds import savings_rate
from .correspondence import (
    AssignmentError,
    CorrespondenceAssignment,
    PartialColouring,
    _indices,
    _rows_on,
    is_total,
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


def _entity_draws(
    seeds: Sequence[int], kinds: Sequence[int], counts: Sequence[int]
) -> np.ndarray:
    """64-bit draws hashed in one pass: a row per seed, and the entity ids
    0..count-1 of each kind in turn as columns.  With kinds (k0, k1) and
    counts (c0, c1), entry (i, c0 + j) matches derive_seed(seeds[i], k1, j)."""
    bases = np.array(
        [[derive_seed(s, kind) for kind in kinds] for s in seeds], dtype=np.uint64
    ).reshape(len(seeds), len(kinds))
    draws = np.empty((len(seeds), sum(counts)), dtype=np.uint64)
    at = 0
    for j, count in enumerate(counts):
        ids = np.arange(count, dtype=np.uint64)
        np.bitwise_xor(bases[:, j : j + 1], ids, out=draws[:, at : at + count])
        at += count
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


# Statistic-index rows (in-rows plus triangle rows, each bounded from above
# before it is allocated) past which `_Compiled._build_stats` refuses.  One
# row takes 24-32 bytes in the index, and the statistics of one trial
# gather a few arrays of that length again.
STATS_ROWS_CAP = 4_000_000


class _Compiled:
    """Array form of (graph, total assignment) for fast rounds and stats.

    One constructor takes the instance as arrays: edge e is eu[e] - ev[e],
    sorted by (u, v) with u < v; `forward[e]` and `backward[e]` are its map
    rows u->v and v->u, each entry the colour index at the target matched
    with the source's colour index (-1 if none); `k_arr` is the set size per
    vertex and `colour_values` the colour sets padded to (focus, kmax).
    `_compile(g, c)` builds a whole instance, which is its own focus, and
    `_regularize_with_assignment` the regularised copy of one, focused on
    its vertices.  Only the vertices below `focus`, one per row of
    `colour_values`, are real: statistic rows, common-uncoloured pairs,
    outcomes and statistics cover them alone, while the draws and the keep
    rule still run on every vertex.  The direction map holds, per edge e,
    row 2e (u->v) and row 2e+1 (v->u).
    """

    def __init__(self, eu, ev, forward, backward, k_arr, colour_values, max_degree):
        self.n, self.m, self.focus = len(k_arr), len(eu), len(colour_values)
        self.colour_values = colour_values
        self.kmax = max(forward.shape[1], 1)
        dir_map = np.full((2 * self.m, self.kmax), -1, dtype=np.int64)
        dir_map[0::2, : forward.shape[1]] = forward
        dir_map[1::2, : forward.shape[1]] = backward
        self.eu, self.ev, self.dir_map, self.k_arr = eu, ev, dir_map, k_arr
        self.k_draw = k_arr.astype(np.uint64)
        self.max_degree = max_degree
        self.dir_src = np.empty(2 * self.m, dtype=np.int64)
        self.dir_dst = np.empty(2 * self.m, dtype=np.int64)
        self.dir_src[0::2], self.dir_src[1::2] = eu, ev
        self.dir_dst[0::2], self.dir_dst[1::2] = ev, eu
        self.ends = self.dir_src.reshape(-1, 2)  # ends[e, d]: where bit d points
        # dir_map read flat: entry (row, i) sits at row * kmax + i.
        self.dir_flat = dir_map.reshape(-1)
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
        """Index the edges and triangles inside each focus neighbourhood.

        An entry is a focus vertex u and, for each member of the structure,
        the position in the statistic rows of its edge into u: `in_rows`
        holds the edges a-b inside N(u) as (u, a, b), a < b, and `tri_rows`
        the triangles a < b < c inside N(u) as (u, a, b, c), one field per
        row.  Paths inside N(u) need no index: `_stats_arrays` counts them
        from the in-rows.  The in-rows are the neighbour pairs of u that are
        edges, and the triangles the pairs of in-rows (u, a, b), (u, a, c)
        with b-c an edge; each candidate count is known before the
        candidates are allocated and checked against STATS_ROWS_CAP.
        """
        if self._stats_built:
            return
        src, dst = self.stat_src, self.stat_dst
        by_target = np.lexsort((src, dst))  # statistic rows by (u, a)
        target = dst[by_target]
        group_end = np.searchsorted(target, target, side="right")
        self._check_stats_size(_pair_count(group_end, 1))
        a, b = _group_pairs(group_end, 1)
        inside = self._is_edge(src[by_target[a]], src[by_target[b]])
        a, b = a[inside], b[inside]
        self.in_rows = np.array([target[a], by_target[a], by_target[b]])
        # The in-rows run in (u, a, b) order, so those sharing (u, a) are
        # consecutive.
        run_end = np.searchsorted(a, a, side="right")
        self._check_stats_size(len(a) + _pair_count(run_end, 1))
        first, second = _group_pairs(run_end, 1)
        closed = self._is_edge(src[by_target[b[first]]], src[by_target[b[second]]])
        first, second = first[closed], second[closed]
        a, b, c = by_target[a[first]], by_target[b[first]], by_target[b[second]]
        self.tri_rows = np.array([dst[a], a, b, c])
        self._stats_built = True

    def _check_stats_size(self, rows: int) -> None:
        if rows > STATS_ROWS_CAP:
            raise ScheduleError(
                f"statistic index would have up to {rows} rows (about "
                f"{32 * rows / 2**20:.0f} MiB), above the cap of "
                f"{STATS_ROWS_CAP} rows"
            )

    def _is_edge(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Whether each a[i]-b[i] (a[i] < b[i]) is an edge."""
        keys = self.eu * self.n + self.ev  # ascending, as the edges are sorted
        wanted = a * self.n + b
        at = np.minimum(np.searchsorted(keys, wanted), self.m - 1)
        return keys[at] == wanted

    def _build_nuv(self) -> None:
        if self._nuv_built:
            return
        rows = _distance2_rows(self.dir_src, self.dir_dst, self.focus)
        self.nuv_pairs, self.nuv_sizes, self.nuv_concat, self.nuv_pair_of_entry = rows
        self._nuv_built = True


def _map_rows(g: Graph, c: CorrespondenceAssignment) -> tuple[np.ndarray, np.ndarray]:
    """c's map rows on g's edges in both directions, c checked first: one
    nonempty set per vertex and a bijection on every edge."""
    if len(c.sizes) != g.n:
        raise AssignmentError("assignment does not match graph size")
    if g.n and c.sizes.min() == 0:
        raise AssignmentError("all colour sets must be nonempty")
    if not is_total(g, c):
        raise AssignmentError("round execution needs a total assignment")
    forward = _rows_on(g, c)
    backward = np.full_like(forward, -1)
    e, i = np.nonzero(forward >= 0)
    backward[e, forward[e, i]] = i
    return forward, backward


def _compile(g: Graph, c: CorrespondenceAssignment) -> _Compiled:
    """The whole instance (g, c), c total, compiled; every vertex is in its
    focus."""
    eu, ev = np.ascontiguousarray(g.edge_array().T)
    return _Compiled(eu, ev, *_map_rows(g, c), c.sizes, c.values, g.max_degree())


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


def _directed_edges(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(sources, targets) of every edge of g in both directions."""
    eu, ev = g.edge_array().T
    return np.concatenate([eu, ev]), np.concatenate([ev, eu])


def _distance2_rows(src: np.ndarray, dst: np.ndarray, focus: int):
    """Every pair u <= v < focus at distance <= 2 (u = v included), in
    ascending order, with its common neighbourhood N(u) & N(v).

    `src` and `dst` list every edge in both directions.  The common
    neighbours are the middles w of the 2-paths u - w - v: each w pairs up
    its neighbours below `focus`, and one stable sort by (u, v) puts the
    middles of each pair in ascending order.  Adjacent pairs and u = v are
    added even when their common neighbourhood is empty.

    Returns (pairs, sizes, concat, pair_of_entry): `sizes[p]` is the size of
    pair p's common neighbourhood, `concat` all common neighbourhoods (each
    sorted) one after another, and `pair_of_entry[i]` the pair of concat[i].
    """
    near = np.flatnonzero(dst < focus)
    near = near[np.lexsort((dst[near], src[near]))]  # rows w -> x by (w, x)
    middle, end = src[near], dst[near]
    u, v = _group_pairs(np.searchsorted(middle, middle, side="right"), 0)
    key = end[u] * focus + end[v]
    order = np.argsort(key, kind="stable")
    key, concat = key[order], middle[u[order]]
    adjacent = (src < dst) & (dst < focus)
    pair_keys = np.sort(
        np.concatenate(
            [key, np.arange(focus) * (focus + 1), src[adjacent] * focus + dst[adjacent]]
        )
    )
    pair_keys = pair_keys[np.diff(pair_keys, prepend=-1) != 0]
    pair_of_entry = np.searchsorted(pair_keys, key)
    low, high = np.divmod(pair_keys, max(focus, 1))
    # The pairs share one int object per vertex.
    vertex = list(range(focus))
    return (
        list(zip(map(vertex.__getitem__, low), map(vertex.__getitem__, high))),
        np.bincount(pair_of_entry, minlength=len(pair_keys)),
        concat,
        pair_of_entry,
    )


def _row_classes(comp: _Compiled, f1_idx: np.ndarray) -> np.ndarray:
    """The class of every looked-up row under (B, n) colour indices: the
    colour index at the row's target matched with its source's colour (-1
    if none), shape (B, L)."""
    return comp.dir_flat.take(comp.look_base + f1_idx.take(comp.look_src, axis=1))


def _round_arrays(comp: _Compiled, seeds: Sequence[int]):
    """Execute one round per seed, all at once.

    Returns (f1_idx, dirs, kept, cls), one row per seed: the colour index
    per vertex (B, n), the direction bit per edge (B, m), the kept mask
    (B, n) and the class of every looked-up row (B, L), which the keep rule
    reads here and `_stats_arrays` reads again.  Row i is what seed i alone
    gives.
    """
    n = comp.n
    draws = _entity_draws(seeds, (KIND_COLOUR, KIND_DIRECTION), (n, comp.m))
    f1_idx = (draws[:, :n] % comp.k_draw).astype(np.int64)
    dirs = (draws[:, n:] & _ONE).astype(np.int64)
    cls = _row_classes(comp, f1_idx)
    kept = np.ones(f1_idx.shape, dtype=bool)
    trial, e = (cls[:, : comp.m] == f1_idx.take(comp.fwd_dst, axis=1)).nonzero()
    e = comp.fwd_edge[e]
    kept[trial, comp.ends[e, dirs[trial, e]]] = False
    return f1_idx, dirs, kept, cls


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
    f1_idx, dirs, kept, _ = _round_arrays(comp, [seed])
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
    pairs, sizes, concat, pair_of_entry = _distance2_rows(*_directed_edges(g), g.n)
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
    whose focus is every vertex, or the regularised copy from
    `_regularize_with_assignment` the driver passes, whose focus is the
    residual graph's vertices.  The throwaway copies' own statistics never
    influence the residual instance, so only vertices (and vertex pairs) in
    the focus are checked.  The returned outcome and statistics describe
    the focus vertices alone: `f1`, `kept`, `f` and the per-vertex
    statistics are indexed by focus vertex, `direction` covers the edges
    between focus vertices and `common_uncoloured` the pairs of focus
    vertices.

    On success returns the accepted outcome and statistics; after exhausting
    the restart budget, returns ok=False carrying the best-seen attempt
    (fewest violations) and its violation report.
    """
    comp._build_nuv()
    sizes = comp.nuv_sizes.astype(np.float64)

    def result(ok: bool, restarts: int, violations, arrays) -> AttemptResult:
        f1_idx, dirs, kept, col, dist, p_u, t_u, nuv = arrays
        outcome = _outcome_from_arrays(comp, f1_idx, dirs, kept)
        stats = _stats_record(comp, col, dist, p_u, t_u, nuv)
        return AttemptResult(ok, outcome, stats, restarts, violations)

    best: Optional[tuple[int, ViolationReport, tuple]] = None
    for attempt in range(max(1, max_restarts)):
        attempt_seed = derive_seed(seed, KIND_RESTART, attempt)
        f1_idx, dirs, kept, cls = _round_arrays(comp, [attempt_seed])
        stats = _stats_arrays(comp, cls, kept)
        nuv = _nuv_counts(comp, kept)
        f1_idx, dirs, kept, nuv = f1_idx[0], dirs[0], kept[0], nuv[0]
        col, dist, p_u, t_u = (x[0] for x in stats)
        low = (p_u - t_u) < params.stat_threshold
        stat_bad = np.flatnonzero(low & ~kept[: comp.focus])
        dev = np.abs(nuv.astype(np.float64) - params.mu * sizes)
        quasi_bad = np.flatnonzero(dev > params.slack)
        violations = ViolationReport(
            tuple(stat_bad.tolist()),
            tuple(comp.nuv_pairs[i] for i in quasi_bad.tolist()),
        )
        arrays = (f1_idx, dirs, kept, col, dist, p_u, t_u, nuv)
        if violations.total == 0:
            return result(True, attempt, violations, arrays)
        if best is None or violations.total < best[0]:
            best = (violations.total, violations, arrays)
    _, violations, arrays = best
    return result(False, max(1, max_restarts), violations, arrays)


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

REGULARIZED_SIZE_CAP = 2_000_000


def _regularize_with_assignment(
    g: Graph, c: CorrespondenceAssignment
) -> tuple[_Compiled, CorrespondenceAssignment]:
    """The instance a round runs on: c cut to its smallest set and made
    total, then regularised by doubling, in array form.

    Each step takes two copies of the current graph and joins every vertex
    of degree below the maximum D to its twin, until the graph is regular:
    n 2^(D - delta_min) vertices in the end, with g induced on the first g.n
    (the focus).  The map rows are inverted once, on g; copies reuse their
    original's rows in both directions, and a joining edge gets the identity
    map, since both ends carry the same colour set.  Edges end up sorted by
    (u, v), the order of Graph.edges() by which direction draws are keyed.

    Returns the compiled regularised instance and the total assignment on g.
    """
    total = totalize(g, truncate(c, c.min_size()))
    forward, backward = _map_rows(g, total)
    target = g.max_degree()
    eu, ev = g.edge_array().T
    degree = np.bincount(np.concatenate([eu, ev]), minlength=g.n)
    steps = target - int(degree.min()) if g.n else 0
    n_final = g.n << steps
    if n_final > REGULARIZED_SIZE_CAP:
        # eu, ev, dir_src, dir_dst, fwd_edge and the (2m x kmax) map, plus
        # k_arr, with m = n_final * target / 2.
        nbytes = 8 * (n_final * target * (2 * forward.shape[1] + 7) // 2 + n_final)
        raise ScheduleError(
            f"regularised graph would have {n_final} vertices "
            f"({nbytes / 2**20:.0f} MiB compiled), above the cap of "
            f"{REGULARIZED_SIZE_CAP} vertices"
        )
    eu, ev, forward, backward = _double(eu, ev, forward, backward, degree, steps)
    k_arr = np.tile(total.sizes, 1 << steps)
    return _Compiled(eu, ev, forward, backward, k_arr, total.values, target), total


def _double(eu, ev, forward, backward, degree, steps):
    """The edge arrays and map rows after `steps` doubling steps of the
    graph with edges eu-ev and degrees `degree`, sorted by (u, v).  Every
    set has the size of a map row, so a joining edge's map is the identity
    row."""
    n = len(degree)
    target = degree.max(initial=0)
    identity = np.arange(forward.shape[1], dtype=forward.dtype)
    for _ in range(steps):
        low = np.flatnonzero(degree < target)
        join = np.broadcast_to(identity, (len(low), len(identity)))
        eu = np.concatenate([eu, eu + n, low])
        ev = np.concatenate([ev, ev + n, low + n])
        forward = np.concatenate([forward, forward, join])
        backward = np.concatenate([backward, backward, join])
        degree = np.tile(degree, 2)
        degree[low] += 1
        degree[low + n] += 1
        n *= 2
    order = np.lexsort((ev, eu))
    return eu[order], ev[order], forward[order], backward[order]


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
