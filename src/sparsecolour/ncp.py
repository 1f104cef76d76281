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

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .correspondence import (
    AssignmentError,
    CorrespondenceAssignment,
    PartialColouring,
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


def _sm64_np(x: np.ndarray) -> np.ndarray:
    x = x + np.uint64(_GOLDEN)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(_M1)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(_M2)
    return x ^ (x >> np.uint64(31))


def _entity_draws(seed: int, kind: int, count: int) -> np.ndarray:
    """One 64-bit draw per entity id 0..count-1; matches derive_seed(seed, kind, i)."""
    base = np.uint64(derive_seed(seed, kind))
    ids = np.arange(count, dtype=np.uint64)
    return _sm64_np(base ^ ids)


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
    distance <= 2 and u = v;
    residual_max_degree -- max degree of the uncoloured induced subgraph;
    k_prime -- min residual list size over uncoloured vertices (None if all
    vertices were coloured).
    """

    col: tuple[int, ...]
    dist: tuple[int, ...]
    pairs: tuple[int, ...]
    triples: tuple[int, ...]
    common_uncoloured: dict[tuple[int, int], int]
    residual_max_degree: int
    k_prime: Optional[int]


class _Compiled:
    """Array form of (graph, assignment) for fast rounds and stats.

    Built two ways.  `_Compiled(g, c)` compiles a whole instance; every
    vertex is in its focus.  `_Compiled._from_arrays` grows a compiled
    instance into a larger one given as edge arrays (the regularised copy),
    focused on the original's vertices.  Only the vertices below `focus` are
    real: statistic rows, common-uncoloured pairs, outcomes and statistics
    cover them alone, while the draws and the keep rule still run on every
    vertex.  `colour_values` and `index_of` likewise cover the focus
    vertices only; `k_arr` covers all of them.
    """

    def __init__(
        self,
        g: Graph,
        c: CorrespondenceAssignment,
        require_total: bool = True,
    ):
        if len(c.colour_sets) != g.n:
            raise AssignmentError("assignment does not match graph size")
        if any(len(s) == 0 for s in c.colour_sets):
            raise AssignmentError("all colour sets must be nonempty")
        if require_total and not is_total(g, c):
            raise AssignmentError("round execution needs a total assignment")
        edges = list(g.edges())
        self.colour_values = [list(s) for s in c.colour_sets]
        k_arr = np.array([len(s) for s in self.colour_values], dtype=np.int64)
        self.kmax = int(k_arr.max()) if g.n else 1

        # Directed maps: row 2e is u->v of edge e, row 2e+1 is v->u, entries
        # are colour indices at the target (-1 marks padding).
        index_of = [
            {col: i for i, col in enumerate(vals)} for vals in self.colour_values
        ]
        dir_map = np.full((2 * len(edges), self.kmax), -1, dtype=np.int64)
        for e, (u, v) in enumerate(edges):
            mp = c.edge_maps[(u, v)]
            for cu, cv in mp.items():
                dir_map[2 * e, index_of[u][cu]] = index_of[v][cv]
                dir_map[2 * e + 1, index_of[v][cv]] = index_of[u][cu]
        self.index_of = index_of
        self._set_edges(
            np.array([e[0] for e in edges], dtype=np.int64),
            np.array([e[1] for e in edges], dtype=np.int64),
            dir_map,
            k_arr,
            g.max_degree(),
            g.neighbours,
            g.neighbour_set,
            g.n,
        )

    @classmethod
    def _from_arrays(
        cls,
        base: _Compiled,
        eu: np.ndarray,
        ev: np.ndarray,
        dir_map: np.ndarray,
        k_arr: np.ndarray,
        adjacency: _Adjacency,
    ) -> _Compiled:
        """The instance with these edge arrays (sorted by (u, v), u < v)
        and base's max degree, whose first base.n vertices are base's and
        form its focus."""
        comp = cls.__new__(cls)
        comp.colour_values, comp.index_of = base.colour_values, base.index_of
        comp.kmax = base.kmax
        comp._set_edges(
            eu,
            ev,
            dir_map,
            k_arr,
            base.max_degree,
            adjacency.neighbours,
            adjacency.neighbour_set,
            base.n,
        )
        return comp

    def _set_edges(
        self, eu, ev, dir_map, k_arr, max_degree, neighbours, neighbour_set, focus
    ) -> None:
        """Install the edge arrays (sorted by (u, v), u < v) and the
        per-edge indexes derived from them; vertices below `focus` are
        real."""
        self.n = len(k_arr)
        self.m = len(eu)
        self.focus = focus
        self.eu, self.ev, self.dir_map, self.k_arr = eu, ev, dir_map, k_arr
        self.max_degree = max_degree
        self.neighbours = neighbours
        self.neighbour_set = neighbour_set
        self.dir_src = np.empty(2 * self.m, dtype=np.int64)
        self.dir_dst = np.empty(2 * self.m, dtype=np.int64)
        self.dir_src[0::2], self.dir_src[1::2] = eu, ev
        self.dir_dst[0::2], self.dir_dst[1::2] = ev, eu
        # Only rows into focus vertices feed the statistics.
        if self.focus == self.n:
            self.stat_rows = np.arange(2 * self.m, dtype=np.int64)
        else:
            self.stat_rows = np.flatnonzero(self.dir_dst < self.focus)
        self.stat_src = self.dir_src[self.stat_rows]
        self.stat_dst = self.dir_dst[self.stat_rows]
        touching = np.flatnonzero(eu < self.focus)
        self.dir_id: dict[tuple[int, int], int] = {}
        ends = zip(touching.tolist(), eu[touching].tolist(), ev[touching].tolist())
        for e, u, v in ends:
            self.dir_id[(u, v)] = 2 * e
            self.dir_id[(v, u)] = 2 * e + 1
        self._stats_built = False
        self._nuv_built = False

    # Lazily built structures for pair/triple statistics.
    def _build_stats(self) -> None:
        if self._stats_built:
            return
        nbr_set, dir_id = self.neighbour_set, self.dir_id
        in_rows = []  # (u, a, b, dir a->u, dir b->u) with a < b adjacent in N(u)
        path_rows = []  # (u, x, w, y, dirs...) with x-w, w-y edges inside N(u), x < y
        tri_rows = []  # (u, a, b, c, dirs...) triangle a<b<c inside N(u)
        for u in range(self.focus):
            nbrs = nbr_set(u)
            for a in sorted(nbrs):
                inner = sorted(nbr_set(a) & nbrs)
                for b in inner:
                    if a < b:
                        in_rows.append((u, a, b, dir_id[(a, u)], dir_id[(b, u)]))
                for i, x in enumerate(inner):
                    for y in inner[i + 1 :]:
                        path_rows.append(
                            (
                                u,
                                x,
                                a,
                                y,
                                dir_id[(x, u)],
                                dir_id[(a, u)],
                                dir_id[(y, u)],
                            )
                        )
                        if x in nbr_set(y) and a < x:
                            tri_rows.append(
                                (
                                    u,
                                    a,
                                    x,
                                    y,
                                    dir_id[(a, u)],
                                    dir_id[(x, u)],
                                    dir_id[(y, u)],
                                )
                            )
        self.in_rows = np.array(in_rows, dtype=np.int64).reshape(-1, 5)
        self.path_rows = np.array(path_rows, dtype=np.int64).reshape(-1, 7)
        self.tri_rows = np.array(tri_rows, dtype=np.int64).reshape(-1, 7)
        self._stats_built = True

    def _build_nuv(self) -> None:
        if self._nuv_built:
            return
        rows = _distance2_rows(self.neighbours, self.neighbour_set, self.focus)
        self.nuv_pairs, self.nuv_sizes, self.nuv_concat, self.nuv_pair_of_entry = rows
        self._nuv_built = True


def _distance2_rows(neighbours, neighbour_set, n: int):
    """Every pair u <= v < n at distance <= 2 (u = v included), in
    ascending order, with its common neighbourhood N(u) & N(v).

    Returns (pairs, sizes, concat, pair_of_entry): `sizes[p]` is the size of
    pair p's common neighbourhood, `concat` all common neighbourhoods (each
    sorted) one after another, and `pair_of_entry[i]` the pair of concat[i].
    """
    pairs: list[tuple[int, int]] = []
    concat: list[int] = []
    pair_of_entry: list[int] = []
    sizes: list[int] = []
    for u in range(n):
        candidates = {u}
        for w in neighbours(u):
            candidates.add(w)
            candidates.update(neighbours(w))
        for v in sorted(v for v in candidates if u <= v < n):
            common = sorted(neighbour_set(u) & neighbour_set(v))
            pair_of_entry.extend([len(pairs)] * len(common))
            pairs.append((u, v))
            sizes.append(len(common))
            concat.extend(common)
    return (
        pairs,
        np.array(sizes, dtype=np.int64),
        np.array(concat, dtype=np.int64),
        np.array(pair_of_entry, dtype=np.int64),
    )


class _Adjacency:
    """Sorted neighbour lists of an edge array, materialised per vertex on
    first use (only the focus vertices' surroundings are ever asked for)."""

    def __init__(self, n: int, eu: np.ndarray, ev: np.ndarray):
        src = np.concatenate([eu, ev])
        dst = np.concatenate([ev, eu])
        order = np.lexsort((dst, src))
        self._flat = dst[order]
        self._start = np.concatenate(
            [[0], np.cumsum(np.bincount(src, minlength=n))]
        ).tolist()
        self._lists: dict[int, tuple[int, ...]] = {}
        self._sets: dict[int, frozenset[int]] = {}

    def neighbours(self, u: int) -> tuple[int, ...]:
        nbrs = self._lists.get(u)
        if nbrs is None:
            nbrs = tuple(self._flat[self._start[u] : self._start[u + 1]].tolist())
            self._lists[u] = nbrs
        return nbrs

    def neighbour_set(self, u: int) -> frozenset[int]:
        nbrs = self._sets.get(u)
        if nbrs is None:
            nbrs = self._sets[u] = frozenset(self.neighbours(u))
        return nbrs


def _round_arrays(comp: _Compiled, seed: int):
    """Execute one round; returns (colour index per vertex, direction bits,
    kept mask)."""
    f1_idx = (
        _entity_draws(seed, KIND_COLOUR, comp.n) % comp.k_arr.astype(np.uint64)
    ).astype(np.int64)
    dirs = (_entity_draws(seed, KIND_DIRECTION, comp.m) & np.uint64(1)).astype(
        np.int64
    )
    kept = np.ones(comp.n, dtype=bool)
    if comp.m:
        rows = 2 * np.arange(comp.m, dtype=np.int64)
        matched = comp.dir_map[rows, f1_idx[comp.eu]] == f1_idx[comp.ev]
        targets = np.where(dirs == 0, comp.eu, comp.ev)
        kept[targets[matched]] = False
    return f1_idx, dirs, kept


def _falling2(x: np.ndarray) -> np.ndarray:
    return x * (x - 1) // 2


def _falling3(x: np.ndarray) -> np.ndarray:
    return x * (x - 1) * (x - 2) // 6


def _stats_arrays(comp: _Compiled, f1_idx: np.ndarray, kept: np.ndarray):
    """Col, Dist, pair and triple counts per vertex, from class counts.

    A kept neighbour a of u belongs to the class of the colour at u matched
    with a's colour.  Pair/triple counts over all same-class kept members are
    corrected down to non-adjacent ones by inclusion-exclusion over the edges
    inside each neighbourhood.  Arrays cover the focus vertices only.
    """
    comp._build_stats()
    n, kmax = comp.focus, comp.kmax
    if comp.m:
        cls = comp.dir_map[comp.stat_rows, f1_idx[comp.stat_src]]
        kept_src = kept[comp.stat_src]
        key = comp.stat_dst * kmax + cls
        counts = np.bincount(key[kept_src], minlength=n * kmax).reshape(n, kmax)
    else:
        counts = np.zeros((n, kmax), dtype=np.int64)
    col = counts.sum(axis=1)
    dist = (counts > 0).sum(axis=1)
    p_u = _falling2(counts).sum(axis=1)
    t_u = _falling3(counts).sum(axis=1)

    rows = comp.in_rows
    if rows.size:
        ca = comp.dir_map[rows[:, 3], f1_idx[rows[:, 1]]]
        cb = comp.dir_map[rows[:, 4], f1_idx[rows[:, 2]]]
        same = (ca == cb) & kept[rows[:, 1]] & kept[rows[:, 2]]
        p_u -= np.bincount(rows[same, 0], minlength=n)
        nc = counts[rows[same, 0], ca[same]]
        t_u -= np.bincount(rows[same, 0], weights=(nc - 2).astype(np.float64), minlength=n).astype(np.int64)
    rows = comp.path_rows
    if rows.size:
        cx = comp.dir_map[rows[:, 4], f1_idx[rows[:, 1]]]
        cw = comp.dir_map[rows[:, 5], f1_idx[rows[:, 2]]]
        cy = comp.dir_map[rows[:, 6], f1_idx[rows[:, 3]]]
        same = (
            (cx == cw)
            & (cw == cy)
            & kept[rows[:, 1]]
            & kept[rows[:, 2]]
            & kept[rows[:, 3]]
        )
        t_u += np.bincount(rows[same, 0], minlength=n)
    rows = comp.tri_rows
    if rows.size:
        ca = comp.dir_map[rows[:, 4], f1_idx[rows[:, 1]]]
        cb = comp.dir_map[rows[:, 5], f1_idx[rows[:, 2]]]
        cc = comp.dir_map[rows[:, 6], f1_idx[rows[:, 3]]]
        same = (
            (ca == cb)
            & (cb == cc)
            & kept[rows[:, 1]]
            & kept[rows[:, 2]]
            & kept[rows[:, 3]]
        )
        t_u -= np.bincount(rows[same, 0], minlength=n)
    return counts, col, dist, p_u, t_u


def _nuv_counts(comp: _Compiled, kept: np.ndarray) -> np.ndarray:
    comp._build_nuv()
    uncol = ~kept
    if comp.nuv_concat.size:
        return np.bincount(
            comp.nuv_pair_of_entry,
            weights=uncol[comp.nuv_concat].astype(np.float64),
            minlength=len(comp.nuv_pairs),
        ).astype(np.int64)
    return np.zeros(len(comp.nuv_pairs), dtype=np.int64)


def _residual_degrees(comp: _Compiled, kept: np.ndarray) -> np.ndarray:
    uncol = ~kept
    if comp.m:
        both = uncol[comp.eu] & uncol[comp.ev]
        ends = np.concatenate([comp.eu[both], comp.ev[both]])
        return np.bincount(ends, minlength=comp.n)
    return np.zeros(comp.n, dtype=np.int64)


def _outcome_from_arrays(
    comp: _Compiled, f1_idx: np.ndarray, dirs: np.ndarray, kept: np.ndarray
) -> RoundOutcome:
    """The outcome on the focus vertices and the edges between them."""
    focus = comp.focus
    f1 = tuple(
        comp.colour_values[u][i] for u, i in enumerate(f1_idx[:focus].tolist())
    )
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


def run_round(
    g: Graph,
    c: CorrespondenceAssignment,
    seed: int,
    require_total: bool = True,
) -> RoundOutcome:
    """One round; deterministic given the seed.

    A non-total assignment is an error unless `require_total` is disabled:
    the keep rule itself is well-defined for partial maps (colours outside a
    map's domain simply never conflict), but the closed-form keep probability
    only applies to total ones.
    """
    comp = _Compiled(g, c, require_total=require_total)
    return _outcome_from_arrays(comp, *_round_arrays(comp, seed))


def _stats_from_arrays(comp: _Compiled, f1_idx, kept) -> RoundStats:
    _, col, dist, p_u, t_u = _stats_arrays(comp, f1_idx, kept)
    return _stats_record(comp, kept, col, dist, p_u, t_u, _nuv_counts(comp, kept))


def _stats_record(comp: _Compiled, kept, col, dist, p_u, t_u, nuv) -> RoundStats:
    """RoundStats of the focus vertices from already computed arrays."""
    focus = comp.focus
    res_deg = _residual_degrees(comp, kept)[:focus]
    uncol_ids = np.flatnonzero(~kept[:focus])
    residual_max = int(res_deg[uncol_ids].max()) if uncol_ids.size else 0
    if uncol_ids.size:
        k_prime = int((comp.k_arr[uncol_ids] - dist[uncol_ids]).min())
    else:
        k_prime = None
    return RoundStats(
        col=tuple(col.tolist()),
        dist=tuple(dist.tolist()),
        pairs=tuple(p_u.tolist()),
        triples=tuple(t_u.tolist()),
        common_uncoloured=dict(zip(comp.nuv_pairs, nuv.tolist())),
        residual_max_degree=residual_max,
        k_prime=k_prime,
    )


def round_stats(
    g: Graph, c: CorrespondenceAssignment, outcome: RoundOutcome
) -> RoundStats:
    """Statistics of an outcome produced from (g, c)."""
    comp = _Compiled(g, c)
    return _round_stats_compiled(comp, outcome)


def _round_stats_compiled(comp: _Compiled, outcome: RoundOutcome) -> RoundStats:
    if len(outcome.f1) != comp.n:
        raise ValueError("outcome does not match the instance")
    try:
        f1_idx = np.array(
            [comp.index_of[u][col] for u, col in enumerate(outcome.f1)],
            dtype=np.int64,
        )
    except KeyError as exc:
        raise ValueError("outcome uses colours outside the assignment") from exc
    kept = np.zeros(comp.n, dtype=bool)
    kept[list(outcome.kept)] = True
    return _stats_from_arrays(comp, f1_idx, kept)


# -- quasirandomness -------------------------------------------------------------


SlackFunction = Callable[[float], float]


def asymptotic_slack(max_degree: float) -> float:
    """sqrt(D) (ln D)^5 deviation allowance (0 for D <= 1)."""
    if max_degree <= 1:
        return 0.0
    return math.sqrt(max_degree) * math.log(max_degree) ** 5


def practical_slack(coeff: float = 3.0) -> SlackFunction:
    """c * sqrt(D ln D): a usable allowance at small max degree."""

    def slack(max_degree: float) -> float:
        if max_degree <= 1:
            return 0.0
        return coeff * math.sqrt(max_degree * math.log(max_degree))

    return slack


@dataclass(frozen=True)
class QuasirandomReport:
    ok: bool
    worst_pair: Optional[tuple[int, int]]
    worst_deviation: float
    allowed: float

    def __iter__(self):
        # Unpack as (ok, worst_pair) per the operation contract.
        return iter((self.ok, self.worst_pair))


def quasirandom_check(
    g: Graph,
    uncoloured: set[int] | frozenset[int],
    mu: float,
    slack: SlackFunction | float,
) -> QuasirandomReport:
    """Check |#(N(u) & N(v) & uncoloured) - mu |N(u) & N(v)|| <= slack(max_degree)
    for every pair at distance <= 2 and every u = v; report the worst pair."""
    allowed = slack(g.max_degree()) if callable(slack) else float(slack)
    pairs, sizes, concat, pair_of_entry = _distance2_rows(
        g.neighbours, g.neighbour_set, g.n
    )
    if not pairs:
        return QuasirandomReport(True, None, -1.0, allowed)
    hits = np.isin(concat, list(uncoloured)).astype(np.float64)
    in_unc = np.bincount(pair_of_entry, weights=hits, minlength=len(pairs))
    dev = np.abs(in_unc - mu * sizes)
    worst = int(np.argmax(dev))  # the first pair of largest deviation
    worst_dev = float(dev[worst])
    return QuasirandomReport(worst_dev <= allowed, pairs[worst], worst_dev, allowed)


# -- restarted rounds -------------------------------------------------------------


@dataclass(frozen=True)
class RoundParams:
    """Thresholds a round must meet before it is accepted.

    `stat_threshold(u)` is the minimum acceptable pairs-minus-triples count
    at u; `mu` the expected uncoloured fraction used by the quasirandomness
    check; `slack` its allowance as a function of max degree.
    """

    gamma: float
    mu: float
    slack: SlackFunction
    stat_threshold: Callable[[int], float]
    profile: str = "custom"


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
    gamma: float,
    profile: str = "practical",
    tau: float = 0.5,
    slack_coeff: float = 3.0,
) -> RoundParams:
    """Thresholds at the given sparsity: the published formulas, or the
    `practical` profile which scales the statistic threshold by tau and uses
    the sqrt(D ln D) slack (the published allowances are vacuous or
    unattainable at desk-scale degrees)."""
    mu = 1.0 - keep_probability(k, max_degree) if max_degree else 0.0
    base = asymptotic_stat_threshold(k, max_degree, delta)
    if profile == "asymptotic":
        slack: SlackFunction = asymptotic_slack
        threshold = base
    elif profile == "practical":
        slack = practical_slack(slack_coeff)
        threshold = tau * base
    else:
        raise ValueError(f"unknown profile {profile!r}")
    return RoundParams(
        gamma=gamma,
        mu=mu,
        slack=slack,
        stat_threshold=lambda u: threshold,
        profile=profile,
    )


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

    def __bool__(self) -> bool:
        return self.ok


def attempt_round(
    g: Graph | _Compiled,
    c: Optional[CorrespondenceAssignment],
    params: RoundParams,
    seed: int,
    max_restarts: int = 200,
) -> AttemptResult:
    """Rerun rounds with derived seeds until no bad event holds.

    Bad events: the pairs-minus-triples statistic falling below threshold at
    an uncoloured vertex, and a quasirandomness violation of the uncoloured
    set.  `g` is either a graph, compiled here with the total assignment
    `c`, or an instance compiled beforehand with `c` None.  The driver
    passes the regularised copy from `_regularize_with_assignment`, whose
    focus is the residual graph's vertices: the throwaway copies' own
    statistics never influence the residual instance, so only vertices (and
    vertex pairs) in the focus are checked.  The returned outcome and
    statistics then describe the focus vertices alone: `f1`, `kept`, `f`
    and the per-vertex statistics are indexed by focus vertex, `direction`
    covers the edges between focus vertices, `common_uncoloured` the pairs
    of focus vertices, and `residual_max_degree` / `k_prime` are taken over
    the uncoloured focus vertices (with degrees counted in the whole graph).
    For a graph, the focus is every vertex.

    On success returns the accepted outcome and statistics; after exhausting
    the restart budget, returns ok=False carrying the best-seen attempt
    (fewest violations) and its violation report.
    """
    if isinstance(g, _Compiled):
        if c is not None:
            raise TypeError("a compiled instance carries its own assignment")
        comp = g
    else:
        comp = _Compiled(g, c)
    comp._build_nuv()
    sizes = comp.nuv_sizes.astype(np.float64)
    allowed = params.slack(comp.max_degree) if callable(params.slack) else float(params.slack)
    thresholds = np.array(
        [params.stat_threshold(u) for u in range(comp.focus)], dtype=np.float64
    )

    def result(ok: bool, restarts: int, violations, arrays) -> AttemptResult:
        f1_idx, dirs, kept, col, dist, p_u, t_u, nuv = arrays
        outcome = _outcome_from_arrays(comp, f1_idx, dirs, kept)
        stats = _stats_record(comp, kept, col, dist, p_u, t_u, nuv)
        return AttemptResult(ok, outcome, stats, restarts, violations)

    best: Optional[tuple[int, ViolationReport, tuple]] = None
    for attempt in range(max(1, max_restarts)):
        attempt_seed = derive_seed(seed, KIND_RESTART, attempt)
        f1_idx, dirs, kept = _round_arrays(comp, attempt_seed)
        _, col, dist, p_u, t_u = _stats_arrays(comp, f1_idx, kept)
        stat_bad = np.flatnonzero(((p_u - t_u) < thresholds) & ~kept[: comp.focus])
        nuv = _nuv_counts(comp, kept)
        dev = np.abs(nuv.astype(np.float64) - params.mu * sizes)
        quasi_bad = np.flatnonzero(dev > allowed)
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
    i: int
    eps: float
    gamma: float
    delta: float
    k: float
    mu: float
    r: float


@dataclass(frozen=True)
class IterationSchedule:
    """Per-iteration parameter table.

    Row i holds eps_i = eps' - i beta/2, gamma_i = eps_i e^{-1/(2(1-eps_i))}
    + beta, delta_i interpolating from delta down to delta', the predicted
    degree scale r_i (r_{i+1} = (mu_i + beta/2) r_i), list size
    k_i = (1 - eps_i) r_i and expected uncoloured fraction mu_i.  The final
    eps is negative, so the predicted list size overtakes the degree and a
    greedy pass finishes.
    """

    rows: tuple[ScheduleRow, ...]
    eps_prime: float
    delta: float
    delta_prime: float
    beta: float

    @property
    def iterations(self) -> int:
        return len(self.rows) - 1


def _gamma_map(eps: float) -> float:
    return eps * math.exp(-1.0 / (2.0 * (1.0 - eps)))


def default_beta(eps_prime: float, delta_prime: float) -> float:
    """Half the feasibility gap at (eps', delta'); positive iff feasible."""
    from .bounds import savings_rate

    return 0.5 * (savings_rate(eps_prime, delta_prime) - _gamma_map(eps_prime))


def build_schedule(
    eps: float, delta: float, beta: float, delta_prime: float, r0: float
) -> IterationSchedule:
    """Build and validate the iteration table starting from degree scale r0.

    `eps` is the exact list-size deficit of the instance (the caller rounds
    k / (max_degree + 1)).  Requires beta small enough that
    eps e^{-1/(2(1-eps))} + beta < savings_rate(eps, delta_prime); each row
    must satisfy gamma_i < savings_rate(eps_i, delta_i) and the final eps
    must be negative.
    """
    from .bounds import savings_rate

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
    big_t = math.ceil(2.0 * eps / beta) + 1
    rows = []
    r = float(r0)
    for i in range(big_t + 1):
        eps_i = eps - i * beta / 2.0
        gamma_i = _gamma_map(eps_i) + beta
        delta_i = delta - (i / big_t) * (delta - delta_prime)
        k_i = (1.0 - eps_i) * r
        base = 1.0 - 1.0 / (2.0 * k_i) if k_i > 0.5 else 0.0
        mu_i = 1.0 - base**r
        if gamma_i >= savings_rate(eps_i, delta_i):
            raise ScheduleError(
                f"infeasible beta={beta}: gamma_{i}={gamma_i:.6f} >= "
                f"savings_rate={savings_rate(eps_i, delta_i):.6f}"
            )
        rows.append(ScheduleRow(i, eps_i, gamma_i, delta_i, k_i, mu_i, r))
        r = (mu_i + beta / 2.0) * r
    if rows[-1].eps >= 0:
        raise ScheduleError("final eps must be negative (beta too small?)")
    return IterationSchedule(tuple(rows), eps, delta, delta_prime, beta)


# -- greedy completion ---------------------------------------------------------------


def _greedy_correspondence(
    g: Graph, c: CorrespondenceAssignment, order: Sequence[int]
) -> tuple[PartialColouring, list[int]]:
    """First-fit along `order`, skipping colours matched with coloured
    neighbours' colours."""
    f: PartialColouring = {}
    failed: list[int] = []
    for v in order:
        forbidden = set()
        for w in g.neighbours(v):
            if w in f:
                back = c.correspondent(w, v, f[w])
                if back is not None:
                    forbidden.add(back)
        choice = next((col for col in c.colours(v) if col not in forbidden), None)
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
    hypothesis_held: bool = True

    def __bool__(self) -> bool:
        return self.ok


def greedy_complete(
    g: Graph, c: CorrespondenceAssignment, f: PartialColouring
) -> CompletionResult:
    """Extend a valid partial colouring greedily through the residual instance.

    When every uncoloured vertex has more residual colours than uncoloured
    neighbours the completion always succeeds; otherwise the attempt is made
    anyway and failures are reported (with `hypothesis_held` recording
    whether the guarantee applied).
    """
    if len(f) == g.n:
        if not is_valid_colouring(g, c, f):
            raise AssignmentError("colouring is not valid")
        return CompletionResult(True, dict(f))
    residual = residual_assignment(g, c, f)
    sub, rc = residual.graph, residual.assignment
    hypothesis = all(
        len(rc.colour_sets[v]) > sub.degree(v) for v in range(sub.n)
    )
    order = min_degree_ordering(sub, range(sub.n))
    extension, failed = _greedy_correspondence(sub, rc, order)
    total = dict(f)
    total.update({residual.vertices[v]: col for v, col in extension.items()})
    if failed:
        return CompletionResult(
            False,
            total,
            tuple(residual.vertices[v] for v in failed),
            hypothesis,
        )
    assert is_valid_colouring(g, c, total), "greedy completion must be valid"
    return CompletionResult(True, total, (), hypothesis)


# -- iterative driver ---------------------------------------------------------------

REGULARIZED_SIZE_CAP = 2_000_000


def _regularize_with_assignment(
    g: Graph, c: CorrespondenceAssignment
) -> tuple[_Compiled, _Compiled]:
    """Doubling regularisation carrying the assignment along, in array form.

    Each step takes two copies of the current graph and joins every vertex
    of degree below the maximum D to its twin, until the graph is regular:
    n 2^(D - delta_min) vertices in the end, with g induced on the first g.n
    (the focus).  Copies reuse their original's direction-map rows; a
    joining edge gets the identity map, since both ends carry the same
    colour set.  Edges end up sorted by (u, v), the order of Graph.edges()
    by which direction draws are keyed.

    Returns the compiled regularised instance, focused on g's vertices, and
    the compiled input.
    """
    base = _Compiled(g, c)
    target = base.max_degree
    degree = np.bincount(np.concatenate([base.eu, base.ev]), minlength=base.n)
    steps = target - int(degree.min()) if base.n else 0
    n_final = base.n << steps
    if n_final > REGULARIZED_SIZE_CAP:
        # eu, ev, dir_src, dir_dst and the (2m x kmax) map, plus k_arr.
        nbytes = 8 * (n_final * target * (base.kmax + 3) + n_final)
        raise ScheduleError(
            f"regularised graph would have {n_final} vertices "
            f"({nbytes / 2**20:.0f} MiB compiled), above the cap of "
            f"{REGULARIZED_SIZE_CAP} vertices"
        )
    eu, ev, dir_map = _double(base, degree, steps)
    return (
        _Compiled._from_arrays(
            base,
            eu,
            ev,
            dir_map,
            np.tile(base.k_arr, 1 << steps),
            _Adjacency(n_final, eu, ev),
        ),
        base,
    )


def _double(base: _Compiled, degree: np.ndarray, steps: int):
    """The edge arrays and direction map of `steps` doubling steps of
    base, sorted by (u, v); `degree` is base's degree per vertex."""
    target, n0, kmax = base.max_degree, base.n, base.kmax
    eu, ev = base.eu, base.ev
    forward, backward = base.dir_map[0::2], base.dir_map[1::2]
    cols = np.arange(kmax)
    identity = np.where(cols < base.k_arr[:, None], cols, -1)
    n = n0
    for _ in range(steps):
        low = np.flatnonzero(degree < target)
        join = identity[low % n0]  # vertex x copies vertex x % n0
        eu = np.concatenate([eu, eu + n, low])
        ev = np.concatenate([ev, ev + n, low + n])
        forward = np.concatenate([forward, forward, join])
        backward = np.concatenate([backward, backward, join])
        degree = np.tile(degree, 2)
        degree[low] += 1
        degree[low + n] += 1
        n *= 2
    order = np.lexsort((ev, eu))
    dir_map = np.empty((2 * len(eu), kmax), dtype=np.int64)
    dir_map[0::2], dir_map[1::2] = forward[order], backward[order]
    return eu[order], ev[order], dir_map


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

    def __bool__(self) -> bool:
        return self.ok


def iterative_colour(
    g: Graph,
    c: CorrespondenceAssignment,
    schedule: IterationSchedule,
    seed: int,
    max_restarts: int = 200,
    profile: str = "practical",
    tau: float = 0.5,
    slack_coeff: float = 3.0,
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
    while True:
        if cur_g.n == 0:
            break
        k_min = cur_c.min_size()
        if k_min == 0:
            return ColouringResult(
                False,
                colouring,
                tuple(reports),
                "a residual colour list is empty",
                iteration,
            )
        if k_min > cur_g.max_degree():
            order = min_degree_ordering(cur_g, range(cur_g.n))
            extension, failed = _greedy_correspondence(cur_g, cur_c, order)
            if failed:
                return ColouringResult(
                    False,
                    colouring,
                    tuple(reports),
                    f"greedy finish failed at vertex {ids[failed[0]]}",
                    iteration,
                )
            colouring.update({ids[v]: col for v, col in extension.items()})
            break
        if iteration >= schedule.iterations:
            return ColouringResult(
                False,
                colouring,
                tuple(reports),
                "schedule exhausted before the greedy threshold was reached",
                iteration,
            )
        row = schedule.rows[iteration]
        work_c = totalize(cur_g, truncate(cur_c, k_min))
        reg, _ = _regularize_with_assignment(cur_g, work_c)
        params = default_round_params(
            k_min,
            reg.max_degree,
            delta=row.delta,
            gamma=row.gamma,
            profile=profile,
            tau=tau,
            slack_coeff=slack_coeff,
        )
        result = attempt_round(
            reg, None, params, derive_seed(seed, KIND_ROUND, iteration), max_restarts
        )
        if not result.ok:
            return ColouringResult(
                False,
                colouring,
                tuple(reports),
                f"round {iteration} exhausted {max_restarts} restarts "
                f"({len(result.violations.stat_vertices)} statistic and "
                f"{len(result.violations.quasirandom_pairs)} quasirandomness "
                "violations in the best attempt)",
                iteration,
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
