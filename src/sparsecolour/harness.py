"""Verification infrastructure: exhaustive oracles and Monte Carlo estimators.

The enumeration oracle walks the full outcome space of one round (every
tentative colouring times every edge-direction vector), applies the keep rule
deterministically, and accumulates exact rational statistics.  Its per-outcome
statistics are recomputed by a second, deliberately naive implementation
(plain pairwise loops) so the optimised engine can be checked against it.

Monte Carlo estimation shares the engine's seed derivation, so any individual
trial can be replayed.  Trials are processed in fixed blocks whose partial
sums are reduced in block order, which makes the aggregate exactly
independent of the number of worker threads.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .correspondence import (
    AssignmentError,
    CorrespondenceAssignment,
    PartialColouring,
    Residual,
    is_total,
    residual_assignment,
)
from . import budget
from .graph import DimacsError, Graph, GraphError, first_fit, local_sparsity
from .ncp import (
    CLASS_COUNT_BYTES,
    KIND_TRIAL,
    _check_distance2,
    _Compiled,
    _compile,
    _derived_seeds,
    _group_pairs,
    _regularize_with_assignment,
    _round_arrays,
    _slice_width,
    _stats_arrays,
    derive_seed,
    keep_probability,
    asymptotic_slack,
    quasirandom_check,
)
from .strong_edge import strong_neighbourhood

ENUMERATION_GUARD = 10_000_000
_MC_BLOCK = 64
# Rows per chunk of the Monte Carlo common-neighbour pair index.  The index
# has sum over pairs p of |C_p|(|C_p| - 1)/2 rows, which grows like the
# fourth power of the degree on dense graphs, so only one chunk is held.
_MC_CHUNK = 1 << 16


# -- naive per-outcome statistics (the independent reference) -------------------


def naive_outcome_stats(
    g: Graph, c: CorrespondenceAssignment, f1: tuple[int, ...], kept: set[int]
):
    """Col, Dist, pair and triple counts by direct pairwise loops.

    No class bucketing, no indexing tricks: every pair and triple of
    neighbours is inspected directly against the definitions.
    """
    col = [0] * g.n
    dist = [0] * g.n
    pairs = [0] * g.n
    triples = [0] * g.n
    for u in range(g.n):
        matched_colours = []
        for v in g.neighbours(u):
            if v in kept:
                back = c.correspondent(v, u, f1[v])
                if back is not None:
                    matched_colours.append(back)
        col[u] = sum(1 for v in g.neighbours(u) if v in kept)
        dist[u] = len(set(matched_colours))
        nbrs = g.neighbours(u)
        for i, v1 in enumerate(nbrs):
            for v2 in nbrs[i + 1 :]:
                if g.has_edge(v1, v2) or v1 not in kept or v2 not in kept:
                    continue
                c1 = c.correspondent(v1, u, f1[v1])
                c2 = c.correspondent(v2, u, f1[v2])
                if c1 is not None and c1 == c2:
                    pairs[u] += 1
        for i, v1 in enumerate(nbrs):
            for j in range(i + 1, len(nbrs)):
                v2 = nbrs[j]
                for v3 in nbrs[j + 1 :]:
                    if (
                        g.has_edge(v1, v2)
                        or g.has_edge(v1, v3)
                        or g.has_edge(v2, v3)
                    ):
                        continue
                    if v1 not in kept or v2 not in kept or v3 not in kept:
                        continue
                    c1 = c.correspondent(v1, u, f1[v1])
                    c2 = c.correspondent(v2, u, f1[v2])
                    c3 = c.correspondent(v3, u, f1[v3])
                    if c1 is not None and c1 == c2 == c3:
                        triples[u] += 1
    return col, dist, pairs, triples


def apply_keep_rule(
    g: Graph,
    c: CorrespondenceAssignment,
    f1: tuple[int, ...],
    direction: dict[tuple[int, int], int],
) -> set[int]:
    """The uncolouring rule, evaluated naively edge by edge."""
    kept = set(range(g.n))
    for u, v in g.edges():
        if c.correspondent(u, v, f1[u]) == f1[v]:
            kept.discard(direction[(u, v)])
    return kept


# -- exhaustive enumeration -------------------------------------------------------


@dataclass(frozen=True)
class EnumerationResult:
    """Exact round statistics over the full outcome space.

    All values are exact rationals; `outcome_count` equals the product of the
    colour set sizes times 2^edges.  `instance` summarises what was
    enumerated (vertex count, edge count, colour set sizes).
    """

    instance: dict
    outcome_count: int
    keep_probability: tuple[Fraction, ...]
    expected_pairs: tuple[Fraction, ...]
    expected_triples: tuple[Fraction, ...]
    expected_common_uncoloured: dict[tuple[int, int], Fraction]


def enumerate_outcomes(
    g: Graph, c: CorrespondenceAssignment
) -> EnumerationResult:
    """Walk every (tentative colouring, direction vector) pair exactly."""
    if not is_total(g, c):
        raise GraphError("enumeration requires a total assignment")
    total = math.prod(c.sizes.tolist())
    edges = list(g.edges())
    total *= 2 ** len(edges)
    if total > ENUMERATION_GUARD:
        raise GraphError(
            f"outcome space of size {total} exceeds the {ENUMERATION_GUARD} guard"
        )

    keep_ct = [0] * g.n
    pair_ct = [0] * g.n
    triple_ct = [0] * g.n
    dist2_pairs = _distance2_pairs(g)
    nuv_ct = {pair: 0 for pair in dist2_pairs}

    for f1 in itertools.product(*c.colour_sets):
        for dir_bits in itertools.product((0, 1), repeat=len(edges)):
            direction = {
                (u, v): (u if bit == 0 else v)
                for (u, v), bit in zip(edges, dir_bits)
            }
            kept = apply_keep_rule(g, c, f1, direction)
            for u in kept:
                keep_ct[u] += 1
            _, _, pairs, triples = naive_outcome_stats(g, c, f1, kept)
            for u in range(g.n):
                pair_ct[u] += pairs[u]
                triple_ct[u] += triples[u]
            for (u, v) in dist2_pairs:
                common = g.neighbour_set(u) & g.neighbour_set(v)
                nuv_ct[(u, v)] += sum(1 for w in common if w not in kept)

    return EnumerationResult(
        instance={
            "vertices": g.n,
            "edges": len(edges),
            "set_sizes": c.sizes.tolist(),
        },
        outcome_count=total,
        keep_probability=tuple(Fraction(k, total) for k in keep_ct),
        expected_pairs=tuple(Fraction(p, total) for p in pair_ct),
        expected_triples=tuple(Fraction(t, total) for t in triple_ct),
        expected_common_uncoloured={
            pair: Fraction(v, total) for pair, v in nuv_ct.items()
        },
    )


def _distance2_pairs(g: Graph) -> list[tuple[int, int]]:
    pairs = []
    for u in range(g.n):
        candidates = {u}
        for w in g.neighbours(u):
            candidates.add(w)
            candidates.update(g.neighbours(w))
        pairs.extend((u, v) for v in sorted(candidates) if v >= u)
    return pairs


def naive_regularize_with_assignment(
    g: Graph, c: CorrespondenceAssignment
) -> tuple[Graph, CorrespondenceAssignment]:
    """Doubling regularisation built step by step as a graph and dict maps.

    The reference for the engine's ball of the copy (`ncp._ball`), built
    whole: copies keep their colour sets and maps, and the edge joining a
    deficient vertex to its twin gets the identity map.
    """
    target = g.max_degree()
    cur_g, cur_c = g, c
    while not cur_g.is_regular():
        n = cur_g.n
        edges = list(cur_g.edges())
        deficient = [u for u in range(n) if cur_g.degree(u) < target]
        new_edges = (
            edges
            + [(u + n, v + n) for u, v in edges]
            + [(u, u + n) for u in deficient]
        )
        new_sets = cur_c.colour_sets * 2
        new_maps: dict[tuple[int, int], dict[int, int]] = {}
        for (u, v), mp in cur_c.edge_maps.items():
            new_maps[(u, v)] = dict(mp)
            new_maps[(u + n, v + n)] = dict(mp)
        for u in deficient:
            new_maps[(u, u + n)] = {col: col for col in new_sets[u]}
        cur_g = Graph.from_edges(2 * n, new_edges)
        cur_c = CorrespondenceAssignment(new_sets, new_maps)
    return cur_g, cur_c


def naive_truncate(c: CorrespondenceAssignment, k: int) -> CorrespondenceAssignment:
    """Every colour set cut to its k smallest colours, and every dict map
    to the pairs whose colours both survive: the reference for
    correspondence.truncate."""
    if any(size < k for size in c.sizes.tolist()):
        raise AssignmentError(f"some colour set smaller than k={k}")
    new_sets = tuple(s[:k] for s in c.colour_sets)
    kept = [set(s) for s in new_sets]
    new_maps = {
        (u, v): {
            c1: c2 for c1, c2 in mp.items() if c1 in kept[u] and c2 in kept[v]
        }
        for (u, v), mp in c.edge_maps.items()
    }
    return CorrespondenceAssignment(new_sets, new_maps)


def naive_totalize(g: Graph, c: CorrespondenceAssignment) -> CorrespondenceAssignment:
    """Every dict map extended to a bijection, unmatched colours paired in
    ascending order: the reference for correspondence.totalize."""
    sets = c.colour_sets
    sizes = set(len(s) for s in sets)
    if len(sizes) > 1:
        raise AssignmentError(f"totalize needs equal colour set sizes, got {sizes}")
    new_maps: dict[tuple[int, int], dict[int, int]] = {}
    maps = c.edge_maps
    for u, v in g.edges():
        mp = dict(maps.get((u, v), {}))
        free_u = [col for col in sets[u] if col not in mp]
        used_v = set(mp.values())
        free_v = [col for col in sets[v] if col not in used_v]
        mp.update(zip(free_u, free_v))
        new_maps[(u, v)] = mp
    return CorrespondenceAssignment(sets, new_maps)


def naive_is_valid_colouring(
    g: Graph, c: CorrespondenceAssignment, f: PartialColouring
) -> bool:
    """Edge-by-edge validity check: the reference for
    correspondence.is_valid_colouring."""
    sets = c.colour_sets
    for u, colour in f.items():
        if colour not in set(sets[u]):
            return False
    for u, v in g.edges():
        if u in f and v in f and c.correspondent(u, v, f[u]) == f[v]:
            return False
    return True


def naive_min_degree_ordering(g: Graph) -> list[int]:
    """Each step rescans the rest for the vertex of least degree among it,
    ties to the smallest id: the reference for graph.min_degree_ordering."""
    remaining = set(range(g.n))
    order: list[int] = []
    while remaining:
        best = min(
            remaining,
            key=lambda v: (len(g.neighbour_set(v) & remaining), v),
        )
        order.append(best)
        remaining.remove(best)
    return order


def naive_residual_assignment(
    g: Graph, c: CorrespondenceAssignment, f: PartialColouring
) -> Residual:
    """The residual instance built vertex by vertex and edge by edge as
    dicts: the reference for correspondence.residual_assignment."""
    if not naive_is_valid_colouring(g, c, f):
        raise AssignmentError("partial colouring is not valid for the assignment")
    uncoloured = [u for u in range(g.n) if u not in f]
    sub, old_ids = g.induced(uncoloured)
    sets = c.colour_sets
    new_sets = []
    for old in old_ids:
        removed = set()
        for w in g.neighbours(old):
            if w in f:
                back = c.correspondent(w, old, f[w])
                if back is not None:
                    removed.add(back)
        new_sets.append(tuple(col for col in sets[old] if col not in removed))
    kept = [set(s) for s in new_sets]
    new_maps: dict[tuple[int, int], dict[int, int]] = {}
    for a, b in sub.edges():
        mp = c.map_between(old_ids[a], old_ids[b])
        new_maps[(a, b)] = {
            c1: c2 for c1, c2 in mp.items() if c1 in kept[a] and c2 in kept[b]
        }
    return Residual(sub, CorrespondenceAssignment(tuple(new_sets), new_maps), old_ids)


def naive_dir_map(g: Graph, c: CorrespondenceAssignment) -> np.ndarray:
    """The compiled direction map filled entry by entry from the dict maps:
    row 2e is u->v of edge e, row 2e+1 is v->u, entries colour indices at
    the target (-1 for none)."""
    index_of = [{col: i for i, col in enumerate(s)} for s in c.colour_sets]
    kmax = max(c.sizes.tolist(), default=1)
    edges = list(g.edges())
    dir_map = np.full((2 * len(edges), kmax), -1, dtype=np.int64)
    maps = c.edge_maps
    for e, (u, v) in enumerate(edges):
        for cu, cv in maps.get((u, v), {}).items():
            dir_map[2 * e, index_of[u][cu]] = index_of[v][cv]
            dir_map[2 * e + 1, index_of[v][cv]] = index_of[u][cu]
    return dir_map


def naive_parse_dimacs(text: str) -> Graph:
    """Line by line over text.splitlines(), each edge kept in a set once
    read: the reference for graph.parse_dimacs, giving the same graph or the
    same DimacsError text (it checks no memory budget)."""
    n: Optional[int] = None
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0].startswith("c"):
            continue
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
            if (min(u, v), max(u, v)) in seen:
                raise DimacsError(f"line {lineno}: duplicate edge {u} {v}")
            seen.add((min(u, v), max(u, v)))
        else:
            raise DimacsError(f"line {lineno}: unknown record '{fields[0]}'")
    if n is None:
        raise DimacsError("missing problem line")
    return Graph.from_edges(n, [(u - 1, v - 1) for u, v in seen])


def naive_strong_colouring_valid(
    h: Graph, edge_index: list[tuple[int, int]], colours: dict[int, int]
) -> bool:
    """Per-edge distance-2 scan: the reference for the pipeline's validator.

    Every host edge is compared with each edge of its strong neighbourhood,
    O(m D²) tuples; raises KeyError when `edge_index` or `colours` misses one.
    """
    id_of = {e: i for i, e in enumerate(edge_index)}
    for i, e in enumerate(edge_index):
        for f in strong_neighbourhood(h, e):
            if colours[i] == colours[id_of[f]]:
                return False
    return True


def exact_keep_probability(k: int, degree: int) -> Fraction:
    """(1 - 1/(2k))^degree as an exact rational."""
    return Fraction(2 * k - 1, 2 * k) ** degree


# -- Monte Carlo --------------------------------------------------------------------


@dataclass(frozen=True)
class MonteCarloReport:
    """Sample means and standard errors over independent rounds.

    `keep_z` compares the per-vertex keep frequency with the closed form
    (1 - 1/(2k))^degree.  The `global_keep_*` fields treat each trial's
    graph-wide keep fraction as one sample, which accounts for the
    correlation between vertices within a trial.  Standard errors use the
    sample variance; results are exactly independent of the worker thread
    count.
    """

    trials: int
    keep_mean: tuple[float, ...]
    keep_se: tuple[float, ...]
    keep_expected: tuple[float, ...]
    keep_z: tuple[float, ...]
    global_keep_mean: float
    global_keep_se: float
    global_keep_expected: float
    global_keep_z: float
    pairs_mean: tuple[float, ...]
    pairs_se: tuple[float, ...]
    triples_mean: tuple[float, ...]
    triples_se: tuple[float, ...]
    common_uncoloured_mean: dict[tuple[int, int], float]
    common_uncoloured_se: dict[tuple[int, int], float]


def monte_carlo_round(
    g: Graph,
    c: CorrespondenceAssignment,
    trials: int,
    seed: int,
    threads: int = 1,
) -> MonteCarloReport:
    """Estimate round statistics over `trials` independently seeded rounds.

    Trial t uses seed derive_seed(seed, KIND_TRIAL, t), so single trials can
    be replayed through run_round.  Trials run in fixed blocks of 64, and a
    block in slices: one call of the draw-and-statistics kernel takes a
    slice of trials as (slice, n) arrays.  `ncp._slice_width` sizes the
    slice by its draws and its statistic, in-row and triangle rows (the
    common-uncoloured counts come from the words below, not from the
    kernel) and by the memory budget; every row of it equals what its trial
    alone gives, so the width changes no result.  A run whose one trial's
    class counts exceed the budget is refused.  A block stacks its trials'
    keep flags and pair and triple counts and sums them as integers.  It
    packs the uncoloured flags into one 64-bit word U_w per vertex w, bit i
    for the block's i-th trial.  For a pair p at distance <= 2 with common neighbourhood C_p, the
    sums of the common-uncoloured count nuv_t(p) and of its square are then

        sum_t nuv_t(p)   = sum over w in C_p of the trials with w uncoloured,
        sum_t nuv_t(p)^2 = sum_t nuv_t(p)
                           + 2 sum over blocks, w < w' in C_p of
                             popcount(U_w & U_w').

    After the blocks, the pairs (w, w', p) are indexed once, in int32
    chunks of about _MC_CHUNK rows, and each chunk is counted against every
    block's words.  The words take trials / 8 bytes per vertex.  The cross
    term costs O(sum |C_p|^2) per block, against O(64 sum |C_p|) for
    counting each trial separately, so it pays on sparse graphs and costs
    more when common neighbourhoods are large, as in C5 blow-ups.  Only the
    graph-wide keep fraction is a float; it is summed per trial in trial
    order.  The blocks are reduced in order, so the result is identical for
    any thread count.  The words and the blocks' bookkeeping are checked
    against the memory budget before any work, and the compiled instance
    and both indexes where they are built.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if g.n == 0:
        raise ValueError("Monte Carlo needs a graph with at least one vertex")
    nblocks = -(-trials // _MC_BLOCK)
    # The words and 16 rows of n: the totals and one block's sums and words
    # (11 rows), and a margin, since the peak moves once the words outgrow
    # a block's work (on paths of 300 to 3,000 vertices the traced growth
    # from one block to forty is 39 words and up to 11.6 rows more); in a
    # thread pool, each block's future, work item and bounds (1.95 KB).
    nbytes = 8 * g.n * (nblocks + 16) + (2048 * nblocks if threads > 1 else 0)
    budget.check(f"Monte Carlo run of {nblocks} blocks", nbytes)
    comp = _compile(g, c)
    counts = CLASS_COUNT_BYTES * comp.kmax * comp.focus
    budget.check(f"class counts of {comp.kmax} colours on {comp.focus} vertices", counts)
    comp._build_nuv()  # and the statistic index, from the same listing
    n = comp.n
    npairs = len(comp.nuv_pairs)
    blocks = ((lo, min(lo + _MC_BLOCK, trials)) for lo in range(0, trials, _MC_BLOCK))
    width = _slice_width(comp, common_uncoloured=False)

    def run_block(bounds):
        lo, hi = bounds
        kept = np.empty((hi - lo, n), dtype=bool)
        p_u = np.empty((hi - lo, n), dtype=np.int64)
        t_u = np.empty_like(p_u)
        for start in range(lo, hi, width):
            stop = min(start + width, hi)
            part = slice(start - lo, stop - lo)
            seeds = _derived_seeds(seed, KIND_TRIAL, start, stop)
            _, _, kept[part], cls = _round_arrays(comp, seeds)
            _, _, p_u[part], t_u[part] = _stats_arrays(comp, cls, kept[part])
        gsum = 0.0
        gsq = 0.0
        for kept_count in kept.sum(axis=1).tolist():
            gfrac = kept_count / n
            gsum += gfrac
            gsq += gfrac * gfrac
        sums = (
            kept.sum(axis=0),
            p_u.sum(axis=0),
            (p_u * p_u).sum(axis=0),
            t_u.sum(axis=0),
            (t_u * t_u).sum(axis=0),
        )
        return sums, gsum, gsq, _pack_words(~kept)

    totals = None
    gsum = 0.0
    gsq = 0.0
    words = np.empty((nblocks, n), dtype=np.uint64)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        # Results arrive in block order and are reduced as they come.
        results = pool.map(run_block, blocks) if threads > 1 else map(run_block, blocks)
        for b, (sums, gs, gq, block_words) in enumerate(results):
            words[b] = block_words
            totals = sums if totals is None else [a + s for a, s in zip(totals, sums)]
            gsum += gs
            gsq += gq
    keep_total, p_total, p_sq, t_total, t_sq = totals

    nuv = np.bincount(
        comp.nuv_pair_of_entry,
        weights=(trials - keep_total)[comp.nuv_concat],
        minlength=npairs,
    ).astype(np.int64)
    cross = np.zeros(npairs, dtype=np.int64)
    for w, w2, p, plo, phi in _common_pair_chunks(comp):
        both = np.zeros(len(p), dtype=np.int64)
        for row in words:
            both += np.bitwise_count(row[w] & row[w2])
        cross[plo:phi] += np.bincount(p, weights=both, minlength=phi - plo).astype(
            np.int64
        )

    def mean_se(total, total_sq):
        mean = total / trials
        var = np.maximum(total_sq / trials - mean * mean, 0.0)
        se = np.sqrt(var / trials)
        return mean, se

    # The sum of squares of 0/1 keep flags is their sum.
    keep_mean, keep_se = mean_se(keep_total, keep_total)
    pairs_mean, pairs_se = mean_se(p_total, p_sq)
    triples_mean, triples_se = mean_se(t_total, t_sq)
    nuv_mean, nuv_se = mean_se(nuv, nuv + 2 * cross)

    sizes = c.sizes.tolist()
    expected = np.array([keep_probability(sizes[u], g.degree(u)) for u in range(n)])
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(keep_se > 0, (keep_mean - expected) / keep_se, 0.0)

    g_mean = gsum / trials
    g_var = max(gsq / trials - g_mean * g_mean, 0.0)
    g_se = (g_var / trials) ** 0.5
    g_expected = float(expected.mean())
    g_z = (g_mean - g_expected) / g_se if g_se > 0 else 0.0

    return MonteCarloReport(
        trials=trials,
        keep_mean=tuple(keep_mean.tolist()),
        keep_se=tuple(keep_se.tolist()),
        keep_expected=tuple(expected.tolist()),
        keep_z=tuple(z.tolist()),
        global_keep_mean=g_mean,
        global_keep_se=g_se,
        global_keep_expected=g_expected,
        global_keep_z=g_z,
        pairs_mean=tuple(pairs_mean.tolist()),
        pairs_se=tuple(pairs_se.tolist()),
        triples_mean=tuple(triples_mean.tolist()),
        triples_se=tuple(triples_se.tolist()),
        common_uncoloured_mean=dict(zip(comp.nuv_pairs, nuv_mean.tolist())),
        common_uncoloured_se=dict(zip(comp.nuv_pairs, nuv_se.tolist())),
    )


def _pack_words(bits: np.ndarray) -> np.ndarray:
    """One uint64 per column of a (<= 64, n) bool array, bit i from row i
    (in packbits' order)."""
    packed = np.zeros((8, bits.shape[1]), dtype=np.uint8)
    packed[: (len(bits) + 7) // 8] = np.packbits(bits, axis=0)
    return np.ascontiguousarray(packed.T).view(np.uint64).ravel()


def _common_pair_chunks(comp: _Compiled):
    """Every pair w < w' of common neighbours of every distance-<=2 pair p.

    Yields (w, w', p - lo, lo, hi) for the pairs p in lo..hi-1, the arrays
    as int32; a chunk holds the rows of whole pairs, about _MC_CHUNK of them
    (more only when one pair alone has more).
    """
    sizes, concat, pair_of_entry = comp.nuv_sizes, comp.nuv_concat, comp.nuv_pair_of_entry
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    group_end = offsets[1:][pair_of_entry]
    per_pair = sizes * (sizes - 1) // 2
    chunk = (np.cumsum(per_pair) - per_pair) // _MC_CHUNK
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
            f1_idx, _, kept, _ = _round_arrays(reg, [round_seed])
            kept_ids = np.flatnonzero(kept[0, : cur_g.n])
            kept_real = set(kept_ids.tolist())
            colours = reg.colour_values[kept_ids, f1_idx[0, kept_ids]]
            f_real = dict(zip(kept_ids.tolist(), colours.tolist()))
            mu = 1.0 - keep_probability(cur_c.min_size(), reg.max_degree)
            qr = quasirandom_check(
                cur_g,
                set(range(cur_g.n)) - kept_real,
                mu,
                asymptotic_slack(cur_g.max_degree()),
            )
            residual = residual_assignment(cur_g, work_c, f_real)
            delta = None
            ratio = None
            if residual.graph.n and residual.graph.max_degree() >= 2:
                delta = local_sparsity(residual.graph).delta
                ratio = delta / host_delta if host_delta > 0 else None
            trial_rows.append(
                SparsityTrialRound(
                    round_index=i,
                    residual_vertices=residual.graph.n,
                    residual_max_degree=(
                        residual.graph.max_degree() if residual.graph.n else 0
                    ),
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


# -- exact colouring oracles ------------------------------------------------------------

CHROMATIC_GUARD = 20


def exact_chromatic(g: Graph) -> int:
    """Exact chromatic number by branch and bound (guarded to n <= 20)."""
    if g.n > CHROMATIC_GUARD:
        raise GraphError(f"exact chromatic number capped at n={CHROMATIC_GUARD}")
    if g.n == 0:
        return 0
    if g.m == 0:
        return 1

    order = sorted(range(g.n), key=g.degree, reverse=True)
    best = max(first_fit(g, order).values()) + 1

    colours = [-1] * g.n

    def feasible(k: int) -> bool:
        def backtrack(idx: int) -> bool:
            if idx == g.n:
                return True
            v = order[idx]
            used = {colours[w] for w in g.neighbours(v) if colours[w] >= 0}
            tried = min(k, max((colours[order[j]] for j in range(idx)), default=-1) + 2)
            for colour in range(tried):
                if colour in used:
                    continue
                colours[v] = colour
                if backtrack(idx + 1):
                    return True
                colours[v] = -1
            return False

        for i in range(g.n):
            colours[i] = -1
        return backtrack(0)

    low = 1
    while low < best and feasible(best - 1):
        best -= 1
    return best


def correspondence_colourable(g: Graph, c: CorrespondenceAssignment) -> bool:
    """Exact decision of colourability under an assignment (n <= 20)."""
    if g.n > CHROMATIC_GUARD:
        raise GraphError(f"exact search capped at n={CHROMATIC_GUARD}")
    sets = c.colour_sets
    f: dict[int, int] = {}

    def backtrack(v: int) -> bool:
        if v == g.n:
            return True
        for colour in sets[v]:
            if any(
                w in f and c.correspondent(v, w, colour) == f[w]
                for w in g.neighbours(v)
            ):
                continue
            f[v] = colour
            if backtrack(v + 1):
                return True
            del f[v]
        return False

    return backtrack(0)
