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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .correspondence import (
    CorrespondenceAssignment,
    is_total,
    residual_assignment,
    totalize,
    truncate,
)
from .graph import Graph, GraphError, first_fit, local_sparsity
from .ncp import (
    KIND_TRIAL,
    _Compiled,
    _nuv_counts,
    _regularize_with_assignment,
    _round_arrays,
    _stats_arrays,
    derive_seed,
    keep_probability,
    asymptotic_slack,
    quasirandom_check,
)

ENUMERATION_GUARD = 10_000_000
_MC_BLOCK = 64


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
        if c.corresponds(u, v, f1[u], f1[v]):
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
    total = 1
    for s in c.colour_sets:
        total *= len(s)
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
            "set_sizes": list(c.set_sizes()),
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

    The reference for the engine's array doubling: copies keep their colour
    sets and maps, and the edge joining a deficient vertex to its twin gets
    the identity map.
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
        new_sets = cur_c.colour_sets + cur_c.colour_sets
        new_maps: dict[tuple[int, int], dict[int, int]] = {}
        for (u, v), mp in cur_c.edge_maps.items():
            new_maps[(u, v)] = dict(mp)
            new_maps[(u + n, v + n)] = dict(mp)
        for u in deficient:
            new_maps[(u, u + n)] = {col: col for col in cur_c.colour_sets[u]}
        cur_g = Graph.from_edges(2 * n, new_edges)
        cur_c = CorrespondenceAssignment(new_sets, new_maps)
    return cur_g, cur_c


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
    be replayed through run_round.  Trials are aggregated in fixed blocks of
    64 and the blocks reduced in order, making the result identical for any
    thread count.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    comp = _Compiled(g, c)
    comp._build_stats()
    comp._build_nuv()
    n = comp.n
    npairs = len(comp.nuv_pairs)
    blocks = [(lo, min(lo + _MC_BLOCK, trials)) for lo in range(0, trials, _MC_BLOCK)]

    def run_block(bounds):
        lo, hi = bounds
        sums = np.zeros((3, n))
        sqs = np.zeros((3, n))
        nuv_sum = np.zeros(npairs)
        nuv_sq = np.zeros(npairs)
        gsum = 0.0
        gsq = 0.0
        for t in range(lo, hi):
            f1_idx, _, kept = _round_arrays(comp, derive_seed(seed, KIND_TRIAL, t))
            _, _, _, p_u, t_u = _stats_arrays(comp, f1_idx, kept)
            kf = kept.astype(np.float64)
            pf = p_u.astype(np.float64)
            tf = t_u.astype(np.float64)
            sums[0] += kf
            sums[1] += pf
            sums[2] += tf
            sqs[0] += kf * kf
            sqs[1] += pf * pf
            sqs[2] += tf * tf
            gfrac = float(kf.sum()) / n
            gsum += gfrac
            gsq += gfrac * gfrac
            nuv = _nuv_counts(comp, kept).astype(np.float64)
            nuv_sum += nuv
            nuv_sq += nuv * nuv
        return sums, sqs, nuv_sum, nuv_sq, gsum, gsq

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_block, blocks))
    else:
        results = [run_block(b) for b in blocks]

    sums = np.zeros((3, n))
    sqs = np.zeros((3, n))
    nuv_sum = np.zeros(npairs)
    nuv_sq = np.zeros(npairs)
    gsum = 0.0
    gsq = 0.0
    for s, q, ns, nq, gs, gq in results:
        sums += s
        sqs += q
        nuv_sum += ns
        nuv_sq += nq
        gsum += gs
        gsq += gq

    def mean_se(total, total_sq):
        mean = total / trials
        var = np.maximum(total_sq / trials - mean * mean, 0.0)
        se = np.sqrt(var / trials)
        return mean, se

    keep_mean, keep_se = mean_se(sums[0], sqs[0])
    pairs_mean, pairs_se = mean_se(sums[1], sqs[1])
    triples_mean, triples_se = mean_se(sums[2], sqs[2])
    nuv_mean, nuv_se = mean_se(nuv_sum, nuv_sq)

    expected = np.array(
        [keep_probability(len(c.colour_sets[u]), g.degree(u)) for u in range(n)]
    )
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
        common_uncoloured_mean={
            pair: float(nuv_mean[i]) for i, pair in enumerate(comp.nuv_pairs)
        },
        common_uncoloured_se={
            pair: float(nuv_se[i]) for i, pair in enumerate(comp.nuv_pairs)
        },
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

    def delta_ratios(self) -> list[float]:
        return [
            r.delta_ratio
            for trial in self.trial_rounds
            for r in trial
            if r.delta_ratio is not None
        ]


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
    host_delta = local_sparsity(g).delta
    all_trials = []
    for t in range(trials):
        cur_g, cur_c = g, c
        trial_rows = []
        for i in range(rounds):
            if cur_g.n == 0 or cur_c.min_size() == 0:
                break
            work_c = totalize(cur_g, truncate(cur_c, cur_c.min_size()))
            reg, base = _regularize_with_assignment(cur_g, work_c)
            round_seed = derive_seed(seed, KIND_TRIAL, t, i)
            f1_idx, _, kept = _round_arrays(reg, round_seed)
            kept_real = {v for v in range(cur_g.n) if kept[v]}
            f_real = {v: base.colour_values[v][f1_idx[v]] for v in kept_real}
            mu = 1.0 - keep_probability(cur_c.min_size(), reg.max_degree)
            qr = quasirandom_check(
                cur_g,
                set(range(cur_g.n)) - kept_real,
                mu,
                asymptotic_slack,
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
    f: dict[int, int] = {}

    def backtrack(v: int) -> bool:
        if v == g.n:
            return True
        for colour in c.colour_sets[v]:
            if any(
                w in f and c.corresponds(v, w, colour, f[w])
                for w in g.neighbours(v)
            ):
                continue
            f[v] = colour
            if backtrack(v + 1):
                return True
            del f[v]
        return False

    return backtrack(0)
