"""Exhaustive oracles, Monte Carlo estimation, and exact colouring."""

import itertools
from fractions import Fraction

import pytest

from sparsecolour.correspondence import (
    CorrespondenceAssignment,
    from_lists,
    is_valid_colouring,
    residual_assignment,
    uniform_lists,
)
from sparsecolour.generators import (
    complete_graph,
    cycle_graph,
    empty_graph,
    gnp_graph,
    path_graph,
    petersen_graph,
    star_graph,
)
from sparsecolour.graph import GraphError
from sparsecolour.harness import (
    apply_keep_rule,
    correspondence_colourable,
    enumerate_outcomes,
    exact_chromatic,
    exact_keep_probability,
    monte_carlo_round,
    naive_outcome_stats,
)
from sparsecolour.ncp import (
    KIND_TRIAL,
    RoundOutcome,
    derive_seed,
    greedy_complete,
    residual_sparsity_experiment,
    round_stats,
    run_round,
)
from sparsecolour.strong_edge import c5_blowup


class TestEnumerateOutcomes:
    def test_refuses_partial_maps(self):
        g = path_graph(2)
        with pytest.raises(GraphError, match="enumeration requires a total assignment"):
            enumerate_outcomes(g, from_lists(g, [[0, 1], [1, 2]]))

    def test_k2_single_colour(self):
        g = complete_graph(2)
        res = enumerate_outcomes(g, uniform_lists(g, 1))
        assert res.outcome_count == 2
        assert res.keep_probability == (Fraction(1, 2), Fraction(1, 2))

    def test_k3_two_colours_matches_closed_form(self):
        g = complete_graph(3)
        res = enumerate_outcomes(g, uniform_lists(g, 2))
        assert res.outcome_count == 64
        assert all(p == Fraction(9, 16) for p in res.keep_probability)
        assert exact_keep_probability(2, 2) == Fraction(9, 16)

    def test_star_pair_expectation_hand_sum(self):
        # centre with two leaves, identical 2-colour lists: conditioned on
        # the leaves agreeing (prob 1/2 per colour pair), both stay coloured
        # unless the centre drew the same colour, when both survive only if
        # both edges point at the centre: 1/2 * 1 + 1/2 * 1/4 = 5/8 per
        # matching colour pair, so E[pairs at the centre] = 2*(1/4)*(5/8).
        g = star_graph(2)
        res = enumerate_outcomes(g, uniform_lists(g, 2))
        assert res.expected_pairs[0] == Fraction(5, 16)

    def test_three_leaf_star_matches_per_pair_linearity(self):
        # E[pairs at the centre] must equal the sum over the three leaf
        # pairs of P[both kept with equal colours], accumulated separately.
        g = star_graph(3)
        c = uniform_lists(g, 2)
        res = enumerate_outcomes(g, c)
        edges = list(g.edges())
        leaf_pairs = [(1, 2), (1, 3), (2, 3)]
        hits = {p: 0 for p in leaf_pairs}
        count = 0
        for f1 in itertools.product(*c.colour_sets):
            for bits in itertools.product((0, 1), repeat=len(edges)):
                direction = {
                    (u, v): (u if b == 0 else v)
                    for (u, v), b in zip(edges, bits)
                }
                kept = apply_keep_rule(g, c, f1, direction)
                count += 1
                for a, b in leaf_pairs:
                    if a in kept and b in kept and f1[a] == f1[b]:
                        hits[(a, b)] += 1
        direct = sum(Fraction(h, count) for h in hits.values())
        assert direct == res.expected_pairs[0] == Fraction(15, 16)

    def test_guard(self):
        g = gnp_graph(12, 0.5, seed=0)
        with pytest.raises(GraphError, match="guard"):
            enumerate_outcomes(g, uniform_lists(g, 4))


def iterate_full_outcome_space(g, c):
    edges = list(g.edges())
    for f1 in itertools.product(*c.colour_sets):
        for bits in itertools.product((0, 1), repeat=len(edges)):
            direction = {
                (u, v): (u if b == 0 else v) for (u, v), b in zip(edges, bits)
            }
            kept = apply_keep_rule(g, c, f1, direction)
            yield RoundOutcome(
                f1=f1,
                direction=direction,
                kept=frozenset(kept),
                f={u: f1[u] for u in kept},
            )


def tiny_instances():
    g = path_graph(3)
    yield g, uniform_lists(g, 2)
    g = cycle_graph(4)
    yield g, uniform_lists(g, 2)
    g = complete_graph(3)
    yield g, uniform_lists(g, 2)
    g = star_graph(3)
    yield g, uniform_lists(g, 2)
    # one non-identity bijection assignment
    g = path_graph(3)
    yield g, CorrespondenceAssignment(
        ((0, 1), (0, 1), (0, 1)),
        {(0, 1): {0: 1, 1: 0}, (1, 2): {0: 0, 1: 1}},
    )


class TestOracleEngineAgreement:
    def test_stats_agree_on_every_outcome(self):
        for g, c in tiny_instances():
            for outcome in iterate_full_outcome_space(g, c):
                stats = round_stats(g, c, outcome)
                col, dist, pairs, triples = naive_outcome_stats(
                    g, c, outcome.f1, set(outcome.kept)
                )
                assert stats.col == tuple(col)
                assert stats.dist == tuple(dist)
                assert stats.pairs == tuple(pairs)
                assert stats.triples == tuple(triples)

    def test_engine_round_matches_oracle_keep_rule(self):
        for g, c in tiny_instances():
            for seed in range(40):
                o = run_round(g, c, seed)
                assert set(o.kept) == apply_keep_rule(g, c, o.f1, o.direction)

    def test_oracle_keep_probability_matches_closed_form_when_regular(self):
        for g, k in [(complete_graph(2), 1), (complete_graph(3), 3), (cycle_graph(4), 2)]:
            c = uniform_lists(g, k)
            res = enumerate_outcomes(g, c)
            expected = exact_keep_probability(k, g.degree(0))
            assert all(p == expected for p in res.keep_probability)

    def test_keep_probability_is_degree_local_on_all_tiny_graphs(self):
        # On every labelled graph with at most 4 vertices and every uniform
        # list size up to 3, the exact keep probability of each vertex is
        # (1 - 1/2k)^degree, irregular instances included.  Counted over the
        # raw outcome space with the naive keep rule.
        from sparsecolour.graph import Graph

        for n in range(1, 5):
            possible = list(itertools.combinations(range(n), 2))
            for picks in itertools.product((0, 1), repeat=len(possible)):
                edges = [e for e, bit in zip(possible, picks) if bit]
                g = Graph.from_edges(n, edges)
                for k in (1, 2, 3):
                    c = uniform_lists(g, k)
                    keep_counts = [0] * n
                    total = 0
                    for f1 in itertools.product(*c.colour_sets):
                        for bits in itertools.product((0, 1), repeat=len(edges)):
                            direction = {
                                (u, v): (u if b == 0 else v)
                                for (u, v), b in zip(edges, bits)
                            }
                            kept = apply_keep_rule(g, c, f1, direction)
                            total += 1
                            for u in kept:
                                keep_counts[u] += 1
                    for u in range(n):
                        assert Fraction(keep_counts[u], total) == (
                            exact_keep_probability(k, g.degree(u))
                        )

    def test_partial_colouring_extension_condition(self):
        # whenever repeats cover the list deficit everywhere, the greedy
        # completion goes through (checked over entire outcome spaces)
        for g, c in tiny_instances():
            k = c.min_size()
            for outcome in iterate_full_outcome_space(g, c):
                stats = round_stats(g, c, outcome)
                hypothesis = all(
                    stats.col[u] - stats.dist[u] >= g.degree(u) + 1 - k
                    for u in range(g.n)
                )
                if hypothesis:
                    residual = residual_assignment(g, c, outcome.f)
                    result = greedy_complete(residual.graph, residual.assignment)
                    assert result.ok
                    merged = dict(outcome.f)
                    merged.update(
                        {residual.vertices[v]: col for v, col in result.colouring.items()}
                    )
                    assert is_valid_colouring(g, c, merged)


def _random_bijections(g, k, seed):
    """k colours per vertex from 0..2k-1, a random bijection per edge."""
    import random

    rng = random.Random(seed)
    sets = tuple(tuple(sorted(rng.sample(range(2 * k), k))) for _ in range(g.n))
    maps = {}
    for u, v in g.edges():
        image = list(sets[v])
        rng.shuffle(image)
        maps[(u, v)] = dict(zip(sets[u], image))
    return CorrespondenceAssignment(sets, maps)


class TestMonteCarloBlockSums:
    """The per-block integer and bit-count sums against per-trial
    run_round + round_stats, compared exactly."""

    @pytest.mark.parametrize("trials", [1, 64, 65])
    @pytest.mark.parametrize("chunk", [1 << 16, 5], ids=["one-chunk", "small-chunks"])
    def test_sums_match_per_trial_stats(self, monkeypatch, trials, chunk):
        from sparsecolour import ncp

        monkeypatch.setattr(ncp, "CROSS_CHUNK_ROWS", chunk)
        g = gnp_graph(14, 0.4, seed=3)
        self._check(g, _random_bijections(g, 3, seed=8), trials)

    @pytest.mark.parametrize("trials", [1, 64, 65, 130])
    @pytest.mark.parametrize("chunk", [1 << 16, 5], ids=["one-chunk", "small-chunks"])
    @pytest.mark.parametrize("lists", ["uniform", "bijections"])
    def test_small_cross_term_tiles_match_per_trial_stats(self, monkeypatch, lists, chunk, trials):
        """Tiles of 6 words (6 rows of one block, 3 rows of 2 blocks, 2 rows
        of 3 blocks at 130 trials) split one pair's rows across tiles; on
        uniform lists every row class takes the identity shortcut."""
        from sparsecolour import graph, ncp
        from sparsecolour.ncp import _compile

        monkeypatch.setattr(ncp, "CROSS_CHUNK_ROWS", chunk)
        monkeypatch.setattr(graph, "AND_TILE_WORDS", 6)
        g = gnp_graph(14, 0.4, seed=3)
        c = uniform_lists(g, 3) if lists == "uniform" else _random_bijections(g, 3, seed=8)
        comp = _compile(g, c)
        assert comp.identity == (lists == "uniform")
        comp._build_nuv()
        rows = comp.nuv_sizes * (comp.nuv_sizes - 1) // 2
        assert rows.max() > 6 // -(-trials // 64)
        self._check(g, c, trials)

    @staticmethod
    def _check(g, c, trials):
        import math

        rep = monte_carlo_round(g, c, trials=trials, seed=5)
        pair_sums = [[0, 0] for _ in range(g.n)]
        triple_sums = [[0, 0] for _ in range(g.n)]
        nuv_sums = {}
        for t in range(trials):
            stats = round_stats(g, c, run_round(g, c, derive_seed(5, KIND_TRIAL, t)))
            for u in range(g.n):
                pair_sums[u][0] += stats.pairs[u]
                pair_sums[u][1] += stats.pairs[u] ** 2
                triple_sums[u][0] += stats.triples[u]
                triple_sums[u][1] += stats.triples[u] ** 2
            for pair, count in stats.common_uncoloured.items():
                total, sq = nuv_sums.get(pair, (0, 0))
                nuv_sums[pair] = (total + count, sq + count * count)

        def mean_se(total, sq):
            mean = total / trials
            return mean, math.sqrt(max(sq / trials - mean * mean, 0.0) / trials)

        assert any(sq for _, sq in triple_sums)
        pairs = [mean_se(*s) for s in pair_sums]
        triples = [mean_se(*s) for s in triple_sums]
        assert rep.pairs_mean == tuple(m for m, _ in pairs)
        assert rep.pairs_se == tuple(se for _, se in pairs)
        assert rep.triples_mean == tuple(m for m, _ in triples)
        assert rep.triples_se == tuple(se for _, se in triples)
        nuv = {pair: mean_se(*s) for pair, s in nuv_sums.items()}
        assert rep.common_uncoloured_mean == {p: m for p, (m, _) in nuv.items()}
        assert rep.common_uncoloured_se == {p: se for p, (_, se) in nuv.items()}


class TestMonteCarloSlices:
    """Blocks run as slices of trials per kernel call; the slice width must
    change nothing."""

    @pytest.mark.parametrize("trials", [1, 15, 17, 64, 65, 130])
    def test_any_slice_width_gives_the_same_report(self, monkeypatch, trials):
        from sparsecolour import ncp
        from sparsecolour.ncp import _compile

        g = gnp_graph(14, 0.4, seed=3)
        c = _random_bijections(g, 3, seed=8)
        comp = _compile(g, c)
        comp._build_stats()
        rows = comp.n + comp.m + len(comp.stat_src)
        rows += comp.in_rows.shape[1] + comp.tri_rows.shape[1]
        assert ncp.SLICE_ROWS // rows >= 64  # one slice per block
        reference = monte_carlo_round(g, c, trials=trials, seed=5)
        for width in (1, 5, 17):
            monkeypatch.setattr(ncp, "SLICE_ROWS", width * rows)
            assert ncp._slice_width(comp, common_uncoloured=False) == width
            assert monte_carlo_round(g, c, trials=trials, seed=5) == reference


    def test_class_counts_refused_before_the_pair_listing(self, monkeypatch):
        # `_slice_width` checks one trial's class counts, CLASS_COUNT_BYTES
        # per colour index and vertex, before it builds the indexes; Monte
        # Carlo has no check of its own.
        from sparsecolour import budget, ncp

        def no_listing(*args):
            raise AssertionError("the class counts come before the pair listing")

        g = empty_graph(4)
        c = uniform_lists(g, 200_000)
        comp = ncp._compile(g, c)
        monkeypatch.setattr(ncp, "_neighbour_pairs", no_listing)
        monkeypatch.setattr(budget, "MEMORY_BUDGET", ncp.CLASS_COUNT_BYTES * 200_000 * 4 - 1)
        for call in (
            lambda: ncp._slice_width(comp, common_uncoloured=True),
            lambda: monte_carlo_round(g, c, trials=1, seed=1),
        ):
            with pytest.raises(budget.BudgetError, match="^class counts of 200000 colours on 4 "):
                call()


class TestMonteCarlo:
    def test_refuses_zero_trials(self):
        g = path_graph(2)
        with pytest.raises(ValueError, match="need at least one trial"):
            monte_carlo_round(g, uniform_lists(g, 2), trials=0, seed=0)

    def test_edgeless_keeps_everything(self):
        g = empty_graph(4)
        rep = monte_carlo_round(g, uniform_lists(g, 2), trials=50, seed=0)
        assert rep.keep_mean == (1.0, 1.0, 1.0, 1.0)
        assert rep.global_keep_mean == 1.0

    def test_trial_replay(self):
        g = cycle_graph(5)
        c = uniform_lists(g, 2)
        trials = 16
        rep = monte_carlo_round(g, c, trials=trials, seed=123)
        keeps = [0.0] * g.n
        for t in range(trials):
            o = run_round(g, c, derive_seed(123, KIND_TRIAL, t))
            for u in o.kept:
                keeps[u] += 1
        assert tuple(k / trials for k in keeps) == rep.keep_mean

    def test_means_converge_to_oracle(self):
        g = star_graph(2)
        c = uniform_lists(g, 2)
        oracle = enumerate_outcomes(g, c)
        rep = monte_carlo_round(g, c, trials=10_000, seed=31)
        for u in range(g.n):
            se = max(rep.keep_se[u], 1e-9)
            assert abs(rep.keep_mean[u] - float(oracle.keep_probability[u])) < 4 * se
        se = max(rep.pairs_se[0], 1e-9)
        assert abs(rep.pairs_mean[0] - float(oracle.expected_pairs[0])) < 4 * se
        for pair, expected in oracle.expected_common_uncoloured.items():
            se = max(rep.common_uncoloured_se[pair], 1e-9)
            assert abs(rep.common_uncoloured_mean[pair] - float(expected)) < 4 * se

    def test_keep_frequency_against_closed_form(self):
        from sparsecolour.generators import random_regular_graph

        g = random_regular_graph(50, 8, seed=4)
        c = uniform_lists(g, 6)
        rep = monte_carlo_round(g, c, trials=2000, seed=17)
        assert abs(rep.global_keep_z) < 4

    def test_pair_expectation_diagnostic_vs_formula(self):
        # Measured E[pairs] against the lower-bound formula
        # delta_u C(D,2)/k (1 - 1/k)^D; the formula carries an asymptotic
        # slack factor, so the ratio is only recorded as a diagnostic, not
        # asserted to exceed one.
        import math

        from sparsecolour.generators import random_regular_graph
        from sparsecolour.graph import local_sparsity

        g = random_regular_graph(40, 6, seed=9)
        k = 5
        c = uniform_lists(g, k)
        rep = monte_carlo_round(g, c, trials=3000, seed=23)
        d = g.max_degree()
        report = local_sparsity(g)
        denom = math.comb(d, 2)
        ratios = []
        for u in range(g.n):
            delta_u = 1 - report.neighbourhood_edges[u] / denom
            formula = delta_u * denom / k * (1 - 1 / k) ** d
            if formula > 0:
                ratios.append(rep.pairs_mean[u] / formula)
        assert ratios and all(math.isfinite(r) and r > 0 for r in ratios)


class TestResidualSparsityExperiment:
    def test_triangle_free_host_stays_triangle_free(self):
        g = c5_blowup(3)
        c = uniform_lists(g, 6)
        rep = residual_sparsity_experiment(g, c, rounds=3, trials=3, seed=2)
        for trial in rep.trial_rounds:
            for row in trial:
                if row.residual_delta is not None:
                    assert row.residual_delta == 1.0
                    assert row.delta_ratio == 1.0

    def test_clique_host_stays_complete(self):
        g = complete_graph(6)
        c = uniform_lists(g, 4)
        rep = residual_sparsity_experiment(g, c, rounds=3, trials=4, seed=3)
        assert rep.host_delta == 0.0
        for trial in rep.trial_rounds:
            for row in trial:
                if row.residual_delta is not None:
                    assert row.residual_delta == 0.0

    def test_blowup_report_generated(self):
        g = c5_blowup(4)
        c = uniform_lists(g, 6)
        rep = residual_sparsity_experiment(g, c, rounds=2, trials=2, seed=11)
        assert rep.rounds == 2 and rep.trials == 2
        assert len(rep.trial_rounds) == 2

    def test_requires_regular_host(self):
        with pytest.raises(GraphError):
            residual_sparsity_experiment(
                star_graph(3), uniform_lists(star_graph(3), 2), 1, 1, 0
            )


class TestExactChromatic:
    def test_five_cycle(self):
        assert exact_chromatic(cycle_graph(5)) == 3

    def test_petersen(self):
        assert exact_chromatic(petersen_graph()) == 3

    def test_small_cases(self):
        assert exact_chromatic(empty_graph(3)) == 1
        assert exact_chromatic(complete_graph(6)) == 6
        assert exact_chromatic(path_graph(4)) == 2

    def test_guard(self):
        with pytest.raises(GraphError):
            exact_chromatic(empty_graph(21))

    def test_correspondence_decision(self):
        g = complete_graph(3)
        c = from_lists(g, [{1, 2}] * 3)
        assert not correspondence_colourable(g, c)
        c3 = from_lists(g, [{1, 2, 3}] * 3)
        assert correspondence_colourable(g, c3)
