"""Round execution, statistics, thresholds, schedule, and the driver."""

import math
import random

import numpy as np
import pytest

from sparsecolour import ncp
from sparsecolour.correspondence import (
    AssignmentError,
    CorrespondenceAssignment,
    from_lists,
    is_valid_colouring,
    residual_assignment,
    totalize,
    truncate,
    uniform_lists,
)
from sparsecolour.generators import (
    complete_graph,
    cycle_graph,
    empty_graph,
    gnp_graph,
    path_graph,
    random_regular_graph,
    star_graph,
)
from sparsecolour.graph import local_sparsity
from sparsecolour.harness import _distance2_pairs, naive_regularize_with_assignment
from sparsecolour.ncp import (
    DELTA_PRIME_SHARE,
    QuasirandomReport,
    RoundOutcome,
    ScheduleError,
    _compile,
    _distance2_rows,
    _entity_draws,
    _regularize_with_assignment,
    attempt_round,
    build_schedule,
    default_beta,
    default_round_params,
    derive_seed,
    greedy_complete,
    iterative_colour,
    keep_probability,
    asymptotic_slack,
    practical_slack,
    quasirandom_check,
    round_stats,
    run_round,
)
from sparsecolour.strong_edge import c5_blowup


class TestSeedDerivation:
    def test_scalar_vector_agreement(self):
        draws = _entity_draws([12345, 678], [0xC01, 0xD12], [10, 4])
        assert draws.shape == (2, 14)
        for row, seed in enumerate([12345, 678]):
            for i in range(10):
                assert int(draws[row, i]) == derive_seed(seed, 0xC01, i)
            for i in range(4):
                assert int(draws[row, 10 + i]) == derive_seed(seed, 0xD12, i)

    def test_order_sensitivity(self):
        assert derive_seed(1, 2) != derive_seed(2, 1)


class TestKeepProbability:
    def test_values(self):
        assert keep_probability(1, 1) == 0.5
        assert keep_probability(2, 2) == 9 / 16

    def test_monotone_limit(self):
        values = [keep_probability(k, 5) for k in range(1, 200)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 0.98

    def test_domain(self):
        with pytest.raises(ValueError):
            keep_probability(0, 3)


class TestRunRound:
    def test_deterministic(self):
        g = gnp_graph(8, 0.5, seed=2)
        c = uniform_lists(g, 3)
        assert run_round(g, c, seed=99) == run_round(g, c, seed=99)

    def test_k2_single_colour_one_end_kept(self):
        g = complete_graph(2)
        c = uniform_lists(g, 1)
        kept_counts = [0, 0]
        for seed in range(400):
            o = run_round(g, c, seed)
            assert len(o.kept) == 1  # always conflicts, one end uncoloured
            kept_counts[next(iter(o.kept))] += 1
        # each end kept about half the time
        assert abs(kept_counts[0] / 400 - 0.5) < 0.1

    def test_triangle_keep_frequency(self):
        g = complete_graph(3)
        c = uniform_lists(g, 2)
        keeps = 0
        trials = 4000
        for seed in range(trials):
            keeps += len(run_round(g, c, seed).kept)
        freq = keeps / (3 * trials)
        assert freq == pytest.approx(9 / 16, abs=0.03)

    def test_non_total_rejected_by_default(self):
        g = cycle_graph(4)
        c = from_lists(g, [{0, 1}, {2, 3}, {4, 5}, {6, 7}])
        with pytest.raises(AssignmentError):
            run_round(g, c, seed=0)

    @pytest.mark.parametrize("seed", range(25))
    def test_outcome_always_valid(self, seed):
        g = gnp_graph(9, 0.6, seed=seed)
        c = uniform_lists(g, 2 + seed % 3)
        o = run_round(g, c, seed)
        assert is_valid_colouring(g, c, o.f)
        assert set(o.f) == set(o.kept)
        for u in o.kept:
            assert o.f[u] == o.f1[u]


class TestInstanceChecks:
    def test_compiled_refuses_size_mismatch(self):
        with pytest.raises(AssignmentError, match="assignment does not match graph size"):
            _compile(path_graph(3), uniform_lists(path_graph(2), 2))

    def test_compiled_refuses_empty_set(self):
        c = CorrespondenceAssignment(((), (0,)), {})
        with pytest.raises(AssignmentError, match="all colour sets must be nonempty"):
            _compile(path_graph(2), c)

    def test_round_stats_refuses_other_instance(self):
        g = path_graph(3)
        outcome = run_round(g, uniform_lists(g, 2), 0)
        with pytest.raises(ValueError, match="outcome does not match the instance"):
            round_stats(path_graph(2), uniform_lists(path_graph(2), 2), outcome)

    def test_unknown_profile(self):
        with pytest.raises(ValueError, match="unknown profile 'fast'"):
            default_round_params(3, 4, 0.5, "fast")


class TestRoundStats:
    def test_star_pair_counted(self):
        # both leaves kept, corresponding to the same colour at the centre
        g = star_graph(2)
        c = uniform_lists(g, 2)
        outcome = RoundOutcome(
            f1=(1, 0, 0),
            direction={(0, 1): 0, (0, 2): 0},
            kept=frozenset({0, 1, 2}),
            f={0: 1, 1: 0, 2: 0},
        )
        stats = round_stats(g, c, outcome)
        assert stats.pairs[0] == 1
        assert stats.triples[0] == 0
        assert stats.col[0] == 2 and stats.dist[0] == 1

    def test_triangle_never_has_pairs(self):
        # neighbourhoods of a triangle are single edges: no non-adjacent pairs
        g = complete_graph(3)
        c = uniform_lists(g, 2)
        for seed in range(50):
            o = run_round(g, c, seed)
            stats = round_stats(g, c, o)
            assert stats.pairs == (0, 0, 0)
            assert stats.triples == (0, 0, 0)

    def test_mismatched_outcome_rejected(self):
        g = complete_graph(3)
        c = uniform_lists(g, 2)
        bad = RoundOutcome((9, 0, 0), {}, frozenset(), {})
        with pytest.raises(ValueError):
            round_stats(g, c, bad)

    @pytest.mark.parametrize("seed", range(30))
    def test_inclusion_exclusion_on_list_assignments(self, seed):
        g = gnp_graph(10, 0.5, seed=seed)
        c = uniform_lists(g, 2 + seed % 2)
        o = run_round(g, c, seed)
        stats = round_stats(g, c, o)
        for u in range(g.n):
            assert stats.col[u] >= stats.dist[u]
            assert stats.col[u] - stats.dist[u] >= stats.pairs[u] - stats.triples[u]
        # n_{u,u} equals the uncoloured-neighbour count
        for u in range(g.n):
            expected = sum(1 for w in g.neighbours(u) if w not in o.kept)
            assert stats.common_uncoloured[(u, u)] == expected

    def test_repeats_bound_fails_for_general_maps(self):
        # Documented discrepancy: with non-list maps, four kept neighbours in
        # one class can induce a 4-cycle of non-adjacent pairs, giving
        # pairs - triples = 4 > 3 = col - dist.  The pointwise inequality is
        # therefore only asserted on list assignments.
        g = complete_graph(1)  # placeholder, real graph below
        from sparsecolour.graph import Graph

        g = Graph.from_edges(
            5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (2, 4)]
        )
        swap = {0: 1, 1: 0}
        ident = {0: 0, 1: 1}
        c = CorrespondenceAssignment(
            tuple((0, 1) for _ in range(5)),
            {(0, 1): ident, (0, 2): ident, (0, 3): ident, (0, 4): ident,
             (1, 3): swap, (2, 4): swap},
        )
        outcome = RoundOutcome(
            f1=(1, 0, 0, 0, 0),
            direction={e: e[0] for e in g.edges()},
            kept=frozenset(range(5)),
            f={0: 1, 1: 0, 2: 0, 3: 0, 4: 0},
        )
        assert is_valid_colouring(g, c, outcome.f)
        stats = round_stats(g, c, outcome)
        assert stats.pairs[0] - stats.triples[0] == 4
        assert stats.col[0] - stats.dist[0] == 3


class TestQuasirandomCheck:
    def test_everything_uncoloured_mu_one(self):
        g = cycle_graph(5)
        report = quasirandom_check(g, set(range(5)), 1.0, 0.0)
        assert report.ok and report.worst_deviation == 0.0

    def test_nothing_uncoloured_mu_zero(self):
        g = cycle_graph(5)
        assert quasirandom_check(g, set(), 0.0, 0.0).ok

    def test_five_cycle_violation_named(self):
        g = cycle_graph(5)
        uncoloured = {0, 1}
        report = quasirandom_check(g, uncoloured, 0.5, 0.0)
        assert not report.ok
        # independent recomputation of the worst deviation
        worst = 0.0
        for u in range(5):
            for v in range(u, 5):
                common = g.neighbour_set(u) & g.neighbour_set(v)
                if not common and u != v:
                    continue
                worst = max(
                    worst, abs(len(common & uncoloured) - 0.5 * len(common))
                )
        assert report.worst_deviation == worst
        assert report.worst_pair is not None

    def test_empty_graph_has_no_pair(self):
        report = quasirandom_check(empty_graph(0), set(), 0.5, 1.0)
        assert report == QuasirandomReport(True, None, -1.0, 1.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_naive_scan_over_distance2_pairs(self, seed):
        # The first pair, in _distance2_pairs order, of largest deviation.
        g = gnp_graph(14, 0.3, seed=seed)
        rng = random.Random(seed)
        uncoloured = {v for v in range(g.n) if rng.random() < 0.5}
        mu = rng.random()
        worst_pair, worst = None, -1.0
        for u, v in _distance2_pairs(g):
            common = g.neighbour_set(u) & g.neighbour_set(v)
            dev = abs(len(common & uncoloured) - mu * len(common))
            if dev > worst:
                worst_pair, worst = (u, v), dev
        report = quasirandom_check(g, uncoloured, mu, asymptotic_slack(g.max_degree()))
        assert (report.worst_pair, report.worst_deviation) == (worst_pair, worst)
        assert report.ok == (worst <= asymptotic_slack(g.max_degree()))

    @pytest.mark.parametrize("seed", range(4))
    def test_distance2_rows_match_naive_pairs(self, seed):
        from sparsecolour.graph import Graph
        from sparsecolour.harness import naive_regularize_with_assignment
        from sparsecolour.ncp import _directed_edges, _regularize_with_assignment

        g = gnp_graph(12, 0.3, seed=seed)
        # Vertices 12-14 have no neighbour at all.
        isolated = Graph.from_edges(15, g.edges())
        # The regularised copy of a small host, focused on the host's vertices.
        host = gnp_graph(7, 0.4, seed=seed)
        c = uniform_lists(host, 2)
        reg, _ = _regularize_with_assignment(host, c)
        ref_g, _ = naive_regularize_with_assignment(host, c)
        assert reg.focus < reg.n
        cases = [
            (g, g.n, _directed_edges(g)),
            (isolated, isolated.n, _directed_edges(isolated)),
            (ref_g, reg.focus, (reg.dir_src, reg.dir_dst)),
        ]
        for graph, focus, (src, dst) in cases:
            pairs, sizes, concat, pair_of_entry = _distance2_rows(src, dst, focus)
            assert pairs == [(u, v) for u, v in _distance2_pairs(graph) if v < focus]
            commons = [
                sorted(graph.neighbour_set(u) & graph.neighbour_set(v)) for u, v in pairs
            ]
            assert sizes.tolist() == [len(c) for c in commons]
            assert concat.tolist() == [w for c in commons for w in c]
            assert pair_of_entry.tolist() == [
                p for p, c in enumerate(commons) for _ in c
            ]

    def test_slack_profiles(self):
        assert asymptotic_slack(1) == 0.0
        assert asymptotic_slack(8) == pytest.approx(math.sqrt(8) * math.log(8) ** 5)
        assert practical_slack(8) == pytest.approx(
            3 * math.sqrt(8 * math.log(8))
        )


class TestAttemptRound:
    def test_edgeless_immediate_success(self):
        g = empty_graph(6)
        c = uniform_lists(g, 2)
        params = default_round_params(2, 0, delta=1.0)
        result = attempt_round(_compile(g, c), params, seed=1)
        assert result.ok and result.restarts == 0
        assert result.outcome.kept == frozenset(range(6))

    def test_vacuous_thresholds_succeed_first_try(self):
        g = complete_graph(3)
        c = uniform_lists(g, 2)
        from sparsecolour.ncp import RoundParams

        params = RoundParams(
            mu=1 - keep_probability(2, 2), slack=float("inf"), stat_threshold=0.0
        )
        result = attempt_round(_compile(g, c), params, seed=3)
        assert result.ok and result.restarts == 0

    def test_determinism_on_regular_instance(self):
        g = random_regular_graph(50, 6, seed=8)
        c = uniform_lists(g, 5)
        delta = local_sparsity(g).delta
        params = default_round_params(5, 6, delta=delta, profile="asymptotic")
        r1 = attempt_round(_compile(g, c), params, seed=77, max_restarts=30)
        r2 = attempt_round(_compile(g, c), params, seed=77, max_restarts=30)
        assert r1.ok == r2.ok
        assert r1.outcome == r2.outcome
        assert r1.stats == r2.stats
        assert r1.violations == r2.violations

    def test_failure_carries_best_attempt(self):
        g = complete_graph(4)
        c = uniform_lists(g, 2)
        from sparsecolour.ncp import RoundParams

        params = RoundParams(mu=0.5, slack=-1.0, stat_threshold=0.0)  # unsatisfiable
        result = attempt_round(_compile(g, c), params, seed=5, max_restarts=4)
        assert not result.ok
        assert result.violations.total > 0
        assert result.restarts == 4


class TestBuildSchedule:
    def test_reference_schedule_shape(self):
        s = build_schedule(0.05, 0.9, 0.02, 0.855)
        assert s.iterations == math.ceil(2 * 0.05 / 0.02) + 1 == 6
        assert s.rows[3].eps == pytest.approx(0.05 - 3 * 0.01)
        assert s.rows[-1].eps < 0

    def test_row_recurrences(self):
        s = build_schedule(0.08, 0.8, 0.03, 0.7)
        for i, row in enumerate(s.rows):
            assert row.eps == pytest.approx(0.08 - i * 0.015)
            assert row.gamma == pytest.approx(
                row.eps * math.exp(-1 / (2 * (1 - row.eps))) + 0.03
            )
            assert row.delta == pytest.approx(
                0.8 - (i / s.iterations) * (0.8 - 0.7)
            )

    def test_gamma_monotone(self):
        s = build_schedule(0.05, 0.9, 0.02, 0.855)
        gammas = [row.gamma for row in s.rows]
        assert all(b <= a + 1e-15 for a, b in zip(gammas, gammas[1:]))

    def test_infeasible_beta_names_failure(self):
        with pytest.raises(ScheduleError, match="infeasible beta"):
            build_schedule(0.05, 0.9, 0.2, 0.855)

    def test_domain_checks(self):
        with pytest.raises(ScheduleError):
            build_schedule(0.6, 0.9, 0.01, 0.855)
        with pytest.raises(ScheduleError):
            build_schedule(0.05, 0.9, 0.01, 0.95)

    @pytest.mark.parametrize("beta", [0.0, -0.01, float("nan")])
    def test_beta_must_be_positive(self, beta):
        with pytest.raises(ScheduleError, match="beta must be positive"):
            build_schedule(0.05, 0.9, beta, 0.855)

    def test_defaults_fill_delta_prime_then_beta(self):
        dp = DELTA_PRIME_SHARE * 0.9
        explicit = build_schedule(0.05, 0.9, default_beta(0.05, dp), dp)
        assert build_schedule(0.05, 0.9) == explicit

    # 2 eps / beta overflows to inf at 1e-320 and plans 1e8 rows at 1e-9.
    @pytest.mark.parametrize("beta, rows", [(1e-320, "inf"), (1e-9, "1e+08")])
    def test_too_many_rows_refused_before_any_is_built(self, monkeypatch, beta, rows):
        def no_rows(*args):
            raise AssertionError("the row count must be checked before any row")

        monkeypatch.setattr(ncp, "ScheduleRow", no_rows)
        with pytest.raises(ScheduleError) as err:
            build_schedule(0.05, 0.9, beta, 0.855)
        assert str(err.value) == (
            f"beta={beta} would plan about {rows} schedule rows, above the cap "
            "of 1000000 rows"
        )

    def test_at_the_row_cap_builds(self, monkeypatch):
        # 2 eps / beta is exactly 64, so the table has 64 + 2 rows.
        monkeypatch.setattr(ncp, "SCHEDULE_ROWS_CAP", 66)
        assert len(build_schedule(0.0625, 0.9, 2**-9, 0.855).rows) == 66
        monkeypatch.setattr(ncp, "SCHEDULE_ROWS_CAP", 65)
        with pytest.raises(ScheduleError, match="above the cap of 65 rows"):
            build_schedule(0.0625, 0.9, 2**-9, 0.855)

    def test_default_beta_positive_iff_feasible(self):
        assert default_beta(0.05, 0.855) > 0
        assert default_beta(0.4, 0.01) < 0


def extend_through_residual(g, c, f):
    """greedy_complete on f's residual instance, and its colouring merged
    with f on the host."""
    residual = residual_assignment(g, c, f)
    result = greedy_complete(residual.graph, residual.assignment)
    merged = dict(f)
    merged.update({residual.vertices[v]: col for v, col in result.colouring.items()})
    return result, merged


class TestGreedyComplete:
    def test_single_colour_conflict_fails(self):
        g = complete_graph(2)
        c = uniform_lists(g, 1)
        result = greedy_complete(g, c)
        assert not result.ok
        assert result.colouring == {0: 0}
        assert result.failed_at == (1,)

    def test_path_with_middle_coloured(self):
        g = path_graph(3)
        c = uniform_lists(g, 2)
        result, merged = extend_through_residual(g, c, {1: 0})
        assert result.ok
        assert is_valid_colouring(g, c, merged)
        assert len(merged) == 3

    @pytest.mark.parametrize("seed", range(10))
    def test_completion_valid_whenever_it_succeeds(self, seed):
        g = gnp_graph(8, 0.5, seed=seed)
        k = g.max_degree() + 1
        c = uniform_lists(g, k)
        o = run_round(g, c, seed)
        result, merged = extend_through_residual(g, c, o.f)
        assert result.ok  # k = degree+1 always completes
        assert is_valid_colouring(g, c, merged)

    @pytest.mark.parametrize("seed", range(8))
    def test_empty_colouring_is_its_own_residual(self, seed):
        rng = random.Random(seed)
        g = gnp_graph(14, 0.35, seed=seed)
        # Odd seeds draw short lists (greedy may fail), even seeds lists of
        # max degree + 1 (the completion guarantee holds).
        top = g.max_degree() + 2
        low = 1 if seed % 2 else top - 1
        c = from_lists(g, [rng.sample(range(top), rng.randint(low, top - 1)) for _ in range(g.n)])
        residual = residual_assignment(g, c, {})
        assert residual.vertices == tuple(range(g.n))
        assert residual.graph == g
        assert residual.assignment == c
        assert greedy_complete(residual.graph, residual.assignment) == greedy_complete(g, c)

    def test_large_k_gives_python_ints(self):
        # The report writer refuses numpy integers.
        g = empty_graph(4)
        result = greedy_complete(g, uniform_lists(g, 10**5))
        assert result.ok and result.colouring == {0: 0, 1: 0, 2: 0, 3: 0}
        assert all(type(col) is int for col in result.colouring.values())


class TestIterativeColour:
    def _schedule_for(self, g, k):
        delta = local_sparsity(g).delta
        eps_prime = 1 - k / (g.max_degree() + 1)
        dp = 0.95 * delta
        beta = default_beta(eps_prime, dp)
        return build_schedule(eps_prime, delta, beta, dp)

    def test_edgeless_graph_trivial(self):
        g = empty_graph(5)
        c = uniform_lists(g, 1)
        schedule = build_schedule(0.05, 0.9, 0.02, 0.855)
        result = iterative_colour(g, c, schedule, seed=0)
        assert result.ok and len(result.rounds) == 0

    def test_five_cycle_greedy_threshold(self):
        g = cycle_graph(5)
        c = uniform_lists(g, 3)
        schedule = build_schedule(0.05, 0.9, 0.02, 0.855)
        result = iterative_colour(g, c, schedule, seed=0)
        assert result.ok and len(result.rounds) == 0
        assert is_valid_colouring(g, c, result.colouring)

    def test_blowup_full_pipeline_success(self):
        g = c5_blowup(8)
        k = 16
        c = uniform_lists(g, k)
        schedule = self._schedule_for(g, k)
        result = iterative_colour(g, c, schedule, seed=5)
        assert result.ok
        assert len(result.rounds) >= 1
        assert is_valid_colouring(g, c, result.colouring)
        assert len(result.colouring) == g.n
        # below the trivial max_degree + 1 colours
        assert len(set(result.colouring.values())) <= k <= g.max_degree()

    def test_determinism(self):
        g = c5_blowup(6)
        k = 12
        c = uniform_lists(g, k)
        schedule = self._schedule_for(g, k)
        r1 = iterative_colour(g, c, schedule, seed=21)
        r2 = iterative_colour(g, c, schedule, seed=21)
        assert r1 == r2

    def test_kept_colours_never_change_across_rounds(self):
        g = c5_blowup(8)
        c = uniform_lists(g, 16)
        schedule = self._schedule_for(g, 16)
        result = iterative_colour(g, c, schedule, seed=5)
        assert result.ok
        for round_report in result.rounds:
            for record in round_report.vertices:
                if record.kept:
                    assert result.colouring[record.vertex] == record.f1

    def test_failure_reports_iteration(self):
        # k far below the greedy threshold on a dense graph cannot finish
        g = complete_graph(12)
        c = uniform_lists(g, 4)
        schedule = build_schedule(0.05, 0.9, 0.02, 0.855)
        result = iterative_colour(g, c, schedule, seed=2, max_restarts=5)
        assert not result.ok
        assert result.failure_reason
        assert result.failed_iteration is not None

    def test_validity_when_returned_on_random_regular(self, monkeypatch):
        from sparsecolour import ncp

        monkeypatch.setattr(ncp, "PRACTICAL_TAU", 0.0)
        g = random_regular_graph(100, 8, seed=3)
        c = uniform_lists(g, 8)
        schedule = self._schedule_for(g, 8)
        result = iterative_colour(g, c, schedule, seed=11, max_restarts=50)
        if result.ok:
            assert is_valid_colouring(g, c, result.colouring)
        else:
            assert result.failure_reason
        # two runs agree bit for bit either way
        again = iterative_colour(g, c, schedule, seed=11, max_restarts=50)
        assert result == again


def _random_total_assignment(g, k, rng):
    """k colours per vertex drawn from 0..2k-1, a random bijection per edge."""
    sets = tuple(tuple(sorted(rng.sample(range(2 * k), k))) for _ in range(g.n))
    maps = {}
    for u, v in g.edges():
        image = list(sets[v])
        rng.shuffle(image)
        maps[(u, v)] = dict(zip(sets[u], image))
    return CorrespondenceAssignment(sets, maps)


_REGULARISATION_CASES = [
    ("gnp", lambda seed: gnp_graph(12, 0.3, seed)),
    ("path", lambda seed: path_graph(7)),
    ("star", lambda seed: star_graph(4)),
    ("regular", lambda seed: random_regular_graph(20, 3, seed)),
    ("edgeless", lambda seed: empty_graph(5)),
]


class TestArrayRegularisation:
    @pytest.mark.parametrize("name, make", _REGULARISATION_CASES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_naive_dict_doubling(self, name, make, seed):
        g = make(seed)
        c = _random_total_assignment(g, 3, random.Random(seed))
        reg, total = _regularize_with_assignment(g, c)
        ref_g, ref_c = naive_regularize_with_assignment(g, c)
        ref = _compile(ref_g, ref_c)
        assert ref_g.is_regular() and total == c
        assert (reg.n, reg.m, reg.focus) == (ref.n, ref.m, g.n)
        assert reg.max_degree == ref.max_degree == g.max_degree()
        for name in ("eu", "ev", "dir_map", "dir_src", "dir_dst", "k_arr"):
            np.testing.assert_array_equal(getattr(reg, name), getattr(ref, name))
        # The adjacency the compiled arrays describe is the naive copy's.
        order = np.lexsort((reg.dir_dst, reg.dir_src))
        starts = np.searchsorted(reg.dir_src[order], np.arange(reg.n + 1))
        targets = reg.dir_dst[order].tolist()
        assert [tuple(targets[lo:hi]) for lo, hi in zip(starts, starts[1:])] == [
            ref_g.neighbours(u) for u in range(ref_g.n)
        ]

    @pytest.mark.parametrize("name, make", _REGULARISATION_CASES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cuts_and_totalizes_unequal_lists(self, name, make, seed):
        # Unequal lists: some maps are partial, and every set is cut.
        g = make(seed)
        rng = random.Random(seed)
        c = from_lists(g, [rng.sample(range(6), rng.randint(2, 4)) for _ in range(g.n)])
        total = totalize(g, truncate(c, c.min_size()))
        reg, got = _regularize_with_assignment(g, c)
        ref = _compile(*naive_regularize_with_assignment(g, total))
        assert got == total
        assert (reg.n, reg.m, reg.focus, reg.kmax) == (ref.n, ref.m, g.n, c.min_size())
        for attr in ("eu", "ev", "dir_map", "dir_src", "dir_dst", "k_arr"):
            np.testing.assert_array_equal(getattr(reg, attr), getattr(ref, attr))
        np.testing.assert_array_equal(reg.colour_values, ref.colour_values[: g.n])

    def test_one_construction_per_regularisation(self, monkeypatch):
        from sparsecolour import ncp

        built = []
        init = ncp._Compiled.__init__

        def counting(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(ncp._Compiled, "__init__", counting)
        g = star_graph(4)
        reg, _ = _regularize_with_assignment(g, from_lists(g, [[0, 1, 2], *[[1, 2]] * 4]))
        assert built == [reg] and reg.n == 5 * 2**3

    def test_colour_values_cover_the_focus(self):
        g = path_graph(5)
        c = from_lists(g, [[0, 1, 2], [1, 2, 3], [0, 2, 4], [5, 6, 7], [0, 1, 2]])
        whole = _compile(g, totalize(g, c))
        reg, _ = _regularize_with_assignment(g, c)
        assert whole.focus == whole.n == reg.focus == g.n < reg.n
        for comp in (whole, reg):
            np.testing.assert_array_equal(comp.colour_values, c.values)

    def test_size_checked_before_doubling(self):
        # star with 25 leaves: 26 * 2^24 vertices after 24 doublings
        g = star_graph(25)
        c = uniform_lists(g, 24)
        from sparsecolour.ncp import _regularize_with_assignment

        with pytest.raises(ScheduleError, match=r"436207616 vertices \(\d+ MiB"):
            _regularize_with_assignment(g, c)


class TestStatisticIndexCap:
    """K6 has 60 neighbour pairs, all of them edges (60 in-rows), and 60
    pairs of in-rows sharing their smaller end, all closed (60 triangles)."""

    def _compiled(self):
        from sparsecolour.ncp import _compile

        g = complete_graph(6)
        return _compile(g, uniform_lists(g, 2))

    def test_neighbour_pairs_refused_before_listing(self, monkeypatch):
        from sparsecolour import ncp

        def listing(*args):
            raise AssertionError("pairs listed before the size check")

        monkeypatch.setattr(ncp, "STATS_ROWS_CAP", 59)
        monkeypatch.setattr(ncp, "_group_pairs", listing)
        with pytest.raises(ScheduleError, match=r"up to 60 rows .* cap of 59 rows"):
            self._compiled()._build_stats()

    def test_triangle_candidates_refused_before_listing(self, monkeypatch):
        from sparsecolour import ncp

        calls = []
        pairs = ncp._group_pairs

        def listing(*args):
            calls.append(args)
            if len(calls) > 1:
                raise AssertionError("triangle candidates listed before the size check")
            return pairs(*args)

        monkeypatch.setattr(ncp, "STATS_ROWS_CAP", 119)
        monkeypatch.setattr(ncp, "_group_pairs", listing)
        with pytest.raises(ScheduleError, match=r"up to 120 rows"):
            self._compiled()._build_stats()
        assert len(calls) == 1

    def test_built_at_the_cap(self, monkeypatch):
        from sparsecolour import ncp

        monkeypatch.setattr(ncp, "STATS_ROWS_CAP", 120)
        comp = self._compiled()
        comp._build_stats()
        assert comp.in_rows.shape == (3, 60) and comp.tri_rows.shape == (4, 60)


def _sliced_attempt(g, c, params, seed, max_restarts, focus):
    """The unfocused engine's arrays over every vertex, then cut to `focus`."""
    from sparsecolour.ncp import (
        KIND_RESTART,
        _compile,
        _nuv_counts,
        _outcome_from_arrays,
        _round_arrays,
        _stats_arrays,
        _stats_from_arrays,
    )

    comp = _compile(g, c)
    comp._build_nuv()
    best = None
    for attempt in range(max_restarts):
        f1_idx, dirs, kept, cls = _round_arrays(
            comp, [derive_seed(seed, KIND_RESTART, attempt)]
        )
        _, _, p_u, t_u = _stats_arrays(comp, cls, kept)
        nuv = _nuv_counts(comp, kept)[0]
        f1_idx, dirs, kept, p_u, t_u = f1_idx[0], dirs[0], kept[0], p_u[0], t_u[0]
        stat_bad = tuple(
            u
            for u in range(focus)
            if not kept[u] and p_u[u] - t_u[u] < params.stat_threshold
        )
        quasi_bad = tuple(
            (u, v)
            for i, (u, v) in enumerate(comp.nuv_pairs)
            if v < focus
            and abs(float(nuv[i]) - params.mu * float(comp.nuv_sizes[i])) > params.slack
        )
        total = len(stat_bad) + len(quasi_bad)
        if best is None or total < best[0]:
            best = (total, attempt, (f1_idx, dirs, kept), (stat_bad, quasi_bad))
        if total == 0:
            break
    total, attempt, (f1_idx, dirs, kept), violations = best
    ok = total == 0
    full = _outcome_from_arrays(comp, f1_idx, dirs, kept)
    stats = _stats_from_arrays(comp, f1_idx, kept)
    kept_focus = frozenset(u for u in full.kept if u < focus)
    outcome = RoundOutcome(
        full.f1[:focus],
        {e: d for e, d in full.direction.items() if e[1] < focus},
        kept_focus,
        {u: col for u, col in full.f.items() if u < focus},
    )
    sliced = (
        stats.col[:focus],
        stats.dist[:focus],
        stats.pairs[:focus],
        stats.triples[:focus],
        {p: x for p, x in stats.common_uncoloured.items() if p[1] < focus},
    )
    restarts = attempt if ok else max_restarts
    return ok, restarts, violations, outcome, sliced


class TestFocusedAttempt:
    # The first setting accepts after a few restarts on seeds 0-4; the
    # second exhausts its restarts with both kinds of violation.
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "tau, slack_coeff, max_restarts", [(0.5, 1.5, 40), (3.0, 0.5, 3)]
    )
    def test_matches_sliced_unrestricted_attempt(
        self, seed, tau, slack_coeff, max_restarts, monkeypatch
    ):
        from sparsecolour import ncp
        from sparsecolour.harness import naive_regularize_with_assignment
        from sparsecolour.ncp import _regularize_with_assignment

        monkeypatch.setattr(ncp, "PRACTICAL_TAU", tau)
        monkeypatch.setattr(ncp, "PRACTICAL_SLACK_COEFF", slack_coeff)
        host = gnp_graph(14, 0.35, seed)
        c = _random_total_assignment(host, 4, random.Random(seed))
        g, reg_c = naive_regularize_with_assignment(host, c)
        delta = local_sparsity(g).delta if g.max_degree() >= 2 else 1.0
        params = default_round_params(4, g.max_degree(), delta=delta)
        expected = _sliced_attempt(g, reg_c, params, seed, max_restarts, host.n)
        reg, _ = _regularize_with_assignment(host, c)
        result = attempt_round(reg, params, seed, max_restarts)
        stats = result.stats
        got = (
            result.ok,
            result.restarts,
            (result.violations.stat_vertices, result.violations.quasirandom_pairs),
            result.outcome,
            (
                stats.col,
                stats.dist,
                stats.pairs,
                stats.triples,
                stats.common_uncoloured,
            ),
        )
        assert got == expected
