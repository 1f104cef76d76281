"""Round execution, statistics, thresholds, schedule, and the driver."""

import math
import random

import numpy as np
import pytest

from sparsecolour import budget, ncp
from sparsecolour.budget import BudgetError
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
from sparsecolour.graph import Graph, local_sparsity
from sparsecolour.harness import (
    _distance2_pairs,
    naive_dir_map,
    naive_outcome_stats,
    naive_regularize_with_assignment,
    naive_statistic_index,
)
from sparsecolour.ncp import (
    DELTA_PRIME_SHARE,
    QuasirandomReport,
    RoundOutcome,
    ScheduleError,
    _compile,
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
        # Any uint64 ids, in any order, as a ball's ids in the whole copy are.
        ids = np.array([7, 0, 2**40, 2**64 - 1], dtype=np.uint64)
        draws = _entity_draws([12345, 678], 0xC01, ids)
        assert draws.shape == (2, 4)
        for row, seed in enumerate([12345, 678]):
            for i, x in enumerate(ids.tolist()):
                assert int(draws[row, i]) == derive_seed(seed, 0xC01, x)

    def test_direction_bits_match_derive_seed(self):
        # One bit per (trial, edge id) pair, each from its own trial's seed.
        seeds = np.array([12345, 2**64 - 1, 0], dtype=np.uint64)
        trial = np.array([2, 0, 0, 1, 2, 1])
        ids = np.array([7, 0, 2**40, 2**64 - 1, 3, 3], dtype=np.uint64)
        bits = ncp._direction_bits(seeds, trial, ids)
        assert bits.tolist() == [
            derive_seed(int(seeds[t]), ncp.KIND_DIRECTION, int(x)) & 1
            for t, x in zip(trial.tolist(), ids.tolist())
        ]

    def test_order_sensitivity(self):
        assert derive_seed(1, 2) != derive_seed(2, 1)

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
    def test_array_seeds_match_derive_seed(self, seed):
        from sparsecolour.ncp import KIND_RESTART, KIND_TRIAL, _derived_seeds

        for kind in (KIND_RESTART, KIND_TRIAL):
            for start in (0, 2**32 - 2, 2**40):
                got = _derived_seeds(seed, kind, start, start + 5)
                assert got.dtype == np.uint64
                assert got.tolist() == [derive_seed(seed, kind, t) for t in range(start, start + 5)]
        as_array = np.array([seed, 2**32 + 7], dtype=np.uint64)
        for seeds in ([seed, 2**32 + 7], as_array):
            draws = _entity_draws(seeds, 0xC01, np.arange(3, dtype=np.uint64))
            bits = ncp._direction_bits(seeds, np.array([1, 0]), np.arange(2, dtype=np.uint64))
            for row, s in enumerate([seed, 2**32 + 7]):
                assert draws[row].tolist() == [derive_seed(s, 0xC01, i) for i in range(3)]
                assert bits[1 - row] == derive_seed(s, 0xD12, 1 - row) & 1
        assert as_array.tolist() == [seed, 2**32 + 7]  # the caller's seeds stay as given

    def test_run_round_takes_seeds_mod_2_64(self):
        g = cycle_graph(5)
        c = uniform_lists(g, 3)
        assert run_round(g, c, -1) == run_round(g, c, 2**64 - 1)
        assert run_round(g, c, 2**64 + 5) == run_round(g, c, 5)


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

    @pytest.mark.parametrize(
        "lists",
        [[{0, 1}, {2, 3}, {4, 5}, {6, 7}], [{0, 1}, {0, 1, 2}, {0, 1}, {0, 1}]],
    )
    def test_compiled_refuses_partial_maps(self, lists):
        from sparsecolour.correspondence import is_total

        g = cycle_graph(4)
        c = from_lists(g, lists)
        assert not is_total(g, c)
        with pytest.raises(AssignmentError, match="^round execution needs a total assignment$"):
            _compile(g, c)

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

    def test_kept_conflict_refused(self):
        # Both ends of 0-1 keep colour 0, which no round gives; with 0
        # uncoloured, as the keep rule would leave it, the outcome is read.
        g = path_graph(3)
        c = uniform_lists(g, 2)
        direction = {(0, 1): 0, (1, 2): 1}
        bad = RoundOutcome((0, 0, 1), direction, frozenset({0, 1, 2}), {0: 0, 1: 0, 2: 1})
        with pytest.raises(
            ValueError, match="^outcome's kept colours are not a valid partial colouring$"
        ):
            round_stats(g, c, bad)
        good = RoundOutcome((0, 0, 1), direction, frozenset({1, 2}), {1: 0, 2: 1})
        assert round_stats(g, c, good).col == (1, 1, 1)

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


class TestNarrowMapRows:
    """The map rows stay at the assignment's width; only the classes
    gathered from them are widened, where they are combined with vertex
    ids."""

    @pytest.mark.parametrize("seed", range(3))
    def test_class_keys_past_int16(self, seed):
        # Class 7 times 5,000 vertices passes 32,767: int16 statistic keys
        # would wrap around.
        g = path_graph(5000)
        c = uniform_lists(g, 8)
        outcome = run_round(g, c, seed)
        stats = round_stats(g, c, outcome)
        naive = naive_outcome_stats(g, c, outcome.f1, set(outcome.kept))
        assert (stats.col, stats.dist, stats.pairs, stats.triples) == tuple(map(tuple, naive))

    @pytest.mark.parametrize("k, dtype", [(8, np.int16), (40_000, np.int32)])
    def test_direction_map_at_the_map_dtype(self, k, dtype):
        g = path_graph(3)
        c = uniform_lists(g, k)
        comp = _compile(g, c)
        assert comp.dir_map.dtype == dtype
        np.testing.assert_array_equal(comp.dir_map, naive_dir_map(g, c))


def _edge_array_calls(monkeypatch) -> list:
    """Every graph whose edge_array() is called from now on."""
    calls = []
    edge_array = Graph.edge_array

    def counting(g):
        calls.append(g)
        return edge_array(g)

    monkeypatch.setattr(Graph, "edge_array", counting)
    return calls


class TestEdgesListedOnce:
    """Each chain lists a graph's edges once and passes them down."""

    def test_regularisation(self, monkeypatch):
        # totalize and the map rows, one each
        g = path_graph(6)
        c = from_lists(g, [[0, 1, 2], [1, 2], [0, 1], [1, 2, 3], [2, 3], [0, 3]])
        calls = _edge_array_calls(monkeypatch)
        _regularize_with_assignment(g, c)
        assert calls == [g, g]

    def test_residual(self, monkeypatch):
        # the rows on g, which the validity check reads too, then the
        # induced graph
        g = cycle_graph(6)
        c = uniform_lists(g, 3)
        calls = _edge_array_calls(monkeypatch)
        res = residual_assignment(g, c, {0: 0, 2: 1})
        assert calls == [g, res.graph]


def _index_members(comp, ids):
    """The statistic index as (u, members...) tuples of ids, in index order:
    each field after u is a statistic row a -> u, read as the id of a."""
    members = []
    for rows in (comp.in_rows, comp.tri_rows):
        u, *fields = rows
        assert all((comp.stat_dst[f] == u).all() for f in fields)
        ends = zip(*(ids[comp.stat_src[f]].tolist() for f in fields))
        members.append([(x, *y) for x, y in zip(u.tolist(), ends)])
    return members


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
        # One neighbour-pair listing gives both indexes of a compiled
        # instance: the common-neighbour rows and the statistic index.  On
        # uniform lists every triangle is consistent and no in-row is kept;
        # on random bijections most are kept.
        for lists in ("uniform", "random"):
            listed = self._distance2_cases(seed, lists)
            assert (listed == 0) == (lists == "uniform")

    @staticmethod
    def _distance2_cases(seed, lists):
        """Check both indexes against the naive ones on three instances,
        with uniform lists or random bijections; return the in-rows seen."""
        from sparsecolour.graph import Graph
        from sparsecolour.harness import naive_regularize_with_assignment
        from sparsecolour.ncp import _regularize_with_assignment

        def assignment(graph, k):
            if lists == "uniform":
                return uniform_lists(graph, k)
            return _random_total_assignment(graph, k, random.Random(seed))

        g = gnp_graph(12, 0.3, seed=seed)
        # Vertices 12-14 have no neighbour at all.
        isolated = Graph.from_edges(15, g.edges())
        # The regularised copy's ball around a small host, focused on the
        # host's vertices; its vertices are read as their ids in the copy.
        host = gnp_graph(7, 0.4, seed=seed)
        c = assignment(host, 2)
        reg, _ = _regularize_with_assignment(host, c)
        ref_g, ref_c = naive_regularize_with_assignment(host, c)
        assert reg.focus < reg.n < ref_g.n
        cases = [(graph, assignment(graph, 2)) for graph in (g, isolated)]
        cases = [(graph, ci, _compile(graph, ci), np.arange(graph.n)) for graph, ci in cases]
        cases.append((ref_g, ref_c, reg, reg.vertex_ids.astype(np.int64)))
        listed = 0
        for graph, ci, comp, ids in cases:
            focus = comp.focus
            comp._build_nuv()
            pairs = comp.nuv_pairs
            assert pairs == [(u, v) for u, v in _distance2_pairs(graph) if v < focus]
            commons = [
                sorted(graph.neighbour_set(u) & graph.neighbour_set(v)) for u, v in pairs
            ]
            assert comp.nuv_sizes.tolist() == [len(c) for c in commons]
            assert ids[comp.nuv_concat].tolist() == [w for c in commons for w in c]
            assert comp.nuv_pair_of_entry.tolist() == [
                p for p, c in enumerate(commons) for _ in c
            ]
            in_rows, tri_rows = _index_members(comp, ids)
            if graph is ref_g:  # ids in the copy need not follow the ball's order
                in_rows, tri_rows = (sorted((u, *sorted(y)) for u, *y in r)
                                     for r in (in_rows, tri_rows))
            assert (in_rows, tri_rows) == naive_statistic_index(graph, ci, focus)
            listed += len(in_rows)
        return listed

    @pytest.mark.parametrize("seed", range(4))
    def test_in_rows_count_the_edges_inside_each_neighbourhood(self, seed):
        # Two colours swapped on every edge: each triangle composes three
        # swaps, so every one is inconsistent and every edge inside a
        # neighbourhood is an in-row; on uniform lists none is.
        from sparsecolour.graph import Graph

        g = Graph.from_edges(24, gnp_graph(20, 0.4, seed=seed).edges())
        swapped = CorrespondenceAssignment(((0, 1),) * g.n, {e: {0: 1, 1: 0} for e in g.edges()})
        for c, share in ((swapped, 1), (uniform_lists(g, 2), 0)):
            comp = _compile(g, c)
            comp._build_stats()
            counts = np.bincount(comp.in_rows[0], minlength=g.n)
            assert counts.tolist() == [share * x for x in local_sparsity(g).neighbourhood_edges]

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
        assert list(result.f.items()) == list(enumerate(result.f1))

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
        assert r1 == r2

    def test_failure_carries_best_attempt(self):
        g = complete_graph(4)
        c = uniform_lists(g, 2)
        from sparsecolour.ncp import RoundParams

        params = RoundParams(mu=0.5, slack=-1.0, stat_threshold=0.0)  # unsatisfiable
        result = attempt_round(_compile(g, c), params, seed=5, max_restarts=4)
        assert not result.ok
        # Every one of K4's 10 pairs at distance <= 2 (u = v included)
        # violates; no vertex has a non-adjacent pair, so none falls below 0.
        assert (result.stat_violations, result.quasirandom_violations) == (0, 10)
        assert result.restarts == 4


def _one_seed_attempt(comp, params, seed, max_restarts):
    """attempt_round drawn one restart per kernel call, with every
    attempt's violations counted; also returns each attempt's total."""
    from sparsecolour.ncp import (
        KIND_RESTART,
        AttemptResult,
        _nuv_counts,
        _round_arrays,
        _stats_arrays,
    )

    comp._build_nuv()
    sizes = comp.nuv_sizes.astype(np.float64)
    totals, best = [], None
    for attempt in range(max(1, max_restarts)):
        attempt_seed = derive_seed(seed, KIND_RESTART, attempt)
        f1_idx, kept, cls = _round_arrays(comp, [attempt_seed])
        stats = [x[0] for x in _stats_arrays(comp, cls, kept)]
        nuv = _nuv_counts(comp, kept)[0]
        f1_idx, kept = f1_idx[0], kept[0]
        low = (stats[2] - stats[3]) < params.stat_threshold
        dev = np.abs(nuv.astype(np.float64) - params.mu * sizes)
        counts = (
            int(np.count_nonzero(low & ~kept[: comp.focus])),
            int(np.count_nonzero(dev > params.slack)),
        )
        totals.append(sum(counts))
        if best is None or sum(counts) < sum(best[1]):
            best = (attempt, counts, f1_idx, kept, stats)
        if sum(counts) == 0:
            break
    attempt, counts, f1_idx, kept, stats = best
    ok = sum(counts) == 0
    f1 = tuple(int(comp.colour_values[u, f1_idx[u]]) for u in range(comp.focus))
    result = AttemptResult(
        ok,
        attempt if ok else max(1, max_restarts),
        f1,
        {u: f1[u] for u in range(comp.focus) if kept[u]},
        *(tuple(x.tolist()) for x in stats),
        *counts,
    )
    return result, totals


def _driver_attempts(g, k, seed):
    """(comp, params, seed) of every attempt_round call of the colour
    procedure on g with k colours, as `color` runs it."""
    calls = []

    def recording(comp, params, round_seed, max_restarts):
        calls.append((comp, params, round_seed))
        return attempt_round(comp, params, round_seed, max_restarts)

    eps_prime = 1.0 - k / (g.max_degree() + 1)
    schedule = build_schedule(eps_prime, local_sparsity(g).delta)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ncp, "attempt_round", recording)
        iterative_colour(g, uniform_lists(g, k), schedule, seed)
    return calls


class TestRestartSlices:
    """Restarts drawn in doubling slices give what one restart per kernel
    call gives: colours, statistics, restarts and violation counts."""

    @pytest.fixture(scope="class")
    def failing(self):
        # rr(100,8) at k = 8: round 0 exhausts 200 restarts.
        return _driver_attempts(random_regular_graph(100, 8, seed=1), 8, seed=0)[0]

    @pytest.mark.parametrize("max_restarts", [0, 1, 2, 3, 200])
    def test_budgets_ending_in_any_slice(self, failing, max_restarts):
        comp, params, seed = failing
        expected, _ = _one_seed_attempt(comp, params, seed, max_restarts)
        assert attempt_round(comp, params, seed, max_restarts) == expected
        if max_restarts == 200:
            assert not expected.ok and expected.restarts == 200

    def test_accepted_inside_a_later_slice(self):
        calls = _driver_attempts(c5_blowup(10), 18, seed=7)
        restarts = []
        for comp, params, seed in calls:
            expected, _ = _one_seed_attempt(comp, params, seed, ncp.MAX_RESTARTS)
            assert attempt_round(comp, params, seed) == expected
            restarts.append(expected.restarts)
        # Slices of 1, 2, 4, 8, 16 and 32 restarts: 38 is in the sixth.
        assert 38 in restarts
        assert ncp._slice_width(calls[restarts.index(38)][0], True) >= 32

    def test_exhaustion_keeps_the_first_of_tied_minima(self):
        from sparsecolour.ncp import RoundParams

        g = c5_blowup(3)
        comp = _compile(g, uniform_lists(g, 6))
        # Every uncoloured vertex and every pair is a violation.
        params = RoundParams(mu=0.5, slack=-1.0, stat_threshold=math.inf)
        expected, totals = _one_seed_attempt(comp, params, 11, 40)
        minima = [a for a, total in enumerate(totals) if total == min(totals)]
        # Attempt a is in slice (a + 1).bit_length() while slices are
        # narrower than the cap: a tie inside the first minimum's slice (7
        # to 14) and ties in a later one.
        assert ncp._slice_width(comp, True) >= 32
        assert minima == [10, 12, 24, 29]
        result = attempt_round(comp, params, 11, 40)
        assert result == expected and not result.ok

    def test_width_one_slices(self, failing, monkeypatch):
        comp, params, seed = failing
        expected, _ = _one_seed_attempt(comp, params, seed, 20)
        monkeypatch.setattr(ncp, "SLICE_ROWS", 1)
        assert ncp._slice_width(comp, True) == 1
        assert attempt_round(comp, params, seed, 20) == expected


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


def _assert_ball_of(reg, ref, ref_g, focus):
    """reg is the radius-2 ball of the compiled naive copy (ref, ref_g)
    around its first `focus` vertices: its vertex ids are the ball, its
    edge ids the ranks of the edges with an end within distance 1, and its
    arrays the copy's, cut to them."""
    vid, eid = reg.vertex_ids.astype(np.int64), reg.edge_ids.astype(np.int64)
    near = set(range(focus)).union(*(ref_g.neighbour_set(u) for u in range(focus)))
    ball = near.union(*(ref_g.neighbour_set(u) for u in near))
    assert reg.focus == focus and vid.tolist() == sorted(ball)
    at_near = np.isin(ref.eu, list(near)) | np.isin(ref.ev, list(near))
    assert eid.tolist() == np.flatnonzero(at_near).tolist()
    assert reg.max_degree == ref.max_degree
    np.testing.assert_array_equal(vid[reg.eu], ref.eu[eid])
    np.testing.assert_array_equal(vid[reg.ev], ref.ev[eid])
    rows, ref_rows = (c.dir_map.reshape(c.m, 2, c.kmax) for c in (reg, ref))
    np.testing.assert_array_equal(rows, ref_rows[eid])
    np.testing.assert_array_equal(reg.k_arr, ref.k_arr[vid])
    # Every vertex within distance 1 has its whole neighbourhood.
    for u in np.flatnonzero(np.isin(vid, list(near))).tolist():
        assert set(vid[reg.dir_dst[reg.dir_src == u]].tolist()) == ref_g.neighbour_set(vid[u])


class TestResidualStep:
    # C5 and a colouring of some of its vertices from {0, 1, 2}: the
    # residual is the rest, and its sparsity is measured from maximum
    # degree 2 up, the empty residual included in the None case.
    @pytest.mark.parametrize(
        "coloured, remaining, max_degree",
        [
            ({}, 5, 2),
            ({0: 0}, 4, 2),
            ({0: 0, 2: 0}, 3, 1),
            ({0: 0, 1: 1, 2: 0, 3: 1, 4: 2}, 0, 0),
        ],
    )
    def test_sparsity_from_maximum_degree_two(self, coloured, remaining, max_degree):
        g = cycle_graph(5)
        residual, delta = ncp._residual_step(g, uniform_lists(g, 3), coloured)
        assert (residual.graph.n, residual.graph.max_degree()) == (remaining, max_degree)
        assert delta == (local_sparsity(residual.graph).delta if max_degree >= 2 else None)


class TestArrayRegularisation:
    @pytest.mark.parametrize("name, make", _REGULARISATION_CASES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_naive_dict_doubling(self, name, make, seed):
        g = make(seed)
        c = _random_total_assignment(g, 3, random.Random(seed))
        reg, total = _regularize_with_assignment(g, c)
        ref_g, ref_c = naive_regularize_with_assignment(g, c)
        assert ref_g.is_regular() and total == c
        assert reg.max_degree == g.max_degree()
        _assert_ball_of(reg, _compile(ref_g, ref_c), ref_g, g.n)
        # The budget counts the ball before building it.
        assert ncp._ball_size(g, g.max_degree() - g.degrees()) == (reg.n, reg.m)

    @pytest.mark.parametrize("name, make", _REGULARISATION_CASES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cuts_and_totalizes_unequal_lists(self, name, make, seed):
        # Unequal lists: some maps are partial, and every set is cut.
        g = make(seed)
        rng = random.Random(seed)
        c = from_lists(g, [rng.sample(range(6), rng.randint(2, 4)) for _ in range(g.n)])
        total = totalize(g, truncate(c, c.min_size()))
        reg, got = _regularize_with_assignment(g, c)
        ref_g, ref_c = naive_regularize_with_assignment(g, total)
        assert got == total and reg.kmax == c.min_size()
        _assert_ball_of(reg, _compile(ref_g, ref_c), ref_g, g.n)
        np.testing.assert_array_equal(reg.colour_values, total.values)

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
        # Of the copy's 5 * 2^3 vertices: layer 0, then all five in each
        # layer 2^s, s < 3, and the leaves in the three layers 2^s + 2^t.
        assert built == [reg] and reg.n == 5 + 3 * 5 + 3 * 4

    def test_colour_values_cover_the_focus(self):
        g = path_graph(5)
        c = from_lists(g, [[0, 1, 2], [1, 2, 3], [0, 2, 4], [5, 6, 7], [0, 1, 2]])
        whole = _compile(g, totalize(g, c))
        reg, _ = _regularize_with_assignment(g, c)
        assert whole.focus == whole.n == reg.focus == g.n < reg.n
        for comp in (whole, reg):
            np.testing.assert_array_equal(comp.colour_values, c.values)

    def test_size_checked_before_doubling(self, monkeypatch):
        # 10,000 isolated vertices next to a star with 25 leaves: each has
        # deficit 25, so the ball holds 1 + 25 + 300 vertices and 25 + 600
        # edges of each.  Refused before c is cut, made total or mapped, or
        # any of the ball is built.
        def never(*args):
            raise AssertionError("work on the maps before the size check")

        g = Graph.from_edges(10_026, [(0, leaf) for leaf in range(1, 26)])
        c = uniform_lists(g, 24)
        for name in ("truncate", "totalize", "map_rows", "_ball"):
            monkeypatch.setattr(ncp, name, never)
        with pytest.raises(
            BudgetError,
            match=r"^regularised copy's ball of 3267550 vertices, 6265025 edges and 24 colours ",
        ):
            _regularize_with_assignment(g, c)

    def test_draw_ids_past_63_bits_refused(self, monkeypatch):
        # A star with 70 leaves doubles 69 times: ids in the copy would not
        # fit an int64.
        def never(*args):
            raise AssertionError("work on the maps before the size check")

        g = star_graph(70)
        for name in ("truncate", "totalize", "map_rows", "_ball"):
            monkeypatch.setattr(ncp, name, never)
        with pytest.raises(BudgetError, match=r"^regularised copy of 71 \* 2\^69 vertices "):
            _regularize_with_assignment(g, uniform_lists(g, 2))


class TestStatisticIndexCap:
    """K10 lists 450 neighbour pairs, 10 x C(10, 2) with x = y included,
    each counted at DISTANCE2_ENTRY_BYTES against the budget, and then
    its 55 distance-2 pairs at DISTANCE2_PAIR_BYTES.  360 of them
    are edges, the candidate in-rows, whose triangles are tested once the
    listing is past its check.  With two colours swapped on every edge,
    every triangle is inconsistent: all 360 are kept, and 840 pairs of them
    share their smaller end, all closed (840 triangles); these 1,200 rows
    are counted at STATS_ROW_BYTES, which is more than the listing's count.
    On uniform lists no in-row is kept and no triangle is listed."""

    def _compiled(self, swapped=True):
        from sparsecolour.ncp import _compile

        assert 450 * ncp.DISTANCE2_ENTRY_BYTES < 1200 * ncp.STATS_ROW_BYTES
        g = complete_graph(10)
        if not swapped:
            return _compile(g, uniform_lists(g, 2))
        maps = {e: {0: 1, 1: 0} for e in g.edges()}
        return _compile(g, CorrespondenceAssignment(((0, 1),) * g.n, maps))

    def test_neighbour_pairs_refused_before_listing(self, monkeypatch):
        def listing(*args):
            raise AssertionError("pairs listed before the size check")

        comp = self._compiled()
        monkeypatch.setattr(budget, "MEMORY_BUDGET", 450 * ncp.DISTANCE2_ENTRY_BYTES - 1)
        monkeypatch.setattr(ncp, "_group_pairs", listing)
        with pytest.raises(BudgetError, match=r"^distance-2 pair index of 450 entries would"):
            comp._build_stats()

    def test_triangle_candidates_refused_before_listing(self, monkeypatch):
        calls = []
        pairs = ncp._group_pairs

        def listing(*args):
            calls.append(args)
            if len(calls) > 1:
                raise AssertionError("triangle candidates listed before the size check")
            return pairs(*args)

        comp = self._compiled()
        monkeypatch.setattr(budget, "MEMORY_BUDGET", 1200 * ncp.STATS_ROW_BYTES - 1)
        monkeypatch.setattr(ncp, "_group_pairs", listing)
        with pytest.raises(BudgetError, match=r"^statistic index of up to 1200 rows would"):
            comp._build_stats()
        assert len(calls) == 1

    def test_built_at_the_cap(self, monkeypatch):
        comp = self._compiled()
        monkeypatch.setattr(budget, "MEMORY_BUDGET", 1200 * ncp.STATS_ROW_BYTES)
        comp._build_stats()
        assert comp.in_rows.shape == (3, 360) and comp.tri_rows.shape == (4, 840)
        assert len(comp.nuv_pairs) == 55

    def test_uniform_lists_built_at_the_listing_cap(self, monkeypatch):
        comp = self._compiled(swapped=False)
        cap = 450 * ncp.DISTANCE2_ENTRY_BYTES + 55 * ncp.DISTANCE2_PAIR_BYTES
        monkeypatch.setattr(budget, "MEMORY_BUDGET", cap)
        comp._build_stats()
        assert comp.in_rows.shape == (3, 0) and comp.tri_rows.shape == (4, 0)
        assert len(comp.nuv_pairs) == 55

    @pytest.mark.parametrize("chunk", [1, 3, 1 << 16])
    def test_consistency_test_in_any_chunk(self, monkeypatch, chunk):
        # Random bijections keep some in-rows and drop others; chunks of
        # one candidate, of one and a half, and of all give the same index.
        g = complete_graph(9)
        c = _random_total_assignment(g, 2, random.Random(4))
        monkeypatch.setattr(ncp, "TEST_CHUNK_ENTRIES", chunk)
        comp = _compile(g, c)
        comp._build_stats()
        members = _index_members(comp, np.arange(g.n))
        assert members == list(naive_statistic_index(g, c, g.n))
        assert 0 < len(members[0]) < 9 * 28


class TestBudgetChecks:
    """The compiled instance and the distance-2 pair index are refused before
    they are built, and a round before it lists any neighbour pair."""

    def test_compile_refused_before_the_map_rows(self, monkeypatch):
        def map_rows(*args):
            raise AssertionError("map rows built before the size check")

        g = complete_graph(6)
        c = uniform_lists(g, 2)
        # 2 blocks * 15 edges * 2 colours * 2 bytes + 8 (20 * 15 edges + 4 * 6
        # vertices) + 160 KiB = 166,552 bytes.
        monkeypatch.setattr(budget, "MEMORY_BUDGET", 166_551)
        monkeypatch.setattr(ncp, "map_rows", map_rows)
        with pytest.raises(BudgetError, match="^compiled instance of 6 vertices, 15 edges "):
            _compile(g, c)

    def test_distance2_refused_before_listing(self, monkeypatch):
        def listing(*args):
            raise AssertionError("pairs listed before the size check")

        # Each of K6's vertices is the middle of C(6, 2) = 15 entries.
        monkeypatch.setattr(budget, "MEMORY_BUDGET", 90 * ncp.DISTANCE2_ENTRY_BYTES - 1)
        monkeypatch.setattr(ncp, "_group_pairs", listing)
        with pytest.raises(BudgetError, match="^distance-2 pair index of 90 entries would"):
            quasirandom_check(complete_graph(6), set(), 0.5, 1.0)

    def test_attempt_refuses_before_the_pair_index(self, monkeypatch):
        def listing(*args):
            raise AssertionError("pairs listed before the size check")

        g = complete_graph(6)
        comp = _compile(g, uniform_lists(g, 2))
        monkeypatch.setattr(budget, "MEMORY_BUDGET", 90 * ncp.DISTANCE2_ENTRY_BYTES - 1)
        monkeypatch.setattr(ncp, "_group_pairs", listing)
        with pytest.raises(BudgetError, match="^distance-2 pair index of 90 entries would"):
            attempt_round(comp, ncp.RoundParams(0.5, 1.0, 0.0), seed=1)


def _sliced_attempt(g, c, params, seed, max_restarts, focus):
    """The unfocused engine's attempts over every vertex, cut to `focus`:
    the AttemptResult the focused engine should give, and the chosen
    attempt's seed, outcome, violating vertices and pairs, and
    common-uncoloured counts."""
    from sparsecolour.ncp import (
        KIND_RESTART,
        AttemptResult,
        _compile,
        _nuv_counts,
        _outcome_from_arrays,
        _round_arrays,
        _stats_arrays,
        _stats_record,
    )

    comp = _compile(g, c)
    comp._build_nuv()
    best = None
    for attempt in range(max_restarts):
        attempt_seed = derive_seed(seed, KIND_RESTART, attempt)
        f1_idx, kept, cls = _round_arrays(comp, [attempt_seed])
        _, _, p_u, t_u = _stats_arrays(comp, cls, kept)
        nuv = _nuv_counts(comp, kept)[0]
        f1_idx, kept, p_u, t_u = f1_idx[0], kept[0], p_u[0], t_u[0]
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
            best = (total, attempt, (attempt_seed, f1_idx, kept), (stat_bad, quasi_bad))
        if total == 0:
            break
    total, attempt, (attempt_seed, f1_idx, kept), violations = best
    ok = total == 0
    full = _outcome_from_arrays(comp, attempt_seed, f1_idx, kept)
    stats = _stats_record(comp, f1_idx, kept)
    f = {u: col for u, col in sorted(full.f.items()) if u < focus}
    outcome = RoundOutcome(
        full.f1[:focus],
        {e: d for e, d in full.direction.items() if e[1] < focus},
        frozenset(f),
        f,
    )
    expected = AttemptResult(
        ok,
        attempt if ok else max_restarts,
        outcome.f1,
        f,
        stats.col[:focus],
        stats.dist[:focus],
        stats.pairs[:focus],
        stats.triples[:focus],
        *map(len, violations),
    )
    common = {p: x for p, x in stats.common_uncoloured.items() if p[1] < focus}
    return expected, attempt_seed, outcome, violations, common


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
        from sparsecolour.ncp import (
            _nuv_counts,
            _outcome_from_arrays,
            _regularize_with_assignment,
            _round_arrays,
            _stats_arrays,
        )

        monkeypatch.setattr(ncp, "PRACTICAL_TAU", tau)
        monkeypatch.setattr(ncp, "PRACTICAL_SLACK_COEFF", slack_coeff)
        host = gnp_graph(14, 0.35, seed)
        c = _random_total_assignment(host, 4, random.Random(seed))
        g, reg_c = naive_regularize_with_assignment(host, c)
        delta = local_sparsity(g).delta if g.max_degree() >= 2 else 1.0
        params = default_round_params(4, g.max_degree(), delta=delta)
        expected, attempt_seed, outcome, violations, common = _sliced_attempt(
            g, reg_c, params, seed, max_restarts, host.n
        )
        reg, _ = _regularize_with_assignment(host, c)
        result = attempt_round(reg, params, seed, max_restarts)
        assert result == expected
        assert list(result.f.items()) == list(expected.f.items())
        # The chosen attempt replayed on the ball: its outcome, violating
        # vertices and pairs, and common-uncoloured counts, pair by pair.
        f1_idx, kept, cls = _round_arrays(reg, [attempt_seed])
        _, _, p_u, t_u = _stats_arrays(reg, cls, kept)
        nuv = _nuv_counts(reg, kept)[0]
        low = (p_u[0] - t_u[0]) < params.stat_threshold
        dev = np.abs(nuv - params.mu * reg.nuv_sizes)
        replayed = (
            tuple(np.flatnonzero(low & ~kept[0, : reg.focus]).tolist()),
            tuple(reg.nuv_pairs[i] for i in np.flatnonzero(dev > params.slack).tolist()),
        )
        assert replayed == violations
        assert dict(zip(reg.nuv_pairs, nuv.tolist())) == common
        assert _outcome_from_arrays(reg, attempt_seed, f1_idx[0], kept[0]) == outcome
