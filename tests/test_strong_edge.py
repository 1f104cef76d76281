"""Line graph squares, strong-neighbourhood geometry, core peeling, pipeline."""

import itertools
from fractions import Fraction

import pytest

from sparsecolour.generators import (
    complete_graph,
    cycle_graph,
    gnp_graph,
    path_graph,
    petersen_graph,
    random_regular_graph,
    star_graph,
)
from sparsecolour.graph import Graph, GraphError, first_fit
from sparsecolour.strong_edge import (
    StrongNeighbourhoodProfile,
    c4_lower_bound,
    c5_blowup,
    f_core,
    f_core_density_check,
    f_core_with_order,
    line_graph_square,
    strong_degree_bound,
    strong_edge_colour,
    strong_neighbourhood,
    strong_neighbourhood_edge_bound,
    strong_profile,
)


def edges_within_distance_two(h, e1, e2):
    # Oracle: share an endpoint, or some host edge joins them.
    s1, s2 = set(e1), set(e2)
    if s1 & s2:
        return True
    return any(
        h.has_edge(a, b) for a in s1 for b in s2
    )


class TestLineGraphSquare:
    def test_path_gives_single_edge(self):
        sq, idx = line_graph_square(path_graph(3))
        assert sq.n == 2 and sq.m == 1

    def test_five_cycle_gives_clique(self):
        sq, _ = line_graph_square(cycle_graph(5))
        assert sq.n == 5 and sq.m == 10

    def test_blowup_three_gives_clique_45(self):
        sq, _ = line_graph_square(c5_blowup(3))
        assert sq.n == 45
        assert sq.m == 45 * 44 // 2

    def test_dense_core_takes_greedy_path(self):
        # K6 has sparsity delta = 0, so no schedule is tried: the core gets
        # first-fit in vertex order, one colour per vertex, and no warning.
        from sparsecolour.strong_edge import _colour_core

        core = complete_graph(6)
        result = _colour_core(core, seed=0, max_restarts=10)
        assert result == (first_fit(core, range(6)), False, None)
        assert result[0] == {v: v for v in range(6)}

    def test_edgeless_rejected(self):
        from sparsecolour.generators import empty_graph

        with pytest.raises(GraphError):
            line_graph_square(empty_graph(3))

    @pytest.mark.parametrize("seed", range(6))
    def test_adjacency_matches_distance_oracle(self, seed):
        h = gnp_graph(8, 0.4, seed=seed)
        if h.m == 0:
            pytest.skip("edgeless sample")
        sq, idx = line_graph_square(h)
        for i, j in itertools.combinations(range(sq.n), 2):
            assert sq.has_edge(i, j) == edges_within_distance_two(
                h, idx[i], idx[j]
            )


class TestC5Blowup:
    def test_k1_is_five_cycle(self):
        g = c5_blowup(1)
        assert g.n == 5 and g.m == 5
        assert all(g.degree(v) == 2 for v in range(5))

    def test_k2(self):
        g = c5_blowup(2)
        assert g.max_degree() == 4 and g.m == 20
        sq, _ = line_graph_square(g)
        assert sq.n == 20 and sq.m == 20 * 19 // 2

    def test_k3_ratio(self):
        g = c5_blowup(3)
        assert g.max_degree() == 6
        sq, _ = line_graph_square(g)
        assert sq.n == 45 == 1.25 * g.max_degree() ** 2

    def test_no_intra_group_edges(self):
        g = c5_blowup(3)
        for group in range(5):
            block = range(group * 3, group * 3 + 3)
            for a, b in itertools.combinations(block, 2):
                assert not g.has_edge(a, b)


def brute_profile_sets(h, e):
    u, v = e
    x = set()
    for w in (u, v):
        x |= set(h.neighbours(w))
    x -= {u, v}
    y = set()
    for w in x:
        y |= set(h.neighbours(w))
    y -= x | {u, v}
    return x, y


class TestStrongProfile:
    def test_single_edge(self):
        p = strong_profile(complete_graph(2), (0, 1))
        assert p.x_vertices == frozenset() and p.y_vertices == frozenset()
        assert p.alpha == p.beta == p.gamma == 0
        assert p.strong_degree == 0 and p.c4 == 0

    def test_five_cycle(self):
        p = strong_profile(cycle_graph(5), (0, 1))
        assert len(p.x_vertices) == 2
        assert len(p.y_vertices) == 1
        assert p.strong_degree == 4
        assert p.alpha == 0.0

    def test_sets_match_brute_force(self):
        for seed in range(4):
            h = gnp_graph(9, 0.4, seed=seed)
            for e in h.edges():
                p = strong_profile(h, e)
                x, y = brute_profile_sets(h, e)
                assert p.x_vertices == frozenset(x)
                assert p.y_vertices == frozenset(y)
                assert p.strong_degree == len(strong_neighbourhood(h, e))

    def test_petersen_satisfies_degree_bound(self):
        h = petersen_graph()
        for e in h.edges():
            p = strong_profile(h, e)
            assert p.strong_degree <= strong_degree_bound(p) + 1e-9

    def test_petersen_measured_edge_counts_below_bound(self):
        h = petersen_graph()
        sq, idx = line_graph_square(h)
        for i, e in enumerate(idx):
            p = strong_profile(h, e)
            measured = measured_strong_neighbourhood_edges(sq, i)
            assert measured <= strong_neighbourhood_edge_bound(p) + 1e-9

    def test_non_edge_rejected(self):
        with pytest.raises(GraphError):
            strong_profile(cycle_graph(5), (0, 2))


def measured_strong_neighbourhood_edges(sq, vertex):
    nbrs = sq.neighbour_set(vertex)
    return sum(len(sq.neighbour_set(w) & nbrs) for w in nbrs) // 2


class TestEdgeBounds:
    def test_plugin_value(self):
        p = StrongNeighbourhoodProfile(
            edge=(0, 1),
            max_degree=10,
            x_vertices=frozenset(),
            y_vertices=frozenset(),
            alpha=0.0,
            beta=0.0,
            gamma=0.0,
            strong_degree=0,
            c4=0,
        )
        assert strong_neighbourhood_edge_bound(p) == 18000.0

    @pytest.mark.parametrize("seed", range(4))
    def test_regular_fixtures_satisfy_all_bounds(self, seed):
        h = random_regular_graph(24, 4, seed=seed)
        sq, idx = line_graph_square(h)
        for i, e in enumerate(idx):
            p = strong_profile(h, e)
            assert p.strong_degree <= strong_degree_bound(p) + 1e-9
            assert p.c4 >= c4_lower_bound(p) - 1e-9
            measured = measured_strong_neighbourhood_edges(sq, i)
            plain = strong_neighbourhood_edge_bound(p, improved=False)
            improved = strong_neighbourhood_edge_bound(p, improved=True)
            assert improved <= plain + 1e-9
            assert measured <= improved + 1e-9


def brute_force_core(g, threshold):
    best = frozenset()
    for r in range(g.n, 0, -1):
        if r <= len(best):
            break
        for combo in itertools.combinations(range(g.n), r):
            inside = set(combo)
            if all(
                len(g.neighbour_set(v) & inside) >= threshold for v in combo
            ):
                return frozenset(combo)
    return best


class TestCore:
    def test_threshold_zero_keeps_all(self):
        g = gnp_graph(8, 0.3, seed=1)
        assert f_core(g, 0) == frozenset(range(8))

    def test_complete_graph_thresholds(self):
        g = complete_graph(5)
        assert f_core(g, 4) == frozenset(range(5))
        assert f_core(g, 5) == frozenset()

    def test_fraction_threshold_at_equality_keeps(self):
        g = complete_graph(5)
        assert f_core(g, Fraction(4)) == frozenset(range(5))

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("threshold", [1, 2, 3])
    def test_matches_brute_force_maximum(self, seed, threshold):
        g = gnp_graph(12, 0.35, seed=seed)
        assert f_core(g, threshold) == brute_force_core(g, threshold)

    def test_removal_order_degrees_below_threshold(self):
        g = gnp_graph(12, 0.4, seed=7)
        order, survivors = f_core_with_order(g, 3)
        alive = set(range(g.n))
        for v in order:
            alive.discard(v)
            assert len(g.neighbour_set(v) & alive) < 3  # strictly below
        assert frozenset(alive) == survivors


class TestCoreDensityCheck:
    def test_blowups_pass_vacuously(self):
        for k in (2, 3):
            report = f_core_density_check(c5_blowup(k), 0.164)
            assert report.passed
            assert report.core_size == 0 and report.max_ratio is None

    def test_random_regular_at_eta_03(self):
        h = random_regular_graph(30, 4, seed=6)
        report = f_core_density_check(h, 0.3)
        assert report.passed

    def test_domain(self):
        with pytest.raises(GraphError):
            f_core_density_check(c5_blowup(2), 0.31)
        with pytest.raises(GraphError):
            f_core_density_check(star_graph(3), 0.1)


def independent_distance2_scan(h, edge_index, colours):
    id_of = {e: i for i, e in enumerate(edge_index)}
    for i, e in enumerate(edge_index):
        for other in edge_index:
            if other == e:
                continue
            if edges_within_distance_two(h, e, other):
                assert colours[i] != colours[id_of[other]]


class TestStrongEdgeColour:
    def test_star_needs_five(self):
        h = star_graph(5)
        report = strong_edge_colour(h)
        assert report.num_colours == 5
        independent_distance2_scan(h, report.edge_index, report.colours)

    def test_blowup_three_exactly_45(self):
        h = c5_blowup(3)
        report = strong_edge_colour(h)
        assert report.num_colours == 45
        assert report.ratio_to_delta_sq == 1.25
        independent_distance2_scan(h, report.edge_index, report.colours)

    def test_random_regular_valid_and_below_trivial(self):
        h = random_regular_graph(40, 4, seed=12)
        report = strong_edge_colour(h, seed=12)
        assert report.valid
        assert report.num_colours <= 2 * h.max_degree() ** 2
        independent_distance2_scan(h, report.edge_index, report.colours)

    def test_deterministic(self):
        h = random_regular_graph(30, 4, seed=3)
        assert strong_edge_colour(h, seed=5) == strong_edge_colour(h, seed=5)

    def test_core_colouring_engine_path(self):
        # Small-degree hosts always peel to an empty core, so drive the core
        # colouring directly: a sparse 16-regular core admits a feasible
        # schedule and the engine saves colours over the trivial bound.
        from sparsecolour.strong_edge import _colour_core

        core = c5_blowup(8)
        colours, engine_used, warning = _colour_core(core, seed=5, max_restarts=200)
        assert engine_used and warning is None
        assert all(colours[u] != colours[v] for u, v in core.edges())
        assert len(set(colours.values())) <= core.max_degree()

    def test_edgeless_rejected(self):
        from sparsecolour.generators import empty_graph

        with pytest.raises(GraphError):
            strong_edge_colour(empty_graph(4))
