"""Line graph squares, strong-neighbourhood geometry, core peeling, pipeline."""

import itertools
import random
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
from sparsecolour.harness import naive_strong_colouring_valid
from sparsecolour.strong_edge import (
    StrongNeighbourhoodProfile,
    _validate_strong_colouring,
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
        # K6 has sparsity delta = 0, so no schedule is tried: no colouring
        # and no warning, and the pipeline's first-fit pass colours the core.
        from sparsecolour.strong_edge import _colour_core

        assert _colour_core(complete_graph(6), seed=0, max_restarts=10) == (None, None)

    def test_core_whose_k_exceeds_max_degree_takes_greedy_path(self):
        # K8 less one edge: delta = 1/21, so k = ceil((1 - eps) * 8) = 8 > 7 = max
        # degree, and the engine is not tried.
        from sparsecolour.strong_edge import _colour_core

        core = Graph.from_edges(8, [(u, v) for u in range(8) for v in range(u + 1, 8)][1:])
        assert _colour_core(core, seed=0, max_restarts=10) == (None, None)

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

    @pytest.mark.parametrize(
        "host",
        [gnp_graph(12, 0.3, seed=1), gnp_graph(20, 0.15, seed=2),
         random_regular_graph(14, 3, seed=3), random_regular_graph(16, 4, seed=4)],
        ids=["gnp12", "gnp20", "rr14x3", "rr16x4"],
    )
    def test_matches_networkx_square_of_line_graph(self, host):
        nx = pytest.importorskip("networkx")
        h = nx.Graph(list(host.edges()))
        expected = {
            frozenset(tuple(sorted(e)) for e in pair)
            for pair in nx.power(nx.line_graph(h), 2).edges()
        }
        sq, idx = line_graph_square(host)
        assert {frozenset((idx[i], idx[j])) for i, j in sq.edges()} == expected


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

    @pytest.mark.parametrize(
        "n,p,seed,threshold",
        [(30, 0.2, 1, 4), (30, 0.2, 2, 4), (40, 0.15, 0, 5), (60, 0.1, 4, 4),
         (30, 0.2, 1, Fraction(7, 2))],
    )
    def test_removal_order_matches_wave_reference(self, n, p, seed, threshold):
        # Reference: each wave is every vertex still alive whose degree among
        # the alive vertices is below the threshold, in ascending order.
        g = gnp_graph(n, p, seed=seed)
        alive, waves = set(range(g.n)), []
        while True:
            wave = sorted(
                v for v in alive if len(g.neighbour_set(v) & alive) < threshold
            )
            if not wave:
                break
            waves.append(wave)
            alive.difference_update(wave)
        assert len(waves) >= 2 and alive  # later waves and a non-empty core
        order, survivors = f_core_with_order(g, threshold)
        assert order == [v for wave in waves for v in wave]
        assert survivors == frozenset(alive)

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


def _shares_endpoint(h, edge_index):
    """(i, j): edges i and j != i share an endpoint, or None."""
    for i, j in itertools.combinations(range(len(edge_index)), 2):
        if set(edge_index[i]) & set(edge_index[j]):
            return i, j
    return None


def _joined_by_edge(h, edge_index):
    """(i, j): edges i and j share no endpoint but a host edge joins them, or
    None."""
    for i, j in itertools.combinations(range(len(edge_index)), 2):
        e, f = edge_index[i], edge_index[j]
        if not set(e) & set(f) and edges_within_distance_two(h, e, f):
            return i, j
    return None


VALIDATOR_HOSTS = {
    "gnp": gnp_graph(14, 0.3, seed=4),
    "rr": random_regular_graph(16, 4, seed=2),
    "c5x2": c5_blowup(2),
    "star": star_graph(5),
}


class TestValidateStrongColouring:
    @pytest.fixture(params=sorted(VALIDATOR_HOSTS))
    def host(self, request):
        return VALIDATOR_HOSTS[request.param]

    def valid_colourings(self, h):
        # The pipeline's colouring and first-fit colourings of the square.
        sq, edge_index = line_graph_square(h)
        shuffled = list(range(sq.n))
        random.Random(1).shuffle(shuffled)
        yield edge_index, strong_edge_colour(h).colours
        for order in (range(sq.n), reversed(range(sq.n)), shuffled):
            yield edge_index, first_fit(sq, order)

    def check(self, h, edge_index, colours, expected):
        assert naive_strong_colouring_valid(h, edge_index, colours) is expected
        assert _validate_strong_colouring(h, edge_index, colours) is expected

    def test_valid_colourings_accepted(self, host):
        for edge_index, colours in self.valid_colourings(host):
            self.check(host, edge_index, colours, True)

    @pytest.mark.parametrize("conflict", [_shares_endpoint, _joined_by_edge])
    def test_one_clash_rejected(self, host, conflict):
        _, edge_index = line_graph_square(host)
        pair = conflict(host, edge_index)
        if pair is None:
            pytest.skip("no such pair of edges in this host")
        i, j = pair
        for _, colours in self.valid_colourings(host):
            clash = dict(colours)
            clash[i] = colours[j]
            self.check(host, edge_index, clash, False)

    def test_index_and_colour_mismatches_rejected(self, host):
        edge_index, colours = next(self.valid_colourings(host))
        swapped = list(edge_index)
        swapped[0], swapped[-1] = swapped[-1], swapped[0]
        truncated = edge_index[:-1]
        uncoloured = {i: c for i, c in colours.items() if i != len(colours) // 2}
        # As many colours as edges, but one at a position past the last.
        misplaced = {**uncoloured, len(colours): colours[len(colours) // 2]}
        assert not _validate_strong_colouring(host, swapped, colours)
        assert not _validate_strong_colouring(host, truncated, colours)
        assert not _validate_strong_colouring(host, edge_index, uncoloured)
        assert not _validate_strong_colouring(host, edge_index, misplaced)
        assert not _validate_strong_colouring(host, [list(e) for e in edge_index], colours)


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
        colours, warning = _colour_core(core, seed=5, max_restarts=200)
        assert colours is not None and warning is None
        assert all(colours[u] != colours[v] for u, v in core.edges())
        assert len(set(colours.values())) <= core.max_degree()

    # The core's first round checks its assignment (15,160 bytes), the ball
    # of its regularised copy, the regular core itself (264,320), and the
    # distance-2 pair index (228,480 for its entries, then 282,600 with its
    # 820 pairs) in turn; each budget here lets through those before one.
    # Below 31,040 bytes the core's sparsity is counted from sets, not from
    # packed rows.  The statistic index comes last and has no rows: no edge
    # lies inside a neighbourhood of a C5 blow-up.
    @pytest.mark.parametrize(
        "limit, reason",
        [
            (15_000, "assignment of 15 colours on 320 edges"),
            (100_000, "regularised copy's ball of 40 vertices, 320 edges and 15 colours"),
            (270_000, "distance-2 pair index of 5440 entries"),
        ],
        ids=["assignment", "regularised-copy", "distance-2"],
    )
    def test_size_refusal_reads_as_engine_refused(self, monkeypatch, limit, reason):
        # The core of the engine path above, with the budget set below one of
        # its allocations: the schedule is feasible, so the warning must not
        # say otherwise.
        from sparsecolour import budget
        from sparsecolour.strong_edge import _colour_core

        monkeypatch.setattr(budget, "MEMORY_BUDGET", limit)
        colours, warning = _colour_core(c5_blowup(8), seed=5, max_restarts=200)
        assert colours is None
        assert warning.startswith(f"engine refused ({reason} would take about ")
        assert warning.endswith("above the memory budget of 0 MiB); greedy fallback")

    def test_schedule_failure_reads_as_no_feasible_schedule(self, monkeypatch):
        from sparsecolour import ncp, strong_edge
        from sparsecolour.strong_edge import _colour_core

        def infeasible(*args):
            raise ncp.ScheduleError("infeasible beta")

        monkeypatch.setattr(strong_edge, "build_schedule", infeasible)
        colours, warning = _colour_core(c5_blowup(8), seed=5, max_restarts=200)
        assert colours is None
        assert warning == "no feasible schedule (infeasible beta); greedy fallback"

    def test_schedule_row_cap_reads_as_no_feasible_schedule(self, monkeypatch):
        from sparsecolour import ncp
        from sparsecolour.strong_edge import _colour_core

        monkeypatch.setattr(ncp, "SCHEDULE_ROWS_CAP", 2)
        colours, warning = _colour_core(c5_blowup(8), seed=5, max_restarts=200)
        assert colours is None
        assert warning.startswith("no feasible schedule (beta=")
        assert warning.endswith("above the cap of 2 rows); greedy fallback")

    def test_edgeless_rejected(self):
        from sparsecolour.generators import empty_graph

        with pytest.raises(GraphError):
            strong_edge_colour(empty_graph(4))
