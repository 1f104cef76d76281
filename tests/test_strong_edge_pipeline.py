"""The strong-edge pipeline against an oracle built on the materialised L²(H).

The pipeline peels and colours from the host's near-edge sets and builds no
square; the oracle builds `line_graph_square(h)`, peels it with
`f_core_with_order`, colours the induced core and extends with
`first_fit(square, reversed(order), core colours)`.  Peel order, core and
colours must agree exactly.
"""

import itertools
import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import sparsecolour.strong_edge as strong_edge  # noqa: E402
from sparsecolour.generators import (  # noqa: E402
    complete_graph,
    gnp_graph,
    petersen_graph,
    random_regular_graph,
    star_graph,
)
from sparsecolour.graph import Graph, GraphError, first_fit  # noqa: E402
from sparsecolour.harness import naive_strong_colouring_valid  # noqa: E402
from sparsecolour.strong_edge import (  # noqa: E402
    _colour_core,
    _extend_reverse_peel,
    _SquareRows,
    c5_blowup,
    f_core_density_check,
    f_core_with_order,
    line_graph_square,
    strong_edge_colour,
)

DEFAULT_ETA = 0.164


def projective_plane_incidence(q):
    """Point-line incidence graph of PG(2, q), q prime: (q + 1)-regular with
    girth 6, so every vertex of its line-graph square has degree 2D² - 2D."""
    points = [
        v for v in itertools.product(range(q), repeat=3)
        if any(v) and next(x for x in v if x) == 1
    ]
    n = len(points)
    edges = [
        (i, n + j)
        for i, p in enumerate(points)
        for j, line in enumerate(points)
        if sum(a * b for a, b in zip(p, line)) % q == 0
    ]
    return Graph.from_edges(2 * n, edges)


def default_threshold(h, eta=DEFAULT_ETA):
    return (Fraction(2) - Fraction(str(eta))) * h.max_degree() ** 2


def greedy_core(core_graph, seed=0, max_restarts=0):
    return first_fit(core_graph, range(core_graph.n)), False, None


def oracle(h, threshold, colour_core=greedy_core):
    """Peel order, core, core graph and colours from the materialised square."""
    square, _ = line_graph_square(h)
    order, core = f_core_with_order(square, threshold)
    core_graph, ids = square.induced(sorted(core))
    core_colours = colour_core(core_graph, 0, 200)[0]
    colours = {ids[v]: c for v, c in core_colours.items()}
    first_fit(square, reversed(order), colours)
    return order, core, core_graph, colours


def pipeline(h, threshold):
    """The same steps through the near-edge rows, with a greedy core."""
    rows = _SquareRows(h)
    order, core = f_core_with_order(rows, threshold)
    core_graph, ids = rows.induced(sorted(core))
    colours = {ids[v]: c for v, c in greedy_core(core_graph)[0].items()}
    _extend_reverse_peel(h, rows.edge_index, order, colours)
    return order, core, core_graph, colours


def check_against_oracle(h, threshold):
    expected = oracle(h, threshold)
    assert pipeline(h, threshold) == expected
    edge_index = list(h.edges())
    assert naive_strong_colouring_valid(h, edge_index, expected[3])
    return expected


@st.composite
def hosts(draw):
    """Small gnp, random-regular, C5 blow-up, star and Petersen hosts, each
    with at least one edge."""
    kind = draw(st.sampled_from(["gnp", "rr", "c5x2", "star", "petersen"]))
    seed = draw(st.integers(0, 2**16))
    if kind == "gnp":
        n = draw(st.integers(2, 18))
        h = gnp_graph(n, draw(st.sampled_from([0.15, 0.25, 0.4])), seed=seed)
        hypothesis.assume(h.m > 0)
        return h
    if kind == "rr":
        n = draw(st.integers(4, 18))
        d = draw(st.integers(1, min(5, n - 1)).filter(lambda d: n * d % 2 == 0))
        return random_regular_graph(n, d, seed=seed)
    if kind == "c5x2":
        return c5_blowup(2)
    if kind == "star":
        return star_graph(draw(st.integers(1, 7)))
    return petersen_graph()


class TestAgainstMaterialisedSquare:
    @settings(max_examples=60, deadline=None)
    @given(h=hosts(), seed=st.integers(0, 3))
    def test_default_eta(self, h, seed):
        # The whole pipeline, with the core coloured as the pipeline does.
        def colour_core(core_graph, _seed, max_restarts):
            return _colour_core(core_graph, seed, max_restarts)

        threshold = default_threshold(h)
        order, core, _, colours = oracle(h, threshold, colour_core)
        report = strong_edge_colour(h, seed=seed)
        assert report.colours == colours
        assert report.f_core_size == len(core)
        assert pipeline(h, threshold)[:2] == (order, core)

    @settings(max_examples=80, deadline=None)
    @given(h=hosts(), scale=st.fractions(0, 1))
    def test_any_threshold(self, h, scale):
        check_against_oracle(h, scale * (2 * h.max_degree() ** 2))

    @pytest.mark.parametrize(
        "h, threshold",
        [
            (gnp_graph(20, 0.25, seed=3), 20),
            (gnp_graph(20, 0.25, seed=3), Fraction(41, 2)),
            (random_regular_graph(16, 4, seed=2), 15),
        ],
        ids=["gnp20-t20", "gnp20-t20.5", "rr16x4-t15"],
    )
    def test_several_waves_and_a_core(self, h, threshold):
        order, core, core_graph, colours = check_against_oracle(h, threshold)
        square, _ = line_graph_square(h)
        alive, waves = set(range(square.n)), 0
        while True:
            wave = {v for v in alive if len(square.neighbour_set(v) & alive) < threshold}
            if not wave:
                break
            waves += 1
            alive -= wave
        assert waves >= 2 and core and core_graph.m > 0


def disjoint_union(g, h):
    shifted = [(u + g.n, v + g.n) for u, v in h.edges()]
    return Graph.from_edges(g.n + h.n, [*g.edges(), *shifted])


class TestDegreeCertificate:
    """The host-degree bound s(u) + s(v) - deg(u) - deg(v) on each row."""

    @settings(max_examples=80, deadline=None)
    @given(h=hosts())
    def test_bounds_every_row(self, h):
        rows = _SquareRows(h)
        bounds = rows.degree_bounds()
        assert len(bounds) == rows.n
        assert all(b >= rows.degree(i) for i, b in enumerate(bounds))

    def test_exact_at_girth_five(self):
        # 3-regular with girth 5: every row has 2D² - 2D = 12 entries.
        rows = _SquareRows(petersen_graph())
        assert rows.degree_bounds() == [12] * 15
        assert [rows.degree(i) for i in range(15)] == [12] * 15

    def test_bound_at_the_threshold_certifies_nothing(self):
        # Petersen rows have 12 entries and stay at threshold 12; the six
        # rows of K4 have bound 12 but 5 entries, so they go.
        petersen, k4 = _SquareRows(petersen_graph()), _SquareRows(complete_graph(4))
        assert k4.degree_bounds() == [12] * 6
        assert f_core_with_order(petersen, 12) == ([], frozenset(range(15)))
        assert f_core_with_order(k4, 12) == (list(range(6)), frozenset())

    @pytest.mark.parametrize(
        "h, colours",
        [
            (complete_graph(14), 91),
            (complete_graph(16), 120),
            (
                disjoint_union(complete_graph(15), random_regular_graph(40, 3, seed=4)),
                105,
            ),
            (c5_blowup(4), 80),
        ],
        ids=["K14", "K16", "K15+rr40x3", "c5x4"],
    )
    def test_exact_degrees_against_the_square(self, h, colours):
        # On the complete graphs the bounds reach the threshold, so the peel
        # takes exact degrees; the C5 blow-up is certified whole.  Every
        # square here but the union's is a clique, so the masks run past 64
        # bits.
        threshold = default_threshold(h)
        order, core, _, expected = check_against_oracle(h, threshold)
        assert not core and strong_edge_colour(h).colours == expected
        assert len(set(expected.values())) == colours

    def test_union_mixes_certified_and_exact_rows(self, monkeypatch):
        k15 = complete_graph(15)
        h = disjoint_union(k15, random_regular_graph(40, 3, seed=4))
        threshold = math.ceil(default_threshold(h))
        bounds = _SquareRows(h).degree_bounds()
        assert all(b >= threshold for b in bounds[: k15.m])
        assert all(b < threshold for b in bounds[k15.m :])
        exact = []

        class CountingRows(_SquareRows):
            def degree(self, i):
                exact.append(i)
                return super().degree(i)

        monkeypatch.setattr(strong_edge, "_SquareRows", CountingRows)
        strong_edge_colour(h)
        assert exact == list(range(k15.m))


class TestNoMaterialisedSquare:
    def test_certified_host_builds_no_near_sets(self, monkeypatch):
        # On rr(600,12) every bound is 2D² - 2D = 264, below the threshold
        # of 264.384, so the whole first wave is certified.
        def no_near_sets(*args, **kwargs):
            raise AssertionError("no near-edge set is needed here")

        monkeypatch.setattr(strong_edge, "_near_edge_sets", no_near_sets)
        report = strong_edge_colour(random_regular_graph(600, 12, seed=1))
        assert report.valid and report.f_core_size == 0

    def test_empty_core_builds_no_graph(self, monkeypatch):
        # Every edge falls in the first wave: no row is read after the
        # degrees, and no Graph is built inside the pipeline.
        h = random_regular_graph(60, 6, seed=1)
        reads = []

        class CountingRows(_SquareRows):
            def neighbour_set(self, i):
                reads.append(i)
                return super().neighbour_set(i)

        def no_graph(*args, **kwargs):
            raise AssertionError("the pipeline must not build a Graph here")

        expected = strong_edge_colour(h, seed=1)
        monkeypatch.setattr(strong_edge, "_SquareRows", CountingRows)
        monkeypatch.setattr(strong_edge, "Graph", no_graph)
        monkeypatch.setattr(strong_edge, "line_graph_square", no_graph)
        report = strong_edge_colour(h, seed=1)
        assert reads == [] and report.f_core_size == 0
        assert report == expected


class TestProjectivePlaneCore:
    def test_host_shape(self):
        h = projective_plane_incidence(7)
        assert h.n == 114 and h.m == 456 and h.is_regular() and h.max_degree() == 8
        square, _ = line_graph_square(h)
        assert {square.degree(v) for v in range(square.n)} == {112}

    def test_whole_square_is_the_core(self):
        # At eta = 0.3 the threshold is 108.8 <= 112, so nothing is peeled.
        # The engine gets as far as the statistic index of the regularised
        # core, which it refuses, so the core gets its greedy fallback.
        h = projective_plane_incidence(7)
        report = strong_edge_colour(h, eta=0.3)
        order, core, core_graph, colours = oracle(h, default_threshold(h, 0.3))
        assert order == [] and len(core) == 456 and core_graph.m == 456 * 112 // 2
        assert report.f_core_size == 456 and not report.engine_used
        assert report.engine_warning == (
            "engine refused (statistic index would have up to 7313264 rows (about "
            "223 MiB), above the cap of 4000000 rows); greedy fallback"
        )
        assert report.valid and report.colours == colours
        assert naive_strong_colouring_valid(h, report.edge_index, report.colours)
        assert pipeline(h, default_threshold(h, 0.3)) == (order, core, core_graph, colours)

    def test_density_check_matches_the_square(self):
        h = projective_plane_incidence(7)
        report = f_core_density_check(h, 0.3)
        square, _ = line_graph_square(h)
        core = frozenset(range(square.n))
        worst = 0
        for e in core:
            nbrs = square.neighbour_set(e)
            worst = max(worst, sum(len(square.neighbour_set(w) & nbrs) for w in nbrs) // 2)
        assert report.core_size == 456
        assert report.max_ratio == worst / report.bound


class TestSizeGuard:
    @pytest.mark.parametrize(
        "h, entries",
        [(star_graph(5), 30), (random_regular_graph(20, 4, seed=1), 320)],
        ids=["star5", "rr20x4"],
    )
    def test_refused_before_near_sets(self, monkeypatch, h, entries):
        def no_near_sets(*args, **kwargs):
            raise AssertionError("the size check must come before the near sets")

        monkeypatch.setattr(strong_edge, "NEAR_SIZE_CAP", entries - 1)
        monkeypatch.setattr(strong_edge, "_near_edge_sets", no_near_sets)
        calls = [strong_edge_colour, line_graph_square]
        if h.is_regular():
            calls.append(lambda g: f_core_density_check(g, 0.1))
        for call in calls:
            with pytest.raises(GraphError, match=f"about {entries} entries"):
                call(h)

    def test_at_the_cap_builds(self, monkeypatch):
        monkeypatch.setattr(strong_edge, "NEAR_SIZE_CAP", 30)
        assert strong_edge_colour(star_graph(5)).num_colours == 5
