"""Graph type, sparsity instrumentation, and the pure graph procedures."""

import itertools
import random
import re

import pytest

from sparsecolour import budget
from sparsecolour.budget import BudgetError
from sparsecolour.correspondence import from_lists, uniform_lists
from sparsecolour.generators import (
    complete_graph,
    cycle_graph,
    gnp_graph,
    path_graph,
    petersen_graph,
    random_regular_graph,
    star_graph,
)
from sparsecolour.graph import (
    DimacsError,
    Graph,
    GraphError,
    first_fit,
    from_json_dict,
    local_sparsity,
    lowest_clear_bit,
    min_degree_ordering,
    parse_dimacs,
    parse_json,
    to_dimacs,
    to_json_dict,
)
from sparsecolour.harness import (
    monte_carlo_round,
    naive_parse_dimacs,
    naive_regularize_with_assignment,
)
from sparsecolour.ncp import _greedy_correspondence
from sparsecolour.strong_edge import c5_blowup


def brute_neighbourhood_edges(g, v):
    # Independent recount: iterate all vertex pairs inside the neighbourhood.
    nbrs = list(g.neighbours(v))
    count = 0
    for i, a in enumerate(nbrs):
        for b in nbrs[i + 1 :]:
            if g.has_edge(a, b):
                count += 1
    return count


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph.from_edges(2, [(0, 0)])

    def test_duplicate_edges_collapse(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1
        g = Graph.from_edges(4, [(2, 1), (0, 3), (1, 2), (3, 0), (2, 1), (1, 3)])
        assert g == Graph.from_edges(4, [(0, 3), (1, 2), (1, 3)])
        assert list(g.edges()) == [(0, 3), (1, 2), (1, 3)]
        assert g.neighbours(3) == (0, 1) and g.neighbour_set(1) == {2, 3}

    @pytest.mark.parametrize("edge", [(0, 10**20), (-(10**20), 1), (2**63, 2**63)])
    def test_endpoint_past_int64_refused_in_one_line(self, edge):
        message = f"edge ({edge[0]},{edge[1]}) out of range for n=3"
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            Graph.from_edges(3, [(0, 1), edge])
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            from_json_dict({"n": 3, "edges": [[0, 1], list(edge)]})

    def test_first_bad_edge_is_reported(self):
        with pytest.raises(GraphError, match=r"^self-loop \(2,2\)$"):
            Graph.from_edges(3, [(0, 1), (2, 2), (0, 7)])
        with pytest.raises(GraphError, match=r"^edge \(0,7\) out of range for n=3$"):
            Graph.from_edges(3, [(0, 1), (0, 7), (2, 2)])

    def test_induced_subgraph(self):
        g = cycle_graph(5)
        sub, old = g.induced([1, 2, 3])
        assert old == (1, 2, 3)
        assert list(sub.edges()) == [(0, 1), (1, 2)]

    def test_monte_carlo_path_never_builds_neighbour_rows(self, monkeypatch):
        # The array side reads the CSR arrays alone: loading, a uniform
        # assignment and a Monte Carlo run never ask for a neighbour tuple
        # or set.
        def split(self, kind):
            raise AssertionError(f"neighbour {kind.__name__}s built")

        monkeypatch.setattr(Graph, "_split", split)
        g = parse_dimacs(to_dimacs(random_regular_graph(30, 4, seed=1)))
        report = monte_carlo_round(g, uniform_lists(g, 5), trials=70, seed=1)
        assert report.trials == 70 and len(report.keep_mean) == 30

    def test_induced_refuses_duplicates(self):
        with pytest.raises(GraphError, match="induced vertex list contains duplicates"):
            cycle_graph(5).induced([1, 2, 1])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: c5_blowup(0), "blow-up factor must be at least 1"),
        (lambda: cycle_graph(2), "cycle needs at least 3 vertices"),
        (lambda: random_regular_graph(5, 3, 0), "n * d must be even"),
        (lambda: random_regular_graph(4, 4, 0), "need 0 <= d < n"),
    ],
    ids=["c5-blowup", "cycle", "regular-odd", "regular-degree"],
)
def test_generator_refuses_bad_size(build, message):
    with pytest.raises(GraphError, match=re.escape(message)):
        build()


class TestLocalSparsity:
    def test_complete_graph_is_fully_dense(self):
        report = local_sparsity(complete_graph(4))
        assert report.neighbourhood_edges == (3, 3, 3, 3)
        assert report.delta == 0.0

    def test_five_cycle_triangle_free(self):
        report = local_sparsity(cycle_graph(5))
        assert report.neighbourhood_edges == (0,) * 5
        assert report.delta == 1.0

    def test_random_cubic_matches_direct_recount(self):
        g = random_regular_graph(8, 3, seed=1)
        report = local_sparsity(g)
        counts = [brute_neighbourhood_edges(g, v) for v in range(8)]
        assert report.neighbourhood_edges == tuple(counts)
        assert report.delta == 1.0 - max(counts) / 3

    def test_degenerate_graph_rejected(self):
        with pytest.raises(GraphError, match="sparsity undefined"):
            local_sparsity(path_graph(2))


def regularize(g):
    reg, _ = naive_regularize_with_assignment(g, uniform_lists(g, 2))
    return reg


class TestRegularize:
    """The doubling regularisation (the reference that the engine's ball of
    the regularised copy is tested against)."""

    def test_already_regular_unchanged(self):
        g = complete_graph(3)
        assert regularize(g) == g

    def test_path_doubles_to_six_cycle(self):
        g = path_graph(3)
        reg = regularize(g)
        assert reg.n == 6
        assert reg.is_regular() and reg.max_degree() == 2
        sub, _ = reg.induced(range(3))
        assert sub == g

    def test_star_iterates_doubling(self):
        g = star_graph(3)
        reg = regularize(g)
        assert reg.is_regular() and reg.max_degree() == 3
        assert reg.n == 4 * 2**2  # two doubling steps
        assert local_sparsity(reg).delta >= local_sparsity(g).delta

    @pytest.mark.parametrize("seed", range(5))
    def test_random_graphs_properties(self, seed):
        g = gnp_graph(9, 0.4, seed=seed)
        if g.max_degree() < 2:
            pytest.skip("degenerate sample")
        reg = regularize(g)
        assert reg.is_regular()
        assert reg.max_degree() == g.max_degree()
        sub, _ = reg.induced(range(g.n))
        assert sub == g
        assert local_sparsity(reg).delta >= local_sparsity(g).delta - 1e-12


class TestMinDegreeOrdering:
    def test_triangle_ties_by_id(self):
        assert min_degree_ordering(complete_graph(3)) == [0, 1, 2]

    def check_defining_property(self, g, order):
        remaining = set(order)
        for v in order:
            deg_v = len(g.neighbour_set(v) & remaining)
            assert all(
                deg_v <= len(g.neighbour_set(w) & remaining) for w in remaining
            )
            remaining.remove(v)

    def test_star_leaf_first(self):
        g = star_graph(3)
        order = min_degree_ordering(g)
        assert order[0] != 0
        self.check_defining_property(g, order)

    def test_path_endpoint_first(self):
        g = path_graph(4)
        order = min_degree_ordering(g)
        assert order[0] in (0, 3)
        self.check_defining_property(g, order)

    @pytest.mark.parametrize("seed", range(5))
    def test_property_on_random_graphs(self, seed):
        g = gnp_graph(9, 0.5, seed=seed)
        order = min_degree_ordering(g)
        self.check_defining_property(g, order)


def assert_proper(g, colouring):
    for u, v in g.edges():
        if u in colouring and v in colouring:
            assert colouring[u] != colouring[v]


class TestFirstFit:
    def test_smallest_free_colour_along_order(self):
        g = path_graph(4)
        assert first_fit(g, [1, 2, 0, 3]) == {1: 0, 2: 1, 0: 1, 3: 0}

    def test_extends_given_colouring_in_place(self):
        g = complete_graph(3)
        colours = {0: 1}
        assert first_fit(g, [2, 1], colours) is colours
        assert colours == {0: 1, 2: 0, 1: 2}

    @pytest.mark.parametrize("seed", range(5))
    def test_proper_within_degree_plus_one(self, seed):
        g = gnp_graph(10, 0.5, seed=seed)
        colours = first_fit(g, range(10))
        assert_proper(g, colours)
        assert all(colours[v] <= g.degree(v) for v in range(10))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_a_colour_set_scan(self, seed):
        # Against first-fit on colour sets, with given colours up to 199 so
        # the masks run past 64 bits.
        rng = random.Random(seed)
        g = gnp_graph(40, 0.6, seed=seed)
        given = {v: rng.randrange(200) for v in rng.sample(range(40), 8)}
        order = [v for v in rng.sample(range(40), 40) if v not in given]
        expected = dict(given)
        for v in order:
            used = {expected[w] for w in g.neighbours(v) if w in expected}
            expected[v] = next(c for c in itertools.count() if c not in used)
        assert first_fit(g, order, dict(given)) == expected


@pytest.mark.parametrize(
    "mask, colour",
    [
        (0, 0),
        (0b1, 1),
        (0b10, 0),
        (0b1011, 2),
        ((1 << 64) - 1, 64),
        ((1 << 200) - 1 - (1 << 130), 130),
    ],
)
def test_lowest_clear_bit(mask, colour):
    assert lowest_clear_bit(mask) == colour


def greedy_colour(g, order, palettes):
    # Greedy list colouring is first-fit correspondence colouring under the
    # identity maps of from_lists.
    return _greedy_correspondence(g, from_lists(g, palettes), order)


class TestGreedyColour:
    def test_triangle_with_three_colours(self):
        g = complete_graph(3)
        colouring, failed = greedy_colour(g, [0, 1, 2], [{1, 2, 3}] * 3)
        assert not failed
        assert_proper(g, colouring)

    def test_forced_palettes_on_path(self):
        g = path_graph(3)
        colouring, _ = greedy_colour(g, [0, 1, 2], [{1}, {2}, {1}])
        assert colouring == {0: 1, 1: 2, 2: 1}

    def test_tree_with_two_colours_bfs(self):
        g = Graph.from_edges(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
        bfs = [0, 1, 2, 3, 4, 5, 6]
        colouring, failed = greedy_colour(g, bfs, [{0, 1}] * 7)
        assert not failed
        assert_proper(g, colouring)

    def test_exhausted_palette_reports_failure(self):
        g = complete_graph(3)
        colouring, failed = greedy_colour(g, [0, 1, 2], [{1, 2}] * 3)
        assert failed == [2]
        assert_proper(g, colouring)

    @pytest.mark.parametrize("seed", range(5))
    def test_degree_plus_one_always_succeeds(self, seed):
        g = gnp_graph(10, 0.5, seed=seed)
        palettes = [set(range(g.degree(v) + 1)) for v in range(10)]
        colouring, failed = greedy_colour(g, list(range(10)), palettes)
        assert not failed
        assert_proper(g, colouring)


class TestTriangleCount:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force(self, seed):
        # Each triangle has one edge inside the neighbourhood of each corner.
        g = gnp_graph(9, 0.5, seed=seed)
        brute = sum(
            1
            for a, b, c in itertools.combinations(range(9), 3)
            if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
        )
        assert sum(local_sparsity(g).neighbourhood_edges) == 3 * brute


class TestDimacs:
    def test_round_trip(self):
        g = petersen_graph()
        assert parse_dimacs(to_dimacs(g)) == g

    def test_comments_and_format(self):
        g = parse_dimacs("c hello\np edge 3 2\ne 1 2\ne 2 3\n")
        assert list(g.edges()) == [(0, 1), (1, 2)]

    def test_rejects_self_loop_with_line(self):
        with pytest.raises(DimacsError, match="line 2"):
            parse_dimacs("p edge 3 1\ne 2 2\n")

    def test_rejects_duplicate_with_line(self):
        with pytest.raises(DimacsError, match="line 3"):
            parse_dimacs("p edge 3 2\ne 1 2\ne 2 1\n")

    def test_first_faulty_line_is_reported(self):
        # A reversed duplicate on line 3 comes before a self-loop on line 5,
        # and a later duplicate after it does not count.
        text = "p edge 4 4\ne 1 2\ne 2 1\nc note\ne 3 3\ne 1 2\n"
        with pytest.raises(DimacsError, match="^line 3: duplicate edge 2 1$"):
            parse_dimacs(text)
        text = "p edge 4 4\ne 1 2\ne 2 3\ne 4 4\ne 2 1\n"
        with pytest.raises(DimacsError, match="^line 4: self-loop 4$"):
            parse_dimacs(text)
        with pytest.raises(DimacsError, match="^line 4: duplicate edge 3 2$"):
            parse_dimacs("p edge 4 3\ne 2 3\ne 1 2\ne 3 2\ne 2 1\n")

    def test_crlf_loads_as_lf(self):
        text = to_dimacs(petersen_graph())
        crlf = "c windows\r\n" + text.replace("\n", "\r\n")
        assert parse_dimacs(crlf) == parse_dimacs(text) == petersen_graph()

    def test_lines_split_across_chunks_as_splitlines_does(self, monkeypatch):
        from sparsecolour import graph

        text = "c a\r\n\np edge 5 4\ne 1 2\r\ne 2 3\n\n\ne 3 4\re 4 5"
        want = naive_parse_dimacs(text)
        assert want == Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        for chunk in range(1, len(text) + 1):
            monkeypatch.setattr(graph, "_LINE_CHUNK", chunk)
            assert parse_dimacs(text) == want
        with pytest.raises(DimacsError, match="^line 10: duplicate edge 3 2$"):
            parse_dimacs(text + "\ne 3 2\n")

    def test_refused_before_reading_the_edge_lines(self, monkeypatch):
        # The budget check at the problem line comes before any per-line
        # structure: the refused parse holds a chunk of lines at most.
        import tracemalloc

        text = "c header\np edge 100000 500000\n" + "e 1 2\n" * 500_000
        monkeypatch.setattr(budget, "MEMORY_BUDGET", 1_000_000)
        # Compiled before tracing starts, so the re cache does not grow inside.
        refusal = re.compile("^graph of 100000 vertices and 500000 edges")
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match=refusal):
                parse_dimacs(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * len(text), peak

    def test_budget_counts_indented_edge_lines(self, monkeypatch):
        # Lines that begin with blanks before `e` are edge lines too.
        seen = []
        monkeypatch.setattr(budget, "check", lambda what, nbytes: seen.append(what))
        g = parse_dimacs("p edge 1000 3\n e 1 2\n\te 2 3\n  e 3 4\n")
        assert seen == ["graph of 1000 vertices and 3 edges"]
        assert g.m == 3

    @pytest.mark.parametrize("seed", range(3))
    def test_edge_line_count_matches_the_lines(self, seed):
        from sparsecolour.graph import _BREAKS, _LINE_BLANKS, _edge_line_count

        spaces = {chr(c) for c in range(0x110000) if chr(c).isspace()}
        assert set(_BREAKS) | set(_LINE_BLANKS) == spaces
        assert not set(_BREAKS) & set(_LINE_BLANKS)
        rng = random.Random(seed)
        pieces = ["e", "c", "p", "1", " ", "\t", "\n", "\r", "\r\n", "\x0b", "\x1c", "\x1f",
                  "\x85", "\xa0", "\u2028", "\u3000"]
        for _ in range(3000):
            text = "".join(rng.choice(pieces) for _ in range(rng.randrange(12)))
            lines = sum(1 for line in text.splitlines() if line.strip().startswith("e"))
            assert _edge_line_count(text) == lines, repr(text)

    def test_blanks_inside_lines_counted_without_the_line_scan(self, monkeypatch):
        # Every blank that is no line break, inside a comment, an edge line
        # and a problem line: the count is the line regex's, and only the
        # plain count of "\ne" runs.
        from sparsecolour import graph

        texts = [
            f"c caf\xe9{b}note\np{b}edge 4 2\ne 1{b}2\r\ne 2 3\nc {b}e\n"
            for b in graph._LINE_BLANKS
        ]
        texts.append("\n".join(to_dimacs(complete_graph(30)).splitlines()) + "\nc \xa0\n")
        expected = [sum(1 for _ in graph._EDGE_LINE.finditer(text)) for text in texts]
        assert expected[:-1] == [2] * len(graph._LINE_BLANKS) and expected[-1] == 435
        monkeypatch.setattr(graph, "_EDGE_LINE", None)
        assert [graph._edge_line_count(text) for text in texts] == expected

    def test_json_refused_before_parsing(self, monkeypatch):
        # The budget check counts the text's lists, objects and keys before
        # json.loads builds any: the refused parse holds almost nothing.
        import json
        import tracemalloc

        text = json.dumps(to_json_dict(random_regular_graph(2000, 20, seed=1)))
        monkeypatch.setattr(budget, "MEMORY_BUDGET", 1_000_000)
        # Compiled before tracing starts, so the re cache does not grow inside.
        refusal = re.compile("^JSON graph of 20004 lists, objects and keys would take")
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match=refusal):
                parse_json(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * len(text), peak
        assert parse_json(json.dumps({"n": 3, "edges": [[0, 1]]})) == Graph.from_edges(
            3, [(0, 1)]
        )

    def test_rejects_range_violation(self):
        with pytest.raises(DimacsError, match="line 2"):
            parse_dimacs("p edge 3 1\ne 1 4\n")

    def test_missing_problem_line(self):
        with pytest.raises(DimacsError):
            parse_dimacs("e 1 2\n")

    def test_vertex_count_above_cap_refused_before_building(self, monkeypatch):
        def build(*args):
            raise AssertionError("graph built before the size check")

        # 20 bytes a vertex and 72 an edge: 192 bytes, one past the budget.
        monkeypatch.setattr(budget, "MEMORY_BUDGET", 191)
        monkeypatch.setattr(Graph, "from_edges", build)
        monkeypatch.setattr(Graph, "__init__", build)
        refusal = "^graph of 6 vertices and 1 edges would take about 0 MiB"
        with pytest.raises(BudgetError, match=refusal):
            parse_dimacs("c huge\np edge 6 1\ne 1 2\n")
        with pytest.raises(BudgetError, match=refusal):
            from_json_dict({"n": 6, "edges": [[0, 1]]})

    def test_vertex_count_at_cap_loads(self, monkeypatch):
        monkeypatch.setattr(budget, "MEMORY_BUDGET", 5 * 20 + 72)
        want = Graph.from_edges(5, [(0, 4)])
        assert parse_dimacs("p edge 5 1\ne 1 5\n") == want
        assert from_json_dict({"n": 5, "edges": [[0, 4]]}) == want
    def test_json_round_trip(self):
        g = petersen_graph()
        assert from_json_dict(to_json_dict(g)) == g

    @pytest.mark.parametrize("seed", range(6))
    def test_round_trip_random_graphs(self, seed):
        g = gnp_graph(15, 0.3, seed=seed)
        assert parse_dimacs(to_dimacs(g)) == g
        assert from_json_dict(to_json_dict(g)) == g
