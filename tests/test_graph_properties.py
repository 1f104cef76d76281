"""Property tests: the CSR graph against networkx, serialisation round
trips, exact cliques and the minimum-degree ordering.

Graphs have up to 30 vertices at a drawn edge density; some vertices are
kept isolated, and n = 0 is included.  A graph built by `from_edges`, by
`induced` or by a DIMACS or JSON round trip must answer every query as the
networkx graph of the same edges does; DIMACS and JSON must give back the
same graph, `line_graph_square` must join exactly the strong
neighbourhoods, `clique_info` must agree with networkx on the clique number
and the set of maximum cliques, and `min_degree_ordering` must give the
order of its rescanning reference in `harness` on the graph and on an
induced subgraph.  `local_sparsity` must count the edges inside every
neighbourhood as a brute-force count does, from packed rows or from sets,
on dense graphs and on cycles and matchings across 64-bit word boundaries,
whole rows or cut into tiles of one word.  `parse_dimacs` must give the graph, or the refusal
text, of its per-line reference `harness.naive_parse_dimacs` on drawn
texts, whatever the chunk size of its bulk path.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sparsecolour import graph  # noqa: E402
from sparsecolour.cliques import clique_info  # noqa: E402
from sparsecolour.graph import (  # noqa: E402
    DimacsError,
    Graph,
    GraphError,
    from_json_dict,
    local_sparsity,
    min_degree_ordering,
    parse_dimacs,
    to_dimacs,
    to_json_dict,
)
from sparsecolour.harness import (  # noqa: E402
    naive_min_degree_ordering,
    naive_parse_dimacs,
)
from sparsecolour.strong_edge import line_graph_square, strong_neighbourhood  # noqa: E402


@st.composite
def edge_lists(draw, max_n=30):
    """(n, edges) of a random graph whose last `isolated` vertices have no
    edge; each edge once, as (u, v) with u < v."""
    n = draw(st.integers(0, max_n))
    isolated = draw(st.integers(0, min(n, 3)))
    density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.8, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    joined = n - isolated
    edges = [
        (u, v)
        for u in range(joined)
        for v in range(u + 1, joined)
        if rng.random() < density
    ]
    return n, edges


def graphs(max_n=30):
    return edge_lists(max_n).map(lambda drawn: Graph.from_edges(*drawn))


def reference(n, edges):
    nx = pytest.importorskip("networkx")
    ref = nx.Graph()
    ref.add_nodes_from(range(n))
    ref.add_edges_from(edges)
    return ref


def assert_agrees(g, ref):
    """g answers every query as the networkx graph `ref` on 0..n-1 does."""
    assert (g.n, g.m) == (ref.number_of_nodes(), ref.number_of_edges())
    for u in range(g.n):
        row = sorted(ref.adj[u])
        assert g.neighbours(u) == tuple(row)
        assert g.neighbour_set(u) == frozenset(row)
        assert g.degree(u) == len(row)
        assert [g.has_edge(u, v) for v in range(g.n)] == [ref.has_edge(u, v) for v in range(g.n)]
    edges = sorted((min(e), max(e)) for e in ref.edges())
    assert g.edge_array().tolist() == [list(e) for e in edges]
    assert g.edge_array().shape == (len(edges), 2)
    assert list(g.edges()) == edges
    assert g.max_degree() == max((len(ref.adj[u]) for u in ref), default=0)


@settings(max_examples=80, deadline=None)
@given(drawn=edge_lists(), data=st.data())
def test_from_edges_matches_networkx(drawn, data):
    # Each edge also comes reversed or repeated, in a drawn order.
    n, edges = drawn
    doubled = [(v, u) for u, v in edges] + edges[: len(edges) // 2]
    listed = data.draw(st.permutations(edges + doubled))
    assert_agrees(Graph.from_edges(n, listed), reference(n, edges))


@settings(max_examples=80, deadline=None)
@given(drawn=edge_lists(), data=st.data())
def test_induced_matches_networkx(drawn, data):
    # On a drawn vertex list: often proper, sometimes all of g in some
    # order, sometimes empty; new ids follow the list.
    n, edges = drawn
    g = Graph.from_edges(n, edges)
    order = data.draw(st.permutations(range(n)))[: data.draw(st.integers(0, n))]
    sub, old_ids = g.induced(order)
    assert old_ids == tuple(order)
    new = {old: i for i, old in enumerate(order)}
    inside = [(new[u], new[v]) for u, v in edges if u in new and v in new]
    assert_agrees(sub, reference(len(order), inside))


@settings(max_examples=80, deadline=None)
@given(drawn=edge_lists())
def test_loaded_graphs_match_networkx(drawn):
    n, edges = drawn
    g = Graph.from_edges(n, edges)
    ref = reference(n, edges)
    assert_agrees(parse_dimacs(to_dimacs(g)), ref)
    assert_agrees(from_json_dict(to_json_dict(g)), ref)


@settings(max_examples=40, deadline=None)
@given(g=graphs(max_n=12))
def test_line_graph_square_joins_strong_neighbourhoods(g):
    if g.m == 0:
        return
    square, edge_index = line_graph_square(g)
    assert edge_index == list(g.edges())
    position = {e: i for i, e in enumerate(edge_index)}
    for i, e in enumerate(edge_index):
        near = sorted(position[f] for f in strong_neighbourhood(g, e))
        assert square.neighbours(i) == tuple(near)


@settings(max_examples=80, deadline=None)
@given(g=graphs())
def test_dimacs_round_trip(g):
    assert parse_dimacs(to_dimacs(g)) == g


@settings(max_examples=80, deadline=None)
@given(g=graphs())
def test_json_round_trip(g):
    assert from_json_dict(to_json_dict(g)) == g


@settings(max_examples=60, deadline=None)
@given(g=graphs())
def test_clique_info_matches_networkx(g):
    nx = pytest.importorskip("networkx")
    ref = reference(g.n, g.edges())
    maximal = [frozenset(c) for c in nx.find_cliques(ref)]
    omega = max(map(len, maximal), default=0)
    info = clique_info(g)
    assert info.omega == omega
    assert set(info.maximum_cliques) == {c for c in maximal if len(c) == omega}
    assert len(info.maximum_cliques) == len(set(info.maximum_cliques))


@settings(max_examples=80, deadline=None)
@given(g=graphs(), data=st.data())
def test_min_degree_ordering_matches_reference(g, data):
    # Also on the subgraph induced by a drawn vertex list: often proper,
    # sometimes all of g, sometimes empty, renumbered in drawn order.
    subset = data.draw(st.permutations(range(g.n)))[: data.draw(st.integers(0, g.n))]
    sub, _ = g.induced(subset)
    assert min_degree_ordering(sub) == naive_min_degree_ordering(sub)
    assert min_degree_ordering(g) == naive_min_degree_ordering(g)


def naive_neighbourhood_edges(n, edges):
    """The edges inside each N(v), counted pair by pair of neighbours."""
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return [
        sum(1 for a in nbrs[v] for b in nbrs[v] if a < b and b in nbrs[a]) for v in range(n)
    ]


@st.composite
def sparsity_graphs(draw):
    """(n, edges) of a dense graph; of cycles of 40 to 200 vertices, or a
    perfect matching of as many beside a path of three, whose maximum
    degree 2 puts them on either side of the packed-row rule, their rows
    taking one to four words; of no edge; or of a dense part beside cycles;
    with up to three isolated vertices last."""
    kind = draw(st.sampled_from(["dense", "cycles", "matching", "edgeless", "disconnected"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n, edges = 0, []
    if kind in ("dense", "disconnected"):
        n = draw(st.integers(3, 40))
        density = draw(st.sampled_from([0.5, 0.8, 1.0]))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    if kind == "matching":
        size = draw(st.integers(20, 100)) * 2
        edges = [(v, v + 1) for v in range(0, size, 2)] + [(size, size + 1), (size + 1, size + 2)]
        n = size + 3
    elif kind in ("cycles", "disconnected"):
        size = draw(st.integers(40, 200) if kind == "cycles" else st.integers(3, 70))
        while size:  # cycles of at least three vertices each
            length = size if size < 6 or rng.random() < 0.5 else rng.randint(3, size - 3)
            edges += [(n + v, n + (v + 1) % length) for v in range(length)]
            n, size = n + length, size - length
    elif kind == "edgeless":
        n = draw(st.integers(0, 150))
    n += draw(st.integers(0, 3))  # isolated
    return n, edges


@settings(max_examples=150, deadline=None)
@given(drawn=sparsity_graphs())
def test_local_sparsity_counts_match_brute_force(drawn):
    # Both forms count every drawn graph; `local_sparsity` picks one.
    n, edges = drawn
    g = Graph.from_edges(n, edges)
    if g.max_degree() < 2:
        with pytest.raises(GraphError, match="maximum degree <= 1"):
            local_sparsity(g)
        return
    counts = naive_neighbourhood_edges(n, edges)
    report = local_sparsity(g)
    assert list(report.neighbourhood_edges) == counts
    assert report.max_degree == g.max_degree()
    assert report.delta == 1.0 - max(counts) / (g.max_degree() * (g.max_degree() - 1) // 2)
    assert graph._packed_counts(g, -(-n // 64)).tolist() == counts
    with pytest.MonkeyPatch.context() as patch:  # tiles of one word: rows cut across
        patch.setattr(graph, "AND_TILE_WORDS", 1)
        assert graph._packed_counts(g, -(-n // 64)).tolist() == counts


@pytest.mark.parametrize("n, packed", [(64, True), (128, True), (129, False), (200, False)])
def test_local_sparsity_form_follows_the_rule(monkeypatch, n, packed):
    # A cycle has 2m = 2n arcs and sum deg^2 = 4n: rows of up to two words
    # cost no more than the set intersections.
    calls = []
    rows = graph._packed_counts
    monkeypatch.setattr(graph, "_packed_counts", lambda *args: calls.append(args) or rows(*args))
    g = Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])
    assert local_sparsity(g).neighbourhood_edges == (0,) * n
    assert bool(calls) == packed


def test_local_sparsity_past_the_budget_counts_from_sets(monkeypatch):
    from sparsecolour import budget

    g = Graph.from_edges(10, [(u, v) for u in range(10) for v in range(u + 1, 10)])
    monkeypatch.setattr(budget, "MEMORY_BUDGET", 100)
    assert graph._packed_counts(g, 1) is None
    assert local_sparsity(g).neighbourhood_edges == (36,) * 10


def test_local_sparsity_of_the_pg7_strong_edge_core():
    from test_strong_edge_pipeline import projective_plane_incidence

    square, _ = line_graph_square(projective_plane_incidence(7))
    report = local_sparsity(square)
    assert report.neighbourhood_edges == tuple(naive_neighbourhood_edges(square.n, square.edges()))
    assert (square.n, report.max_degree) == (456, 112)


_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def spellings(value: int):
    """Ways a DIMACS writer might spell the id `value`."""
    return st.sampled_from([
        str(value),
        "00" + str(value),
        "0" * 20 + str(value),
        "+" + str(value),
        str(value).translate(_ARABIC_INDIC),
    ])


@st.composite
def dimacs_texts(draw):
    """A DIMACS text of distinct edges with comments, blank lines, odd
    separators, line ends and spellings between them, and at times faults:
    a self-loop, an id out of range or past int64, a repeat, a 2- or
    4-field line, a bad token, a second problem line or none at all."""
    n = draw(st.integers(0, 30))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = [(v, u) if rng.random() < 0.5 else (u, v)
             for u, v in rng.sample(pairs, draw(st.integers(0, min(len(pairs), 120))))]
    newline = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    seps = st.sampled_from([" ", " ", "\t", "  ", " \t "])
    lines = [f"c drawn text of {len(edges)} edges"] * draw(st.integers(0, 2))
    if draw(st.integers(0, 20)):
        lines.append(f"p edge {n} {len(edges)}")
    start = len(lines)
    for u, v in edges:
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["c between", "", "   ", "c"])))
        if draw(st.integers(0, 9)) == 0:
            u, v = draw(spellings(u)), draw(spellings(v))
        lines.append(f"e{draw(seps)}{u}{draw(seps)}{v}")
    some_id = st.integers(0, n + 1).map(str) | st.sampled_from([str(2**63 + 1), "9" * 30])
    faults = [
        lambda: f"e {draw(st.integers(1, max(n, 1)))} {draw(st.integers(1, max(n, 1)))}",
        lambda: "e %d %d" % draw(st.sampled_from(edges or [(1, 2)])),
        lambda: f"e {draw(some_id)} {draw(some_id)}",
        lambda: f"e {draw(some_id)}",
        lambda: f"e 1 2 {draw(some_id)}",
        lambda: "e 1 x",
        lambda: "q 1 2",
        lambda: f"p edge {n} 0",
        lambda: " \t e 1\t2 ",
        lambda: "e 1\u20282 3",  # a line break only str.splitlines sees
    ]
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2]))):
        # Mostly after the problem line, at times before it.
        low = start if draw(st.integers(0, 4)) else 0
        where = draw(st.integers(low, len(lines)))
        lines.insert(where, draw(st.sampled_from(faults))())
    text = newline.join(lines)
    return text + newline if draw(st.booleans()) else text


def _parsed(parse, text):
    try:
        return parse(text)
    except DimacsError as exc:
        return f"DimacsError: {exc}"


@settings(max_examples=300, deadline=5000)
@given(text=dimacs_texts(), chunk=st.sampled_from([1, 2, 5, 16, 64, 300, 4096]))
def test_parse_dimacs_matches_per_line_reference(text, chunk):
    # Small chunks put most faults and odd lines past the first chunk.
    want = _parsed(naive_parse_dimacs, text)
    saved = graph._LINE_CHUNK
    graph._LINE_CHUNK = chunk
    try:
        assert _parsed(parse_dimacs, text) == want
    finally:
        graph._LINE_CHUNK = saved
