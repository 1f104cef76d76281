"""Property tests: graph serialisation round trips, exact cliques and the
minimum-degree ordering.

Graphs have up to 30 vertices at a drawn edge density; some vertices are
kept isolated, and n = 0 is included.  DIMACS and JSON must give back the
same graph, `clique_info` must agree with networkx on the clique number
and the set of maximum cliques, and `min_degree_ordering` must give the
order of its rescanning reference in `harness` on any subset.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sparsecolour.cliques import clique_info  # noqa: E402
from sparsecolour.graph import (  # noqa: E402
    Graph,
    GraphError,
    from_json_dict,
    min_degree_ordering,
    parse_dimacs,
    to_dimacs,
    to_json_dict,
)
from sparsecolour.harness import naive_min_degree_ordering  # noqa: E402


@st.composite
def graphs(draw, max_n=30):
    """A random graph whose last `isolated` vertices have no edge."""
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
    return Graph.from_edges(n, edges)


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
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from(g.edges())
    maximal = [frozenset(c) for c in nx.find_cliques(ref)]
    omega = max(map(len, maximal), default=0)
    info = clique_info(g)
    assert info.omega == omega
    assert set(info.maximum_cliques) == {c for c in maximal if len(c) == omega}
    assert len(info.maximum_cliques) == len(set(info.maximum_cliques))


@settings(max_examples=80, deadline=None)
@given(g=graphs(), data=st.data())
def test_min_degree_ordering_matches_reference(g, data):
    # A subset in drawn order: often proper, sometimes all of g, sometimes empty.
    subset = data.draw(st.permutations(range(g.n)))[: data.draw(st.integers(0, g.n))]
    assert min_degree_ordering(g, subset) == naive_min_degree_ordering(g, subset)
    assert min_degree_ordering(g, range(g.n)) == naive_min_degree_ordering(g, range(g.n))


@settings(max_examples=30, deadline=None)
@given(g=graphs(), data=st.data())
def test_min_degree_ordering_refuses_duplicates(g, data):
    if g.n == 0:
        return
    v = data.draw(st.integers(0, g.n - 1))
    for ordering in (min_degree_ordering, naive_min_degree_ordering):
        with pytest.raises(GraphError, match="duplicates"):
            ordering(g, [*range(g.n), v])
