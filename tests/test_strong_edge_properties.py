"""Property tests: the strong-edge validator against its per-edge reference.

`strong_edge._validate_strong_colouring` checks a colouring on arrays from
the host adjacency; `harness.naive_strong_colouring_valid` compares every
host edge with each edge of its strong neighbourhood.  On drawn hosts they
must agree on the pipeline's colouring, on it with one edge recoloured as
another, and on either after a drawn map of the colours, which may merge
colours or send them below zero or to 2^62 and past int64.

`f_core` must equal the union of every vertex set whose induced minimum
degree reaches the threshold, found by brute force over the subsets of
drawn graphs, edgeless and disconnected ones included, at thresholds that
are ints or Fractions, 0, and above the maximum degree.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sparsecolour.harness import naive_strong_colouring_valid  # noqa: E402
from sparsecolour.strong_edge import (  # noqa: E402
    _validate_strong_colouring,
    f_core,
    strong_edge_colour,
)

from test_graph_properties import graphs  # noqa: E402

# Colour maps: injective ones keep a strong colouring strong, c // 2 merges.
COLOUR_MAPS = {
    "same": lambda c: c,
    "negative": lambda c: -c - 1,
    "2^62": lambda c: 2**62 + c,
    "past int64": lambda c: c * 2**62,
    "mixed sign": lambda c: c if c % 2 else -(2**64) - c,
    "merged": lambda c: c // 2,
}


@settings(max_examples=150, deadline=5000)
@given(h=graphs(max_n=14).filter(lambda g: g.m > 0), data=st.data())
def test_validator_matches_per_edge_reference(h, data):
    report = strong_edge_colour(h)
    colours = dict(report.colours)
    if data.draw(st.booleans()):  # one clash, or none if i and j are far apart
        i, j = data.draw(st.integers(0, h.m - 1)), data.draw(st.integers(0, h.m - 1))
        colours[i] = colours[j]
    recolour = COLOUR_MAPS[data.draw(st.sampled_from(sorted(COLOUR_MAPS)))]
    colours = {i: recolour(c) for i, c in colours.items()}
    want = naive_strong_colouring_valid(h, report.edge_index, colours)
    assert _validate_strong_colouring(h, report.edge_index, colours) is want


def _union_of_dense_sets(g, threshold):
    """The union of every vertex set S with each member's degree inside S
    at least `threshold`, over all 2^n sets."""
    inside = [sum(1 << w for w in g.neighbours(v)) for v in range(g.n)]
    union = 0
    for s in range(1, 1 << g.n):
        members = [v for v in range(g.n) if s >> v & 1]
        if all((inside[v] & s).bit_count() >= threshold for v in members):
            union |= s
    return frozenset(v for v in range(g.n) if union >> v & 1)


@settings(max_examples=150, deadline=None)
@given(g=graphs(max_n=10), data=st.data())
def test_f_core_is_the_union_of_every_dense_set(g, data):
    top = g.max_degree() + 2  # up to two past the maximum degree
    threshold = data.draw(
        st.one_of(
            st.just(0),
            st.integers(0, top),
            st.fractions(min_value=0, max_value=top, max_denominator=7),
            st.integers(g.max_degree() + 1, top),
        )
    )
    assert f_core(g, threshold) == _union_of_dense_sets(g, threshold)
