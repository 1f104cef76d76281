"""Property tests: the array-backed assignment operations against the dict
oracles in harness.

Instances are small graphs with random lists (through `from_lists`) or with
random partial bijections, some edges carrying no map at all; partial
colourings are drawn valid.  Results must agree with the oracles in colour
sets, edge maps and residual vertices, and the compiled direction map with
one filled entry by entry from the dict maps.
"""

import random
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sparsecolour import correspondence  # noqa: E402
from sparsecolour.correspondence import (  # noqa: E402
    CorrespondenceAssignment,
    from_lists,
    is_total,
    is_valid_colouring,
    residual_assignment,
    totalize,
    truncate,
    uniform_lists,
)
from sparsecolour.graph import Graph  # noqa: E402
from sparsecolour.harness import (  # noqa: E402
    naive_dir_map,
    naive_is_valid_colouring,
    naive_residual_assignment,
    naive_totalize,
    naive_truncate,
)
from sparsecolour.ncp import _compile  # noqa: E402


@st.composite
def graphs(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, keep in zip(pairs, present) if keep])


@st.composite
def list_instances(draw):
    """A graph with random lists from 0..5 embedded by from_lists."""
    g = draw(graphs())
    lists = [
        draw(st.lists(st.integers(0, 5), min_size=1, max_size=4)) for _ in range(g.n)
    ]
    return g, lists


@st.composite
def bijection_instances(draw):
    """A graph whose sets are drawn from 0..7 and whose edges carry random
    partial injective maps; an edge may carry no map at all."""
    g = draw(graphs())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    k = rng.randint(1, 4)
    sets = tuple(tuple(sorted(rng.sample(range(8), rng.randint(1, k)))) for _ in range(g.n))
    maps = {}
    for u, v in g.edges():
        if rng.random() < 0.2:
            continue
        size = rng.randint(0, min(len(sets[u]), len(sets[v])))
        maps[(u, v)] = dict(zip(rng.sample(sets[u], size), rng.sample(sets[v], size)))
    return g, CorrespondenceAssignment(sets, maps)


def _valid_partial(g, c, rng):
    """A valid partial colouring: vertices in random order take a random
    colour of their set when it keeps the colouring valid."""
    f = {}
    sets = c.colour_sets
    for v in rng.sample(range(g.n), g.n):
        if rng.random() < 0.6:
            trial = {**f, v: rng.choice(sets[v])}
            if naive_is_valid_colouring(g, c, trial):
                f = trial
    return f


def _same(a, b):
    """a, built by the array operations, equals the oracle's b, and holds its
    sets as one read-only int64 array padded with -1."""
    width = int(a.sizes.max(initial=0))
    assert a.values.shape == (len(a.sizes), width) == (len(a.sizes), a.fwd.shape[1])
    assert a.values.dtype == np.int64 and not a.values.flags.writeable
    assert (a.values[np.arange(width) >= a.sizes[:, None]] == -1).all()
    assert a.colour_sets == b.colour_sets
    assert dict(a.edge_maps) == dict(b.edge_maps)
    assert a == b


@settings(max_examples=80, deadline=None)
@given(instance=list_instances())
def test_from_lists_gives_identity_on_shared_colours(instance):
    g, lists = instance
    c = from_lists(g, lists)
    sets = tuple(tuple(sorted(set(l))) for l in lists)
    maps = {
        (u, v): {col: col for col in sorted(set(sets[u]) & set(sets[v]))}
        for u, v in g.edges()
    }
    _same(c, CorrespondenceAssignment(sets, maps))
    # Equal lists, as uniform lists, share one row.
    assert (c.values.strides[0] == 0) == (len(set(sets)) == 1)
    assert uniform_lists(g, len(sets[0])).values.strides[0] == 0


@settings(max_examples=80, deadline=None)
@given(instance=bijection_instances(), data=st.data())
def test_truncate_matches_oracle(instance, data):
    _, c = instance
    k = data.draw(st.integers(0, c.min_size()))
    _same(truncate(c, k), naive_truncate(c, k))


@settings(max_examples=80, deadline=None)
@given(instance=st.one_of(bijection_instances(), list_instances()))
def test_totalize_after_truncate_matches_oracle(instance):
    g, c = instance
    if isinstance(c, list):
        c = from_lists(g, c)
    cut = truncate(c, c.min_size())
    total = totalize(g, cut)
    _same(total, naive_totalize(g, naive_truncate(c, c.min_size())))
    assert is_total(g, total)
    sets = cut.colour_sets
    bijective = [
        len(cut.map_between(u, v)) == len(sets[u]) == len(sets[v])
        for u, v in g.edges()
    ]
    assert is_total(g, cut) == all(bijective)


# Check chunks of 1 to 3 entries are narrower than most sets, so they
# compare one row at a time, and 2^16 entries take every row in one chunk.
@settings(max_examples=150, deadline=None)
@given(instance=bijection_instances(), data=st.data(),
       chunk=st.sampled_from([1, 2, 3, 1 << 16]))
def test_validity_matches_oracle(instance, data, chunk):
    g, c = instance
    sets = c.colour_sets
    f = {
        v: data.draw(st.sampled_from(sets[v]))
        for v in data.draw(st.lists(st.integers(0, g.n - 1), unique=True))
    }
    v = data.draw(st.integers(0, g.n - 1))
    outside = {**f, v: data.draw(st.integers(-1, 8))}
    with mock.patch.object(correspondence, "_CHECK_ENTRIES", chunk):
        assert is_valid_colouring(g, c, f) == naive_is_valid_colouring(g, c, f)
        assert is_valid_colouring(g, c, outside) == naive_is_valid_colouring(g, c, outside)


@settings(max_examples=80, deadline=None)
@given(instance=bijection_instances())
def test_correspondent_matches_the_map(instance):
    g, c = instance
    sets = c.colour_sets
    for u in range(g.n):
        for v in range(g.n):
            mp = c.map_between(u, v)
            for colour in (*sets[u], -1, 8):
                assert c.correspondent(u, v, colour) == mp.get(colour)


@settings(max_examples=100, deadline=None)
@given(
    instance=st.one_of(bijection_instances(), list_instances()),
    total=st.booleans(),
    seed=st.integers(0, 2**32),
)
def test_residual_matches_oracle(instance, total, seed):
    """On the maps as drawn, and totalized as iterative_colour uses them."""
    g, c = instance
    if isinstance(c, list):
        c = from_lists(g, c)
    if total:
        c = totalize(g, truncate(c, c.min_size()))
    f = _valid_partial(g, c, random.Random(seed))
    got, want = residual_assignment(g, c, f), naive_residual_assignment(g, c, f)
    assert got.vertices == want.vertices
    assert got.graph == want.graph
    _same(got.assignment, want.assignment)


@settings(max_examples=60, deadline=None)
@given(instance=bijection_instances())
def test_compiled_dir_map_matches_dict_fill(instance):
    g, c = instance
    total = totalize(g, truncate(c, c.min_size()))
    np.testing.assert_array_equal(_compile(g, total).dir_map, naive_dir_map(g, total))
