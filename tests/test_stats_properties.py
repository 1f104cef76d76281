"""Property tests: the engine's statistics kernels against the naive oracles.

Random graphs carry random bijection correspondences (not only list
assignments), and the tentative colours and kept sets are drawn freely, so
every class pattern the kernels index can occur.  The kernels run on whole
instances and on the focused regularised copy the colouring driver uses.
"""

import random

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sparsecolour.correspondence import CorrespondenceAssignment  # noqa: E402
from sparsecolour.graph import Graph  # noqa: E402
from sparsecolour.harness import (  # noqa: E402
    _distance2_pairs,
    naive_outcome_stats,
    naive_regularize_with_assignment,
)
from sparsecolour.ncp import (  # noqa: E402
    KIND_TRIAL,
    _compile,
    _nuv_counts,
    _regularize_with_assignment,
    _round_arrays,
    _row_classes,
    _stats_arrays,
    derive_seed,
    round_stats,
    run_round,
)


@st.composite
def instances(draw, max_n):
    """A graph on at most max_n vertices with k colours per vertex drawn
    from 0..2k-1 and a random bijection on every edge."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph.from_edges(n, [e for e, keep in zip(pairs, present) if keep])
    k = draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    sets = tuple(tuple(sorted(rng.sample(range(2 * k), k))) for _ in range(n))
    maps = {}
    for u, v in g.edges():
        image = list(sets[v])
        rng.shuffle(image)
        maps[(u, v)] = dict(zip(sets[u], image))
    return g, CorrespondenceAssignment(sets, maps)


def _draw_round(data, comp):
    """Free tentative colour indices and a free kept mask for comp."""
    f1_idx = np.array(
        [data.draw(st.integers(0, int(k) - 1)) for k in comp.k_arr], dtype=np.int64
    )
    kept = np.array(
        data.draw(st.lists(st.booleans(), min_size=comp.n, max_size=comp.n)),
        dtype=bool,
    )
    return f1_idx, kept


def _check(comp, g, c, f1_idx, kept):
    """comp's kernels on its focus against the oracles on (g, c), whose
    first comp.focus vertices are the focus."""
    focus = comp.focus
    sets = c.colour_sets
    f1 = tuple(sets[u][i] for u, i in enumerate(f1_idx.tolist()))
    kept_set = set(np.flatnonzero(kept).tolist())
    col, dist, pairs, triples = naive_outcome_stats(g, c, f1, kept_set)
    got = _stats_arrays(comp, _row_classes(comp, f1_idx[None]), kept[None])
    expected = (col[:focus], dist[:focus], pairs[:focus], triples[:focus])
    assert [a[0].tolist() for a in got] == [list(e) for e in expected]

    nuv = _nuv_counts(comp, kept[None])[0]
    direct = {
        (u, v): len((g.neighbour_set(u) & g.neighbour_set(v)) - kept_set)
        for u, v in _distance2_pairs(g)
        if v < focus
    }
    assert dict(zip(comp.nuv_pairs, nuv.tolist())) == direct
    assert len(comp.nuv_pairs) == len(direct)


@settings(max_examples=60, deadline=None)
@given(instance=instances(max_n=8), data=st.data())
def test_kernels_match_oracles_on_whole_instance(instance, data):
    g, c = instance
    comp = _compile(g, c)
    _check(comp, g, c, *_draw_round(data, comp))


@settings(max_examples=40, deadline=None)
@given(instance=instances(max_n=6), data=st.data())
def test_kernels_match_oracles_on_focused_regularised_copy(instance, data):
    g, c = instance
    reg, _ = _regularize_with_assignment(g, c)
    ref_g, ref_c = naive_regularize_with_assignment(g, c)
    assert (reg.n, reg.focus) == (ref_g.n, g.n)
    _check(reg, ref_g, ref_c, *_draw_round(data, reg))


@pytest.mark.parametrize("trials", [1, 15, 17, 64, 65, 130])
@settings(max_examples=6, deadline=None)
@given(
    instance=instances(max_n=6),
    regularise=st.booleans(),
    seed=st.integers(0, 2**64 - 1),
)
def test_batched_slice_rows_match_single_trial_replay(trials, instance, regularise, seed):
    """Each row of one kernel call over `trials` seeds is what run_round and
    round_stats give for that seed alone; on the regularised copy the
    replay runs on the naive copy and is cut to the focus."""
    g, c = instance
    if regularise:
        comp, _ = _regularize_with_assignment(g, c)
        ref_g, ref_c = naive_regularize_with_assignment(g, c)
    else:
        comp, ref_g, ref_c = _compile(g, c), g, c
    focus = comp.focus
    seeds = [derive_seed(seed, KIND_TRIAL, t) for t in range(trials)]
    f1_idx, dirs, kept, cls = _round_arrays(comp, seeds)
    col, dist, pairs, triples = _stats_arrays(comp, cls, kept)
    nuv = _nuv_counts(comp, kept)
    assert f1_idx.shape == kept.shape == (trials, comp.n)
    assert dirs.shape == (trials, comp.m)
    assert col.shape == pairs.shape == (trials, focus)
    assert nuv.shape == (trials, len(comp.nuv_pairs))
    edges = list(ref_g.edges())
    sets = ref_c.colour_sets
    for t, s in enumerate(seeds):
        outcome = run_round(ref_g, ref_c, s)
        stats = round_stats(ref_g, ref_c, outcome)
        f1 = [sets[u][i] for u, i in enumerate(f1_idx[t].tolist())]
        assert f1 == list(outcome.f1)
        assert {(u, v): (u, v)[d] for (u, v), d in zip(edges, dirs[t].tolist())} == (
            outcome.direction
        )
        assert set(np.flatnonzero(kept[t]).tolist()) == outcome.kept
        assert col[t].tolist() == list(stats.col[:focus])
        assert dist[t].tolist() == list(stats.dist[:focus])
        assert pairs[t].tolist() == list(stats.pairs[:focus])
        assert triples[t].tolist() == list(stats.triples[:focus])
        assert dict(zip(comp.nuv_pairs, nuv[t].tolist())) == {
            p: x for p, x in stats.common_uncoloured.items() if p[1] < focus
        }
