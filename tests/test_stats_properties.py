"""Property tests: the engine's statistics kernels against the naive oracles.

Random graphs carry random bijection correspondences (not only list
assignments).  The tentative colours are drawn freely, and so are the kept
sets, within what the keep rule allows: an edge whose ends' colours
correspond never keeps both ends.  So every class pattern a round can give
the kernels occurs.  The kernels run on whole instances and on the
regularised copy's ball that the colouring driver uses.  The one-sort
neighbour-pair listing gives a naive listing's pairs, common
neighbourhoods and edges inside neighbourhoods, on drawn graphs with
drawn foci and on balls, by either of its sorts; on random bijections the
statistic index is the naive one, and on identity maps it is empty and
the pairs are those of the full listing.  Monte Carlo's
moments of the common-uncoloured counts, taken from packed words, are the
sums of the per-trial counts, whatever the chunk and tile sizes.
"""

import random
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sparsecolour import graph, ncp  # noqa: E402
from sparsecolour.correspondence import (  # noqa: E402
    CorrespondenceAssignment,
    from_lists,
    uniform_lists,
)
from sparsecolour.generators import complete_graph  # noqa: E402
from sparsecolour.graph import Graph  # noqa: E402
from sparsecolour.harness import (  # noqa: E402
    _distance2_pairs,
    apply_keep_rule,
    naive_outcome_stats,
    naive_regularize_with_assignment,
    naive_statistic_index,
)
from sparsecolour.ncp import (  # noqa: E402
    KIND_COLOUR,
    KIND_DIRECTION,
    KIND_RESTART,
    KIND_TRIAL,
    RoundParams,
    _Compiled,
    _compile,
    _neighbour_pairs,
    _nuv_counts,
    _nuv_moments,
    _pack_words,
    _regularize_with_assignment,
    _round_arrays,
    _row_classes,
    _stats_arrays,
    attempt_round,
    derive_seed,
    keep_probability,
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


def _draw_round(data, g, c):
    """Free tentative colour indices on (g, c), and a free kept mask less,
    on every edge whose ends' colours correspond, the end a drawn bit names."""
    f1_idx = np.array(
        [data.draw(st.integers(0, int(k) - 1)) for k in c.sizes], dtype=np.int64
    )
    free = data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
    f1 = tuple(c.values[np.arange(g.n), f1_idx].tolist())
    direction = {(u, v): (u, v)[data.draw(st.integers(0, 1))] for u, v in g.edges()}
    kept = apply_keep_rule(g, c, f1, direction)
    return f1_idx, np.array([keep and u in kept for u, keep in enumerate(free)], dtype=bool)


def _check(comp, g, c, f1_idx, kept, ids):
    """comp's kernels on its focus against the oracles on (g, c), whose
    first comp.focus vertices are the focus; comp's vertex i is g's ids[i]."""
    focus = comp.focus
    sets = c.colour_sets
    f1 = tuple(sets[u][i] for u, i in enumerate(f1_idx.tolist()))
    kept_set = set(np.flatnonzero(kept).tolist())
    col, dist, pairs, triples = naive_outcome_stats(g, c, f1, kept_set)
    got = _stats_arrays(comp, _row_classes(comp, f1_idx[None, ids]), kept[None, ids])
    expected = (col[:focus], dist[:focus], pairs[:focus], triples[:focus])
    assert [a[0].tolist() for a in got] == [list(e) for e in expected]

    nuv = _nuv_counts(comp, kept[None, ids])[0]
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
    _check(comp, g, c, *_draw_round(data, g, c), np.arange(g.n))


@settings(max_examples=40, deadline=None)
@given(instance=instances(max_n=6), data=st.data())
def test_kernels_match_oracles_on_focused_regularised_copy(instance, data):
    """Colours and kept flags drawn on the whole naive copy and read
    through the ball's vertex ids give the copy's focus statistics: the
    kernels read nothing outside the ball, nor a kept flag at radius 2."""
    g, c = instance
    reg, _ = _regularize_with_assignment(g, c)
    ref_g, ref_c = naive_regularize_with_assignment(g, c)
    assert reg.focus == g.n and reg.n <= ref_g.n
    ids = reg.vertex_ids.astype(np.int64)
    _check(reg, ref_g, ref_c, *_draw_round(data, ref_g, ref_c), ids)


@st.composite
def uniform_instances(draw, max_n):
    """A graph on at most max_n vertices with the colours 0..k-1 at every
    vertex, so identity maps on every edge."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph.from_edges(n, [e for e, keep in zip(pairs, present) if keep])
    return g, uniform_lists(g, draw(st.integers(1, 3)))


@settings(max_examples=60, deadline=None)
@given(instance=uniform_instances(max_n=8), seeds=st.lists(st.integers(0, 2**64 - 1),
                                                          min_size=1, max_size=5))
def test_identity_classes_match_the_naive_round(instance, seeds):
    """On uniform lists the row classes skip the map; one kernel call's
    kept masks and statistics are, trial by trial, the naive keep rule on
    colours derive_seed(seed, KIND_COLOUR, u) mod k and directions
    derive_seed(seed, KIND_DIRECTION, e) & 1, and the naive statistics of
    that outcome; and the classes equal the map's gather."""
    g, c = instance
    comp = _compile(g, c)
    assert comp.identity
    f1_idx, kept, cls = _round_arrays(comp, seeds)
    gathered = comp.dir_flat.take(comp.look_base + f1_idx.take(comp.look_src, axis=1))
    assert cls.tolist() == gathered.tolist()
    col, dist, pairs, triples = _stats_arrays(comp, cls, kept)
    k = c.min_size()
    for t, s in enumerate(seeds):
        f1 = tuple(derive_seed(s, KIND_COLOUR, u) % k for u in range(g.n))
        direction = {
            (u, v): (u, v)[derive_seed(s, KIND_DIRECTION, e) & 1]
            for e, (u, v) in enumerate(zip(comp.eu.tolist(), comp.ev.tolist()))
        }
        expected = apply_keep_rule(g, c, f1, direction)
        assert f1_idx[t].tolist() == list(f1)
        assert set(np.flatnonzero(kept[t]).tolist()) == expected
        naive = naive_outcome_stats(g, c, f1, expected)
        assert [col[t].tolist(), dist[t].tolist(), pairs[t].tolist(), triples[t].tolist()] == [
            list(x) for x in naive
        ]


def _arcs_at(eu, ev, n, focus):
    """The arcs w -> x of the graph with edges eu-ev that touch 0..focus-1,
    sorted by (w, x), and its ascending edge keys."""
    keys = np.concatenate([eu * n + ev, ev * n + eu])
    keys = np.sort(keys[np.minimum(*np.divmod(keys, max(n, 1))) < focus])
    return (*np.divmod(keys, max(n, 1)), eu * n + ev)


def naive_listing(middle, end, edge_keys, n, focus):
    """The entries (i, j) from one middle in the focus whose ends are
    adjacent, and every pair x <= y < focus at distance <= 2 with its
    common neighbourhood, from loops over the arcs."""
    edges = set(edge_keys.tolist())
    common = {(x, x): [] for x in range(focus)}
    common.update({divmod(k, n): [] for k in edges if k % n < focus})
    inner = []
    arcs = list(enumerate(zip(middle.tolist(), end.tolist())))
    for i, (w, x) in arcs:
        for j, (w2, y) in arcs[i:]:
            if w2 != w:
                continue
            if i < j and w < focus and x * n + y in edges:
                inner.append((i, j))
            if y < focus:
                common.setdefault((x, y), []).append(w)
    pairs = sorted(common)
    return inner, pairs, [sorted(common[p]) for p in pairs]


def _assert_listing(middle, end, edge_keys, n, focus):
    inner, pairs, commons = naive_listing(middle, end, edge_keys, n, focus)
    for key_bits in (63, 0):  # one sort of shifted keys, or the stable sort
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ncp, "KEY_BITS", key_bits)
            listed = [_neighbour_pairs(middle, end, edge_keys, n, focus, flag)
                      for flag in (True, False)]
        (a, b), rows = listed[0]
        assert list(zip(a.tolist(), b.tolist())) == inner
        assert listed[1][0] is None
        for keys, sizes, concat, pair_of_entry in (rows, listed[1][1]):
            assert keys.tolist() == [x * n + y for x, y in pairs]
            assert sizes.tolist() == list(map(len, commons))
            assert concat.tolist() == [w for c in commons for w in c]
            assert pair_of_entry.tolist() == [p for p, c in enumerate(commons) for _ in c]


@settings(max_examples=80, deadline=None)
@given(instance=uniform_instances(max_n=12), data=st.data())
def test_neighbour_pairs_match_a_naive_listing(instance, data):
    g, _ = instance
    eu, ev = g.edge_array().T
    _assert_listing(*_arcs_at(eu, ev, g.n, data.draw(st.integers(0, g.n))), g.n, g.n)


@settings(max_examples=30, deadline=None)
@given(instance=instances(max_n=6))
def test_neighbour_pairs_match_a_naive_listing_on_the_ball(instance):
    g, c = instance
    reg, _ = _regularize_with_assignment(g, c)
    middle, end, edge_keys = _arcs_at(reg.eu, reg.ev, reg.n, reg.focus)
    _assert_listing(middle, end, edge_keys, reg.n, reg.focus)


def _index(comp, ids):
    """comp's statistic index as (in-rows, triangles), each sorted, every
    field after u read as the id of its statistic row's source."""
    members = []
    for rows in (comp.in_rows, comp.tri_rows):
        u, *fields = rows
        ends = zip(*(ids[comp.stat_src[f]].tolist() for f in fields))
        members.append(sorted((x, *sorted(y)) for x, y in zip(u.tolist(), ends)))
    return tuple(members)


@settings(max_examples=60, deadline=None)
@given(instance=instances(max_n=8), regularise=st.booleans())
def test_statistic_index_on_random_bijections(instance, regularise):
    g, c = instance
    if regularise:
        comp, _ = _regularize_with_assignment(g, c)
        g, c = naive_regularize_with_assignment(g, c)
        ids = comp.vertex_ids.astype(np.int64)
    else:
        comp, ids = _compile(g, c), np.arange(g.n)
    comp._build_stats()
    expected = naive_statistic_index(g, c, comp.focus)
    assert _index(comp, ids) == tuple(sorted(rows) for rows in expected)


@settings(max_examples=60, deadline=None)
@given(instance=uniform_instances(max_n=10), regularise=st.booleans())
def test_identity_maps_list_no_edge_inside_a_neighbourhood(instance, regularise):
    """Identity maps make every triangle consistent: the listing without
    the edges inside neighbourhoods gives the empty statistic index and
    the common-neighbour rows of the full listing."""
    g, c = instance
    build = (lambda: _regularize_with_assignment(g, c)[0]) if regularise else (lambda: _compile(g, c))
    comp, general = build(), build()
    assert comp.identity
    general.identity = False
    for each in (comp, general):
        each._build_stats()
        assert each.in_rows.shape == (3, 0) and each.tri_rows.shape == (4, 0)
    for name in ("nuv_keys", "nuv_sizes", "nuv_concat", "nuv_pair_of_entry"):
        assert getattr(comp, name).tolist() == getattr(general, name).tolist()
    assert comp.nuv_pairs == general.nuv_pairs


def _permuted(g, k, edge=None):
    """The colours 0..k-1 at every vertex of g, with identity maps written
    out edge by edge, except `edge`'s, which is reversed."""
    maps = {e: {x: k - 1 - x if e == edge else x for x in range(k)} for e in g.edges()}
    return CorrespondenceAssignment((tuple(range(k)),) * g.n, maps)


def test_identity_flag_is_false_off_identity_maps(monkeypatch):
    """Unequal set sizes (the smaller set's rows end in -1), a random
    bijection and one reversed map each clear the flag, also when the
    reversed map is the last row of the last test chunk."""
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not _compile(g, from_lists(g, [[0, 1, 2], [0, 1, 2], [0, 1], [0, 1]])).identity
    rng = random.Random(1)
    k4 = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    maps = {e: dict(zip(range(3), rng.sample(range(3), 3))) for e in k4.edges()}
    bijections = CorrespondenceAssignment(((0, 1, 2),) * 4, maps)
    assert not _compile(k4, bijections).identity
    assert _compile(k4, _permuted(k4, 3)).identity
    monkeypatch.setattr(ncp, "TEST_CHUNK_ENTRIES", 3)  # one row of three a chunk
    assert _compile(k4, _permuted(k4, 3)).identity
    assert not _compile(k4, _permuted(k4, 3, (2, 3))).identity
    assert not _compile(k4, _permuted(k4, 3, (0, 1))).identity


def _near(g, focus):
    """The vertices of g within distance 1 of its first `focus` vertices."""
    return set(range(focus)).union(*(g.neighbour_set(u) for u in range(focus)))


@pytest.mark.parametrize("trials", [1, 15, 17, 64, 65, 130])
@settings(max_examples=6, deadline=None)
@given(
    instance=instances(max_n=6),
    regularise=st.booleans(),
    seed=st.integers(0, 2**64 - 1),
)
def test_batched_slice_rows_match_single_trial_replay(trials, instance, regularise, seed):
    """Each row of one kernel call over `trials` seeds is what run_round and
    round_stats give for that seed alone; on the regularised copy's ball
    the replay runs on the naive copy and is read through the ball's vertex
    and edge ids, its kept flags within distance 1 of the focus and its
    statistics on the focus."""
    g, c = instance
    if regularise:
        comp, _ = _regularize_with_assignment(g, c)
        ref_g, ref_c = naive_regularize_with_assignment(g, c)
    else:
        comp, ref_g, ref_c = _compile(g, c), g, c
    focus = comp.focus
    vid, eid = (ids.astype(np.int64).tolist() for ids in (comp.vertex_ids, comp.edge_ids))
    near = [i for i, u in enumerate(vid) if u in _near(ref_g, focus)]
    seeds = [derive_seed(seed, KIND_TRIAL, t) for t in range(trials)]
    f1_idx, kept, cls = _round_arrays(comp, seeds)
    col, dist, pairs, triples = _stats_arrays(comp, cls, kept)
    nuv = _nuv_counts(comp, kept)
    assert f1_idx.shape == kept.shape == (trials, comp.n)
    assert col.shape == pairs.shape == (trials, focus)
    assert nuv.shape == (trials, len(comp.nuv_pairs))
    edges = list(ref_g.edges())
    sets = ref_c.colour_sets
    for t, s in enumerate(seeds):
        outcome = run_round(ref_g, ref_c, s)
        stats = round_stats(ref_g, ref_c, outcome)
        f1 = [sets[u][i] for u, i in zip(vid, f1_idx[t].tolist())]
        assert f1 == [outcome.f1[u] for u in vid]
        assert [kept[t, i] for i in near] == [vid[i] in outcome.kept for i in near]
        assert col[t].tolist() == list(stats.col[:focus])
        assert dist[t].tolist() == list(stats.dist[:focus])
        assert pairs[t].tolist() == list(stats.pairs[:focus])
        assert triples[t].tolist() == list(stats.triples[:focus])
        assert dict(zip(comp.nuv_pairs, nuv[t].tolist())) == {
            p: x for p, x in stats.common_uncoloured.items() if p[1] < focus
        }


@settings(max_examples=30, deadline=None)
@given(instance=instances(max_n=6), seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1,
                                                  max_size=5))
def test_keep_rule_reads_direction_bits_on_conflicting_edges(instance, seeds):
    """The kept masks of one kernel call on the regularised copy's ball are
    the keep rule on the ball's edges, with every colour derive_seed(seed,
    KIND_COLOUR, vertex id) mod |L| and every direction derive_seed(seed,
    KIND_DIRECTION, edge id) & 1, though the kernel hashes the direction
    bits of conflicting edges alone."""
    g, c = instance
    comp, _ = _regularize_with_assignment(g, c)
    f1_idx, kept, _ = _round_arrays(comp, seeds)
    vid, eid = (ids.tolist() for ids in (comp.vertex_ids, comp.edge_ids))
    k, rows = comp.k_arr.tolist(), comp.dir_map.tolist()
    for t, s in enumerate(seeds):
        f1 = [derive_seed(s, KIND_COLOUR, x) % size for x, size in zip(vid, k)]
        expected = [True] * comp.n
        for e, (u, v) in enumerate(zip(comp.eu.tolist(), comp.ev.tolist())):
            if rows[2 * e][f1[u]] == f1[v]:
                expected[(u, v)[derive_seed(s, KIND_DIRECTION, eid[e]) & 1]] = False
        assert f1_idx[t].tolist() == f1
        assert kept[t].tolist() == expected


@st.composite
def irregular_hosts(draw):
    """A random graph on 2 to 8 vertices, at one of three densities,
    and up to two isolated vertices, which regularises in at most 7 steps;
    lists of 2 to 4 colours from 0..5, embedded as identity maps on shared
    colours (so most maps are partial)."""
    n, isolated = draw(st.integers(2, 8)), draw(st.integers(0, 2))
    density = draw(st.sampled_from([0.3, 0.6, 0.9]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    g = Graph.from_edges(n + isolated, pairs)
    n = g.n
    assume(g.max_degree() - int(g.degrees().min()) <= 7)
    lists = draw(st.lists(st.sets(st.integers(0, 5), min_size=2, max_size=4),
                          min_size=n, max_size=n))
    return g, from_lists(g, lists)


@settings(max_examples=50, deadline=None)
@given(
    host=irregular_hosts(),
    seed=st.integers(0, 2**64 - 1),
    slack=st.floats(0.0, 3.0),
    stat_threshold=st.floats(-1.0, 3.0),
    max_restarts=st.integers(1, 12),
)
def test_attempt_on_the_ball_matches_the_whole_copy(host, seed, slack, stat_threshold,
                                                    max_restarts):
    """A whole AttemptResult, accepted or not, on the ball equals the one on
    the naive doubled copy of the cut, total assignment, focused on g; and
    every attempt it drew, replayed on both, has the same violating vertices
    and pairs and the same common-uncoloured counts, pair by pair."""
    g, c = host
    ball, total = _regularize_with_assignment(g, c)
    whole = _compile(*naive_regularize_with_assignment(g, total))
    rows = whole.dir_map.reshape(whole.m, 2, whole.kmax)
    focused = _Compiled(whole.eu, whole.ev, rows, whole.k_arr, whole.colour_values[: g.n],
                        whole.max_degree, whole.vertex_ids, whole.edge_ids)
    params = RoundParams(1.0 - keep_probability(c.min_size(), g.max_degree()), slack,
                         stat_threshold)
    got = attempt_round(ball, params, seed, max_restarts)
    assert got == attempt_round(focused, params, seed, max_restarts)
    drawn = got.restarts + 1 if got.ok else max_restarts
    seeds = [derive_seed(seed, KIND_RESTART, a) for a in range(drawn)]
    replayed = _attempt_violations(ball, params, seeds)
    assert replayed == _attempt_violations(focused, params, seeds)
    _, stat_bad, quasi_bad, _ = replayed
    totals = [len(s) + len(q) for s, q in zip(stat_bad, quasi_bad)]
    chosen = totals.index(min(totals))  # the first attempt of the fewest violations
    accepted = totals[chosen] == 0
    assert (got.ok, got.restarts) == (accepted, chosen if accepted else max_restarts)
    assert (got.stat_violations, got.quasirandom_violations) == (
        len(stat_bad[chosen]), len(quasi_bad[chosen]))


@settings(max_examples=50, deadline=None)
@given(
    host=irregular_hosts(),
    seed=st.integers(0, 2**64 - 1),
    mu=st.floats(-1.0, 2.0),
    side=st.sampled_from([-1, 0, 1]),
    stat_threshold=st.floats(-1.0, 3.0),
    max_restarts=st.integers(1, 12),
)
def test_attempt_counts_only_where_a_pair_can_fail(host, seed, mu, side, stat_threshold,
                                                   max_restarts):
    """With the slack at, just below or just above the largest deviation
    any count could give (at count 0 or |C_p|), the AttemptResult is what
    every drawn attempt's unguarded counts give; the counts are made only
    when the slack is below that deviation."""
    g, c = host
    ball, _ = _regularize_with_assignment(g, c)
    ball._build_nuv()
    sizes = ball.nuv_sizes.astype(np.float64)
    bound = float(np.maximum(np.abs(mu * sizes), np.abs(sizes - mu * sizes)).max())
    slack = float(np.nextafter(bound, bound + side)) if side else bound
    params = RoundParams(mu, slack, stat_threshold)
    with mock.patch.object(ncp, "_nuv_counts", wraps=ncp._nuv_counts) as counts:
        got = attempt_round(ball, params, seed, max_restarts)
    assert (counts.call_count > 0) == (side < 0)
    drawn = got.restarts + 1 if got.ok else max_restarts
    seeds = [derive_seed(seed, KIND_RESTART, a) for a in range(drawn)]
    _, stat_bad, quasi_bad, _ = _attempt_violations(ball, params, seeds)
    if side >= 0:
        assert not any(quasi_bad)
    totals = [len(s) + len(q) for s, q in zip(stat_bad, quasi_bad)]
    chosen = totals.index(min(totals))
    accepted = totals[chosen] == 0
    assert (got.ok, got.restarts) == (accepted, chosen if accepted else max_restarts)
    assert (got.stat_violations, got.quasirandom_violations) == (
        len(stat_bad[chosen]), len(quasi_bad[chosen]))


def _attempt_violations(comp, params, seeds):
    """The pairs of comp's focus at distance <= 2 and, per attempt seed, its
    violating focus vertices, its violating pairs and its common-uncoloured
    count of every pair."""
    f1_idx, kept, cls = _round_arrays(comp, seeds)
    _, _, pairs, triples = _stats_arrays(comp, cls, kept)
    nuv = _nuv_counts(comp, kept)
    stat_bad = ((pairs - triples) < params.stat_threshold) & ~kept[:, : comp.focus]
    quasi_bad = np.abs(nuv - params.mu * comp.nuv_sizes) > params.slack
    return (
        comp.nuv_pairs,
        [np.flatnonzero(row).tolist() for row in stat_bad],
        [[comp.nuv_pairs[i] for i in np.flatnonzero(row).tolist()] for row in quasi_bad],
        nuv.tolist(),
    )


@settings(max_examples=40, deadline=None)
@given(
    instance=instances(max_n=7),
    uniform=st.booleans(),
    trials=st.integers(1, 300),
    chunk=st.integers(1, 40),
    tile=st.integers(1, 40),
    seed=st.integers(0, 2**64 - 1),
)
# Five blocks against one tile word: every tile is one row of every block.
@example(
    instance=(complete_graph(6), uniform_lists(complete_graph(6), 2)),
    uniform=False,
    trials=300,
    chunk=1,
    tile=1,
    seed=0,
)
def test_moments_from_words_are_sums_of_per_trial_counts(
    instance, uniform, trials, chunk, tile, seed
):
    """`_nuv_moments` on the words of `trials` rounds, packed 64 trials a
    block as Monte Carlo packs them, gives the sum and the sum of squares
    of `_nuv_counts` over the same rounds, exactly."""
    g, c = instance
    if uniform:
        c = uniform_lists(g, int(c.sizes[0]))
    comp = _compile(g, c)
    _, kept, _ = _round_arrays(comp, ncp._derived_seeds(seed, KIND_TRIAL, 0, trials))
    words = np.stack([_pack_words(~kept[lo : lo + 64]) for lo in range(0, trials, 64)], axis=1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ncp, "CROSS_CHUNK_ROWS", chunk)
        patch.setattr(graph, "AND_TILE_WORDS", tile)
        total, square = _nuv_moments(comp, words)
    counts = _nuv_counts(comp, kept)
    assert total.tolist() == counts.sum(axis=0).tolist()
    assert square.tolist() == (counts * counts).sum(axis=0).tolist()
