"""Correspondence assignments: construction, totalisation, residuals."""

import itertools
import random

import numpy as np
import pytest

from sparsecolour.correspondence import (
    AssignmentError,
    CorrespondenceAssignment,
    from_lists,
    is_total,
    is_valid_colouring,
    residual_assignment,
    totalize,
    truncate,
    uniform_lists,
    validate_assignment,
)
from sparsecolour.generators import (
    complete_graph,
    cycle_graph,
    empty_graph,
    gnp_graph,
    path_graph,
)


def all_total_colourings(c):
    return itertools.product(*c.colour_sets)


def enumerate_valid(g, c):
    return [
        f1
        for f1 in all_total_colourings(c)
        if is_valid_colouring(g, c, dict(enumerate(f1)))
    ]


def random_bijection_assignment(g, k, seed):
    rng = random.Random(seed)
    sets = tuple(tuple(range(k)) for _ in range(g.n))
    maps = {}
    for u, v in g.edges():
        perm = list(range(k))
        rng.shuffle(perm)
        maps[(u, v)] = {i: perm[i] for i in range(k)}
    return CorrespondenceAssignment(sets, maps)


class TestFromLists:
    def test_identity_on_shared_colours(self):
        g = complete_graph(2)
        c = from_lists(g, [{1, 2}, {1, 2}])
        assert c.edge_maps[(0, 1)] == {1: 1, 2: 2}
        assert is_valid_colouring(g, c, {0: 1, 1: 2})
        assert not is_valid_colouring(g, c, {0: 1, 1: 1})

    def test_disjoint_lists_give_empty_map(self):
        g = complete_graph(2)
        c = from_lists(g, [{1}, {2}])
        assert c.edge_maps[(0, 1)] == {}
        assert is_valid_colouring(g, c, {0: 1, 1: 2})

    def test_refuses_wrong_list_count(self):
        with pytest.raises(AssignmentError, match="need one colour list per vertex"):
            from_lists(path_graph(3), [{0}, {0}])

    def test_triangle_with_two_colours_not_colourable(self):
        g = complete_graph(3)
        c = from_lists(g, [{1, 2}] * 3)
        assert enumerate_valid(g, c) == []

    def test_empty_list_rejected(self):
        with pytest.raises(AssignmentError):
            from_lists(complete_graph(2), [{1}, set()])

    @pytest.mark.parametrize("seed", range(12))
    def test_round_trip_with_proper_list_colouring(self, seed):
        # validity under the embedded assignment <=> proper list colouring
        rng = random.Random(seed)
        n = rng.randint(2, 4)
        g = gnp_graph(n, 0.6, seed=seed)
        lists = [
            set(rng.sample(range(5), rng.randint(1, 3))) for _ in range(n)
        ]
        c = from_lists(g, lists)
        for f1 in itertools.product(*[sorted(l) for l in lists]):
            f = dict(enumerate(f1))
            proper = all(f[u] != f[v] for u, v in g.edges())
            assert is_valid_colouring(g, c, f) == proper


class TestTotalize:
    def test_completes_partial_map(self):
        g = complete_graph(2)
        c = CorrespondenceAssignment(((1, 2), (1, 2)), {(0, 1): {1: 2}})
        t = totalize(g, c)
        assert t.edge_maps[(0, 1)] == {1: 2, 2: 1}

    def test_empty_map_pairs_ascending(self):
        g = complete_graph(2)
        c = CorrespondenceAssignment(((1, 2), (1, 2)), {(0, 1): {}})
        t = totalize(g, c)
        assert t.edge_maps[(0, 1)] == {1: 1, 2: 2}

    def test_validity_implication_on_triangle(self):
        g = complete_graph(3)
        c = CorrespondenceAssignment(
            ((0, 1, 2),) * 3,
            {(0, 1): {0: 1}, (0, 2): {2: 2}, (1, 2): {1: 0, 2: 1}},
        )
        t = totalize(g, c)
        assert is_total(g, t)
        validate_assignment(g, t)
        for f1 in all_total_colourings(c):
            f = dict(enumerate(f1))
            if is_valid_colouring(g, t, f):
                assert is_valid_colouring(g, c, f)

    def test_unequal_sizes_rejected(self):
        g = complete_graph(2)
        c = CorrespondenceAssignment(((1, 2), (1, 2, 3)), {(0, 1): {}})
        with pytest.raises(AssignmentError):
            totalize(g, c)

    def test_idempotent_on_total_assignments(self):
        g = cycle_graph(4)
        c = totalize(g, uniform_lists(g, 3))
        again = totalize(g, c)
        assert again.edge_maps == c.edge_maps
        assert again.colour_sets == c.colour_sets


class TestTruncate:
    def test_keeps_smallest(self):
        g = complete_graph(2)
        c = from_lists(g, [{1, 2, 3}, {1, 2, 3}])
        t = truncate(c, 2)
        assert t.colour_sets == ((1, 2), (1, 2))

    def test_only_larger_sets_shrink(self):
        g = complete_graph(2)
        c = from_lists(g, [{1, 2}, {1, 2, 3}])
        t = truncate(c, 2)
        assert t.colour_sets == ((1, 2), (1, 2))

    def test_undersized_rejected(self):
        c = from_lists(complete_graph(2), [{1}, {1, 2}])
        with pytest.raises(AssignmentError):
            truncate(c, 2)

    def test_validity_monotone_under_truncation(self):
        g = complete_graph(2)
        c = from_lists(g, [{1, 2, 3}, {1, 2, 3}])
        t = truncate(c, 2)
        for f1 in all_total_colourings(t):
            f = dict(enumerate(f1))
            if is_valid_colouring(g, t, f):
                assert is_valid_colouring(g, c, f)


class TestIsValidColouring:
    def test_empty_colouring_valid(self):
        g = complete_graph(2)
        c = uniform_lists(g, 2)
        assert is_valid_colouring(g, c, {})

    def test_identity_map_equal_colours_invalid(self):
        g = complete_graph(2)
        c = from_lists(g, [{1, 2}, {1, 2}])
        assert not is_valid_colouring(g, c, {0: 1, 1: 1})

    def test_conflict_is_correspondence_not_equality(self):
        g = complete_graph(2)
        c = CorrespondenceAssignment(((1, 2), (1, 2)), {(0, 1): {1: 2, 2: 1}})
        assert not is_valid_colouring(g, c, {0: 1, 1: 2})
        assert is_valid_colouring(g, c, {0: 1, 1: 1})

    def test_orientation_independence(self):
        # matched colours agree regardless of which endpoint asks
        g = path_graph(3)
        c = random_bijection_assignment(g, 3, seed=9)
        sets = c.colour_sets
        for u, v in g.edges():
            for cu in sets[u]:
                for cv in sets[v]:
                    matched = c.correspondent(u, v, cu) == cv
                    assert matched == (c.correspondent(v, u, cv) == cu)

    @pytest.mark.parametrize("seed", range(6))
    def test_inversion_consistency(self, seed):
        g = gnp_graph(6, 0.6, seed=seed)
        c = random_bijection_assignment(g, 3, seed=seed)
        for (u, v), mp in c.edge_maps.items():
            back = c.map_between(v, u)
            for c1, c2 in mp.items():
                assert back[c2] == c1


class TestResidualAssignment:
    def test_all_coloured_gives_empty_instance(self):
        g = complete_graph(2)
        c = from_lists(g, [{1, 2}, {1, 2}])
        res = residual_assignment(g, c, {0: 1, 1: 2})
        assert res.graph.n == 0
        assert res.vertices == ()

    def test_single_colour_removed(self):
        g = complete_graph(2)
        c = from_lists(g, [{1, 2}, {1, 2}])
        res = residual_assignment(g, c, {0: 1})
        assert res.vertices == (1,)
        assert res.assignment.colour_sets == ((2,),)

    def test_path_middle_coloured(self):
        g = path_graph(3)
        c = uniform_lists(g, 2)
        res = residual_assignment(g, c, {1: 0})
        assert res.vertices == (0, 2)
        assert res.assignment.colour_sets == ((1,), (1,))
        # extension property by full enumeration of residual colourings
        for f1 in all_total_colourings(res.assignment):
            phi = {res.vertices[i]: col for i, col in enumerate(f1)}
            if is_valid_colouring(res.graph, res.assignment, dict(enumerate(f1))):
                assert is_valid_colouring(g, c, {**phi, 1: 0})

    def test_invalid_partial_rejected(self):
        g = complete_graph(2)
        c = from_lists(g, [{1}, {1}])
        with pytest.raises(AssignmentError):
            residual_assignment(g, c, {0: 1, 1: 1})

    @pytest.mark.parametrize("seed", range(15))
    def test_extension_property_exhaustive_small(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        g = gnp_graph(n, 0.6, seed=seed)
        k = rng.randint(1, 3)
        c = (
            uniform_lists(g, k)
            if seed % 2
            else totalize(g, random_bijection_assignment(g, k, seed))
        )
        # pick a valid partial colouring by throwing darts
        f = {}
        sets = c.colour_sets
        for v in range(n):
            if rng.random() < 0.5:
                col = rng.choice(sets[v])
                trial = {**f, v: col}
                if is_valid_colouring(g, c, trial):
                    f = trial
        res = residual_assignment(g, c, f)
        for f1 in itertools.product(*res.assignment.colour_sets):
            sub_col = dict(enumerate(f1))
            if is_valid_colouring(res.graph, res.assignment, sub_col):
                merged = dict(f)
                merged.update(
                    {res.vertices[i]: col for i, col in sub_col.items()}
                )
                assert is_valid_colouring(g, c, merged)


_SETS = ((0, 1), (0, 1, 2))


class TestMalformedRefused:
    """Maps the array form cannot hold are refused at construction, in one
    error naming the vertex or edge."""

    @pytest.mark.parametrize(
        "sets, maps, message",
        [
            (_SETS, {(0, 1): {5: 0}}, r"edge map \(0,1\) uses colours outside"),
            (_SETS, {(0, 1): {0: 7}}, r"edge map \(0,1\) uses colours outside"),
            (_SETS, {(0, 1): {0: 2, 1: 2}}, r"edge map \(0,1\) not injective"),
            (_SETS, {(1, 0): {0: 0}}, r"edge map key \(1,0\) not canonical"),
            (_SETS, {(0, 2): {0: 0}}, r"edge map key \(0,2\) not canonical"),
            (((1, 0), (0, 1, 2)), {(0, 1): {}}, r"colour set of 0 not sorted/unique"),
            (((0, 1), (0, 1, 1)), {(0, 1): {}}, r"colour set of 1 not sorted/unique"),
        ],
        ids=["outside-u", "outside-v", "not-injective", "reversed-key",
             "key-past-last-vertex", "unsorted-set", "repeated-colour"],
    )
    def test_refused(self, sets, maps, message):
        with pytest.raises(AssignmentError, match=message):
            CorrespondenceAssignment(sets, maps)

    def test_graph_checks_stay_in_validate(self):
        g = path_graph(3)
        c = CorrespondenceAssignment(((0,), (0,), (0,)), {(0, 2): {0: 0}})
        with pytest.raises(AssignmentError, match=r"non-edge \(0,2\)"):
            validate_assignment(g, c)
        with pytest.raises(AssignmentError, match="count"):
            validate_assignment(path_graph(2), c)
        negative = CorrespondenceAssignment(((0,), (-1, 0), (0,)), {})
        with pytest.raises(AssignmentError, match="negative colour at vertex 1"):
            validate_assignment(g, negative)


class TestSizeCap:
    def test_refused_before_allocating(self, monkeypatch):
        from sparsecolour import correspondence

        g = complete_graph(4)  # 6 edges
        monkeypatch.setattr(correspondence, "ASSIGNMENT_ENTRIES_CAP", 59)
        with pytest.raises(AssignmentError, match="would have 60 map entries"):
            uniform_lists(g, 5)
        with pytest.raises(AssignmentError, match="above the cap of 59 entries"):
            from_lists(g, [range(5), range(5), range(5), range(1, 6)])
        assert uniform_lists(g, 4).fwd.shape == (6, 4)

    def test_uniform_lists_refused_before_any_colour_set(self, monkeypatch):
        from sparsecolour import correspondence

        def no_sets(*args):
            raise AssertionError("the size checks must come before the colour sets")

        monkeypatch.setattr(correspondence, "_shared", no_sets)
        monkeypatch.setattr(correspondence, "ASSIGNMENT_ENTRIES_CAP", 59)
        # 2mk = 60 map entries; path_graph(3) has more map (80) than colour
        # (60) entries past the cap, and the map count is the one named.
        for g, k in [(complete_graph(4), 5), (path_graph(3), 20)]:
            with pytest.raises(AssignmentError) as err:
                uniform_lists(g, k)
            assert str(err.value) == (
                f"assignment would have {2 * g.m * k} map entries (about 0 MiB "
                "stored and compiled), above the cap of 59 entries"
            )
        # nk = 60 colour entries and no edge; at 2^20 entries the figure
        # counts 8 bytes an entry.
        with pytest.raises(AssignmentError) as err:
            uniform_lists(empty_graph(4), 15)
        assert str(err.value) == (
            "assignment would have 60 colour entries (about 0 MiB), above the "
            "cap of 59 entries"
        )
        with pytest.raises(AssignmentError) as err:
            uniform_lists(empty_graph(4), 2**18)
        assert "1048576 colour entries (about 8 MiB)" in str(err.value)

    def test_uniform_lists_at_the_cap_builds(self, monkeypatch):
        from sparsecolour import correspondence

        monkeypatch.setattr(correspondence, "ASSIGNMENT_ENTRIES_CAP", 60)
        assert uniform_lists(complete_graph(4), 5).fwd.shape == (6, 5)
        assert uniform_lists(empty_graph(4), 15).sizes.tolist() == [15] * 4

    def test_compact_index_type(self):
        g = path_graph(2)
        assert uniform_lists(g, 3).fwd.dtype == np.int16


class TestEdgeMapsView:
    def test_read_only_dicts_equal_to_the_maps(self):
        g = path_graph(3)
        c = CorrespondenceAssignment(((1, 2), (1, 2), (3,)), {(0, 1): {1: 2}, (1, 2): {}})
        assert c.edge_maps == {(0, 1): {1: 2}, (1, 2): {}}
        with pytest.raises(TypeError):
            c.edge_maps[(0, 2)] = {}
        assert c.map_between(1, 0) == {2: 1}
        assert c.correspondent(1, 0, 2) == 1 and c.correspondent(1, 0, 1) is None
        assert (1, 2) in c.edge_maps and (0, 2) not in c.edge_maps
        assert totalize(g, truncate(c, 1)).edge_maps == {(0, 1): {1: 1}, (1, 2): {1: 3}}

    def test_equality_compares_maps(self):
        a = CorrespondenceAssignment(((0, 1), (0, 1)), {(0, 1): {0: 1}})
        assert a == CorrespondenceAssignment([[0, 1], [0, 1]], {(0, 1): {0: 1}})
        assert a != CorrespondenceAssignment(((0, 1), (0, 1)), {(0, 1): {1: 0}})
        assert a != CorrespondenceAssignment(((0, 1), (0, 1)), {})
        assert a != CorrespondenceAssignment(((0, 1), (0, 2)), {(0, 1): {0: 2}})
