"""Correspondence assignments: construction, totalisation, residuals."""

import itertools
import random

import numpy as np
import pytest

from sparsecolour import budget
from sparsecolour.budget import BudgetError
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
        with pytest.raises(AssignmentError):  # a colour outside the vertex's set
            residual_assignment(g, c, {0: 2})

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

    @pytest.mark.parametrize("f", [{0: 0, 2: 1}, {0: 0, 1: 0}])
    def test_indices_and_rows_computed_once(self, monkeypatch, f):
        # The validity check reads the colour indices and map rows that the
        # residual is built from, whether the colouring is valid or not.
        from sparsecolour import correspondence

        g = cycle_graph(6)
        c = uniform_lists(g, 3)
        valid = is_valid_colouring(g, c, f)
        calls = []
        for name in ("indices", "_rows_on"):
            def counting(*args, _fn=getattr(correspondence, name), _name=name):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(correspondence, name, counting)
        if valid:
            residual_assignment(g, c, f)
        else:
            with pytest.raises(AssignmentError):
                residual_assignment(g, c, f)
        assert calls == ["indices", "_rows_on"]


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
        g = complete_graph(4)  # 6 edges
        # uniform_lists(g, 4) stores 8 (4 colours + 4 sizes + 12 edge ends)
        # + 2 * 6 * 4 map bytes + 2048 header bytes = 2256 bytes; with 5
        # colours, 2276.
        monkeypatch.setattr(budget, "MEMORY_BUDGET", 2256)
        with pytest.raises(BudgetError, match="^assignment of 5 colours on 6 edges would"):
            uniform_lists(g, 5)
        assert uniform_lists(g, 4).fwd.shape == (6, 4)
        # Unequal lists of 5 colours: maps of 6 x 5 int16 entries, 60 bytes.
        monkeypatch.setattr(budget, "MEMORY_BUDGET", 59)
        with pytest.raises(BudgetError, match="^assignment maps of 6 x 5 entries would"):
            from_lists(g, [range(5), range(5), range(5), range(1, 6)])

    def test_uniform_lists_refused_before_any_colour_set(self, monkeypatch):
        from sparsecolour import correspondence

        def no_sets(*args):
            raise AssertionError("the size checks must come before the colour sets")

        monkeypatch.setattr(correspondence, "_shared", no_sets)
        monkeypatch.setattr(budget, "MEMORY_BUDGET", 2 * 2**20)
        # The shared row takes 8 bytes a colour and the int32 maps 4 bytes a
        # colour per edge; isolated vertices store no map.
        for g, k, mib in [
            (empty_graph(4), 3 * 2**17, 3),
            (path_graph(3), 2**18, 4),
            (complete_graph(4), 100_000, 3),
        ]:
            with pytest.raises(BudgetError) as err:
                uniform_lists(g, k)
            assert str(err.value) == (
                f"assignment of {k} colours on {g.m} edges would take about {mib} MiB, "
                "above the memory budget of 2 MiB"
            )

    def test_uniform_lists_at_the_cap_builds(self, monkeypatch):
        monkeypatch.setattr(budget, "MEMORY_BUDGET", 2276)
        assert uniform_lists(complete_graph(4), 5).fwd.shape == (6, 5)
        assert uniform_lists(empty_graph(4), 15).sizes.tolist() == [15] * 4

    def test_residual_refused_before_its_masks(self, monkeypatch):
        from sparsecolour import correspondence

        def no_masks(*args):
            raise AssertionError("the size check must come before the masks")

        g = path_graph(3)
        c = uniform_lists(g, 4)
        # 4 colour slots of 3 vertices (24 bytes), 2 uncoloured (40) and the
        # one edge between uncoloured vertices (72): 896 bytes.
        monkeypatch.setattr(budget, "MEMORY_BUDGET", 895)
        monkeypatch.setattr(correspondence, "_in_set", no_masks)
        with pytest.raises(BudgetError, match="^residual masks of 3 x 4 entries would"):
            residual_assignment(g, c, {0: 0})
        monkeypatch.undo()
        monkeypatch.setattr(budget, "MEMORY_BUDGET", 896)
        assert residual_assignment(g, c, {0: 0}).graph.n == 2

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
