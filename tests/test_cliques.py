"""Exact cliques, hitting independent sets, and the peel reduction."""

import itertools

import pytest

from sparsecolour import cliques
from sparsecolour.cliques import (
    CliqueSizeError,
    ReductionError,
    clique_info,
    extend_to_maximal_independent,
    hitting_independent_set,
    reduce_by_cliques,
)
from sparsecolour.generators import (
    complete_graph,
    cycle_graph,
    empty_graph,
    gnp_graph,
    petersen_graph,
)
from sparsecolour.graph import Graph
from sparsecolour.harness import exact_chromatic


def brute_force_cliques(g):
    # Oracle: scan all vertex subsets for pairwise adjacency.
    best = 0
    cliques = []
    for r in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), r):
            if all(g.has_edge(a, b) for a, b in itertools.combinations(combo, 2)):
                if r > best:
                    best = r
                    cliques = []
                if r == best:
                    cliques.append(frozenset(combo))
    return best, set(cliques)


class TestCliqueInfo:
    def test_five_cycle(self):
        info = clique_info(cycle_graph(5))
        assert info.omega == 2
        assert len(info.maximum_cliques) == 5

    def test_k4_minus_edge(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        info = clique_info(g)
        omega, cliques = brute_force_cliques(g)
        assert info.omega == omega == 3
        assert set(info.maximum_cliques) == cliques
        assert len(info.maximum_cliques) == 2

    def test_petersen(self):
        info = clique_info(petersen_graph())
        assert info.omega == 2
        assert len(info.maximum_cliques) == 15

    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs_against_brute_force(self, seed):
        g = gnp_graph(9, 0.5, seed=seed)
        info = clique_info(g)
        omega, cliques = brute_force_cliques(g)
        assert info.omega == omega
        assert set(info.maximum_cliques) == cliques

    def test_size_guard(self):
        with pytest.raises(CliqueSizeError):
            clique_info(empty_graph(61))


def all_independent_sets(g):
    for r in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), r):
            if all(not g.has_edge(a, b) for a, b in itertools.combinations(combo, 2)):
                yield frozenset(combo)


def exists_hitting_independent(g, cliques):
    return any(
        all(s & clique for clique in cliques) for s in all_independent_sets(g)
    )


class TestHittingIndependentSet:
    def test_two_disjoint_triangles(self):
        g = Graph.from_edges(
            6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
        )
        info = clique_info(g)
        result = hitting_independent_set(g, info)
        assert result is not None
        for clique in info.maximum_cliques:
            assert result & clique

    def test_five_cycle_has_none(self):
        g = cycle_graph(5)
        info = clique_info(g)
        assert not exists_hitting_independent(g, info.maximum_cliques)
        assert hitting_independent_set(g, info) is None

    def test_k4_with_pendant(self):
        g = Graph.from_edges(
            5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)]
        )
        info = clique_info(g)
        result = hitting_independent_set(g, info)
        assert (result is not None) == exists_hitting_independent(
            g, info.maximum_cliques
        )
        if result is not None:
            for clique in info.maximum_cliques:
                assert result & clique
            for a, b in itertools.combinations(sorted(result), 2):
                assert not g.has_edge(a, b)

    def test_budget_trip_raises(self, monkeypatch):
        # Past the budget the search has established nothing, so it must not
        # answer None ("no such set") or guess.
        g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        info = clique_info(g)
        # The search needs three nodes: one per clique and one to finish.
        monkeypatch.setattr(cliques, "TRANSVERSAL_NODE_BUDGET", 2)
        with pytest.raises(
            ReductionError,
            match="transversal search exceeded its budget of 2 nodes on 2 maximum cliques",
        ):
            hitting_independent_set(g, info)
        monkeypatch.setattr(cliques, "TRANSVERSAL_NODE_BUDGET", 3)
        assert hitting_independent_set(g, info) == frozenset({0, 3})

    def test_budget_trip_aborts_the_reduction(self, monkeypatch):
        monkeypatch.setattr(cliques, "TRANSVERSAL_NODE_BUDGET", 0)
        with pytest.raises(ReductionError, match="exceeded its budget of 0 nodes"):
            reduce_by_cliques(complete_graph(4))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_exhaustive_existence(self, seed):
        g = gnp_graph(8, 0.45, seed=seed)
        info = clique_info(g)
        result = hitting_independent_set(g, info)
        assert (result is not None) == exists_hitting_independent(
            g, info.maximum_cliques
        )


class TestReduceByCliques:
    def test_five_cycle_no_rounds(self):
        g = cycle_graph(5)
        reduced, rounds, _ = reduce_by_cliques(g)
        assert rounds == 0
        assert reduced == g

    def test_k5_peels_with_invariants(self):
        reduced, rounds, telemetry = reduce_by_cliques(complete_graph(5))
        assert rounds == 5 and reduced.n == 0
        for row in telemetry:
            assert row.omega_after == row.omega_before - 1
            assert row.max_degree_after <= max(row.max_degree_before - 1, 0)

    def test_k3_chromatic_relation(self):
        g = complete_graph(3)
        reduced, rounds, _ = reduce_by_cliques(g)
        chi_reduced = exact_chromatic(reduced) if reduced.n else 0
        assert exact_chromatic(g) <= chi_reduced + rounds

    def test_extend_to_maximal(self):
        g = cycle_graph(6)
        s = extend_to_maximal_independent(g, frozenset({0}))
        for a, b in itertools.combinations(sorted(s), 2):
            assert not g.has_edge(a, b)
        for v in range(6):
            assert v in s or (g.neighbour_set(v) & s)

    def test_transversal_failure_aborts_with_diagnostic(self, monkeypatch):
        # A hitting set always exists in the peel regime, so force the
        # failure branch to check it aborts loudly instead of mis-reducing.
        import sparsecolour.cliques as cliques_module
        from sparsecolour.cliques import ReductionError

        monkeypatch.setattr(
            cliques_module, "hitting_independent_set", lambda g, info: None
        )
        with pytest.raises(ReductionError, match="maximum cliques"):
            reduce_by_cliques(complete_graph(4))

    def test_one_clique_search_per_round(self, monkeypatch):
        # K20 with vertex i also joined to vertex i of a 20-cycle: every round
        # searches the reduced graph once and carries the result forward, so
        # r rounds cost r + 1 searches.
        edges = [(u, v) for u in range(20) for v in range(u + 1, 20)]
        edges += [(20 + i, 20 + (i + 1) % 20) for i in range(20)]
        edges += [(i, 20 + i) for i in range(20)]
        calls = []

        def counted(g):
            calls.append(g.n)
            return clique_info(g)

        monkeypatch.setattr(cliques, "clique_info", counted)
        _, rounds, telemetry = reduce_by_cliques(Graph.from_edges(40, edges))
        assert len(calls) == rounds + 1 == 21
        assert [row.omega_before for row in telemetry] == list(range(20, 0, -1))
