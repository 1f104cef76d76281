"""Exact clique computations and the clique-peeling reduction.

The reduction repeatedly removes a maximal independent set that hits every
maximum clique, which lowers the clique number by exactly one and the maximum
degree by at least one per round, until the clique number is at most
2/3 (max_degree + 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graph import Graph, GraphError

EXACT_CLIQUE_LIMIT = 60
TRANSVERSAL_NODE_BUDGET = 2_000_000


class CliqueSizeError(GraphError):
    """Graph too large for the exact clique solver."""


class ReductionError(RuntimeError):
    """Clique reduction could not find a hitting independent set."""


@dataclass(frozen=True)
class CliqueInfo:
    """Exact clique number together with all maximum cliques."""

    omega: int
    maximum_cliques: tuple[frozenset[int], ...]


def _maximal_cliques(g: Graph) -> list[frozenset[int]]:
    """All maximal cliques via Bron-Kerbosch with pivoting."""
    cliques: list[frozenset[int]] = []

    def expand(r: list[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            cliques.append(frozenset(r))
            return
        pivot = max(sorted(p | x), key=lambda v: len(g.neighbour_set(v) & p))
        for v in sorted(p - g.neighbour_set(pivot)):
            nv = g.neighbour_set(v)
            expand(r + [v], p & nv, x & nv)
            p.remove(v)
            x.add(v)

    expand([], set(range(g.n)), set())
    return cliques


def clique_info(g: Graph) -> CliqueInfo:
    """Exact clique number and the list of all maximum cliques.

    Uses exhaustive maximal-clique enumeration; guarded to small graphs, the
    regime the reduction driver operates in.
    """
    if g.n > EXACT_CLIQUE_LIMIT:
        raise CliqueSizeError(
            f"exact clique enumeration capped at n={EXACT_CLIQUE_LIMIT} "
            f"(got n={g.n}); use a heuristic instead"
        )
    if g.n == 0:
        return CliqueInfo(0, ())
    cliques = _maximal_cliques(g)
    omega = max(len(c) for c in cliques)
    maximum = tuple(sorted((c for c in cliques if len(c) == omega), key=sorted))
    return CliqueInfo(omega, maximum)


def hitting_independent_set(
    g: Graph, cliques: CliqueInfo
) -> Optional[frozenset[int]]:
    """Independent set meeting every maximum clique, or None if none exists.

    Exact backtracking over one-vertex-per-unhit-clique choices.  The search
    is complete, so None means no such set exists; a search that visits more
    than TRANSVERSAL_NODE_BUDGET nodes raises ReductionError instead.
    """
    clique_list = [sorted(c) for c in cliques.maximum_cliques]
    if not clique_list:
        return frozenset()

    nodes = 0

    def search(idx: int, chosen: set[int]) -> Optional[set[int]]:
        nonlocal nodes
        nodes += 1
        if nodes > TRANSVERSAL_NODE_BUDGET:
            raise ReductionError(
                "transversal search exceeded its budget of "
                f"{TRANSVERSAL_NODE_BUDGET} nodes on {len(clique_list)} "
                "maximum cliques"
            )
        while idx < len(clique_list) and any(
            v in chosen for v in clique_list[idx]
        ):
            idx += 1
        if idx == len(clique_list):
            return chosen
        for v in clique_list[idx]:
            if g.neighbour_set(v) & chosen:
                continue
            chosen.add(v)
            result = search(idx + 1, chosen)
            if result is not None:
                return result
            chosen.remove(v)
        return None

    result = search(0, set())
    return None if result is None else frozenset(result)


def extend_to_maximal_independent(g: Graph, base: frozenset[int]) -> frozenset[int]:
    """Grow an independent set to a maximal one, smallest ids first."""
    chosen = set(base)
    blocked = set()
    for v in chosen:
        blocked |= g.neighbour_set(v)
    for v in range(g.n):
        if v in chosen or v in blocked:
            continue
        chosen.add(v)
        blocked |= g.neighbour_set(v)
    return frozenset(chosen)


@dataclass(frozen=True)
class ReductionRound:
    """Telemetry for a single peel round."""

    omega_before: int
    omega_after: int
    max_degree_before: int
    max_degree_after: int
    removed: tuple[int, ...]


def reduce_by_cliques(g: Graph) -> tuple[Graph, int, tuple[ReductionRound, ...]]:
    """Peel hitting independent sets until omega <= 2/3 (max_degree + 1).

    Per round the clique number drops by exactly one and the maximum degree
    by at least one (both asserted; a round that empties the graph trivially
    satisfies the degree drop).  Returns the reduced graph, the number of
    rounds, and per-round telemetry.
    """
    current, info, max_deg = g, clique_info(g), g.max_degree()
    rounds: list[ReductionRound] = []
    while 3 * info.omega > 2 * (max_deg + 1):
        hitting = hitting_independent_set(current, info)
        if hitting is None:
            raise ReductionError(
                f"no independent set hitting all {len(info.maximum_cliques)} "
                f"maximum cliques (omega={info.omega}, max_degree={max_deg}); "
                "the guarantee only holds for large maximum degree"
            )
        removal = extend_to_maximal_independent(current, hitting)
        survivors = [v for v in range(current.n) if v not in removal]
        reduced, _ = current.induced(survivors)
        new_info = clique_info(reduced)
        new_deg = reduced.max_degree()
        assert new_info.omega == info.omega - 1, "clique number must drop by one"
        assert reduced.n == 0 or new_deg <= max_deg - 1, (
            "maximal independent set removal must lower the maximum degree"
        )
        rounds.append(
            ReductionRound(info.omega, new_info.omega, max_deg, new_deg, tuple(sorted(removal)))
        )
        # The reduced graph's clique search is the next round's input.
        current, info, max_deg = reduced, new_info, new_deg
    return current, len(rounds), tuple(rounds)
