"""The memory budget, and each estimate against the peak of the work it gates.

Every site that checks the budget has a probe here.  A probe builds its
input, then does the work the check gates while tracemalloc runs; the
estimate the site passed to `budget.check` must be at least the traced peak
and at most twice it.
"""

import json
import tracemalloc

import pytest

from sparsecolour import budget, ncp
from sparsecolour.correspondence import residual_assignment, uniform_lists
from sparsecolour.generators import (
    complete_graph,
    empty_graph,
    path_graph,
    random_regular_graph,
)
from sparsecolour.graph import (
    Graph,
    from_json_dict,
    parse_dimacs,
    parse_json,
    to_dimacs,
    to_json_dict,
)
from sparsecolour.harness import monte_carlo_round
from sparsecolour.strong_edge import _SquareRows, line_graph_square

from test_strong_edge_pipeline import projective_plane_incidence


class TestCheck:
    def test_message_names_what_and_both_sizes(self):
        with pytest.raises(budget.BudgetError) as err:
            budget.check("a thing", 600 * 2**20)
        assert str(err.value) == (
            "a thing would take about 600 MiB, above the memory budget of 512 MiB"
        )

    def test_at_the_budget_passes(self):
        budget.check("a thing", budget.MEMORY_BUDGET)

    def test_budget_is_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(budget, "MEMORY_BUDGET", 2**20)
        with pytest.raises(budget.BudgetError, match="above the memory budget of 1 MiB"):
            budget.check("a thing", 2**20 + 1)

    def test_a_refusal_is_a_value_error(self):
        assert issubclass(budget.BudgetError, ValueError)


def _traced_peak(work) -> int:
    """Peak bytes traced while `work` runs, above what was traced before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        work()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _uniform_compiled(g, k):
    return ncp._compile(g, uniform_lists(g, k))


def _rr200():
    return random_regular_graph(200, 20, seed=1)


def _assignment():
    g = _rr200()
    return lambda: uniform_lists(g, 300)


def _compiled():
    g = _rr200()
    c = uniform_lists(g, 18)
    return lambda: ncp._compile(g, c)


def _regularised():
    # Vertex 0 loses three edges, so the copy doubles three times, and its
    # ball (306 vertices, 2,117 edges) is little more than g.
    h = random_regular_graph(200, 20, seed=1)
    g = Graph.from_edges(h.n, [e for e in h.edges() if e not in list(h.edges())[:3]])
    c = uniform_lists(g, 18)
    return lambda: ncp._regularize_with_assignment(g, c)


def _regularised_wide():
    # Regular, so the ball is g itself: cutting, totalizing and inverting
    # the maps of 300 colours are the run.
    g = _rr200()
    c = uniform_lists(g, 300)
    return lambda: ncp._regularize_with_assignment(g, c)


def _regularised_deep():
    # 200 isolated vertices next to rr(200,20) double 20 times: the ball
    # (42,400 vertices, 82,000 edges) is mostly theirs, far more than g.
    g = Graph.from_edges(400, _rr200().edges())
    c = uniform_lists(g, 18)
    return lambda: ncp._regularize_with_assignment(g, c)


def _pg7_core_stats():
    core, _ = line_graph_square(projective_plane_incidence(7))
    return _uniform_compiled(core, 2)._build_stats


def _k60_stats():
    return _uniform_compiled(complete_graph(60), 30)._build_stats


def _distance2():
    return _uniform_compiled(random_regular_graph(600, 12, seed=1), 12)._build_nuv


def _residual_masks():
    # Many colours on isolated vertices, half of them coloured: the keep
    # masks, ranks and surviving colours are the run.
    g = empty_graph(1000)
    c = uniform_lists(g, 1000)
    return lambda: residual_assignment(g, c, {v: 0 for v in range(0, 1000, 2)})


def _residual_edges():
    # Uncoloured, so every edge's map row is cut to the survivors.
    g = _rr200()
    c = uniform_lists(g, 300)
    return lambda: residual_assignment(g, c, {})


def _near_sets():
    rows = _SquareRows(random_regular_graph(600, 12, seed=1))
    return lambda: rows._near


def _class_counts():
    # Many colours on four isolated vertices: the class counts are the run.
    g = empty_graph(4)
    c = uniform_lists(g, 200_000)
    return lambda: monte_carlo_round(g, c, trials=1, seed=1)


def _dimacs():
    text = to_dimacs(random_regular_graph(2000, 20, seed=1))
    return lambda: parse_dimacs(text)


def _json():
    data = json.loads(json.dumps(to_json_dict(random_regular_graph(2000, 20, seed=1))))
    return lambda: from_json_dict(data)


def _json_text():
    text = json.dumps(to_json_dict(random_regular_graph(2000, 20, seed=1)))
    return lambda: parse_json(text)


def _json_object():
    # One object of 200,000 keys beside an empty edge list.
    pad = {f"k{i}": 0 for i in range(200_000)}
    text = json.dumps({"n": 1, "edges": [], "pad": pad})
    return lambda: parse_json(text)


def _gen():
    from sparsecolour import cli

    args = cli.build_parser().parse_args(["gen", "--random-regular", "2000", "20"])
    return lambda: cli._cmd_gen(args)


# Probe -> (the start of the refusal text it checks, input builder).
PROBES = {
    "assignment": ("assignment of", _assignment),
    "compiled": ("compiled instance", _compiled),
    "regularised": ("regularised copy", _regularised),
    "regularised-wide": ("regularised copy", _regularised_wide),
    "regularised-deep": ("regularised copy", _regularised_deep),
    "stats-pg7-core": ("statistic index", _pg7_core_stats),
    "stats-k60": ("statistic index", _k60_stats),
    "distance2": ("distance-2 pair index", _distance2),
    "residual-masks": ("residual masks", _residual_masks),
    "residual-edges": ("residual masks", _residual_edges),
    "near-sets": ("near-edge sets", _near_sets),
    "class-counts": ("class counts of", _class_counts),
    "dimacs": ("graph of", _dimacs),
    "json": ("graph of", _json),
    "json-text": ("JSON graph of", _json_text),
    "json-object": ("JSON graph of", _json_object),
    "gen": ("graph of", _gen),
}


@pytest.fixture
def estimates(monkeypatch):
    """(what, nbytes) of every budget check, which still refuses as before."""
    seen = []
    check = budget.check

    def recording(what, nbytes):
        seen.append((what, nbytes))
        check(what, nbytes)

    monkeypatch.setattr(budget, "check", recording)
    return seen


@pytest.mark.parametrize("name", PROBES)
def test_estimate_bounds_the_traced_peak(estimates, name):
    prefix, probe = PROBES[name]
    work = probe()
    peak = _traced_peak(work)
    estimate = max(nbytes for what, nbytes in estimates if what.startswith(prefix))
    assert peak <= estimate <= 2 * peak, (estimate, peak)


def test_monte_carlo_estimate_bounds_the_words(estimates):
    # Only the words grow with the blocks, so the growth of the peak from
    # one block to forty is what the check gates; the estimate of forty
    # also counts the first block's words and the totals.
    g = path_graph(1000)
    c = uniform_lists(g, 2)
    one, forty = (_traced_peak(lambda: monte_carlo_round(g, c, trials, seed=1))
                  for trials in (64, 64 * 40))
    estimate = max(nbytes for what, nbytes in estimates if what.startswith("Monte Carlo"))
    assert forty - one <= estimate <= 2 * (forty - one), (estimate, forty - one)
