"""Spans recorded from the benchmark's side of each layer boundary.

Nothing under ``src/`` is edited.  While a traced round runs, every module of
the package has the names listed in ``FUNCTIONS`` replaced, in its own
namespace, by a wrapper that records a span; ``harness._round_arrays`` and
``ncp._round_arrays`` are therefore separate spans.  The methods in
``METHODS`` are wrapped on their class, so every caller is covered.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (-1 for the operation's root) and ``op`` the operation id.
Spans stay in memory and are written out once, when the run ends.  A span's
self time is its duration minus the durations of its direct children; each
span name belongs to exactly one per-layer metric, so the self times of all
spans of an operation add up to the operation's traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from time import perf_counter

ROOT = "cli.main"

# Defining module -> function name -> per-layer metric.  Names another
# module imports are wrapped wherever they appear, under the importer's name.
FUNCTIONS = {
    "ncp": {
        "_round_arrays": "ncp.round_draw_s",
        "derive_seed": "ncp.round_draw_s",
        "run_round": "ncp.round_draw_s",
        "_stats_arrays": "ncp.stats_s",
        "keep_probability": "ncp.stats_s",
        "round_stats": "ncp.stats_s",
        "_nuv_counts": "ncp.common_uncoloured_s",
        "quasirandom_check": "ncp.common_uncoloured_s",
        "attempt_round": "ncp.attempt_s",
        "_regularize_with_assignment": "ncp.regularise_s",
        "_greedy_correspondence": "ncp.greedy_finish_s",
        "greedy_complete": "ncp.greedy_finish_s",
        "iterative_colour": "ncp.driver_s",
        "build_schedule": "ncp.schedule_s",
        "default_beta": "ncp.schedule_s",
        "default_round_params": "ncp.schedule_s",
    },
    "correspondence": {
        "residual_assignment": "correspondence.residual_s",
        "uniform_lists": "correspondence.prepare_s",
        "from_lists": "correspondence.prepare_s",
        "truncate": "correspondence.prepare_s",
        "totalize": "correspondence.prepare_s",
        "is_total": "correspondence.prepare_s",
        "validate_assignment": "correspondence.prepare_s",
        "is_valid_colouring": "correspondence.check_s",
    },
    "graph": {
        "local_sparsity": "graph.sparsity_s",
        "min_degree_ordering": "graph.ordering_s",
    },
    "harness": {
        "monte_carlo_round": "harness.mc_s",
    },
    "strong_edge": {
        "line_graph_square": "strong_edge.square_s",
        "f_core_with_order": "strong_edge.peel_s",
        "f_core": "strong_edge.peel_s",
        "strong_neighbourhood": "strong_edge.validate_s",
        "_validate_strong_colouring": "strong_edge.validate_s",
        "strong_edge_colour": "strong_edge.extend_s",
    },
    "cli": {
        "_load_graph": "cli.load_s",
        "_report": "cli.report_s",
        "_emit": "cli.report_s",
    },
}

# (module, class, attribute) -> per-layer metric.
METHODS = {
    ("ncp", "_Compiled", "__init__"): "ncp.compile_s",
    ("ncp", "_Compiled", "_build_nuv"): "ncp.pair_index_s",
    ("ncp", "_Compiled", "_build_stats"): "ncp.stats_index_s",
    ("graph", "Graph", "__init__"): "graph.build_s",
    ("graph", "Graph", "from_edges"): "graph.build_s",
}

MODULES = ("cli", "harness", "ncp", "strong_edge", "correspondence", "graph")


def _count_compiled(counts, args, result, before):
    counts["ncp.compiled_vertices"] += args[0].n


def _nuv_built_before(args):
    return args[0]._nuv_built


def _count_pair_rows(counts, args, result, before):
    if not before:
        counts["ncp.pair_rows"] += len(args[0].nuv_pairs)


def _count_regularised(counts, args, result, before):
    n = result[0].n
    counts["ncp.regularised_vertices_max"] = max(counts["ncp.regularised_vertices_max"], n)


def _count_round(counts, args, result, before):
    counts["ncp.rounds_drawn"] += 1


def _count_attempt(counts, args, result, before):
    counts["ncp.restarts"] += result.restarts
    counts["ncp.accepted"] += bool(result.ok)


def _count_square(counts, args, result, before):
    counts["strong_edge.square_edges"] += result[0].m


def _count_core(counts, args, result, before):
    counts["strong_edge.core_size"] += len(result[1])


def _count_report(counts, args, result, before):
    counts["cli.report_bytes"] += len(args[0])


# Function or method name -> (before hook, after hook), for the counts.
HOOKS = {
    ("_Compiled", "__init__"): (None, _count_compiled),
    ("_Compiled", "_build_nuv"): (_nuv_built_before, _count_pair_rows),
    "_regularize_with_assignment": (None, _count_regularised),
    "_round_arrays": (None, _count_round),
    "attempt_round": (None, _count_attempt),
    "line_graph_square": (None, _count_square),
    "f_core_with_order": (None, _count_core),
    "_emit": (None, _count_report),
}


class Tracer:
    """In-memory span and count recorder that patches the package in place."""

    def __init__(self):
        self.modules = {m: importlib.import_module(f"sparsecolour.{m}") for m in MODULES}
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.metric_of: dict[str, str] = {ROOT: "cli.command_s"}
        self.op = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, hooks):
        spans, stack, counts = self.spans, self.stack, self.counts
        before, after = hooks if hooks else (None, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if after:
                after(counts, args, result, state)
            return result

        return wrapper

    def call(self, op: int, fn, *args):
        """Run fn(*args) as the root span of operation `op`."""
        self.op = op
        return self._wrap(fn, ROOT, None)(*args)

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed name in every module namespace that holds it."""
        if self._saved:
            return
        metric_of_fn = {}
        for mod, names in FUNCTIONS.items():
            for name, metric in names.items():
                metric_of_fn[getattr(self.modules[mod], name)] = (name, metric)
        for short, module in self.modules.items():
            for attr, value in list(vars(module).items()):
                if callable(value) and value in metric_of_fn:
                    name, metric = metric_of_fn[value]
                    span = f"{short}.{attr}"
                    self.metric_of[span] = metric
                    self._patch(module, attr, self._wrap(value, span, HOOKS.get(name)))
        for (mod, cls_name, attr), metric in METHODS.items():
            cls = getattr(self.modules[mod], cls_name)
            raw = cls.__dict__[attr]
            span = f"{mod}.{cls_name}.{attr}"
            self.metric_of[span] = metric
            hooks = HOOKS.get((cls_name, attr))
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(raw.__func__, span, hooks)))
            else:
                self._patch(cls, attr, self._wrap(raw, span, hooks))

    def _patch(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> Counter:
        """Sum of self time per per-layer metric, over all recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Counter = Counter()
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            totals[self.metric_of[name]] += (end - start) - child[i]
        return totals

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w") as out:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(json.dumps({"id": i, "name": name, "start": start,
                                      "end": end, "parent": parent, "op": op}))
                out.write("\n")
