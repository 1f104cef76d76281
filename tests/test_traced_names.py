"""The names the benchmark's tracer wraps and reads still exist.

`perfbench/tracing.py` patches functions and methods of the package by name
and reads attributes of the compiled instance in its hooks.  It is loaded
here by path, as `perfbench/run.py --trace 1` loads it, so deleting or
renaming a traced name fails this test instead of the traced benchmark run.
"""

import importlib.util
from pathlib import Path

from sparsecolour import ncp
from sparsecolour.correspondence import uniform_lists
from sparsecolour.generators import cycle_graph

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracing = _load_tracing()
    originals = {attr: vars(ncp._Compiled)[attr] for attr in ("_build_stats", "_build_nuv")}
    attempt = ncp.attempt_round
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ncp.attempt_round is not attempt
        g = cycle_graph(5)
        comp = ncp._compile(g, uniform_lists(g, 3))
        ncp.attempt_round(comp, ncp.RoundParams(0.5, 1.0, 0.0), seed=1, max_restarts=2)
        # Every pair violates a negative slack, so this call exhausts both restarts.
        ncp.attempt_round(comp, ncp.RoundParams(0.5, -1.0, 0.0), seed=1, max_restarts=2)
    finally:
        tracer.uninstall()
    # The attempt hook reads `restarts` and `ok`: the first call is accepted
    # at its first attempt, the second is not.
    assert tracer.counts["ncp.restarts"] == 2
    assert tracer.counts["ncp.accepted"] == 1
    # The hooks read the compiled instance: five vertices and the 15 pairs
    # at distance <= 2 of C5 (u = v included).
    assert tracer.counts["ncp.compiled_vertices"] == 5
    assert tracer.counts["ncp.pair_rows"] == 15
    names = {span[0] for span in tracer.spans}
    assert {"ncp._Compiled._build_stats", "ncp._Compiled._build_nuv"} <= names
    assert ncp.attempt_round is attempt
    assert {attr: vars(ncp._Compiled)[attr] for attr in originals} == originals
