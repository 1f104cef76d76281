"""Smoke test of the benchmark at a tiny size.

  python3 -m pytest perfbench/test_smoke.py -q

Each workload runs for one second untraced and once traced.  The test checks
that every metric BENCHMARK.json names is printed with its unit, that every
output check passed, and that the traced layers' self times add up to the
untraced wall time plus the tracing overhead.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_and_checked(workload, trace):
    result = last_line(run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
        return
    values = {name: v["value"] for name, v in result["metrics"].items()}
    layers = [m["name"] for m in wanted
              if m["unit"] == "s/op" and not m["name"].startswith("trace.")]
    assert sum(values[name] for name in layers) == pytest.approx(values["trace.self_sum_s"])
    assert values["trace.self_sum_s"] - values["trace.overhead_s"] == pytest.approx(
        values["trace.wall_s"], rel=0.05, abs=1e-3)


def test_spans_follow_the_calling_namespace():
    last_line(run("mc", 1))
    last_line(run("color", 1))
    names = set()
    for workload in ("mc", "color"):
        with open(ROOT / ".perfbench_out" / f"spans-{workload}-3.jsonl") as spans:
            for line in spans:
                span = json.loads(line)
                assert {"id", "name", "start", "end", "parent", "op"} <= set(span)
                assert span["end"] >= span["start"]
                names.add(span["name"])
    assert {"harness._round_arrays", "ncp._round_arrays", "cli.main"} <= names


def test_tracer_restores_the_package():
    tracer = tracing.Tracer()
    before = {(short, name): getattr(mod, name)
              for short, mod in tracer.modules.items() for name in vars(mod)}
    init = tracer.modules["graph"].Graph.__dict__["__init__"]
    tracer.install()
    assert tracer.modules["harness"]._round_arrays is not before[("harness", "_round_arrays")]
    tracer.uninstall()
    after = {(short, name): getattr(mod, name)
             for short, mod in tracer.modules.items() for name in vars(mod)}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tracer.modules["graph"].Graph.__dict__["__init__"] is init


def test_checks_reject_a_bad_colouring():
    op = workloads.Op("t", "color", (), "t.col", 2, 1)
    host = workloads.Host(3, [(0, 1), (1, 2)])
    good = {"result": {"ok": True, "colours": {"0": 0, "1": 1, "2": 0}, "numColoursUsed": 2}}
    bad = {"result": {"ok": True, "colours": {"0": 0, "1": 0, "2": 1}, "numColoursUsed": 2}}
    assert workloads.check(op, host, 0, json.dumps(good).encode()).passed
    assert not workloads.check(op, host, 0, json.dumps(bad).encode()).passed
    assert not workloads.check(op, host, 2, None).passed


def test_checks_reject_a_strong_edge_clash():
    op = workloads.Op("t", "strong-edge", (), "t.col", 0, 0)
    host = workloads.Host(4, [(0, 1), (1, 2), (2, 3)])
    index = [[0, 1], [1, 2], [2, 3]]
    ok = {"valid": True, "edgeIndex": index, "colours": {"0": 0, "1": 1, "2": 2},
          "numColours": 3, "ratioToDeltaSq": 3 / 4}
    clash = dict(ok, colours={"0": 0, "1": 1, "2": 0}, numColours=2, ratioToDeltaSq=2 / 4)
    assert workloads.check(op, host, 0, json.dumps({"result": ok}).encode()).passed
    assert not workloads.check(op, host, 0, json.dumps({"result": clash}).encode()).passed


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run("mc", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
