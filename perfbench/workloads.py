"""Workload inputs, operations and the benchmark's own output checks.

The workload seed only reaches the program through the generated DIMACS
files and the ``--seed`` arguments listed here.  The checks below are
written from the definitions and read nothing but the generated edge lists
and the report files; they never call the program's validators.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

WORKLOADS = ("mc", "color", "strong-edge")
SIZES = ("full", "tiny")


def sub_seed(seed: int, label: str) -> int:
    """A 63-bit seed derived from the workload seed and a label."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class Input:
    """A generated graph: file name, generator (module.function) and its arguments."""

    path: str
    generator: str
    args: tuple


@dataclass(frozen=True)
class Op:
    """One call of ``sparsecolour.cli.main``.

    ``work`` is what the operation counts toward the throughput: Monte Carlo
    trials or colouring runs; 0 stands for the edges of the input graph.
    """

    key: str
    kind: str
    argv: tuple[str, ...]
    input: str
    k: int
    work: int


REPORT = "report.json"


def plan(workload: str, seed: int, size: str) -> tuple[list[Input], list[Op]]:
    """The generated inputs and the fixed operation list of one round."""
    tiny = size == "tiny"
    if workload == "mc":
        n, d, k, trials = (30, 6, 5, 64) if tiny else (200, 20, 15, 2000)
        graph = Input("mc.col", "generators.random_regular_graph",
                      (n, d, sub_seed(seed, "mc.graph")))
        argv = ("simulate", "--experiment", "mc", "--input", graph.path, "--k", str(k),
                "--trials", str(trials), "--seed", str(sub_seed(seed, "mc.trials")),
                "--threads", "1", "--format", "json", "--out", REPORT)
        return [graph], [Op("mc", "mc", argv, graph.path, k, trials)]
    if workload == "color":
        # The C5 blow-ups are fixed graphs and their colouring seeds are
        # fixed too: per-run time is heavy-tailed in the regularised size
        # (seeds 0-7 already span 0.03 s to 1.6 s), so seeds drawn from the
        # workload seed would make the round's work, not the program's
        # speed, decide the throughput.  The random regular graph and its
        # colouring seeds do follow the workload seed.
        blowups = [(3, 6, 2), (4, 8, 2)] if tiny else [(10, 18, 8), (14, 25, 8)]
        rr_n, rr_d, rr_runs = (20, 4, 2) if tiny else (100, 8, 4)
        inputs, ops = [], []
        for blow, k, runs in blowups:
            graph = Input(f"c5x{blow}.col", "strong_edge.c5_blowup", (blow,))
            inputs.append(graph)
            for s in range(runs):
                ops.append(_colour_op(f"c5x{blow}-k{k}-s{s}", graph.path, k, s))
        graph = Input(f"rr{rr_n}x{rr_d}.col", "generators.random_regular_graph",
                      (rr_n, rr_d, sub_seed(seed, "color.graph")))
        inputs.append(graph)
        for j in range(rr_runs):
            ops.append(_colour_op(f"rr-k{rr_d}-{j}", graph.path, rr_d,
                                  sub_seed(seed, f"color.run.{j}")))
        return inputs, ops
    if workload == "strong-edge":
        # The irregular host is one fixed draw of G(n, p).  Peak memory is
        # set by its square, whose size swings with the degree tail: over
        # workload seeds 1-5 a seeded draw moved peak RSS between 124 and
        # 145 MB, far more than the timing noise a bound has to allow for.
        rr_n, rr_d, gnp_n, gnp_p = (40, 4, 30, 0.15) if tiny else (600, 12, 400, 0.03)
        inputs = [
            Input(f"rr{rr_n}x{rr_d}.col", "generators.random_regular_graph",
                  (rr_n, rr_d, sub_seed(seed, "se.rr"))),
            Input(f"gnp{gnp_n}.col", "generators.gnp_graph",
                  (gnp_n, gnp_p, sub_seed(0, "se.gnp"))),
        ]
        ops = [
            Op(graph.path, "strong-edge",
               ("strong-edge", "--input", graph.path,
                "--seed", str(sub_seed(seed, "se.colour")), "--out", REPORT),
               graph.path, 0, 0)
            for graph in inputs
        ]
        return inputs, ops
    raise ValueError(f"unknown workload {workload!r}")


def _colour_op(key: str, path: str, k: int, colour_seed: int) -> Op:
    argv = ("color", "--input", path, "--k", str(k), "--seed", str(colour_seed),
            "--out", REPORT)
    return Op(key, "color", argv, path, k, 1)


def to_dimacs(n: int, edges: list[tuple[int, int]]) -> str:
    lines = [f"p edge {n} {len(edges)}"] + [f"e {u + 1} {v + 1}" for u, v in edges]
    return "\n".join(lines) + "\n"


# -- independent checks --------------------------------------------------------


class Host:
    """A generated graph as the checks see it: vertex count and edge list."""

    def __init__(self, n: int, edges: list[tuple[int, int]]):
        self.n = n
        self.edges = sorted((min(u, v), max(u, v)) for u, v in edges)
        self.adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            self.adj[u].append(v)
            self.adj[v].append(u)
        self.max_degree = max((len(a) for a in self.adj), default=0)
        self._square_max_degree = None

    def square_max_degree(self) -> int:
        """Largest number of other edges within distance two of one edge."""
        if self._square_max_degree is None:
            incident: list[list[int]] = [[] for _ in range(self.n)]
            for i, (u, v) in enumerate(self.edges):
                incident[u].append(i)
                incident[v].append(i)
            best = 0
            for u, v in self.edges:
                near = set()
                for x in set(self.adj[u]) | set(self.adj[v]):
                    near.update(incident[x])
                best = max(best, len(near) - 1)
            self._square_max_degree = best
        return self._square_max_degree


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking one report.

    ``passed`` is False when the program raised, exited 2, or wrote a report
    the checks reject.  ``ok`` is True when the run succeeded (exit 0) with a
    checked result.  ``saved`` is the colours the run saved below the
    max-degree-plus-one bound of the graph it coloured (for ``mc``, the
    one-round saving estimated by the Monte Carlo run).
    """

    passed: bool
    ok: bool
    saved: float
    reason: str = ""
    info: tuple = ()


def check(op: Op, host: Host, rc, report: bytes | None) -> Verdict:
    if rc is None:
        return Verdict(False, False, 0.0, "raised")
    if rc not in (0, 1):
        return Verdict(False, False, 0.0, f"exit {rc}")
    if report is None:
        return Verdict(False, False, 0.0, "no report written")
    try:
        doc = json.loads(report)
        result = doc["result"]
        return CHECKS[op.kind](op, host, rc, result)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return Verdict(False, False, 0.0, f"malformed report: {exc!r}")


def _check_mc(op: Op, host: Host, rc, result) -> Verdict:
    if rc != 0:
        return Verdict(False, False, 0.0, f"simulate exited {rc}")
    keep = result["keep_mean"]
    if result["trials"] != op.work:
        return Verdict(False, False, 0.0, f"trials {result['trials']} != {op.work}")
    if len(keep) != host.n or not all(0.0 <= x <= 1.0 for x in keep):
        return Verdict(False, False, 0.0, "keep_mean outside [0, 1]")
    for u, expected in enumerate(result["keep_expected"]):
        closed = (1.0 - 1.0 / (2.0 * op.k)) ** len(host.adj[u])
        if not math.isclose(expected, closed, rel_tol=1e-12):
            return Verdict(False, False, 0.0, f"keep_expected[{u}] != (1 - 1/2k)^deg")
    z = result["global_keep_z"]
    if not abs(z) <= 4.0:
        return Verdict(False, False, 0.0, f"|global_keep_z| = {abs(z)} > 4")
    # Pairs minus triples bounds from below the repeated colours one round
    # leaves in a neighbourhood, i.e. the colours it saves at that vertex.
    saved = sum(p - t for p, t in zip(result["pairs_mean"], result["triples_mean"])) / host.n
    return Verdict(True, True, saved, info=(("global_keep_z", z),))


def _check_color(op: Op, host: Host, rc, result) -> Verdict:
    if rc == 1:
        # "No colouring within k" is a quality result, not a failure.
        if result["ok"] is not False or not result.get("failureReason"):
            return Verdict(False, False, 0.0, "exit 1 without a failure reason")
        return Verdict(True, False, 0.0)
    colours = result["colours"]
    if result["ok"] is not True or len(colours) != host.n:
        return Verdict(False, False, 0.0, "colouring missing or incomplete")
    f = [colours[str(u)] for u in range(host.n)]
    if not all(isinstance(c, int) and 0 <= c < op.k for c in f):
        return Verdict(False, False, 0.0, "colour outside 0..k-1")
    for u, v in host.edges:
        if f[u] == f[v]:
            return Verdict(False, False, 0.0, f"edge {u}-{v} is monochromatic")
    used = len(set(f))
    if result["numColoursUsed"] != used:
        return Verdict(False, False, 0.0, "numColoursUsed does not match the colouring")
    return Verdict(True, True, float(host.max_degree + 1 - used))


def _check_strong_edge(op: Op, host: Host, rc, result) -> Verdict:
    if rc != 0 or result["valid"] is not True:
        return Verdict(False, False, 0.0, f"strong-edge exited {rc}")
    index = [tuple(e) for e in result["edgeIndex"]]
    if sorted(index) != host.edges:
        return Verdict(False, False, 0.0, "edge index differs from the host's edges")
    colour_of = {}
    for i, e in enumerate(index):
        colour_of[e] = result["colours"][str(i)]
    # Two edges are within distance two when they share an endpoint x, or
    # when an endpoint y of one is adjacent to an endpoint x of the other.
    for x in range(host.n):
        at_x = {}
        for y in host.adj[x]:
            c = colour_of[(min(x, y), max(x, y))]
            if c in at_x:
                return Verdict(False, False, 0.0, f"two edges at {x} share colour {c}")
            at_x[c] = y
        for y in host.adj[x]:
            for z in host.adj[y]:
                if z != x and colour_of[(min(y, z), max(y, z))] in at_x:
                    return Verdict(False, False, 0.0, f"edge {y}-{z} clashes near {x}")
    used = len(set(colour_of.values()))
    d = host.max_degree
    if result["numColours"] != used or not math.isclose(result["ratioToDeltaSq"], used / d**2):
        return Verdict(False, False, 0.0, "numColours does not match the colouring")
    saved = float(host.square_max_degree() + 1 - used)
    return Verdict(True, True, saved, info=(("colours_per_d2", used / d**2),))


CHECKS = {"mc": _check_mc, "color": _check_color, "strong-edge": _check_strong_edge}
