#!/usr/bin/env python3
"""Compare the command line's bytes between two source trees.

    python tools/byte_sweep.py PARENT CHANGE

PARENT and CHANGE are checkouts of this repository.  Every invocation in
CASES runs once per tree as the module ``sparsecolour.cli`` with that tree's
``src`` as PYTHONPATH, each in a fresh directory that holds the same inputs
under ``in/``.  Each run has one BLAS thread and a LIMIT_BYTES address-space
limit, as the tests' limited runs do, so an input that one tree has no
memory bound for ends there in "out of memory" rather than taking the
host's memory.  The exit code, stdout, stderr and every file the run writes
are compared.  Each difference is printed on one line, then a summary; the
exit status is 1 if anything differed.

The inputs are written once: the files in INPUT_GEN by PARENT's own ``gen``,
those in INPUT_CUT by cutting one of them, and those in INPUT_TEXT from the
texts below (the PG(2, 7) and PG(2, 11) incidence graphs from
``_projective_plane`` and K400,400 from ``_complete_bipartite``, which
``gen`` has no generator for).
"""

from __future__ import annotations

import itertools
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

# Input file -> `gen` arguments.
INPUT_GEN = {
    "c5_3.col": ["--c5-blowup", "3"],
    "c5_8.col": ["--c5-blowup", "8"],
    "c5_10.col": ["--c5-blowup", "10"],
    "c5_14.col": ["--c5-blowup", "14"],
    "rr100_8.col": ["--random-regular", "100", "8", "--seed", "1"],
    "rr30_6.col": ["--random-regular", "30", "6", "--seed", "3"],
    "rr60_6.json": ["--random-regular", "60", "6", "--seed", "2", "--format", "json"],
    "gnp50.col": ["--gnp", "50", "0.1", "--seed", "4"],
    "petersen.col": ["--petersen"],
    "star25.col": ["--star", "25"],
    "path2.col": ["--path", "2"],
    "cycle4.col": ["--cycle", "4"],
    "pentagon_été.col": ["--c5-blowup", "3"],
    "path3.col": ["--path", "3"],
    "rr100_40.col": ["--random-regular", "100", "40", "--seed", "1"],
    "rr300_6.col": ["--random-regular", "300", "6", "--seed", "5"],
    "rr2000_12.col": ["--random-regular", "2000", "12", "--seed", "6"],
    "k60.col": ["--complete", "60"],
    "k100.col": ["--complete", "100"],
}


def _drop_first(text: str, prefix: str, count: int) -> str:
    """`text` without its first `count` lines that begin with `prefix`."""
    lines = text.splitlines(keepends=True)
    dropped = [i for i, line in enumerate(lines) if line.startswith(prefix)][:count]
    return "".join(line for i, line in enumerate(lines) if i not in dropped)


def _insert(text: str, count: int, line: str) -> str:
    """`text` with `line` after its first `count` lines."""
    lines = text.splitlines(keepends=True)
    return "".join(lines[:count] + [line + "\n"] + lines[count:])


def _interleave(text: str) -> str:
    """`text` with a comment and a blank line after every seventh line."""
    lines = text.splitlines(keepends=True)
    return "".join(line + ("c note\n\n" if i % 7 == 3 else "") for i, line in enumerate(lines))


# Input file -> (the INPUT_GEN file it is cut from, the cut).  Vertex 1 of
# rr(100,40) keeps 26 edges, so regularising doubles 14 times.  The first
# 600 lines of rr(300,6) hold about 6,000 characters, so the faults put
# after them sit past the first 4,096-character chunk of the DIMACS reader.
INPUT_CUT = {
    "rr100_40_cut.col": ("rr100_40.col", lambda text: _drop_first(text, "e 1 ", 14)),
    "late_loop.col": ("rr300_6.col", lambda text: _insert(text, 600, "e 7 7")),
    "late_range.col": ("rr300_6.col", lambda text: _insert(text, 600, "e 3 301")),
    "late_short.col": ("rr300_6.col", lambda text: _insert(text, 600, "e 5")),
    "late_repeat.col": ("rr300_6.col", lambda text: _insert(text, 600, text.splitlines()[1])),
    "commented.col": ("rr300_6.col", _interleave),
    "tabs.col": ("rr300_6.col", lambda text: text.replace(" ", "\t")),
}


def _projective_plane(q: int) -> str:
    """DIMACS text of the point-line incidence graph of PG(2, q), q prime:
    (q + 1)-regular with girth 6, so at eta 0.3 the whole line-graph square
    is the strong-edge core and reaches the iterative engine."""
    points = [
        v for v in itertools.product(range(q), repeat=3)
        if any(v) and next(x for x in v if x) == 1
    ]
    edges = [
        (i, len(points) + j)
        for i, p in enumerate(points)
        for j, line in enumerate(points)
        if sum(a * b for a, b in zip(p, line)) % q == 0
    ]
    lines = [f"p edge {2 * len(points)} {len(edges)}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in edges]
    return "\n".join(lines) + "\n"


def _complete_bipartite(n: int) -> str:
    """JSON text of K(n, n)."""
    edges = ", ".join(f"[{u}, {n + v}]" for u in range(n) for v in range(n))
    return f'{{"n": {2 * n}, "edges": [{edges}]}}'


# Input file -> its text.
INPUT_TEXT = {
    "pg7.col": _projective_plane(7),
    "pg11.col": _projective_plane(11),
    "k400_400.json": _complete_bipartite(400),
    "empty.col": "p edge 0 0\n",
    "edgeless.col": "p edge 4 0\n",
    "bad_record.col": "p edge 3 1\nx 1 2\n",
    "self_loop.col": "p edge 3 1\ne 2 2\n",
    "bad.json": "{not json",
    "bad_shape.json": '{"n": -1}',
    "cfg.json": '{"seed": 4, "max_restarts": 50}',
    "cfg_color.json": '{"max-restarts": 30, "profile": "asymptotic", "out": "cfg_color.json"}',
    "cfg_simulate.json": '{"threads": 3, "format": "json", "seed": 2}',
    "cfg_strong_edge.json": '{"eta": 0.3, "out": "cfg_se.json"}',
    "huge_id.json": '{"n": 3, "edges": [[0, 1], [0, 100000000000000000000]]}',
    "repeats.json": '{"n": 4, "edges": [[0, 1], [1, 0], [2, 3], [0, 1], [3, 2], [1, 2]]}',
    "faults.col": "p edge 4 4\ne 1 2\ne 2 1\nc note\ne 3 3\n",
    "crlf.col": "c crlf\r\np edge 5 5\r\ne 1 2\r\ne 2 3\r\ne 3 4\r\ne 4 5\r\ne 5 1\r\n",
}

CASES = [
    # gen: every generator, both formats, and its refusals
    "gen --c5-blowup 3",
    "gen --random-regular 20 3 --seed 5",
    "gen --gnp 30 0.2 --seed 2",
    "gen --complete 6 --format json",
    "gen --cycle 8 --out g.col",
    "gen --path 5 --out g.json",
    "gen --star 4",
    "gen --petersen --format json",
    "gen --cycle 2",
    "gen --cycle 5 --complete 4",
    "gen --gnp 20000 0.5",
    "gen --complete 3000",
    "gen --complete 200 --format json",
    # color: empty, greedy, iterative, failing
    "color --input in/empty.col --k 3",
    "color --input in/petersen.col --k 4",
    "color --input in/path2.col --k 1",
    "color --input in/c5_8.col --k 16 --seed 7",
    "color --input in/c5_10.col --k 18 --out r.json",
    "color --input in/rr100_8.col --k 8",
    "color --input in/rr60_6.json --k 5 --seed 3",
    "color --input in/c5_8.col --k 16 --profile asymptotic",
    "color --input in/rr30_6.col --k 5 --max-restarts 1",
    # a failed round 1, on the ball of a regularised copy
    "color --input in/c5_10.col --k 18 --seed 0 --max-restarts 1",
    # restarts drawn in slices of 1, 2, 4, ...: accepted at restart 38,
    # inside the sixth slice; budgets of 2 and 3 end inside and at the end
    # of the second slice, and 0 is a usage error
    "color --input in/c5_10.col --k 18 --seed 7",
    # the benchmark's deepest regularisation: a 4,096-vertex copy
    "color --input in/c5_14.col --k 25 --seed 3",
    # a pair listing without the edges inside neighbourhoods (identity
    # maps) on 2,000 vertices
    "color --input in/rr2000_12.col --k 12 --max-restarts 1",
    "color --input in/rr30_6.col --k 5 --max-restarts 0",
    "color --input in/rr30_6.col --k 5 --max-restarts 2",
    "color --input in/rr30_6.col --k 5 --max-restarts 3",
    "color --input in/c5_8.col --k 16 --beta 0",
    "color --input in/c5_8.col --k 16 --delta-prime 7",
    "color --input in/c5_8.col --k 16 --beta 0.001 --delta-prime 0.5",
    "color --input in/c5_8.col --k 16 --beta 0.00001",
    "color --input in/star25.col --k 24",
    "color --input in/star25.col --k 20000",
    "color --input in/edgeless.col --k 100000",
    "color --input in/c5_3.col --k 6 --config in/cfg.json",
    # options and outputs from a config file, those no report records included
    "color --input in/c5_8.col --k 16 --config in/cfg_color.json",
    "simulate --input in/rr30_6.col --k 5 --trials 50 --config in/cfg_simulate.json",
    "strong-edge --input in/rr100_8.col --config in/cfg_strong_edge.json",
    "color --input in/pentagon_été.col --k 6",
    # strong-edge on several hosts
    "strong-edge --input in/c5_3.col",
    "strong-edge --input in/petersen.col",
    "strong-edge --input in/rr60_6.json --seed 2",
    "strong-edge --input in/gnp50.col --out se.json",
    "strong-edge --input in/cycle4.col",
    "strong-edge --input in/rr100_8.col --eta 0.3",
    "strong-edge --input in/rr100_8.col",
    "strong-edge --input in/c5_8.col --max-restarts 20",
    "strong-edge --input in/edgeless.col",
    "strong-edge --input in/pg7.col --eta 0.3",
    "strong-edge --input in/pg7.col --eta 0.3 --max-restarts 1",
    "strong-edge --input in/pg11.col --eta 0.3",
    # 12,000 edges: colour keys across 9,999 -> 10,000, written as a template
    "strong-edge --input in/rr2000_12.col",
    # inputs that ran out of memory before any estimate stopped them
    "color --input in/rr100_40_cut.col --k 38 --seed 1",
    "simulate --experiment sparsity --input in/k400_400.json --k 2 --trials 1 --rounds 1",
    "simulate --input in/path3.col --k 2 --trials 100000000000",
    "simulate --input in/edgeless.col --k 5000000 --trials 64",
    "simulate --input in/edgeless.col --k 5000000 --trials 1",
    "simulate --input in/path3.col --k 1000000 --trials 64",
    # graph refusals and the collapse of repeated edges
    "color --input in/huge_id.json --k 3",
    "color --input in/faults.col --k 3",
    "color --input in/repeats.json --k 2",
    "color --input in/crlf.col --k 3",
    "strong-edge --input in/crlf.col",
    # DIMACS faults past the first chunk, comments and tabs between edges
    "strong-edge --input in/late_loop.col",
    "color --input in/late_loop.col --k 6",
    "strong-edge --input in/late_range.col",
    "color --input in/late_range.col --k 6",
    "strong-edge --input in/late_short.col",
    "color --input in/late_short.col --k 6",
    "strong-edge --input in/late_repeat.col",
    "color --input in/late_repeat.col --k 6",
    "strong-edge --input in/commented.col",
    "color --input in/commented.col --k 6",
    "strong-edge --input in/tabs.col",
    "color --input in/tabs.col --k 6",
    # bounds: all five subcommands
    "bounds table1",
    "bounds table1 --format json --grid 0.001",
    "bounds constants",
    "bounds condition --eps 0.05 --delta 0.9",
    # rhs and eps agree in 18 digits here; and an ordinary failing point
    "bounds condition --eps 0.08489405708977024 --delta 0.3576411265915042",
    "bounds condition --eps 0.3 --delta 0.2 --out c.json",
    "bounds condition --eps 0.6 --delta -1",
    "bounds savings --eps 0.05 --delta 0.9 --out s.json",
    "bounds approx-eps --delta 0.24 --variant bruhn_joos",
    "bounds approx-eps --delta 0.5",
    # simulate: mc and sparsity, JSON and CSV, and --threads values above 1
    "simulate --input in/rr30_6.col --k 5 --trials 100 --seed 1",
    "simulate --input in/rr30_6.col --k 5 --trials 1",
    "simulate --input in/rr30_6.col --k 5 --trials 100 --format csv",
    "simulate --input in/rr30_6.col --k 5 --trials 130 --threads 2 --out mc.json",
    "simulate --input in/rr30_6.col --k 5 --trials 200 --threads 64 --out mc64.json",
    "simulate --input in/c5_3.col --k 7 --trials 65 --threads 2 --format csv",
    "simulate --input in/rr30_6.col --k 5 --experiment sparsity --trials 3 --rounds 2",
    "simulate --input in/rr30_6.col --k 5 --experiment sparsity --trials 2 --format csv",
    "simulate --input in/c5_3.col --k 8 --experiment sparsity --trials 2 --threads 2 --out sp.csv",
    "simulate --input in/petersen.col --k 3 --experiment sparsity --trials 2",
    # 32 blocks of words, many cross-term tiles, identity maps
    "simulate --input in/rr100_40.col --k 30 --trials 2000",
    # cross-term tiles of 207 rows of 79 blocks, and of one row past 2^14 blocks
    "simulate --input in/c5_3.col --k 4 --trials 5000",
    "simulate --input in/path3.col --k 2 --trials 1100000",
    # dense Monte Carlo, where every neighbourhood is a clique
    "simulate --input in/k60.col --k 30 --trials 50",
    "simulate --input in/k100.col --k 50 --trials 3",
    "simulate --input in/gnp50.col --k 3 --experiment sparsity",
    # sparsity from set intersections: rows of 32 words against degree 12
    "simulate --experiment sparsity --input in/rr2000_12.col --k 12 --trials 1 --rounds 1",
    # oracle
    "oracle --input in/cycle4.col --k 2",
    "oracle --input in/cycle4.col --k 3",
    "oracle --input in/path2.col --k 3 --out o.json",
    "oracle --input in/petersen.col --k 3",
    # usage and I/O errors
    "",
    "--version",
    "frobnicate",
    "color --k 3",
    "color --input in/c5_3.col --k 0",
    "color --input in/missing.col --k 3",
    "color --input in/bad_record.col --k 3",
    "color --input in/self_loop.col --k 3",
    "color --input in/bad.json --k 3",
    "color --input in/bad_shape.json --k 3",
    "color --input in/c5_3.col --k 6 --config in/missing.json",
    "simulate --input in/rr30_6.col --k 5 --threads 0",
    "bounds savings --eps 0.05 --delta 0.9 --out nodir/s.json",
    # every parser's help
    "--help",
    "gen --help",
    "color --help",
    "strong-edge --help",
    "bounds --help",
    "simulate --help",
    "oracle --help",
    "bounds table1 --help",
    "bounds constants --help",
    "bounds condition --help",
    "bounds savings --help",
    "bounds approx-eps --help",
    # a bad value for each shared option, and a generator flag short of values
    "oracle --k 3",
    "simulate --input in/rr30_6.col --k x",
    "gen --seed -1 --cycle 5",
    "strong-edge --input in/c5_3.col --max-restarts 0",
    "bounds condition --eps nan --delta 0.3",
    "bounds approx-eps --delta inf",
    "color --input in/c5_3.col --k 3 --config",
    "gen --cycle 5 --out",
    "gen --random-regular 10",
]

TIMEOUT_S = 300
LIMIT_BYTES = 2 << 30

# Runs the module sparsecolour.cli, as ``python -m`` does, under LIMIT_BYTES.
_LIMITED_CLI = (
    "import resource, runpy; "
    f"resource.setrlimit(resource.RLIMIT_AS, ({LIMIT_BYTES}, {LIMIT_BYTES})); "
    "runpy.run_module('sparsecolour.cli', run_name='__main__', alter_sys=True)"
)


def _cli(tree: Path, args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-c", _LIMITED_CLI, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        timeout=TIMEOUT_S,
    )


def _write_inputs(tree: Path, inputs: Path) -> None:
    inputs.mkdir()
    for name, args in INPUT_GEN.items():
        _cli(tree, ["gen", *args, "--out", str(inputs / name)], inputs).check_returncode()
    for name, (source, cut) in INPUT_CUT.items():
        (inputs / name).write_text(cut((inputs / source).read_text()))
    for name, text in INPUT_TEXT.items():
        (inputs / name).write_text(text)


def _run(tree: Path, args: list[str], inputs: Path, where: Path) -> dict[str, object]:
    """Everything one invocation leaves: exit code, streams and written files."""
    shutil.copytree(inputs, where / "in")
    try:
        done = _cli(tree, args, where)
        seen: dict[str, object] = {
            "exit code": done.returncode,
            "stdout": done.stdout,
            "stderr": done.stderr,
        }
    except subprocess.TimeoutExpired:
        seen = {"exit code": f"timeout after {TIMEOUT_S} s"}
    for path in sorted(where.rglob("*")):
        rel = path.relative_to(where)
        if path.is_file() and rel.parts[0] != "in":
            seen[f"file {rel}"] = path.read_bytes()
    return seen


def _differences(a: dict[str, object], b: dict[str, object]) -> list[str]:
    out = []
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b:
            out.append(f"{key} written by {'CHANGE' if key in b else 'PARENT'} only")
        elif a[key] != b[key]:
            out.append(f"{key} differs")
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: byte_sweep.py PARENT CHANGE", file=sys.stderr)
        return 2
    trees = [Path(p).resolve() for p in argv]
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="byte_sweep_") as tmp:
        root = Path(tmp)
        inputs = root / "inputs"
        _write_inputs(trees[0], inputs)
        jobs = [
            (tree, case.split(), inputs, root / f"{side}{i}")
            for i, case in enumerate(CASES)
            for side, tree in zip("ab", trees)
        ]
        for *_, where in jobs:
            where.mkdir()
        with ThreadPoolExecutor(max_workers=2) as pool:
            seen = list(pool.map(lambda job: _run(*job), jobs))
    differing = 0
    for i, case in enumerate(CASES):
        for line in _differences(seen[2 * i], seen[2 * i + 1]):
            differing += 1
            print(f"[{i}] sparsecolour {case}: {line}")
    print(
        f"{len(CASES)} invocations per tree, {differing} differences, "
        f"{time.perf_counter() - start:.0f} s"
    )
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
