#!/usr/bin/env python3
"""Compare the command line's bytes between two source trees.

    python tools/byte_sweep.py PARENT CHANGE

PARENT and CHANGE are checkouts of this repository.  Every invocation in
CASES runs once per tree as ``python -m sparsecolour.cli ...`` with that
tree's ``src`` as PYTHONPATH, each in a fresh directory that holds the same
inputs under ``in/``.  The exit code, stdout, stderr and every file the run
writes are compared.  Each difference is printed on one line, then a summary;
the exit status is 1 if anything differed.

The inputs are written once: the files in INPUT_GEN by PARENT's own ``gen``,
those in INPUT_TEXT from the texts below (the PG(2, 7) incidence graph from
``_projective_plane``, which ``gen`` has no generator for).  No input here
makes either tree allocate without bound; check such inputs on one tree
alone.
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
    "rr100_8.col": ["--random-regular", "100", "8", "--seed", "1"],
    "rr30_6.col": ["--random-regular", "30", "6", "--seed", "3"],
    "rr60_6.json": ["--random-regular", "60", "6", "--seed", "2", "--format", "json"],
    "gnp50.col": ["--gnp", "50", "0.1", "--seed", "4"],
    "petersen.col": ["--petersen"],
    "star25.col": ["--star", "25"],
    "path2.col": ["--path", "2"],
    "cycle4.col": ["--cycle", "4"],
    "pentagon_été.col": ["--c5-blowup", "3"],
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


# Input file -> its text.
INPUT_TEXT = {
    "pg7.col": _projective_plane(7),
    "empty.col": "p edge 0 0\n",
    "edgeless.col": "p edge 4 0\n",
    "bad_record.col": "p edge 3 1\nx 1 2\n",
    "self_loop.col": "p edge 3 1\ne 2 2\n",
    "bad.json": "{not json",
    "bad_shape.json": '{"n": -1}',
    "cfg.json": '{"seed": 4, "max_restarts": 50}',
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
    "color --input in/c5_8.col --k 16 --beta 0",
    "color --input in/c5_8.col --k 16 --delta-prime 7",
    "color --input in/c5_8.col --k 16 --beta 0.001 --delta-prime 0.5",
    "color --input in/c5_8.col --k 16 --beta 0.00001",
    "color --input in/star25.col --k 24",
    "color --input in/star25.col --k 20000",
    "color --input in/edgeless.col --k 100000",
    "color --input in/c5_3.col --k 6 --config in/cfg.json",
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
    # bounds: all five subcommands
    "bounds table1",
    "bounds table1 --format json --grid 0.001",
    "bounds constants",
    "bounds condition --eps 0.05 --delta 0.9",
    "bounds condition --eps 0.6 --delta -1",
    "bounds savings --eps 0.05 --delta 0.9 --out s.json",
    "bounds approx-eps --delta 0.24 --variant bruhn_joos",
    "bounds approx-eps --delta 0.5",
    # simulate: mc and sparsity, JSON and CSV, one and two threads
    "simulate --input in/rr30_6.col --k 5 --trials 100 --seed 1",
    "simulate --input in/rr30_6.col --k 5 --trials 1",
    "simulate --input in/rr30_6.col --k 5 --trials 100 --format csv",
    "simulate --input in/rr30_6.col --k 5 --trials 130 --threads 2 --out mc.json",
    "simulate --input in/c5_3.col --k 7 --trials 65 --threads 2 --format csv",
    "simulate --input in/rr30_6.col --k 5 --experiment sparsity --trials 3 --rounds 2",
    "simulate --input in/rr30_6.col --k 5 --experiment sparsity --trials 2 --format csv",
    "simulate --input in/c5_3.col --k 8 --experiment sparsity --trials 2 --threads 2 --out sp.csv",
    "simulate --input in/petersen.col --k 3 --experiment sparsity --trials 2",
    "simulate --input in/gnp50.col --k 3 --experiment sparsity",
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
]

TIMEOUT_S = 300


def _cli(tree: Path, args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run(
        [sys.executable, "-m", "sparsecolour.cli", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        timeout=TIMEOUT_S,
    )


def _write_inputs(tree: Path, inputs: Path) -> None:
    inputs.mkdir()
    for name, args in INPUT_GEN.items():
        _cli(tree, ["gen", *args, "--out", str(inputs / name)], inputs).check_returncode()
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
