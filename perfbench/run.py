"""The sparsecolour benchmark.

  python3 perfbench/run.py --workload {mc,color,strong-edge} --seed N \
      --seconds S --trace {0,1} [--size {full,tiny}]

Run from anywhere; the package is imported from ``src/`` next to this
directory and nothing is installed or built.  Each workload runs in fresh
child processes, one at a time, single-threaded:

* ``--trace 0``: one measuring child between four set-up-only children;
  prints the end-to-end metrics (set-up time is the median of the five
  set-ups).
* ``--trace 1``: one child that runs each operation untraced and then
  traced; prints the per-layer metrics.

Gated times are scaled to a reference host speed measured next to them
(calibration.py).  Metric names and units come from BENCHMARK.json.  The last
stdout line is ``{"correct", "attempted", "failed", "metrics"}``; the line
before it holds details for a reader (report digests, per-operation times,
failures).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUPS_EACH_SIDE = 2
DEADLINE_S = 170.0
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(Exception):
    pass


def run_child(args, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--size", args.size, "--mode", mode]
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child")
    env = {**os.environ, **CHILD_ENV}
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{mode} child did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    # Set-up samples come before and after the measuring child, so that one
    # burst of contention on the host does not decide their median.
    before = [run_child(args, "setup", deadline) for _ in range(SETUPS_EACH_SIDE)]
    result = run_child(args, "measure", deadline)
    after = [run_child(args, "setup", deadline) for _ in range(SETUPS_EACH_SIDE)]
    setups = before + [result] + after
    attempted, failed = result["attempted"], result["failed"]
    values = {
        "setup_s": statistics.median(r["setup_scaled_s"] for r in setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "pass_rate": (attempted - failed) / attempted,
        "work_per_s": result["work_per_s"],
        "ok_rate": result["ok_rate"],
        "colours_saved": result["colours_saved"],
    }
    details = {k: v for k, v in result.items() if k not in values}
    details["setup_samples_s"] = [r["setup_s"] for r in setups]
    return values, details


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    result = run_child(args, "trace", deadline)
    details = {k: v for k, v in result.items() if k != "metrics"}
    return result["metrics"], details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sparsecolour benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    args = parser.parse_args(argv)
    deadline = monotonic() + DEADLINE_S
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "sparsecolour" / "cli.py").is_file():
        print(f"run.py: no sparsecolour sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        values, details = (per_layer if args.trace else end_to_end)(args, deadline)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"run.py: metrics not produced: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted, failed = details["attempted"], details["failed"]
    print(json.dumps({"workload": args.workload, "seed": args.seed, "details": details}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
