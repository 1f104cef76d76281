"""One workload in one fresh process: set up, run the closed loop, report.

Started by ``run.py``; prints one JSON object as its last stdout line.

  --mode setup    import, generate and load the inputs, report setup_s only;
  --mode measure  then run the operations, untraced, until --seconds have
                  passed, and report the end-to-end figures;
  --mode trace    run each operation untraced and then traced until
                  --seconds have passed, and report the per-layer figures.

Operations run back to back on one thread, cycling through the workload's
fixed operation list (a round), so every round does the same work.
"""

from __future__ import annotations

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from calibration import REFERENCE_S, Calibration  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program():
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("sparsecolour.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"imported sparsecolour from {cli.__file__}, not from {SRC}")
    return cli


class Runner:
    def __init__(self, args):
        self.args = args
        inputs, self.ops = workloads.plan(args.workload, args.seed, args.size)
        self.cli = _import_program()
        self.gen_s = 0.0
        self.hosts: dict[str, workloads.Host] = {}
        for spec in inputs:
            module, name = spec.generator.split(".")
            generate = getattr(importlib.import_module(f"sparsecolour.{module}"), name)
            t = perf_counter()
            g = generate(*spec.args)
            self.gen_s += perf_counter() - t
            host = workloads.Host(g.n, list(g.edges()))
            Path(spec.path).write_text(workloads.to_dimacs(host.n, host.edges))
            loaded = self.cli._load_graph(spec.path)
            if sorted(loaded.edges()) != host.edges:
                raise SystemExit(f"{spec.path}: the program read back other edges")
            self.hosts[spec.path] = host
        self.setup_s = perf_counter() - STARTED
        self.calibration = Calibration()
        self.setup_scaled_s = self.setup_s * REFERENCE_S / self.calibration.median(5)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digest: dict[str, str] = {}
        self.verdict: dict[str, workloads.Verdict] = {}

    def run_op(self, op, call) -> float:
        """Run one operation through `call`, check it, return its wall time."""
        if os.path.exists(workloads.REPORT):
            os.remove(workloads.REPORT)
        argv = list(op.argv)
        t = perf_counter()
        try:
            rc = call(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # the loop must go on; the failure is counted
            print(f"{op.key}: {exc!r}", file=sys.stderr)
            rc = None
        elapsed = perf_counter() - t
        self.attempted += 1
        report = Path(workloads.REPORT).read_bytes() if os.path.exists(workloads.REPORT) else None
        digest = hashlib.sha256(report).hexdigest() if report is not None else ""
        if op.key not in self.verdict:
            self.digest[op.key] = digest
            self.verdict[op.key] = workloads.check(op, self.hosts[op.input], rc, report)
            verdict = self.verdict[op.key]
        elif digest != self.digest[op.key]:
            verdict = workloads.Verdict(False, False, 0.0, "report differs from the first run")
        else:
            verdict = self.verdict[op.key]
        if not verdict.passed:
            self.failed += 1
            self.failures.append(f"{op.key}: {verdict.reason}")
        return elapsed

    def timed_ops(self):
        """The operation list, cycled until --seconds have passed and every
        operation has run at least once."""
        start = perf_counter()
        i = 0
        while i < len(self.ops) or perf_counter() - start < self.args.seconds:
            yield self.ops[i % len(self.ops)]
            i += 1

    def work(self, op) -> int:
        return op.work or len(self.hosts[op.input].edges)

    def quality(self) -> dict:
        verdicts = [self.verdict[op.key] for op in self.ops]
        info = {}
        for v in verdicts:
            for name, value in v.info:
                info.setdefault(name, []).append(value)
        return {
            "ok_rate": sum(v.ok for v in verdicts) / len(verdicts),
            "colours_saved": statistics.fmean(v.saved for v in verdicts),
            **{name: statistics.fmean(values) for name, values in info.items()},
        }

    def common(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures[:10],
            "setup_s": self.setup_s,
            "setup_scaled_s": self.setup_scaled_s,
            "report_sha256": self.digest,
        }

    def measure(self) -> dict:
        raw: dict[str, list[float]] = {op.key: [] for op in self.ops}
        scaled: dict[str, list[float]] = {op.key: [] for op in self.ops}
        before = self.calibration.time()
        for op in self.timed_ops():
            elapsed = self.run_op(op, self.cli.main)
            after = self.calibration.time()
            raw[op.key].append(elapsed)
            # The host's speed during the operation is taken from the
            # calibration runs just before and just after it.
            scaled[op.key].append(elapsed * REFERENCE_S / ((before + after) / 2))
            before = after
        # Each operation's median time, summed: the time of a typical round,
        # robust to a stall in any one operation.
        work = sum(self.work(op) for op in self.ops)
        medians = {key: statistics.median(t) for key, t in scaled.items()}
        raw_round = sum(statistics.median(t) for t in raw.values())
        return {
            **self.common(),
            **self.quality(),
            "rounds": min(len(t) for t in raw.values()),
            "op_median_scaled_s": medians,
            "work_per_s": work / sum(medians.values()),
            "work_per_s_unscaled": work / raw_round,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def trace(self) -> dict:
        import tracing

        tracer = tracing.Tracer()
        ops_done = [0]

        def traced_main(argv):
            ops_done[0] += 1
            return tracer.call(ops_done[0], self.cli.main, argv)

        # Each operation runs untraced and then traced, so the two walls
        # compare the same work at nearly the same moment.
        untraced = traced = 0.0
        for op in self.timed_ops():
            untraced += self.run_op(op, self.cli.main)
            tracer.install()
            try:
                traced += self.run_op(op, traced_main)
            finally:
                tracer.uninstall()
        n = ops_done[0]
        self_times = tracer.self_times()
        counts = tracer.counts
        metrics = {name: self_times.get(name, 0.0) / n for name in set(tracer.metric_of.values())}
        for name in ("ncp.compiled_vertices", "ncp.pair_rows", "ncp.rounds_drawn",
                     "ncp.restarts", "strong_edge.square_edges", "strong_edge.core_size",
                     "cli.report_bytes"):
            metrics[name] = counts[name] / n
        metrics["ncp.regularised_vertices_max"] = counts["ncp.regularised_vertices_max"]
        drawn = counts["ncp.rounds_drawn"]
        metrics["ncp.accept_ratio"] = counts["ncp.accepted"] / drawn if drawn else 0.0
        metrics["generators.gen_s"] = self.gen_s
        metrics["trace.wall_s"] = untraced / n
        metrics["trace.self_sum_s"] = sum(self_times.values()) / n
        metrics["trace.overhead_s"] = (traced - untraced) / n
        metrics["trace.spans"] = len(tracer.spans) / n
        out = ROOT / ".perfbench_out" / f"spans-{self.args.workload}-{self.args.seed}.jsonl"
        tracer.write(out)
        return {**self.common(), "traced_ops": n, "spans_file": str(out.relative_to(ROOT)),
                "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = parser.parse_args()
    work_dir = ROOT / ".perfbench_out" / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(work_dir)
    try:
        runner = Runner(args)
        if args.mode == "setup":
            result = {"setup_s": runner.setup_s, "setup_scaled_s": runner.setup_scaled_s}
        elif args.mode == "measure":
            result = runner.measure()
        else:
            result = runner.trace()
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
