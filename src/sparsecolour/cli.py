"""Command line interface.

Subcommands: gen, color, strong-edge, bounds, simulate, oracle.  Reports are
deterministic for a fixed seed (no timestamps, sorted keys, fixed float
formatting) and embed the resolved configuration plus the package version,
so identical invocations produce byte-identical output regardless of the
worker thread count.

Exit codes: 0 success, 1 computational failure (e.g. restart exhaustion, an
infeasible schedule or running out of memory), 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import Any, Optional

from . import __version__
from .bounds import (
    STRONG_EDGE_ETA,
    BoundDomainError,
    alpha_eps_table,
    approx_eps,
    condition_check,
    savings_rate,
    strong_edge_constants,
    table_to_csv,
)
from .correspondence import uniform_lists
from .generators import (
    complete_graph,
    cycle_graph,
    gnp_graph,
    path_graph,
    petersen_graph,
    random_regular_graph,
    star_graph,
)
from .graph import (
    DimacsError,
    Graph,
    GraphError,
    from_json_dict,
    local_sparsity,
    parse_dimacs,
    to_dimacs,
    to_json_dict,
)
from .harness import (
    enumerate_outcomes,
    monte_carlo_round,
    residual_sparsity_experiment,
)
from .ncp import (
    MAX_RESTARTS,
    ScheduleError,
    build_schedule,
    greedy_complete,
    iterative_colour,
)
from .strong_edge import c5_blowup, strong_edge_colour

MAX_SEED = 2**64 - 1


# Exact types the C encoder writes as scalars; a Fraction is written "p/q".
_SCALARS = {str, int, float, bool, type(None), Fraction}
_FRACTION = "{0.numerator}/{0.denominator}".format


@functools.cache
def _encoder(depth: int):
    """C `encode` for scalars and containers of scalars at `depth`."""
    separators = (",\n" + "  " * depth, ": ")
    return json.JSONEncoder(separators=separators, sort_keys=True, default=_FRACTION).encode


def _key(k: Any) -> str:
    return ",".join(map(str, k)) if isinstance(k, tuple) else str(k)


def _ints(rows: Any, sep: str) -> str:
    """A row of %d joined by `sep` if rows (or keys) are lists or tuples of
    plain ints, not bools, all of one non-zero width; else ""."""
    widths = set(map(len, rows)) if set(map(type, rows)) <= {list, tuple} else ()
    ints = len(widths) == 1 and set(map(type, chain.from_iterable(rows))) <= {int}
    return sep.join(["%d"] * widths.pop()) if ints else ""


def _json(obj: Any, depth: int = 0) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2)` in one walk, with a
    dataclass as a dict of its fields, a Fraction as "p/q", a tuple key as
    "u,v" and any other key as `str(key)`; any other type is a TypeError."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        template = _ints(obj, ",")
        obj = dict(zip(map(template.__mod__ if template else _key, obj), obj.values()))
        items, brackets = obj.values(), "{}"
    elif isinstance(obj, (list, tuple)):
        items, brackets = obj, "[]"
    elif isinstance(obj, (str, int, float, Fraction)) or obj is None:
        return _encoder(0)(obj)
    else:
        raise TypeError(f"report value of type {type(obj).__name__} is not serialisable")
    inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    if set(map(type, items)) <= _SCALARS:  # one C call; then indent the brackets
        text = _encoder(depth + 1)(obj)
        return f"{text[0]}{inner}{text[1:-1]}{outer}{text[-1]}" if items else brackets
    if isinstance(obj, dict):
        body = [f"{_encoder(0)(k)}: {_json(v, depth + 1)}" for k, v in sorted(obj.items())]
    elif template := _ints(obj, f",{inner}  "):  # one %d template per row
        body = map(f"[{inner}  {template}{inner}]".__mod__, map(tuple, obj))
    else:
        body = [_json(v, depth + 1) for v in obj]
    return f"{brackets[0]}{inner}{(',' + inner).join(body)}{outer}{brackets[1]}"


def _emit(payload: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(payload)
    else:
        sys.stdout.write(payload)


def _report(config: dict, result: Any) -> str:
    return _json({"version": __version__, "config": config, "result": result}) + "\n"


def _load_graph(path: str) -> Graph:
    text = Path(path).read_text()
    if path.endswith(".json"):
        return from_json_dict(json.loads(text))
    return parse_dimacs(text)


def _output_format(args, default: str) -> str:
    fmt = getattr(args, "format", None)
    if fmt:
        return fmt
    out = getattr(args, "out", None)
    if out:
        suffix = Path(out).suffix.lstrip(".")
        if suffix in ("json", "csv", "dimacs", "col"):
            return "dimacs" if suffix == "col" else suffix
    return default


def _seed_arg(value: str) -> int:
    seed = int(value)
    if not 0 <= seed <= MAX_SEED:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return seed


def _finite_float(value: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {value!r}") from None
    if not math.isfinite(number):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {value!r}")
    return number


def _positive_int(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {number}")
    return number


def _refuse(message: str, code: int) -> tuple[None, int]:
    print(message, file=sys.stderr)
    return None, code


# -- subcommand implementations -------------------------------------------------
#
# Each takes the parsed arguments and returns (payload, exit code); main
# writes the payload, if any, to --out or stdout.


def _at_least(low: int):
    return lambda n: f"must be at least {low}, got {n}" if n < low else None


def _regular_error(size) -> Optional[str]:
    n, d = size
    if not 0 <= d < n:
        return f"needs 0 <= D < N, got N={n} D={d}"
    if n * d % 2:
        return f"needs N*D even, got N={n} D={d}"
    return None


def _gnp_error(size) -> Optional[str]:
    n, p = size
    if not (n >= 0 and n.is_integer()):
        return f"N must be a non-negative integer, got {n:g}"
    if not 0 <= p <= 1:
        return f"P must lie in [0, 1], got {p:g}"
    return None


def _pairs(n) -> int:
    n = int(n)
    return n * (n - 1) // 2


GEN_EDGE_CAP = 2_000_000
GEN_DRAW_CAP = 50_000_000

# gen flag -> (size error, edge estimate, build), each a function of the
# flag's value; build also takes the seed.  The size error returns why
# the value is out of range, or None (--petersen takes no size).  The
# estimate (expected edges for --gnp) is checked against GEN_EDGE_CAP before
# anything is generated.
GENERATORS = {
    "--c5-blowup": (_at_least(1), lambda k: 5 * k**2, lambda k, seed: c5_blowup(k)),
    "--random-regular": (
        _regular_error,
        lambda nd: nd[0] * nd[1] // 2,
        lambda nd, seed: random_regular_graph(*nd, seed),
    ),
    "--gnp": (
        _gnp_error,
        lambda np_: round(np_[1] * _pairs(np_[0])),
        lambda np_, seed: gnp_graph(int(np_[0]), np_[1], seed),
    ),
    "--complete": (_at_least(0), _pairs, lambda n, seed: complete_graph(n)),
    "--cycle": (_at_least(3), lambda n: n, lambda n, seed: cycle_graph(n)),
    "--path": (_at_least(0), lambda n: max(n - 1, 0), lambda n, seed: path_graph(n)),
    "--star": (_at_least(0), lambda n: n, lambda n, seed: star_graph(n)),
    "--petersen": (None, lambda _: 15, lambda _, seed: petersen_graph()),
}


def _cmd_gen(args) -> tuple[Optional[str], int]:
    # `is not None`, not truthiness: --star 0 and --path 0 are generators too.
    chosen = [
        (flag, value)
        for flag in GENERATORS
        if (value := getattr(args, flag[2:].replace("-", "_"))) is not None
    ]
    if len(chosen) != 1:
        return _refuse("gen: exactly one generator must be selected", 2)
    [(flag, value)] = chosen
    size_error, edge_estimate, build = GENERATORS[flag]
    error = size_error(value) if size_error else None
    if error:
        return _refuse(f"gen: {flag} {error}", 2)
    draws = _pairs(value[0]) if flag == "--gnp" else 0
    if draws > GEN_DRAW_CAP:
        return _refuse(
            f"gen: --gnp would make {draws} random draws, above the cap of {GEN_DRAW_CAP} draws", 1
        )
    edges = edge_estimate(value)
    if edges > GEN_EDGE_CAP:
        return _refuse(
            f"gen: graph would have about {edges} edges, above the cap of {GEN_EDGE_CAP} edges", 1
        )
    g = build(value, args.seed)
    if _output_format(args, "dimacs") == "json":
        return _json(to_json_dict(g)) + "\n", 0
    return to_dimacs(g), 0


def _cmd_color(args) -> tuple[str, int]:
    g = _load_graph(args.input)
    k = args.k
    config = {
        "subcommand": "color",
        "input": args.input,
        "k": k,
        "seed": args.seed,
        "beta": args.beta,
        "deltaPrime": args.delta_prime,
        "maxRestarts": args.max_restarts,
        "profile": args.profile,
    }
    if g.n == 0:
        result = {"ok": True, "colours": {}, "numColoursUsed": 0, "mode": "empty"}
        return _report(config, result), 0
    assignment = uniform_lists(g, k)
    max_deg = g.max_degree()
    if k > max_deg or max_deg < 2:
        completion = greedy_complete(g, assignment)
        result = {"ok": completion.ok, "mode": "greedy", "colours": completion.colouring}
        if k > max_deg:
            result["numColoursUsed"] = len(set(completion.colouring.values()))
        else:  # max_deg < 2
            result["failedAt"] = list(completion.failed_at)
        return _report(config, result), 0 if completion.ok else 1
    delta = local_sparsity(g).delta
    eps_prime = 1.0 - k / (max_deg + 1)
    try:
        schedule = build_schedule(eps_prime, delta, args.beta, args.delta_prime)
    except (ScheduleError, BoundDomainError) as exc:
        result = {
            "ok": False,
            "mode": "iterative",
            "failureReason": f"schedule: {exc}",
            "delta": delta,
            "epsPrime": eps_prime,
        }
        return _report(config, result), 1
    outcome = iterative_colour(
        g,
        assignment,
        schedule,
        args.seed,
        max_restarts=args.max_restarts,
        profile=args.profile,
    )
    result = {
        "ok": outcome.ok,
        "mode": "iterative",
        "delta": delta,
        "epsPrime": eps_prime,
        "beta": schedule.beta,
        "iterationsPlanned": schedule.iterations,
        "rounds": outcome.rounds,
        "colours": outcome.colouring if outcome.ok else {},
        "numColoursUsed": len(set(outcome.colouring.values())) if outcome.ok else None,
        "failureReason": outcome.failure_reason,
        "failedIteration": outcome.failed_iteration,
    }
    return _report(config, result), 0 if outcome.ok else 1


def _cmd_strong_edge(args) -> tuple[str, int]:
    g = _load_graph(args.input)
    config = {
        "subcommand": "strong-edge",
        "input": args.input,
        "eta": args.eta,
        "seed": args.seed,
        "maxRestarts": args.max_restarts,
    }
    report = strong_edge_colour(g, eta=args.eta, seed=args.seed, max_restarts=args.max_restarts)
    result = {
        "colours": report.colours,
        "edgeIndex": report.edge_index,
        "numColours": report.num_colours,
        "ratioToDeltaSq": report.ratio_to_delta_sq,
        "fCoreSize": report.f_core_size,
        "engineUsed": report.engine_used,
        "engineWarning": report.engine_warning,
        "valid": report.valid,
    }
    return _report(config, result), 0 if report.valid else 1


# bounds subcommand -> (the options its config records, its result).
BOUNDS = {
    "constants": ((), lambda a: strong_edge_constants()),
    "condition": (("eps", "delta"), lambda a: condition_check(a.eps, a.delta)),
    "savings": (("eps", "delta"), lambda a: {"savingsRate": savings_rate(a.eps, a.delta)}),
    "approx-eps": (("delta", "variant"), lambda a: {"eps": approx_eps(a.delta, a.variant)}),
}


def _cmd_bounds(args) -> tuple[str, int]:
    config = {"subcommand": f"bounds {args.bounds_cmd}"}
    if args.bounds_cmd == "table1":
        rows = alpha_eps_table(args.grid)
        if _output_format(args, "csv") == "json":
            config["grid"] = args.grid
            return _report(config, [{"alpha": a, "eps": e} for a, e in rows]), 0
        return table_to_csv(rows), 0
    options, result = BOUNDS[args.bounds_cmd]
    config.update((name, getattr(args, name)) for name in options)
    return _report(config, result(args)), 0


def _cmd_simulate(args) -> tuple[str, int]:
    g = _load_graph(args.input)
    assignment = uniform_lists(g, args.k)
    # Thread count is deliberately not embedded: results are exactly
    # thread-invariant and reports must be byte-identical across --threads.
    config = {
        "subcommand": "simulate",
        "experiment": args.experiment,
        "input": args.input,
        "k": args.k,
        "trials": args.trials,
        "rounds": args.rounds,
        "seed": args.seed,
    }
    if args.experiment == "mc":
        report = monte_carlo_round(g, assignment, args.trials, args.seed, threads=args.threads)
        to_csv = _mc_csv
    else:
        report = residual_sparsity_experiment(
            g, assignment, rounds=args.rounds, trials=args.trials, seed=args.seed
        )
        to_csv = _sparsity_csv
    if _output_format(args, "json") == "csv":
        return to_csv(report), 0
    return _report(config, report), 0


def _mc_csv(report) -> str:
    lines = ["vertex,keep_mean,keep_se,keep_expected,keep_z,pairs_mean,pairs_se,triples_mean,triples_se"]
    for u in range(len(report.keep_mean)):
        lines.append(
            f"{u},{report.keep_mean[u]!r},{report.keep_se[u]!r},"
            f"{report.keep_expected[u]!r},{report.keep_z[u]!r},"
            f"{report.pairs_mean[u]!r},{report.pairs_se[u]!r},"
            f"{report.triples_mean[u]!r},{report.triples_se[u]!r}"
        )
    return "\n".join(lines) + "\n"


def _sparsity_csv(report) -> str:
    lines = ["trial,round,residual_vertices,residual_max_degree,residual_delta,delta_ratio,quasirandom_worst"]
    for t, trial in enumerate(report.trial_rounds):
        for row in trial:
            lines.append(
                f"{t},{row.round_index},{row.residual_vertices},"
                f"{row.residual_max_degree},"
                f"{'' if row.residual_delta is None else repr(row.residual_delta)},"
                f"{'' if row.delta_ratio is None else repr(row.delta_ratio)},"
                f"{row.quasirandom_worst!r}"
            )
    return "\n".join(lines) + "\n"


def _cmd_oracle(args) -> tuple[str, int]:
    g = _load_graph(args.input)
    assignment = uniform_lists(g, args.k)
    config = {"subcommand": "oracle", "input": args.input, "k": args.k}
    return _report(config, enumerate_outcomes(g, assignment)), 0


# -- parser ----------------------------------------------------------------------


def _apply_config_file(
    args: argparse.Namespace, parser: argparse.ArgumentParser, argv: list[str]
) -> argparse.Namespace:
    """Parse again with the --config JSON values as flags ahead of the
    command line's own: flags win, the file comes next, defaults lose.

    Every value goes through its flag's type and checks, so a bad one is a
    usage error; keys that name no option of the subcommand are ignored.
    """
    path = getattr(args, "config", None)
    if not path:
        return args
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config file {path}: {exc}")
    if not isinstance(data, dict):
        parser.error(f"config file {path}: expected a JSON object")
    flags = []
    for key, value in data.items():
        dest = key.replace("-", "_")
        if dest in ("command", "func") or not hasattr(args, dest):
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            parser.error(f"config file {path}: {key} must be a number or a string")
        flags.append(f"--{dest.replace('_', '-')}={value}")
    return parser.parse_args([argv[0], *flags, *argv[1:]])


class _Parser(argparse.ArgumentParser):
    """Usage errors in one line, without the usage block."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sparsecolour",
        description="Randomised colouring of locally sparse graphs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a graph")
    gen.add_argument("--c5-blowup", type=int, metavar="K")
    gen.add_argument("--random-regular", type=int, nargs=2, metavar=("N", "D"))
    gen.add_argument("--gnp", type=float, nargs=2, metavar=("N", "P"))
    gen.add_argument("--complete", type=int, metavar="N")
    gen.add_argument("--cycle", type=int, metavar="N")
    gen.add_argument("--path", type=int, metavar="N")
    gen.add_argument("--star", type=int, metavar="LEAVES")
    gen.add_argument("--petersen", action="store_const", const=True)
    gen.add_argument("--seed", type=_seed_arg, default=0)
    gen.add_argument("--out", type=str)
    gen.add_argument("--format", choices=["dimacs", "json"])
    gen.set_defaults(func=_cmd_gen)

    color = sub.add_parser("color", help="colour a graph with k colours per vertex")
    color.add_argument("--input", required=True)
    color.add_argument("--k", type=_positive_int, required=True)
    color.add_argument("--seed", type=_seed_arg, default=0)
    color.add_argument("--beta", type=_finite_float)
    color.add_argument("--delta-prime", type=_finite_float)
    color.add_argument("--max-restarts", type=_positive_int, default=MAX_RESTARTS)
    color.add_argument("--profile", choices=["asymptotic", "practical"], default="practical")
    color.add_argument("--config", type=str)
    color.add_argument("--out", type=str)
    color.set_defaults(func=_cmd_color)

    se = sub.add_parser("strong-edge", help="strong edge colouring pipeline")
    se.add_argument("--input", required=True)
    se.add_argument("--eta", type=_finite_float, default=STRONG_EDGE_ETA)
    se.add_argument("--seed", type=_seed_arg, default=0)
    se.add_argument("--max-restarts", type=_positive_int, default=MAX_RESTARTS)
    se.add_argument("--config", type=str)
    se.add_argument("--out", type=str)
    se.set_defaults(func=_cmd_strong_edge)

    bounds = sub.add_parser("bounds", help="closed-form bounds and tables")
    bsub = bounds.add_subparsers(dest="bounds_cmd", required=True)
    table1 = bsub.add_parser("table1", help="clique-ratio table (alpha, eps)")
    table1.add_argument("--grid", type=_finite_float, default=1e-4)
    table1.add_argument("--out", type=str)
    table1.add_argument("--format", choices=["csv", "json"])
    constants = bsub.add_parser("constants", help="strong-edge constants report")
    constants.add_argument("--out", type=str)
    condition = bsub.add_parser("condition", help="iteration feasibility check")
    condition.add_argument("--eps", type=_finite_float, required=True)
    condition.add_argument("--delta", type=_finite_float, required=True)
    condition.add_argument("--out", type=str)
    savings = bsub.add_parser("savings", help="repeated-colour savings rate")
    savings.add_argument("--eps", type=_finite_float, required=True)
    savings.add_argument("--delta", type=_finite_float, required=True)
    savings.add_argument("--out", type=str)
    approx = bsub.add_parser("approx-eps", help="polynomial sparsity-to-eps approximation")
    approx.add_argument("--delta", type=_finite_float, required=True)
    approx.add_argument("--variant", choices=["ours", "bruhn_joos"], default="ours")
    approx.add_argument("--out", type=str)
    for p in (table1, constants, condition, savings, approx):
        p.set_defaults(func=_cmd_bounds)

    sim = sub.add_parser("simulate", help="Monte Carlo and sparsity experiments")
    sim.add_argument("--input", required=True)
    sim.add_argument("--k", type=_positive_int, required=True)
    sim.add_argument("--experiment", choices=["mc", "sparsity"], default="mc")
    sim.add_argument("--trials", type=_positive_int, default=1000)
    sim.add_argument("--rounds", type=_positive_int, default=3)
    sim.add_argument("--seed", type=_seed_arg, default=0)
    sim.add_argument("--threads", type=_positive_int, default=1)
    sim.add_argument("--config", type=str)
    sim.add_argument("--out", type=str)
    sim.add_argument("--format", choices=["json", "csv"])
    sim.set_defaults(func=_cmd_simulate)

    oracle = sub.add_parser("oracle", help="exhaustive outcome-space oracle")
    oracle.add_argument("--input", required=True)
    oracle.add_argument("--k", type=_positive_int, required=True)
    oracle.add_argument("--out", type=str)
    oracle.set_defaults(func=_cmd_oracle)

    return parser


# Built once per process: a caller may run main many times, and the tree
# takes a few milliseconds to build, a tenth of a small `color` command.
_PARSER = build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _apply_config_file(_PARSER.parse_args(argv), _PARSER, argv)
    try:
        payload, code = args.func(args)
        if payload is not None:
            _emit(payload, args.out)
        return code
    except (DimacsError, GraphError, BoundDomainError, ValueError) as exc:
        print(f"sparsecolour: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("sparsecolour: out of memory", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"sparsecolour: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
