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
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional

from . import __version__
from .bounds import (
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
    ScheduleError,
    build_schedule,
    default_beta,
    greedy_complete,
    iterative_colour,
)
from .strong_edge import c5_blowup, strong_edge_colour

MAX_SEED = 2**64 - 1


def _jsonable(obj: Any) -> Any:
    """Convert report objects to JSON-serialisable structures."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {_key(k): _jsonable(v) for k, v in sorted(obj.items(), key=lambda kv: _key(kv[0]))}
    if isinstance(obj, (set, frozenset)):
        return [_jsonable(v) for v in sorted(obj)]
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    if callable(obj):
        return getattr(obj, "__name__", "<callable>")
    return str(obj)


def _key(k: Any) -> str:
    if isinstance(k, tuple):
        return ",".join(str(x) for x in k)
    return str(k)


def _emit(payload: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(payload)
    else:
        sys.stdout.write(payload)


def _report(config: dict, result: Any) -> str:
    doc = {
        "version": __version__,
        "config": _jsonable(config),
        "result": _jsonable(result),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _load_graph(path: str) -> Graph:
    text = Path(path).read_text()
    if path.endswith(".json"):
        from .graph import from_json_dict

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


def _check_seed(seed: int) -> int:
    if not 0 <= seed <= MAX_SEED:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return seed


def _seed_arg(value: str) -> int:
    return _check_seed(int(value))


def _positive_int(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {number}")
    return number


# -- subcommand implementations -------------------------------------------------


def _cmd_gen(args) -> int:
    sources = [
        args.c5_blowup is not None,
        args.random_regular is not None,
        args.gnp is not None,
        args.complete is not None,
        args.cycle is not None,
        args.path is not None,
        args.star is not None,
        args.petersen,
    ]
    if sum(sources) != 1:
        print("gen: exactly one generator must be selected", file=sys.stderr)
        return 2
    if args.c5_blowup is not None:
        g = c5_blowup(args.c5_blowup)
    elif args.random_regular is not None:
        n, d = args.random_regular
        g = random_regular_graph(n, d, args.seed)
    elif args.gnp is not None:
        n, p = args.gnp
        g = gnp_graph(int(n), p, args.seed)
    elif args.complete is not None:
        g = complete_graph(args.complete)
    elif args.cycle is not None:
        g = cycle_graph(args.cycle)
    elif args.path is not None:
        g = path_graph(args.path)
    elif args.star is not None:
        g = star_graph(args.star)
    else:
        g = petersen_graph()
    fmt = _output_format(args, "dimacs")
    if fmt == "json":
        _emit(json.dumps(to_json_dict(g), sort_keys=True, indent=2) + "\n", args.out)
    else:
        _emit(to_dimacs(g), args.out)
    return 0


def _cmd_color(args) -> int:
    g = _load_graph(args.input)
    k = args.k
    assignment = uniform_lists(g, k) if g.n else None
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
        _emit(_report(config, result), args.out)
        return 0
    max_deg = g.max_degree()
    if k > max_deg:
        completion = greedy_complete(g, assignment, {})
        result = {
            "ok": completion.ok,
            "mode": "greedy",
            "colours": completion.colouring,
            "numColoursUsed": len(set(completion.colouring.values())),
        }
        _emit(_report(config, result), args.out)
        return 0 if completion.ok else 1
    if max_deg < 2:
        completion = greedy_complete(g, assignment, {})
        result = {
            "ok": completion.ok,
            "mode": "greedy",
            "colours": completion.colouring,
            "failedAt": list(completion.failed_at),
        }
        _emit(_report(config, result), args.out)
        return 0 if completion.ok else 1
    delta = local_sparsity(g).delta
    eps_prime = 1.0 - k / (max_deg + 1)
    delta_prime = args.delta_prime if args.delta_prime is not None else 0.95 * delta
    try:
        beta = args.beta if args.beta is not None else default_beta(eps_prime, delta_prime)
        schedule = build_schedule(eps_prime, delta, beta, delta_prime, max_deg + 1)
    except (ScheduleError, BoundDomainError) as exc:
        result = {
            "ok": False,
            "mode": "iterative",
            "failureReason": f"schedule: {exc}",
            "delta": delta,
            "epsPrime": eps_prime,
        }
        _emit(_report(config, result), args.out)
        return 1
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
        "beta": beta,
        "iterationsPlanned": schedule.iterations,
        "rounds": outcome.rounds,
        "colours": outcome.colouring if outcome.ok else {},
        "numColoursUsed": len(set(outcome.colouring.values())) if outcome.ok else None,
        "failureReason": outcome.failure_reason,
        "failedIteration": outcome.failed_iteration,
    }
    _emit(_report(config, result), args.out)
    return 0 if outcome.ok else 1


def _cmd_strong_edge(args) -> int:
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
        "colours": {str(i): c for i, c in sorted(report.colours.items())},
        "edgeIndex": [list(e) for e in report.edge_index],
        "numColours": report.num_colours,
        "ratioToDeltaSq": report.ratio_to_delta_sq,
        "fCoreSize": report.f_core_size,
        "engineUsed": report.engine_used,
        "engineWarning": report.engine_warning,
        "valid": report.valid,
    }
    _emit(_report(config, result), args.out)
    return 0 if report.valid else 1


def _cmd_bounds(args) -> int:
    config = {"subcommand": f"bounds {args.bounds_cmd}"}
    if args.bounds_cmd == "table1":
        rows = alpha_eps_table(args.grid)
        fmt = _output_format(args, "csv")
        if fmt == "json":
            payload = _report(
                {**config, "grid": args.grid},
                [{"alpha": a, "eps": e} for a, e in rows],
            )
        else:
            payload = table_to_csv(rows)
        _emit(payload, args.out)
        return 0
    if args.bounds_cmd == "constants":
        _emit(_report(config, strong_edge_constants()), args.out)
        return 0
    if args.bounds_cmd == "condition":
        report = condition_check(args.eps, args.delta)
        _emit(_report({**config, "eps": args.eps, "delta": args.delta}, report), args.out)
        return 0
    if args.bounds_cmd == "savings":
        value = savings_rate(args.eps, args.delta)
        _emit(
            _report(
                {**config, "eps": args.eps, "delta": args.delta},
                {"savingsRate": value},
            ),
            args.out,
        )
        return 0
    if args.bounds_cmd == "approx-eps":
        value = approx_eps(args.delta, args.variant)
        _emit(
            _report(
                {**config, "delta": args.delta, "variant": args.variant},
                {"eps": value},
            ),
            args.out,
        )
        return 0
    print(f"bounds: unknown subcommand {args.bounds_cmd}", file=sys.stderr)
    return 2


def _cmd_simulate(args) -> int:
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
    fmt = _output_format(args, "json")
    if args.experiment == "mc":
        from .correspondence import totalize, truncate

        total = totalize(g, truncate(assignment, args.k))
        report = monte_carlo_round(g, total, args.trials, args.seed, threads=args.threads)
        if fmt == "csv":
            _emit(_mc_csv(report), args.out)
        else:
            _emit(_report(config, report), args.out)
        return 0
    report = residual_sparsity_experiment(
        g, assignment, rounds=args.rounds, trials=args.trials, seed=args.seed
    )
    if fmt == "csv":
        _emit(_sparsity_csv(report), args.out)
    else:
        _emit(_report(config, report), args.out)
    return 0


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


def _cmd_oracle(args) -> int:
    g = _load_graph(args.input)
    assignment = uniform_lists(g, args.k)
    config = {"subcommand": "oracle", "input": args.input, "k": args.k}
    result = enumerate_outcomes(g, assignment)
    _emit(_report(config, result), args.out)
    return 0


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    gen.add_argument("--petersen", action="store_true")
    gen.add_argument("--seed", type=_seed_arg, default=0)
    gen.add_argument("--out", type=str)
    gen.add_argument("--format", choices=["dimacs", "json"])
    gen.set_defaults(func=_cmd_gen)

    color = sub.add_parser("color", help="colour a graph with k colours per vertex")
    color.add_argument("--input", required=True)
    color.add_argument("--k", type=_positive_int, required=True)
    color.add_argument("--seed", type=_seed_arg, default=0)
    color.add_argument("--beta", type=float)
    color.add_argument("--delta-prime", type=float)
    color.add_argument("--max-restarts", type=_positive_int, default=200)
    color.add_argument("--profile", choices=["asymptotic", "practical"], default="practical")
    color.add_argument("--config", type=str)
    color.add_argument("--out", type=str)
    color.add_argument("--format", choices=["json"])
    color.set_defaults(func=_cmd_color)

    se = sub.add_parser("strong-edge", help="strong edge colouring pipeline")
    se.add_argument("--input", required=True)
    se.add_argument("--eta", type=float, default=0.164)
    se.add_argument("--seed", type=_seed_arg, default=0)
    se.add_argument("--max-restarts", type=_positive_int, default=200)
    se.add_argument("--config", type=str)
    se.add_argument("--out", type=str)
    se.add_argument("--format", choices=["json"])
    se.set_defaults(func=_cmd_strong_edge)

    bounds = sub.add_parser("bounds", help="closed-form bounds and tables")
    bsub = bounds.add_subparsers(dest="bounds_cmd", required=True)
    table1 = bsub.add_parser("table1", help="clique-ratio table (alpha, eps)")
    table1.add_argument("--grid", type=float, default=1e-4)
    table1.add_argument("--out", type=str)
    table1.add_argument("--format", choices=["csv", "json"])
    constants = bsub.add_parser("constants", help="strong-edge constants report")
    constants.add_argument("--out", type=str)
    condition = bsub.add_parser("condition", help="iteration feasibility check")
    condition.add_argument("--eps", type=float, required=True)
    condition.add_argument("--delta", type=float, required=True)
    condition.add_argument("--out", type=str)
    savings = bsub.add_parser("savings", help="repeated-colour savings rate")
    savings.add_argument("--eps", type=float, required=True)
    savings.add_argument("--delta", type=float, required=True)
    savings.add_argument("--out", type=str)
    approx = bsub.add_parser("approx-eps", help="polynomial sparsity-to-eps approximation")
    approx.add_argument("--delta", type=float, required=True)
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


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _apply_config_file(parser.parse_args(argv), parser, argv)
    try:
        return args.func(args)
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
