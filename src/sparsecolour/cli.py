"""Command line interface.

Subcommands: gen, color, strong-edge, bounds, simulate, oracle.  Reports are
deterministic for a fixed seed (no timestamps, sorted keys, fixed float
formatting) and embed the resolved configuration plus the package version,
so identical invocations produce byte-identical output.

Exit codes: 0 success, 1 computational failure (e.g. restart exhaustion, an
infeasible schedule, an input past the memory budget or running out of
memory), 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import operator
import sys
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import Any, Optional

import numpy as np

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
from .budget import BudgetError
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
    GEN_BYTES,
    Graph,
    check_graph,
    local_sparsity,
    parse_dimacs,
    parse_json,
    to_dimacs,
    to_json_dict,
)
from .harness import enumerate_outcomes, monte_carlo_round
from .ncp import (
    MAX_RESTARTS,
    ScheduleError,
    build_schedule,
    greedy_complete,
    iterative_colour,
    residual_sparsity_experiment,
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


def _int_map(obj: dict, depth: int) -> str:
    """`_json(obj, depth)` in one `%` template if every key of `obj` is an
    int in [0, 10**15) and every value an int, none a bool; else "".  The
    keys sort as their strings do: left-aligned to the widest digit count,
    then by digit count, in one lexsort.  The values stay Python ints."""
    head = next(iter(obj.items()), ())  # typed before any scan of `obj`
    if set(map(type, head)) != {int} or set(map(type, chain(obj, obj.values()))) != {int}:
        return ""
    try:
        keys = np.fromiter(obj, np.int64, len(obj))
    except OverflowError:
        return ""
    if keys.min() < 0 or keys.max() >= 10**15:
        return ""
    digits = np.searchsorted(10 ** np.arange(1, 16), keys, "right") + 1
    order = np.lexsort((digits, keys * 10 ** (digits.max() - digits)))
    values = list(obj.values())
    rows = [0] * (2 * len(values))
    rows[::2], rows[1::2] = keys[order].tolist(), map(values.__getitem__, order.tolist())
    inner = "\n" + "  " * (depth + 1)
    text = ("," + inner).join(['"%d": %d'] * len(values)) % tuple(rows)
    return f"{{{inner}{text}\n{'  ' * depth}}}"


_BOOLS = ("false", "true")


def _records(rows: Any, depth: int) -> str:
    """`_json(rows, depth)` in one `%` template if `rows` are instances of
    one dataclass with fields, each of which holds a plain int in every row
    or a bool in every row; else "".  The fields are written in name order,
    an int as %d and a bool as true or false."""
    kind = type(rows[0]) if rows else None
    if not dataclasses.is_dataclass(kind) or any(type(row) is not kind for row in rows):
        return ""
    names = sorted(f.name for f in dataclasses.fields(kind))
    if not names:
        return ""
    columns, formats = [], []
    for name in names:
        column = list(map(operator.attrgetter(name), rows))
        kinds = set(map(type, column))
        if kinds == {int}:
            formats.append("%d")
        elif kinds == {bool}:
            formats.append("%s")
            column = list(map(_BOOLS.__getitem__, column))
        else:
            return ""
        columns.append(column)
    inner, field = "\n" + "  " * (depth + 1), "\n" + "  " * (depth + 2)
    keys = [_encoder(0)(name).replace("%", "%%") for name in names]
    record = "{" + field + ("," + field).join(map("%s: %s".__mod__, zip(keys, formats)))
    text = ("," + inner).join([record + inner + "}"] * len(rows))
    return f"[{inner}{text % tuple(chain.from_iterable(zip(*columns)))}\n{'  ' * depth}]"


def _json(obj: Any, depth: int = 0, memo: Optional[dict] = None) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2)` in one walk, with a
    dataclass as a dict of its fields, a Fraction as "p/q", a tuple key as
    "u,v" and any other key as `str(key)`; any other type is a TypeError.
    An int -> int dict, such as a colouring, is one template (`_int_map`),
    and so is a list or tuple of flat int and bool records, such as a
    round's vertex records (`_records`).
    Dicts with the same key objects in the same order, such as a Monte
    Carlo report's common-uncoloured means and errors, format them once:
    `memo` maps such keys to their strings for the one top-level call,
    which empties it before it joins the text, so that the strings and the
    text are not held at once."""
    top = memo is None
    if top:
        memo = {}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        if text := _int_map(obj, depth):
            return text
        if any(issubclass(kind, tuple) for kind in set(map(type, obj))):
            keys = tuple(obj)
            hit = memo.get(keys)
            # Equal keys need not print alike, as 1 == True: only the same
            # objects reuse their strings.
            if hit is None or not all(map(operator.is_, hit[0], keys)):
                template = _ints(keys, ",")
                hit = memo[keys] = keys, list(map(template.__mod__ if template else _key, keys))
            obj = dict(zip(hit[1], obj.values()))
        else:
            obj = dict(zip(map(str, obj), obj.values()))  # as `_key` writes it
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
        body = [f"{_encoder(0)(k)}: {_json(v, depth + 1, memo)}" for k, v in sorted(obj.items())]
    elif text := _records(obj, depth):
        return text
    elif template := _ints(obj, f",{inner}  "):  # one % over a template per row
        rows = (',' + inner).join([f"[{inner}  {template}{inner}]"] * len(obj))
        body = [rows % tuple(chain.from_iterable(obj))]
    else:
        body = [_json(v, depth + 1, memo) for v in obj]
    if top:
        memo.clear()
    return f"{brackets[0]}{inner}{(',' + inner).join(body)}{outer}{brackets[1]}"


def _emit(payload: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(payload)
    else:
        sys.stdout.write(payload)


def _report(config: dict, result: Any) -> str:
    return _json({"version": __version__, "config": config, "result": result}) + "\n"


def _camel(name: str) -> str:
    head, *rest = name.split("_")
    return head + "".join(map(str.capitalize, rest))


# Options that say where or how a report is written, or that are ignored
# (`simulate --threads`), and argparse's own entries: no report records them.
_UNRECORDED = {"command", "bounds_cmd", "func", "config", "out", "format", "threads"}


def _config(args) -> dict:
    """The report's config: the subcommand and every other parsed option,
    camelCased, so that a report records exactly the options it ran with."""
    config = {_camel(k): v for k, v in vars(args).items() if k not in _UNRECORDED}
    command = args.command
    config["subcommand"] = f"{command} {args.bounds_cmd}" if command == "bounds" else command
    return config


def _load_graph(path: str) -> Graph:
    text = Path(path).read_text()
    return parse_json(text) if path.endswith(".json") else parse_dimacs(text)


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


GEN_DRAW_CAP = 50_000_000

# gen flag -> (argparse keywords, size error, shape, build); the last three
# are functions of the flag's value, and build also takes the seed.  The
# size error returns why the value is out of range, or None (--petersen
# takes no size).  The shape, (vertices, edges) with expected edges for
# --gnp, is checked against the memory budget before anything is generated,
# at bytes per vertex and edge no fewer than the loaders', so that a graph
# `gen` writes always loads.
GENERATORS = {
    "--c5-blowup": (
        {"type": int, "metavar": "K"}, _at_least(1),
        lambda k: (5 * k, 5 * k**2), lambda k, seed: c5_blowup(k),
    ),
    "--random-regular": (
        {"type": int, "nargs": 2, "metavar": ("N", "D")}, _regular_error,
        lambda nd: (nd[0], nd[0] * nd[1] // 2), lambda nd, seed: random_regular_graph(*nd, seed),
    ),
    "--gnp": (
        {"type": float, "nargs": 2, "metavar": ("N", "P")}, _gnp_error,
        lambda np_: (int(np_[0]), round(np_[1] * _pairs(np_[0]))),
        lambda np_, seed: gnp_graph(int(np_[0]), np_[1], seed),
    ),
    "--complete": (
        {"type": int, "metavar": "N"}, _at_least(0),
        lambda n: (n, _pairs(n)), lambda n, seed: complete_graph(n),
    ),
    "--cycle": (
        {"type": int, "metavar": "N"}, _at_least(3),
        lambda n: (n, n), lambda n, seed: cycle_graph(n),
    ),
    "--path": (
        {"type": int, "metavar": "N"}, _at_least(0),
        lambda n: (n, max(n - 1, 0)), lambda n, seed: path_graph(n),
    ),
    "--star": (
        {"type": int, "metavar": "LEAVES"}, _at_least(0),
        lambda n: (n + 1, n), lambda n, seed: star_graph(n),
    ),
    "--petersen": (
        {"action": "store_const", "const": True}, None,
        lambda _: (10, 15), lambda _, seed: petersen_graph(),
    ),
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
    _, size_error, shape, build = GENERATORS[flag]
    error = size_error(value) if size_error else None
    if error:
        return _refuse(f"gen: {flag} {error}", 2)
    draws = _pairs(value[0]) if flag == "--gnp" else 0
    if draws > GEN_DRAW_CAP:
        return _refuse(
            f"gen: --gnp would make {draws} random draws, above the cap of {GEN_DRAW_CAP} draws", 1
        )
    try:
        check_graph(*shape(value), GEN_BYTES)
    except BudgetError as exc:
        return _refuse(f"gen: {exc}", 1)
    g = build(value, args.seed)
    if _output_format(args, "dimacs") == "json":
        return _json(to_json_dict(g)) + "\n", 0
    return to_dimacs(g), 0


def _cmd_color(args) -> tuple[str, int]:
    g = _load_graph(args.input)
    k = args.k
    config = _config(args)
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
    report = strong_edge_colour(g, eta=args.eta, seed=args.seed, max_restarts=args.max_restarts)
    result = {_camel(f.name): getattr(report, f.name) for f in dataclasses.fields(report)}
    return _report(_config(args), result), 0 if report.valid else 1


# bounds subcommand -> its result.
BOUNDS = {
    "constants": lambda a: strong_edge_constants(),
    "condition": lambda a: condition_check(a.eps, a.delta),
    "savings": lambda a: {"savingsRate": savings_rate(a.eps, a.delta)},
    "approx-eps": lambda a: {"eps": approx_eps(a.delta, a.variant)},
}


def _cmd_bounds(args) -> tuple[str, int]:
    if args.bounds_cmd == "table1":
        rows = alpha_eps_table(args.grid)
        if _output_format(args, "csv") == "json":
            return _report(_config(args), [{"alpha": a, "eps": e} for a, e in rows]), 0
        return table_to_csv(rows), 0
    return _report(_config(args), BOUNDS[args.bounds_cmd](args)), 0


def _cmd_simulate(args) -> tuple[str, int]:
    g = _load_graph(args.input)
    assignment = uniform_lists(g, args.k)
    if args.experiment == "mc":
        report = monte_carlo_round(g, assignment, args.trials, args.seed)
        to_csv = _mc_csv
    else:
        report = residual_sparsity_experiment(
            g, assignment, rounds=args.rounds, trials=args.trials, seed=args.seed
        )
        to_csv = _sparsity_csv
    if _output_format(args, "json") == "csv":
        return to_csv(report), 0
    return _report(_config(args), report), 0


def _csv(header: list[str], rows) -> str:
    """A header line, then a line per row: each value's repr, empty for None."""
    lines = (",".join("" if v is None else repr(v) for v in row) for row in rows)
    return "\n".join([",".join(header), *lines]) + "\n"


def _mc_csv(report) -> str:
    names = ["keep_mean", "keep_se", "keep_expected", "keep_z"]
    names += ["pairs_mean", "pairs_se", "triples_mean", "triples_se"]
    columns = operator.attrgetter(*names)(report)
    return _csv(["vertex", *names], zip(range(len(report.keep_mean)), *columns))


def _sparsity_csv(report) -> str:
    names = ["round_index", "residual_vertices", "residual_max_degree", "residual_delta"]
    names += ["delta_ratio", "quasirandom_worst"]
    fields = operator.attrgetter(*names)
    rows = ((t, *fields(row)) for t, trial in enumerate(report.trial_rounds) for row in trial)
    return _csv(["trial", "round", *names[1:]], rows)


def _cmd_oracle(args) -> tuple[str, int]:
    g = _load_graph(args.input)
    return _report(_config(args), enumerate_outcomes(g, uniform_lists(g, args.k))), 0


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


# Options that several parsers take: flag -> argparse keywords.
SHARED = {
    "--input": {"required": True},
    "--k": {"type": _positive_int, "required": True},
    "--seed": {"type": _seed_arg, "default": 0},
    "--max-restarts": {"type": _positive_int, "default": MAX_RESTARTS},
    "--eps": {"type": _finite_float, "required": True},
    "--delta": {"type": _finite_float, "required": True},
    "--config": {"type": str},
    "--out": {"type": str},
}


def _parser(sub, name: str, help: str, func, *options) -> None:
    """Subcommand `name` of `sub`, run by `func`, with `options` in order:
    each a SHARED flag or a (flag, argparse keywords) pair."""
    parser = sub.add_parser(name, help=help)
    for option in options:
        flag, keywords = (option, SHARED[option]) if isinstance(option, str) else option
        parser.add_argument(flag, **keywords)
    parser.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sparsecolour",
        description="Randomised colouring of locally sparse graphs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    _parser(sub, "gen", "generate a graph", _cmd_gen,
            *((flag, row[0]) for flag, row in GENERATORS.items()),
            "--seed", "--out", ("--format", {"choices": ["dimacs", "json"]}))
    _parser(sub, "color", "colour a graph with k colours per vertex", _cmd_color,
            "--input", "--k", "--seed", ("--beta", {"type": _finite_float}),
            ("--delta-prime", {"type": _finite_float}), "--max-restarts",
            ("--profile", {"choices": ["asymptotic", "practical"], "default": "practical"}),
            "--config", "--out")
    _parser(sub, "strong-edge", "strong edge colouring pipeline", _cmd_strong_edge,
            "--input", ("--eta", {"type": _finite_float, "default": STRONG_EDGE_ETA}),
            "--seed", "--max-restarts", "--config", "--out")
    bounds = sub.add_parser("bounds", help="closed-form bounds and tables")
    bsub = bounds.add_subparsers(dest="bounds_cmd", required=True)
    _parser(bsub, "table1", "clique-ratio table (alpha, eps)", _cmd_bounds,
            ("--grid", {"type": _finite_float, "default": 1e-4}),
            "--out", ("--format", {"choices": ["csv", "json"]}))
    _parser(bsub, "constants", "strong-edge constants report", _cmd_bounds, "--out")
    _parser(bsub, "condition", "iteration feasibility check", _cmd_bounds,
            "--eps", "--delta", "--out")
    _parser(bsub, "savings", "repeated-colour savings rate", _cmd_bounds,
            "--eps", "--delta", "--out")
    _parser(bsub, "approx-eps", "polynomial sparsity-to-eps approximation", _cmd_bounds,
            "--delta", ("--variant", {"choices": ["ours", "bruhn_joos"], "default": "ours"}),
            "--out")
    _parser(sub, "simulate", "Monte Carlo and sparsity experiments", _cmd_simulate,
            "--input", "--k", ("--experiment", {"choices": ["mc", "sparsity"], "default": "mc"}),
            ("--trials", {"type": _positive_int, "default": 1000}),
            ("--rounds", {"type": _positive_int, "default": 3}),
            "--seed", ("--threads", {"type": _positive_int, "default": 1}),
            "--config", "--out", ("--format", {"choices": ["json", "csv"]}))
    _parser(sub, "oracle", "exhaustive outcome-space oracle", _cmd_oracle,
            "--input", "--k", "--out")
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
    except ValueError as exc:
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
