"""Command line interface: subcommands, exit codes, determinism."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import sparsecolour
from sparsecolour import cli
from sparsecolour.bounds import savings_rate
from sparsecolour.cli import main
from sparsecolour.generators import complete_graph, petersen_graph
from sparsecolour.graph import from_json_dict, parse_dimacs, to_json_dict
from sparsecolour.strong_edge import c5_blowup


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_round_trip_reproduces_graph(self, tmp_path, capsys):
        out = tmp_path / "g.dimacs"
        code, _, _ = run(["gen", "--c5-blowup", "3", "--out", str(out)], capsys)
        assert code == 0
        assert parse_dimacs(out.read_text()) == c5_blowup(3)

    def test_json_format_by_extension(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code, _, _ = run(["gen", "--cycle", "5", "--out", str(out)], capsys)
        assert code == 0
        data = json.loads(out.read_text())
        assert data["n"] == 5 and len(data["edges"]) == 5

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run(["gen", "--cycle", "5", "--complete", "4"], capsys)
        assert code == 2

    def test_seeded_generator_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.dimacs", tmp_path / "b.dimacs"
        run(["gen", "--random-regular", "20", "3", "--seed", "5", "--out", str(a)], capsys)
        run(["gen", "--random-regular", "20", "3", "--seed", "5", "--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_petersen(self, capsys):
        code, out, _ = run(["gen", "--petersen"], capsys)
        assert code == 0
        assert parse_dimacs(out) == petersen_graph()

    def test_json_format_by_flag(self, capsys):
        code, out, _ = run(["gen", "--cycle", "5", "--format", "json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 5 and len(data["edges"]) == 5

    def test_json_bytes_match_json_dumps(self, tmp_path, capsys):
        out = tmp_path / "k60.json"
        code, _, _ = run(["gen", "--complete", "60", "--format", "json", "--out", str(out)], capsys)
        assert code == 0
        k60 = complete_graph(60)
        assert out.read_text() == json.dumps(to_json_dict(k60), sort_keys=True, indent=2) + "\n"
        assert list(from_json_dict(json.loads(out.read_text())).edges()) == list(k60.edges())

    # Two sizes per generator; --petersen takes none.
    SIZES = {
        "--c5-blowup": (["1"], ["3"]),
        "--random-regular": (["10", "3"], ["12", "0"]),
        "--complete": (["0"], ["6"]),
        "--cycle": (["3"], ["8"]),
        "--path": (["0"], ["5"]),
        "--star": (["0"], ["4"]),
        "--petersen": ([],),
    }

    # --gnp's estimate is the expected edge count, not the drawn one.
    @pytest.mark.parametrize("flag", [f for f in cli.GENERATORS if f != "--gnp"])
    def test_edge_estimate_is_the_written_edge_count(self, capsys, flag):
        _, shape, _ = cli.GENERATORS[flag]
        for size in self.SIZES[flag]:
            args = cli.build_parser().parse_args(["gen", flag, *size])
            value = getattr(args, flag[2:].replace("-", "_"))
            code, out, _ = run(["gen", flag, *size], capsys)
            assert code == 0
            written = parse_dimacs(out)
            assert (written.n, written.m) == shape(value)


class TestStrongEdgeCommand:
    def test_blowup_pipeline(self, tmp_path, capsys):
        g = tmp_path / "g.dimacs"
        run(["gen", "--c5-blowup", "3", "--out", str(g)], capsys)
        out = tmp_path / "report.json"
        code, _, _ = run(["strong-edge", "--input", str(g), "--out", str(out)], capsys)
        assert code == 0
        report = json.loads(out.read_text())
        assert report["result"]["numColours"] == 45
        assert report["result"]["ratioToDeltaSq"] == 1.25
        assert report["version"]


class TestBoundsCommand:
    def test_table1_csv(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code, _, _ = run(["bounds", "table1", "--out", str(out)], capsys)
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 46
        assert lines[1] == "0.02,0.0029"
        assert lines[-1] == "0.90,0.0752"

    def test_table1_json(self, capsys):
        code, out, _ = run(["bounds", "table1", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["config"] == {"subcommand": "bounds table1", "grid": 1e-4}
        rows = doc["result"]
        assert len(rows) == 45
        assert f"{rows[0]['alpha']:.2f},{rows[0]['eps']:.4f}" == "0.02,0.0029"
        assert f"{rows[-1]['alpha']:.2f},{rows[-1]['eps']:.4f}" == "0.90,0.0752"

    @pytest.mark.parametrize(
        "argv,reason",
        [
            (["condition", "--eps", "0.05", "--delta", "-1"], "delta=-1.0 outside [0, 1]"),
            (["condition", "--eps", "0.6", "--delta", "-1"], "eps=0.6 outside (0, 0.5)"),
            (["savings", "--eps", "0.1", "--delta", "7"], "delta=7.0 outside [0, 1]"),
            (["savings", "--eps", "1", "--delta", "7"], "savings rate undefined for eps >= 1"),
        ],
    )
    def test_out_of_domain_is_one_line(self, capsys, argv, reason):
        code, out, err = run(["bounds", *argv], capsys)
        assert code == 1 and out == ""
        assert err.splitlines() == [f"sparsecolour: {reason}"]

    def test_table1_fine_grid_is_fast(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(["bounds", "table1", "--grid", "1e-9"], capsys)
        assert code == 0 and len(out.splitlines()) == 46
        assert time.perf_counter() - start < 1.0

    def test_constants_report(self, capsys):
        code, out, _ = run(["bounds", "constants"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["coefficient"] == 1.835
        assert abs(doc["result"]["condition"]["margin"]) < 5e-4

    def test_condition_subcommand(self, capsys):
        code, out, _ = run(
            ["bounds", "condition", "--eps", "0.05", "--delta", "0.9"], capsys
        )
        assert code == 0
        assert json.loads(out)["result"]["satisfied"] is True

    def test_savings(self, capsys):
        code, out, _ = run(["bounds", "savings", "--eps", "0.05", "--delta", "0.9"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["config"] == {"subcommand": "bounds savings", "eps": 0.05, "delta": 0.9}
        assert doc["result"] == {"savingsRate": savings_rate(0.05, 0.9)}

    def test_approx_eps(self, capsys):
        code, out, _ = run(
            ["bounds", "approx-eps", "--delta", "0.24", "--variant", "bruhn_joos"],
            capsys,
        )
        assert code == 0
        assert abs(json.loads(out)["result"]["eps"] - 0.0347) < 5e-4


class TestColorCommand:
    def test_deterministic_reports(self, tmp_path, capsys):
        g = tmp_path / "g.dimacs"
        run(["gen", "--c5-blowup", "8", "--out", str(g)], capsys)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        code1, _, _ = run(
            ["color", "--input", str(g), "--k", "16", "--seed", "7", "--out", str(a)],
            capsys,
        )
        code2, _, _ = run(
            ["color", "--input", str(g), "--k", "16", "--seed", "7", "--out", str(b)],
            capsys,
        )
        assert code1 == code2 == 0
        assert a.read_bytes() == b.read_bytes()

    def test_iterative_report_carries_per_vertex_records(self, tmp_path, capsys):
        g = tmp_path / "g.dimacs"
        run(["gen", "--c5-blowup", "8", "--out", str(g)], capsys)
        code, out, _ = run(
            ["color", "--input", str(g), "--k", "16", "--seed", "7"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        rounds = doc["result"]["rounds"]
        assert rounds, "at least one randomised round expected"
        first = rounds[0]["vertices"]
        assert len(first) == 40
        assert {"vertex", "kept", "f1", "col", "dist", "pairs", "triples"} <= set(
            first[0]
        )

    def test_greedy_mode_when_k_exceeds_degree(self, tmp_path, capsys):
        g = tmp_path / "g.dimacs"
        run(["gen", "--cycle", "5", "--out", str(g)], capsys)
        code, out, _ = run(["color", "--input", str(g), "--k", "3"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["mode"] == "greedy"
        assert doc["result"]["ok"] is True

    def test_empty_graph(self, tmp_path, capsys):
        g = tmp_path / "g.dimacs"
        g.write_text("p edge 0 0\n")
        code, out, err = run(["color", "--input", str(g), "--k", "3"], capsys)
        assert code == 0 and err == ""
        assert json.loads(out)["result"] == {
            "ok": True, "colours": {}, "numColoursUsed": 0, "mode": "empty"
        }

    def test_greedy_failure_below_degree_two(self, tmp_path, capsys):
        # One edge and one colour: k is not above D = 1, but D < 2 sends the
        # run to the greedy pass, which cannot colour the second endpoint.
        g = tmp_path / "g.dimacs"
        g.write_text("p edge 3 1\ne 1 2\n")
        code, out, err = run(["color", "--input", str(g), "--k", "1"], capsys)
        assert code == 1 and err == ""
        assert json.loads(out)["result"] == {
            "ok": False, "mode": "greedy", "colours": {"0": 0, "2": 0}, "failedAt": [1]
        }

    def test_delta_prime_above_one_fails_in_default_beta(self, tmp_path, capsys):
        g = tmp_path / "g.dimacs"
        run(["gen", "--c5-blowup", "3", "--out", str(g)], capsys)
        code, out, _ = run(
            ["color", "--input", str(g), "--k", "5", "--delta-prime", "7"], capsys
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["config"]["deltaPrime"] == 7.0
        assert doc["result"]["failureReason"] == "schedule: delta=7.0 outside [0, 1]"

    def test_infeasible_parameters_exit_one(self, tmp_path, capsys):
        g = tmp_path / "g.dimacs"
        run(["gen", "--complete", "8", "--out", str(g)], capsys)
        code, out, _ = run(["color", "--input", str(g), "--k", "4"], capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["result"]["ok"] is False

    def test_asymptotic_profile(self, tmp_path, capsys):
        g = tmp_path / "g.dimacs"
        run(["gen", "--c5-blowup", "8", "--out", str(g)], capsys)
        code, out, _ = run(
            [
                "color", "--input", str(g), "--k", "16", "--seed", "7",
                "--profile", "asymptotic",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["result"]["ok"] is True

    def test_config_file_provides_defaults(self, tmp_path, capsys):
        g = tmp_path / "g.dimacs"
        run(["gen", "--c5-blowup", "8", "--out", str(g)], capsys)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"beta": 0.01}))
        out1 = tmp_path / "with_cfg.json"
        code, _, _ = run(
            [
                "color", "--input", str(g), "--k", "16", "--seed", "7",
                "--config", str(cfg), "--out", str(out1),
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out1.read_text())["result"]["beta"] == 0.01
        # an explicit flag beats the config file
        out2 = tmp_path / "with_flag.json"
        run(
            [
                "color", "--input", str(g), "--k", "16", "--seed", "7",
                "--config", str(cfg), "--beta", "0.02", "--out", str(out2),
            ],
            capsys,
        )
        assert json.loads(out2.read_text())["result"]["beta"] == 0.02

    def test_config_file_beats_argparse_defaults(self, tmp_path, capsys):
        g = tmp_path / "g.dimacs"
        run(["gen", "--c5-blowup", "8", "--out", str(g)], capsys)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_restarts": 1, "profile": "asymptotic"}))
        base = ["color", "--input", str(g), "--k", "16", "--config", str(cfg)]
        out1 = tmp_path / "with_cfg.json"
        run([*base, "--out", str(out1)], capsys)
        config = json.loads(out1.read_text())["config"]
        assert (config["maxRestarts"], config["profile"]) == (1, "asymptotic")
        out2 = tmp_path / "with_flag.json"
        run([*base, "--max-restarts", "3", "--out", str(out2)], capsys)
        assert json.loads(out2.read_text())["config"]["maxRestarts"] == 3

    @pytest.mark.parametrize(
        "entry", [{"beta": "abc"}, {"max_restarts": "abc"}, {"k": 0}, {"beta": None}]
    )
    def test_config_value_of_wrong_type_is_usage_error(self, tmp_path, capsys, entry):
        g = tmp_path / "g.dimacs"
        run(["gen", "--c5-blowup", "3", "--out", str(g)], capsys)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry))
        with pytest.raises(SystemExit) as exc:
            main(["color", "--input", str(g), "--k", "6", "--config", str(cfg)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (key,) = entry
        assert key.replace("_", "-") in err.splitlines()[-1]

    def test_oversized_regularisation_fails_fast(self, tmp_path, capsys, monkeypatch):
        # A star with 25 leaves next to 10,000 isolated vertices: the ball
        # of its regularised copy holds 3,267,550 vertices, refused before
        # any of it is built, which is replaced here by a step that fails
        # the test.
        import sparsecolour.ncp as ncp

        def building(*args, **kwargs):
            raise AssertionError("the size check must come before the ball is built")

        monkeypatch.setattr(ncp, "_ball", building)
        g = tmp_path / "star.dimacs"
        g.write_text("p edge 10026 25\n" + "".join(f"e 1 {v}\n" for v in range(2, 27)))
        start = time.perf_counter()
        code, out, err = run(["color", "--input", str(g), "--k", "24"], capsys)
        # The refusal reads the graph, measures its sparsity and counts the
        # ball: about 20 ms on a 2-vCPU host, so the bound leaves a wide
        # margin for a slow or loaded machine.
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert "ball of 3267550 vertices" in err

    @pytest.mark.parametrize(
        "name, text",
        [
            ("huge.col", "p edge 100000000 0\n"),
            ("huge.json", '{"n": 100000000, "edges": []}'),
        ],
    )
    def test_oversized_vertex_count_refused_before_loading(self, tmp_path, capsys, name, text):
        path = tmp_path / name
        path.write_text(text)
        start = time.perf_counter()
        code, out, err = run(["color", "--input", str(path), "--k", "3"], capsys)
        # Refused from the declared count alone, before any per-vertex set.
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err.splitlines() == [
            "sparsecolour: graph of 100000000 vertices and 0 edges would take about "
            "1907 MiB, above the memory budget of 512 MiB"
        ]

    def test_oversized_near_edge_sets_refused(self, tmp_path, capsys, monkeypatch):
        # rr(600,12) needs sum deg² = 86,400 near-edge entries, about 8.6
        # MiB; with a budget of 8 MiB, strong-edge refuses before building
        # any near set.
        import sparsecolour.strong_edge as strong_edge
        from sparsecolour import budget

        def near_sets(*args, **kwargs):
            raise AssertionError("the size check must come before the near sets")

        monkeypatch.setattr(budget, "MEMORY_BUDGET", 8 * 2**20)
        monkeypatch.setattr(strong_edge, "_near_edge_sets", near_sets)
        g = tmp_path / "rr.dimacs"
        run(["gen", "--random-regular", "600", "12", "--out", str(g)], capsys)
        code, out, err = run(["strong-edge", "--input", str(g)], capsys)
        assert code == 1 and out == ""
        assert err.splitlines() == [
            "sparsecolour: near-edge sets of about 86400 entries would take about 9 MiB, "
            "above the memory budget of 8 MiB"
        ]

    def test_memory_error_is_one_line(self, tmp_path, capsys, monkeypatch):
        import sparsecolour.cli as cli

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "iterative_colour", exhausted)
        g = tmp_path / "g.dimacs"
        run(["gen", "--c5-blowup", "3", "--out", str(g)], capsys)
        code, _, err = run(["color", "--input", str(g), "--k", "6"], capsys)
        assert code == 1
        assert err == "sparsecolour: out of memory\n"


@dataclasses.dataclass(frozen=True)
class _Pair:
    low: int
    high: Fraction


class TestJsonable:
    @pytest.mark.parametrize("value, name", [(np.int64(1), "int64"), ({1}, "set")])
    def test_unknown_type_is_refused(self, value, name):
        with pytest.raises(TypeError, match=f"report value of type {name} is not serialisable"):
            cli._report({}, {"result": [value]})

    @pytest.mark.parametrize(
        "value, written",
        [
            (Fraction(-3, 4), "-3/4"),
            ([Fraction(2), Fraction(1, 3)], ["2/1", "1/3"]),
            (_Pair(1, Fraction(5, 2)), {"high": "5/2", "low": 1}),
            ([_Pair(0, Fraction(0))], [{"high": "0/1", "low": 0}]),
            ({(0, 1): 2.5, (10, 2): 1.0}, {"0,1": 2.5, "10,2": 1.0}),
            ({(0, "a", None): 1, 3: (4, 5)}, {"0,a,None": 1, "3": [4, 5]}),
            ({(1, 2): "first", "1,2": "last"}, {"1,2": "last"}),
        ],
    )
    def test_report_values_convert(self, value, written):
        assert json.loads(cli._report({}, value))["result"] == written


class TestReportPins:
    """SHA-256 of the `result` section of seeded colour reports: a C5
    blow-up coloured with k=18, and a random 8-regular graph whose first
    round exhausts its 200 restarts."""

    @pytest.mark.parametrize(
        "gen, k, seed, digest",
        [
            (
                ["--c5-blowup", "10"],
                18,
                0,
                "4edd43f71c8eef46c85311f96d64329adfb64ae42a33927eccd9cbf370da3dbb",
            ),
            (
                ["--random-regular", "100", "8", "--seed", "3"],
                8,
                0,
                "629a57923d1c913f6b69c9424aefa1b5a86e0e8f08efb70e3f3e933a3c2586ae",
            ),
            (
                ["--random-regular", "100", "8", "--seed", "3"],
                9,
                0,
                "1e2bfccb8e2ae96afe27bfae37c5a8a8fd0ac4bd81687661d9e29fda444ebb72",
            ),
            (
                ["--c5-blowup", "4"],
                9,
                0,
                "41084f53e1472385fc2de7bc99745bf6921d34a83dcf18488c0087217bf63392",
            ),
        ],
    )
    def test_result_digest(self, tmp_path, capsys, gen, k, seed, digest):
        g = tmp_path / "g.dimacs"
        run(["gen", *gen, "--out", str(g)], capsys)
        out = tmp_path / "r.json"
        run(
            ["color", "--input", str(g), "--k", str(k), "--seed", str(seed),
             "--out", str(out)],
            capsys,
        )
        result = json.loads(out.read_text())["result"]
        text = json.dumps(result, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


    @pytest.mark.parametrize(
        "gen, argv, digest",
        [
            (
                ["--c5-blowup", "4"],
                ["strong-edge", "--seed", "0"],
                "7aedf29c91ea43864a895cd6ce1e88d3022c65de3318b632ce34b4f8e9ca1fba",
            ),
            (
                ["--gnp", "60", "0.15", "--seed", "1"],
                ["strong-edge", "--seed", "0"],
                "b8a014410b960842f783a73fa5b787b017c7f4ba3a173bade645813928f0c066",
            ),
            (
                ["--c5-blowup", "3"],
                ["simulate", "--k", "4", "--experiment", "sparsity",
                 "--trials", "2", "--rounds", "2", "--seed", "1"],
                "b4e8e6c87f2d14e72700ddbead870680a0069aa744a486a09ef2caf504d8a690",
            ),
            (
                ["--random-regular", "40", "6", "--seed", "4"],
                ["simulate", "--k", "6", "--experiment", "sparsity",
                 "--trials", "3", "--rounds", "3", "--seed", "2"],
                "369cf9f9ed3e497e0f29e1dbd60ff1053d87d0c49cb4a9323e46a9f6ed6dab64",
            ),
            (
                ["--random-regular", "200", "10", "--seed", "2"],
                ["strong-edge", "--seed", "0"],
                "c0da5247e3bdbbb2885bb91b9436611510533caec582cafd5b270170a0337e63",
            ),
        ],
    )
    def test_other_report_digests(self, tmp_path, capsys, gen, argv, digest):
        # Strong-edge reports (reverse-peel first-fit: these cores are empty)
        # and residual sparsity reports (quasirandom_check's worst deviation).
        g = tmp_path / "g.dimacs"
        run(["gen", *gen, "--out", str(g)], capsys)
        out = tmp_path / "r.json"
        code, _, _ = run([*argv, "--input", str(g), "--out", str(out)], capsys)
        assert code == 0
        result = json.loads(out.read_text())["result"]
        text = json.dumps(result, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "gen, argv, digest",
        [
            (
                ["--random-regular", "40", "6", "--seed", "5"],
                ["--k", "4", "--trials", "150", "--seed", "11"],
                "587506a23d477dee31c3fba24fda0b95ca24b1f31bcc572bc4762a760928f9df",
            ),
            (
                ["--c5-blowup", "3"],
                ["--k", "5", "--trials", "150", "--seed", "2"],
                "f27e15dd15e13016f2b8c46710c379764226e3fbba4856ef4337a9ad81bb81e6",
            ),
            (
                ["--gnp", "24", "0.35", "--seed", "2"],
                ["--k", "5", "--trials", "150", "--seed", "7"],
                "0b97c04c7de6cfddd36bcfc8f15423590a1dc06c74584c20dcc94693cddd40a7",
            ),
        ],
    )
    def test_monte_carlo_digests(self, tmp_path, capsys, gen, argv, digest):
        # 150 trials: two full 64-trial blocks and a partial one.  The
        # random regular graph has triangles and paths inside neighbourhoods,
        # the G(n, p) graph also K4s, the C5 blow-up neither.
        g = tmp_path / "g.dimacs"
        run(["gen", *gen, "--out", str(g)], capsys)
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"r{threads}.json"
            code, _, _ = run(
                ["simulate", "--experiment", "mc", "--input", str(g), *argv,
                 "--threads", threads, "--out", str(out)],
                capsys,
            )
            assert code == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        result = json.loads(reports[0])["result"]
        text = json.dumps(result, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


# Runs cli.main under a 2 GiB address-space limit and prints the exit code
# and the seconds main took (imports excluded).
_LIMITED_MAIN = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from sparsecolour import cli
start = time.perf_counter()
code = cli.main(sys.argv[1:])
print(code, time.perf_counter() - start)
"""


def _limited_main(argv):
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(sparsecolour.__file__).resolve().parents[1]),
        "OPENBLAS_NUM_THREADS": "1",
    }
    return subprocess.run([sys.executable, "-c", _LIMITED_MAIN, *argv], env=env,
                          capture_output=True, text=True, timeout=300)


class TestDenseMonteCarlo:
    def test_k100_refused_in_one_line_under_a_second(self, tmp_path, capsys):
        g = tmp_path / "k100.dimacs"
        run(["gen", "--complete", "100", "--out", str(g)], capsys)
        argv = ["simulate", "--experiment", "mc", "--input", str(g), "--k", "50",
                "--out", str(tmp_path / "r.json")]
        proc = _limited_main(argv)
        code, seconds = proc.stdout.split()
        assert code == "1", proc.stderr
        assert proc.stderr.splitlines() == [
            "sparsecolour: statistic index of up to 16170000 rows would take about "
            "1110 MiB, above the memory budget of 512 MiB"
        ]
        assert float(seconds) < 1.0
        assert not (tmp_path / "r.json").exists()

    def test_k60_finishes(self, tmp_path, capsys):
        g = tmp_path / "k60.dimacs"
        out = tmp_path / "r.json"
        run(["gen", "--complete", "60", "--out", str(g)], capsys)
        code, _, err = run(
            ["simulate", "--experiment", "mc", "--input", str(g), "--k", "30",
             "--trials", "3", "--out", str(out)],
            capsys,
        )
        assert code == 0, err
        result = json.loads(out.read_text())["result"]
        assert result["trials"] == 3 and len(result["pairs_mean"]) == 60


class TestAssignmentSizeCap:
    """K200 has 19,900 edges.  14,000 colours per vertex make maps of
    19,900 x 14,000 int16 entries, 531 MiB, past the budget before any
    colour set; 600 colours, 23 MiB, compile, and the Monte Carlo run is
    refused by its neighbour-pair listing, 200 x C(200, 2) entries."""

    @pytest.mark.parametrize(
        "argv, refusal",
        [
            (["color", "--k", "14000"],
             "assignment of 14000 colours on 19900 edges would take about 532 MiB"),
            (["simulate", "--experiment", "mc", "--k", "600"],
             "distance-2 pair index of 3980000 entries would take about 607 MiB"),
        ],
        ids=["color", "simulate-mc"],
    )
    def test_refused_in_one_line_under_2gb(self, tmp_path, capsys, argv, refusal):
        g = tmp_path / "k200.dimacs"
        run(["gen", "--complete", "200", "--out", str(g)], capsys)
        out = tmp_path / "r.json"
        proc = _limited_main([*argv, "--input", str(g), "--out", str(out)])
        code, _ = proc.stdout.split()
        assert code == "1", proc.stderr
        assert proc.stderr.splitlines() == [
            f"sparsecolour: {refusal}, above the memory budget of 512 MiB"
        ]
        assert not out.exists()


class TestMemoryHoles:
    """Inputs the command line accepted and that ran out of memory before
    any estimate stopped them: each now exits 1 in one line naming the
    budget, within a second and with no output file, unless its work fits
    the budget once cut into slices."""

    def test_regularised_copy(self, tmp_path, capsys):
        # rr(100,40) next to 2,000 isolated vertices: each isolated vertex
        # has deficit 40, so the ball of the regularised copy holds 1 + 40
        # + 780 vertices and 40 + 1,560 edges of each.
        g = tmp_path / "rr.dimacs"
        run(["gen", "--random-regular", "100", "40", "--seed", "1", "--out", str(g)], capsys)
        g.write_text(g.read_text().replace("p edge 100 ", "p edge 2100 "))
        self._refused(tmp_path, ["color", "--input", str(g), "--k", "38", "--seed", "1"],
                      "regularised copy's ball of 1642100 vertices, 3202000 edges and 38 "
                      "colours would take about 1003 MiB")

    def test_distance2_pairs(self, tmp_path):
        # K400,400: each of 800 vertices is the middle of C(401, 2) entries.
        n = 400
        g = tmp_path / "k400_400.json"
        g.write_text(json.dumps({"n": 2 * n, "edges": [[u, n + v] for u in range(n)
                                                       for v in range(n)]}))
        argv = ["simulate", "--experiment", "sparsity", "--input", str(g), "--k", "2",
                "--trials", "1", "--rounds", "1"]
        self._refused(tmp_path, argv, "distance-2 pair index of 64160000 entries would take "
                                      "about 9790 MiB")

    def test_monte_carlo_blocks(self, tmp_path, capsys):
        g = tmp_path / "path.dimacs"
        run(["gen", "--path", "3", "--out", str(g)], capsys)
        argv = ["simulate", "--input", str(g), "--k", "2", "--trials", "100000000000"]
        self._refused(tmp_path, argv, "Monte Carlo run of 1562500000 blocks would take "
                                      "about 35763 MiB")

    def test_monte_carlo_class_counts(self, tmp_path):
        # One trial of 5,000,000 colours on 4 isolated vertices holds
        # 20,000,000 class counts; a slice of 64 trials asked for 10 GB.
        g = tmp_path / "iso4.dimacs"
        g.write_text("p edge 4 0\n")
        argv = ["simulate", "--input", str(g), "--k", "5000000", "--trials", "64"]
        self._refused(tmp_path, argv, "class counts of 5000000 colours on 4 vertices would "
                                      "take about 916 MiB")

    def test_monte_carlo_slices_within_the_budget(self, tmp_path, capsys):
        # 1,000,000 colours on the 3-vertex path: a trial's class counts take
        # 137 MiB, so slices of three trials run all 64.
        g = tmp_path / "path.dimacs"
        run(["gen", "--path", "3", "--out", str(g)], capsys)
        out = tmp_path / "r.json"
        proc = _limited_main(["simulate", "--input", str(g), "--k", "1000000",
                              "--trials", "64", "--out", str(out)])
        code, _ = proc.stdout.split()
        assert code == "0", proc.stderr
        assert json.loads(out.read_text())["result"]["trials"] == 64

    def _refused(self, tmp_path, argv, refusal):
        out = tmp_path / "r.json"
        proc = _limited_main([*argv, "--out", str(out)])
        code, seconds = proc.stdout.split()
        assert code == "1", proc.stderr
        assert proc.stderr.splitlines() == [
            f"sparsecolour: {refusal}, above the memory budget of 512 MiB"
        ]
        assert float(seconds) < 1.0
        assert not out.exists()


class TestSimulateCommand:
    def test_mc_thread_invariance(self, tmp_path, capsys):
        g = tmp_path / "g.dimacs"
        run(["gen", "--random-regular", "16", "3", "--out", str(g)], capsys)
        outs = []
        for threads in ("1", "4"):
            out = tmp_path / f"mc{threads}.json"
            code, _, _ = run(
                [
                    "simulate", "--input", str(g), "--k", "3",
                    "--trials", "200", "--seed", "3",
                    "--threads", threads, "--out", str(out),
                ],
                capsys,
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_mc_bytes_independent_of_slices_and_threads(self, tmp_path, capsys, monkeypatch):
        from sparsecolour import ncp

        g = tmp_path / "g.dimacs"
        run(["gen", "--random-regular", "40", "6", "--seed", "5", "--out", str(g)], capsys)
        outs = []
        # 442 rows per trial (40 vertex and 120 edge draws, 282 statistic,
        # in-row and triangle rows): slices of 64 (the whole block), 4 and
        # 1 trials.
        for budget, threads in [(1 << 16, "1"), (1 << 16, "2"), (2000, "2"), (1, "1")]:
            monkeypatch.setattr(ncp, "SLICE_ROWS", budget)
            out = tmp_path / f"mc{budget}-{threads}.json"
            code, _, _ = run(
                ["simulate", "--input", str(g), "--k", "4", "--trials", "130",
                 "--seed", "11", "--threads", threads, "--out", str(out)],
                capsys,
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[1:] == outs[:1] * 3

    def test_mc_on_empty_graph_is_one_line(self, tmp_path, capsys):
        g = tmp_path / "g.dimacs"
        g.write_text("p edge 0 0\n")
        code, out, err = run(
            ["simulate", "--experiment", "mc", "--input", str(g), "--k", "2"], capsys
        )
        assert code == 1 and out == ""
        assert err.splitlines() == [
            "sparsecolour: Monte Carlo needs a graph with at least one vertex"
        ]

    def test_mc_csv_matches_the_json_report(self, tmp_path, capsys):
        g = tmp_path / "g.dimacs"
        run(["gen", "--petersen", "--out", str(g)], capsys)
        argv = ["simulate", "--input", str(g), "--k", "3", "--trials", "40", "--seed", "2"]
        code, csv, err = run([*argv, "--format", "csv"], capsys)
        assert code == 0 and err == ""
        _, out, _ = run(argv, capsys)
        report = json.loads(out)["result"]
        lines = csv.splitlines()
        assert lines[0] == (
            "vertex,keep_mean,keep_se,keep_expected,keep_z,"
            "pairs_mean,pairs_se,triples_mean,triples_se"
        )
        assert len(lines) == 11
        columns = lines[0].split(",")[1:]
        for u, line in enumerate(lines[1:]):
            vertex, *values = line.split(",")
            assert int(vertex) == u
            assert [float(x) for x in values] == [report[c][u] for c in columns]

    def test_sparsity_csv_matches_the_json_report(self, tmp_path, capsys):
        g = tmp_path / "g.dimacs"
        run(["gen", "--c5-blowup", "3", "--out", str(g)], capsys)
        argv = ["simulate", "--input", str(g), "--k", "4", "--experiment", "sparsity",
                "--trials", "2", "--rounds", "2", "--seed", "1"]
        code, csv, err = run([*argv, "--out", str(tmp_path / "s.csv")], capsys)
        assert code == 0 and csv == "" and err == ""
        _, out, _ = run(argv, capsys)
        trials = json.loads(out)["result"]["trial_rounds"]
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert lines[0] == (
            "trial,round,residual_vertices,residual_max_degree,"
            "residual_delta,delta_ratio,quasirandom_worst"
        )
        rows = [(t, r) for t, trial in enumerate(trials) for r in trial]
        assert len(lines) == 1 + len(rows) >= 3
        for line, (t, r) in zip(lines[1:], rows):
            fields = line.split(",")
            assert fields[:4] == [
                str(t), str(r["round_index"]), str(r["residual_vertices"]),
                str(r["residual_max_degree"]),
            ]
            for text, value in zip(fields[4:], [r["residual_delta"], r["delta_ratio"],
                                                r["quasirandom_worst"]]):
                assert text == ("" if value is None else repr(value))

    def test_sparsity_experiment(self, tmp_path, capsys):
        g = tmp_path / "g.dimacs"
        run(["gen", "--c5-blowup", "3", "--out", str(g)], capsys)
        code, out, _ = run(
            [
                "simulate", "--input", str(g), "--k", "4",
                "--experiment", "sparsity", "--trials", "2", "--rounds", "2",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["host_delta"] == 1.0


class TestOracleCommand:
    def test_exact_probabilities(self, tmp_path, capsys):
        g = tmp_path / "g.dimacs"
        run(["gen", "--complete", "3", "--out", str(g)], capsys)
        code, out, _ = run(["oracle", "--input", str(g), "--k", "2"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["outcome_count"] == 64
        assert doc["result"]["keep_probability"] == ["9/16"] * 3


class TestUsageErrors:
    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "table1", "--nope"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines() == [
            "sparsecolour: error: unrecognized arguments: --nope"
        ]

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines() == [
            "sparsecolour: error: argument command: invalid choice: 'frobnicate' "
            "(choose from 'gen', 'color', 'strong-edge', 'bounds', 'simulate', 'oracle')"
        ]

    def test_bad_seed_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--cycle", "5", "--seed", "-1"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines() == [
            "sparsecolour gen: error: argument --seed: seed must fit in an unsigned 64-bit integer"
        ]

    def test_missing_input_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["color", "--k", "3"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines() == [
            "sparsecolour color: error: the following arguments are required: --input"
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["color", "--k", "0"],
            ["oracle", "--k", "0"],
            ["simulate", "--k", "0"],
            ["simulate", "--k", "3", "--trials", "0"],
            ["simulate", "--k", "3", "--rounds", "0"],
            ["simulate", "--k", "3", "--threads", "0"],
            ["simulate", "--k", "3", "--threads", "-2"],
            ["color", "--k", "3", "--max-restarts", "0"],
            ["strong-edge", "--max-restarts", "-1"],
        ],
    )
    def test_counts_below_one_are_usage_errors(self, tmp_path, capsys, argv):
        g = tmp_path / "g.dimacs"
        run(["gen", "--cycle", "5", "--out", str(g)], capsys)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--input", str(g)])
        assert exc.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,reason",
        [
            (["--star", "-3"], "--star must be at least 0, got -3"),
            (["--complete", "-2"], "--complete must be at least 0, got -2"),
            (["--path", "-1"], "--path must be at least 0, got -1"),
            (["--gnp", "10.5", "0.3"], "--gnp N must be a non-negative integer, got 10.5"),
            (["--gnp", "-4", "0.3"], "--gnp N must be a non-negative integer, got -4"),
            (["--gnp", "nan", "0.3"], "--gnp N must be a non-negative integer, got nan"),
            (["--gnp", "4", "2"], "--gnp P must lie in [0, 1], got 2"),
            (["--gnp", "4", "-0.1"], "--gnp P must lie in [0, 1], got -0.1"),
            (["--gnp", "4", "nan"], "--gnp P must lie in [0, 1], got nan"),
            (["--cycle", "2"], "--cycle must be at least 3, got 2"),
            (["--c5-blowup", "0"], "--c5-blowup must be at least 1, got 0"),
            (["--random-regular", "5", "3"], "--random-regular needs N*D even, got N=5 D=3"),
            (["--random-regular", "4", "4"], "--random-regular needs 0 <= D < N, got N=4 D=4"),
            (["--random-regular", "4", "-2"], "--random-regular needs 0 <= D < N, got N=4 D=-2"),
        ],
    )
    def test_gen_size_out_of_range_is_usage_error(self, tmp_path, capsys, argv, reason):
        out = tmp_path / "g.dimacs"
        code, stdout, err = run(["gen", *argv, "--out", str(out)], capsys)
        assert code == 2 and stdout == "" and not out.exists()
        assert err.splitlines() == [f"gen: {reason}"]

    @pytest.mark.parametrize(
        "argv,generator,reason",
        [
            (["--complete", "200000"], "complete_graph",
             "graph of 200000 vertices and 19999900000 edges would take "
             "about 4882793 MiB, above the memory budget of 512 MiB"),
            (["--gnp", "3000", "0.5"], "gnp_graph",
             "graph of 3000 vertices and 2249250 edges would take about "
             "549 MiB, above the memory budget of 512 MiB"),
            (["--gnp", "100000", "0"], "gnp_graph",
             "--gnp would make 4999950000 random draws, above the cap of 50000000 draws"),
            (["--gnp", "1e30", "0.5"], "gnp_graph",
             f"--gnp would make {int(1e30) * (int(1e30) - 1) // 2} random draws, "
             "above the cap of 50000000 draws"),
            (["--random-regular", "100000", "50"], "random_regular_graph",
             "graph of 100000 vertices and 2500000 edges would take about "
             "613 MiB, above the memory budget of 512 MiB"),
            (["--c5-blowup", "700"], "c5_blowup",
             "graph of 3500 vertices and 2450000 edges would take about "
             "598 MiB, above the memory budget of 512 MiB"),
            (["--path", "2000002"], "path_graph",
             "graph of 2000002 vertices and 2000001 edges would take about "
             "534 MiB, above the memory budget of 512 MiB"),
            (["--cycle", "2000001"], "cycle_graph",
             "graph of 2000001 vertices and 2000001 edges would take about "
             "534 MiB, above the memory budget of 512 MiB"),
        ],
    )
    def test_gen_above_size_cap_refused_before_generating(
        self, tmp_path, capsys, monkeypatch, argv, generator, reason
    ):
        import sparsecolour.cli as cli

        def never(*args, **kwargs):
            pytest.fail(f"{generator} ran despite the size cap")

        monkeypatch.setattr(cli, generator, never)
        out = tmp_path / "g.dimacs"
        code, stdout, err = run(["gen", *argv, "--out", str(out)], capsys)
        assert code == 1 and stdout == "" and not out.exists()
        assert err.splitlines() == [f"gen: {reason}"]

    @pytest.mark.parametrize(
        "argv,header",
        [
            (["--star", "0"], "p edge 1 0"),
            (["--path", "0"], "p edge 0 0"),
            (["--gnp", "0", "0"], "p edge 0 0"),
            (["--gnp", "3", "1"], "p edge 3 3"),
            (["--gnp", "3.0", "0"], "p edge 3 0"),
            (["--cycle", "3"], "p edge 3 3"),
            (["--c5-blowup", "1"], "p edge 5 5"),
            (["--random-regular", "4", "0"], "p edge 4 0"),
        ],
    )
    def test_gen_size_at_range_edge_accepted(self, capsys, argv, header):
        code, out, _ = run(["gen", *argv], capsys)
        assert code == 0 and out.splitlines()[0] == header

    @pytest.mark.parametrize(
        "doc",
        [
            '{"n": 3}',
            "[1, 2]",
            '{"n": 3, "edges": [[0, "1"]]}',
            "[[0, 1.5]]",
            '{"n": 3, "edges": null}',
            '{"n": 2.7, "edges": []}',
            '{"n": -2, "edges": []}',
            '{"n": true, "edges": []}',
            '{"n": 3, "edges": [[0, 1, 2]]}',
            '{"n": 3, "edges": [[0, 3]]}',
        ],
    )
    def test_malformed_graph_json_is_one_line(self, tmp_path, capsys, doc):
        g = tmp_path / "g.json"
        g.write_text(doc)
        code, out, err = run(["color", "--input", str(g), "--k", "2"], capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("sparsecolour: ")

    @pytest.mark.parametrize("grid", ["0", "-1", "0.6"])
    def test_grid_outside_range_is_one_line(self, capsys, grid):
        code, out, err = run(["bounds", "table1", "--grid", grid], capsys)
        assert code == 1 and out == ""
        assert err.splitlines() == [f"sparsecolour: grid={float(grid)} outside (0, 0.5]"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_grid_too_fine_is_one_line(self, capsys, fmt):
        argv = ["bounds", "table1", "--grid", "1e-320", "--format", fmt]
        code, out, err = run(argv, capsys)
        assert code == 1 and out == ""
        assert err.splitlines() == ["sparsecolour: grid=1e-320 too fine: 0.5 / grid overflows"]

    # c5_blowup(8) has max degree 16, so k = 16 gives eps' = 1/17.
    @pytest.mark.parametrize("beta, rows", [("1e-320", "inf"), ("1e-9", "1.18e+08")])
    def test_beta_planning_too_many_rows_names_the_cap(self, tmp_path, capsys, beta, rows):
        g = tmp_path / "g.dimacs"
        run(["gen", "--c5-blowup", "8", "--out", str(g)], capsys)
        code, out, err = run(
            ["color", "--input", str(g), "--k", "16", "--beta", beta], capsys
        )
        assert code == 1 and err == ""
        assert json.loads(out)["result"]["failureReason"] == (
            f"schedule: beta={float(beta)} would plan about {rows} schedule rows, "
            "above the cap of 1000000 rows"
        )

    # A 3-vertex path stores two int32 map rows of k entries and the shared
    # row of k int64 colours; 4 isolated vertices store the row alone.
    @pytest.mark.parametrize(
        "text, k, reason",
        [
            ("p edge 3 2\ne 1 2\ne 2 3\n", "40000000",
             "assignment of 40000000 colours on 2 edges would take about 610 MiB, "
             "above the memory budget of 512 MiB"),
            ("p edge 4 0\n", "80000000",
             "assignment of 80000000 colours on 0 edges would take about 610 MiB, "
             "above the memory budget of 512 MiB"),
        ],
        ids=["map-entries", "colour-entries"],
    )
    def test_huge_k_refused_before_any_colour_set(self, tmp_path, capsys, monkeypatch,
                                                   text, k, reason):
        from sparsecolour import correspondence

        def no_sets(*args):
            raise AssertionError("the size checks must come before the colour sets")

        monkeypatch.setattr(correspondence, "_shared", no_sets)
        g = tmp_path / "g.dimacs"
        g.write_text(text)
        code, out, err = run(["color", "--input", str(g), "--k", k], capsys)
        assert code == 1 and out == ""
        assert err.splitlines() == [f"sparsecolour: {reason}"]

    def test_beta_not_positive_names_the_reason(self, tmp_path, capsys):
        g = tmp_path / "g.dimacs"
        run(["gen", "--c5-blowup", "3", "--out", str(g)], capsys)
        code, out, _ = run(
            ["color", "--input", str(g), "--k", "5", "--beta", "0"], capsys
        )
        assert code == 1
        reason = json.loads(out)["result"]["failureReason"]
        assert reason == "schedule: beta must be positive"

    # Every float option parses through one finite-float type, so no NaN or
    # Infinity reaches a computation or a report's config.
    @pytest.mark.parametrize(
        "argv,flag,text",
        [
            pytest.param(["color", "--k", "5", "--beta", "nan"], "--beta", "nan",
                         id="color-beta-nan"),
            pytest.param(["color", "--k", "5", "--delta-prime", "inf"], "--delta-prime", "inf",
                         id="color-delta-prime-inf"),
            pytest.param(["strong-edge", "--eta", "nan"], "--eta", "nan",
                         id="strong-edge-eta-nan"),
            pytest.param(["bounds", "table1", "--grid", "nan"], "--grid", "nan",
                         id="table1-grid-nan"),
            pytest.param(["bounds", "savings", "--eps", "nan", "--delta", "0.5"], "--eps", "nan",
                         id="savings-eps-nan"),
            pytest.param(["bounds", "savings", "--eps", "0.1", "--delta", "1e400"], "--delta",
                         "1e400", id="savings-delta-overflow"),
            pytest.param(["bounds", "condition", "--eps", "0.05", "--delta", "nan"], "--delta",
                         "nan", id="condition-delta-nan"),
            pytest.param(["bounds", "approx-eps", "--delta=-inf"], "--delta", "-inf",
                         id="approx-eps-delta-minus-inf"),
        ],
    )
    def test_non_finite_float_is_a_usage_error(self, tmp_path, capsys, argv, flag, text):
        g = tmp_path / "g.dimacs"
        run(["gen", "--c5-blowup", "3", "--out", str(g)], capsys)
        if argv[0] != "bounds":
            argv = [*argv, "--input", str(g)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        [line] = err.splitlines()
        assert line.endswith(f"error: argument {flag}: must be a finite number, got '{text}'")

    def test_non_finite_float_in_config_file_is_a_usage_error(self, tmp_path, capsys):
        g = tmp_path / "g.dimacs"
        run(["gen", "--c5-blowup", "3", "--out", str(g)], capsys)
        config = tmp_path / "config.json"
        config.write_text('{"eta": "nan"}')
        with pytest.raises(SystemExit) as exc:
            main(["strong-edge", "--input", str(g), "--config", str(config)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines() == [
            "sparsecolour strong-edge: error: argument --eta: must be a finite number, got 'nan'"
        ]

    def test_unwritable_out_exits_two(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.json"
        code, stdout, err = run(["bounds", "constants", "--out", str(out)], capsys)
        assert code == 2 and stdout == ""
        assert err.splitlines() == [
            f"sparsecolour: [Errno 2] No such file or directory: '{out}'"
        ]

    def test_config_file_not_an_object_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]")
        with pytest.raises(SystemExit) as exc:
            main(["color", "--input", "g.dimacs", "--k", "3", "--config", str(config)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"sparsecolour: error: config file {config}: expected a JSON object"
        ]

    def test_unreadable_config_file_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "missing.json"
        with pytest.raises(SystemExit) as exc:
            main(["color", "--input", "g.dimacs", "--k", "3", "--config", str(config)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"sparsecolour: error: cannot read config file {config}: "
            f"[Errno 2] No such file or directory: '{config}'"
        ]

    def test_help_and_version_unchanged(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"{sparsecolour.__version__}\n"
        with pytest.raises(SystemExit) as exc:
            main(["color", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: sparsecolour color [-h] --input INPUT")

    @pytest.mark.parametrize(
        "text,reason",
        [
            ("p edge 2 0\np edge 2 0\n", "line 2: duplicate problem line"),
            ("p col 2 0\n", "line 1: expected 'p edge <n> <m>'"),
            ("p edge 2\n", "line 1: expected 'p edge <n> <m>'"),
            ("p edge two 0\n", "line 1: bad problem line"),
            ("p edge 2 x\n", "line 1: bad problem line"),
            ("p edge -1 0\n", "line 1: negative vertex count"),
            ("e 1 2\np edge 2 1\n", "line 1: edge before problem line"),
            ("p edge 2 1\ne 1\n", "line 2: expected 'e <u> <v>'"),
            ("p edge 2 1\ne 1 2 3\n", "line 2: expected 'e <u> <v>'"),
            ("p edge 2 1\ne 1 b\n", "line 2: bad edge endpoints"),
            ("p edge 2 1\ne 1 3\n", "line 2: endpoint out of range 1..2"),
            ("p edge 2 1\ne 2 2\n", "line 2: self-loop 2"),
            ("p edge 2 2\ne 1 2\ne 2 1\n", "line 3: duplicate edge 2 1"),
            ("c comment\nx 1 2\n", "line 2: unknown record 'x'"),
            ("c only a comment\n\n", "missing problem line"),
        ],
    )
    def test_malformed_dimacs_is_one_line(self, tmp_path, capsys, text, reason):
        g = tmp_path / "g.dimacs"
        g.write_text(text)
        code, out, err = run(["color", "--input", str(g), "--k", "2"], capsys)
        assert code == 1 and out == ""
        assert err.splitlines() == [f"sparsecolour: {reason}"]


class TestBenchmarkTrace:
    # The benchmark's trace mode wraps package functions and methods by name;
    # a renamed or deleted one, or a changed return shape, fails here rather
    # than only there.  Every run writes its report through cli._emit.

    def _trace(self, tmp_path, capsys, monkeypatch, argv):
        import importlib

        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
        tracer = importlib.import_module("tracing").Tracer()
        g = tmp_path / "g.dimacs"
        run(["gen", "--c5-blowup", "8", "--out", str(g)], capsys)
        tracer.install()
        try:
            code = tracer.call(0, main, [*argv, "--input", str(g)])
        finally:
            tracer.uninstall()
        capsys.readouterr()
        assert code == 0
        assert tracer.counts["cli.report_bytes"] > 0
        return tracer

    def test_tracer_wraps_every_listed_name(self, tmp_path, capsys, monkeypatch):
        argv = ["color", "--k", "16", "--seed", "7"]
        tracer = self._trace(tmp_path, capsys, monkeypatch, argv)
        assert tracer.counts["ncp.pair_rows"] > 0
        assert tracer.counts["ncp.regularised_vertices_max"] >= 40
        assert "ncp.pair_index_s" in tracer.self_times()

    def test_tracer_on_strong_edge(self, tmp_path, capsys, monkeypatch):
        tracer = self._trace(tmp_path, capsys, monkeypatch, ["strong-edge", "--seed", "7"])
        # Filled by the f_core_with_order hook, even for an empty core.
        assert "strong_edge.core_size" in tracer.counts

    def test_tracer_sees_the_engine_inside_the_strong_edge_core(self, monkeypatch):
        # _colour_core calls the engine through strong_edge's own names, so
        # the tracer has to wrap them there too.  On C5 blow-up 4 the engine
        # runs and fails, and the core falls back to first-fit.
        import importlib

        from sparsecolour import strong_edge

        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
        tracer = importlib.import_module("tracing").Tracer()
        tracer.install()
        try:
            _, engine_used, warning = tracer.call(
                0, strong_edge._colour_core, c5_blowup(4), 5, 20
            )
        finally:
            tracer.uninstall()
        assert not engine_used
        assert warning.startswith("engine failed (round ") and warning.endswith(
            "); greedy fallback"
        )
        times = tracer.self_times()
        assert "ncp.schedule_s" in times and "ncp.driver_s" in times

    def test_tracer_on_monte_carlo(self, tmp_path, capsys, monkeypatch):
        argv = ["simulate", "--experiment", "mc", "--k", "16", "--trials", "50", "--seed", "7"]
        tracer = self._trace(tmp_path, capsys, monkeypatch, argv)
        assert "harness.mc_s" in tracer.self_times()
