"""Command line interface: subcommands, exit codes, determinism."""

import hashlib
import json
import time

import pytest

from sparsecolour.cli import main
from sparsecolour.graph import parse_dimacs
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
        # 26 * 2^24 regularised vertices: refused before any doubling step,
        # which is replaced here by one that fails the test.
        import sparsecolour.ncp as ncp

        def doubling(*args, **kwargs):
            raise AssertionError("the size check must come before any doubling")

        monkeypatch.setattr(ncp, "_double", doubling)
        g = tmp_path / "star.dimacs"
        run(["gen", "--star", "25", "--out", str(g)], capsys)
        start = time.perf_counter()
        code, out, err = run(["color", "--input", str(g), "--k", "24"], capsys)
        # The refusal reads a 26-vertex graph and compiles it once: about
        # 4 ms on a 2-vCPU host, so the bound leaves a 250x margin for a
        # slow or loaded machine.
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert "436207616 vertices" in err

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

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_seed_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--cycle", "5", "--seed", "-1"])
        assert exc.value.code == 2

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

    @pytest.mark.parametrize("grid", ["0", "-1", "nan", "0.6"])
    def test_grid_outside_range_is_one_line(self, capsys, grid):
        code, out, err = run(["bounds", "table1", "--grid", grid], capsys)
        assert code == 1 and out == ""
        assert err.splitlines() == [f"sparsecolour: grid={float(grid)} outside (0, 0.5]"]

    def test_beta_nan_names_the_reason(self, tmp_path, capsys):
        g = tmp_path / "g.dimacs"
        run(["gen", "--c5-blowup", "3", "--out", str(g)], capsys)
        code, out, _ = run(
            ["color", "--input", str(g), "--k", "5", "--beta", "nan"], capsys
        )
        assert code == 1
        reason = json.loads(out)["result"]["failureReason"]
        assert reason == "schedule: beta must be positive"


class TestBenchmarkTrace:
    def test_tracer_wraps_every_listed_name(self, tmp_path, capsys, monkeypatch):
        # The benchmark's trace mode wraps package functions and methods by
        # name; a renamed or deleted one fails here rather than only there.
        import importlib
        from pathlib import Path

        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
        tracer = importlib.import_module("tracing").Tracer()
        g = tmp_path / "g.dimacs"
        run(["gen", "--c5-blowup", "8", "--out", str(g)], capsys)
        argv = ["color", "--input", str(g), "--k", "16", "--seed", "7"]
        tracer.install()
        try:
            code = tracer.call(0, main, argv)
        finally:
            tracer.uninstall()
        capsys.readouterr()
        assert code == 0
        assert tracer.counts["ncp.pair_rows"] > 0
        assert tracer.counts["ncp.regularised_vertices_max"] >= 40
        assert "ncp.pair_index_s" in tracer.self_times()
