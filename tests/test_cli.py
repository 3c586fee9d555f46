"""Command-line interface: exit codes, output formats, determinism."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from schurkit import (Box, ConditionReport, catalog, check_1d, check_2d, check_continuous,
                      check_dd, cli, load_symbol)
from schurkit.cli import main


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def _strip_timestamp(text: str) -> str:
    # the run-stamp and the output path are the only run-varying lines
    return "\n".join(line for line in text.splitlines()
                     if "generated_at" not in line
                     and not line.startswith("# out="))


# every subcommand's help, an unknown option, a bad option value, an unknown
# command and no arguments
_PARSE_EXITS = ([["--help"]] + [[c, "--help"] for c in cli._COMMANDS]
                + [["estimate", "--bogus"], ["check", "--nmax", "x"], ["nosuch"], []])


class TestParserBuild:
    """main builds the named subcommand's parser alone, with the full build's output."""

    @staticmethod
    def _exit(parse, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        out = capsys.readouterr()
        return out.out, out.err, exc.value.code

    @pytest.mark.parametrize("argv", _PARSE_EXITS, ids=lambda a: " ".join(a) or "none")
    def test_same_output_as_the_full_parser(self, argv, capsys):
        full = self._exit(lambda a: cli._build_parser().parse_args(a), argv, capsys)
        assert self._exit(main, argv, capsys) == full

    def test_a_named_command_builds_one_parser(self, monkeypatch, capsys):
        built = []
        for name, (help_text, add) in list(cli._COMMANDS.items()):
            monkeypatch.setitem(cli._COMMANDS, name, (
                help_text, lambda p, name=name, add=add: (built.append(name), add(p))))
        self._exit(main, ["estimate", "--help"], capsys)
        assert built == ["estimate"]
        self._exit(main, ["--help"], capsys)
        assert built == ["estimate", *cli._COMMANDS]


def _load_data_diff():
    path = Path(__file__).resolve().parents[1] / "tools" / "data_diff.py"
    spec = importlib.util.spec_from_file_location("data_diff", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the command list that tools/data_diff.py runs through two checkouts
DATA_DIFF = _load_data_diff()


class TestRunConfig:
    """The header's run_config is the parsed namespace: every declared option
    with its resolved value, the symbol options as ``symbol``."""

    @pytest.mark.parametrize("argv", [argv for argv in DATA_DIFF.COMMANDS
                                      if "continuous_2d_defect.json" not in argv], ids=" ".join)
    def test_every_declared_option_is_recorded(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for name, spec in DATA_DIFF.SPECS.items():
            (tmp_path / name).write_text(json.dumps(spec))
        argv = argv + ["--out", "report.json"]
        assert main(argv) in (0, 1)
        body = json.loads((tmp_path / "report.json").read_text())
        config = body["header"]["run_config"]
        declared = vars(cli._build_parser(argv[0]).parse_args(argv))
        del declared["fn"]
        name, spec = declared.pop("catalog", None), declared.pop("spec", None)
        assert config.pop("symbol", None) == (f"catalog:{name}" if name
                                              else spec and f"spec:{spec}")
        assert config.pop("version") == cli.__version__
        unset = {k for k, v in declared.items() if v is None}
        assert unset <= {"threshold", "out", "kmax"}
        if argv[0] == "check" and declared["kmax"] is None:
            # resolved by the checker that reads it: 5 for check_2d, 4 for check_dd
            assert config.pop("kmax", None) == {"2d": 5, "dd": 4}.get(body["data"]["kind"])
        assert config == {k: v for k, v in declared.items() if v is not None}


class TestCatalog:
    def test_lists_symbols(self, capsys):
        assert main(["catalog"]) == 0
        body = _json_out(capsys)
        names = [e["name"] for e in body["data"]["symbols"]]
        assert names == sorted(names)
        assert "triangular" in names and "continuous_arctan" in names
        assert body["header"]["run_config"]["command"] == "catalog"

    def test_csv_format(self, capsys):
        assert main(["catalog", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert any(line.startswith("# command=catalog") for line in lines)
        assert "name,kind,d" in lines


class TestCheck:
    def test_triangular_headline(self, capsys):
        assert main(["check", "--catalog", "triangular", "--nmax", "4"]) == 0
        body = _json_out(capsys)
        assert body["data"]["headline"]["C2"] == 1.0
        assert body["data"]["within_block_sup"] == 0.0

    def test_threshold_exit(self, capsys):
        rc = main(["check", "--catalog", "triangular", "--nmax", "3",
                   "--threshold", "0.5"])
        assert rc == 1

    def test_missing_symbol(self, capsys):
        assert main(["check"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_catalog_name(self, capsys):
        assert main(["check", "--catalog", "nope"]) == 2
        assert "valid:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        # the symbol fixes the dimension; there is no --d to disagree with it
        ["check", "--catalog", "triangular", "--d", "2"],
        # no handler reads these, so no parser declares them
        ["catalog", "--seed", "1"],
        ["catalog", "--threshold", "0"],
        ["verify", "--threshold", "1"],
    ], ids=" ".join)
    def test_undeclared_option_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        # p = 2 runs no seeded start, so numpy never sees the seed
        ["estimate", "--catalog", "triangular"],
        ["check", "--catalog", "lacunary_toeplitz"],
        ["growth", "--catalog", "triangular", "--n", "4"],
        ["verify"],
    ], ids=" ".join)
    def test_negative_seed_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "-1"])
        assert exc.value.code == 2
        assert "argument --seed: expected a non-negative integer" in capsys.readouterr().err

    def test_bad_base_range(self, capsys):
        rc = main(["check", "--catalog", "triangular", "--base-range", "abc"])
        assert rc == 2

    def test_json_deterministic(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main(["check", "--catalog", "lacunary_toeplitz",
                         "--seed", "0", "--nmax", "5",
                         "--out", str(path)]) == 0
        a, b = (json.loads(p.read_text()) for p in paths)
        assert a["data"] == b["data"]

    def test_csv_deterministic(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert main(["check", "--catalog", "smooth_homogeneous",
                         "--format", "csv", "--nmax", "4",
                         "--out", str(path)]) == 0
        a, b = (_strip_timestamp(p.read_text()) for p in paths)
        assert a == b
        assert a.splitlines()[-1].split(",")[0] in ("block", "within")

    def test_alpha_d3_toeplitz_default_base_range(self, tmp_path, capsys):
        # the default cube(-8, 8, 3) has 4096 bases; a Toeplitz symbol is
        # evaluated at one of them (all 4096 at once needed > 10 GB)
        spec = tmp_path / "t3.json"
        spec.write_text(json.dumps({
            "kind": "toeplitz", "d": 3,
            "phi": "cos(0.83*k1 - 1.21*k3) / (1 + k1*k1 + k2*k2 + k3*k3)"}))
        assert main(["check", "--spec", str(spec), "--alpha", "--kmax", "4"]) == 0
        data = _json_out(capsys)["data"]
        assert data["truncation"]["bases"] == 4096
        assert len(data["table"]) == 7 * 2 * 4
        assert all(r["base"] == [-8, -8, -8] for r in data["table"])

    def test_alpha_and_the_resolved_kmax_reach_the_header(self, capsys):
        assert main(["check", "--catalog", "triangular", "--alpha", "--base-range=-2:2"]) == 0
        config = _json_out(capsys)["header"]["run_config"]
        assert (config["alpha"], config["kmax"]) == (True, 4)

    def test_continuous_symbol_routes_to_derivative_check(self, capsys):
        rc = main(["check", "--catalog", "continuous_arctan",
                   "--jmin", "-2", "--jmax", "2"])
        assert rc == 0
        body = _json_out(capsys)
        assert body["data"]["headline"]["A"] == pytest.approx(
            2.0 * np.arctan(1.0 / 3.0), abs=1e-8)

    def test_alpha_on_a_d1_symbol_runs_the_mixed_difference_checker(self, capsys):
        assert main(["check", "--catalog", "triangular", "--alpha", "--kmax", "3",
                     "--base-range=-2:2"]) == 0
        data = _json_out(capsys)["data"]
        assert data["kind"] == "dd"
        assert data["headline"] == {"C1": 1.0, "C": 1.0}
        assert len(data["table"]) == 3 * 2
        # without --kmax the mixed-difference checker's default of 4 levels
        assert main(["check", "--catalog", "triangular", "--alpha",
                     "--base-range=-2:2"]) == 0
        assert _json_out(capsys)["data"]["truncation"]["k_max"] == 4


_SPEC_2D = {"kind": "toeplitz", "d": 2,
            "phi": "cos(0.7*k1 + 1.1*k2) / (1 + k1*k1 + k2*k2)"}

# report kind -> (check options, the same check in the library, and each
# derived constant with the section and direction prefix of its rows)
_REPORT_KINDS = {
    "1d": (["--catalog", "lacunary_toeplitz", "--seed", "1", "--nmax", "4",
            "--base-range=-3:3"],
           lambda spec: check_1d(catalog("lacunary_toeplitz", seed=1), 4, Box.interval(-3, 3)),
           {"c2": ("table", ""), "within_block_sup": ("within_table", "")}),
    "2d": (["--spec", "{spec}", "--kmax", "2", "--base-range=-2:2"],
           lambda spec: check_2d(load_symbol(spec), 2, Box.cube(-2, 2, 2)),
           {"c2": ("table", "edge"), "c3": ("table", "mixed")}),
    "dd": (["--spec", "{spec}", "--alpha", "--kmax", "2", "--base-range=-2:2"],
           lambda spec: check_dd(load_symbol(spec), 2, Box.cube(-2, 2, 2)),
           {"c2": ("table", "")}),
    "continuous": (["--catalog", "continuous_arctan", "--jmin", "-2", "--jmax", "1"],
                   lambda spec: check_continuous(catalog("continuous_arctan"), (-2, 1)),
                   {"a_const": ("table", "")}),
}


class TestReportConstants:
    """A report derives its suprema from its own rows, and the check command
    prints the report's headline."""

    @pytest.mark.parametrize("kind", list(_REPORT_KINDS))
    def test_derived_constants_and_headline(self, kind, tmp_path, capsys):
        options, run, derived = _REPORT_KINDS[kind]
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(_SPEC_2D))
        rep = run(str(spec))
        assert rep.kind == kind
        for name in ("c2", "c3", "a_const", "within_block_sup"):
            if name in derived:
                section, prefix = derived[name]
                rows = [r["value"] for r in getattr(rep, section)
                        if str(r["direction"]).startswith(prefix)]
                assert getattr(rep, name) == max(rows)
            else:
                assert getattr(rep, name) is None
        assert main(["check", *[o.format(spec=spec) for o in options]]) == 0
        assert _json_out(capsys)["data"]["headline"] == rep.headline

    @pytest.mark.parametrize("name", ["c2", "c3", "a_const", "within_block_sup"])
    def test_suprema_are_not_inputs(self, name):
        with pytest.raises(TypeError):
            ConditionReport(kind="1d", symbol="x", d=1, **{name: 1.0})


class TestVerify:
    def test_small_run_passes(self, capsys):
        assert main(["verify", "--trials", "4", "--seed", "0"]) == 0
        body = _json_out(capsys)
        suites = {s["suite"]: s for s in body["data"]["suites"]}
        assert set(suites) == {
            "multiplier_transfer", "block_telescoping_1d",
            "block_telescoping_2d", "difference_reconstruction",
            "operator_cauchy_schwarz",
        }
        assert all(s["pass"] for s in suites.values())

    def test_injected_fault_detected(self, capsys):
        assert main(["verify", "--trials", "2", "--inject-fault"]) == 1

    def test_telescoping_2d_residual_reported(self, monkeypatch, capsys):
        # a 2-d symbol whose values drift between calls breaks the rectangle
        # reassembly: the suite fails in the report, which is still written
        import schurkit.cli as cli
        from schurkit import DiscreteSymbol

        plain = cli._random_symbol

        def drifting(rng, d):
            m = plain(rng, d)
            if d == 1:
                return m
            calls = [0]

            def fn(s, t):
                calls[0] += 1
                return m.eval_pairs(s, t) * (1.0 + 1e-6 * calls[0])

            return DiscreteSymbol.callback(fn, d=2)

        monkeypatch.setattr(cli, "_random_symbol", drifting)
        assert main(["verify", "--trials", "2", "--seed", "0"]) == 1
        suites = {s["suite"]: s for s in _json_out(capsys)["data"]["suites"]}
        assert not suites["block_telescoping_2d"]["pass"]
        assert suites["block_telescoping_2d"]["max_residual"] > 1e-10
        assert suites["block_telescoping_1d"]["pass"]

    def test_zero_trials_vacuous(self, capsys):
        assert main(["verify", "--trials", "0"]) == 0
        assert "vacuous" in capsys.readouterr().err


class TestEstimate:
    def test_rows_and_tokens(self, capsys):
        rc = main(["estimate", "--catalog", "triangular", "--p", "2,4/3",
                   "--n", "2,4", "--restarts", "2", "--iters", "10"])
        assert rc == 0
        rows = _json_out(capsys)["data"]["rows"]
        assert len(rows) == 4
        assert sorted({r["p"] for r in rows}) == ["2", "4/3"]
        assert all(r["estimate"] > 0 for r in rows)

    def test_csv_columns(self, capsys):
        rc = main(["estimate", "--catalog", "triangular", "--p", "2",
                   "--n", "2", "--restarts", "1", "--iters", "5",
                   "--format", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        data_lines = [ln for ln in lines if not ln.startswith("#")]
        assert data_lines[0] == ("symbol,d,p,N,k_amp,estimate,reference,"
                                 "ratio,restarts,iterations_budget,"
                                 "iterations_used,seed")
        assert len(data_lines) == 2

    def test_iteration_columns(self, capsys):
        rc = main(["estimate", "--catalog", "smooth_homogeneous", "--p", "4",
                   "--n", "3", "--restarts", "2", "--iters", "6"])
        assert rc == 0
        (row,) = _json_out(capsys)["data"]["rows"]
        assert row["iterations_budget"] == 6
        assert 0 < row["iterations_used"] <= 2 * 6

    def test_line_search_counters_stay_in_the_header(self, tmp_path):
        # the counters sum flags["line_search"] over the rows; the data
        # section is exactly the rows, in JSON and in CSV
        from schurkit import catalog, cb_lower_bound
        from schurkit.cli import _estimate_csv, _jsonable
        from schurkit.estimator import _estimate_row

        args = ["estimate", "--catalog", "triangular", "--p", "4,3", "--n", "3",
                "--restarts", "2", "--iters", "10", "--amp", "2"]
        rows, sums = [], {}
        for tok, p in (("4", 4.0), ("3", 3.0)):
            res = cb_lower_bound(catalog("triangular"), Box.interval(-3, 3), p, 2,
                                 budget={"restarts": 2, "iterations": 10})
            rows.append(_estimate_row(catalog("triangular"), "", tok, 3, res, 10))
            for key, n in res.flags["line_search"].items():
                sums[f"line_search_{key}"] = sums.get(f"line_search_{key}", 0) + n
        assert main(args + ["--out", str(tmp_path / "e.json")]) == 0
        body = json.loads((tmp_path / "e.json").read_text())
        assert body["header"]["counters"] == sums and sums["line_search_direct"] > 0
        assert (json.dumps(body["data"], indent=2, sort_keys=True)
                == json.dumps(_jsonable({"rows": rows}), indent=2, sort_keys=True))
        assert main(args + ["--format", "csv", "--out", str(tmp_path / "e.csv")]) == 0
        lines = (tmp_path / "e.csv").read_text().splitlines()
        assert [ln for ln in lines if not ln.startswith("#")] == [
            ",".join(str(c) for c in row) for row in _estimate_csv(rows)]
        assert [ln for ln in lines if ln.startswith("# counters.")] == [
            f"# counters.{k}={sums[k]}" for k in sorted(sums)]

    OUT_OF_RANGE = [
        (["estimate", "--catalog", "triangular", "--restarts", "0"],
         "budget needs restarts >= 1"),
        (["estimate", "--catalog", "triangular", "--amp", "0"], "amplification k must be >= 1"),
        (["estimate", "--catalog", "triangular", "--amp", "-1"], "amplification k must be >= 1"),
        (["estimate", "--catalog", "triangular", "--p", ""], "empty p list"),
        (["check", "--catalog", "triangular", "--nmax", "0"], "N_max must be >= 1"),
        (["check", "--spec", "toeplitz_2d.json", "--kmax", "0"], "k_max must be >= 1"),
        # no trial runs, yet every suite would pass without the 0-trials warning
        (["verify", "--trials", "-1"], "--trials must be >= 0"),
    ]

    @pytest.mark.parametrize("argv, message", OUT_OF_RANGE,
                             ids=[" ".join(argv) for argv, _ in OUT_OF_RANGE])
    def test_out_of_range_value_rejected(self, argv, message, tmp_path, monkeypatch, capsys):
        # a 0 or an empty list is the value the run uses, not a request for
        # the default: it fails a check, the library's own where it has one,
        # instead of running, say, an unamplified row labelled k_amp = 0
        monkeypatch.chdir(tmp_path)
        (tmp_path / "toeplitz_2d.json").write_text(json.dumps(
            TestReportEncoding.SPECS["toeplitz_2d"]))
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    def test_zero_iterations_run_no_ascent_step(self, capsys):
        assert main(["estimate", "--catalog", "triangular", "--p", "4,3", "--n", "4",
                     "--iters", "0"]) == 0
        rows = _json_out(capsys)["data"]["rows"]
        assert [(r["iterations_budget"], r["iterations_used"]) for r in rows] == [(0, 0)] * 2

    def test_defaults_reach_the_header(self, capsys):
        assert main(["estimate", "--catalog", "triangular"]) == 0
        config = _json_out(capsys)["header"]["run_config"]
        assert {k: config[k] for k in ("p", "n", "restarts", "iters", "amp", "seed")} == {
            "p": "2", "n": "8", "restarts": 10, "iters": 200, "amp": 1, "seed": 0}

    def test_continuous_symbol_rejected(self, capsys):
        rc = main(["estimate", "--catalog", "continuous_arctan"])
        assert rc == 2
        assert "discretize" in capsys.readouterr().err


class TestGrowth:
    def test_writes_report_and_plot_data(self, tmp_path):
        out = tmp_path / "g.json"
        rc = main(["growth", "--catalog", "triangular", "--p", "2",
                   "--n", "2,3", "--restarts", "1", "--iters", "5",
                   "--out", str(out)])
        assert rc == 0
        rows = json.loads(out.read_text())["data"]["rows"]
        assert [r["N"] for r in rows] == [2, 3]
        dat = (tmp_path / "g.dat").read_text()
        assert dat.startswith("# N estimate reference ratio")
        assert "# p = 2" in dat

    def test_rows_split_budget_and_steps_used(self, capsys):
        rc = main(["growth", "--catalog", "smooth_homogeneous", "--p", "4",
                   "--n", "2,3", "--restarts", "2", "--iters", "5"])
        assert rc == 0
        rows = _json_out(capsys)["data"]["rows"]
        assert all(r["iterations_budget"] == 5 for r in rows)
        assert all(0 < r["iterations_used"] <= 3 * 5 for r in rows)
        assert "iterations" not in rows[0]

    def test_stdout_report_writes_no_plot_data(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["growth", "--catalog", "triangular", "--p", "2",
                   "--n", "2", "--restarts", "1", "--iters", "5"])
        assert rc == 0
        assert [r["N"] for r in _json_out(capsys)["data"]["rows"]] == [2]
        assert list(tmp_path.iterdir()) == []

    def test_plot_data_deterministic(self, tmp_path):
        texts = []
        for stem in ("a", "b"):
            out = tmp_path / f"{stem}.json"
            assert main(["growth", "--catalog", "lacunary_toeplitz",
                         "--p", "2", "--n", "2,3", "--restarts", "1",
                         "--iters", "5", "--out", str(out)]) == 0
            texts.append((tmp_path / f"{stem}.dat").read_text())
        assert texts[0] == texts[1]


class TestFailedIdentityCheck:
    def test_arithmetic_error_exits_1_with_one_line(self, monkeypatch, capsys):
        import schurkit.transference as tr

        def broken(*args, **kwargs):
            raise ArithmeticError("reassembly residual 1e-3 exceeds 1e-12")

        monkeypatch.setattr(tr, "summation_by_parts_2d", broken)
        assert main(["verify", "--trials", "2", "--seed", "0"]) == 1
        err = capsys.readouterr().err
        assert err == "check failed: reassembly residual 1e-3 exceeds 1e-12\n"


class TestDiscretize:
    def test_linear_symbol_cell_averages(self, tmp_path, capsys):
        spec = tmp_path / "linear.json"
        spec.write_text(json.dumps(
            {"kind": "continuous", "d": 1, "expr": "x1 - y1", "name": "linear"}))
        out = tmp_path / "d.json"
        rc = main(["discretize", "--spec", str(spec), "--scale", "3",
                   "--base-range=-8:8", "--nmax", "2",
                   "--jmin", "0", "--jmax", "2", "--out", str(out)])
        assert rc == 0
        body = json.loads(out.read_text())
        assert body["data"]["scale"] == 3
        # companion spec reloads to the dense table of cell averages
        reloaded = load_symbol(str(tmp_path / "d.symbol.json"))
        win = Box.interval(-8, 8)
        pts = win.points_array()[:, 0]
        want = (pts[:, None] - pts[None, :]) / 8.0 - 1.0 / 16.0
        assert np.abs(reloaded.values_on(win, win) - want).max() < 1e-12
        assert body["data"]["within_block_sup"] <= body["data"]["continuous_A"] + 1e-6

    def test_requires_out(self, capsys):
        rc = main(["discretize", "--catalog", "continuous_constant"])
        assert rc == 2
        assert "--out" in capsys.readouterr().err

    def test_discrete_symbol_rejected(self, tmp_path):
        rc = main(["discretize", "--catalog", "triangular",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2

    BAD_INPUTS = [
        (["--nmax", "0"], "--nmax must be >= 1"),
        (["--scale", "-1"], "--scale must be >= 0"),
        (["--jmin", "3", "--jmax", "1"], "--jmin must be <= --jmax"),
    ]

    @pytest.mark.parametrize("argv, message", BAD_INPUTS,
                             ids=[" ".join(argv) for argv, _ in BAD_INPUTS])
    def test_bad_input_rejected_before_any_work(self, argv, message, tmp_path,
                                                monkeypatch, capsys):
        import schurkit.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("discretize_continuous ran on a bad input")

        monkeypatch.setattr(cli, "discretize_continuous", never)
        rc = main(["discretize", "--catalog", "continuous_ratio", *argv,
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestReportEncoding:
    """check and discretize encode each report once, to the bytes of the JSON
    round trip (report.to_json(), then json.loads) they used to make."""

    SPECS = {
        "toeplitz_2d": {"kind": "toeplitz", "d": 2,
                        "phi": "cos(0.7*k1 + 1.1*k2) / (1 + k1*k1 + k2*k2)"},
        "toeplitz_3d": {"kind": "toeplitz", "d": 3,
                        "phi": "cos(0.7*k1 - 1.1*k3) / (1 + k1*k1 + k2*k2 + k3*k3)"},
    }

    def _commands(self, tmp_path):
        paths = {}
        for name, spec in self.SPECS.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(spec))
        levels = ["--jmin", "-2", "--jmax", "2"]
        return [
            ["check", "--catalog", "triangular", "--nmax", "6", "--base-range=-8:8"],
            ["check", "--catalog", "lacunary_toeplitz", "--seed", "3", "--nmax", "6",
             "--base-range=-8:8"],
            ["check", "--spec", str(paths["toeplitz_2d"]), "--kmax", "2",
             "--base-range=-2:2"],
            ["check", "--spec", str(paths["toeplitz_3d"]), "--alpha", "--kmax", "2",
             "--base-range=-2:2"],
            ["check", "--catalog", "continuous_arctan", *levels],
            ["check", "--catalog", "continuous_ratio", *levels],
            ["discretize", "--catalog", "continuous_ratio", "--scale", "3", *levels],
            ["discretize", "--catalog", "continuous_arctan", "--scale", "4", *levels],
        ]

    def test_reports_match_the_round_trip(self, tmp_path, monkeypatch):
        from schurkit.marcinkiewicz import ConditionReport

        out = tmp_path / "report.json"

        def report(argv):
            assert main(argv + ["--out", str(out)]) in (0, 1)
            return _strip_timestamp(out.read_text())

        commands = self._commands(tmp_path)
        direct = [report(argv) for argv in commands]
        encoded = ConditionReport.as_dict
        monkeypatch.setattr(ConditionReport, "as_dict", lambda self: json.loads(
            json.dumps(encoded(self), indent=2, sort_keys=True)))
        assert [report(argv) for argv in commands] == direct

    @pytest.mark.parametrize("name, scale", [("continuous_ratio", 3),
                                             ("continuous_arctan", 4)])
    def test_symbol_file_matches_per_entry_floats(self, tmp_path, name, scale):
        from schurkit import catalog, discretize_continuous

        out = tmp_path / "report.json"
        main(["discretize", "--catalog", name, "--scale", str(scale), "--jmin", "-1",
              "--jmax", "1", "--nmax", "3", "--out", str(out)])
        text = out.with_suffix(".symbol.json").read_text()
        window = Box.interval(-34, 35)
        table = discretize_continuous(catalog(name), scale, window).values_on(window, window)
        spec = json.loads(text)
        spec["entries"] = [[[float(z.real), float(z.imag)] for z in row] for row in table]
        assert json.dumps(spec, sort_keys=True) == text


class TestSpecErrors:
    def test_expression_parse_error(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(
            {"kind": "toeplitz", "d": 1, "expr": "cos("}))
        assert main(["check", "--spec", str(spec)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["check", "--spec", "/nonexistent/path.json"]) == 2
        assert "not found" in capsys.readouterr().err
