"""Command-line interface: exit codes, output formats, determinism."""

import json

import numpy as np
import pytest

from schurkit import Box, load_symbol
from schurkit.cli import main


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def _strip_timestamp(text: str) -> str:
    # the run-stamp and the output path are the only run-varying lines
    return "\n".join(line for line in text.splitlines()
                     if "generated_at" not in line
                     and not line.startswith("# out="))


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

    def test_dimension_option_rejected(self, capsys):
        # the symbol fixes the dimension; there is no --d to disagree with it
        with pytest.raises(SystemExit) as exc:
            main(["check", "--catalog", "triangular", "--d", "2"])
        assert exc.value.code == 2
        assert "--d" in capsys.readouterr().err

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

    def test_continuous_symbol_routes_to_derivative_check(self, capsys):
        rc = main(["check", "--catalog", "continuous_arctan",
                   "--jmin", "-2", "--jmax", "2"])
        assert rc == 0
        body = _json_out(capsys)
        assert body["data"]["headline"]["A"] == pytest.approx(
            2.0 * np.arctan(1.0 / 3.0), abs=1e-8)


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

    def test_negative_amplification_rejected(self, capsys):
        # every estimate goes through cb_lower_bound, which rejects k < 1
        # instead of reporting an unamplified row labelled k_amp = -1
        rc = main(["estimate", "--catalog", "triangular", "--p", "4",
                   "--n", "2", "--amp", "-1"])
        assert rc == 2
        assert "amplification" in capsys.readouterr().err

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
