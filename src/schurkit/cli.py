"""Command line front end.

Subcommands: check (variation-condition constants), verify (exact-identity
suites), estimate (norm lower bounds), growth ((p, N) experiment tables),
discretize (cell-average a continuous symbol and re-check it), catalog.

Every output embeds the resolved run configuration. Data sections are byte
identical across repeat runs; the timestamp lives only in the header.

Exit codes: 0 success, 1 threshold breach, failed verification or a failed
internal identity check (ArithmeticError), 2 input or quadrature error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from ._expr import ParseError
from .estimator import (LINE_SEARCH_COUNTS, _estimate_row, apply_schur, cb_lower_bound,
                        growth_experiment)
from .lattice import Box, fundamental_theorem_expand
from .marcinkiewicz import (
    QuadratureError,
    check_1d,
    check_2d,
    check_continuous,
    check_dd,
    discretize_continuous,
)
from .schatten import LabeledMatrix, cs_gap
from .symbols import (
    ContinuousSymbol,
    DiscreteSymbol,
    SymbolError,
    WindowCapError,
    catalog,
    catalog_names,
    load_symbol,
)
from . import transference as tr

_CATALOG_BUILDERS_SEEDED = {"lacunary_toeplitz", "rank_one"}


class CliError(Exception):
    """Input problem: reported on stderr, exit status 2."""


# ---------------------------------------------------------------------------
# argument parsing


def _parse_p_list(text: str):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            if "/" in tok:
                val = Fraction(tok)
            elif "." in tok or "e" in tok.lower():
                val = float(tok)
            else:
                val = Fraction(int(tok))
        except (ValueError, ZeroDivisionError) as exc:
            raise CliError(f"cannot parse p value {tok!r}: {exc}") from None
        out.append((tok, val))
    if not out:
        raise CliError("empty p list")
    return out


def _parse_n_list(text: str):
    try:
        ns = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise CliError(f"cannot parse N list {text!r}: {exc}") from None
    if not ns or any(n < 1 for n in ns):
        raise CliError("N list must contain positive integers")
    return ns


def _parse_base_range(text: str, d_hint: int | None = None) -> Box:
    pairs = []
    for tok in text.split(","):
        tok = tok.strip()
        if ":" not in tok:
            raise CliError(f"base range component {tok!r} is not of the form lo:hi")
        lo_s, hi_s = tok.split(":", 1)
        try:
            pairs.append((int(lo_s), int(hi_s)))
        except ValueError as exc:
            raise CliError(f"cannot parse base range {tok!r}: {exc}") from None
    if d_hint is not None and len(pairs) == 1 and d_hint > 1:
        pairs = pairs * d_hint
    try:
        return Box.from_pairs(pairs)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _resolve_symbol(args):
    if getattr(args, "catalog", None) and getattr(args, "spec", None):
        raise CliError("--catalog and --spec are mutually exclusive")
    if getattr(args, "catalog", None):
        name = args.catalog
        params = {}
        if name in _CATALOG_BUILDERS_SEEDED and args.seed is not None:
            params["seed"] = args.seed
        try:
            sym = catalog(name, **params)
        except SymbolError as exc:
            raise CliError(str(exc)) from None
        return sym, f"catalog:{name}"
    if getattr(args, "spec", None):
        path = Path(args.spec)
        if not path.exists():
            raise CliError(f"symbol spec file not found: {path}")
        try:
            sym = load_symbol(str(path))
        except ParseError as exc:
            raise CliError(f"symbol spec parse error: {exc}") from None
        except (SymbolError, ValueError, json.JSONDecodeError) as exc:
            raise CliError(f"invalid symbol spec {path}: {exc}") from None
        return sym, f"spec:{path}"
    raise CliError("a symbol is required: pass --catalog NAME or --spec PATH")


def _run_config(args, command: str, symbol_label: str | None) -> dict:
    keys = ("nmax", "kmax", "jmin", "jmax", "base_range", "p", "n",
            "restarts", "iters", "seed", "amp", "format", "threshold",
            "trials", "inject_fault", "scale")
    cfg = {"command": command, "version": __version__}
    if symbol_label is not None:
        cfg["symbol"] = symbol_label
    for k in keys:
        v = getattr(args, k, None)
        if v is not None:
            cfg[k] = v
    if getattr(args, "out", None):
        cfg["out"] = str(args.out)
    return cfg


# ---------------------------------------------------------------------------
# output plumbing


def _emit(args, config: dict, data_obj, csv_rows, counters=None) -> str:
    """Serialize a report: stable data section; timestamp and work counters
    only in the header."""
    fmt = getattr(args, "format", None) or "json"
    if fmt == "json":
        header = {"run_config": config, "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
        if counters is not None:
            header["counters"] = counters
        body = {"header": header, "data": data_obj}
        text = json.dumps(_jsonable(body), indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"# {k}={config[k]}" for k in sorted(config)]
        lines.append(f"# generated_at={time.strftime('%Y-%m-%dT%H:%M:%SZ', time.gmtime())}")
        lines += [f"# counters.{k}={counters[k]}" for k in sorted(counters or ())]
        for row in csv_rows:
            lines.append(",".join(str(c) for c in row))
        text = "\n".join(lines) + "\n"
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)
    return text


def _jsonable(v):
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, np.bool_):
        return bool(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        v = float(v)
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, float) and (math.isinf(v) or math.isnan(v)):
        return repr(v)
    return v


# ---------------------------------------------------------------------------
# subcommands


def cmd_check(args) -> int:
    sym, label = _resolve_symbol(args)
    if isinstance(sym, ContinuousSymbol):
        jmin = args.jmin if args.jmin is not None else -7
        jmax = args.jmax if args.jmax is not None else 7
        report = check_continuous(sym, (jmin, jmax))
        headline = {"A": report.a_const, "C1": report.c1}
    else:
        d = sym.d
        base = (_parse_base_range(args.base_range, d) if args.base_range
                else Box.cube(-8, 8, d))
        if d == 1:
            report = check_1d(sym, args.nmax or 8, base)
            headline = {"C1": report.c1, "C2": report.c2,
                        "within_block_sup": report.within_block_sup}
        elif d == 2 and not args.alpha:
            report = check_2d(sym, args.kmax or 5, base)
            headline = {"C1": report.c1, "C2": report.c2, "C3": report.c3}
        else:
            report = check_dd(sym, d, args.kmax or 4, base)
            headline = {"C1": report.c1, "C": report.c2}
    config = _run_config(args, "check", label)
    data = json.loads(report.to_json())
    data["headline"] = headline
    _emit(args, config, data, report.csv_rows())
    values = [v for v in headline.values() if v is not None]
    if any(not math.isfinite(v) for v in values):
        return 1
    if args.threshold is not None and any(v > args.threshold for v in values):
        return 1
    return 0


def _random_symbol(rng, d: int) -> DiscreteSymbol:
    a = rng.normal(size=d)
    b = rng.normal(size=d)
    c = rng.normal(size=3) + 1j * rng.normal(size=3)

    def fn(s_pts, t_pts):
        s_pts = np.asarray(s_pts, dtype=float)
        t_pts = np.asarray(t_pts, dtype=float)
        ph1 = s_pts @ a
        ph2 = t_pts @ b
        return (c[0] + c[1] * np.exp(1j * (ph1 - ph2))
                + c[2] * np.cos(ph1 + ph2)).astype(np.complex128)

    return DiscreteSymbol.callback(fn, d=d, name="random_trig")


def _random_matrix(rng, window: Box) -> LabeledMatrix:
    n = window.npoints
    data = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return LabeledMatrix(window, window, data)


def cmd_verify(args) -> int:
    trials = args.trials if args.trials is not None else 200
    if trials == 0:
        config = _run_config(args, "verify", None)
        data = {"suites": [], "warning": "0 trials requested: vacuous pass"}
        _emit(args, config, data, [["suite", "trials", "max_residual", "pass"],
                                   ["(none)", 0, 0.0, True]])
        sys.stderr.write("warning: --trials 0 gives a vacuous pass\n")
        return 0
    seed = args.seed if args.seed is not None else 0
    tol = 1e-10
    suites = {
        "multiplier_transfer": 0.0,
        "block_telescoping_1d": 0.0,
        "block_telescoping_2d": 0.0,
        "difference_reconstruction": 0.0,
        "operator_cauchy_schwarz": 0.0,
    }
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        d = 1 if t % 2 == 0 else 2
        side = int(rng.integers(2, 5))
        lo = int(rng.integers(-3, 1))
        window = Box.cube(lo, lo + side, d)
        m = _random_symbol(rng, d)
        A = _random_matrix(rng, window)

        f = tr.pi_embed(A)
        lhs = tr.apply_fourier_multiplier(m, f, verify_two_sided=False)
        rhs = tr.pi_embed(apply_schur(m, A))
        scale = max(rhs.max_abs(), 1.0)
        res = tr.max_coeff_diff(lhs, rhs) / scale
        if args.inject_fault and t == 0:
            res += 1e-3
        suites["multiplier_transfer"] = max(suites["multiplier_transfer"], res)

        if d == 1:
            j = int(rng.integers(1, 5))
            dec = tr.summation_by_parts_1d(m, f, j)
            suites["block_telescoping_1d"] = max(
                suites["block_telescoping_1d"],
                dec.residual / max(dec.direct.max_abs(), 1.0),
            )
        else:
            j = int(rng.integers(1, 4))
            parts = tr.summation_by_parts_2d(m, f, j)
            suites["block_telescoping_2d"] = max(
                suites["block_telescoping_2d"],
                parts.residual / max(parts.direct.max_abs(), 1.0),
            )

        dd = int(rng.integers(1, 4))
        cube = Box.cube(0, 4, dd)
        vals = rng.standard_normal(cube.npoints) + 1j * rng.standard_normal(cube.npoints)

        def phi(pt, _c=cube, _v=vals):
            idx, _ = _c.index_array(np.asarray([pt], dtype=np.int64))
            return _v[int(idx[0])]

        target = tuple(int(v) for v in rng.integers(0, 3, size=dd))
        got = fundamental_theorem_expand(phi, (0,) * dd, (4,) * dd, target)
        res_ft = abs(got - phi(target)) / max(abs(phi(target)), 1.0)
        suites["difference_reconstruction"] = max(
            suites["difference_reconstruction"], res_ft)

        nr = int(rng.integers(1, 5))
        nc = int(rng.integers(1, 5))
        count = int(rng.integers(1, 6))
        rbox, cbox = Box.interval(0, nr), Box.interval(0, nc)

        def rect():
            return LabeledMatrix(rbox, cbox, rng.standard_normal((nr, nc))
                                 + 1j * rng.standard_normal((nr, nc)))

        a_seq = [rect() for _ in range(count)]
        c_seq = [rect() for _ in range(count)]
        gap = cs_gap(a_seq, c_seq)
        suites["operator_cauchy_schwarz"] = max(
            suites["operator_cauchy_schwarz"], max(0.0, -gap))

    rows = [["suite", "trials", "max_residual", "pass"]]
    data_suites = []
    ok = True
    for name, res in suites.items():
        res = float(res)
        passed = res <= tol
        ok = ok and passed
        rows.append([name, trials, repr(res), passed])
        data_suites.append({"suite": name, "trials": trials,
                            "max_residual": res, "pass": passed})
    config = _run_config(args, "verify", None)
    _emit(args, config, {"suites": data_suites, "tolerance": tol}, rows)
    return 0 if ok else 1


def _estimate_csv(rows):
    reals = {"estimate", "reference", "ratio"}
    columns = list(rows[0])
    return [columns] + [[repr(float(r[c])) if c in reals else r[c] for c in columns]
                        for r in rows]


def cmd_estimate(args) -> int:
    sym, label = _resolve_symbol(args)
    if isinstance(sym, ContinuousSymbol):
        raise CliError("estimate needs a discrete symbol; discretize it first")
    p_list = _parse_p_list(args.p or "2")
    n_list = _parse_n_list(args.n or "8")
    seed = args.seed if args.seed is not None else 0
    amp = args.amp or 1
    budget = {"restarts": args.restarts or 10, "iterations": args.iters or 200}
    rows = []
    counters = {f"line_search_{key}": 0 for key in LINE_SEARCH_COUNTS}
    for tok, p in p_list:
        for N in n_list:
            res = cb_lower_bound(sym, Box.cube(-N, N, sym.d), p, amp, budget=budget, seed=seed)
            rows.append(_estimate_row(sym, label, tok, N, res, budget["iterations"]))
            for key, n in res.flags["line_search"].items():
                counters[f"line_search_{key}"] += n
    config = _run_config(args, "estimate", label)
    _emit(args, config, {"rows": rows}, _estimate_csv(rows), counters)
    if args.threshold is not None and any(r["estimate"] > args.threshold for r in rows):
        return 1
    return 0


def cmd_growth(args) -> int:
    sym, label = _resolve_symbol(args)
    if isinstance(sym, ContinuousSymbol):
        raise CliError("growth needs a discrete symbol; discretize it first")
    p_list = _parse_p_list(args.p or "4/3,2,4")
    n_list = _parse_n_list(args.n or "16,32,64")
    seed = args.seed if args.seed is not None else 0
    budget = {"restarts": args.restarts or 4, "iterations": args.iters or 100}
    rows = growth_experiment(sym, [p for _, p in p_list], n_list,
                             budget=budget, seed=seed)
    tokens = {float(p): tok for tok, p in p_list}
    for r in rows:
        r["p"] = tokens.get(float(r["p"]), str(r["p"]))
    config = _run_config(args, "growth", label)
    _emit(args, config, {"rows": rows}, _estimate_csv(rows))

    # gnuplot-ready companion next to the report, one indexed block per p
    # value; a report on stdout gets none
    if args.out:
        dat_lines = ["# N estimate reference ratio"]
        for tok, p in p_list:
            dat_lines.append(f'# p = {tok}')
            for r in rows:
                if r["p"] == tok:
                    dat_lines.append(
                        f'{r["N"]} {r["estimate"]!r} {r["reference"]!r} {r["ratio"]!r}')
            dat_lines.append("")
            dat_lines.append("")
        Path(args.out).with_suffix(".dat").write_text("\n".join(dat_lines))

    if args.threshold is not None and any(r["ratio"] > args.threshold for r in rows):
        return 1
    return 0


def cmd_discretize(args) -> int:
    sym, label = _resolve_symbol(args)
    if not isinstance(sym, ContinuousSymbol):
        raise CliError("discretize needs a continuous symbol")
    if not args.out:
        raise CliError("discretize requires --out for the report (the symbol "
                       "spec is written next to it)")
    k = args.scale if args.scale is not None else 4
    window = (_parse_base_range(args.base_range, 1) if args.base_range
              else Box.interval(-34, 35))
    nmax = args.nmax or 5
    jmin = args.jmin if args.jmin is not None else -7
    jmax = args.jmax if args.jmax is not None else 7
    tol = args.threshold if args.threshold is not None else 1e-6

    mk = discretize_continuous(sym, k, window)
    cont = check_continuous(sym, (jmin, jmax))
    base = Box.interval(-2, 2)
    disc = check_1d(mk, nmax, base)

    spec_obj = {
        "kind": "dense",
        "d": 1,
        "rows": [[int(window.los[0]), int(window.his[0])]],
        "cols": [[int(window.los[0]), int(window.his[0])]],
        "entries": [[[float(z.real), float(z.imag)] for z in row]
                    for row in mk.values_on(window, window)],
        "name": mk.name,
    }
    out_path = Path(args.out)
    symbol_path = out_path.with_suffix(".symbol.json")
    symbol_path.write_text(json.dumps(spec_obj, sort_keys=True))

    data = {
        "scale": k,
        "window": [int(window.los[0]), int(window.his[0])],
        "continuous_A": cont.a_const,
        "discrete": json.loads(disc.to_json()),
        "within_block_sup": disc.within_block_sup,
        "transfer_margin": cont.a_const + tol - disc.within_block_sup,
        "symbol_file": str(symbol_path),
    }
    rows = [["quantity", "value"],
            ["continuous_A", repr(cont.a_const)],
            ["discrete_C2", repr(disc.c2)],
            ["within_block_sup", repr(disc.within_block_sup)],
            ["transfer_margin", repr(data["transfer_margin"])]]
    config = _run_config(args, "discretize", label)
    _emit(args, config, data, rows)
    return 0 if disc.within_block_sup <= cont.a_const + tol else 1


def cmd_catalog(args) -> int:
    entries = []
    for name in catalog_names():
        sym = catalog(name)
        kind = "continuous" if isinstance(sym, ContinuousSymbol) else sym.kind
        entries.append({"name": name, "kind": kind, "d": sym.d})
    config = _run_config(args, "catalog", None)
    rows = [["name", "kind", "d"]] + [[e["name"], e["kind"], e["d"]] for e in entries]
    _emit(args, config, {"symbols": entries}, rows)
    return 0


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schurkit",
        description="Desk-scale toolkit for dyadic variation conditions on "
                    "entrywise multiplier symbols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, symbol=True):
        if symbol:
            p.add_argument("--spec", help="path to a symbol spec (JSON)")
            p.add_argument("--catalog", help="built-in symbol name")
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threshold", type=float, default=None,
                       help="exit 1 when the headline quantity exceeds this")

    p_check = sub.add_parser("check", help="variation-condition constants")
    common(p_check)
    p_check.add_argument("--nmax", type=int, default=None)
    p_check.add_argument("--kmax", type=int, default=None)
    p_check.add_argument("--jmin", type=int, default=None)
    p_check.add_argument("--jmax", type=int, default=None)
    p_check.add_argument("--base-range", dest="base_range", default=None,
                         help="lo:hi[,lo:hi...] base points")
    p_check.add_argument("--alpha", action="store_true",
                         help="force the anchored mixed-difference checker")
    p_check.set_defaults(fn=cmd_check)

    p_verify = sub.add_parser("verify", help="exact-identity suites")
    common(p_verify, symbol=False)
    p_verify.add_argument("--trials", type=int, default=None)
    p_verify.add_argument("--inject-fault", dest="inject_fault",
                          action="store_true",
                          help="test hook: plant one wrong coefficient")
    p_verify.set_defaults(fn=cmd_verify)

    p_est = sub.add_parser("estimate", help="norm lower bound")
    common(p_est)
    p_est.add_argument("--p", default=None, help="comma list; rationals as a/b")
    p_est.add_argument("--n", default=None, help="comma list of window radii")
    p_est.add_argument("--restarts", type=int, default=None)
    p_est.add_argument("--iters", type=int, default=None)
    p_est.add_argument("--amp", type=int, default=None,
                       help="block amplification k")
    p_est.set_defaults(fn=cmd_estimate)

    p_growth = sub.add_parser("growth", help="(p, N) lower-bound table")
    common(p_growth)
    p_growth.add_argument("--p", default=None)
    p_growth.add_argument("--n", default=None)
    p_growth.add_argument("--restarts", type=int, default=None)
    p_growth.add_argument("--iters", type=int, default=None)
    p_growth.set_defaults(fn=cmd_growth)

    p_disc = sub.add_parser("discretize",
                            help="cell-average a continuous symbol")
    common(p_disc)
    p_disc.add_argument("--scale", type=int, default=None,
                        help="dyadic scale k (cells of width 2^-k)")
    p_disc.add_argument("--nmax", type=int, default=None)
    p_disc.add_argument("--jmin", type=int, default=None)
    p_disc.add_argument("--jmax", type=int, default=None)
    p_disc.add_argument("--base-range", dest="base_range", default=None,
                        help="window lo:hi for the dense table")
    p_disc.set_defaults(fn=cmd_discretize)

    p_cat = sub.add_parser("catalog", help="list built-in symbols")
    common(p_cat, symbol=False)
    p_cat.set_defaults(fn=cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except QuadratureError as exc:
        sys.stderr.write(f"quadrature error: {exc}\n")
        return 2
    except (WindowCapError, SymbolError) as exc:
        sys.stderr.write(f"symbol error: {exc}\n")
        return 2
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ArithmeticError as exc:
        sys.stderr.write(f"check failed: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
