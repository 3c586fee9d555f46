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
    catalog,
    catalog_names,
    load_symbol,
)
from . import transference as tr

_CATALOG_BUILDERS_SEEDED = {"lacunary_toeplitz", "rank_one"}


class CliError(ValueError):
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


def _parse_base_range(text: str, d: int) -> Box:
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
    if len(pairs) == 1:
        pairs = pairs * d
    try:
        return Box.from_pairs(pairs)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _resolve_symbol(args):
    if args.catalog and args.spec:
        raise CliError("--catalog and --spec are mutually exclusive")
    if args.catalog:
        name = args.catalog
        params = {"seed": args.seed} if name in _CATALOG_BUILDERS_SEEDED else {}
        try:
            sym = catalog(name, **params)
        except SymbolError as exc:
            raise CliError(str(exc)) from None
        return sym, f"catalog:{name}"
    if args.spec:
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


def _run_config(args, symbol_label: str | None) -> dict:
    """Every parsed option that holds a value, defaults included; the symbol
    options appear as ``symbol``."""
    cfg = {k: v for k, v in vars(args).items()
           if v is not None and k not in ("fn", "spec", "catalog")}
    cfg["version"] = __version__
    if symbol_label is not None:
        cfg["symbol"] = symbol_label
    return cfg


# ---------------------------------------------------------------------------
# output plumbing


def _emit(args, config: dict, data_obj, csv_rows, counters=None) -> str:
    """Serialize a report: stable data section; timestamp and work counters
    only in the header."""
    if args.format == "json":
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
    if args.out:
        Path(args.out).write_text(text)
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
        report = check_continuous(sym, (args.jmin, args.jmax))
    else:
        base = _parse_base_range(args.base_range, sym.d)
        if sym.d == 1 and not args.alpha:
            report = check_1d(sym, args.nmax, base)
        else:
            checker = check_dd if args.alpha or sym.d > 2 else check_2d
            if args.kmax is None:
                args.kmax = 4 if checker is check_dd else 5
            report = checker(sym, args.kmax, base)
    config = _run_config(args, label)
    data = report.as_dict()
    data["headline"] = headline = report.headline
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
    if args.trials < 0:
        raise CliError("--trials must be >= 0")
    if args.trials == 0:
        config = _run_config(args, None)
        data = {"suites": [], "warning": "0 trials requested: vacuous pass"}
        _emit(args, config, data, [["suite", "trials", "max_residual", "pass"],
                                   ["(none)", 0, 0.0, True]])
        sys.stderr.write("warning: --trials 0 gives a vacuous pass\n")
        return 0
    tol = 1e-10
    suites = {
        "multiplier_transfer": 0.0,
        "block_telescoping_1d": 0.0,
        "block_telescoping_2d": 0.0,
        "difference_reconstruction": 0.0,
        "operator_cauchy_schwarz": 0.0,
    }
    for t in range(args.trials):
        rng = np.random.default_rng([args.seed, t])
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
        # values on the cube [0, 4)^dd, indexed by the point
        shape = (4,) * dd
        table = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        def phi(pt, _t=table):
            return _t[pt]

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
        rows.append([name, args.trials, repr(res), passed])
        data_suites.append({"suite": name, "trials": args.trials,
                            "max_residual": res, "pass": passed})
    config = _run_config(args, None)
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
    p_list = _parse_p_list(args.p)
    n_list = _parse_n_list(args.n)
    budget = {"restarts": args.restarts, "iterations": args.iters}
    rows = []
    counters = {f"line_search_{key}": 0 for key in LINE_SEARCH_COUNTS}
    for tok, p in p_list:
        for N in n_list:
            res = cb_lower_bound(sym, Box.cube(-N, N, sym.d), p, args.amp, budget=budget,
                                 seed=args.seed)
            rows.append(_estimate_row(sym, label, tok, N, res, budget["iterations"]))
            for key, n in res.flags["line_search"].items():
                counters[f"line_search_{key}"] += n
    config = _run_config(args, label)
    _emit(args, config, {"rows": rows}, _estimate_csv(rows), counters)
    if args.threshold is not None and any(r["estimate"] > args.threshold for r in rows):
        return 1
    return 0


def cmd_growth(args) -> int:
    sym, label = _resolve_symbol(args)
    if isinstance(sym, ContinuousSymbol):
        raise CliError("growth needs a discrete symbol; discretize it first")
    p_list = _parse_p_list(args.p)
    n_list = _parse_n_list(args.n)
    budget = {"restarts": args.restarts, "iterations": args.iters}
    rows = growth_experiment(sym, [p for _, p in p_list], n_list,
                             budget=budget, seed=args.seed)
    tokens = {float(p): tok for tok, p in p_list}
    for r in rows:
        r["p"] = tokens.get(float(r["p"]), str(r["p"]))
    config = _run_config(args, label)
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
    # checked before the discretization, the slowest step, not after it
    for ok, message in ((args.scale >= 0, "--scale must be >= 0"),
                        (args.nmax >= 1, "--nmax must be >= 1"),
                        (args.jmin <= args.jmax, "--jmin must be <= --jmax")):
        if not ok:
            raise CliError(message)
    window = _parse_base_range(args.base_range, 1)
    tol = args.threshold

    mk = discretize_continuous(sym, args.scale, window)
    cont = check_continuous(sym, (args.jmin, args.jmax))
    disc = check_1d(mk, args.nmax, Box.interval(-2, 2))

    table = mk.values_on(window, window)
    spec_obj = {
        "kind": "dense",
        "d": 1,
        "rows": [[int(window.los[0]), int(window.his[0])]],
        "cols": [[int(window.los[0]), int(window.his[0])]],
        "entries": np.stack([table.real, table.imag], -1).tolist(),
        "name": mk.name,
    }
    out_path = Path(args.out)
    symbol_path = out_path.with_suffix(".symbol.json")
    symbol_path.write_text(json.dumps(spec_obj, sort_keys=True))

    data = {
        "scale": args.scale,
        "window": [int(window.los[0]), int(window.his[0])],
        "continuous_A": cont.a_const,
        "discrete": disc.as_dict(),
        "within_block_sup": disc.within_block_sup,
        "transfer_margin": cont.a_const + tol - disc.within_block_sup,
        "symbol_file": str(symbol_path),
    }
    rows = [["quantity", "value"],
            ["continuous_A", repr(cont.a_const)],
            ["discrete_C2", repr(disc.c2)],
            ["within_block_sup", repr(disc.within_block_sup)],
            ["transfer_margin", repr(data["transfer_margin"])]]
    config = _run_config(args, label)
    _emit(args, config, data, rows)
    return 0 if disc.within_block_sup <= cont.a_const + tol else 1


def cmd_catalog(args) -> int:
    entries = []
    for name in catalog_names():
        sym = catalog(name)
        kind = "continuous" if isinstance(sym, ContinuousSymbol) else sym.kind
        entries.append({"name": name, "kind": kind, "d": sym.d})
    config = _run_config(args, None)
    rows = [["name", "kind", "d"]] + [[e["name"], e["kind"], e["d"]] for e in entries]
    _emit(args, config, {"symbols": entries}, rows)
    return 0


# ---------------------------------------------------------------------------
# wiring


def _seed(text: str) -> int:
    """--seed as numpy's generators take it: a non-negative integer."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {seed}")
    return seed


def _common(p, symbol=True, threshold="exit 1 when the headline quantity exceeds this"):
    """--out and --format; with ``symbol``, --spec, --catalog, --seed and
    --threshold (help ``threshold``)."""
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    if symbol:
        p.add_argument("--spec", help="path to a symbol spec (JSON)")
        p.add_argument("--catalog", help="built-in symbol name")
        p.add_argument("--seed", type=_seed, default=0)
        p.add_argument("--threshold", type=float, help=threshold)


def _check_args(p):
    _common(p)
    p.add_argument("--nmax", type=int, default=8)
    p.add_argument("--kmax", type=int,
                   help="default 5 for check_2d, 4 for check_dd")
    p.add_argument("--jmin", type=int, default=-7)
    p.add_argument("--jmax", type=int, default=7)
    p.add_argument("--base-range", dest="base_range", default="-8:8",
                   help="lo:hi[,lo:hi...] base points; one pair applies to every axis")
    p.add_argument("--alpha", action="store_true",
                   help="force the anchored mixed-difference checker")
    p.set_defaults(fn=cmd_check)


def _verify_args(p):
    _common(p, symbol=False)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--inject-fault", dest="inject_fault",
                   action="store_true",
                   help="test hook: plant one wrong coefficient")
    p.set_defaults(fn=cmd_verify)


def _estimate_args(p):
    _common(p)
    p.add_argument("--p", default="2", help="comma list; rationals as a/b")
    p.add_argument("--n", default="8", help="comma list of window radii")
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--amp", type=int, default=1,
                   help="block amplification k")
    p.set_defaults(fn=cmd_estimate)


def _growth_args(p):
    _common(p)
    p.add_argument("--p", default="4/3,2,4")
    p.add_argument("--n", default="16,32,64")
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--iters", type=int, default=100)
    p.set_defaults(fn=cmd_growth)


def _discretize_args(p):
    _common(p, threshold="transfer tolerance: exit 1 when the discrete within-block "
                         "sup exceeds the continuous A by more than this (default 1e-6)")
    p.add_argument("--scale", type=int, default=4,
                   help="dyadic scale k (cells of width 2^-k)")
    p.add_argument("--nmax", type=int, default=5)
    p.add_argument("--jmin", type=int, default=-7)
    p.add_argument("--jmax", type=int, default=7)
    p.add_argument("--base-range", dest="base_range", default="-34:35",
                   help="window lo:hi for the dense table")
    p.set_defaults(fn=cmd_discretize, threshold=1e-6)


def _catalog_args(p):
    _common(p, symbol=False)
    p.set_defaults(fn=cmd_catalog)


# subcommand -> (help line, builder of its arguments), in usage order
_COMMANDS = {
    "check": ("variation-condition constants", _check_args),
    "verify": ("exact-identity suites", _verify_args),
    "estimate": ("norm lower bound", _estimate_args),
    "growth": ("(p, N) lower-bound table", _growth_args),
    "discretize": ("cell-average a continuous symbol", _discretize_args),
    "catalog": ("list built-in symbols", _catalog_args),
}


def _build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone.

    The one-command build names all commands in its usage line through the
    subparsers' metavar, so its usage and error text match the full build's.
    The full build keeps the default metavar, which the invalid-choice and
    missing-command errors call "command".
    """
    parser = argparse.ArgumentParser(
        prog="schurkit",
        description="Desk-scale toolkit for dyadic variation conditions on "
                    "entrywise multiplier symbols.",
    )
    names = tuple(_COMMANDS) if command is None else (command,)
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, add_arguments = _COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # only the named subcommand's parser is built: all six take about four
    # times as long to build as one, a few percent of a short job
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except QuadratureError as exc:
        sys.stderr.write(f"quadrature error: {exc}\n")
        return 2
    except SymbolError as exc:
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
