"""Job mixes for the three benchmark workloads, and the check on every output.

A job is one user action: a ``schurkit`` subcommand run in-process through
``schurkit.cli.main(argv)`` with ``--out`` pointing into a scratch
directory, or a short library session through the public API. Its ``action``
is what gets timed; its ``check`` then verifies properties of the output that
hold for any correct implementation (never golden digests), so refactors that
legitimately move the numbers still pass. A job fails when its action raises,
a subcommand exits non-zero, or its check fails.

Every input is drawn from ``numpy.random.default_rng([seed, pass, workload])``:
the same workload seed gives the same jobs in the same order, and each pass
over the mix uses fresh inputs of the same sizes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import schurkit
import schurkit.cli
from schurkit import Box, LabeledMatrix

WORKLOADS = ("estimate", "transfer", "conditions")

# Residual gate for the exact identities, as in `schurkit verify`.
IDENTITY_TOL = 1e-10
# AC-6 tolerance for the p = 2 estimate against max|m|.
P2_TOL = 1e-6
# Rounding slack for "estimate >= max|m|" (the unit start attains max|m|) and
# for growth rows being nondecreasing in N (warm starts).
FLOOR_TOL = 1e-9


class CheckFailed(Exception):
    """A job's output violates a property every correct run has."""


@dataclass
class Job:
    kind: str
    action: Callable[[], object]
    check: Callable[[object], list]  # returns the estimates the job reported


def _require(ok, what):
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# CLI jobs


def _cli_job(kind, argv, out, check):
    def action():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                rc = schurkit.cli.main(argv + ["--out", str(out)])
            except SystemExit as exc:  # argparse rejects the arguments
                rc = exc.code
        if rc != 0:
            raise CheckFailed(f"exit status {rc}: {err.getvalue().strip()[-300:]}")

    def check_output(_):
        try:
            doc = json.loads(out.read_text())
        except (OSError, ValueError) as exc:
            raise CheckFailed(f"report is not readable JSON: {exc}") from None
        out.unlink()  # so a later run of this job cannot pass on a stale report
        return check(doc["data"])

    return Job(kind, action, check_output)


_SEEDED = {"lacunary_toeplitz", "rank_one"}
_MAX_ABS: dict = {}


def _max_abs(name, seed, N):
    """max |m| on the window [-N, N): what the matrix-unit start attains."""
    key = (name, seed if name in _SEEDED else None, N)
    if key not in _MAX_ABS:
        params = {"seed": seed} if name in _SEEDED else {}
        window = Box.interval(-N, N)
        table = schurkit.catalog(name, **params).values_on(window, window)
        _MAX_ABS[key] = float(np.abs(table).max())
    return _MAX_ABS[key]


def _check_rows(name, seed, p_list, n_list, rows, growth):
    _require(len(rows) == len(p_list) * len(n_list),
             f"{len(rows)} rows for {len(p_list)} p x {len(n_list)} N")
    values = []
    for r in rows:
        est, floor = float(r["estimate"]), _max_abs(name, seed, int(r["N"]))
        _require(math.isfinite(est), f"non-finite estimate {est!r}")
        _require(est >= floor * (1 - FLOOR_TOL),
                 f"estimate {est!r} below max|m| = {floor!r} at N={r['N']}")
        if r["p"] == "2":
            _require(abs(est - floor) <= P2_TOL * floor,
                     f"p=2 estimate {est!r} differs from max|m| = {floor!r}")
        values.append(est)
    if growth:  # warm starts make each p's estimates nondecreasing in N
        for p in p_list:
            seq = [float(r["estimate"]) for r in rows if r["p"] == p]
            _require(all(b >= a * (1 - FLOOR_TOL) for a, b in zip(seq, seq[1:])),
                     f"growth estimates decrease in N at p={p}: {seq}")
    return values


def _estimate_job(tmp, idx, command, name, seed, p, n, extra=()):
    argv = [command, "--catalog", name, "--p", p, "--n", n, "--seed", str(seed),
            *extra]
    p_list, n_list = p.split(","), n.split(",")

    def check(data):
        return _check_rows(name, seed, p_list, n_list, data["rows"],
                           command == "growth")

    extra_label = ":amp2" if "--amp" in extra else ""
    return _cli_job(f"{command}:{name}:p{p}:N{n}{extra_label}", argv,
                    tmp / f"job{idx}.json", check)


def _check_report(data, n_rows):
    table = data["table"]
    _require(len(table) == n_rows, f"{len(table)} table rows, expected {n_rows}")
    values = [float(r["value"]) for r in table]
    _require(all(math.isfinite(v) and v >= 0 for v in values),
             "variation sums must be finite and nonnegative")
    head = [v for v in data["headline"].values() if v is not None]
    _require(all(math.isfinite(v) and v >= 0 for v in head),
             f"headline constants must be finite and nonnegative: {head}")
    return table


def _check_1d_job(tmp, idx, name, seed, nmax, base_range=None):
    argv = ["check", "--catalog", name, "--nmax", str(nmax), "--seed", str(seed)]
    if base_range:
        argv.append(f"--base-range={base_range}")

    def check(data):
        table = _check_report(data, 2 * nmax)
        _require(data["c2"] == max(r["value"] for r in table), "C2 is not its table max")
        _require(data["within_block_sup"] == max(r["value"] for r in data["within_table"]),
                 "within-block sup is not its table max")
        if name == "triangular":  # AC-7: exact constants
            _require(data["c1"] == 1.0 and data["c2"] == 1.0
                     and data["within_block_sup"] == 0.0,
                     f"triangular constants C1={data['c1']} C2={data['c2']} "
                     f"within={data['within_block_sup']}")
        return []

    kind = f"check_1d:{name}" + (f":{base_range}" if base_range else "")
    return _cli_job(kind, argv, tmp / f"job{idx}.json", check)


def _spec_check_job(tmp, idx, kind, spec, argv_tail, n_rows, sups):
    """``sups`` maps a report constant to the table directions it is the max of."""
    path = tmp / f"spec{idx}.json"
    path.write_text(json.dumps(spec))

    def check(data):
        table = _check_report(data, n_rows)
        for key, prefix in sups.items():
            top = max(r["value"] for r in table if str(r["direction"]).startswith(prefix))
            _require(data[key] == top, f"{key} is not its table max")
        return []

    return _cli_job(kind, ["check", "--spec", str(path), *argv_tail],
                    tmp / f"job{idx}.json", check)


def _continuous_check_job(tmp, idx, name, jmin, jmax):
    argv = ["check", "--catalog", name, "--jmin", str(jmin), "--jmax", str(jmax)]

    def check(data):
        table = _check_report(data, 2 * (jmax - jmin + 1))
        _require(data["a_const"] == max(r["value"] for r in table) > 0,
                 "A is not its (positive) table max")
        return []

    return _cli_job(f"check_continuous:{name}", argv, tmp / f"job{idx}.json", check)


def _discretize_job(tmp, idx, name, scale):
    out = tmp / f"job{idx}.json"

    def check(data):
        _require(data["transfer_margin"] >= 0,
                 f"transfer margin {data['transfer_margin']!r} < 0")
        _require(Path(data["symbol_file"]).is_file(), "discretized symbol not written")
        return []

    return _cli_job(f"discretize:{name}", ["discretize", "--catalog", name,
                                          "--scale", str(scale)], out, check)


def _verify_job(tmp, idx, seed, trials):
    def check(data):
        for s in data["suites"]:
            _require(s["pass"] and s["max_residual"] <= IDENTITY_TOL
                     and s["trials"] == trials, f"verify suite failed: {s}")
        return []

    return _cli_job("verify", ["verify", "--trials", str(trials), "--seed", str(seed)],
                    tmp / f"job{idx}.json", check)


# ---------------------------------------------------------------------------
# library sessions


def _random_matrix(rng, window):
    n = window.npoints
    return LabeledMatrix(window, window, rng.standard_normal((n, n))
                         + 1j * rng.standard_normal((n, n)))


def _identity_residuals(sk, m, A, f):
    """Multiplier transfer and the pi-isometry at p = 4, relative residuals."""
    lhs = sk.apply_fourier_multiplier(m, f)  # runs the two-sided check
    rhs = sk.pi_embed(sk.apply_schur(m, A))
    transfer = sk.max_coeff_diff(lhs, rhs) / max(rhs.max_abs(), 1.0)
    s4 = sk.schatten_norm(A, 4)
    isometry = abs(sk.lp_sp_norm(f, 4) - s4) / s4
    return {"transfer": transfer, "isometry": isometry}


def _transfer_session(n, sym_name, sym_seed, A, j, experiment):
    """pi_embed, the multiplier with its two-sided check, lp_sp_norm, then
    summation by parts at level j (and lp_experiment when asked)."""
    def action():
        sk = schurkit
        m = sk.catalog(sym_name, **({"seed": sym_seed} if sym_name in _SEEDED else {}))
        f = sk.pi_embed(A)
        out = _identity_residuals(sk, m, A, f)
        dec = sk.summation_by_parts_1d(m, f, j)
        out["sbp"] = dec.residual / max(dec.direct.max_abs(), 1.0)
        if experiment:
            out["experiment"] = sk.lp_experiment(f, 4).as_dict()
        return out

    def check(out):
        for key in ("transfer", "isometry", "sbp"):
            _require(out[key] <= IDENTITY_TOL, f"{key} residual {out[key]!r}")
        if experiment:
            rep = out["experiment"]
            gap = abs(rep["norm"] - rep["norm_direct"]) / rep["norm_direct"]
            _require(gap <= IDENTITY_TOL, f"lp_experiment norm paths differ by {gap!r}")
            _require(all(math.isfinite(rep[k]) and rep[k] > 0
                         for k in ("block_ratio", "cutoff_ratio")),
                     "lp_experiment ratios must be finite and positive")
        return []

    kind = "lp_experiment" if experiment else f"session_1d:n{n}"
    return Job(kind, action, check)


def _transfer_session_2d(rng, side, j):
    a, b, c = (float(v) for v in rng.uniform(0.2, 1.5, size=3))
    spec = {"kind": "callback", "d": 2,
            "expr": f"cos({a}*s1 - {b}*t2) + {c}/(1 + (s1-t1)^2 + (s2-t2)^2)"}
    A = _random_matrix(rng, Box.cube(-side // 2, side - side // 2, 2))

    def action():
        sk = schurkit
        m = sk.load_symbol(spec)
        f = sk.pi_embed(A)
        out = _identity_residuals(sk, m, A, f)
        parts = sk.summation_by_parts_2d(m, f, j)
        out["sbp"] = parts.residual / max(parts.direct.max_abs(), 1.0)
        return out

    def check(out):
        for key in ("transfer", "isometry", "sbp"):
            _require(out[key] <= IDENTITY_TOL, f"{key} residual {out[key]!r}")
        return []

    return Job("session_2d", action, check)


# ---------------------------------------------------------------------------
# the three mixes


def _seed(rng):
    return int(rng.integers(0, 2**31 - 1))


def estimate_mix(rng, tmp, smoke=False):
    """Estimator-bound: one singular-value SVD after another on one window."""
    if smoke:
        return [
            _estimate_job(tmp, 0, "estimate", "triangular", _seed(rng), "2,4", "4"),
            _estimate_job(tmp, 1, "growth", "lacunary_toeplitz", _seed(rng), "4/3", "4,8",
                          ("--restarts", "2", "--iters", "5")),
            _estimate_job(tmp, 2, "estimate", "rank_one", _seed(rng), "6", "4",
                          ("--amp", "2", "--restarts", "2", "--iters", "5")),
        ]
    # Ordered by time. The job at the tail rank (the 9th of 12, p75) runs
    # every start to its full budget on a 128 x 128 window, so its work does
    # not depend on the seed and is mostly BLAS; jobs whose ascent stops at a
    # seed-dependent step (triangular, lacunary_toeplitz) sit below it or
    # well above it.
    specs = [
        ("estimate", "lacunary_toeplitz", "4/3", "16", ()),
        ("estimate", "triangular", "2", "16", ()),
        ("estimate", "rank_one", "4", "16", ("--restarts", "2")),
        ("estimate", "rank_one", "4/3", "16", ("--restarts", "2")),
        ("estimate", "rank_one", "6", "32", ("--restarts", "2", "--iters", "60")),
        ("growth", "triangular", "4/3,2", "16,32", ("--restarts", "2")),
        ("estimate", "smooth_homogeneous", "4", "32", ("--restarts", "2", "--iters", "60")),
        ("estimate", "triangular", "4", "16", ("--amp", "2", "--restarts", "3")),
        ("estimate", "smooth_homogeneous", "4", "64", ("--restarts", "2", "--iters", "24")),
        ("estimate", "triangular", "4", "32", ()),
        ("growth", "lacunary_toeplitz", "4", "16,32,64", ("--restarts", "3")),
        ("estimate", "lacunary_toeplitz", "4", "128", ("--restarts", "1", "--iters", "10")),
    ]
    return [_estimate_job(tmp, i, cmd, name, _seed(rng), p, n, extra)
            for i, (cmd, name, p, n, extra) in enumerate(specs)]


_TRANSFER_SYMBOLS = ("smooth_homogeneous", "lacunary_toeplitz", "rank_one", "triangular")


def transfer_mix(rng, tmp, smoke=False):
    """Transference-bound: dense coefficient stacks, batched small SVDs."""
    # (n, summation-by-parts level, with lp_experiment)
    sizes = ([(8, 2, False), (8, 2, True)] if smoke else
             [(32, 4, False), (32, 5, False), (32, 5, False), (32, 4, True),
              (64, 5, False), (64, 6, False), (64, 6, False), (96, 6, False)])
    jobs = []
    for i, (n, j, experiment) in enumerate(sizes):
        name = _TRANSFER_SYMBOLS[i % len(_TRANSFER_SYMBOLS)]
        A = _random_matrix(rng, Box.interval(-(n // 2), n - n // 2))
        jobs.append(_transfer_session(n, name, _seed(rng), A, j, experiment))
    jobs.append(_transfer_session_2d(rng, 4 if smoke else 8, 2 if smoke else 3))
    jobs.append(_verify_job(tmp, 0, _seed(rng), 5 if smoke else 50))
    return jobs


# The 2-d continuous check fails at every level range tried (QuadratureError);
# this range fails fastest. It runs only with known_defects, see README.md.
_KNOWN_DEFECT_SPEC = {"kind": "continuous", "d": 2,
                      "expr": "arctan(x1 - y1) * arctan(x2 - y2)",
                      "name": "arctan_product_2d"}


def conditions_mix(rng, tmp, smoke=False, known_defects=False, turn=0):
    """Symbol-evaluation-bound: variation sums and shell quadrature, no SVD.

    The discretize scales cycle through 3, 4, 5 from one pass to the next
    (``turn`` is seed + pass), so every run covers each scale about equally
    and a job's median time does not hinge on which scales the seed drew.

    The four quadrature jobs are the shortest. The 1-d checks run on large
    base ranges so that the job at the median (the 5th of 9) and the one at
    the tail rank (the 7th) are vectorised variation sums: pure-Python
    quadrature swung twice as much with the shared host's speed.
    """
    a, b = (float(v) for v in rng.uniform(0.3, 1.7, size=2))
    toeplitz_2d = {"kind": "toeplitz", "d": 2,
                   "phi": f"cos({a}*k1 + {b}*k2) / (1 + k1*k1 + k2*k2)"}
    toeplitz_3d = {"kind": "toeplitz", "d": 3,
                   "phi": f"cos({a}*k1 - {b}*k3) / (1 + k1*k1 + k2*k2 + k3*k3)"}
    k2, k3, levels = (2, 2, 1) if smoke else (5, 3, 7)
    jobs = [
        # 32769 x 128 and 32769 x 96 pair tables: 67 and 50 MB, far beyond L2
        _check_1d_job(tmp, 0, "triangular", _seed(rng), 6 if smoke else 14,
                      "-4:4" if smoke else "-64:64"),
        _check_1d_job(tmp, 1, "lacunary_toeplitz", _seed(rng), 6 if smoke else 14,
                      "-4:4" if smoke else "-48:48"),
        _check_1d_job(tmp, 2, "lacunary_toeplitz", _seed(rng), 6 if smoke else 14,
                      "-4:4" if smoke else "-64:64"),
        _spec_check_job(tmp, 3, "check_2d", toeplitz_2d,
                        ["--kmax", str(k2)] + (["--base-range=-2:2"] if smoke else []),
                        4 * k2, {"c2": "edge", "c3": "mixed"}),
        # explicit small base range: the default cube(-8, 8, 3) needs > 10 GB
        _spec_check_job(tmp, 4, "check_dd", toeplitz_3d,
                        ["--alpha", "--kmax", str(k3), "--base-range=-2:2"],
                        2 * 7 * k3, {"c2": ""}),
        _continuous_check_job(tmp, 5, "continuous_arctan", -levels, levels),
        _continuous_check_job(tmp, 6, "continuous_ratio", -levels, levels),
        _discretize_job(tmp, 7, "continuous_ratio", 3 + turn % 3),
        _discretize_job(tmp, 8, "continuous_arctan", 3 + (turn + 1) % 3),
    ]
    if known_defects:
        path = tmp / "known_defect.json"
        path.write_text(json.dumps(_KNOWN_DEFECT_SPEC))
        jobs.append(_cli_job("check_continuous:2d",
                             ["check", "--spec", str(path), "--jmin", "0", "--jmax", "0"],
                             tmp / "known_defect_out.json", lambda data: []))
    return jobs


def build_mix(workload, seed, pass_index, tmp, smoke=False, known_defects=False):
    rng = np.random.default_rng([seed, pass_index, WORKLOADS.index(workload)])
    if workload == "estimate":
        return estimate_mix(rng, tmp, smoke)
    if workload == "transfer":
        return transfer_mix(rng, tmp, smoke)
    return conditions_mix(rng, tmp, smoke, known_defects, turn=seed + pass_index)
