"""Multiplier symbols: dense windows, Toeplitz profiles, callbacks, and catalog.

A discrete symbol is a function m(s, t) on pairs of lattice points; a
continuous symbol is a function M(x, y) on pairs of points of R^d together
with optional analytic partial derivatives.  Evaluation is vectorized: point
batches are (count, d) integer or float arrays.
"""

from __future__ import annotations

import json
import numbers
from pathlib import Path

import numpy as np

from . import _expr
from ._expr import ParseError
from .lattice import Box, aspoint

__all__ = [
    "DiscreteSymbol",
    "ContinuousSymbol",
    "SymbolError",
    "WindowCapError",
    "ParseError",
    "catalog",
    "catalog_names",
    "load_symbol",
]

# Dense materialization larger than this raises WindowCapError.
DEFAULT_WINDOW_CAP = 4_000_000


class SymbolError(ValueError):
    pass


class WindowCapError(SymbolError):
    pass


def _aspairs(pts, d):
    pts = np.asarray(pts)
    if pts.ndim == 0:
        pts = pts.reshape(1, 1)
    elif pts.ndim == 1:
        pts = pts.reshape(-1, 1) if d == 1 else pts.reshape(1, -1)
    if pts.shape[1] != d:
        raise ValueError(f"point batch has dimension {pts.shape[1]}, expected {d}")
    return pts.astype(np.int64, copy=False)


def _values(out, n):
    """An evaluator's output as n complex values (scalars broadcast)."""
    out = np.asarray(out, dtype=np.complex128)
    if out.shape != (n,):
        out = np.broadcast_to(out, (n,)).astype(np.complex128)
    return out


class DiscreteSymbol:
    """Symbol m(s, t) on Z^d x Z^d.

    Three kinds: ``dense`` (explicit entries on a row window x column window,
    evaluation outside is an error), ``toeplitz`` (m(s, t) = phi(s - t)), and
    ``callback`` (arbitrary vectorized function of the pair).
    """

    def __init__(self, kind, d, *, rows=None, cols=None, entries=None, phi=None, fn=None, name=""):
        if kind not in ("dense", "toeplitz", "callback"):
            raise SymbolError(f"unknown symbol kind '{kind}'")
        self.kind = kind
        self.d = int(d)
        self.name = name or kind
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self.phi = phi
        self.fn = fn

    @classmethod
    def dense(cls, rows: Box, cols: Box, entries, name="dense"):
        entries = np.asarray(entries, dtype=np.complex128)
        if rows.d != cols.d:
            raise SymbolError("row and column windows must share a dimension")
        if entries.shape != (rows.npoints, cols.npoints):
            raise SymbolError(
                f"entry array shape {entries.shape} does not match windows "
                f"({rows.npoints}, {cols.npoints})"
            )
        return cls("dense", rows.d, rows=rows, cols=cols, entries=entries, name=name)

    @classmethod
    def toeplitz(cls, phi, d=1, name="toeplitz"):
        """phi maps an (m, d) integer array of differences to complex values."""
        return cls("toeplitz", d, phi=phi, name=name)

    @classmethod
    def callback(cls, fn, d=1, name="callback"):
        """fn maps two (m, d) integer arrays (s, t) to complex values."""
        return cls("callback", d, fn=fn, name=name)

    def __call__(self, s, t):
        s = np.asarray(aspoint(s, self.d), dtype=np.int64).reshape(1, self.d)
        t = np.asarray(aspoint(t, self.d), dtype=np.int64).reshape(1, self.d)
        return complex(self.eval_pairs(s, t)[0])

    def evaluable_mask(self, s_pts, t_pts):
        s_pts = _aspairs(s_pts, self.d)
        t_pts = _aspairs(t_pts, self.d)
        if self.kind != "dense":
            return np.ones(len(s_pts), dtype=bool)
        _, okr = self.rows.index_array(s_pts)
        _, okc = self.cols.index_array(t_pts)
        return okr & okc

    def eval_pairs(self, s_pts, t_pts):
        """Vectorized evaluation on paired point batches.

        A dense symbol raises on any pair outside its windows.
        """
        s_pts = _aspairs(s_pts, self.d)
        t_pts = _aspairs(t_pts, self.d)
        if len(s_pts) != len(t_pts):
            raise ValueError("point batches differ in length")
        if self.kind == "dense":
            ridx, okr = self.rows.index_array(s_pts)
            cidx, okc = self.cols.index_array(t_pts)
            ok = okr & okc
            if not ok.all():
                bad = int(np.argmin(ok))
                raise WindowCapError(
                    f"pair ({tuple(s_pts[bad])}, {tuple(t_pts[bad])}) lies outside "
                    f"the dense windows"
                )
            return self.entries[ridx, cidx]
        if self.kind == "toeplitz":
            return _values(self.phi(s_pts - t_pts), len(s_pts))
        return _values(self.fn(s_pts, t_pts), len(s_pts))

    def values_on(self, rows: Box, cols: Box):
        """Dense value table over rows x cols (row-major in both windows)."""
        if rows.npoints * cols.npoints > DEFAULT_WINDOW_CAP:
            raise WindowCapError(
                f"window of {rows.npoints}x{cols.npoints} entries exceeds the cap"
            )
        if self.kind == "toeplitz" and rows.npoints and cols.npoints:
            # phi once per difference r - c, R_i + C_i - 1 of them per axis.
            # With a, b the offsets of r, c in their windows, r - c sits at
            # a - b + (C - 1) in that box; its flat position is linear, so
            # the table is one gather at pos(a) + pos(C - 1) - pos(b).
            diffs = Box(tuple(r - c + 1 for r, c in zip(rows.los, cols.his)),
                        tuple(r - c for r, c in zip(rows.his, cols.los)))
            vals = _values(self.phi(diffs.points_array()), diffs.npoints)

            def pos(offsets):
                return np.ravel_multi_index(tuple(np.asarray(offsets).T), diffs.sizes)

            top = pos(tuple(n - 1 for n in cols.sizes))
            return vals[(pos(rows.points_array() - rows.los) + top)[:, None]
                        - pos(cols.points_array() - cols.los)]
        rp = rows.points_array()
        cp = cols.points_array()
        ss = np.repeat(rp, len(cp), axis=0)
        tt = np.tile(cp, (len(rp), 1))
        return self.eval_pairs(ss, tt).reshape(rows.npoints, cols.npoints)

    def __repr__(self):
        return f"DiscreteSymbol(kind={self.kind!r}, d={self.d}, name={self.name!r})"


class ContinuousSymbol:
    """Symbol M(x, y) on R^d x R^d with optional analytic first partials.

    ``partial1`` and ``partial2`` (d = 1 only) are the derivatives in the
    first and second argument.  Missing partials fall back to central
    differences with step ``h``.
    """

    h = 2.0**-20

    def __init__(self, fn, d=1, partial1=None, partial2=None, name="continuous"):
        self.fn = fn
        self.d = int(d)
        self._partial1 = partial1
        self._partial2 = partial2
        self.name = name

    def __call__(self, x, y):
        return np.asarray(self.fn(np.asarray(x, dtype=float), np.asarray(y, dtype=float)),
                          dtype=np.complex128)

    @property
    def has_analytic_partials(self):
        return self._partial1 is not None and self._partial2 is not None

    def partial(self, slot, x, y):
        """First derivative in argument ``slot`` (1 or 2); d = 1 only."""
        if self.d != 1:
            raise SymbolError("scalar partials are defined for d = 1")
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if slot == 1:
            if self._partial1 is not None:
                return np.asarray(self._partial1(x, y), dtype=np.complex128)
            return (self(x + self.h, y) - self(x - self.h, y)) / (2 * self.h)
        if slot == 2:
            if self._partial2 is not None:
                return np.asarray(self._partial2(x, y), dtype=np.complex128)
            return (self(x, y + self.h) - self(x, y - self.h)) / (2 * self.h)
        raise ValueError("slot must be 1 or 2")

    def partial_alpha(self, slot, alpha):
        """Mixed first-order derivative along the axes marked in ``alpha``.

        Differentiates the chosen argument slot coordinate by coordinate with
        central differences; returns a callable of (x, y) arrays of shape
        (m, d).
        """
        axes = [i for i, b in enumerate(alpha) if b]
        h = self.h

        def deriv(x, y, remaining=tuple(axes)):
            if not remaining:
                return self(x, y)
            ax, rest = remaining[0], remaining[1:]
            ex = np.zeros(self.d)
            ex[ax] = h
            if slot == 1:
                hi = deriv(x + ex, y, rest)
                lo = deriv(x - ex, y, rest)
            else:
                hi = deriv(x, y + ex, rest)
                lo = deriv(x, y - ex, rest)
            return (hi - lo) / (2 * h)

        return deriv

    def __repr__(self):
        return f"ContinuousSymbol(d={self.d}, name={self.name!r})"


# ---------------------------------------------------------------------------
# catalog


def _constant_one(d=1):
    return DiscreteSymbol.toeplitz(
        lambda k: np.ones(len(k), dtype=np.complex128), d=d, name="constant_one"
    )


def _triangular():
    # 1[s >= t] = phi(s - t) with phi(k) = 1[k >= 0]
    return DiscreteSymbol.toeplitz(
        lambda k: (k[:, 0] >= 0).astype(np.complex128), d=1, name="triangular"
    )


def _lacunary_toeplitz(seed=0, levels=64):
    eps = np.random.default_rng(int(seed)).integers(0, 2, size=levels) * 2 - 1

    def phi(diffs):
        a = np.abs(diffs[:, 0])
        lvl = np.zeros(len(a), dtype=np.int64)
        nz = a > 0
        lvl[nz] = np.floor(np.log2(a[nz])).astype(np.int64) + 1
        if lvl.max(initial=0) >= levels:
            raise SymbolError("difference exceeds the lacunary level table")
        return eps[lvl].astype(np.complex128)

    return DiscreteSymbol.toeplitz(phi, d=1, name=f"lacunary_toeplitz(seed={seed})")


def _rank_one(seed=0):
    """m(s, t) = u(s) * v(t) with seeded random factors tabulated on [-radius, radius]."""
    radius = 1024
    rng = np.random.default_rng(int(seed))
    width = 2 * radius + 1
    u = rng.uniform(0.25, 1.0, size=width) * np.exp(2j * np.pi * rng.random(width))
    v = rng.uniform(0.25, 1.0, size=width) * np.exp(2j * np.pi * rng.random(width))

    def fn(s, t):
        si = s[:, 0] + radius
        ti = t[:, 0] + radius
        if (si < 0).any() or (si >= len(u)).any() or (ti < 0).any() or (ti >= len(v)).any():
            raise SymbolError("rank-one factors are tabulated only on [-radius, radius]")
        return u[si] * v[ti]

    sym = DiscreteSymbol.callback(fn, d=1, name="rank_one")
    sym.u_table, sym.v_table, sym.radius = u, v, radius
    return sym


def _smooth_homogeneous():
    def fn(s, t):
        a = s[:, 0].astype(float)
        b = t[:, 0].astype(float)
        return ((a - b) / (1.0 + np.abs(a) + np.abs(b))).astype(np.complex128)

    return DiscreteSymbol.callback(fn, d=1, name="smooth_homogeneous")


def _continuous_constant():
    zero = lambda x, y: np.zeros(np.broadcast(x, y).shape, dtype=np.complex128)
    return ContinuousSymbol(
        lambda x, y: np.ones(np.broadcast(x, y).shape, dtype=np.complex128),
        d=1, partial1=zero, partial2=zero, name="continuous_constant",
    )


def _continuous_arctan():
    return ContinuousSymbol(
        lambda x, y: np.arctan(x - y).astype(np.complex128),
        d=1,
        partial1=lambda x, y: (1.0 / (1.0 + (x - y) ** 2)).astype(np.complex128),
        partial2=lambda x, y: (-1.0 / (1.0 + (x - y) ** 2)).astype(np.complex128),
        name="continuous_arctan",
    )


def _continuous_ratio():
    # Smooth analogue of the homogeneous quotient: hyp(z) = sqrt(1 + z^2)
    # replaces |z| so the cell averages converge at quadrature speed.
    def denom(x, y):
        return 1.0 + np.sqrt(1.0 + x * x) + np.sqrt(1.0 + y * y)

    def fn(x, y):
        return ((x - y) / denom(x, y)).astype(np.complex128)

    def p1(x, y):
        dd = denom(x, y)
        return ((dd - (x - y) * x / np.sqrt(1.0 + x * x)) / dd**2).astype(np.complex128)

    def p2(x, y):
        dd = denom(x, y)
        return ((-dd - (x - y) * y / np.sqrt(1.0 + y * y)) / dd**2).astype(np.complex128)

    return ContinuousSymbol(fn, d=1, partial1=p1, partial2=p2, name="continuous_ratio")


_CATALOG = {
    "constant_one": _constant_one,
    "triangular": _triangular,
    "lacunary_toeplitz": _lacunary_toeplitz,
    "rank_one": _rank_one,
    "smooth_homogeneous": _smooth_homogeneous,
    "continuous_constant": _continuous_constant,
    "continuous_arctan": _continuous_arctan,
    "continuous_ratio": _continuous_ratio,
}


def catalog_names():
    return sorted(_CATALOG)


def catalog(name, **params):
    """Build a named catalog symbol; unknown names raise with the valid list."""
    if name not in _CATALOG:
        raise SymbolError(f"unknown catalog symbol '{name}'; valid: {', '.join(catalog_names())}")
    return _CATALOG[name](**params)


# ---------------------------------------------------------------------------
# windows and file loading


def _ascomplex(v):
    if isinstance(v, numbers.Number):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    raise SymbolError(f"cannot read complex value from {v!r}")


def _guarded(fn, guards, what):
    """Wrap an evaluator with the non-finite substitution policy."""
    subs = None
    for g in guards or []:
        if "value" in g:
            subs = _ascomplex(g["value"])
            break

    def wrapped(*args):
        out = np.asarray(fn(*args), dtype=np.complex128)
        bad = ~np.isfinite(out)
        if bad.any():
            if subs is None:
                raise SymbolError(
                    f"{what} evaluated to a non-finite value (division by zero?); "
                    "add a guard clause with a substitute value"
                )
            out = np.where(bad, subs, out)
        return out

    return wrapped


def _env_from_columns(prefix, pts):
    return {f"{prefix}{i + 1}": pts[:, i] for i in range(pts.shape[1])}


def load_symbol(source):
    """Load a symbol from a JSON file path, JSON string, or dict.

    Schema: {"kind": "dense"|"toeplitz"|"callback"|"continuous", "d": int,
    then per kind: dense -> "rows"/"cols" (lists of [lo, hi] per axis) and
    "entries" (nested list, numbers or [re, im] pairs); toeplitz -> "phi"
    (expression in k1..kd); callback -> "expr" (in s1..sd, t1..td);
    continuous -> "expr" (in x1..xd, y1..yd) plus optional "partial1" /
    "partial2" for d = 1.  "guards": [{"value": c}] substitutes c wherever
    the expression evaluates non-finite (the division-by-zero policy).
    """
    if isinstance(source, (str, Path)) and not str(source).lstrip().startswith("{"):
        with open(source) as fh:
            spec = json.load(fh)
    elif isinstance(source, str):
        spec = json.loads(source)
    else:
        spec = dict(source)
    if "kind" not in spec:
        raise SymbolError("symbol description lacks a 'kind'")
    kind = spec["kind"]
    d = int(spec.get("d", 1))
    if d < 1:
        raise SymbolError("symbol dimension must be >= 1")
    guards = spec.get("guards")
    name = spec.get("name", f"file:{kind}")

    if kind == "dense":
        for key in ("rows", "cols", "entries"):
            if key not in spec:
                raise SymbolError(f"dense symbol needs '{key}'")
        rows = Box.from_pairs(spec["rows"])
        cols = Box.from_pairs(spec["cols"])
        if rows.d != d or cols.d != d:
            raise SymbolError("window dimension does not match 'd'")
        flat = np.asarray(
            [_ascomplex(v) for row in spec["entries"] for v in row], dtype=np.complex128
        )
        if flat.size != rows.npoints * cols.npoints:
            raise SymbolError("entry count does not match the windows")
        return DiscreteSymbol.dense(rows, cols, flat.reshape(rows.npoints, cols.npoints), name=name)

    if kind == "toeplitz":
        if "phi" not in spec:
            raise SymbolError("toeplitz symbol needs 'phi'")
        fn = _expr.compile_expr(spec["phi"], [f"k{i + 1}" for i in range(d)])
        phi = _guarded(lambda diffs: fn(_env_from_columns("k", diffs)), guards, "'phi'")
        return DiscreteSymbol.toeplitz(phi, d=d, name=name)

    if kind == "callback":
        if "expr" not in spec:
            raise SymbolError("callback symbol needs 'expr'")
        variables = [f"s{i + 1}" for i in range(d)] + [f"t{i + 1}" for i in range(d)]
        fn = _expr.compile_expr(spec["expr"], variables)
        body = _guarded(
            lambda s, t: fn({**_env_from_columns("s", s), **_env_from_columns("t", t)}),
            guards, "'expr'",
        )
        return DiscreteSymbol.callback(body, d=d, name=name)

    if kind == "continuous":
        if "expr" not in spec:
            raise SymbolError("continuous symbol needs 'expr'")
        variables = [f"x{i + 1}" for i in range(d)] + [f"y{i + 1}" for i in range(d)]

        def make(expr_text, what):
            fn = _guarded(_expr.compile_expr(expr_text, variables), guards, what)

            def body(x, y):
                x = np.atleast_1d(np.asarray(x, dtype=float))
                y = np.atleast_1d(np.asarray(y, dtype=float))
                x, y = np.broadcast_arrays(x, y)
                env = {**_env_from_columns("x", x.reshape(-1, d)),
                       **_env_from_columns("y", y.reshape(-1, d))}
                return fn(env).reshape(x.shape if d == 1 else x.shape[:-1])

            return body

        main = make(spec["expr"], "'expr'")
        p1 = make(spec["partial1"], "'partial1'") if "partial1" in spec else None
        p2 = make(spec["partial2"], "'partial2'") if "partial2" in spec else None
        return ContinuousSymbol(main, d=d, partial1=p1, partial2=p2, name=name)

    raise SymbolError(f"unknown symbol kind '{kind}'")
