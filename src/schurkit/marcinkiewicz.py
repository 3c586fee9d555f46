"""Variation-condition checkers for multiplier symbols.

Each checker sums absolute symbol differences over dyadic frequency blocks
and reports the per-block table together with its suprema. The continuous
checker integrates derivative magnitudes over dyadic shells, and
``discretize_continuous`` turns a continuous symbol into a dense discrete one
by averaging over sheared half-open cells. Both quadratures use the
Gauss-Legendre pair ``_GL_ORDERS``, one order checking the other: panel by
adaptive panel for the shells and on a sample of cells for the averages.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .lattice import Box, _mixed_difference, dyadic_block_points
from .symbols import ContinuousSymbol, DiscreteSymbol, SymbolError

__all__ = [
    "QuadratureError",
    "ConditionReport",
    "check_1d",
    "check_2d",
    "check_dd",
    "discretize_continuous",
    "check_continuous",
]


class QuadratureError(RuntimeError):
    """Raised when a quadrature refinement check fails to converge."""


# Per report kind, each derived constant as (field, section, direction
# prefix): the largest value among the rows of that section whose direction
# starts with the prefix.
_SUPREMA = {
    "1d": (("c2", "table", ""), ("within_block_sup", "within_table", "")),
    "2d": (("c2", "table", "edge"), ("c3", "table", "mixed")),
    "dd": (("c2", "table", ""),),
    "continuous": (("a_const", "table", ""),),
}

# Per report kind, the constants the command line prints as its headline.
_HEADLINES = {
    "1d": {"C1": "c1", "C2": "c2", "within_block_sup": "within_block_sup"},
    "2d": {"C1": "c1", "C2": "c2", "C3": "c3"},
    "dd": {"C1": "c1", "C": "c2"},
    "continuous": {"A": "a_const", "C1": "c1"},
}


@dataclass
class ConditionReport:
    """Table of block variation sums with their suprema.

    ``table`` rows carry level, direction, the base point attaining the
    batch maximum, and the value. ``within_table`` (one-dimensional checks
    only) holds the one-sided sums whose difference endpoints both lie in a
    single signed block; those are the quantities controlled by a continuous
    derivative bound after cell-average discretization. The suprema ``c2``,
    ``c3``, ``a_const`` and ``within_block_sup`` are derived from the rows
    on construction (``_SUPREMA``); only ``c1``, the largest |m|, is given.
    """

    kind: str
    symbol: str
    d: int
    table: list = field(default_factory=list)
    c1: float | None = None
    c2: float | None = field(default=None, init=False)
    c3: float | None = field(default=None, init=False)
    a_const: float | None = field(default=None, init=False)
    within_table: list = field(default_factory=list)
    within_block_sup: float | None = field(default=None, init=False)
    flags: dict = field(default_factory=dict)
    truncation: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, sup in self._suprema():
            setattr(self, name, sup)
        self.check_invariants()

    def _suprema(self):
        """(field, supremum of its rows) per derived constant; None for no rows."""
        for name, section, prefix in _SUPREMA[self.kind]:
            values = [r["value"] for r in getattr(self, section)
                      if str(r["direction"]).startswith(prefix)]
            yield name, float(max(values)) if values else None

    @property
    def headline(self) -> dict:
        """The constants the command line prints, by their printed names."""
        return {label: getattr(self, name) for label, name in _HEADLINES[self.kind].items()}

    def as_dict(self) -> dict:
        """The report as plain Python values: what ``to_json`` encodes."""
        return {
            "kind": self.kind,
            "symbol": self.symbol,
            "d": self.d,
            "c1": self.c1,
            "c2": self.c2,
            "c3": self.c3,
            "a_const": self.a_const,
            "within_block_sup": self.within_block_sup,
            "flags": self.flags,
            "truncation": self.truncation,
            "table": self.table,
            "within_table": self.within_table,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def csv_rows(self):
        """Rows [section, level, direction, base, value, running_sup]."""
        out = [["section", "level", "direction", "base", "value", "running_sup"]]
        for section, rows in (("block", self.table), ("within", self.within_table)):
            running = 0.0
            for r in rows:
                running = max(running, r["value"])
                out.append([
                    section,
                    r["level"],
                    str(r["direction"]),
                    str(r.get("base", "")),
                    repr(float(r["value"])),
                    repr(running),
                ])
        return out

    def check_invariants(self):
        for r in self.table + self.within_table:
            if r["value"] < 0:
                raise AssertionError("negative variation sum recorded")
        for name, sup in self._suprema():
            if getattr(self, name) != sup:
                raise AssertionError(f"supremum {name} does not match its table")
        return True


def _bases_array(base_range: Box, d: int) -> np.ndarray:
    if not isinstance(base_range, Box):
        raise TypeError("base_range must be a Box")
    if base_range.d != d:
        raise ValueError(f"base_range must be {d}-dimensional")
    pts = base_range.points_array()
    if len(pts) == 0:
        raise ValueError("base_range is empty")
    return pts


def _sup_row(level, direction, bases, values, **extra):
    """Table row at the first base where ``values`` peaks.

    ``bases`` holds one base per value: a number each when it is 1-d, a
    point (row) each otherwise, reported as a tuple.
    """
    i = int(np.argmax(values))
    base = bases[i].item() if bases.ndim == 1 else tuple(bases[i].tolist())
    return {"level": level, "direction": direction, **extra, "base": base,
            "value": float(values[i])}


# Symbol pairs per run of bases: about 16 MB of complex values.
_CHUNK_PAIRS = 1 << 20

_ORIENTS = ("left", "right")


def _variation_sums(m: DiscreteSymbol, bases, hull: Box, regions):
    """Per-base sums of |mixed difference of m| over regions of offsets.

    ``regions`` lists (alpha, offsets) pairs. The difference along the axis
    mask alpha anchored at an offset t (a row of the (k, d) array
    ``offsets``) takes m at s + t + beta for beta <= alpha, in the argument
    order m(s, s + t + beta) ("left") or m(s + t + beta, s) ("right"); every
    such offset must lie in ``hull``, a cube. Returns the sums as an array
    (region, orientation, base) in ``_ORIENTS`` order, and the largest |m|
    over the hull.

    m is evaluated once per run of bases and orientation, at every hull
    offset, and each region's sum runs along one base's row of differences
    in the order of its offsets, so the run width does not change a sum. A
    Toeplitz symbol m(s, t) = phi(s - t) has the same sums at every base,
    so its first base stands for all of them; other symbols go in runs of
    about ``_CHUNK_PAIRS`` pairs.
    """
    d, side = hull.d, hull.sizes[0]
    offsets = hull.points_array()
    lo = np.asarray(hull.los)
    by_alpha = {}
    for r, (alpha, anchors) in enumerate(regions):
        # flat positions in the differences along alpha: only alpha's axes shrink
        shape = tuple(side - bit for bit in alpha)
        idx = np.ravel_multi_index(tuple((anchors - lo).T), shape)
        by_alpha.setdefault(tuple(alpha), []).append((r, idx))
    walk = bases[:1] if m.kind == "toeplitz" else bases
    width = max(1, _CHUNK_PAIRS // len(offsets))
    sums = np.empty((len(regions), 2, len(walk)))
    c1 = 0.0
    for start in range(0, len(walk), width):
        pts = walk[start:start + width]
        S = np.repeat(pts, len(offsets), axis=0)
        T = (pts[:, None, :] + offsets[None, :, :]).reshape(-1, d)
        for o in range(2):
            V = m.eval_pairs(S, T) if o == 0 else m.eval_pairs(T, S)
            c1 = max(c1, float(np.abs(V).max(initial=0.0)))
            V = V.reshape((len(pts),) + (side,) * d)
            for alpha, members in by_alpha.items():
                D = np.abs(_mixed_difference(V, alpha)).reshape(len(pts), -1)
                for r, idx in members:
                    sums[r, o, start:start + len(pts)] = np.take(D, idx, axis=1).sum(axis=1)
            # free this orientation's arrays before the next evaluation
            del V, D
    return np.broadcast_to(sums, sums.shape[:2] + (len(bases),)), c1


def check_1d(m: DiscreteSymbol, N_max: int, base_range: Box) -> ConditionReport:
    """Row/column variation sums of a one-dimensional symbol per dyadic block.

    For each block level N and base j, sums |m(k+j+1,j)-m(k+j,j)| over
    2^(N-1) <= |k| < 2^N (direction "row") and the transposed-argument
    analogue (direction "col"). Also records, per signed half block, the
    one-sided sums whose difference endpoints both stay inside that half.
    """
    if m.d != 1:
        raise ValueError("check_1d needs a one-dimensional symbol")
    if N_max < 1:
        raise ValueError("N_max must be >= 1")
    bases = _bases_array(base_range, 1)
    top = 1 << N_max
    # per level: the two-sided block, then the signed halves "+" and "-"
    # without the difference that leaves the half
    regions = []
    for N in range(1, N_max + 1):
        a, b = 1 << (N - 1), 1 << N
        regions += [((1,), dyadic_block_points(N, 1)),
                    ((1,), np.arange(a, b - 1)[:, None]),
                    ((1,), np.arange(-b + 1, -a)[:, None])]
    sums, c1 = _variation_sums(m, bases, Box.interval(-top, top + 1), regions)
    sums = sums.reshape(N_max, 3, 2, -1)
    # "row" differences the first argument: the "right" orientation
    directions = ((1, "row"), (0, "col"))
    xs = bases[:, 0]
    table = []
    within = []
    for lvl in range(N_max):
        table += [_sup_row(lvl + 1, d, xs, sums[lvl, 0, o]) for o, d in directions]
        within += [_sup_row(lvl + 1, d + sign, xs, sums[lvl, g, o])
                   for o, d in directions
                   for g, sign in ((1, "+"), (2, "-"))]

    return ConditionReport(
        kind="1d",
        symbol=getattr(m, "name", None) or "symbol",
        d=1,
        table=table,
        c1=c1,
        within_table=within,
        truncation={
            "N_max": N_max,
            "bases": [int(bases.min()), int(bases.max())],
            "k_range": [int(-top), int(top)],
        },
    )


def _growth_flag(per_level: list[float]) -> bool:
    # sustained >= 1.5x growth across the last two level steps
    tail = [v for v in per_level if v > 0]
    if len(tail) < 3:
        return False
    r1 = tail[-2] / tail[-3]
    r2 = tail[-1] / tail[-2]
    return r1 >= 1.5 and r2 >= 1.5


def _level_hull(k_max: int, d: int) -> Box:
    # every offset a level-k difference reaches, k <= k_max
    return Box.cube(-(1 << k_max) + 1, (1 << k_max) + 1, d)


def _pinned_offsets(alpha, k: int, pin: int) -> np.ndarray:
    """Offsets whose alpha coordinates run over the level-k block's extent
    (-2^k, 2^k), in lexicographic order, and whose other coordinates are pin."""
    shape = [(2 << k) - 1 if bit else 1 for bit in alpha]
    corner = [1 - (1 << k) if bit else pin for bit in alpha]
    return np.indices(shape).reshape(len(alpha), -1).T + corner


def check_2d(m: DiscreteSymbol, k_max: int, base_range: Box) -> ConditionReport:
    """Edge and mixed variation sums of a two-dimensional symbol per block.

    Per level k and base s: single differences along the four block edges
    (sum recorded as direction "edge"), and the mixed double difference
    summed over the whole block shell (direction "mixed"); each in both the
    (s, s+t) and (s+t, s) argument orders.
    """
    if m.d != 2:
        raise ValueError("check_2d needs a two-dimensional symbol")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    bases = _bases_array(base_range, 2)
    # per level: the four edge lines, then the shell
    regions = []
    for k in range(1, k_max + 1):
        half = 1 << (k - 1)
        regions += [(alpha, _pinned_offsets(alpha, k, pin))
                    for alpha in ((1, 0), (0, 1)) for pin in (half, -half)]
        regions.append(((1, 1), dyadic_block_points(k, 2)))
    sums, c1 = _variation_sums(m, bases, _level_hull(k_max, 2), regions)
    sums = sums.reshape(k_max, 5, 2, -1)

    table = []
    for k in range(1, k_max + 1):
        s = sums[k - 1]
        for label, part in (("edge", s[0] + s[1] + s[2] + s[3]), ("mixed", s[4])):
            table += [_sup_row(k, f"{label}-{orient}", bases, part[o])
                      for o, orient in enumerate(_ORIENTS)]

    def edge_levels(orient):
        return [r["value"] for r in table if r["direction"] == f"edge-{orient}"]

    return ConditionReport(
        kind="2d",
        symbol=getattr(m, "name", None) or "symbol",
        d=2,
        table=table,
        c1=c1,
        flags={
            "nonuniform_growth": _growth_flag(edge_levels("left"))
            or _growth_flag(edge_levels("right")),
        },
        truncation={"k_max": k_max, "bases": len(bases)},
    )


# The largest symbol dimension check_dd takes: 2^d - 1 masks per level.
_DD_CAP = 3


def check_dd(m: DiscreteSymbol, k_max: int, base_range: Box) -> ConditionReport:
    """Anchored mixed-difference sums in the symbol's dimension d, all nonzero axis masks.

    For each level k and mask alpha, the coordinates outside alpha are pinned
    to the positive block corner 2^(k-1) and the alpha coordinates run over
    the block's extent; the mask of all axes runs over the whole shell. Sums
    |difference of m along alpha| in both argument orders; C is the maximum.
    """
    d = m.d
    if not 1 <= d <= _DD_CAP:
        raise ValueError(f"dimension {d} outside the supported range 1..{_DD_CAP}")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    bases = _bases_array(base_range, d)
    masks = [alpha for alpha in product((0, 1), repeat=d) if any(alpha)]
    regions = []
    for k in range(1, k_max + 1):
        regions += [(alpha, dyadic_block_points(k, d) if all(alpha)
                     else _pinned_offsets(alpha, k, 1 << (k - 1))) for alpha in masks]
    sums, c1 = _variation_sums(m, bases, _level_hull(k_max, d), regions)

    table = [_sup_row(r // len(masks) + 1, f"{alpha}-{orient}", bases, sums[r, o], alpha=alpha)
             for r, (alpha, _) in enumerate(regions) for o, orient in enumerate(_ORIENTS)]
    return ConditionReport(
        kind="dd",
        symbol=getattr(m, "name", None) or "symbol",
        d=d,
        table=table,
        c1=c1,
        truncation={"k_max": k_max, "bases": len(bases), "cap": _DD_CAP},
    )


# ---------------------------------------------------------------------------
# continuous symbols: cell-average discretization and derivative conditions


# Gauss-Legendre orders of every quadrature: a rule, and the higher order
# that checks it. Order 8 integrates polynomials of degree 15 exactly.
_GL_ORDERS = (8, 12)


@functools.lru_cache(maxsize=None)
def _gl_nodes(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    u, w = (x + 1.0) / 2.0, w / 2.0
    u.flags.writeable = w.flags.writeable = False  # shared by every caller
    return u, w


def _cell_averages(M: ContinuousSymbol, s, t, k: int, order: int):
    """Averages of M over the sheared cells (s, t), vectorized.

    ``s`` and ``t`` are integer arrays that broadcast to the shape of the
    result; M takes runs of about 2e6 nodes along the result's first axis.
    """
    u, wu = _gl_nodes(order)
    h = 2.0 ** (-k)
    W2 = wu[:, None] * wu[None, :]
    s, t = (np.asarray(a, dtype=np.float64)[..., None, None] for a in (s, t))
    # node (u, v) of a cell sits at ((s + u) h, (t + v + u) h)
    X, Y = np.broadcast_arrays((s + u[:, None]) * h, (t + u + u[:, None]) * h)
    out = np.empty(X.shape[:-2], dtype=np.complex128)
    rows_per = max(1, 2_000_000 // max(1, X[0].size))
    for lo in range(0, len(out), rows_per):
        rows = slice(lo, lo + rows_per)
        out[rows] = np.einsum("...uv,uv->...", M(X[rows], Y[rows]), W2)
    return out


# Largest gap between the two orders of _GL_ORDERS on a sampled cell average.
_CELL_TOL = 1e-8


def discretize_continuous(M: ContinuousSymbol, k: int, window: Box) -> DiscreteSymbol:
    """Dense symbol of cell averages of M at scale k over a window.

    Entry (s, t) is the mean of M over the sheared half-open cell traced by
    ((s+u)/2^k, (t+v+u)/2^k) for (u, v) in the unit square, computed with
    tensor Gauss-Legendre quadrature at the lower order of ``_GL_ORDERS``.
    A strided sample of cells is recomputed at the higher order;
    disagreement above ``_CELL_TOL`` raises QuadratureError.
    """
    if M.d != 1:
        raise SymbolError("cell-average discretization is defined for d = 1 symbols")
    if k < 0:
        raise ValueError("scale k must be nonnegative")
    if window.d != 1:
        raise ValueError("window must be one-dimensional")
    pts = window.points_array()[:, 0]
    order, check_order = _GL_ORDERS
    entries = _cell_averages(M, pts[:, None], pts[None, :], k, order)

    n = len(pts)
    total = n * n
    # every cell of a small table, else a strided sample of about 1024
    idx = np.arange(0, total, 1 if total <= 4096 else total // 1024)
    si, ti = idx // n, idx % n
    coarse = entries[si, ti]
    fine = _cell_averages(M, pts[si], pts[ti], k, check_order)
    gap = np.abs(fine - coarse)
    worst = int(np.argmax(gap))
    if gap[worst] > _CELL_TOL:
        s_bad, t_bad = int(pts[si[worst]]), int(pts[ti[worst]])
        raise QuadratureError(
            f"cell average at (s={s_bad}, t={t_bad}), scale {k}, moved "
            f"{gap[worst]:.3e} under order refinement (tol {_CELL_TOL:g})"
        )

    name = f"{M.name or 'continuous'}_avg_k{k}"
    return DiscreteSymbol.dense(window, window, entries, name=name)


# Integrand values (panels x nodes x components) per call of the integrand.
# Larger calls cost memory, and on a failing integrand they refine panels
# that lie after the first failure.
_GL_VALUES = 1 << 14

# Limits past which a failing interval raises: halvings below the interval,
# and panels waiting in it at once.
_GL_MAX_DEPTH, _GL_MAX_PANELS = 28, 1 << 10


@functools.lru_cache(maxsize=None)
def _end_weights(order: int):
    """(2, order) weights that evaluate the interpolant on ``_gl_nodes(order)`` at 0 and 1."""
    u = _gl_nodes(order)[0]
    gap = np.array([[0.0], [1.0]]) - u
    e = gap.prod(axis=1, keepdims=True) / gap / np.prod(u[:, None] - u + np.eye(order), axis=1)
    e.flags.writeable = False  # shared by every caller
    return e


def _adaptive_gl(f, intervals, tol: float):
    """Adaptive composite Gauss-Legendre integration of vector-valued integrands.

    ``f(t, which)`` maps abscissae ``t`` on the intervals ``which`` (indices
    into ``intervals``, a list of (a, b) pairs) to a ``(len(t), C)`` array;
    the result is ``(len(intervals), C)``. Every interval starts as one panel.
    A panel is scored at both orders of ``_GL_ORDERS`` and at its two ends;
    its error is the larger of its worst component's gap between the two
    rules and what a kink beside an end, where neither rule has a node, can
    hide. Each round scores every waiting panel of the first intervals in
    the queue; the first call of ``f`` takes one panel, which shows the
    number of components, and later calls up to ``_GL_VALUES`` values. An
    interval whose panels' errors, with those it has accepted, add up to at
    most ``tol`` is done, and their higher-order values join its total.
    Otherwise a panel whose error is at most ``tol`` times its share of the
    interval's width is accepted, and the others are halved. Raises
    QuadratureError for the first panel of a round still failing after
    ``_GL_MAX_DEPTH`` halvings, or for an interval with more than
    ``_GL_MAX_PANELS`` panels waiting.
    """
    bounds = np.asarray(intervals, dtype=float).reshape(-1, 2)
    if np.any(bounds[:, 1] <= bounds[:, 0]):
        raise ValueError("empty integration interval")
    (u_lo, w_lo), (u_hi, w_hi) = (_gl_nodes(q) for q in _GL_ORDERS)
    e_lo, e_hi = (_end_weights(q) for q in _GL_ORDERS)
    u = np.concatenate([u_lo, u_hi, [0.0, 1.0]])
    n_lo, n_hi, n = len(u_lo), len(u_hi), len(bounds)

    def score(lo, hi, which):
        width = (hi - lo)[:, None]
        vals = f((lo[:, None] + width * u).ravel(), np.repeat(which, len(u)))
        vals = vals.reshape(len(lo), len(u), -1)
        v_lo, v_hi, v_end = vals[:, :n_lo], vals[:, n_lo:n_lo + n_hi], vals[:, n_lo + n_hi:]
        q_lo, q_hi = (width * np.einsum("pqc,q->pc", v, w) for v, w in ((v_lo, w_lo), (v_hi, w_hi)))
        # A kink within u_hi[0] of an end bends f away from both interpolants
        # while they agree; its misfit beyond their gap bounds what it hides.
        p_lo, p_hi = (np.einsum("eq,pqc->pec", e, v) for e, v in ((e_lo, v_lo), (e_hi, v_hi)))
        misfit = (np.abs(v_end - p_hi) - np.abs(p_hi - p_lo)).max(axis=(1, 2))
        return q_hi, np.maximum(np.abs(q_hi - q_lo).max(axis=1), u_hi[0] * width[:, 0] * misfit)

    lo, hi = bounds[:, 0], bounds[:, 1]
    span = hi - lo
    which, depth = np.arange(n), np.zeros(n, dtype=np.int64)
    total, spent = None, np.zeros(n)
    per_call = 1  # panels per call, until the first call shows the components
    while len(lo):
        # The queue stays sorted by interval, and a round takes whole ones.
        m = min(len(lo), per_call)
        if m < len(lo) and which[m] == which[m - 1]:
            m = np.searchsorted(which, which[m - 1]) or np.searchsorted(which, which[0], "right")
        b_lo, b_hi, b_which, b_depth = lo[:m], hi[:m], which[:m], depth[:m]
        ids, waiting = np.unique(b_which, return_counts=True)
        if waiting.max() > _GL_MAX_PANELS:
            a, b = bounds[ids[np.argmax(waiting)]]
            raise QuadratureError(
                f"adaptive quadrature on [{a:.17g}, {b:.17g}] needs more than "
                f"{_GL_MAX_PANELS} panels"
            )
        value, err = (np.concatenate(a) for a in zip(*(
            score(b_lo[k:k + per_call], b_hi[k:k + per_call], b_which[k:k + per_call])
            for k in range(0, m, per_call))))
        if total is None:
            total = np.zeros((n, value.shape[1]), dtype=value.dtype)
            per_call = max(1, _GL_VALUES // (len(u) * value.shape[1]))
        done = spent + np.bincount(b_which, weights=err, minlength=n) <= tol
        ok = done[b_which] | (err <= tol * (b_hi - b_lo) / span[b_which])
        np.add.at(total, b_which[ok], value[ok])
        spent += np.bincount(b_which[ok], weights=err[ok], minlength=n)
        split = ~ok
        stalled = np.flatnonzero(split & (b_depth >= _GL_MAX_DEPTH))
        if len(stalled):
            k = stalled[0]
            raise QuadratureError(
                f"adaptive quadrature stalled on [{b_lo[k]:.17g}, {b_hi[k]:.17g}] "
                f"with error {err[k]:.3e}"
            )
        mid = 0.5 * (b_lo + b_hi)
        halves = [(b_lo, mid), (mid, b_hi), (b_which, b_which), (b_depth + 1, b_depth + 1)]
        lo, hi, which, depth = (
            np.concatenate([np.stack([left[split], right[split]], axis=1).ravel(), rest[m:]])
            for (left, right), rest in zip(halves, (lo, hi, which, depth)))
    return total


# Sampled bases y of the d = 1 continuous check: an even grid on _Y_SPAN.
_Y_SPAN, _Y_SAMPLES = (-4.0, 4.0), 129

# Error bound of each shell integral.
_SHELL_TOL = 1e-9


def check_continuous(M: ContinuousSymbol, j_range) -> ConditionReport:
    """Supremum of dyadic-shell integrals of |derivative of M|.

    ``j_range`` is the pair (jmin, jmax) of the first and last level. d = 1:
    for each level j and base y, integrates |d/dx M(y+t, y)| (and the
    second-argument mirror) over 2^j <= |t| <= 2^(j+1). d = 2: per nonzero
    axis mask, integrates the mixed derivative magnitude over the mask's
    slice of the shell 2^j < |t|_inf <= 2^(j+1), the other coordinate pinned
    to the shell's outer edge; both argument orders. The supremum over bases
    is a max over the reported sample grid, not a proven supremum. Every
    integral is one ``_adaptive_gl`` interval solved to ``_SHELL_TOL``, each shell
    half starting as one panel. At d = 1 each shell half and base is its own
    interval, one solve per derivative slot; at d = 2 the bases are the
    components of one interval.
    """
    jmin, jmax = j_range
    if jmax < jmin:
        raise ValueError("empty level range")
    levels = list(range(jmin, jmax + 1))
    tol = _SHELL_TOL
    if M.d == 1:
        ys = np.linspace(*_Y_SPAN, _Y_SAMPLES)
        # both signed halves of every shell, in level order
        shells = [(2.0**j, 2.0 ** (j + 1)) for j in levels]
        intervals = [iv for lo, hi in shells for iv in ((lo, hi), (-hi, -lo))]

        def shifted(t):
            # (len(t), len(ys)) arguments: the bases and the bases shifted by t
            x = ys[None, :] + np.asarray(t)[:, None]
            return x, np.broadcast_to(ys, x.shape)

        sums = []
        for slot in (1, 2):
            # one scalar integral per half and base: a kink of |derivative|,
            # which sits elsewhere at every base, refines that base alone
            def f(t, which, slot=slot):
                y = ys[which % len(ys)]
                return np.abs(M.partial(1, y + t, y) if slot == 1 else M.partial(2, y, y + t))[:, None]

            res = _adaptive_gl(f, np.repeat(intervals, len(ys), axis=0), tol)
            res = res.reshape(len(intervals), len(ys))
            sums.append(res[0::2] + res[1::2])  # positive half + negative half
        table = [_sup_row(j, label, ys, s[lvl])
                 for lvl, j in enumerate(levels) for s, label in zip(sums, ("d1", "d2"))]
        x, y = shifted(np.concatenate([np.linspace(a, b, 9) for a, b in intervals]))
        samp = np.abs(M(x, y)).reshape(len(levels), 18, len(ys))
        c1 = max(0.0, *samp.max(axis=(1, 2)).tolist())
        truncation = {"levels": [levels[0], levels[-1]],
                      "y_grid": [float(ys.min()), float(ys.max()), int(len(ys))],
                      "tol": tol}
    elif M.d == 2:
        axis = np.linspace(-2.0, 2.0, 5)
        ys = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        table = []
        for j in levels:
            a_edge, b_edge = 2.0**j, 2.0 ** (j + 1)
            for alpha in ((1, 0), (0, 1), (1, 1)):
                for orient in ("left", "right"):
                    slot = 2 if orient == "left" else 1
                    D = M.partial_alpha(slot, alpha)

                    def at(t1, t2):
                        # (len(t), len(ys)) values at the bases shifted by (t1, t2)
                        tt = np.stack(np.broadcast_arrays(t1, t2), axis=-1)[:, None, :]
                        x = np.broadcast_to(ys, tt.shape[:1] + ys.shape)
                        if orient == "left":
                            return np.abs(D(x, x + tt))
                        return np.abs(D(x + tt, x))

                    if alpha == (1, 1):
                        # one inner solve per round of outer abscissae
                        def inner(t2, which):
                            return _adaptive_gl(lambda t1, k: at(t1, t2[k]),
                                                [(-b_edge, b_edge)] * len(t2), tol)

                        def inner_side(t1, which):
                            return _adaptive_gl(lambda t2, k: at(t1[k], t2),
                                                [(-a_edge, a_edge)] * len(t1), tol)

                        shells = [(a_edge, b_edge), (-b_edge, -a_edge)]
                        r1 = _adaptive_gl(inner, shells, tol)
                        r2 = _adaptive_gl(inner_side, shells, tol)
                        vals = r1[0] + r1[1] + r2[0] + r2[1]
                    else:
                        free = 0 if alpha == (1, 0) else 1

                        def line(tf, which):
                            return at(tf, b_edge) if free == 0 else at(b_edge, tf)

                        vals = _adaptive_gl(line, [(-b_edge, b_edge)], tol)[0]
                    table.append(_sup_row(j, f"{alpha}-{orient}", ys, vals, alpha=alpha))
        c1 = None
        truncation = {"levels": [levels[0], levels[-1]], "bases": len(ys), "tol": tol}
    else:
        raise SymbolError("continuous conditions implemented for d <= 2")
    return ConditionReport(kind="continuous", symbol=M.name or "continuous", d=M.d,
                           table=table, c1=c1, truncation=truncation)
