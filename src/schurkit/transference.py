"""Matrix-valued trigonometric polynomials on the d-torus.

This module carries the bridge between entrywise multiplier action on
matrices and Fourier-side multiplier action on polynomials: the unitary
embedding of a matrix as a polynomial, diagonal multiplier operators per
frequency, frequency projections, smooth dyadic cutoffs, and the
block-telescoping decompositions whose parts must reassemble exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import Box, DyadicIndex, _mixed_difference, aspoint
from .schatten import (
    LabeledMatrix,
    QuadratureGrid,
    lp_sp_norm,
    square_function_norm,
)

__all__ = [
    "MatTrigPoly",
    "pi_embed",
    "is_pi_image",
    "apply_fourier_multiplier",
    "freq_project",
    "cutoff_profile",
    "smooth_cutoff",
    "SbpParts",
    "summation_by_parts_1d",
    "summation_by_parts_2d",
    "LpReport",
    "lp_experiment",
    "max_coeff_diff",
]


def _lex_unique(pts):
    """The distinct rows of an (m, d) integer array in lexicographic order,
    and each row's index among them; np.unique(pts, axis=0,
    return_inverse=True) through one integer key per row."""
    if len(pts) == 0:
        return pts.reshape(0, pts.shape[1]), np.zeros(0, dtype=np.int64)
    lo = pts.min(axis=0)
    span = tuple((pts.max(axis=0) - lo + 1).tolist())
    keys, inv = np.unique(np.ravel_multi_index(tuple((pts - lo).T), span),
                          return_inverse=True)
    return np.stack(np.unravel_index(keys, span), axis=1) + lo, inv.reshape(-1)


class MatTrigPoly:
    """Finitely supported frequency -> matrix coefficient map.

    All coefficients share one window pair; evaluation at a torus point z is
    the sum of coefficients weighted by z^n.

    Storage: the support, a lexicographically sorted (F, d) array of
    distinct frequencies, and an entry list (frequency index, row, column,
    value) sorted by (frequency, row, column) with no position repeated.
    Every coefficient entry that is not stored is zero. The dict constructor
    stores every entry of each coefficient; ``pi_embed`` stores one entry
    per matrix entry, so an n x n matrix costs n^2 entries.
    """

    __slots__ = ("d", "rows", "cols", "_sup", "_fi", "_row", "_col", "_val")

    def __init__(self, d: int, coeffs: dict, rows: Box | None = None, cols: Box | None = None):
        d = int(d)
        clean = {}
        for n, A in coeffs.items():
            key = aspoint(n, d)
            if not isinstance(A, LabeledMatrix):
                raise TypeError("coefficients must be LabeledMatrix values")
            if rows is None:
                rows, cols = A.rows, A.cols
            elif A.rows != rows or A.cols != cols:
                raise ValueError("all coefficients must share one window pair")
            clean[key] = A
        if rows is None:
            raise ValueError("empty polynomial needs explicit windows")
        keys = sorted(clean)
        F, R, C = len(keys), rows.npoints, cols.npoints
        vals = [clean[n].data.reshape(-1) for n in keys]
        self._set(d, rows, cols,
                  np.asarray(keys, dtype=np.int64).reshape(F, d),
                  np.repeat(np.arange(F), R * C),
                  np.tile(np.repeat(np.arange(R), C), F),
                  np.tile(np.arange(C), F * R),
                  np.concatenate(vals) if vals else np.zeros(0, dtype=np.complex128))

    def _set(self, d, rows, cols, sup, fi, row, col, val):
        self.d, self.rows, self.cols = d, rows, cols
        self._sup, self._fi, self._row, self._col, self._val = sup, fi, row, col, val

    @classmethod
    def _from_entries(cls, d, rows, cols, sup, fi, row, col, val) -> "MatTrigPoly":
        """A polynomial from arrays already in the storage order."""
        out = cls.__new__(cls)
        out._set(d, rows, cols, sup, fi, row, col, val)
        return out

    def _with_values(self, val) -> "MatTrigPoly":
        """Same support and entry positions, new entry values."""
        return MatTrigPoly._from_entries(self.d, self.rows, self.cols, self._sup,
                                         self._fi, self._row, self._col, val)

    def _keep(self, keep) -> "MatTrigPoly":
        """The support frequencies where the mask is True, with their entries."""
        renumber = np.cumsum(keep) - 1
        on = keep[self._fi]
        return MatTrigPoly._from_entries(self.d, self.rows, self.cols, self._sup[keep],
                                         renumber[self._fi[on]], self._row[on],
                                         self._col[on], self._val[on])

    @classmethod
    def zero(cls, d: int, rows: Box, cols: Box) -> "MatTrigPoly":
        return cls(d, {}, rows=rows, cols=cols)

    @property
    def support(self):
        return [tuple(n) for n in self._sup.tolist()]

    def _dense(self, i: int) -> LabeledMatrix:
        a, b = np.searchsorted(self._fi, [i, i + 1])
        out = LabeledMatrix.zeros(self.rows, self.cols)
        out.data[self._row[a:b], self._col[a:b]] = self._val[a:b]
        return out

    def coeff(self, n) -> LabeledMatrix:
        hit = np.flatnonzero((self._sup == np.asarray(aspoint(n, self.d))).all(axis=1))
        if not hit.size:
            return LabeledMatrix.zeros(self.rows, self.cols)
        return self._dense(int(hit[0]))

    def max_freq(self) -> int:
        """Largest coordinate magnitude over the support (0 if empty)."""
        return int(np.abs(self._sup).max(initial=0))

    def items(self):
        return ((n, self._dense(i)) for i, n in enumerate(self.support))

    def __sub__(self, other):
        if not isinstance(other, MatTrigPoly):
            return NotImplemented
        if other.d != self.d or other.rows != self.rows or other.cols != self.cols:
            raise ValueError("polynomial shape mismatch")
        return _sum_polys([self, other._with_values(-other._val)])

    def grid_chunks(self, grid: QuadratureGrid, values_per_chunk: int, out=None):
        """Values on consecutive runs of grid points: (chunk, R, C) arrays of
        about ``values_per_chunk`` values each, chunk =
        ``grid.run_points(R * C, values_per_chunk)``. Each run computes its
        own phases z^n and is written into one buffer, ``out`` (shape
        (chunk, R * C)) when given, so walks advanced in turn can share it.
        Memory stays bounded by the run, and each yielded array is
        overwritten by the next run: use or copy it before advancing.

        The entries are dealt into layers, layer k holding the k-th entry at
        every matrix position, so each position adds its entries in list
        order. Each layer is one gather of z^n times value over all positions
        of a chunk; a pi-image has a single layer.
        """
        if self.d != grid.d:
            raise ValueError("grid dimension does not match the polynomial")
        R, C = self.rows.npoints, self.cols.npoints
        pos = self._row * C + self._col
        order = np.argsort(pos, kind="stable")
        pos = pos[order]
        first = np.flatnonzero(np.diff(pos, prepend=-1))
        rank = np.arange(len(pos)) - np.repeat(first, np.diff(first, append=len(pos)))
        # empty layer slots gather an extra frequency-0 column with value 0
        F = len(self._sup)
        fl = np.full((max(1, int(rank.max(initial=0)) + 1), R * C), F)
        vl = np.zeros(fl.shape, dtype=np.complex128)
        fl[rank, pos] = self._fi[order]
        vl[rank, pos] = self._val[order]
        freqs = np.vstack([self._sup, np.zeros((1, self.d), dtype=np.int64)])
        g = grid.size
        chunk = grid.run_points(R * C, values_per_chunk)
        if out is None:
            out = np.empty((chunk, R * C), dtype=np.complex128)
        elif out.shape != (chunk, R * C):
            raise ValueError(f"buffer shape {out.shape} is not {(chunk, R * C)}")
        term_buf = np.empty_like(out) if len(fl) > 1 else None
        for lo in range(0, g, chunk):
            ph = grid.phases(freqs, lo, min(g, lo + chunk))
            vals = np.take(ph, fl[0], axis=1, out=out[: len(ph)])
            vals *= vl[0]
            for f_k, v_k in zip(fl[1:], vl[1:]):
                term = np.take(ph, f_k, axis=1, out=term_buf[: len(ph)])
                term *= v_k
                vals += term
            yield vals.reshape(len(ph), R, C)

    def max_abs(self) -> float:
        return float(np.abs(self._val).max(initial=0.0))

    def __repr__(self):
        return (
            f"MatTrigPoly(d={self.d}, terms={len(self._sup)}, "
            f"window={self.rows.npoints}x{self.cols.npoints})"
        )


def _sum_polys(polys) -> MatTrigPoly:
    """Sum of polynomials of one shape: the entry lists are concatenated and
    repeated entries added in list order."""
    p0 = polys[0]
    RC, C = p0.rows.npoints * p0.cols.npoints, p0.cols.npoints
    sup, inv = _lex_unique(np.concatenate([p._sup for p in polys]))
    first = np.cumsum([0] + [len(p._sup) for p in polys])
    fi = np.concatenate([inv[o + p._fi] for o, p in zip(first, polys)])
    keys = fi * RC + np.concatenate([p._row * C + p._col for p in polys])
    keys, at = np.unique(keys, return_inverse=True)
    vals = np.concatenate([p._val for p in polys])
    total = np.empty(len(keys), dtype=np.complex128)
    total.real = np.bincount(at, weights=vals.real, minlength=len(keys))
    total.imag = np.bincount(at, weights=vals.imag, minlength=len(keys))
    fi, pos = np.divmod(keys, max(RC, 1))
    row, col = np.divmod(pos, max(C, 1))
    return MatTrigPoly._from_entries(p0.d, p0.rows, p0.cols, sup, fi, row, col, total)


def max_coeff_diff(f: MatTrigPoly, g: MatTrigPoly) -> float:
    """Largest entrywise coefficient discrepancy between two polynomials."""
    return (f - g).max_abs()


# ---------------------------------------------------------------------------
# the unitary embedding and per-frequency diagonal multipliers


def pi_embed(A: LabeledMatrix) -> MatTrigPoly:
    """Embed a matrix on a square window as the polynomial with the entry at
    (s, t) placed in the coefficient of z^(s-t).

    The embedding is multiplicative and preserves every Schatten norm of the
    matrix under the induced torus-averaged norm. The result stores one
    entry per matrix entry.
    """
    if A.rows != A.cols:
        raise ValueError("embedding requires a square window")
    rp = A.rows.points_array()
    d = A.rows.d
    R = len(rp)
    sup, fi = _lex_unique((rp[:, None, :] - rp[None, :, :]).reshape(R * R, d))
    # a stable sort by frequency keeps each frequency's entries row-major
    order = np.argsort(fi, kind="stable")
    row, col = np.divmod(order, max(R, 1))
    return MatTrigPoly._from_entries(d, A.rows, A.cols, sup, fi[order], row, col,
                                     A.data.reshape(-1)[order])


def is_pi_image(f: MatTrigPoly) -> bool:
    """True when every nonzero coefficient at n lives on the diagonal {s - t = n}."""
    if f.rows != f.cols:
        return False
    rp = f.rows.points_array()
    off = (rp[f._row] - rp[f._col] != f._sup[f._fi]).any(axis=1)
    return not bool((np.abs(f._val[off]) > 0.0).any())


def _diagonals(m, freqs, window: Box) -> np.ndarray:
    """Diagonal multipliers on a window for a batch of frequencies, one
    symbol evaluation: row n holds m(s, s-n) over s."""
    pts = window.points_array()
    freqs = np.asarray(freqs, dtype=np.int64).reshape(-1, window.d)
    base = np.tile(pts, (len(freqs), 1))
    return m.eval_pairs(base, base - np.repeat(freqs, len(pts), axis=0)).reshape(
        len(freqs), len(pts))


def _entry_multipliers(m, f: MatTrigPoly, side: str) -> np.ndarray:
    """The multiplier at every stored entry: m(s, s-n) at the entry's row s
    (side 'left') or m(t+n, t) at its column t (side 'right'). Positions
    where the symbol is not evaluable get 0 and must hold only zeros."""
    freqs = f._sup[f._fi]
    if side == "left":
        pts = f.rows.points_array()[f._row]
        s_pts, t_pts = pts, pts - freqs
    else:
        pts = f.cols.points_array()[f._col]
        s_pts, t_pts = pts + freqs, pts
    ok = m.evaluable_mask(s_pts, t_pts)
    live = ~ok & (f._val != 0)
    if live.any():
        e = int(np.argmax(live))
        where = "row" if side == "left" else "column"
        raise ValueError(
            f"symbol not evaluable at {where} {tuple(pts[e].tolist())} "
            f"for frequency {tuple(freqs[e].tolist())}"
        )
    vals = np.zeros(len(ok), dtype=np.complex128)
    if ok.any():
        vals[ok] = m.eval_pairs(s_pts[ok], t_pts[ok])
    return vals


def _times(mult, val, side: str):
    """Entry values times their multipliers, with the operands in the order
    of the products D A (side 'left') and A D (side 'right'); a complex
    product can round differently with its operands swapped."""
    return mult * val if side == "left" else val * mult


def apply_fourier_multiplier(m, f: MatTrigPoly, side: str = "left",
                             verify_two_sided: bool | None = None) -> MatTrigPoly:
    """Scale the coefficient at each frequency n by the diagonal multiplier.

    ``side`` picks row scaling by m(s, s-n) or column scaling by m(s+n, s).
    On polynomials in the image of the embedding the two agree; with
    ``verify_two_sided`` unset that agreement is checked whenever f is such
    an image (within 1e-12 of the coefficient scale).
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    out = _times(_entry_multipliers(m, f, side), f._val, side)
    check = verify_two_sided
    if check is None:
        check = is_pi_image(f)
    if check:
        flip = "right" if side == "left" else "left"
        other = _times(_entry_multipliers(m, f, flip), f._val, flip)
        gap = float(np.abs(out - other).max(initial=0.0))
        scale = max(np.abs(out).max(initial=0.0), np.abs(other).max(initial=0.0), 1.0)
        if gap > 1e-12 * scale:
            raise ArithmeticError(
                f"row and column multiplier forms disagree by {gap:.3e} on an embedded matrix"
            )
    return f._with_values(out)


# ---------------------------------------------------------------------------
# frequency projections and the smooth dyadic cutoff


def _region_mask(region, sup):
    d = sup.shape[1]
    if isinstance(region, Box):
        if region.d != d:
            raise ValueError("projection box dimension mismatch")
        return ((sup >= np.asarray(region.los)) & (sup < np.asarray(region.his))).all(axis=1)
    if isinstance(region, DyadicIndex):
        if region.d != d:
            raise ValueError("projection block dimension mismatch")
        top = np.abs(sup).max(axis=1, initial=0)
        if region.j == 0:
            return top == 0
        return (top >= 1 << (region.j - 1)) & (top < 1 << region.j)
    if isinstance(region, tuple) and len(region) == 2 and all(
        isinstance(v, (int, np.integer)) for v in region
    ):
        if d != 1:
            raise ValueError("open-interval projection is one-dimensional")
        a, b = region
        return (sup[:, 0] > a) & (sup[:, 0] < b)
    raise TypeError(f"unsupported projection region {region!r}")


def freq_project(f: MatTrigPoly, region) -> MatTrigPoly:
    """Keep only the coefficients whose frequency lies in the region.

    Regions: a Box, a dyadic block index, or an open integer interval
    (a, b) meaning a < n < b (both ends strict).
    """
    return f._keep(_region_mask(region, f._sup))


def _ramp(x: float) -> float:
    # exp(-1/x) spliced against its mirror: 0 at x<=0, 1 at x>=1, smooth.
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    a = math.exp(-1.0 / x)
    b = math.exp(-1.0 / (1.0 - x))
    return a / (a + b)


def cutoff_profile(x: float, d: int) -> float:
    """Radial bump: 0 off (1/4, 2*sqrt(d)), exactly 1 on [1/2, sqrt(d)]."""
    x = abs(x)
    rd = math.sqrt(d)
    if x <= 0.25 or x >= 2.0 * rd:
        return 0.0
    if 0.5 <= x <= rd:
        return 1.0
    if x < 0.5:
        return _ramp((x - 0.25) / 0.25)
    return _ramp((2.0 * rd - x) / rd)


def _cutoff_factor(n, j: int, d: int) -> float:
    # Integer-arithmetic plateau/support tests keep the on-block factor at
    # exactly 1.0 and the far tail at exactly 0.0; floats only on the ramps.
    S = int(sum(int(v) * int(v) for v in n))
    four_j = 1 << (2 * j)
    if 16 * S <= four_j or S >= 4 * d * four_j:
        return 0.0
    if 4 * S >= four_j and S <= d * four_j:
        return 1.0
    return cutoff_profile(math.sqrt(S) / (1 << j), d)


def smooth_cutoff(f: MatTrigPoly, j: int) -> MatTrigPoly:
    """Scale each coefficient by the level-j dyadic bump of its frequency.

    The bump equals 1 on the level-j block for j >= 1, so projecting the
    result onto that block returns the block projection of f unchanged, bit
    for bit.
    """
    if j < 0:
        raise ValueError("cutoff level must be nonnegative")
    w = np.array([_cutoff_factor(n, j, f.d) for n in f._sup.tolist()], dtype=float)
    g = f._keep(w != 0.0)
    return g._with_values(g._val * w[w != 0.0][g._fi])


# ---------------------------------------------------------------------------
# block-telescoping decompositions


@dataclass
class SbpParts:
    """A block-telescoping decomposition of the multiplied projection.

    ``total`` is the sum of the decomposition's terms and must reproduce
    ``direct`` exactly; ``residual`` is their largest coefficient gap, which
    the caller judges.
    """

    j: int
    total: MatTrigPoly
    direct: MatTrigPoly
    residual: float


def _anchored_sums(diag, box: Box, high) -> np.ndarray:
    """Multipliers over a box from its diagonals (window x box points), in a
    table with the window axis first, then each box axis from the anchor
    (the high end on the axes flagged in ``high``) outward: the anchor's
    diagonal plus, per nonzero axis mask in product() order, the np.cumsum of
    the mixed differences with the axes outside the mask pinned at the
    anchor, over the cuts from the anchor to just below each point."""
    d = box.d
    V = diag.reshape(-1, *box.sizes)[
        (slice(None),) + tuple(slice(None, None, -1) if h else slice(None) for h in high)]
    mult = np.empty_like(V)
    mult[...] = V[(...,) + (slice(0, 1),) * d]
    for alpha in list(itertools.product((0, 1), repeat=d))[1:]:
        D = _mixed_difference(V[(...,) + tuple(slice(None) if bit else slice(0, 1)
                                               for bit in alpha)], alpha)
        for axis in np.flatnonzero(alpha):
            np.cumsum(D, axis=1 + axis, out=D)
        mult[(...,) + tuple(slice(1, None) if bit else slice(None) for bit in alpha)] += D
    return mult


def _telescope(m, g: MatTrigPoly, j: int, boxes) -> SbpParts:
    """Block telescoping of the multiplied projection of g onto the boxes.

    ``boxes`` lists (box, high) pairs of disjoint frequency boxes, each
    anchored at the low end of every axis but those flagged in ``high``. One
    diagonal batch covers every box; each entry's total is its multiplier
    (``_anchored_sums``) times its value.
    """
    # window x the boxes' points
    diag = _diagonals(m, np.concatenate([box.points_array() for box, _ in boxes]), g.rows).T
    inside = [_region_mask(box, g._sup) for box, _ in boxes]
    keep = np.logical_or.reduce(inside)
    gb = g._keep(keep)
    freq, row, val = gb._sup[gb._fi], gb._row, gb._val
    out = np.empty_like(val)
    start = 0
    for (box, high), mask in zip(boxes, inside):
        on = mask[keep][gb._fi]
        if on.any():  # a box without entries needs no multipliers
            anchor = [hi - 1 if h else lo for lo, hi, h in zip(box.los, box.his, high)]
            at = (row[on],) + tuple(np.abs(freq[on] - anchor).T)
            out[on] = _anchored_sums(diag[:, start:start + box.npoints], box, high)[at] * val[on]
        start += box.npoints
    del diag  # the direct product below does not need it
    total = gb._with_values(out)
    direct = apply_fourier_multiplier(m, gb, verify_two_sided=False)
    return SbpParts(j, total, direct, max_coeff_diff(total, direct))


def summation_by_parts_1d(m, f: MatTrigPoly, j: int) -> SbpParts:
    """Decompose the level-j block part of the multiplied polynomial.

    Each half block contributes the anchor multiplier (taken at the point of
    the half block nearest zero) applied to the half-block projection, plus
    one difference term per interior cut: the multiplier increment across the
    cut applied to the projection onto the points beyond it (``_telescope``).
    """
    if f.d != 1:
        raise ValueError("one-dimensional decomposition needs d = 1")
    if j < 1:
        raise ValueError("block level must be >= 1")
    a, b = 1 << (j - 1), 1 << j
    return _telescope(m, f, j, [(Box.interval(-b + 1, -a + 1), (True,)),
                                (Box.interval(a, b), (False,))])


def summation_by_parts_2d(m, f: MatTrigPoly, j: int) -> SbpParts:
    """Decompose the multiplied projection onto the first rectangle of the
    level-j block in two dimensions: the wide strip (first axis) times the
    upper dyadic interval (second axis), anchored at its corner nearest the
    origin, (-a+1, a) with a = 2^(j-1). Single-difference sums run along each
    anchored edge and the mixed-difference sum over the whole rectangle
    (``_telescope``).
    """
    if f.d != 2:
        raise ValueError("this decomposition needs d = 2")
    if j < 1:
        raise ValueError("block level must be >= 1")
    a, b = 1 << (j - 1), 1 << j
    return _telescope(m, f, j, [(Box.interval(-a + 1, b).product(Box.interval(a, b)),
                                 (False, False))])


# ---------------------------------------------------------------------------
# empirical square-function ratios


@dataclass
class LpReport:
    """Empirical norm-vs-square-function ratios for one polynomial."""

    p: float
    reference: float
    norm: float
    block_ratio: float
    cutoff_ratio: float
    rect_ratio: float | None
    levels: list
    side: str = "max"
    notes: dict = field(default_factory=dict)

    def as_dict(self):
        return {
            "p": self.p,
            "reference": self.reference,
            "norm": self.norm,
            "block_ratio": self.block_ratio,
            "cutoff_ratio": self.cutoff_ratio,
            "rect_ratio": self.rect_ratio,
            "levels": list(self.levels),
            "side": self.side,
            **self.notes,
        }


def lp_experiment(f: MatTrigPoly, p: float, rectangles=None) -> LpReport:
    """Measure how block and cutoff square functions compare to the norm.

    Records norm / square-function for the dyadic block projections, the
    cutoff square function / norm, and optionally the same for a supplied
    family of frequency rectangles. Ratios are reported against the shape
    p^2/(p-1); nothing here passes or fails. Every norm is taken on the
    grid ``QuadratureGrid.default_for(f, p)``, exact at even integer p.
    """
    if p < 2:
        raise ValueError("square-function ratios are computed for p >= 2 only")
    if math.isinf(p):
        raise ValueError("square-function ratios need finite p")
    grid = QuadratureGrid.default_for(f, p)
    levels = list(range(f.max_freq().bit_length() + 1))

    # Norm through the same evaluation path as the square functions, so a
    # single-block polynomial gives ratio 1.0 with no rounding gap at all.
    norm = square_function_norm([f], p, grid=grid, side="max")
    blocks = [freq_project(f, DyadicIndex(j, f.d)) for j in levels]
    blocks = [g for g in blocks if g.support]
    cuts = [smooth_cutoff(f, j) for j in levels]
    cuts = [g for g in cuts if g.support]

    block_sq = square_function_norm(blocks, p, grid=grid, side="max") if blocks else 0.0
    cut_sq = square_function_norm(cuts, p, grid=grid, side="max") if cuts else 0.0
    block_ratio = norm / block_sq if block_sq else math.inf if norm else 1.0
    cutoff_ratio = cut_sq / norm if norm else math.inf if cut_sq else 1.0

    rect_ratio = None
    if rectangles is not None:
        pieces = [freq_project(f, R) for R in rectangles]
        pieces = [g for g in pieces if g.support]
        rect_sq = square_function_norm(pieces, p, grid=grid, side="max") if pieces else 0.0
        rect_ratio = rect_sq / norm if norm else math.inf if rect_sq else 1.0

    return LpReport(
        p=float(p),
        reference=p * p / (p - 1.0),
        norm=norm,
        block_ratio=block_ratio,
        cutoff_ratio=cutoff_ratio,
        rect_ratio=rect_ratio,
        levels=levels,
        notes={"norm_direct": lp_sp_norm(f, p, grid=grid)},
    )
