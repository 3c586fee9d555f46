"""Schatten p-norms, operator absolute values, and quadrature norms on the torus.

Matrices carry their index windows explicitly: a :class:`LabeledMatrix` is a
dense complex array whose rows and columns are labeled by the points of two
half-open boxes in Z^d, enumerated lexicographically.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .lattice import Box

__all__ = [
    "LabeledMatrix",
    "QuadratureGrid",
    "schatten_norm",
    "cs_gap",
    "lp_sp_norm",
    "square_function_norm",
]

# Singular values below this fraction of the largest are treated as exact zeros
# before any p-th power is taken.
SV_CLIP = 1e-14


class LabeledMatrix:
    """Dense complex matrix indexed by lattice points of two boxes."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: Box, cols: Box, data):
        data = np.asarray(data, dtype=np.complex128)
        if data.shape != (rows.npoints, cols.npoints):
            raise ValueError(
                f"data shape {data.shape} does not match windows "
                f"({rows.npoints}, {cols.npoints})"
            )
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def zeros(cls, rows, cols=None):
        cols = rows if cols is None else cols
        return cls(rows, cols, np.zeros((rows.npoints, cols.npoints), dtype=np.complex128))

    @classmethod
    def identity(cls, window):
        return cls(window, window, np.eye(window.npoints, dtype=np.complex128))

    @classmethod
    def unit(cls, rows, cols, s, t):
        """Matrix unit e_{s,t}."""
        out = cls.zeros(rows, cols)
        out.data[rows.index(s), cols.index(t)] = 1.0
        return out

    @property
    def shape(self):
        return self.data.shape

    def entry(self, s, t):
        return self.data[self.rows.index(s), self.cols.index(t)]

    def same_windows(self, other):
        return self.rows == other.rows and self.cols == other.cols

    def _check_windows(self, other):
        if not self.same_windows(other):
            raise ValueError("window mismatch between labeled matrices")

    def __add__(self, other):
        self._check_windows(other)
        return LabeledMatrix(self.rows, self.cols, self.data + other.data)

    def __sub__(self, other):
        self._check_windows(other)
        return LabeledMatrix(self.rows, self.cols, self.data - other.data)

    def __neg__(self):
        return LabeledMatrix(self.rows, self.cols, -self.data)

    def __mul__(self, scalar):
        return LabeledMatrix(self.rows, self.cols, self.data * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("inner windows do not match for the product")
        return LabeledMatrix(self.rows, other.cols, self.data @ other.data)

    def trace(self):
        if self.rows != self.cols:
            raise ValueError("trace needs matching row and column windows")
        return complex(np.trace(self.data))

    def max_abs(self):
        return float(np.max(np.abs(self.data))) if self.data.size else 0.0

    def __repr__(self):
        return f"LabeledMatrix(rows={self.rows.los}..{self.rows.his}, cols={self.cols.los}..{self.cols.his})"


def _values(A):
    if isinstance(A, LabeledMatrix):
        return A.data
    return np.asarray(A, dtype=np.complex128)


def _clip_singulars(sv):
    if sv.size == 0:
        return sv
    top = sv.max()
    if top > 0:
        sv = np.where(sv < SV_CLIP * top, 0.0, sv)
    return sv


# Even exponents up to this one are computed by matrix products: p = 2k takes
# about k products, and past p = 16 that costs more than one SVD.
EVEN_P_MAX = 16


def _even_half(p):
    """k with p = 2k when p is an even integer up to EVEN_P_MAX, else None."""
    half = float(p) / 2.0
    if half.is_integer() and 1 <= half <= EVEN_P_MAX // 2:
        return int(half)
    return None


def _gram(Y):
    """The smaller Gram matrix, Y* Y or Y Y*, batched over leading axes."""
    Yh = np.conj(np.swapaxes(Y, -1, -2))
    return Yh @ Y if Y.shape[-1] <= Y.shape[-2] else Y @ Yh


def _trace_dot(A, B):
    """Re tr(A B) for Hermitian B, batched over leading axes.

    B_ji = conj(B_ij), so tr(A B) = sum_ij A_ij conj(B_ij), whose real part
    is the dot product of the two float views: one contiguous pass over each
    operand, where reading B transposed would stride across it. Each matrix
    pair is one vector-vector product, however many the batch holds.
    """
    a = A.reshape(*A.shape[:-2], -1).view(np.float64)
    b = B.reshape(*B.shape[:-2], -1).view(np.float64)
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _trace_power(G, k):
    """tr(G^k) for Hermitian G, batched over leading axes, by matrix products.

    G^k is split as G^a G^b with a = k // 2 and b = k - a, both Hermitian,
    and the trace of the product is their ``_trace_dot``, so G^k itself is
    never formed.
    """
    if k == 1:
        return np.einsum("...ii->...", G).real
    half = G
    for _ in range(k // 2 - 1):
        half = half @ G
    other = half @ G if k % 2 else half
    return _trace_dot(half, other)


def _even_power_sum(Y, k):
    """||Y||_{2k}^{2k} = tr((Y* Y)^k), batched over leading axes."""
    if k == 1:
        return np.sum(Y.real**2 + Y.imag**2, axis=(-2, -1))
    return _trace_power(_gram(Y), k)


def schatten_norm(A, p):
    """Schatten p-norm; p = inf gives the operator norm.

    Even integer p = 2k up to EVEN_P_MAX is computed as tr((A* A)^k)^(1/p)
    by matrix products, every other p from the singular values. Exponents
    below 1 are computed as quasi-norms and flagged with a warning.
    """
    return _schatten_norm(A, p, matmul_even=True)


def _svd_schatten_norm(A, p):
    """schatten_norm from the singular values, for every p."""
    return _schatten_norm(A, p, matmul_even=False)


def _schatten_norm(A, p, matmul_even):
    data = _values(A)
    if data.size == 0:
        return 0.0
    if not np.all(np.isfinite(data)):
        raise ValueError("matrix has non-finite entries")
    p = float(p)
    if p <= 0:
        raise ValueError("p must be positive")
    k = _even_half(p) if matmul_even else None
    if k is not None:
        return float(_even_power_sum(data, k) ** (1.0 / p))
    sv = _clip_singulars(np.linalg.svd(data, compute_uv=False))
    if math.isinf(p):
        return float(sv[0]) if sv.size else 0.0
    if p < 1:
        warnings.warn("p < 1 yields a quasi-norm, not a norm", stacklevel=3)
    return float(np.sum(sv**p) ** (1.0 / p))


def cs_gap(a_seq, c_seq):
    """Smallest eigenvalue of the operator Cauchy-Schwarz defect.

    For finite sequences (a_n), (c_n) with common windows this is
    lambda_min( ||sum a_n* a_n||_inf * sum c_n* c_n  -  |sum a_n* c_n|^2 ),
    which is nonnegative up to rounding.
    """
    a_seq = list(a_seq)
    c_seq = list(c_seq)
    if len(a_seq) != len(c_seq) or not a_seq:
        raise ValueError("need equally long, nonempty sequences")
    a0, c0 = a_seq[0], c_seq[0]
    for a, c in zip(a_seq, c_seq):
        if not (a.same_windows(a0) and c.same_windows(c0)):
            raise ValueError("all sequence members must share windows")
    if a0.rows != c0.rows or a0.cols != c0.cols:
        raise ValueError("the two sequences must share windows")
    n = a0.cols.npoints
    cross = np.zeros((n, n), dtype=np.complex128)
    gram_a = np.zeros((n, n), dtype=np.complex128)
    gram_c = np.zeros((n, n), dtype=np.complex128)
    for a, c in zip(a_seq, c_seq):
        cross += a.data.conj().T @ c.data
        gram_a += a.data.conj().T @ a.data
        gram_c += c.data.conj().T @ c.data
    lhs = cross.conj().T @ cross
    bound = float(np.linalg.eigvalsh(0.5 * (gram_a + gram_a.conj().T))[-1])
    diff = bound * gram_c - lhs
    diff = 0.5 * (diff + diff.conj().T)
    return float(np.linalg.eigvalsh(diff)[0])


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform product grid on the d-torus with q nodes per coordinate."""

    d: int
    q: int

    def __post_init__(self):
        if self.d < 1 or self.q < 1:
            raise ValueError("grid needs d >= 1 and q >= 1")

    @property
    def size(self):
        return self.q**self.d

    def indices(self, lo=0, hi=None):
        """Integer coordinates of grid points lo..hi-1 in lexicographic order:
        shape (hi - lo, d)."""
        hi = self.size if hi is None else hi
        return np.stack(np.unravel_index(np.arange(lo, hi), (self.q,) * self.d), axis=1)

    def points(self):
        return np.exp(2j * np.pi * self.indices() / self.q)

    def run_points(self, values_per_point, values_per_run):
        """Grid points in a run of about ``values_per_run`` values: at least
        one, at most the whole grid."""
        return min(self.size, max(1, values_per_run // max(1, values_per_point)))

    def phases(self, freqs, lo=0, hi=None):
        """Array of z^n over grid points lo..hi-1: shape (hi - lo, len(freqs))."""
        freqs = np.asarray(freqs, dtype=np.int64).reshape(-1, self.d)
        return np.exp(2j * np.pi * (self.indices(lo, hi) @ freqs.T) / self.q)

    @classmethod
    def default_for(cls, f, p=None):
        """Grid adapted to a polynomial's bandwidth: q = factor*maxfreq + 1.

        The factor is p at an even integer p, where ||f(z)||_p^p =
        tr((f(z)* f(z))^(p/2)) is a trigonometric polynomial of degree at most
        p*maxfreq per axis, so the grid average is exact. Every other p, and
        p=None, takes factor 4.
        """
        even = p is not None and float(p) >= 2 and float(p) % 2 == 0
        return cls(f.d, (int(p) if even else 4) * max(1, f.max_freq()) + 1)


# Matrix values per run of grid points in the torus norms: 2^14 complex values
# (256 KB), so a run's values and Gram products stay in a core's L2 cache and
# a walk's few buffers cost few page faults to set up.
_GRID_VALUES = 1 << 14


def _gram_runs(gs, grid, sides):
    """Walk the members' grids together, in runs of about ``_GRID_VALUES``
    values per member, and yield each run's Gram sums: {side: array}, with
    sum_j g_j* g_j for "column" and sum_j g_j g_j* for "row", added in
    member order.

    The walks share one values buffer, advanced one member at a time, and
    every run reuses the buffers of the first, so a walk allocates nothing
    per run; each yielded array is overwritten by the next run. The adjoint
    buffer has the layout np.conj(np.swapaxes(Y, 1, 2)) would allocate, so
    the products make the same BLAS calls as on a fresh adjoint.
    """
    R, C = gs[0].rows.npoints, gs[0].cols.npoints
    chunk = grid.run_points(R * C, _GRID_VALUES)
    dims = {"column": C, "row": R}
    vals_buf = np.empty((chunk, R * C), dtype=np.complex128)
    adj = np.empty((chunk, R, C), dtype=np.complex128).swapaxes(1, 2)
    sums = {s: np.empty((chunk, dims[s], dims[s]), dtype=np.complex128) for s in sides}
    prods = {s: np.empty_like(a) for s, a in sums.items()} if len(gs) > 1 else {}
    walks = [g.grid_chunks(grid, _GRID_VALUES, out=vals_buf) for g in gs]
    for first in walks[0]:
        n = len(first)
        acc = {s: a[:n] for s, a in sums.items()}
        for j, walk in enumerate(walks):
            vals = first if j == 0 else next(walk)
            vals_h = np.conj(np.swapaxes(vals, 1, 2), out=adj[:n])
            for s, a in acc.items():
                # the first member's product lands in the sum itself
                prod = a if j == 0 else prods[s][:n]
                if s == "column":
                    np.matmul(vals_h, vals, out=prod)
                else:
                    np.matmul(vals, vals_h, out=prod)
                if j:
                    a += prod
        yield acc


def lp_sp_norm(f, p, grid=None):
    """Mixed L^p(torus; Schatten-p) norm of a matrix trig polynomial.

    Averages ||f(z)||_p^p over the grid and takes the p-th root; p = inf
    takes the max of operator norms over the grid. The default grid is
    ``QuadratureGrid.default_for(f, p)``, exact at even integer p. The grid
    is walked in runs of about ``_GRID_VALUES`` matrix values, and each run
    is reduced to its per-point traces (even p) or singular values as it is
    evaluated; the mean is taken once over all points, so the result does
    not depend on the run size.
    """
    p = float(p)
    if p < 1 and not math.isinf(p):
        raise ValueError("p >= 1 required")
    if grid is None:
        grid = QuadratureGrid.default_for(f, p)
    k = _even_half(p)
    if k is not None and k > 1:
        # the smaller Gram matrix, as _gram picks it
        side = "column" if f.cols.npoints <= f.rows.npoints else "row"
        power = [_trace_power(acc[side], k) for acc in _gram_runs([f], grid, (side,))]
        return float(np.mean(np.concatenate(power)) ** (1.0 / p))
    runs = f.grid_chunks(grid, _GRID_VALUES)
    if k == 1:
        power = np.concatenate([_even_power_sum(vals, 1) for vals in runs])
        return float(np.mean(power) ** 0.5)
    sv = _clip_singulars(np.concatenate(
        [np.linalg.svd(vals, compute_uv=False) for vals in runs]))
    if math.isinf(p):
        return float(sv.max(initial=0.0))
    return float(np.mean(np.sum(sv**p, axis=1)) ** (1.0 / p))


def square_function_norm(gs, p, grid=None, side="column"):
    """Norm of the square function of a finite family of polynomials.

    ``side`` selects sum g_j(z)* g_j(z) (column), sum g_j(z) g_j(z)* (row),
    or the max of both.  Requires 2 <= p < inf. The default grid is
    ``QuadratureGrid.default_for`` at the widest member's bandwidth. The
    members' grid walks advance together in runs of about ``_GRID_VALUES``
    matrix values per member; each run's Gram sums are reduced to per-point
    values and the mean is taken once over all points, so the result does
    not depend on the run size.
    """
    p = float(p)
    if p < 2 or math.isinf(p):
        raise ValueError("square functions are computed for 2 <= p < inf")
    if side not in ("column", "row", "max"):
        raise ValueError("side must be 'column', 'row', or 'max'")
    gs = [g for g in gs if g.support]
    if not gs:
        return 0.0
    g0 = gs[0]
    for g in gs:
        if g.d != g0.d or g.rows != g0.rows or g.cols != g0.cols:
            raise ValueError("family members must share dimension and windows")
    if grid is None:
        grid = QuadratureGrid.default_for(max(gs, key=lambda g: g.max_freq()), p)
    k = _even_half(p)

    def point_values(acc):
        if k is not None:
            return _trace_power(acc, k)
        acc = 0.5 * (acc + np.conj(np.swapaxes(acc, 1, 2)))
        w = np.clip(np.linalg.eigvalsh(acc), 0.0, None)
        return np.sum(w ** (p / 2.0), axis=1)

    # each member is evaluated once per run and feeds every Gram sum asked for
    sides = ("column", "row") if side == "max" else (side,)
    per_point = {s: [] for s in sides}
    for acc in _gram_runs(gs, grid, sides):
        for s, a in acc.items():
            per_point[s].append(point_values(a))
    return max(float(np.mean(np.concatenate(v)) ** (1.0 / p)) for v in per_point.values())
