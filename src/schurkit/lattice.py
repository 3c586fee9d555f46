"""Dyadic geometry of Z^d and mixed differences on the integer lattice.

Blocks are half-open in the sup norm throughout: E_0 = {0} and, for j >= 1,
E_j = { n in Z^d : 2**(j-1) <= |n|_inf < 2**j }.  These sets partition Z^d.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Box",
    "DyadicIndex",
    "aspoint",
    "dyadic_block_points",
    "fundamental_theorem_expand",
]


def aspoint(n, d=None):
    """Normalize a lattice point to a tuple of ints.

    Scalars are accepted as one-dimensional points.  If ``d`` is given the
    dimension is checked.
    """
    if np.isscalar(n):
        pt = (int(n),)
    else:
        pt = tuple(int(x) for x in n)
    if d is not None and len(pt) != d:
        raise ValueError(f"point {pt} has dimension {len(pt)}, expected {d}")
    return pt


@dataclass(frozen=True)
class Box:
    """Product of half-open integer intervals [lo_i, hi_i).

    Points are enumerated in lexicographic order; ``index`` and
    ``index_array`` give a point's flat position in that order.
    """

    los: tuple
    his: tuple

    def __post_init__(self):
        los = tuple(int(x) for x in self.los)
        his = tuple(int(x) for x in self.his)
        if len(los) != len(his):
            raise ValueError("lo and hi must have the same length")
        if not los:
            raise ValueError("a box needs at least one axis")
        if any(l > h for l, h in zip(los, his)):
            raise ValueError(f"empty axis interval in box {los}..{his}")
        object.__setattr__(self, "los", los)
        object.__setattr__(self, "his", his)

    @classmethod
    def interval(cls, lo, hi):
        """One-dimensional box [lo, hi)."""
        return cls((int(lo),), (int(hi),))

    @classmethod
    def cube(cls, lo, hi, d):
        return cls((int(lo),) * d, (int(hi),) * d)

    @classmethod
    def from_pairs(cls, pairs):
        pairs = list(pairs)
        return cls(tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))

    @property
    def d(self):
        return len(self.los)

    @property
    def sizes(self):
        return tuple(h - l for l, h in zip(self.los, self.his))

    @property
    def npoints(self):
        return int(math.prod(self.sizes))

    def __contains__(self, n):
        pt = aspoint(n, self.d)
        return all(l <= x < h for x, l, h in zip(pt, self.los, self.his))

    def points(self):
        return itertools.product(*(range(l, h) for l, h in zip(self.los, self.his)))

    def points_array(self):
        return _points_array_cached(self)

    def index(self, n):
        """Flat lexicographic position of a point; raises if outside."""
        pt = aspoint(n, self.d)
        if pt not in self:
            raise ValueError(f"point {pt} outside box {self.los}..{self.his}")
        idx = 0
        for x, l, s in zip(pt, self.los, self.sizes):
            idx = idx * s + (x - l)
        return idx

    def index_array(self, pts):
        """Vectorized ``index`` over an (m, d) int array.

        Returns ``(idx, valid)`` where invalid rows get index 0 and a False
        mask entry instead of raising.
        """
        pts = np.asarray(pts, dtype=np.int64).reshape(-1, self.d)
        los = np.asarray(self.los, dtype=np.int64)
        sizes = np.asarray(self.sizes, dtype=np.int64)
        offs = pts - los
        valid = np.all((offs >= 0) & (offs < sizes), axis=1)
        strides = np.ones(self.d, dtype=np.int64)
        for i in range(self.d - 2, -1, -1):
            strides[i] = strides[i + 1] * sizes[i + 1]
        idx = np.where(valid[:, None], offs, 0) @ strides
        return idx, valid

    def product(self, other):
        """Cartesian product box (dimensions concatenate)."""
        return Box(self.los + other.los, self.his + other.his)


@functools.lru_cache(maxsize=256)
def _points_array_cached(box):
    grids = np.meshgrid(
        *(np.arange(l, h, dtype=np.int64) for l, h in zip(box.los, box.his)),
        indexing="ij",
    )
    return np.stack([g.ravel() for g in grids], axis=1)


@dataclass(frozen=True)
class DyadicIndex:
    """Block index: level j >= 0 in dimension d."""

    j: int
    d: int

    def __post_init__(self):
        if self.j < 0:
            raise ValueError("dyadic level must be >= 0")
        if self.d < 1:
            raise ValueError("dimension must be >= 1")


def dyadic_block_points(j, d=None):
    """All points of E_j as an (m, d) int array, lexicographically ordered."""
    if isinstance(j, DyadicIndex):
        level, dim = j.j, j.d
    else:
        level, dim = int(j), d
        if dim is None:
            raise ValueError("dimension required when j is a plain level")
    if level == 0:
        return np.zeros((1, dim), dtype=np.int64)
    hull = Box.cube(-(2**level) + 1, 2**level, dim)
    pts = hull.points_array()
    sup = np.max(np.abs(pts), axis=1)
    return pts[sup >= 2 ** (level - 1)]


def _mixed_difference(V, alpha):
    """Mixed forward differences along the axis mask alpha of a value table V.

    The last len(alpha) axes of V run over consecutive lattice points; any
    axes before them (a batch of tables) are kept. Entry t of the result is
    the sum over beta <= alpha of (-1)^|alpha - beta| V[t + beta], the terms
    added in the order product() lists the beta. Only the axes in alpha
    shrink, by one, so the differences anchored where a coordinate outside
    alpha is pinned stay in the table.
    """
    betas = list(itertools.product(*[(0, 1) if bit else (0,) for bit in alpha]))
    sizes = V.shape[V.ndim - len(alpha):]

    def at(beta):
        return V[(Ellipsis,) + tuple(slice(b, b + n - bit)
                                     for b, n, bit in zip(beta, sizes, alpha))]

    if len(betas) == 1:
        return at(betas[0])
    # the first two terms differ in sign: one subtraction rounds as their sum
    if (sum(alpha) - sum(betas[0])) % 2:
        D = at(betas[1]) - at(betas[0])
    else:
        D = at(betas[0]) - at(betas[1])
    for beta in betas[2:]:
        if (sum(alpha) - sum(beta)) % 2:
            D -= at(beta)
        else:
            D += at(beta)
    return D


def fundamental_theorem_expand(M, s, t, n):
    """Reconstruct M(n) from mixed forward differences anchored at s.

    For s <= n < t coordinatewise, returns
    sum over masks alpha of sum over k_alpha in [s, n)_alpha of
    (forward difference of order alpha of M) at the point whose alpha
    coordinates are k_alpha and whose remaining coordinates are those of s.
    The value equals M(n); callers may use the returned expansion as a check.
    M is called once per point of the box [s, n], and the terms are added one
    at a time: masks in product() order, anchors in lexicographic order.
    """
    s = aspoint(s)
    n = aspoint(n, len(s))
    t = aspoint(t, len(s))
    if not all(a <= b < c for a, b, c in zip(s, n, t)):
        raise ValueError(f"need s <= n < t coordinatewise, got s={s} n={n} t={t}")
    box = Box(s, tuple(x + 1 for x in n))
    V = np.array([M(pt) for pt in box.points()]).reshape(box.sizes)
    total = 0
    for alpha in itertools.product((0, 1), repeat=len(s)):
        # the anchors: alpha coordinates free, the others at s
        D = _mixed_difference(V, alpha)[tuple(slice(None) if bit else 0 for bit in alpha)]
        for term in D.ravel().tolist():
            total += term
    return total
