"""Entrywise multiplier application and windowed norm lower-bound search.

The search maximizes the ratio ||entrywise product||_p / ||A||_p over
matrices on a finite window. The matrix unit at the largest |symbol| entry
is scored without ascent, since it is a critical point of the ratio (and at
p = 2, or on a rank-one table, it attains the norm, so no other start runs).
Seeded random restarts and warm starts ascend along the singular-value
differential of the p-norm, with renormalization each step and
backtracking. At even p = 2k the Gram matrix Y* Y of the accepted Y = m X
feeds the next gradient, and a rejected first step is backtracked on the
trace polynomial of the line, tr((A + hB + h^2 C)^k), whose coefficients
are formed once, so a halving costs O(1) and forms no matrix. For p < 2
the search runs at the dual exponent q = p/(p-1): the multiplier is
self-adjoint under (A, B) -> tr(A B^T), so its S_p and S_q norms agree, and
at even q every ascent step takes matrix products instead of SVDs. The
duality map X -> conj(J(m X)), a half-step of Boyd's power method for matrix
p-norms, carries warm starts to q and the best witness back to p without
lowering the ratio, and the value is certified at p. A start or witness
with zero rows and columns (the unit start, zero-padded warm starts, block
embeddings) is ascended, mapped and certified on its nonzero block: zero
rows and columns carry no singular value, and no step fills them. Everything
is deterministic from (seed, restart index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .lattice import Box
from .schatten import (LabeledMatrix, _even_half, _gram, _svd_schatten_norm,
                       _trace_dot, _trace_power, schatten_norm)
from .symbols import DiscreteSymbol

__all__ = [
    "EstimateResult",
    "apply_schur",
    "norm_lower_bound",
    "cb_lower_bound",
    "growth_experiment",
]

DEFAULT_BUDGET = {"restarts": 10, "iterations": 200}
# flags["line_search"]: candidates scored from formed matrices, candidates
# scored from the Gram expansion, and line searches that found no rise
LINE_SEARCH_COUNTS = ("direct", "expansion", "failed")
# EstimateResult.verify: the largest drift of the recomputed witness ratio,
# relative to max(|value|, 1)
_VERIFY_TOL = 1e-12


@dataclass
class EstimateResult:
    """Lower-bound certificate: the witness achieves the reported value."""

    value: float
    witness: LabeledMatrix
    p: float
    window: Box
    restarts: int
    iterations: int
    seed: int
    flags: dict = field(default_factory=dict)

    def verify(self, m: DiscreteSymbol) -> float:
        """Recompute the witness ratio; raises if it drifts from ``value``
        by more than ``_VERIFY_TOL``.

        The table is rebuilt as the search built it, amplified when
        ``flags["k_amp"]`` is set (the block slot is the window's last
        axis). The ratio comes from singular values at every p, so the check
        does not rest on the matrix-product kernel the search uses for even p.
        """
        if self.flags.get("zero_symbol"):
            if self.value != 0.0:
                raise AssertionError("zero symbol must report value 0")
            return 0.0
        k = self.flags.get("k_amp", 1)
        window = self.window if k == 1 else Box(self.window.los[:-1], self.window.his[:-1])
        X = self.witness.data
        ratio = (_svd_schatten_norm(_amplified(m.values_on(window, window), k) * X, self.p)
                 / _svd_schatten_norm(X, self.p))
        scale = max(abs(self.value), 1.0)
        if abs(ratio - self.value) > _VERIFY_TOL * scale:
            raise AssertionError(
                f"witness ratio {ratio!r} drifted from reported value {self.value!r}"
            )
        return ratio


def apply_schur(m: DiscreteSymbol, A: LabeledMatrix) -> LabeledMatrix:
    """Entrywise product of the symbol table with the matrix."""
    table = m.values_on(A.rows, A.cols)
    return LabeledMatrix(A.rows, A.cols, table * A.data)


def _budget(budget) -> tuple[int, int]:
    merged = dict(DEFAULT_BUDGET)
    if budget:
        merged.update(budget)
    restarts, iterations = int(merged["restarts"]), int(merged["iterations"])
    if restarts < 1 or iterations < 0:
        raise ValueError("budget needs restarts >= 1 and iterations >= 0")
    return restarts, iterations


def _amplified(table: np.ndarray, k: int) -> np.ndarray:
    """The table held constant on k x k blocks."""
    return table if k == 1 else np.kron(table, np.ones((k, k)))


def _norm_gradient(Y, p, gram=None):
    """Differential of ||Y||_p^p at a square Y = U S V*: p U S^(p-1) V*.

    For even p = 2k this is p Y (Y* Y)^(k-1), formed by matrix products;
    ``gram`` is Y* Y when the caller already holds it.
    """
    k = _even_half(p)
    if k is None:
        U, sig, Vh = np.linalg.svd(Y)
        return (U * (p * sig ** (p - 1.0))[None, : len(sig)]) @ Vh
    out = p * Y
    if k > 1:
        G = Y.conj().T @ Y if gram is None else gram
        for _ in range(k - 1):
            out = out @ G
    return out


def _dual_exponent(p: float) -> float:
    """p/(p-1), exact for the simplest fraction that rounds to p (4/3 -> 4.0).

    Float division gives 4.000000000000001 at p = 4/3, which would miss the
    even-p matrix-product kernels.
    """
    r = Fraction(p).limit_denominator(1 << 20)
    if float(r) != p:
        r = Fraction(p)
    return float(r / (r - 1))


def _duality_map(table, X, p):
    """conj(J_p(m X)), J_p(Z) = U S^(p-1) V*, up to a positive factor.

    By Hoelder, its ratio at p/(p-1) is at least the ratio of X at p: the
    multiplier is self-adjoint under (A, B) -> tr(A B^T), which pairs m X
    with J_p(m X) to ||m X||_p ||J_p(m X)||_(p/(p-1)). Z is scaled to
    singular values at most 1 before the power, so a large p cannot overflow.
    """
    Z = table * X
    if not Z.any():
        return Z
    if _even_half(p) is not None:
        return np.conj(_norm_gradient(Z / np.linalg.norm(Z), p))
    U, sig, Vh = np.linalg.svd(Z)
    return np.conj((U * (sig / sig[0]) ** (p - 1.0)) @ Vh)


def _candidate(table, Xc, p, k):
    """(ratio, X, m X, Gram of m X) at Xc / ||Xc||_p; ratio -inf at Xc = 0.

    The Gram (Y* Y, None unless p = 2k) is what the ratio's trace came from.
    """
    nc = schatten_norm(Xc, p)
    if not nc > 0.0:
        return -math.inf, None, None, None
    Xc = Xc / nc
    Yc = table * Xc
    if k is None:
        return schatten_norm(Yc, p), Xc, Yc, None
    gram = _gram(Yc)
    return float(_trace_power(gram, k) ** (1.0 / p)), Xc, Yc, gram


def _poly_mul(A, B):
    """Coefficients of A(h) B(h) for matrix polynomials, lowest degree first.

    A square (B is A) of Hermitian coefficients takes one product per pair
    i <= j, since a_j a_i is the adjoint of a_i a_j.
    """
    out = [0.0] * (len(A) + len(B) - 1)
    for i, a in enumerate(A):
        for j, b in enumerate(B):
            if B is A and j < i:
                continue
            ab = a @ b
            if B is A and j > i:
                ab = ab + ab.conj().T
            out[i + j] = out[i + j] + ab
    return out


def _trace_poly(coeffs, k):
    """Coefficients, highest degree first, of tr(G(h)^k) for the Hermitian
    G(h) = sum_i h^i coeffs[i].

    As in ``_trace_power``, G^k is split as G^a G^b with a = k // 2 and
    b = k - a; the coefficients of both powers are Hermitian, and the trace
    of each pair of them is a ``_trace_dot``.
    """
    if k == 1:
        return [float(np.trace(c).real) for c in reversed(coeffs)]
    half = coeffs
    for _ in range(k // 2 - 1):
        half = _poly_mul(half, coeffs)
    other = _poly_mul(half, coeffs) if k % 2 else half
    out = [0.0] * (len(half) + len(other) - 1)
    for i, a in enumerate(half):
        for j, b in enumerate(other):
            out[i + j] += float(_trace_dot(a, b))
    return out[::-1]


def _gram_line(table, X, Y, gram, g, k):
    """The line X + h g through its Gram expansion, p = 2k.

    (A + hB)* (A + hB) = A* A + h (A* B + B* A) + h^2 B* B, for A = X, B = g
    and for A = Y, B = D = m g; ``gram`` is Y* Y, already held. Returns the
    trace polynomials tr(G(h)^k) of both Grams (``_trace_poly``) and the
    coefficient triple of the second.
    """
    def quadratic(A, AA, B):
        AB = A.conj().T @ B
        return AA, AB + AB.conj().T, B.conj().T @ B

    gx, gy = quadratic(X, _gram(X), g), quadratic(Y, gram, table * g)
    return _trace_poly(gx, k), _trace_poly(gy, k), gy


def _line_norms(line, h, p):
    """||X + h g||_p and ||m (X + h g)||_p from ``_gram_line``'s polynomials.

    Each is the polynomial's value at h by Horner's rule, clamped at 0 (the
    trace is nonnegative, its expansion can round below), to the power 1/p.
    """
    def power(coeffs):
        acc = 0.0
        for c in coeffs:
            acc = acc * h + c
        return max(acc, 0.0) ** (1.0 / p)

    return power(line[0]), power(line[1])


def _ascend(table, X0, p, iterations):
    """Monotone projective ascent from one start; returns (value, X, steps, counts).

    Each step moves X (||X||_p = 1) along g = conj(m) * grad ||m X||_p^p to
    X + h g, renormalized, with h = 1/2, 1/4, ... down to 1e-13 until the
    ratio rises; the ascent ends when no h does or the gain is below 1e-9.
    The h = 1/2 candidate is always formed and scored. At even p = 2k, when
    it is rejected, the other halvings are scored from ``_gram_line``'s
    trace polynomials, and only the accepted candidate is formed, with its
    Gram of m X assembled from the coefficient triple; that Gram feeds the
    next gradient. Other p form and score every candidate.
    ``counts`` holds the LINE_SEARCH_COUNTS of this ascent.
    """
    counts = dict.fromkeys(LINE_SEARCH_COUNTS, 0)
    nrm = schatten_norm(X0, p)
    if nrm == 0.0:
        return 0.0, X0, 0, counts
    X = X0 / nrm
    Y = table * X
    val = schatten_norm(Y, p)
    k = _even_half(p)
    gram = None  # Y* Y at even p, once a step has formed it
    used = 0
    for _ in range(iterations):
        if k is not None and gram is None:
            gram = _gram(Y)
        grad = np.conj(table) * _norm_gradient(Y, p, gram)
        step = 0.5
        vc, Xc, Yc, gc = _candidate(table, X + step * grad, p, k)
        counts["direct"] += 1
        line = None if vc > val or k is None else _gram_line(table, X, Y, gram, grad, k)
        while not vc > val:
            step *= 0.5
            if step <= 1e-13:
                break
            if line is None:
                vc, Xc, Yc, gc = _candidate(table, X + step * grad, p, k)
                counts["direct"] += 1
            else:
                nx, ny = _line_norms(line, step, p)
                counts["expansion"] += 1
                vc = ny / nx if nx > 0.0 else -math.inf
                if vc > val:
                    c0, c1, c2 = line[2]
                    Xc = (X + step * grad) / nx
                    Yc, gc = table * Xc, (c0 + step * c1 + (step * step) * c2) / (nx * nx)
        if not vc > val:
            counts["failed"] += 1
            break
        gain = (vc - val) / max(val, 1e-300)
        val, X, Y, gram = vc, Xc, Yc, gc
        used += 1
        if gain < 1e-9:
            break
    return val, X, used, counts


def _pivot(table):
    """(i, j) of the earliest largest |m| entry."""
    return np.unravel_index(int(np.argmax(np.abs(table))), table.shape)


def _unit_start(table):
    X = np.zeros_like(table)
    X[_pivot(table)] = 1.0
    return X


def _is_rank_one(table):
    """Whether m - m[:, j] m[i, :] / m[i, j] vanishes to 1e-12 |m[i, j]| at
    the pivot (i, j).

    A rank-one m = u v^T acts as A -> D_u A D_v, so its norm is sup|m| at
    every p (Bennett 1977), which the unit start attains. Factoring the
    residual R through the identity bounds ||M_R|| by sqrt(n) max|R|, so
    the starts this skips could raise the bound by at most 1e-12 sqrt(n)
    relative, 1.6e-11 at n = 256, well under the ascent's own 1e-9 stop.
    """
    i, j = _pivot(table)
    pivot = table[i, j]
    residual = table - np.outer(table[:, j], table[i, :] / pivot)
    return bool(np.abs(residual).max() <= 1e-12 * abs(pivot))


def _block(X):
    """np.ix_ index of a square block of X holding its nonzero rows and
    columns, or None when X (square) has no zero row or no zero column.

    Zero rows and columns carry no singular value, so the ratio, the duality
    map and the ascent (whose direction, p Y (Y* Y)^(k-1) or U S^(p-1) V*,
    vanishes on them) are those of the block, scattered back into zeros.
    The kernels take square matrices, so the shorter side is padded with its
    first zero lines.
    """
    live = X != 0
    rows, cols = live.any(axis=1), live.any(axis=0)
    n = max(rows.sum(), cols.sum())
    if n == len(rows):
        return None
    for lines in (rows, cols):
        lines[np.flatnonzero(~lines)[: n - lines.sum()]] = True
    return np.ix_(np.flatnonzero(rows), np.flatnonzero(cols))


def _restrict(table, X):
    """(block, table, X) on X's ``_block``; the full matrices when it is None."""
    b = _block(X)
    return (b, table, X) if b is None else (b, table[b], X[b])


def _scatter(Xb, b, shape):
    """The block Xb placed into zeros of ``shape`` (Xb itself when b is None)."""
    if b is None:
        return Xb
    X = np.zeros(shape, dtype=np.complex128)
    X[b] = Xb
    return X


def _block_duality_map(table, X, p):
    """``_duality_map`` on X's block: m X, and so the map, vanish off it."""
    b, tb, Xb = _restrict(table, X)
    return _scatter(_duality_map(tb, Xb, p), b, X.shape)


def _random_start(shape, seed, r):
    rng = np.random.default_rng([int(seed), int(r)])
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def _search(table, p, restarts, iterations, seed, extra_starts):
    """The best witness over all starts, the ascent steps and line-search counts.

    Each start ascends on its ``_block``; the best is scattered back.
    """
    # The unit start is a critical point of the ratio: score it, never
    # ascend it. At p = 2 it attains the norm, sup|m|, so it runs alone.
    starts = [(_unit_start(table), 0)]
    if p != 2.0:
        starts += [(_random_start(table.shape, seed, r), iterations)
                   for r in range(1, restarts)]
        starts += [(np.asarray(X, dtype=np.complex128), iterations)
                   for X in extra_starts]
    best_val, best, total = -math.inf, None, 0
    counts = dict.fromkeys(LINE_SEARCH_COUNTS, 0)
    for X0, steps in starts:
        b, tb, Xb = _restrict(table, X0)
        val, X, used, line_search = _ascend(tb, Xb, p, steps)
        total += used
        for key, n in line_search.items():
            counts[key] += n
        if val > best_val:
            best_val, best = val, (X, b)
    return _scatter(*best, table.shape), total, counts


def _certify(table, window, p, restarts, iterations, seed, extra_starts,
             flags) -> EstimateResult:
    """Search the table on window x window and certify the best witness.

    A table with no nonzero entry gives the value 0, flagged ``zero_symbol``.
    A rank-one table (``_is_rank_one``) runs the unit start alone, flagged
    ``rank_one``: it attains the norm. Otherwise the value is recomputed
    from the witness the search kept. For p < 2 the search runs at
    q = p/(p-1): the extra starts go in through the duality map at p and the
    best witness comes out through the map at q; both maps, like the value,
    are computed on the witness's ``_block``. ``flags["line_search"]`` sums
    the searches' LINE_SEARCH_COUNTS.
    """
    if not np.abs(table).any():
        return EstimateResult(
            value=0.0, witness=LabeledMatrix.zeros(window, window), p=p,
            window=window, restarts=restarts, iterations=0, seed=seed,
            flags={"zero_symbol": True, **flags,
                   "line_search": dict.fromkeys(LINE_SEARCH_COUNTS, 0)},
        )
    starts = restarts
    if _is_rank_one(table):
        starts, extra_starts, flags = 1, (), {**flags, "rank_one": True}
    if p < 2.0:
        q = _dual_exponent(p)
        extra_starts = [_block_duality_map(table, X, p) for X in extra_starts]
        X, used, counts = _search(table, q, starts, iterations, seed, extra_starts)
        X = _block_duality_map(table, X, q)
        flags = {**flags, "search_p": q}
    else:
        X, used, counts = _search(table, p, starts, iterations, seed, extra_starts)
    _, tb, Xb = _restrict(table, X)
    value = schatten_norm(tb * Xb, p) / schatten_norm(Xb, p)
    return EstimateResult(
        value=float(value), witness=LabeledMatrix(window, window, X), p=p,
        window=window, restarts=restarts, iterations=used, seed=seed,
        flags={**flags, "line_search": counts},
    )


def norm_lower_bound(m: DiscreteSymbol, window: Box, p, budget=None,
                     seed: int = 0, _extra_starts=(), _table=None) -> EstimateResult:
    """Best found ratio ||entrywise product||_p / ||A||_p on a square window.

    Start #0 is the matrix unit at the largest |symbol| entry. It is a
    critical point of the ratio, so it is scored without ascent steps, and
    it already attains the p=2 optimum, so at p = 2 it is the only start.
    It attains the norm at every p on a rank-one table, which it then also
    searches alone, flagged ``flags["rank_one"]``.
    Further starts are seeded complex Gaussians, ascended within the step
    budget; ``iterations`` counts only their steps. The reduction over
    restarts keeps the earliest maximizer, so results are reproducible
    bit-for-bit for a fixed seed and budget. For 1 < p < 2 all of this runs
    at q = p/(p-1), recorded as ``flags["search_p"]``, and ``iterations``
    counts steps taken at q; the best q-witness is mapped back to p by the
    duality map, which never lowers the ratio, and the value is computed at
    p. ``flags["line_search"]`` counts the candidates the line searches
    scored from formed matrices and from the Gram expansion, and the line
    searches that found no rise. ``_table`` is m on window x window when the
    caller has already built it.
    """
    pf = float(p)
    if not (1.0 < pf < math.inf):
        raise ValueError("p must lie in the open interval (1, inf)")
    restarts, iterations = _budget(budget)
    if _table is None:
        _table = m.values_on(window, window)
    return _certify(_table, window, pf, restarts, iterations, seed, _extra_starts, {})


def cb_lower_bound(m: DiscreteSymbol, window: Box, p, k: int, budget=None,
                   seed: int = 0) -> EstimateResult:
    """Lower bound for the k-fold amplified multiplier.

    The symbol is held constant on k x k blocks (index = window point x
    block slot), so k = 1 reproduces norm_lower_bound exactly, and the true
    amplified norm is nondecreasing in k. For k > 1, ``flags["line_search"]``
    also counts the unamplified search that supplies the embedded start.
    """
    if int(k) < 1:
        raise ValueError("amplification k must be >= 1")
    k = int(k)
    table = m.values_on(window, window)
    base = norm_lower_bound(m, window, p, budget=budget, seed=seed, _table=table)
    if k == 1:
        return base
    # The unamplified witness, placed in one block slot, achieves exactly the
    # unamplified ratio, so the amplified estimate never falls below it.
    slot = np.zeros((k, k))
    slot[0, 0] = 1.0
    restarts, iterations = _budget(budget)
    res = _certify(_amplified(table, k), window.product(Box.interval(0, k)),
                   base.p, restarts, iterations, seed,
                   (np.kron(base.witness.data, slot),), {"k_amp": k})
    # the line-search counts cover both searches; iterations only this one
    for key, n in base.flags["line_search"].items():
        res.flags["line_search"][key] += n
    return res


def _estimate_row(m: DiscreteSymbol, label: str, p, N: int, res: EstimateResult,
                  iterations_budget: int) -> dict:
    """One row of the estimate and growth tables for the window [-N, N)^d.

    ``p`` is stored as given; ``reference`` is (p^2/(p-1))^(d+2) at res.p.
    The symbol's name falls back to ``label``.
    """
    reference = (res.p * res.p / (res.p - 1.0)) ** (m.d + 2)
    return {"symbol": getattr(m, "name", None) or label, "d": m.d, "p": p, "N": N,
            "k_amp": res.flags.get("k_amp", 1), "estimate": res.value,
            "reference": reference, "ratio": res.value / reference,
            "restarts": res.restarts, "iterations_budget": iterations_budget,
            "iterations_used": res.iterations, "seed": res.seed}


def growth_experiment(m: DiscreteSymbol, p_list, N_list, budget=None,
                      seed: int = 0) -> list[dict]:
    """Lower bounds across window sizes against the reference (p^2/(p-1))^(d+2).

    For each p the windows [-N, N)^d are processed in increasing order; the
    previous witness, zero-padded into the larger window, joins the start
    list, which makes the estimates nondecreasing in N by construction.
    Returns one row dict per (p, N); ``iterations_budget`` is
    the per-start step budget and ``iterations_used`` the ascent steps the
    window's search took over all its starts.
    """
    d = m.d
    rows = []
    _, iterations = _budget(budget)
    for p in p_list:
        prev = None  # (window, data)
        for N in sorted(int(N) for N in N_list):
            window = Box.cube(-N, N, d)
            extra = []
            if prev is not None:
                prev_window, prev_data = prev
                idx, valid = window.index_array(prev_window.points_array())
                if not valid.all():
                    raise ValueError("window list must be nested for warm starts")
                big = np.zeros((window.npoints, window.npoints), dtype=np.complex128)
                big[np.ix_(idx, idx)] = prev_data
                extra.append(big)
            res = norm_lower_bound(m, window, p, budget=budget, seed=seed,
                                   _extra_starts=extra)
            prev = (window, res.witness.data)
            rows.append(_estimate_row(m, "symbol", p, N, res, iterations))
    return rows
