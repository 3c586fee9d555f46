"""Entrywise multiplier application and windowed norm lower-bound search.

The search maximizes the ratio ||entrywise product||_p / ||A||_p over
matrices on a finite window. The matrix unit at the largest |symbol| entry
is scored without ascent, since it is a critical point of the ratio (and at
p = 2 it attains the norm, so no other start runs). Seeded random restarts
and warm starts ascend along the singular-value differential of the
p-norm, with renormalization each step and backtracking. At even p = 2k the
Gram matrix Y* Y of the accepted Y = m X feeds the next gradient, and a
rejected first step is backtracked on the Gram expansion along the line,
tr((A + hB + h^2 C)^k), so a halving forms no candidate matrix. For p < 2
the search runs at the dual exponent q = p/(p-1): the multiplier is
self-adjoint under (A, B) -> tr(A B^T), so its S_p and S_q norms agree, and
at even q every ascent step takes matrix products instead of SVDs. The
duality map X -> conj(J(m X)), a half-step of Boyd's power method for matrix
p-norms, carries warm starts to q and the best witness back to p without
lowering the ratio, and the value is certified at p. Everything is
deterministic from (seed, restart index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .lattice import Box
from .schatten import (LabeledMatrix, _even_half, _gram, _svd_schatten_norm,
                       _trace_power, schatten_norm)
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

    def verify(self, m: DiscreteSymbol, tol: float = 1e-12) -> float:
        """Recompute the witness ratio; raises if it drifts from ``value``.

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
        if abs(ratio - self.value) > tol * scale:
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


def _gram_line(table, X, Y, gram, g):
    """Gram matrices of X + h g and of Y + h D, D = m g, as quadratics in h.

    (A + hB)* (A + hB) = A* A + h (A* B + B* A) + h^2 B* B. Returns the
    coefficient triples of both; ``gram`` is Y* Y, already held.
    """
    def quadratic(A, AA, B):
        AB = A.conj().T @ B
        return AA, AB + AB.conj().T, B.conj().T @ B

    return quadratic(X, _gram(X), g), quadratic(Y, gram, table * g)


def _line_norms(line, h, k):
    """||X + h g||_p, ||m (X + h g)||_p and the Gram of the second, p = 2k.

    Each is tr(G^k)^(1/p) of a Gram from ``_gram_line``: O(n^2) at p = 4 and
    one matrix product at p = 6 or 8.
    """
    gx, gy = (c0 + h * c1 + (h * h) * c2 for c0, c1, c2 in line)
    p = 2.0 * k
    return (float(_trace_power(gx, k) ** (1.0 / p)),
            float(_trace_power(gy, k) ** (1.0 / p)), gy)


def _ascend(table, X0, p, iterations):
    """Monotone projective ascent from one start; returns (value, X, steps, counts).

    Each step moves X (||X||_p = 1) along g = conj(m) * grad ||m X||_p^p to
    X + h g, renormalized, with h = 1/2, 1/4, ... down to 1e-13 until the
    ratio rises; the ascent ends when no h does or the gain is below 1e-9.
    The h = 1/2 candidate is always formed and scored. At even p = 2k, when
    it is rejected, the other halvings are scored from ``_gram_line``'s
    expansion, and only the accepted candidate is formed; its Gram of m X
    feeds the next gradient. Other p form and score every candidate.
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
        line = None if vc > val or k is None else _gram_line(table, X, Y, gram, grad)
        while not vc > val:
            step *= 0.5
            if step <= 1e-13:
                break
            if line is None:
                vc, Xc, Yc, gc = _candidate(table, X + step * grad, p, k)
                counts["direct"] += 1
            else:
                nx, ny, gy = _line_norms(line, step, k)
                counts["expansion"] += 1
                vc = ny / nx if nx > 0.0 else -math.inf
                if vc > val:
                    Xc = (X + step * grad) / nx
                    Yc, gc = table * Xc, gy / (nx * nx)
        if not vc > val:
            counts["failed"] += 1
            break
        gain = (vc - val) / max(val, 1e-300)
        val, X, Y, gram = vc, Xc, Yc, gc
        used += 1
        if gain < 1e-9:
            break
    return val, X, used, counts


def _unit_start(table):
    i, j = np.unravel_index(int(np.argmax(np.abs(table))), table.shape)
    X = np.zeros_like(table)
    X[i, j] = 1.0
    return X


def _random_start(shape, seed, r):
    rng = np.random.default_rng([int(seed), int(r)])
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def _search(table, p, restarts, iterations, seed, extra_starts):
    """The best witness over all starts, the ascent steps and line-search counts."""
    # The unit start is a critical point of the ratio: score it, never
    # ascend it. At p = 2 it attains the norm, sup|m|, so it runs alone.
    starts = [(_unit_start(table), 0)]
    if p != 2.0:
        starts += [(_random_start(table.shape, seed, r), iterations)
                   for r in range(1, restarts)]
        starts += [(np.asarray(X, dtype=np.complex128), iterations)
                   for X in extra_starts]
    best_val, best_X, total = -math.inf, None, 0
    counts = dict.fromkeys(LINE_SEARCH_COUNTS, 0)
    for X0, steps in starts:
        val, X, used, line_search = _ascend(table, X0, p, steps)
        total += used
        for key, n in line_search.items():
            counts[key] += n
        if val > best_val:
            best_val, best_X = val, X
    return best_X, total, counts


def _certify(table, window, p, restarts, iterations, seed, extra_starts,
             flags) -> EstimateResult:
    """Search the table on window x window and certify the best witness.

    A table with no nonzero entry gives the value 0, flagged ``zero_symbol``;
    otherwise the value is recomputed from the witness the search kept. For
    p < 2 the search runs at q = p/(p-1): the extra starts go in through the
    duality map at p and the best witness comes out through the map at q.
    ``flags["line_search"]`` sums the searches' LINE_SEARCH_COUNTS.
    """
    if not np.abs(table).any():
        return EstimateResult(
            value=0.0, witness=LabeledMatrix.zeros(window, window), p=p,
            window=window, restarts=restarts, iterations=0, seed=seed,
            flags={"zero_symbol": True, **flags,
                   "line_search": dict.fromkeys(LINE_SEARCH_COUNTS, 0)},
        )
    if p < 2.0:
        q = _dual_exponent(p)
        extra_starts = [_duality_map(table, X, p) for X in extra_starts]
        X, used, counts = _search(table, q, restarts, iterations, seed, extra_starts)
        X = _duality_map(table, X, q)
        flags = {**flags, "search_p": q}
    else:
        X, used, counts = _search(table, p, restarts, iterations, seed, extra_starts)
    value = schatten_norm(table * X, p) / schatten_norm(X, p)
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
                      seed: int = 0, warm_start: bool = True) -> list[dict]:
    """Lower bounds across window sizes against the reference (p^2/(p-1))^(d+2).

    For each p the windows [-N, N)^d are processed in increasing order; with
    ``warm_start`` the previous witness, zero-padded into the larger window,
    joins the start list, which makes the estimates nondecreasing in N by
    construction. Returns one row dict per (p, N); ``iterations_budget`` is
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
            if warm_start and prev is not None:
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
