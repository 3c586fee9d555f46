import math
import tracemalloc

import numpy as np
import pytest

from schurkit import (
    Box,
    DyadicIndex,
    LabeledMatrix,
    MatTrigPoly,
    QuadratureGrid,
    cs_gap,
    freq_project,
    lp_experiment,
    lp_sp_norm,
    pi_embed,
    schatten_norm,
    square_function_norm,
)
from schurkit.schatten import (
    EVEN_P_MAX,
    _even_power_sum,
    _svd_schatten_norm,
    _trace_power,
)


def _grid_values(f, grid):
    """f at every grid point, (G, R, C): its grid walk concatenated (each run
    is copied, since the walk reuses its buffer)."""
    return np.concatenate([vals.copy() for vals in f.grid_chunks(grid, 1 << 20)])


def _random(rows, cols, rng):
    shape = (rows.npoints, cols.npoints)
    return LabeledMatrix(rows, cols, rng.standard_normal(shape)
                         + 1j * rng.standard_normal(shape))


class TestLabeledMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LabeledMatrix(Box.interval(0, 2), Box.interval(0, 3), np.zeros((2, 2)))

    def test_unit_entry(self):
        # the entry labelled (s, t) sits at the boxes' flat positions of s and
        # t, so the embedding files it under the frequency s - t
        w = Box.interval(-1, 2)
        e = LabeledMatrix.zeros(w, w)
        e.data[w.index((0,)), w.index((1,))] = 1
        f = pi_embed(e)
        assert not f.coeff((1,)).data.any()
        assert np.array_equal(f.coeff((-1,)).data, e.data)
        assert e.data.sum() == 1 and e.data[1, 2] == 1

    def test_window_mismatch_rejected(self):
        A = LabeledMatrix.zeros(Box.interval(0, 2), Box.interval(0, 2))
        B = LabeledMatrix.zeros(Box.interval(0, 2), Box.interval(1, 3))
        assert A.same_windows(LabeledMatrix.zeros(Box.interval(0, 2), Box.interval(0, 2)))
        assert not A.same_windows(B) and not B.same_windows(A)
        with pytest.raises(ValueError):
            cs_gap([A], [B])
        f, g = MatTrigPoly(1, {(0,): A}), MatTrigPoly(1, {(0,): B})
        with pytest.raises(ValueError):
            f - g


class TestSchattenNorm:
    def test_rank_one_all_p(self):
        # a rank-one matrix has one singular value: every p-norm agrees
        w = Box.interval(0, 4)
        u = np.array([1.0, 2.0, -1.0, 0.5])
        v = np.array([3.0, 0.0, 4.0, 1.0])
        A = LabeledMatrix(w, w, np.outer(u, v))
        sv = np.linalg.norm(u) * np.linalg.norm(v)
        for p in (1, 1.5, 2, 3, math.inf):
            assert schatten_norm(A, p) == pytest.approx(sv, rel=1e-12)

    def test_diagonal_is_lp_of_entries(self):
        w = Box.interval(0, 3)
        diag = np.array([3.0, -4.0, 1.0])
        A = LabeledMatrix(w, w, np.diag(diag))
        for p in (1, 2, 4):
            assert schatten_norm(A, p) == pytest.approx(
                np.sum(np.abs(diag) ** p) ** (1 / p), rel=1e-14)
        assert schatten_norm(A, math.inf) == pytest.approx(4.0)

    def test_frobenius_agreement(self):
        rng = np.random.default_rng(7)
        A = _random(Box.interval(0, 6), Box.interval(0, 5), rng)
        assert schatten_norm(A, 2) == pytest.approx(
            np.linalg.norm(A.data, "fro"), rel=1e-13)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(8)
        w = Box.interval(0, 5)
        A = _random(w, w, rng)
        Q, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        B = LabeledMatrix(w, w, Q @ A.data)
        for p in (1.2, 2, 3.7, math.inf):
            assert schatten_norm(B, p) == pytest.approx(schatten_norm(A, p), rel=1e-11)

    def test_tiny_singular_values_clipped(self):
        # a numerically rank-one matrix must not leak noise into small p
        w = Box.interval(0, 3)
        u = np.array([1.0, 1.0, 1.0])
        A = LabeledMatrix(w, w, np.outer(u, u))
        assert schatten_norm(A, 1) == pytest.approx(3.0, abs=1e-12)

    def test_bad_inputs(self):
        w = Box.interval(0, 2)
        A = LabeledMatrix(w, w, np.array([[np.nan, 0], [0, 1]]))
        with pytest.raises(ValueError):
            schatten_norm(A, 2)
        with pytest.raises(ValueError):
            schatten_norm(LabeledMatrix(w, w, np.eye(w.npoints)), 0)

    def test_quasi_norm_warns(self):
        w = Box.interval(0, 2)
        with pytest.warns(UserWarning):
            schatten_norm(LabeledMatrix(w, w, np.eye(w.npoints)), 0.5)


class TestCsGap:
    def test_gap_nonnegative_randomized(self):
        rng = np.random.default_rng(100)
        for trial in range(200):
            nr = int(rng.integers(1, 7))
            nc = int(rng.integers(1, 7))
            count = int(rng.integers(1, 9))
            rbox, cbox = Box.interval(0, nr), Box.interval(0, nc)
            a = [_random(rbox, cbox, rng) for _ in range(count)]
            c = [_random(rbox, cbox, rng) for _ in range(count)]
            assert cs_gap(a, c) >= -1e-10

    def test_commuting_scalars_tight(self):
        # 1x1 case with matched sequences: equality holds, gap is 0
        w = Box.interval(0, 1)
        a = [LabeledMatrix(w, w, np.array([[x]])) for x in (1.0, 2.0, 2.0)]
        assert cs_gap(a, a) >= -1e-13

    def test_validation(self):
        w = Box.interval(0, 2)
        A = LabeledMatrix(w, w, np.eye(w.npoints))
        with pytest.raises(ValueError):
            cs_gap([A], [])
        with pytest.raises(ValueError):
            cs_gap([A], [LabeledMatrix(Box.interval(1, 3), Box.interval(1, 3), np.eye(2))])


class TestTorusNorms:
    def test_single_coefficient_reduces_to_schatten(self):
        rng = np.random.default_rng(5)
        w = Box.interval(0, 4)
        A = _random(w, w, rng)
        from schurkit import MatTrigPoly
        f = MatTrigPoly(1, {(3,): A})
        for p in (1.5, 2, 4, math.inf):
            assert lp_sp_norm(f, p) == pytest.approx(schatten_norm(A, p), rel=1e-12)

    def test_grid_must_resolve_bandwidth(self):
        # a too-coarse grid aliases; the default grid does not
        rng = np.random.default_rng(6)
        w = Box.interval(0, 3)
        A = pi_embed(_random(w, w, rng))
        dense = lp_sp_norm(A, 2)
        finer = lp_sp_norm(A, 2, grid=QuadratureGrid(1, 64))
        assert dense == pytest.approx(finer, rel=1e-12)

    def test_parseval_p2(self):
        rng = np.random.default_rng(9)
        w = Box.interval(-2, 3)
        A = _random(w, w, rng)
        f = pi_embed(A)
        coeff_sq = sum(np.sum(np.abs(C.data) ** 2) for _, C in f.items())
        assert lp_sp_norm(f, 2) == pytest.approx(math.sqrt(coeff_sq), rel=1e-12)

    def test_square_function_single_member_p2(self):
        rng = np.random.default_rng(10)
        w = Box.interval(0, 4)
        f = pi_embed(_random(w, w, rng))
        for side in ("column", "row", "max"):
            assert square_function_norm([f], 2, side=side) == pytest.approx(
                lp_sp_norm(f, 2), rel=1e-12)

    def test_square_function_rejects_bad_p(self):
        w = Box.interval(0, 2)
        f = pi_embed(LabeledMatrix(w, w, np.eye(w.npoints)))
        with pytest.raises(ValueError):
            square_function_norm([f], 1.5)
        with pytest.raises(ValueError):
            square_function_norm([f], math.inf)
        with pytest.raises(ValueError):
            square_function_norm([f], 4, side="diag")

    def test_square_function_pythagoras(self):
        # frequency-disjoint members at p=2: norms add in squares
        rng = np.random.default_rng(11)
        w = Box.interval(0, 3)
        A, B = _random(w, w, rng), _random(w, w, rng)
        from schurkit import MatTrigPoly
        f = MatTrigPoly(1, {(1,): A})
        g = MatTrigPoly(1, {(2,): B})
        got = square_function_norm([f, g], 2)
        want = math.sqrt(lp_sp_norm(f, 2) ** 2 + lp_sp_norm(g, 2) ** 2)
        assert got == pytest.approx(want, rel=1e-12)

    def test_empty_family_is_zero(self):
        from schurkit import MatTrigPoly
        z = MatTrigPoly.zero(1, Box.interval(0, 2), Box.interval(0, 2))
        assert square_function_norm([z], 4) == 0.0


def _svd_power_sums(stack, p):
    """sum of sv^p per matrix of a stack, from the singular values."""
    return np.sum(np.linalg.svd(stack, compute_uv=False) ** p, axis=-1)


class TestEvenPKernel:
    # the matrix-product path agrees with the singular-value path to rounding
    TOL = 1e-13

    def _cases(self):
        rng = np.random.default_rng(21)
        wide = _random(Box.interval(0, 3), Box.interval(0, 7), rng)
        tall = _random(Box.interval(0, 9), Box.interval(0, 4), rng)
        square = _random(Box.interval(0, 6), Box.interval(0, 6), rng)
        u = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        v = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
        deficient = LabeledMatrix(Box.interval(0, 8), Box.interval(0, 5), u @ v)
        return {"wide": wide, "tall": tall, "square": square,
                "rank_deficient": deficient}

    def test_matches_svd_path(self):
        for name, A in self._cases().items():
            for p in (2, 4, 6, 8):
                got, want = schatten_norm(A, p), _svd_schatten_norm(A, p)
                assert abs(got - want) <= self.TOL * want, (name, p, got, want)

    def test_zero_matrix(self):
        Z = LabeledMatrix.zeros(Box.interval(0, 3), Box.interval(0, 5))
        for p in (2, 4, 6, 8):
            assert schatten_norm(Z, p) == 0.0

    def test_batched_power_sums(self):
        rng = np.random.default_rng(22)
        for shape in ((5, 4, 7), (2, 3, 6, 2)):
            stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            stack[0] = 0.0
            for k in (1, 2, 3, 4):
                got = _even_power_sum(stack, k)
                want = _svd_power_sums(stack, 2 * k)
                assert got.shape == shape[:-2]
                assert np.all(np.abs(got - want) <= self.TOL * np.abs(want))

    def test_trace_power_of_hermitian_stack(self):
        rng = np.random.default_rng(23)
        B = rng.standard_normal((4, 5, 5)) + 1j * rng.standard_normal((4, 5, 5))
        G = B @ np.conj(np.swapaxes(B, 1, 2))
        w = np.linalg.eigvalsh(G)
        for k in (1, 2, 3, 4, 5):
            want = np.sum(w**k, axis=1)
            assert np.all(np.abs(_trace_power(G, k) - want) <= self.TOL * want)

    def test_odd_fractional_and_large_p_keep_singular_values(self):
        rng = np.random.default_rng(24)
        A = _random(Box.interval(0, 4), Box.interval(0, 4), rng)
        for p in (1, 3, 2.5, EVEN_P_MAX + 2, math.inf):
            assert schatten_norm(A, p) == _svd_schatten_norm(A, p)

    def test_lp_sp_norm_chunked_grid(self):
        # 100 x 100 values put 104 grid points in a 16 MB chunk; 250 points
        # make two full chunks and a partial one
        from schurkit import MatTrigPoly
        rng = np.random.default_rng(25)
        w = Box.interval(0, 100)
        f = MatTrigPoly(1, {(n,): _random(w, w, rng) for n in (-3, 0, 2, 7)})
        grid = QuadratureGrid(1, 250)
        sizes = [len(c) for c in f.grid_chunks(grid, 1 << 20)]
        assert sizes == [104, 104, 42]
        sv = np.linalg.svd(_grid_values(f, grid), compute_uv=False)
        for p in (2, 4, 6, 8):
            want = float(np.mean(np.sum(sv**p, axis=1)) ** (1.0 / p))
            got = lp_sp_norm(f, p, grid=grid)
            assert abs(got - want) <= self.TOL * want, (p, got, want)

    def test_square_function_even_p(self):
        # a one-member column square function is |f|, so its norm is f's
        rng = np.random.default_rng(26)
        w = Box.interval(0, 5)
        f = pi_embed(_random(w, w, rng))
        grid = QuadratureGrid.default_for(f)
        sv = np.linalg.svd(_grid_values(f, grid), compute_uv=False)
        for p in (2, 4, 6, 8):
            want = float(np.mean(np.sum(sv**p, axis=1)) ** (1.0 / p))
            got = square_function_norm([f], p, side="column")
            assert abs(got - want) <= self.TOL * want, (p, got, want)


def _two_pass_square_function(gs, p, grid, side):
    """Square-function norm with one grid evaluation per member and side,
    Gram sums by einsum and eigenvalues (the reference for the one-pass code)."""
    def one_side(which):
        acc = 0.0
        for g in gs:
            vals = _grid_values(g, grid)
            if which == "column":
                acc = acc + np.einsum("gri,grj->gij", vals.conj(), vals)
            else:
                acc = acc + np.einsum("gir,gjr->gij", vals, vals.conj())
        w = np.clip(np.linalg.eigvalsh(acc), 0.0, None)
        return float(np.mean(np.sum(w ** (p / 2.0), axis=1)) ** (1.0 / p))

    sides = ("column", "row") if side == "max" else (side,)
    return max(one_side(s) for s in sides)


class TestSquareFunctionOnePass:
    def _count_walks(self, monkeypatch):
        calls = []
        plain = MatTrigPoly.grid_chunks

        def counted(f, *args, **kwargs):
            calls.append(f)
            return plain(f, *args, **kwargs)

        monkeypatch.setattr(MatTrigPoly, "grid_chunks", counted)
        return calls

    def test_each_member_evaluated_once(self, monkeypatch):
        rng = np.random.default_rng(27)
        w, v = Box.interval(0, 8), Box.interval(-2, 3)
        f = MatTrigPoly(1, {(n,): _random(w, v, rng) for n in (-5, -1, 0, 2, 3, 6)})
        members = [freq_project(f, DyadicIndex(j, 1)) for j in range(4)]
        grid = QuadratureGrid.default_for(f)
        wants = {(p, side): _two_pass_square_function(members, p, grid, side)
                 for p in (2, 3, 4, 6) for side in ("column", "row", "max")}
        calls = self._count_walks(monkeypatch)
        for (p, side), want in wants.items():
            calls.clear()
            got = square_function_norm(members, p, grid=grid, side=side)
            assert len(calls) == len(members)
            assert abs(got - want) <= 1e-13 * want, (p, side, got, want)

    def test_lp_experiment_evaluation_count(self, monkeypatch):
        # the norm, four block projections and four cutoffs of an 8 x 8
        # image, and lp_sp_norm's own walk for norm_direct
        f = pi_embed(_random(Box.interval(0, 8), Box.interval(0, 8),
                             np.random.default_rng(28)))
        calls = self._count_walks(monkeypatch)
        lp_experiment(f, 4)
        assert len(calls) == 10


def _full_grid_square_function(gs, p, grid, side):
    """Every member's values on the whole grid at once, Gram sums in member
    order, one reduction: the formula the run-wise walk reproduces bit for bit."""
    vals = [_grid_values(g, grid) for g in gs]
    half = float(p) / 2.0

    def norm_of(acc):
        if half.is_integer():
            return float(np.mean(_trace_power(acc, int(half))) ** (1.0 / p))
        acc = 0.5 * (acc + np.conj(np.swapaxes(acc, 1, 2)))
        w = np.clip(np.linalg.eigvalsh(acc), 0.0, None)
        return float(np.mean(np.sum(w ** half, axis=1)) ** (1.0 / p))

    norms = []
    for which in (("column", "row") if side == "max" else (side,)):
        acc = np.zeros(1)
        for v in vals:
            v_h = np.conj(np.swapaxes(v, 1, 2))
            acc = acc + (v_h @ v if which == "column" else v @ v_h)
        norms.append(norm_of(acc))
    return max(norms)


def _tracemalloc_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGridRuns:
    # 4 x 3 values per grid point: runs of one point, of three points, and
    # the whole grid in one run
    RUN_SIZES = (1, 40, 1 << 40)
    SIDES = ("column", "row", "max")

    def _family(self):
        rng = np.random.default_rng(29)
        w, v = Box.interval(0, 4), Box.interval(-1, 2)
        f = MatTrigPoly(1, {(n,): _random(w, v, rng) for n in (-5, -1, 0, 2, 3, 6)})
        return f, [freq_project(f, DyadicIndex(j, 1)) for j in range(4)]

    def test_results_do_not_depend_on_run_size(self, monkeypatch):
        import schurkit.schatten as sch

        f, members = self._family()
        sq_cases = [(p, side) for p in (2, 3, 4, 6) for side in self.SIDES]

        def values():
            lp = [lp_sp_norm(f, p) for p in (1.5, 2, 3, 4, 6, math.inf)]
            sq = [square_function_norm(members, p, side=side) for p, side in sq_cases]
            return lp, sq

        results = []
        for size in self.RUN_SIZES:
            monkeypatch.setattr(sch, "_GRID_VALUES", size)
            results.append(values())
        assert all(r == results[0] for r in results[1:]), results
        for (p, side), got in zip(sq_cases, results[0][1]):
            want = _full_grid_square_function(
                members, p, QuadratureGrid.default_for(f, p), side)
            assert got == want, (p, side, got, want)

    def test_walk_memory_is_bounded_by_the_run(self):
        # the whole grid of values held at once took 49 MiB (n = 96) and
        # 96 MiB (n = 64, every member of lp_experiment)
        rng = np.random.default_rng(30)
        f96 = pi_embed(_random(Box.interval(-48, 48), Box.interval(-48, 48), rng))
        assert _tracemalloc_peak(lp_sp_norm, f96, 4) < 8 << 20
        f64 = pi_embed(_random(Box.interval(-32, 32), Box.interval(-32, 32), rng))
        assert _tracemalloc_peak(lp_experiment, f64, 4) < 32 << 20


class TestExactEvenGrid:
    # random 6 x 6 coefficients at frequencies -D..D, not a pi-image: the
    # factor-4 grid was off by about 1e-3 at p = 6 and 8
    TOL = 1e-12

    def test_default_grid_is_exact_at_even_p(self):
        w = Box.interval(0, 6)
        for D in (2, 5):
            rng = np.random.default_rng(31 + D)
            f = MatTrigPoly(1, {(n,): _random(w, w, rng) for n in range(-D, D + 1)})
            members = [freq_project(f, DyadicIndex(j, 1)) for j in range(4)]
            assert QuadratureGrid.default_for(f, 4) == QuadratureGrid.default_for(f)
            for p in (6, 8):
                assert QuadratureGrid.default_for(f, p).q == p * D + 1
                fine = QuadratureGrid(1, 8 * p * D + 1)
                want = lp_sp_norm(f, p, grid=fine)
                for got in (lp_sp_norm(f, p), lp_experiment(f, p).norm):
                    assert abs(got - want) <= self.TOL * want, (D, p, got, want)
                want = square_function_norm(members, p, grid=fine, side="max")
                got = square_function_norm(members, p, side="max")
                assert abs(got - want) <= self.TOL * want, (D, p, got, want)
