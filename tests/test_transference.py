"""Matrix embedding, multiplier transfer, cutoffs, and block decompositions."""

import math
import tracemalloc

import numpy as np
import pytest

from schurkit import (
    Box,
    DyadicIndex,
    LabeledMatrix,
    MatTrigPoly,
    apply_fourier_multiplier,
    apply_schur,
    catalog,
    cutoff_profile,
    dyadic_block_points,
    freq_project,
    is_pi_image,
    lp_experiment,
    lp_sp_norm,
    max_coeff_diff,
    pi_embed,
    schatten_norm,
    smooth_cutoff,
    summation_by_parts_1d,
    summation_by_parts_2d,
)
from schurkit.schatten import QuadratureGrid
from schurkit.transference import _cutoff_factor, _diagonals, _sum_polys, _times


def _grid_values(f, grid):
    """f at every grid point, (G, R, C): its grid walk concatenated (each run
    is copied, since the walk reuses its buffer)."""
    return np.concatenate([vals.copy() for vals in f.grid_chunks(grid, 1 << 20)])


def _random(window, rng):
    n = window.npoints
    return LabeledMatrix(window, window,
                         rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def _random_symbol(d, rng):
    def fn(s, t, key=rng.integers(1 << 30)):
        h = np.sum(s * 37 + t * 101, axis=1) + int(key)
        phase = np.exp(2j * np.pi * np.sin(h * 0.731))
        return np.cos(h * 0.173) * phase

    from schurkit import DiscreteSymbol
    return DiscreteSymbol.callback(fn, d=d)


class TestMatTrigPoly:
    def test_coeff_lookup_and_default(self):
        w = Box.interval(0, 2)
        A = LabeledMatrix.identity(w)
        f = MatTrigPoly(1, {(2,): A})
        assert np.array_equal(f.coeff((2,)).data, A.data)
        assert f.coeff((5,)).max_abs() == 0.0

    def test_add_and_scalar(self):
        w = Box.interval(0, 2)
        A = LabeledMatrix.identity(w)
        f = MatTrigPoly(1, {(0,): A, (1,): A})
        g = 2.0 * f - f
        assert max_coeff_diff(g, f) == 0.0

    def test_adjoint_flips_frequencies(self):
        rng = np.random.default_rng(1)
        w = Box.interval(0, 3)
        A = _random(w, rng)
        # pi(A*) is pi(A)*: its coefficient at -n is the one at n, adjoint
        f = pi_embed(A)
        g = pi_embed(LabeledMatrix(w, w, A.data.conj().T))
        for n, C in f.items():
            neg = tuple(-x for x in n)
            assert np.array_equal(g.coeff(neg).data, C.data.conj().T)

    def test_max_freq(self):
        w = Box.interval(0, 2)
        f = MatTrigPoly(1, {(-5,): LabeledMatrix.identity(w)})
        assert f.max_freq() == 5
        assert MatTrigPoly.zero(1, w, w).max_freq() == 0

    def test_window_consistency_enforced(self):
        with pytest.raises(ValueError):
            MatTrigPoly(1, {
                (0,): LabeledMatrix.identity(Box.interval(0, 2)),
                (1,): LabeledMatrix.identity(Box.interval(0, 3)),
            })


# Reference storage for the property tests: a dict from frequency tuple to a
# dense R x C array, with every operation written coefficient by coefficient.


def _ref_random(d, rows, cols, rng, count):
    hull = Box.cube(-5, 6, d).points_array()
    pick = rng.choice(len(hull), size=min(count, len(hull)), replace=False)
    shape = (rows.npoints, cols.npoints)
    ref = {}
    for n in hull[pick]:
        data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        data[rng.random(shape) < 0.2] = 0.0
        ref[tuple(int(v) for v in n)] = data
    poly = MatTrigPoly(d, {n: LabeledMatrix(rows, cols, a) for n, a in ref.items()},
                       rows=rows, cols=cols)
    return ref, poly


def _ref_add(a, b):
    out = dict(a)
    for n, B in b.items():
        out[n] = out[n] + B if n in out else B
    return out


def _ref_in(region, n):
    if isinstance(region, Box):
        return n in region
    if isinstance(region, DyadicIndex):
        top = max(abs(v) for v in n)
        return top == 0 if region.j == 0 else 2 ** (region.j - 1) <= top < 2**region.j
    if isinstance(region, tuple) and all(isinstance(v, int) for v in region):
        return region[0] < n[0] < region[1]
    return any(_ref_in(r, n) for r in region)


def _ref_multiply(m, ref, rows, cols, side):
    out = {}
    for n, A in ref.items():
        off = np.asarray(n)[None, :]
        if side == "left":
            pts = rows.points_array()
            out[n] = m.eval_pairs(pts, pts - off)[:, None] * A
        else:
            pts = cols.points_array()
            out[n] = A * m.eval_pairs(pts + off, pts)[None, :]
    return out


def _assert_matches(poly, ref):
    assert poly.support == sorted(ref)
    got = list(poly.items())
    assert [n for n, _ in got] == sorted(ref)
    for n, C in got:
        assert np.array_equal(C.data, ref[n]), n
        assert np.array_equal(poly.coeff(n).data, ref[n]), n


_SHAPES = [
    (1, Box.interval(0, 3), Box.interval(-1, 4)),
    (2, Box.cube(0, 2, 2), Box((0, -1), (2, 2))),
]


class TestEntryStorage:
    """The entry-list storage against the dict-of-dense reference above."""

    @pytest.mark.parametrize("d,rows,cols", _SHAPES)
    def test_arithmetic(self, d, rows, cols):
        rng = np.random.default_rng(60 + d)
        for trial in range(5):
            ra, fa = _ref_random(d, rows, cols, rng, 6)
            rb, fb = _ref_random(d, rows, cols, rng, 6)
            _assert_matches(fa, ra)
            _assert_matches(fa + fb, _ref_add(ra, rb))
            _assert_matches(fa - fb, _ref_add(ra, {n: -B for n, B in rb.items()}))
            lam = complex(rng.standard_normal(), rng.standard_normal())
            _assert_matches(lam * fa, {n: A * lam for n, A in ra.items()})
            diff = _ref_add(ra, {n: -B for n, B in rb.items()})
            want = max(float(np.abs(A).max()) for A in diff.values())
            assert max_coeff_diff(fa, fb) == want
            assert fa.max_abs() == max(float(np.abs(A).max()) for A in ra.values())
            missing = next(tuple(int(v) for v in n) for n in Box.cube(-7, 8, d).points()
                           if tuple(n) not in ra)
            assert np.array_equal(fa.coeff(missing).data, np.zeros((rows.npoints, cols.npoints)))

    @pytest.mark.parametrize("d,rows,cols", _SHAPES)
    def test_projections_and_cutoff(self, d, rows, cols):
        rng = np.random.default_rng(62 + d)
        ref, f = _ref_random(d, rows, cols, rng, 30)
        regions = [Box.cube(-2, 3, d), DyadicIndex(0, d), DyadicIndex(2, d),
                   [Box.cube(-4, 0, d), Box.cube(1, 3, d)]]
        if d == 1:
            regions.append((-3, 2))
        for region in regions:
            want = {n: A for n, A in ref.items() if _ref_in(region, n)}
            _assert_matches(freq_project(f, region), want)
        for j in range(0, 5):
            want = {}
            for n, A in ref.items():
                w = _cutoff_factor(n, j, d)
                if w != 0.0:
                    want[n] = w * A
            _assert_matches(smooth_cutoff(f, j), want)

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("d,rows,cols", _SHAPES)
    def test_multiplier_sides(self, d, rows, cols, side):
        rng = np.random.default_rng(64 + d)
        ref, f = _ref_random(d, rows, cols, rng, 8)
        m = _random_symbol(d, rng)
        got = apply_fourier_multiplier(m, f, side=side, verify_two_sided=False)
        _assert_matches(got, _ref_multiply(m, ref, rows, cols, side))

    @pytest.mark.parametrize("d,rows,cols", _SHAPES)
    def test_grid_values_match_eval(self, d, rows, cols):
        rng = np.random.default_rng(66 + d)
        ref, f = _ref_random(d, rows, cols, rng, 8)
        grid = QuadratureGrid(d, 7)
        vals = _grid_values(f, grid)
        for z, got in zip(grid.points(), vals):
            want = sum(A * np.prod(z ** np.asarray(n)) for n, A in ref.items())
            assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_pi_image_stores_one_entry_per_matrix_entry(self):
        rng = np.random.default_rng(68)
        w = Box.cube(-1, 2, 2)
        A = _random(w, rng)
        f = pi_embed(A)
        assert len(f._val) == w.npoints ** 2
        assert sorted(np.abs(f._val)) == sorted(np.abs(A.data).ravel())

    def test_pi_embed_and_multiplier_memory_is_quadratic(self):
        # n = 128: the parent's dense coefficients took about 67 MB per
        # polynomial; n^2 entries take well under 1 MB
        n = 128
        w = Box.interval(-64, 64)
        A = _random(w, np.random.default_rng(69))
        m = catalog("smooth_homogeneous")
        tracemalloc.start()
        try:
            g = apply_fourier_multiplier(m, pi_embed(A))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(g.support) == 2 * n - 1
        assert peak < 16 << 20, peak


class TestEmbedding:
    def test_coefficients_are_diagonals(self):
        w = Box.interval(-1, 2)
        A = LabeledMatrix(w, w, np.arange(9, dtype=float).reshape(3, 3))
        f = pi_embed(A)
        # frequency n collects exactly the entries with s - t = n
        for n, C in f.items():
            for (si, s) in enumerate(w.points()):
                for (ti, t) in enumerate(w.points()):
                    want = A.data[si, ti] if s[0] - t[0] == n[0] else 0.0
                    assert C.data[si, ti] == want

    def test_multiplicative(self):
        rng = np.random.default_rng(2)
        w = Box.cube(-1, 2, 2)
        A, B = _random(w, rng), _random(w, rng)
        # pi(A)(z) pi(B)(z) = pi(AB)(z) at every torus point z
        grid = QuadratureGrid(2, 5)
        vals = [_grid_values(pi_embed(M), grid) for M in (A, B, A @ B)]
        gap = np.abs(vals[0] @ vals[1] - vals[2]).max()
        assert gap <= 1e-12 * max(1.0, np.abs(vals[2]).max())

    def test_is_pi_image(self):
        rng = np.random.default_rng(3)
        w = Box.interval(0, 3)
        f = pi_embed(_random(w, rng))
        assert is_pi_image(f)
        # perturbing one off-diagonal entry of a coefficient breaks membership
        n, C = next(iter(f.items()))
        bad = C.data.copy()
        pts = list(w.points())
        for si, s in enumerate(pts):
            for ti, t in enumerate(pts):
                if s[0] - t[0] != n[0]:
                    bad[si, ti] = 1.0
                    break
            else:
                continue
            break
        g = f + MatTrigPoly(1, {n: LabeledMatrix(w, w, bad - C.data)})
        assert not is_pi_image(g)

    def test_isometry_across_p(self):
        rng = np.random.default_rng(4)
        for d in (1, 2):
            w = Box.cube(-1, 2, d)
            A = _random(w, rng)
            f = pi_embed(A)
            for p in (4 / 3, 2, 3, math.inf):
                assert lp_sp_norm(f, p) == pytest.approx(
                    schatten_norm(A, p), rel=1e-10)

    def test_requires_square_window(self):
        A = LabeledMatrix.zeros(Box.interval(0, 2), Box.interval(0, 3))
        with pytest.raises(ValueError):
            pi_embed(A)


class TestTransfer:
    def test_diagonal_multiplier_entries(self):
        m = catalog("triangular")
        w = Box.interval(0, 3)
        # row form holds m(s, s-n), column form m(s+n, s); n = 1 gives ones
        row = _diagonals(m, [(1,), (-1,)], w, "left")
        col = _diagonals(m, [(1,)], w, "right")
        assert np.array_equal(row, [np.ones(3), np.zeros(3)])
        assert np.array_equal(col, [np.ones(3)])

    @pytest.mark.parametrize("d", [1, 2])
    def test_transfer_identity(self, d):
        # multiplying the embedded matrix frequencywise equals embedding the
        # entrywise product
        rng = np.random.default_rng(5)
        for trial in range(20):
            w = Box.cube(-2, 2, d)
            A = _random(w, rng)
            m = _random_symbol(d, rng)
            lhs = apply_fourier_multiplier(m, pi_embed(A))
            rhs = pi_embed(apply_schur(m, A))
            scale = max(rhs.max_abs(), 1.0)
            assert max_coeff_diff(lhs, rhs) <= 1e-12 * scale

    def test_sides_agree_on_images(self):
        rng = np.random.default_rng(6)
        w = Box.interval(-3, 3)
        m = _random_symbol(1, rng)
        f = pi_embed(_random(w, rng))
        left = apply_fourier_multiplier(m, f, side="left")
        right = apply_fourier_multiplier(m, f, side="right")
        assert max_coeff_diff(left, right) <= 1e-12 * max(left.max_abs(), 1.0)

    def test_disagreement_detected(self):
        # a symbol whose row and column forms differ must trip the check on
        # an embedded matrix only if the difference survives masking; build
        # one that genuinely disagrees on the diagonal band
        w = Box.interval(0, 3)
        f = pi_embed(LabeledMatrix(w, w, np.ones((3, 3))))
        from schurkit import DiscreteSymbol
        m = DiscreteSymbol.callback(lambda s, t: (s[:, 0] * 1.0 + 0j))
        lhs = apply_fourier_multiplier(m, f, verify_two_sided=False)
        rhs = apply_fourier_multiplier(m, f, side="right", verify_two_sided=False)
        assert max_coeff_diff(lhs, rhs) == 0.0

    def test_dense_symbol_masked_application(self):
        # dense symbol on a sub-band: frequencies that leave the band but
        # carry only zero coefficients must not raise
        w = Box.interval(0, 4)
        band = Box.interval(0, 4)
        from schurkit import DiscreteSymbol
        m = DiscreteSymbol.dense(band, band, catalog("triangular").values_on(band, band))
        A = _random(w, np.random.default_rng(7))
        lhs = apply_fourier_multiplier(m, pi_embed(A))
        rhs = pi_embed(apply_schur(m, A))
        assert max_coeff_diff(lhs, rhs) <= 1e-12 * max(rhs.max_abs(), 1.0)


class TestFreqProject:
    def test_project_onto_block(self):
        rng = np.random.default_rng(8)
        w = Box.interval(-4, 5)
        f = pi_embed(_random(w, rng))
        g = freq_project(f, DyadicIndex(2, 1))
        for n, _ in g.items():
            assert 2 <= abs(n[0]) < 4
        # projections over all levels partition the support
        total = sum(len(freq_project(f, DyadicIndex(j, 1)).support) for j in range(5))
        assert total == len(f.support)

    def test_project_onto_box_and_tuple(self):
        rng = np.random.default_rng(9)
        w = Box.interval(-3, 4)
        f = pi_embed(_random(w, rng))
        g = freq_project(f, Box.interval(0, 2))
        assert all(0 <= n[0] < 2 for n, _ in g.items())
        # a bare int pair is the strictly open interval, the tail convention
        h = freq_project(f, (-1, 2))
        assert max_coeff_diff(g, h) == 0.0

    def test_projection_is_idempotent_and_additive(self):
        rng = np.random.default_rng(10)
        w = Box.interval(-3, 4)
        f = pi_embed(_random(w, rng))
        r = Box.interval(-2, 1)
        g = freq_project(f, r)
        assert max_coeff_diff(freq_project(g, r), g) == 0.0


class TestSmoothCutoff:
    def test_profile_plateau_and_support(self):
        for d in (1, 2, 3):
            root = math.sqrt(d)
            assert cutoff_profile(0.5, d) == 1.0
            assert cutoff_profile(root, d) == 1.0
            assert cutoff_profile(0.25, d) == 0.0
            assert cutoff_profile(2 * root, d) == 0.0
            mid = cutoff_profile(0.35, d)
            assert 0.0 < mid < 1.0

    def test_profile_monotone_on_ramp(self):
        xs = np.linspace(0.26, 0.49, 30)
        vals = [cutoff_profile(float(x), 1) for x in xs]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("d", [1, 2])
    def test_factor_one_on_block_bitwise(self, d):
        # on E_j the cutoff multiplies by exactly 1.0: coefficient objects
        # survive untouched
        rng = np.random.default_rng(11)
        w = Box.cube(-3, 3, d)
        f = pi_embed(_random(w, rng))
        for j in range(1, 6):
            g = smooth_cutoff(f, j)
            pj = freq_project(g, DyadicIndex(j, d))
            qj = freq_project(f, DyadicIndex(j, d))
            assert sorted(pj.support) == sorted(qj.support)
            for n in qj.support:
                assert np.array_equal(pj.coeff(n).data, qj.coeff(n).data)

    def test_support_confined_to_enlarged_block(self):
        rng = np.random.default_rng(12)
        w = Box.interval(-8, 9)
        f = pi_embed(_random(w, rng))
        j = 2
        g = smooth_cutoff(f, j)
        for n, _ in g.items():
            # support lives strictly inside the doubled annulus
            assert 2 ** (j - 2) < abs(n[0]) < 2 ** (j + 1)

    def test_neighboring_levels_only(self):
        # the cutoff at level j acts as identity on E_j and vanishes on
        # levels at distance >= 2
        rng = np.random.default_rng(13)
        w = Box.interval(-8, 9)
        f = pi_embed(_random(w, rng))
        g = smooth_cutoff(f, 3)
        assert freq_project(g, DyadicIndex(1, 1)).support == []
        assert len(freq_project(g, DyadicIndex(3, 1)).support) > 0


def _random_poly(d, j, window, rng, count=12):
    """Polynomial with random frequencies drawn from the level-j hull."""
    top = 2**j
    hull = Box.cube(-top, top + 1, d)
    pts = hull.points_array()
    pick = rng.choice(len(pts), size=min(count, len(pts)), replace=False)
    n = window.npoints
    coeffs = {}
    for row in pts[pick]:
        coeffs[tuple(int(v) for v in row)] = LabeledMatrix(
            window, window,
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return MatTrigPoly(d, coeffs, rows=window, cols=window)


class TestSummationByParts1d:
    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("j", [1, 2, 3, 4, 5])
    def test_reassembles_exactly(self, side, j):
        rng = np.random.default_rng(14 + j)
        w = Box.interval(0, min(2**j + 1, 9))
        f = (pi_embed(_random(w, rng)) if j <= 3
             else _random_poly(1, j, Box.interval(0, 4), rng, count=24))
        m = _random_symbol(1, rng)
        parts = summation_by_parts_1d(m, f, j, side=side)
        scale = max(parts.direct.max_abs(), 1.0)
        assert parts.residual <= 1e-12 * scale

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("n,j", [(9, 3), (33, 5), (96, 6)])
    def test_total_matches_the_sum_of_its_terms(self, n, j, side):
        # reference: every term as its own polynomial, summed in one pass;
        # the streamed total adds the same products in the same order
        rng = np.random.default_rng(22 + n)
        f = pi_embed(_random(Box.interval(-(n // 2), n - n // 2), rng))
        m = _random_symbol(1, rng)
        a, b = 2 ** (j - 1), 2**j
        window = f.rows if side == "left" else f.cols
        diag = dict(zip(range(-b + 1, b), _diagonals(m, range(-b + 1, b), window, side)))

        def scaled(mult, g):
            at = g._row if side == "left" else g._col
            return g._with_values(_times(mult[at], g._val, side))

        neg = freq_project(f, Box.interval(-b + 1, -a + 1))
        pos = freq_project(f, Box.interval(a, b))
        terms = [scaled(diag[-a], neg), scaled(diag[a], pos)]
        terms += [scaled(diag[c - 1] - diag[c], freq_project(neg, Box.interval(-b + 1, c)))
                  for c in range(-b + 2, -a + 1)]
        terms += [scaled(diag[c + 1] - diag[c], freq_project(pos, Box.interval(c + 1, b)))
                  for c in range(a, b - 1)]
        want = _sum_polys(terms)
        got = summation_by_parts_1d(m, f, j, side=side).total
        assert got.support == want.support
        assert np.array_equal(got._row, want._row) and np.array_equal(got._col, want._col)
        assert np.array_equal(got._val, want._val)

    def test_memory_stays_near_the_block_entries(self):
        # n = 256, j = 7: kept as separate polynomials, the 126 difference
        # terms hold 603,456 entries (50 MB traced); the running total holds
        # the block's 20,544
        rng = np.random.default_rng(23)
        f = pi_embed(_random(Box.interval(-128, 128), rng))
        m = _random_symbol(1, rng)
        tracemalloc.start()
        try:
            parts = summation_by_parts_1d(m, f, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert parts.residual <= 1e-12 * max(parts.direct.max_abs(), 1.0)
        assert peak < 16 << 20, peak


class TestSummationByParts2d:
    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_reassembles_exactly(self, j):
        rng = np.random.default_rng(30 + j)
        if j <= 2:
            w = Box.cube(0, 2**j + 1, 2)
            f = pi_embed(_random(w, rng))
        else:
            f = _random_poly(2, j, Box.cube(0, 3, 2), rng, count=40)
        m = _random_symbol(2, rng)
        parts = summation_by_parts_2d(m, f, j)
        scale = max(parts.direct.max_abs(), 1.0)
        assert parts.residual <= 1e-12 * scale

    @pytest.mark.parametrize("side,j", [(5, 2), (9, 3), (16, 4), (None, 3)])
    def test_total_matches_the_sum_of_its_parts(self, side, j):
        # reference: the four parts as polynomials, each cut's term its own
        # projection, summed in one pass; the streamed total adds the same
        # products in the same order
        rng = np.random.default_rng(60 + j)
        f = (pi_embed(_random(Box.cube(-(side // 2), side - side // 2, 2), rng)) if side
             else _random_poly(2, j, Box.cube(0, 3, 2), rng, count=40))
        m = _random_symbol(2, rng)
        a, b = 2 ** (j - 1), 2**j
        strip, upper = Box.interval(-a + 1, b), Box.interval(a, b)
        rect = strip.product(upper)
        diag = _diagonals(m, rect.points_array(), f.rows, "left").reshape(
            strip.npoints, upper.npoints, f.rows.npoints)

        def dop(n1, n2):
            return diag[n1 + a - 1, n2 - a]

        frect = freq_project(f, rect)

        def scaled(cut, g):
            return g._with_values(cut[g._row] * g._val)

        def part(terms):
            return _sum_polys([MatTrigPoly.zero(2, f.rows, f.cols),
                               *(scaled(cut, freq_project(frect, Box.interval(lo1, b)
                                                          .product(Box.interval(lo2, b))))
                                 for cut, lo1, lo2 in terms)])

        cuts1, cuts2 = range(-a + 1, b - 1), range(a, b - 1)
        want = _sum_polys([
            scaled(dop(-a + 1, a), frect),
            part((dop(n1 + 1, a) - dop(n1, a), n1 + 1, a) for n1 in cuts1),
            part((dop(-a + 1, n2 + 1) - dop(-a + 1, n2), -a + 1, n2 + 1) for n2 in cuts2),
            part((dop(n1 + 1, n2 + 1) - dop(n1 + 1, n2) - dop(n1, n2 + 1) + dop(n1, n2),
                  n1 + 1, n2 + 1) for n1 in cuts1 for n2 in cuts2),
        ])
        got = summation_by_parts_2d(m, f, j).total
        assert got.support == want.support
        assert np.array_equal(got._row, want._row) and np.array_equal(got._col, want._col)
        assert np.array_equal(got._val, want._val)

    def test_memory_stays_near_the_rectangle_entries(self):
        # side 16, j = 4: kept as separate polynomials, the cut terms peak at
        # 17.7 MB traced; the four running sums peak at 4.7 MB
        rng = np.random.default_rng(61)
        f = pi_embed(_random(Box.cube(-8, 8, 2), rng))
        m = _random_symbol(2, rng)
        tracemalloc.start()
        try:
            parts = summation_by_parts_2d(m, f, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert parts.residual <= 1e-12 * max(parts.direct.max_abs(), 1.0)
        assert peak < 8 << 20, peak

    def test_anchor_at_rectangle_corner(self):
        rng = np.random.default_rng(40)
        j = 3
        f = _random_poly(2, j, Box.cube(0, 3, 2), rng, count=30)
        m = _random_symbol(2, rng)
        parts = summation_by_parts_2d(m, f, j)
        a = 2 ** (j - 1)
        assert parts.anchor == (-a + 1, a)

    def test_reports_residual_instead_of_raising(self):
        # a symbol whose values drift between calls cannot reassemble; the
        # residual is returned for the caller to judge
        calls = [0]

        def drifting(s, t):
            calls[0] += 1
            return np.full(len(s), 1.0 + 1e-6 * calls[0], dtype=complex)

        from schurkit import DiscreteSymbol
        m = DiscreteSymbol.callback(drifting, d=2)
        f = pi_embed(_random(Box.cube(0, 3, 2), np.random.default_rng(42)))
        parts = summation_by_parts_2d(m, f, 1)
        assert parts.residual > 1e-10 * max(parts.direct.max_abs(), 1.0)

    def test_rejects_wrong_dimension(self):
        rng = np.random.default_rng(41)
        f = pi_embed(_random(Box.interval(0, 3), rng))
        with pytest.raises(ValueError):
            summation_by_parts_2d(catalog("constant_one", d=2), f, 1)


class TestLpExperiment:
    def test_single_block_ratio_exactly_one(self):
        rng = np.random.default_rng(50)
        w = Box.interval(-5, 6)
        f = pi_embed(_random(w, rng))
        fj = freq_project(f, DyadicIndex(2, 1))
        rep = lp_experiment(fj, 4)
        assert rep.block_ratio == 1.0

    def test_parseval_ratio_p2(self):
        rng = np.random.default_rng(51)
        w = Box.interval(-4, 5)
        f = pi_embed(_random(w, rng))
        rep = lp_experiment(f, 2)
        assert rep.block_ratio == pytest.approx(1.0, abs=1e-10)

    def test_report_fields_finite(self):
        rng = np.random.default_rng(52)
        w = Box.interval(-4, 5)
        f = pi_embed(_random(w, rng))
        rects = [Box.interval(0, 4), Box.interval(-8, 0), Box.interval(4, 8)]
        rep = lp_experiment(f, 4, rectangles=rects)
        d = rep.as_dict()
        for key in ("norm", "block_ratio", "cutoff_ratio", "rect_ratio"):
            assert math.isfinite(d[key]) and d[key] > 0
        assert d["p"] == 4.0

    def test_infinite_p_rejected(self):
        rng = np.random.default_rng(53)
        f = pi_embed(_random(Box.interval(0, 3), rng))
        with pytest.raises(ValueError):
            lp_experiment(f, math.inf)
