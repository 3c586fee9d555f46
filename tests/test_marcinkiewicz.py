"""Block variation tables, cell-average discretization, continuous conditions.

Reference values are computed from closed forms or independent enumerations
and frozen here; report functions must reproduce them exactly or to stated
quadrature accuracy.
"""

import itertools
import json
import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from schurkit import (
    Box,
    ConditionReport,
    ContinuousSymbol,
    DiscreteSymbol,
    QuadratureError,
    SymbolError,
    catalog,
    check_1d,
    check_2d,
    check_continuous,
    check_dd,
    discretize_continuous,
    dyadic_block_points,
    load_symbol,
)
from schurkit import marcinkiewicz


def _rows_by(report, *keys):
    return {tuple(r[k] for k in keys): r["value"] for r in report.table}


class TestCheck1d:
    def test_triangular_exact_constants(self):
        rep = check_1d(catalog("triangular"), 8, Box.interval(-16, 16))
        assert rep.c1 == 1.0
        assert rep.c2 == 1.0
        # the single jump sits in the lowest block, row direction only
        vals = _rows_by(rep, "level", "direction")
        assert vals[(1, "row")] == 1.0
        assert all(v == 0.0 for key, v in vals.items() if key != (1, "row"))
        assert rep.within_block_sup == 0.0

    def test_lacunary_seed0_frozen_sums(self):
        # per-block jump budget of the seed-0 sign sequence, enumerated from
        # the level table: both dyadic edges of each block contribute
        eps = np.random.default_rng(0).integers(0, 2, size=64) * 2 - 1
        expected = {N: float(abs(eps[N + 1] - eps[N]) + abs(eps[N] - eps[N - 1]))
                    for N in range(1, 9)}
        assert expected == {1: 0.0, 2: 2.0, 3: 2.0, 4: 0.0,
                            5: 0.0, 6: 0.0, 7: 0.0, 8: 2.0}
        rep = check_1d(catalog("lacunary_toeplitz", seed=0), 8, Box.interval(-4, 4))
        vals = _rows_by(rep, "level", "direction")
        for N, want in expected.items():
            assert vals[(N, "row")] == want
            assert vals[(N, "col")] == want
        assert rep.c1 == 1.0
        assert rep.c2 == 2.0
        # level-constant symbols have no interior variation at all
        assert rep.within_block_sup == 0.0

    def test_toeplitz_base_independence(self):
        m = catalog("lacunary_toeplitz", seed=5)
        a = check_1d(m, 6, Box.interval(0, 1))
        b = check_1d(m, 6, Box.interval(-32, 32))
        va, vb = _rows_by(a, "level", "direction"), _rows_by(b, "level", "direction")
        assert va == vb

    def test_within_sums_bounded_by_two_sided(self):
        m = catalog("smooth_homogeneous")
        rep = check_1d(m, 6, Box.interval(-8, 8))
        two = _rows_by(rep, "level", "direction")
        for r in rep.within_table:
            base_dir = r["direction"][:3]
            assert r["value"] <= two[(r["level"], base_dir)] + 1e-12

    def test_within_sums_match_enumeration(self):
        # per signed half block, the differences whose two points stay in it
        m = catalog("smooth_homogeneous")
        rep = check_1d(m, 5, Box.interval(3, 4))
        got = {(r["level"], r["direction"]): r["value"] for r in rep.within_table}
        j = 3
        for N in range(1, 6):
            a, b = 2 ** (N - 1), 2**N
            for sign, ks in (("+", range(a, b - 1)), ("-", range(-b + 1, -a))):
                row = sum(abs(m((k + j + 1,), (j,)) - m((k + j,), (j,))) for k in ks)
                col = sum(abs(m((j,), (k + j + 1,)) - m((j,), (k + j,))) for k in ks)
                assert got[(N, "row" + sign)] == pytest.approx(row, rel=1e-14, abs=0)
                assert got[(N, "col" + sign)] == pytest.approx(col, rel=1e-14, abs=0)

    def test_level_one_within_rows_are_empty_sums(self):
        rep = check_1d(catalog("triangular"), 3, Box.interval(-2, 2))
        ones = [r for r in rep.within_table if r["level"] == 1]
        assert len(ones) == 4
        assert all(r["value"] == 0.0 for r in ones)

    def test_scaling_equivariance(self):
        m = catalog("lacunary_toeplitz", seed=1)
        rep1 = check_1d(m, 5, Box.interval(-4, 4))
        rep3 = check_1d(3.0 * m, 5, Box.interval(-4, 4))
        v1 = _rows_by(rep1, "level", "direction")
        v3 = _rows_by(rep3, "level", "direction")
        for key, v in v1.items():
            assert v3[key] == pytest.approx(3.0 * v, abs=1e-14)

    def test_dimension_and_level_validation(self):
        with pytest.raises(ValueError):
            check_1d(catalog("constant_one", d=2), 3, Box.cube(-2, 2, 2))
        with pytest.raises(ValueError):
            check_1d(catalog("constant_one"), 0, Box.interval(-2, 2))


def _quadrant_symbol():
    # m(s, t) = 1 when t - s lies in the closed upper-right quadrant
    return DiscreteSymbol.callback(
        lambda s, t: ((t[:, 0] >= s[:, 0]) & (t[:, 1] >= s[:, 1])).astype(complex),
        d=2, name="quadrant")


class TestCheck2d:
    def test_constant_all_zero(self):
        rep = check_2d(catalog("constant_one", d=2), 4, Box.cube(-2, 2, 2))
        assert rep.c1 == 1.0
        assert rep.c2 == 0.0
        assert rep.c3 == 0.0
        assert not rep.flags["nonuniform_growth"]

    def test_quadrant_frozen_constants(self):
        # the quadrant indicator jumps once per positive edge and its mixed
        # double difference is a unit mass at (-1, -1), so c2 = 2 and the
        # only nonzero mixed row is level 1, left order
        rep = check_2d(_quadrant_symbol(), 4, Box.cube(-2, 2, 2))
        assert rep.c2 == 2.0
        assert rep.c3 == 1.0
        vals = _rows_by(rep, "level", "direction")
        for k in range(1, 5):
            assert vals[(k, "edge-left")] == 2.0
            assert vals[(k, "edge-right")] == 2.0
            assert vals[(k, "mixed-left")] == (1.0 if k == 1 else 0.0)
            assert vals[(k, "mixed-right")] == 0.0

    def test_growth_flag_on_unbounded_symbol(self):
        m = DiscreteSymbol.callback(
            lambda s, t: ((t[:, 0] - s[:, 0]) ** 2 + (t[:, 1] - s[:, 1]) ** 2)
            .astype(complex), d=2, name="parabola")
        rep = check_2d(m, 4, Box.cube(0, 1, 2))
        assert rep.flags["nonuniform_growth"]

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            check_2d(catalog("triangular"), 3, Box.interval(-2, 2))


class TestCheckDd:
    def test_d1_matches_check_1d(self):
        # anchored differences in one dimension coincide with the two-sided
        # block sums: right order = row direction, left order = column
        for name in ("triangular", "smooth_homogeneous"):
            m = catalog(name)
            base = Box.interval(-4, 4)
            r1 = _rows_by(check_1d(m, 4, base), "level", "direction")
            rd = _rows_by(check_dd(m, 4, base), "level", "direction")
            for N in range(1, 5):
                assert rd[(N, "(1,)-right")] == r1[(N, "row")]
                assert rd[(N, "(1,)-left")] == r1[(N, "col")]

    def test_d2_constant_zero(self):
        rep = check_dd(catalog("constant_one", d=2), 3, Box.cube(-1, 1, 2))
        assert rep.c2 == 0.0
        # three nonzero masks, two orders, three levels
        assert len(rep.table) == 3 * 2 * 3

    def test_d3_runs_and_caps(self):
        m = catalog("constant_one", d=3)
        rep = check_dd(m, 2, Box.cube(0, 1, 3))
        assert rep.c2 == 0.0
        assert len(rep.table) == 7 * 2 * 2
        with pytest.raises(ValueError):
            check_dd(catalog("constant_one", d=4), 2, Box.cube(0, 1, 4))


def _phi(k):
    # non-integer complex profile in every coordinate of the difference
    k = k.astype(float)
    out = np.exp(0.37j * k[:, 0]) * np.cos(0.7 * k[:, 0]) / (1 + np.abs(k[:, 0])) ** 0.5
    for i in range(1, k.shape[1]):
        out = out * np.cos(0.45 * i * k[:, i] + 0.2) / (1 + 0.3 * np.abs(k[:, i]))
    return out


def _toeplitz_and_callback(d):
    return (DiscreteSymbol.toeplitz(_phi, d=d, name="phi"),
            DiscreteSymbol.callback(lambda s, t: _phi(s - t), d=d, name="phi"))


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBaseWalk:
    def test_toeplitz_one_base_matches_every_base(self):
        # the Toeplitz path evaluates one base; the callback form of the
        # same symbol evaluates all of them: the reports agree to the byte
        runs = [
            (1, lambda m: check_1d(m, 6, Box.interval(-9, 9))),
            (2, lambda m: check_2d(m, 3, Box.cube(-3, 3, 2))),
            (1, lambda m: check_dd(m, 5, Box.interval(-9, 9))),
            (2, lambda m: check_dd(m, 3, Box.cube(-2, 3, 2))),
            (3, lambda m: check_dd(m, 2, Box.cube(-1, 2, 3))),
        ]
        for d, run in runs:
            toeplitz, callback = _toeplitz_and_callback(d)
            assert run(toeplitz).to_json() == run(callback).to_json()

    def test_chunked_bases_match_one_chunk(self, monkeypatch):
        # the sums grow with the base, so the last base is the one reported
        m = DiscreteSymbol.callback(
            lambda s, t: _phi(s - t) * (3.0 + 0.01 * (s[:, 0] + t[:, 0])), d=1)
        base = Box.interval(-64, 65)  # 129 bases
        whole = check_1d(m, 6, base).to_json()
        sizes = []
        counted = DiscreteSymbol.callback(
            lambda s, t: (sizes.append(len(s)), m.eval_pairs(s, t))[1], d=1)
        counted.name = m.name
        # 129 pairs per base: 16 runs of 8 bases and a 1-base remainder,
        # each evaluated once per orientation
        monkeypatch.setattr(marcinkiewicz, "_CHUNK_PAIRS", 8 * 129)
        assert check_1d(counted, 6, base).to_json() == whole
        assert sizes == [129 * 8] * 32 + [129] * 2

    def test_chunked_bases_match_in_2d_and_dd(self, monkeypatch):
        m2 = DiscreteSymbol.callback(
            lambda s, t: _phi(s - t) * np.cos(0.3 * s[:, 1] - 0.1 * t[:, 0]), d=2)
        base = Box.cube(-3, 4, 2)  # 49 bases
        whole = [check_2d(m2, 3, base).to_json(), check_dd(m2, 3, base).to_json()]
        monkeypatch.setattr(marcinkiewicz, "_CHUNK_PAIRS", 500)
        assert [check_2d(m2, 3, base).to_json(), check_dd(m2, 3, base).to_json()] == whole

    def test_triangular_check_1d_memory_bounded(self):
        # 32769 x 129 pair tables: the parent held them whole (323 MB peak);
        # the callback form walks every base in bounded runs
        m = DiscreteSymbol.callback(lambda s, t: (s[:, 0] >= t[:, 0]).astype(complex))
        peak = _peak_bytes(lambda: check_1d(m, 14, Box.interval(-64, 65)))
        assert peak < 128 * 2**20

    def test_toeplitz_check_2d_memory_bounded(self):
        m = load_symbol({"kind": "toeplitz", "d": 2,
                         "phi": "cos(0.83*k1 + 1.21*k2) / (1 + k1*k1 + k2*k2)"})
        peak = _peak_bytes(lambda: check_2d(m, 5, Box.cube(-8, 8, 2)))
        assert peak < 8 * 2**20


class TestToeplitzCatalog:
    # triangular and constant_one are Toeplitz: their checks walk one base,
    # and the reports are the callback forms' reports to the byte
    def test_triangular_matches_callback_form(self):
        form = DiscreteSymbol.callback(lambda s, t: (s[:, 0] >= t[:, 0]).astype(complex),
                                       name="triangular")
        m = catalog("triangular")
        assert m.kind == "toeplitz"
        for nmax, base in ((6, Box.interval(-9, 9)), (14, Box.interval(-64, 65))):
            rep = check_1d(m, nmax, base)
            assert rep.to_json() == check_1d(form, nmax, base).to_json()
        assert rep.c1 == 1.0 and rep.c2 == 1.0 and rep.within_block_sup == 0.0

    @pytest.mark.parametrize("d", [1, 2])
    def test_constant_one_matches_callback_form(self, d):
        form = DiscreteSymbol.callback(lambda s, t: np.ones(len(s), dtype=complex),
                                       d=d, name="constant_one")
        m = catalog("constant_one", d=d)
        assert m.kind == "toeplitz"
        if d == 1:
            run = lambda sym: check_1d(sym, 8, Box.interval(-16, 16))
        else:
            run = lambda sym: check_2d(sym, 4, Box.cube(-3, 3, 2))
        assert run(m).to_json() == run(form).to_json()


def _reference_sums(m, bases, regions):
    # one base and one difference term at a time, terms added in beta order
    out = np.empty((len(regions), 2, len(bases)))
    for r, (alpha, T) in enumerate(regions):
        betas = list(itertools.product(*[(0, 1) if bit else (0,) for bit in alpha]))
        for o in range(2):
            for i, s in enumerate(bases):
                S = np.repeat(s[None, :], len(T), axis=0)
                acc = np.zeros(len(T), dtype=complex)
                for beta in betas:
                    U = S + T + np.asarray(beta)
                    vals = m.eval_pairs(S, U) if o == 0 else m.eval_pairs(U, S)
                    acc = acc + (-1) ** (sum(alpha) - sum(beta)) * vals
                out[r, o, i] = np.abs(acc).sum()
    return out


class TestVariationSums:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_one_base_at_a_time(self, d):
        # every mask on each level's shell and on a line pinned at the
        # block corner, in runs of two bases
        m = DiscreteSymbol.callback(
            lambda s, t: _phi(s - t) * np.cos(0.3 * s[:, 0] - 0.1 * t[:, -1]), d=d)
        bases = Box.cube(-2, 1, d).points_array()
        regions = []
        for k in (1, 2):
            for alpha in itertools.product((0, 1), repeat=d):
                if any(alpha):
                    line = np.full((2 ** (k + 1) - 1, d), 2 ** (k - 1))
                    line[:, alpha.index(1)] = np.arange(-(2**k) + 1, 2**k)
                    regions += [(alpha, dyadic_block_points(k, d)),
                                (alpha, line)]
        hull = Box.cube(-3, 5, d)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(marcinkiewicz, "_CHUNK_PAIRS", 2 * hull.npoints)
            got, c1 = marcinkiewicz._variation_sums(m, bases, hull, regions)
        assert np.array_equal(got, _reference_sums(m, bases, regions))
        S = np.repeat(bases, hull.npoints, axis=0)
        T = S + np.tile(hull.points_array(), (len(bases), 1))
        assert c1 == max(np.abs(m.eval_pairs(S, T)).max(), np.abs(m.eval_pairs(T, S)).max())


class TestParallelogramCells:
    # the sheared cell (s, t) at scale k is the image of the unit square
    # under (u, v) -> ((s + u)/2^k, (t + v + u)/2^k)

    def test_cell_centroids(self):
        # averaging M = x and M = y over a cell gives its centroid
        # ((s + 1/2)/2^k, (t + 1)/2^k)
        x = ContinuousSymbol(lambda x, y: np.asarray(x, dtype=np.complex128) + 0 * y)
        y = ContinuousSymbol(lambda x, y: np.asarray(y, dtype=np.complex128) + 0 * x)
        s = np.arange(-3.0, 4.0)
        t = np.arange(-5.0, 2.0)
        for k in (0, 2, 3):
            h = 2.0**-k
            cx = marcinkiewicz._cell_averages(x, s[:, None], t[None, :], k, 8)
            cy = marcinkiewicz._cell_averages(y, s[:, None], t[None, :], k, 8)
            assert np.abs(cx - ((s + 0.5) * h)[:, None]).max() < 1e-14
            assert np.abs(cy - ((t + 1.0) * h)[None, :]).max() < 1e-14

    def test_cells_tile_without_overlap(self):
        # the cell (s, t) at scale k is the union of the four cells
        # (2s + a, 2t + a + b), a, b in {0, 1}, at scale k + 1, so its
        # average is their mean (the order-8 rule is exact on a cubic)
        M = ContinuousSymbol(
            lambda x, y: (x**3 - 2.0 * x * y**2 + 0.5j * y + 1.0).astype(np.complex128))
        s = np.arange(-4, 5)[:, None]
        t = np.arange(-3, 4)[None, :]
        for k in (1, 2, 4):
            coarse = marcinkiewicz._cell_averages(M, s, t, k, 8)
            fine = sum(marcinkiewicz._cell_averages(M, 2 * s + a, 2 * t + a + b, k + 1, 8)
                       for a in (0, 1) for b in (0, 1))
            assert np.abs(coarse - fine / 4.0).max() < 1e-13

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            discretize_continuous(catalog("continuous_constant"), -1, Box.interval(0, 2))


class TestDiscretize:
    def test_constant_symbol_exact(self):
        win = Box.interval(-5, 6)
        m = discretize_continuous(catalog("continuous_constant"), 3, win)
        assert m.kind == "dense"
        assert np.abs(m.values_on(win, win) - 1.0).max() < 1e-14

    def test_linear_difference_closed_form(self):
        # averages of x - y over the sheared cells: (s - t)/2^k - 2^-(k+1)
        lin = ContinuousSymbol(
            lambda x, y: (x - y).astype(np.complex128), d=1, name="linear")
        win = Box.interval(0, 8)
        m = discretize_continuous(lin, 3, win)
        pts = win.points_array()[:, 0]
        want = (pts[:, None] - pts[None, :]) / 8.0 - 1.0 / 16.0
        assert np.abs(m.values_on(win, win) - want).max() < 1e-13

    def test_first_coordinate_closed_form(self):
        xonly = ContinuousSymbol(
            lambda x, y: np.asarray(x, dtype=np.complex128) + 0.0 * np.asarray(y),
            d=1, name="first")
        win = Box.interval(-4, 5)
        m = discretize_continuous(xonly, 4, win)
        pts = win.points_array()[:, 0]
        want = np.broadcast_to(((pts + 0.5) / 16.0)[:, None], (9, 9))
        assert np.abs(m.values_on(win, win) - want).max() < 1e-13

    def test_shear_adapts_to_the_diagonal(self):
        # |x - y| is linear on every sheared cell, so averages are exact
        kink = ContinuousSymbol(
            lambda x, y: np.abs(x - y).astype(np.complex128), d=1, name="vee")
        k, win = 2, Box.interval(-3, 4)
        m = discretize_continuous(kink, k, win, tol=1e-12)
        pts = win.points_array()[:, 0]
        D = pts[:, None] - pts[None, :]
        h = 2.0**-k
        want = np.where(D >= 1, (D - 0.5) * h, (0.5 - D) * h)
        assert np.abs(m.values_on(win, win) - want).max() < 1e-13

    def test_interior_cusp_detected(self):
        h = 0.25
        cusp = ContinuousSymbol(
            lambda x, y: np.sqrt(np.abs(x - y + 0.5 * h)).astype(np.complex128),
            d=1, name="cusp")
        with pytest.raises(QuadratureError, match="refinement"):
            discretize_continuous(cusp, 2, Box.interval(0, 3), tol=1e-10)

    def test_name_records_scale(self):
        m = discretize_continuous(catalog("continuous_constant"), 5, Box.interval(0, 2))
        assert m.name.endswith("_avg_k5")


def _abs_cos_integral(a, b):
    # F(x) = 2k + (-1)^k sin x on |x - k pi| <= pi/2 is an antiderivative of |cos x|
    def F(x):
        k = math.floor(x / math.pi + 0.5)
        return 2 * k + (-1) ** k * math.sin(x)

    return F(b) - F(a)


class TestCheckContinuous:
    def test_arctan_levels_match_closed_form(self):
        # the level-j shell integral of 1/(1 + t^2) over both signs
        rep = check_continuous(catalog("continuous_arctan"), (-2, 3))
        per = {}
        for r in rep.table:
            per[r["level"]] = max(per.get(r["level"], 0.0), r["value"])
        for j, got in per.items():
            want = 2.0 * (math.atan(2.0 ** (j + 1)) - math.atan(2.0**j))
            assert got == pytest.approx(want, abs=1e-8)

    def test_arctan_rows_match_closed_form_to_rounding(self):
        # every row, both slots, levels -7..7: no panel error is left over
        rep = check_continuous(catalog("continuous_arctan"), (-7, 7))
        for r in rep.table:
            j = r["level"]
            want = 2.0 * (math.atan(2.0 ** (j + 1)) - math.atan(2.0**j))
            assert abs(r["value"] - want) < 1e-14

    def test_arctan_supremum(self):
        rep = check_continuous(catalog("continuous_arctan"), (-3, 4))
        assert rep.a_const == pytest.approx(2.0 * math.atan(1.0 / 3.0), abs=1e-8)
        assert rep.c1 <= math.pi / 2

    def test_constant_zero(self):
        rep = check_continuous(catalog("continuous_constant"), (-1, 2))
        assert rep.a_const == 0.0

    def test_ratio_symbol_regression(self):
        # frozen build-time value for the smooth quotient symbol
        rep = check_continuous(catalog("continuous_ratio"), (-4, 5))
        assert rep.a_const == pytest.approx(0.5167948918100211, abs=1e-9)

    def test_d2_constant_and_validation(self):
        flat = ContinuousSymbol(
            lambda x, y: np.ones(np.asarray(x, dtype=float).shape[:-1],
                                 dtype=np.complex128), d=2, name="flat2")
        rep = check_continuous(flat, (0, 1), tol=1e-6)
        assert rep.a_const == pytest.approx(0.0, abs=1e-6)
        bad = ContinuousSymbol(lambda x, y: x, d=3)
        with pytest.raises(SymbolError):
            check_continuous(bad, (0, 1))

    def test_d2_product_still_stalls(self):
        # known defect (ROADMAP 5(a)): central differences of a smooth 2-d
        # symbol are too noisy for the panel tolerance
        m = load_symbol({"kind": "continuous", "d": 2,
                         "expr": "arctan(x1 - y1) * arctan(x2 - y2)"})
        with pytest.raises(QuadratureError) as exc:
            check_continuous(m, (0, 0))
        assert str(exc.value) == ("adaptive quadrature on [-2, 2] needs more "
                                  "than 1024 panels")

    def test_kinked_symbol_rows_match_closed_form(self):
        # |cos t| has kinks at odd multiples of pi/2; A(j) is the integral
        # of |cos t| over both halves of the level-j shell, at every base
        m = load_symbol({"kind": "continuous", "d": 1, "expr": "sin(x1 - y1)"})
        rep = check_continuous(m, (-7, 5))
        assert len(rep.table) == 26
        for r in rep.table:
            j = r["level"]
            assert abs(r["value"] - 2 * _abs_cos_integral(2.0**j, 2.0 ** (j + 1))) <= 2e-9

    def test_kinked_ratio_passes_quickly(self):
        # the derivative changes sign at a different t for every base
        m = load_symbol({"kind": "continuous", "d": 1,
                         "expr": "cos(x1) / (1 + (x1 - y1)^2)"})
        start = time.perf_counter()
        rep = check_continuous(m, (-7, 2))
        assert time.perf_counter() - start < 1.0
        assert rep.a_const == pytest.approx(0.86382979315, abs=1e-9)

    def test_ratio_check_memory_bounded(self):
        # one interval per shell half and base, 2^14 values per call
        peak = _peak_bytes(lambda: check_continuous(catalog("continuous_ratio"), (-7, 7)))
        assert peak < 16 * 2**20


_SHELLS = [iv for j in range(-7, 8)
           for iv in ((2.0**j, 2.0 ** (j + 1)), (-2.0 ** (j + 1), -2.0**j))]


def _panels_per_call(monkeypatch, panels, components):
    # calls of `panels` panels, each at both orders' nodes and its two ends
    if panels is not None:
        nodes = sum(marcinkiewicz._GL_ORDERS) + 2
        monkeypatch.setattr(marcinkiewicz, "_GL_VALUES", panels * nodes * components)


class TestAdaptiveGL:
    @pytest.mark.parametrize("panels", [1, 3, None])
    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("name", ["continuous_arctan", "continuous_ratio"])
    def test_rounds_do_not_change_the_result(self, monkeypatch, name, tol, panels):
        # a round takes whole intervals, so all 30 shells in calls of any
        # size give what one shell per solve gives, within tol of a solve at
        # a far smaller tolerance
        M = catalog(name)
        ys = np.linspace(-4.0, 4.0, 129)

        def f(t, which):
            x = ys[None, :] + t[:, None]
            return np.abs(M.partial(1, x, np.broadcast_to(ys, x.shape)))

        alone = np.concatenate([marcinkiewicz._adaptive_gl(f, [iv], tol) for iv in _SHELLS])
        ref = marcinkiewicz._adaptive_gl(f, _SHELLS, 1e-13)
        _panels_per_call(monkeypatch, panels, 129)
        got = marcinkiewicz._adaptive_gl(f, _SHELLS, tol)
        assert got.shape == (30, 129)
        assert np.array_equal(got, alone)
        assert np.abs(got - ref).max() <= tol

    def test_second_call_scores_every_other_interval(self):
        # one panel shows that f has one component; then the other 29
        # intervals' panels, at the 8 + 12 nodes of both orders and the
        # two ends, fit in one call
        sizes = []

        def f(t, which):
            sizes.append(len(t))
            return np.exp(-t * t)[:, None]

        marcinkiewicz._adaptive_gl(f, _SHELLS, 1e-9)
        nodes = sum(marcinkiewicz._GL_ORDERS) + 2
        assert sizes[:2] == [nodes, 29 * nodes]

    def test_degree_15_exact_on_one_panel(self):
        # order 8 integrates degree 15 exactly, so the one panel passes
        calls = []

        def f(t, which):
            calls.append(len(t))
            return (t**15)[:, None]

        got = marcinkiewicz._adaptive_gl(f, [(-1.0, 2.0)], 1e-9)
        assert got[0, 0] == pytest.approx((2.0**16 - 1.0) / 16.0, rel=1e-14)
        assert len(calls) == 1

    @pytest.mark.parametrize("panels", [1, 3, None])
    def test_nested_solve_matches_closed_form(self, monkeypatch, panels):
        # the outer integrand solves one inner interval per abscissa;
        # ``which`` tells it the abscissa
        _panels_per_call(monkeypatch, panels, 3)
        c = np.array([0.5, 1.0, 2.0])
        r = np.sqrt(c)

        def outer(t2, which):
            return marcinkiewicz._adaptive_gl(
                lambda t1, k: 1.0 / (1.0 + c * (t1[:, None] - t2[k][:, None]) ** 2),
                [(-1.0, 2.0)] * len(t2), 1e-12)

        got = marcinkiewicz._adaptive_gl(outer, [(1.0, 2.0)], 1e-12)[0]

        def H(u):
            # H'(u) = atan(sqrt(c) u) / sqrt(c), the inner antiderivative
            return u * np.arctan(r * u) / r - np.log1p(c * u * u) / (2.0 * c)

        want = H(1.0) - H(0.0) - H(-2.0) + H(-3.0)
        assert np.abs(got - want).max() < 1e-12

    def test_kink_beside_an_end_is_seen(self):
        # 7 pi / 2 lies 0.44 % of the width from 11, nearer than any node of
        # either rule: the rules agree to 3e-16 on [10, 11], 2e-5 off the
        # integral, and only the misfit at the end refines the panel
        got = marcinkiewicz._adaptive_gl(
            lambda t, k: np.abs(np.cos(t))[:, None], [(10.0, 11.0), (8.0, 16.0)], 1e-9)
        want = [_abs_cos_integral(10.0, 11.0), _abs_cos_integral(8.0, 16.0)]
        assert np.abs(got[:, 0] - want).max() <= 1e-9

    def test_kinks_share_their_interval_tolerance(self):
        # ten kinks in [32, 64] need about 17 halvings when the interval's
        # errors add up to tol; held to tol times its width, each needs 31
        calls = []

        def f(t, which):
            calls.append(len(t))
            return np.abs(np.cos(t))[:, None]

        got = marcinkiewicz._adaptive_gl(f, [(32.0, 64.0)], 1e-9)[0, 0]
        want = _abs_cos_integral(32.0, 64.0)
        assert abs(got - want) <= 1e-9
        assert len(calls) <= 20

    def test_noise_raises_on_panel_count(self):
        # every panel fails, so the panels double each round until the cap
        with pytest.raises(QuadratureError, match=r"on \[0, 1\] needs more than 1024 panels"):
            marcinkiewicz._adaptive_gl(
                lambda t, k: np.sin(1e9 * t)[:, None], [(0.0, 1.0)], 1e-9)

    @pytest.mark.parametrize("panels", [1, 3, None])
    def test_stall_reports_the_first_failing_panel(self, monkeypatch, panels):
        # jumps at 0.3, 0.7 and 1.6 never pass; the jumps of one interval
        # reach the depth limit in the same round, and 0.3 comes first in
        # it, whatever the call size
        _panels_per_call(monkeypatch, panels, 2)
        c = np.array([1.0, 2.0])

        def step(t, which):
            return ((t > 0.3) + (t > 0.7) + (t > 1.6))[:, None] * c

        with pytest.raises(QuadratureError) as exc:
            marcinkiewicz._adaptive_gl(step, [(-1.0, 0.2), (0.0, 1.0), (1.0, 2.0)], 1e-12)
        lo, hi = (float(v) for v in re.search(r"\[(.*), (.*)\]", str(exc.value)).groups())
        assert lo < 0.3 < hi
        assert hi - lo == 2.0**-marcinkiewicz._GL_MAX_DEPTH

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            marcinkiewicz._adaptive_gl(lambda t, k: t[:, None], [(0.0, 1.0), (2.0, 2.0)], 1e-9)


class TestConditionReport:
    def test_json_roundtrip(self):
        rep = check_1d(catalog("triangular"), 3, Box.interval(-2, 2))
        data = json.loads(rep.to_json())
        assert data["c2"] == 1.0
        assert data["kind"] == "1d"
        assert len(data["table"]) == len(rep.table)

    def test_csv_rows_shape(self):
        rep = check_1d(catalog("triangular"), 3, Box.interval(-2, 2))
        rows = rep.csv_rows()
        assert rows[0] == ["section", "level", "direction", "base",
                           "value", "running_sup"]
        assert len(rows) == 1 + len(rep.table) + len(rep.within_table)
        # running supremum is nondecreasing within each section
        running = [float(r[5]) for r in rows[1:] if r[0] == "block"]
        assert running == sorted(running)

    def test_invariants_catch_tampering(self):
        rep = check_1d(catalog("triangular"), 3, Box.interval(-2, 2))
        rep.table[0]["value"] += 1.0
        with pytest.raises(AssertionError):
            rep.check_invariants()

    def test_invariants_catch_negative(self):
        with pytest.raises(AssertionError, match="negative"):
            ConditionReport(kind="1d", symbol="x", d=1,
                            table=[{"level": 1, "direction": "row",
                                    "base": 0, "value": -0.5}])
