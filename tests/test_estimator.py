"""Lower-bound search, block amplification, growth experiment."""

from fractions import Fraction

import numpy as np
import pytest

from schurkit import (
    Box,
    DiscreteSymbol,
    LabeledMatrix,
    apply_schur,
    catalog,
    cb_lower_bound,
    growth_experiment,
    load_symbol,
    norm_lower_bound,
    schatten_norm,
)
from schurkit import estimator, schatten
from schurkit.estimator import _norm_gradient
from schurkit.schatten import _svd_schatten_norm


class TestNormLowerBound:
    def test_p2_equals_sup_of_symbol(self):
        # at p = 2 the multiplier norm is exactly the largest |entry|, and
        # the matrix-unit start attains it
        win = Box.interval(-8, 8)
        m = catalog("smooth_homogeneous")
        res = norm_lower_bound(m, win, 2.0, budget={"restarts": 3, "iterations": 40})
        assert res.value == pytest.approx(0.9375, abs=1e-12)

    def test_p2_random_tables(self):
        win = Box.interval(0, 6)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            entries = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            m = DiscreteSymbol.dense(win, win, entries)
            res = norm_lower_bound(m, win, 2.0,
                                   budget={"restarts": 2, "iterations": 30},
                                   seed=seed)
            assert res.value == pytest.approx(np.abs(entries).max(), rel=1e-10)

    def test_constant_symbol_is_identity_multiplier(self):
        res = norm_lower_bound(catalog("constant_one"), Box.interval(-3, 3), 3.0,
                               budget={"restarts": 2, "iterations": 20})
        assert res.value == 1.0

    def test_rank_one_attains_sup(self):
        # rank-one symbols multiply as sup|m| at every p; frozen search output
        m = catalog("rank_one", seed=7)
        win = Box.interval(-6, 6)
        res = norm_lower_bound(m, win, 2.5,
                               budget={"restarts": 4, "iterations": 80}, seed=1)
        sup = float(np.abs(m.values_on(win, win)).max())
        assert res.value == pytest.approx(sup, rel=1e-12)
        assert res.value == pytest.approx(0.8443443278048262, abs=1e-12)

    def test_witness_certifies_value(self):
        m = catalog("triangular")
        win = Box.interval(-4, 4)
        res = norm_lower_bound(m, win, 4.0,
                               budget={"restarts": 3, "iterations": 40}, seed=2)
        num = schatten_norm(apply_schur(m, res.witness), 4.0)
        den = schatten_norm(res.witness, 4.0)
        assert res.value == pytest.approx(num / den, rel=1e-13)
        assert res.verify(m) == pytest.approx(res.value, rel=1e-13)

    def test_verify_recomputes_from_singular_values(self, monkeypatch):
        # the certificate must not rest on the even-p matrix-product kernel:
        # with that kernel broken, verify still reproduces the value
        m = catalog("lacunary_toeplitz", seed=1)
        res = norm_lower_bound(m, Box.interval(-4, 4), 4.0,
                               budget={"restarts": 2, "iterations": 20}, seed=3)
        witness = res.witness
        before = schatten_norm(witness, 4.0)
        monkeypatch.setattr(schatten, "_even_power_sum",
                            lambda Y, k: 2.0 * np.ones(Y.shape[:-2]))
        assert schatten_norm(witness, 4.0) != pytest.approx(before)
        assert res.verify(m) == pytest.approx(res.value, rel=1e-13)

    def test_verify_catches_tampered_value(self):
        m = catalog("triangular")
        res = norm_lower_bound(m, Box.interval(-2, 2), 3.0,
                               budget={"restarts": 2, "iterations": 20})
        res.value += 1e-6
        with pytest.raises(AssertionError, match="drifted"):
            res.verify(m)

    def test_zero_symbol_flagged(self):
        win = Box.interval(0, 4)
        z = DiscreteSymbol.dense(win, win, np.zeros((4, 4), dtype=complex))
        res = norm_lower_bound(z, win, 2.0)
        assert res.value == 0.0
        assert res.flags["zero_symbol"]
        assert res.verify(z) == 0.0

    def test_scaling_at_p2(self):
        m = catalog("lacunary_toeplitz", seed=3)
        win = Box.interval(-4, 4)
        kw = dict(budget={"restarts": 2, "iterations": 30}, seed=0)
        one = norm_lower_bound(m, win, 2.0, **kw)
        three = norm_lower_bound(3.0 * m, win, 2.0, **kw)
        assert three.value == pytest.approx(3.0 * one.value, rel=1e-12)

    def test_seed_reproducibility(self):
        m = catalog("smooth_homogeneous")
        win = Box.interval(-5, 5)
        kw = dict(budget={"restarts": 4, "iterations": 50}, seed=11)
        a = norm_lower_bound(m, win, 3.0, **kw)
        b = norm_lower_bound(m, win, 3.0, **kw)
        assert a.value == b.value
        assert np.array_equal(a.witness.data, b.witness.data)

    def test_p_domain(self):
        m = catalog("triangular")
        win = Box.interval(0, 2)
        for bad in (1.0, 0.5, float("inf")):
            with pytest.raises(ValueError):
                norm_lower_bound(m, win, bad)

    def test_budget_validation(self):
        m = catalog("triangular")
        win = Box.interval(0, 2)
        with pytest.raises(ValueError):
            norm_lower_bound(m, win, 2.0, budget={"restarts": 0})
        with pytest.raises(ValueError):
            norm_lower_bound(m, win, 2.0, budget={"iterations": -1})


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _is_matrix_unit(X):
    return np.count_nonzero(X) == 1 and np.abs(X).max() == 1.0


class TestUnitStart:
    def test_matrix_unit_is_a_critical_point(self):
        # the central difference of the ratio at E along H vanishes: as h
        # falls 4-fold it falls 16-fold for p >= 2, and 4^p-fold for p < 2,
        # where the small singular values of E + hH add |h|^p terms; at a
        # generic point it stays O(1)
        rng = np.random.default_rng(41)
        m = _random_complex(rng, (6, 6))
        E = estimator._unit_start(m)

        def slope(X, H, p):
            def ratio(Y):
                return _svd_schatten_norm(m * Y, p) / _svd_schatten_norm(Y, p)

            def central(h):
                return (ratio(X + h * H) - ratio(X - h * H)) / (2.0 * h)

            return np.log(abs(central(2e-3) / central(5e-4))) / np.log(4.0)

        for p in (4.0 / 3.0, 3.0, 4.0, 6.0):
            for _ in range(3):
                H = _random_complex(rng, (6, 6))
                assert slope(E, H, p) >= min(p, 2.0) - 0.15, p
            X = _random_complex(rng, (6, 6))
            assert abs(slope(X, _random_complex(rng, (6, 6)), p)) < 0.1, p

    @staticmethod
    def _count_ascents(monkeypatch):
        calls = []
        ascend = estimator._ascend

        def counted(table, X0, p, iterations):
            out = ascend(table, X0, p, iterations)
            calls.append((X0, iterations, out[2]))
            return out

        monkeypatch.setattr(estimator, "_ascend", counted)
        return calls

    def test_unit_start_is_scored_not_ascended(self, monkeypatch):
        calls = self._count_ascents(monkeypatch)
        m = catalog("lacunary_toeplitz", seed=3)
        win = Box.interval(-8, 8)
        res = norm_lower_bound(m, win, 4.0,
                               budget={"restarts": 1, "iterations": 30})
        ((X0, iterations, used),) = calls
        assert _is_matrix_unit(X0) and iterations == 0 and used == 0
        assert res.iterations == 0
        assert _is_matrix_unit(res.witness.data)
        sup = np.abs(m.values_on(win, win)).max()
        assert res.value == pytest.approx(sup, rel=1e-15, abs=0)

    def test_p2_runs_the_unit_start_alone(self, monkeypatch):
        # restarts and warm starts are dropped at p = 2: the amplified search
        # carries the embedded k = 1 witness, the growth search the previous
        # window's witness, and neither is run
        calls = self._count_ascents(monkeypatch)
        m = catalog("lacunary_toeplitz", seed=3)
        win = Box.interval(-6, 6)
        budget = {"restarts": 5, "iterations": 30}
        amp = cb_lower_bound(m, win, 2.0, 2, budget=budget, seed=1)
        rows = growth_experiment(m, [2.0], [3, 6], budget=budget, seed=1)
        assert len(calls) == 2 + 2
        assert all(_is_matrix_unit(X0) and iterations == used == 0
                   for X0, iterations, used in calls)
        assert amp.iterations == 0 and _is_matrix_unit(amp.witness.data)
        sup = np.abs(m.values_on(win, win)).max()
        assert amp.value == pytest.approx(sup, rel=1e-15, abs=0)
        for r, n in zip(rows, (3, 6)):
            box = Box.interval(-n, n)
            assert r["iterations_used"] == 0
            assert r["estimate"] == pytest.approx(
                np.abs(m.values_on(box, box)).max(), rel=1e-15, abs=0)


# The values the full search reported before the rank-one certificate,
# budget 3 x 30, seed 1, on the window [-6, 6) and the growth window [-3, 3),
# per (symbol seed, p). Its amplified searches ended 1-2 ulps above the plain
# value at p = 6 for seeds 1 and 2, from random starts; they now report the
# unit start's bits. The witness is certified on its 1 x 1 block, which moved
# (2, "4/3") from 0.9021788876835802 (an n x n SVD) by 2 ulps.
_RANK_ONE_VALUES = {
    (0, "4/3"): (0.8801226072827439, 0.7931904589839127),
    (0, "4"): (0.8801226072827439, 0.7931904589839127),
    (0, "6"): (0.8801226072827439, 0.7931904589839127),
    (1, "4/3"): (0.9810476814404524, 0.9087232051339312),
    (1, "4"): (0.9810476814404524, 0.9087232051339313),
    (1, "6"): (0.9810476814404524, 0.9087232051339313),
    (2, "4/3"): (0.9021788876835805, 0.7068767284708434),
    (2, "4"): (0.9021788876835803, 0.7068767284708435),
    (2, "6"): (0.9021788876835803, 0.7068767284708435),
    (3, "4/3"): (0.7623904563968078, 0.7566826748619357),
    (3, "4"): (0.7623904563968078, 0.7566826748619357),
    (3, "6"): (0.7623904563968078, 0.7566826748619357),
}


class TestRankOneCertificate:
    """A rank-one table attains sup|m| at the unit start, and runs no search."""

    @pytest.mark.parametrize("p", ["4/3", "4", "6"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, None])
    def test_unit_start_value_with_no_steps(self, seed, p):
        m = catalog("constant_one") if seed is None else catalog("rank_one", seed=seed)
        want, want_small = (1.0, 1.0) if seed is None else _RANK_ONE_VALUES[seed, p]
        pf = float(Fraction(p))
        kw = dict(budget={"restarts": 3, "iterations": 30}, seed=1)
        win = Box.interval(-6, 6)
        plain = norm_lower_bound(m, win, pf, **kw)
        amp = cb_lower_bound(m, win, pf, 2, **kw)
        rows = growth_experiment(m, [pf], [3, 6], **kw)
        for res in (plain, amp):
            assert res.iterations == 0 and res.flags["rank_one"]
            assert res.flags["line_search"] == dict.fromkeys(estimator.LINE_SEARCH_COUNTS, 0)
            res.verify(m)
        assert (plain.value, amp.value) == (want, want)
        assert [r["estimate"] for r in rows] == [want_small, want]
        assert [r["iterations_used"] for r in rows] == [0, 0]

    def test_perturbed_table_still_searches(self):
        win = Box.interval(-6, 6)
        table = catalog("rank_one", seed=1).values_on(win, win)
        perturbed = table + 1e-6 * _random_complex(np.random.default_rng(71), table.shape)
        assert not estimator._is_rank_one(perturbed)
        m = DiscreteSymbol.dense(win, win, perturbed)
        res = norm_lower_bound(m, win, 4.0, budget={"restarts": 3, "iterations": 30})
        assert res.iterations > 0 and "rank_one" not in res.flags
        assert res.flags["line_search"]["direct"] > 0


class TestNormGradient:
    def test_even_p_matches_svd_gradient(self):
        rng = np.random.default_rng(31)
        Y = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        u = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        deficient = u @ np.conj(u.T)
        for X in (Y, deficient, np.zeros((4, 4), dtype=complex)):
            U, sig, Vh = np.linalg.svd(X)
            for p in (2, 4, 6, 8):
                want = (U * (p * sig ** (p - 1.0))) @ Vh
                got = _norm_gradient(X, p)
                scale = max(np.abs(want).max(), 1e-300)
                assert np.abs(got - want).max() <= 1e-13 * scale, p

    def test_other_p_uses_svd(self):
        rng = np.random.default_rng(32)
        Y = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        U, sig, Vh = np.linalg.svd(Y)
        for p in (4.0 / 3.0, 3.0, 2.5):
            want = (U * (p * sig ** (p - 1.0))) @ Vh
            assert np.array_equal(_norm_gradient(Y, p), want)


class TestAmplified:
    def test_k1_delegates(self):
        m = catalog("triangular")
        win = Box.interval(-3, 3)
        kw = dict(budget={"restarts": 3, "iterations": 30}, seed=5)
        plain = norm_lower_bound(m, win, 3.0, **kw)
        amp = cb_lower_bound(m, win, 3.0, 1, **kw)
        assert amp.value == plain.value
        assert np.array_equal(amp.witness.data, plain.witness.data)

    def test_k2_never_below_k1(self):
        # the unamplified witness embeds into one block slot, so the k = 2
        # search starts at the k = 1 value
        m = catalog("triangular")
        win = Box.interval(-4, 4)
        kw = dict(budget={"restarts": 4, "iterations": 40}, seed=9)
        k1 = cb_lower_bound(m, win, 4.0, 1, **kw)
        k2 = cb_lower_bound(m, win, 4.0, 2, **kw)
        assert k2.value >= k1.value - 1e-12
        assert k1.value == pytest.approx(1.0019604103897, abs=1e-10)
        assert k2.flags["k_amp"] == 2
        assert k2.window.npoints == 2 * win.npoints

    def test_amplified_table_is_blockwise_constant(self):
        m = catalog("lacunary_toeplitz", seed=2)
        win = Box.interval(0, 3)
        res = cb_lower_bound(m, win, 2.0, 3,
                             budget={"restarts": 2, "iterations": 20})
        # p = 2 again gives sup|m|, unchanged by amplification
        assert res.value == pytest.approx(
            np.abs(m.values_on(win, win)).max(), rel=1e-10)

    @pytest.mark.parametrize("m,window,p", [
        (catalog("triangular"), Box.interval(-4, 4), 4.0),
        (load_symbol({"kind": "toeplitz", "d": 2,
                      "phi": "cos(0.83*k1 + 1.21*k2) / (1 + k1*k1 + k2*k2)"}),
         Box.cube(-2, 2, 2), 3.0),
    ], ids=["triangular", "toeplitz_d2"])
    def test_verify_certifies_amplified_results(self, m, window, p):
        # the witness lives on window x block slot; verify rebuilds the
        # block-constant table from flags["k_amp"] and recomputes the ratio
        res = cb_lower_bound(m, window, p, 2,
                             budget={"restarts": 3, "iterations": 40}, seed=2)
        assert res.flags["k_amp"] == 2 and res.iterations > 0
        assert res.verify(m) == pytest.approx(res.value, rel=0, abs=1e-12)
        res.value += 1e-6
        with pytest.raises(AssertionError, match="drifted"):
            res.verify(m)

    def test_zero_symbol_and_bad_k(self):
        win = Box.interval(0, 3)
        z = DiscreteSymbol.dense(win, win, np.zeros((3, 3), dtype=complex))
        res = cb_lower_bound(z, win, 2.0, 2)
        assert res.value == 0.0 and res.flags["zero_symbol"]
        with pytest.raises(ValueError):
            cb_lower_bound(catalog("triangular"), win, 2.0, 0)


class TestGrowthExperiment:
    def test_warm_start_monotone(self):
        m = catalog("triangular")
        rows = growth_experiment(m, [2.0, 3.0], [2, 4, 8],
                                 budget={"restarts": 2, "iterations": 20},
                                 seed=0)
        assert len(rows) == 6
        for p in (2.0, 3.0):
            ests = [r["estimate"] for r in rows if r["p"] == p]
            assert all(b >= a - 1e-12 for a, b in zip(ests, ests[1:]))

    def test_row_schema_and_reference(self):
        m = catalog("lacunary_toeplitz", seed=0)
        rows = growth_experiment(m, [Fraction(4, 3)], [2, 4],
                                 budget={"restarts": 1, "iterations": 10})
        want_keys = {"symbol", "d", "p", "N", "k_amp", "estimate", "reference",
                     "ratio", "restarts", "iterations_budget",
                     "iterations_used", "seed"}
        for r in rows:
            assert set(r) == want_keys
            assert r["p"] == Fraction(4, 3)
            pf = 4.0 / 3.0
            assert r["reference"] == pytest.approx((pf * pf / (pf - 1.0)) ** 3)
            assert r["ratio"] == pytest.approx(r["estimate"] / r["reference"])
            assert r["k_amp"] == 1

    def test_unsorted_sizes_are_sorted(self):
        m = catalog("triangular")
        rows = growth_experiment(m, [2.0], [8, 2, 4],
                                 budget={"restarts": 1, "iterations": 10})
        assert [r["N"] for r in rows] == [2, 4, 8]

    def test_iterations_used_are_the_search_steps(self):
        # the smallest window has no warm start, so its row repeats a plain
        # search; the budget column holds the budget, not the steps
        m = catalog("smooth_homogeneous")
        budget = {"restarts": 2, "iterations": 7}
        rows = growth_experiment(m, [4.0], [3, 5], budget=budget, seed=4)
        plain = norm_lower_bound(m, Box.interval(-3, 3), 4.0, budget=budget,
                                 seed=4)
        assert rows[0]["iterations_used"] == plain.iterations > 0
        for r in rows:
            assert r["iterations_budget"] == 7
            assert 0 <= r["iterations_used"] <= 7 * (budget["restarts"] + 1)


def _symbol(name, seed):
    """A catalog symbol, seeded where the catalog entry takes a seed."""
    seeded = name in ("lacunary_toeplitz", "rank_one")
    return catalog(name, seed=seed) if seeded else catalog(name)


def _count_svds(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


class TestDualExponentSearch:
    """p < 2 is searched at q = p/(p-1) and certified at p."""

    def test_dual_exponent_is_exact(self):
        for p, q in ((4.0 / 3.0, 4.0), (float(Fraction(4, 3)), 4.0),
                     (6.0 / 5.0, 6.0), (1.5, 3.0), (1.05, 21.0)):
            assert estimator._dual_exponent(p) == q, p
        # an exponent that is no simple fraction still gets its own dual
        p = 1.2345678901234567
        assert estimator._dual_exponent(p) == pytest.approx(p / (p - 1.0), rel=1e-15)

    @pytest.mark.parametrize("name,floor", [("triangular", 1.04),
                                            ("lacunary_toeplitz", 1.70)])
    def test_default_budget_floors_at_four_thirds(self, name, floor):
        # searched at p = 4/3 itself, these stalled at 1.00001 and 1.0958
        m = _symbol(name, 0)
        res = norm_lower_bound(m, Box.interval(-16, 16), Fraction(4, 3), seed=0)
        assert res.value >= floor
        assert res.flags["search_p"] == 4.0
        assert res.verify(m) == pytest.approx(res.value, rel=0, abs=1e-12)

    def test_search_p_flag_only_below_two(self):
        m = catalog("triangular")
        win = Box.interval(-4, 4)
        budget = {"restarts": 2, "iterations": 10}
        assert "search_p" not in norm_lower_bound(m, win, 2.0, budget=budget).flags
        assert "search_p" not in norm_lower_bound(m, win, 3.0, budget=budget).flags
        assert norm_lower_bound(m, win, 1.5, budget=budget).flags["search_p"] == 3.0

    @pytest.mark.parametrize("p", [Fraction(4, 3), Fraction(3, 2), Fraction(6, 5)],
                             ids=["4/3", "3/2", "6/5"])
    def test_growth_rows_nondecreasing_below_two(self, p):
        # warm starts enter the dual search through the duality map, which
        # never lowers the ratio, so each row is at least the previous one
        budget = {"restarts": 2, "iterations": 30}
        for name in ("triangular", "lacunary_toeplitz", "rank_one",
                     "smooth_homogeneous"):
            for seed in range(4):
                rows = growth_experiment(_symbol(name, seed), [p], [4, 8, 16, 32],
                                         budget=budget, seed=seed)
                ests = [r["estimate"] for r in rows]
                assert all(b >= a * (1.0 - 1e-12) for a, b in zip(ests, ests[1:])), \
                    (name, seed, ests)

    def test_zero_warm_start_stays_finite(self):
        # the symbol vanishes on the first window, whose zero witness then
        # warm-starts the second: its duality map must not divide by zero
        m = DiscreteSymbol.callback(
            lambda s, t: (np.abs(s[:, 0] - t[:, 0]) >= 4).astype(complex))
        rows = growth_experiment(m, [Fraction(4, 3)], [2, 4],
                                 budget={"restarts": 2, "iterations": 10})
        assert rows[0]["estimate"] == 0.0
        assert np.isfinite(rows[1]["estimate"]) and rows[1]["estimate"] >= 1.0 - 1e-12

    def test_amplified_never_below_base_at_four_thirds(self):
        m = catalog("lacunary_toeplitz", seed=1)
        win = Box.interval(-4, 4)
        kw = dict(budget={"restarts": 3, "iterations": 30}, seed=3)
        k1 = cb_lower_bound(m, win, Fraction(4, 3), 1, **kw)
        k2 = cb_lower_bound(m, win, Fraction(4, 3), 2, **kw)
        assert k2.value >= k1.value - 1e-12
        assert k2.flags == {"k_amp": 2, "search_p": 4.0,
                            "line_search": k2.flags["line_search"]}
        for res in (k1, k2):
            assert res.verify(m) == pytest.approx(res.value, rel=0, abs=1e-12)

    @pytest.mark.parametrize("p", [Fraction(4, 3), 4.0 / 3.0, Fraction(6, 5), 6.0 / 5.0],
                             ids=["4/3", "4/3-float", "6/5", "6/5-float"])
    @pytest.mark.parametrize("iterations", [0, 5, 60])
    def test_ascent_takes_no_svd(self, monkeypatch, p, iterations):
        # at even q every step takes matrix products; the two SVDs are the
        # certification norms at p
        calls = _count_svds(monkeypatch)
        m = catalog("lacunary_toeplitz", seed=2)
        res = norm_lower_bound(m, Box.interval(-6, 6), p,
                               budget={"restarts": 3, "iterations": iterations})
        assert len(calls) == 2
        assert iterations == 0 or res.iterations > 0

    def test_growth_svds_are_certification_and_warm_starts(self, monkeypatch):
        calls = _count_svds(monkeypatch)
        growth_experiment(catalog("triangular"), [Fraction(4, 3)], [2, 4, 8],
                          budget={"restarts": 3, "iterations": 20})
        assert len(calls) == 3 * 2 + 2

    def test_large_dual_exponent_is_finite(self):
        # p = 1.05 gives q = 21, past the matrix-product kernels: the maps take
        # SVDs, with singular values scaled to at most 1 before the power
        m = catalog("lacunary_toeplitz", seed=0)
        win = Box.interval(-8, 8)
        res = norm_lower_bound(m, win, 1.05,
                               budget={"restarts": 3, "iterations": 30})
        sup = np.abs(m.values_on(win, win)).max()
        assert np.isfinite(res.value) and res.value >= sup
        assert res.flags["search_p"] == 21.0
        assert res.verify(m) == pytest.approx(res.value, rel=0, abs=1e-12)


def _tables():
    win = Box.interval(-5, 5)
    rng = np.random.default_rng(51)
    yield catalog("triangular").values_on(win, win)
    yield catalog("lacunary_toeplitz", seed=1).values_on(win, win)
    yield catalog("smooth_homogeneous").values_on(win, win)
    yield _random_complex(rng, (10, 10))


class TestDualityMap:
    def test_multiplier_is_self_adjoint_under_bilinear_pairing(self):
        rng = np.random.default_rng(52)
        for m in _tables():
            A, B = _random_complex(rng, m.shape), _random_complex(rng, m.shape)
            assert np.sum((m * A) * B) == pytest.approx(np.sum(A * (m * B)), rel=1e-13)

    @pytest.mark.parametrize("p", [4.0 / 3.0, 1.5, 3.0, 4.0])
    def test_ratio_never_falls_across_the_map(self, p):
        # Hoelder: <m Y, X> = <Y, m X> = ||m X||_p ||Y||_q for Y the map of X
        rng = np.random.default_rng(53)
        q = estimator._dual_exponent(p)

        def ratio(m, X, r):
            return _svd_schatten_norm(m * X, r) / _svd_schatten_norm(X, r)

        for m in _tables():
            for _ in range(3):
                X = _random_complex(rng, m.shape)
                Y = estimator._duality_map(m, X, p)
                assert ratio(m, Y, q) >= ratio(m, X, p) * (1.0 - 1e-12)

    @pytest.mark.parametrize("p", [4.0 / 3.0, 1.5, 3.0, 4.0])
    def test_matrix_unit_maps_to_a_multiple_of_itself(self, p):
        for m in _tables():
            E = estimator._unit_start(m)
            Y = estimator._duality_map(m, E, p)
            assert np.count_nonzero(np.abs(Y) > 1e-14 * np.abs(Y).max()) == 1
            i, j = np.argwhere(E)[0]
            assert abs(Y[i, j]) > 0.0


def _formed_ascend(table, X0, p, iterations):
    """The ascent with every candidate formed and scored by schatten_norm."""
    X = X0 / schatten_norm(X0, p)
    val = schatten_norm(table * X, p)
    used = 0
    for _ in range(iterations):
        grad = np.conj(table) * _norm_gradient(table * X, p)
        step, cand = 0.5, None
        while step > 1e-13:
            Xc = X + step * grad
            nc = schatten_norm(Xc, p)
            if nc > 0.0 and schatten_norm(table * (Xc / nc), p) > val:
                cand = Xc / nc
                break
            step *= 0.5
        if cand is None:
            break
        new = schatten_norm(table * cand, p)
        gain = (new - val) / val
        val, X, used = new, cand, used + 1
        if gain < 1e-9:
            break
    return val, X, used


def _count_norms(monkeypatch):
    calls = []
    norm = estimator.schatten_norm

    def counted(A, p):
        calls.append(p)
        return norm(A, p)

    monkeypatch.setattr(estimator, "schatten_norm", counted)
    return calls


class TestGramLineSearch:
    """Even-p backtracking scores candidates from the Gram expansion."""

    @pytest.mark.parametrize("p", [4, 6, 8])
    def test_expansion_matches_formed_norms(self, p):
        rng = np.random.default_rng(61)
        m = _random_complex(rng, (7, 7))
        u = _random_complex(rng, (7, 2))
        generic = _random_complex(rng, (7, 7))
        deficient = u @ np.conj(u.T)
        for X in (generic, deficient):
            Y = m * X
            for g in (_random_complex(rng, (7, 7)), np.zeros((7, 7), dtype=complex)):
                line = estimator._gram_line(m, X, Y, schatten._gram(Y), g, p // 2)
                assert len(line[0]) == len(line[1]) == p + 1
                for h in (2.0 ** -2, 2.0 ** -10, 2.0 ** -40):
                    nx, ny = estimator._line_norms(line, h, p)
                    Z = X + h * g
                    assert nx == pytest.approx(schatten_norm(Z, p), rel=1e-13, abs=0)
                    assert ny == pytest.approx(schatten_norm(m * Z, p), rel=1e-13, abs=0)
                    c0, c1, c2 = line[2]
                    gy = c0 + h * c1 + (h * h) * c2
                    W = m * Z
                    assert np.abs(gy - np.conj(W.T) @ W).max() <= 1e-13 * np.abs(gy).max()

    def test_failed_line_search_products_do_not_grow_with_halvings(self):
        # a stalled start's line search at p = 6 fails after about 40
        # halvings; the trace polynomials cost a fixed number of matrix
        # products, where scoring each halving from its own Gram costs one
        # product per halving and side
        products = []

        class Counted(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                args = [np.asarray(x) if isinstance(x, np.ndarray) else x for x in inputs]
                if ufunc is np.matmul and all(min(a.shape[-2:]) > 1 for a in args):
                    products.append(1)
                out = getattr(ufunc, method)(*args, **kwargs)
                return out.view(Counted) if isinstance(out, np.ndarray) else out

        m = catalog("lacunary_toeplitz", seed=0)
        win = Box.interval(-16, 16)
        table = m.values_on(win, win)
        res = norm_lower_bound(m, win, 6.0, budget={"restarts": 3, "iterations": 100})
        _, _, used, counts = estimator._ascend(table.view(Counted),
                                               res.witness.data.view(Counted), 6.0, 1)
        assert counts["failed"] == 1 and used == 0 and counts["expansion"] >= 40
        assert len(products) < 30

    def test_failed_line_search_forms_no_candidates(self, monkeypatch):
        # a finished search's witness is a stalled start: its line search
        # backtracks to the smallest steps, which the expansion scores with
        # no schatten_norm call (formed candidates take two per halving)
        m = catalog("lacunary_toeplitz", seed=0)
        win = Box.interval(-16, 16)
        table = m.values_on(win, win)
        res = norm_lower_bound(m, win, 4.0, budget={"restarts": 3, "iterations": 100})
        calls = _count_norms(monkeypatch)
        _, _, used, counts = estimator._ascend(table, res.witness.data, 4.0, 1)
        assert counts["direct"] == 1 and counts["expansion"] >= 20
        assert counts["failed"] + used == 1
        # the start's two norms and the h = 1/2 candidate's denominator;
        # forming every candidate takes 88 calls here
        assert len(calls) == 3

    def test_unit_score_builds_nothing(self, monkeypatch):
        m = catalog("lacunary_toeplitz", seed=0).values_on(Box.interval(-8, 8),
                                                           Box.interval(-8, 8))
        calls = _count_norms(monkeypatch)
        for name in ("_gram", "_gram_line", "_norm_gradient"):
            monkeypatch.setattr(estimator, name, None)
        val, _, used, counts = estimator._ascend(m, estimator._unit_start(m), 4.0, 0)
        assert len(calls) == 2 and used == 0
        assert counts == {"direct": 0, "expansion": 0, "failed": 0}
        assert val == pytest.approx(np.abs(m).max(), rel=1e-15, abs=0)

    @pytest.mark.parametrize("p", [3.0, 2.5])
    def test_other_p_keeps_the_formed_loop(self, p):
        rng = np.random.default_rng(62)
        for m in _tables():
            X0 = _random_complex(rng, m.shape)
            val, X, used, counts = estimator._ascend(m, X0, p, 40)
            want = _formed_ascend(m, X0, p, 40)
            assert (val, used) == want[::2] and np.array_equal(X, want[1])
            assert counts["expansion"] == 0 and counts["direct"] >= used

    @pytest.mark.parametrize("p", [4.0, 6.0])
    def test_even_p_matches_the_formed_loop(self, p):
        rng = np.random.default_rng(63)
        expanded = 0
        for m in _tables():
            for _ in range(2):
                X0 = _random_complex(rng, m.shape)
                val, _, used, counts = estimator._ascend(m, X0, p, 60)
                want, _, want_used = _formed_ascend(m, X0, p, 60)
                assert val == pytest.approx(want, rel=1e-12, abs=0)
                assert abs(used - want_used) <= 2
                expanded += counts["expansion"]
        assert expanded > 0

    def test_counts_reach_the_result(self):
        m = catalog("triangular")
        win = Box.interval(-4, 4)
        kw = dict(budget={"restarts": 3, "iterations": 40}, seed=2)
        k1 = cb_lower_bound(m, win, 4.0, 1, **kw)
        k2 = cb_lower_bound(m, win, 4.0, 2, **kw)
        ls1, ls2 = k1.flags["line_search"], k2.flags["line_search"]
        assert set(ls1) == {"direct", "expansion", "failed"}
        assert ls1["direct"] >= k1.iterations > 0
        # the amplified counts include the unamplified search
        assert all(ls2[key] >= ls1[key] for key in ls1)
        assert norm_lower_bound(m, win, 2.0).flags["line_search"] == dict.fromkeys(ls1, 0)


def _gram_and_svd_shapes(monkeypatch):
    """Records the shape of every Gram product and SVD the estimator forms."""
    shapes = []
    gram, svd = schatten._gram, np.linalg.svd

    def counted_gram(Y):
        shapes.append(Y.shape)
        return gram(Y)

    def counted_svd(A, *args, **kwargs):
        shapes.append(A.shape)
        return svd(A, *args, **kwargs)

    monkeypatch.setattr(schatten, "_gram", counted_gram)
    monkeypatch.setattr(estimator, "_gram", counted_gram)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    return shapes


class TestBlockRule:
    """Starts and witnesses are computed on their nonzero rows and columns."""

    @pytest.mark.parametrize("zero_row", [False, True], ids=["dense", "zero_row"])
    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0])
    @pytest.mark.parametrize("name", ["triangular", "lacunary_toeplitz",
                                      "smooth_homogeneous"])
    def test_padded_ascent_stays_on_its_block(self, name, p, zero_row):
        # a start on [-8, 8), zero-padded into [-16, 16): at even p every
        # direction p Y (Y* Y)^(k-1) is exactly zero off the block, at other
        # p U S^(p-1) V* is zero up to SVD rounding: below 1e-20 on the
        # padding, about 1e-17 on a zero row between live ones. Such a row
        # leaves more live columns than rows, and the block is squared up
        # with a zero row from outside the small window.
        m = _symbol(name, 0)
        big, small = Box.interval(-16, 16), Box.interval(-8, 8)
        idx, _ = big.index_array(small.points_array())
        table = m.values_on(big, big)
        X0 = estimator._random_start((small.npoints,) * 2, 0, 1)
        if zero_row:
            X0[3] = 0.0
        padded = np.zeros(table.shape, dtype=complex)
        padded[np.ix_(idx, idx)] = X0
        block, table_b, X0_b = estimator._restrict(table, padded)
        assert table_b.shape == X0.shape
        if not zero_row:
            assert np.array_equal(table_b, m.values_on(small, small))
            assert np.array_equal(X0_b, X0)
        val, X, used, _ = estimator._ascend(table, padded, p, 60)
        val_b, X_b, used_b, _ = estimator._ascend(table_b, X0_b, p, 60)
        off = X.copy()
        off[block] = 0.0
        leak = 0.0 if p in (4.0, 6.0) else 1e-15 if zero_row else 1e-20
        assert np.abs(off).max() <= leak
        assert val == pytest.approx(val_b, rel=1e-15, abs=0)
        # the 1e-9 stop can fall either side of a last step whose gain is
        # rounding: on lacunary at p = 2.5 and 4 one of the two takes it
        assert abs(used - used_b) <= 1

    def test_block_is_square_and_holds_the_support(self):
        X = np.zeros((6, 6), dtype=complex)
        assert estimator._block(np.ones((6, 6))) is None
        rows, cols = estimator._block(X)
        assert rows.size == cols.size == 0
        X[1, 2] = X[4, 2] = 1.0
        rows, cols = estimator._block(X)
        assert rows.ravel().tolist() == [1, 4] and cols.ravel().tolist() == [0, 2]
        X[:, 5] = 1.0
        assert estimator._block(X) is None  # every row is live

    @pytest.mark.parametrize("p", [3.0, 4.0])
    def test_matrix_unit_starts_take_one_by_one_work(self, monkeypatch, p):
        # one restart runs the unit start alone, and growth pads the previous
        # window's unit witness: every norm, Gram and SVD is 1 x 1, where
        # the full matrices at N = 64 are 128 x 128
        shapes = _gram_and_svd_shapes(monkeypatch)
        budget = {"restarts": 1}
        res = norm_lower_bound(catalog("triangular"), Box.interval(-64, 64), p,
                               budget=budget)
        rows = growth_experiment(catalog("triangular"), [p], [32, 64], budget=budget)
        assert shapes and set(shapes) == {(1, 1)}
        assert res.value == rows[-1]["estimate"] == 1.0

    def test_warm_start_without_a_step_repeats_the_row(self):
        # the warm start is the previous witness on the previous table, so
        # where it wins without a step the row keeps the previous bits
        m = catalog("lacunary_toeplitz", seed=0)
        rows = growth_experiment(m, [4.0, 6.0], [16, 32, 64],
                                 budget={"restarts": 3}, seed=0)
        assert [r["estimate"] for r in rows] == (
            [1.453657281876352] * 3 + [1.5604782003447284] * 3)
