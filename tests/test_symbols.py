"""Symbol construction, the named catalog, and the JSON spec loader."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from schurkit import (
    Box,
    ContinuousSymbol,
    DiscreteSymbol,
    LabeledMatrix,
    SymbolError,
    WindowCapError,
    apply_fourier_multiplier,
    catalog,
    catalog_names,
    load_symbol,
    pi_embed,
)


class TestDiscreteSymbol:
    def test_dense_eval_and_call(self):
        rows, cols = Box.interval(0, 2), Box.interval(5, 7)
        m = DiscreteSymbol.dense(rows, cols, [[1, 2j], [3, 4]])
        assert m((0,), (6,)) == 2j
        assert m((1,), (5,)) == 3

    def test_dense_outside_raises(self):
        m = DiscreteSymbol.dense(Box.interval(0, 2), Box.interval(0, 2), np.eye(2))
        with pytest.raises(SymbolError):
            m((2,), (0,))

    def test_toeplitz_depends_on_difference(self):
        m = DiscreteSymbol.toeplitz(lambda k: k[:, 0].astype(complex) ** 2, d=1)
        assert m((5,), (3,)) == 4
        assert m((-1,), (-3,)) == 4

    def test_callback_2d(self):
        m = DiscreteSymbol.callback(
            lambda s, t: (s[:, 0] + s[:, 1] - t[:, 0] - t[:, 1]).astype(complex), d=2)
        assert m((2, 3), (1, 1)) == 3

    def test_values_on_layout(self):
        m = DiscreteSymbol.callback(lambda s, t: (10 * s[:, 0] + t[:, 0]).astype(complex))
        rows, cols = Box.interval(0, 2), Box.interval(0, 3)
        table = m.values_on(rows, cols)
        assert table.shape == (2, 3)
        assert table[1, 2] == 12

    def test_values_on_cap(self):
        m = catalog("constant_one")
        with pytest.raises(WindowCapError):
            m.values_on(Box.interval(0, 3000), Box.interval(0, 3000))

    def test_dimension_mismatch_product(self):
        # the Schur product of a 2-d symbol with a 1-d polynomial
        w = Box.interval(0, 2)
        f = pi_embed(LabeledMatrix(w, w, np.eye(2)))
        with pytest.raises(ValueError, match="dimension"):
            apply_fourier_multiplier(catalog("constant_one", d=2), f)
        with pytest.raises(SymbolError):
            DiscreteSymbol.dense(w, Box.cube(0, 2, 2), np.ones((2, 4)))


class TestCatalog:
    def test_names_sorted_and_complete(self):
        names = catalog_names()
        assert names == sorted(names)
        for expected in ("constant_one", "triangular", "lacunary_toeplitz",
                         "rank_one", "smooth_homogeneous", "continuous_constant",
                         "continuous_arctan", "continuous_ratio"):
            assert expected in names

    def test_unknown_name(self):
        with pytest.raises(SymbolError, match="valid:"):
            catalog("no_such_symbol")

    def test_triangular_values(self):
        m = catalog("triangular")
        assert m((3,), (3,)) == 1
        assert m((4,), (3,)) == 1
        assert m((2,), (3,)) == 0

    def test_lacunary_unimodular_and_level_constancy(self):
        m = catalog("lacunary_toeplitz", seed=0)
        # constant on each dyadic level of |s - t|, values in {-1, +1}
        for lvl in range(1, 6):
            lo, hi = 2 ** (lvl - 1), 2**lvl
            vals = {complex(m((k,), (0,))) for k in range(lo, hi)}
            vals |= {complex(m((0,), (k,))) for k in range(lo, hi)}
            assert len(vals) == 1
            assert abs(vals.pop()) == 1.0

    def test_lacunary_seed_reproducible(self):
        a = catalog("lacunary_toeplitz", seed=3)
        b = catalog("lacunary_toeplitz", seed=3)
        ks = np.arange(-40, 41).reshape(-1, 1)
        zs = np.zeros_like(ks)
        assert np.array_equal(a.eval_pairs(ks, zs), b.eval_pairs(ks, zs))

    def test_rank_one_factorizes(self):
        m = catalog("rank_one", seed=2)
        for s, t in ((0, 0), (3, -5), (-7, 11)):
            want = m.u_table[s + m.radius] * m.v_table[t + m.radius]
            assert m((s,), (t,)) == pytest.approx(want, rel=1e-15)

    def test_smooth_homogeneous_bounded_by_one(self):
        m = catalog("smooth_homogeneous")
        tab = m.values_on(Box.interval(-20, 21), Box.interval(-20, 21))
        assert np.abs(tab).max() < 1.0

    def test_continuous_arctan_partials(self):
        M = catalog("continuous_arctan")
        assert M.has_analytic_partials
        x = np.linspace(-2, 2, 9)
        y = np.linspace(-1, 3, 9)
        num1 = (M(x + 1e-6, y) - M(x - 1e-6, y)) / 2e-6
        assert np.allclose(M.partial(1, x, y), num1, atol=1e-8)

    def test_continuous_numeric_fallback(self):
        M = ContinuousSymbol(lambda x, y: np.sin(x - 2 * y).astype(np.complex128))
        assert not M.has_analytic_partials
        got = M.partial(2, 0.3, 0.1)
        assert got == pytest.approx(-2 * math.cos(0.1), abs=1e-5)


def _pairwise_table(m, rows, cols):
    # every (row point, column point) pair evaluated on its own
    rp, cp = rows.points_array(), cols.points_array()
    return m.eval_pairs(np.repeat(rp, len(cp), axis=0),
                        np.tile(cp, (len(rp), 1))).reshape(rows.npoints, cols.npoints)


class TestToeplitzStructure:
    def test_catalog_toeplitz_symbols_are_shift_invariant(self):
        rng = np.random.default_rng(11)
        syms = [catalog(name) for name in catalog_names()
                if isinstance(catalog(name), DiscreteSymbol)]
        syms += [catalog("constant_one", d=d) for d in (2, 3)]
        syms.append(catalog("lacunary_toeplitz", seed=5))
        toeplitz = [m for m in syms if m.kind == "toeplitz"]
        assert {m.name for m in toeplitz} >= {"triangular", "constant_one"}
        for m in toeplitz:
            s = rng.integers(-500, 500, size=(200, m.d))
            t = rng.integers(-500, 500, size=(200, m.d))
            c = rng.integers(-10**6, 10**6, size=(1, m.d))
            assert np.array_equal(m.eval_pairs(s + c, t + c), m.eval_pairs(s, t))

    @pytest.mark.parametrize("m,form", [
        (catalog("triangular"),
         DiscreteSymbol.callback(lambda s, t: (s[:, 0] >= t[:, 0]).astype(complex))),
        (catalog("constant_one"),
         DiscreteSymbol.callback(lambda s, t: np.ones(len(s), dtype=complex))),
        (catalog("constant_one", d=2),
         DiscreteSymbol.callback(lambda s, t: np.ones(len(s), dtype=complex), d=2)),
    ], ids=["triangular", "constant_one", "constant_one_d2"])
    def test_catalog_tables_match_callback_forms(self, m, form):
        assert m.kind == "toeplitz"
        d = m.d
        for rows, cols in ((Box.cube(-5, 6, d), Box.cube(-5, 6, d)),
                           (Box.cube(-3, 4, d), Box.cube(0, 9, d))):
            assert np.array_equal(m.values_on(rows, cols), form.values_on(rows, cols))

    @pytest.mark.parametrize("spec", [
        {"kind": "toeplitz", "d": 1, "phi": "exp(0.37i*k1)*cos(0.7*k1)/(1+abs(k1))^0.5"},
        {"kind": "toeplitz", "d": 2,
         "phi": "exp(0.3i*k1 - 0.1*k2)*cos(0.7*k1 + 0.2*k2)/(1 + k1*k1 + k2*k2)"},
    ], ids=["d1", "d2"])
    def test_values_on_gather_matches_pairwise(self, spec):
        m = load_symbol(spec)
        d = m.d
        windows = [
            (Box.cube(-6, 6, d), Box.cube(-6, 6, d)),
            (Box.cube(-2, 5, d), Box.cube(3, 7, d)),
            (Box((0,) * d, (1,) * d), Box.cube(-4, 4, d)),
        ]
        if d == 2:
            windows.append((Box((-2, 0), (3, 4)), Box((1, -3), (4, 5))))
        syms = [m] + ([catalog("lacunary_toeplitz", seed=4), catalog("triangular")]
                      if d == 1 else [catalog("constant_one", d=2)])
        for sym in syms:
            for rows, cols in windows:
                got = sym.values_on(rows, cols)
                assert got.shape == (rows.npoints, cols.npoints)
                assert np.array_equal(got, _pairwise_table(sym, rows, cols))

    def test_lacunary_window_beyond_level_table_raises(self):
        m = catalog("lacunary_toeplitz", seed=0, levels=4)
        m.values_on(Box.interval(0, 8), Box.interval(0, 8))  # |s - t| <= 7
        with pytest.raises(SymbolError, match="exceeds the lacunary level table"):
            m.values_on(Box.interval(0, 9), Box.interval(0, 9))


class TestLoadSymbol:
    def test_dense_roundtrip(self):
        spec = {
            "kind": "dense", "d": 1,
            "rows": [[0, 2]], "cols": [[0, 2]],
            "entries": [[1, [0, 1]], [0.5, 2]],
        }
        m = load_symbol(spec)
        assert m((0,), (1,)) == 1j
        assert m((1,), (0,)) == 0.5

    def test_toeplitz_expression(self):
        m = load_symbol({"kind": "toeplitz", "d": 1, "phi": "cos(k1) / (1 + k1*k1)"})
        assert m((3,), (1,)) == pytest.approx(math.cos(2) / 5)

    def test_callback_expression(self):
        m = load_symbol({"kind": "callback", "d": 1, "expr": "s1 - t1"})
        assert m((4,), (1,)) == 3

    def test_continuous_expression_with_partials(self):
        M = load_symbol({
            "kind": "continuous", "d": 1,
            "expr": "x1 - y1", "partial1": "1 + 0*x1", "partial2": "-1 + 0*x1",
        })
        assert M(2.0, 0.5) == pytest.approx(1.5)
        assert M.partial(1, 0.0, 0.0) == pytest.approx(1.0)

    def test_json_string_and_file(self, tmp_path):
        text = json.dumps({"kind": "toeplitz", "d": 1, "phi": "k1"})
        m = load_symbol(text)
        assert m((2,), (0,)) == 2
        path = tmp_path / "sym.json"
        path.write_text(text)
        m2 = load_symbol(path)
        assert m2((2,), (0,)) == 2

    def test_guard_substitutes_nonfinite(self):
        m = load_symbol({"kind": "toeplitz", "d": 1, "phi": "1 / k1",
                         "guards": [{"value": 0}]})
        assert m((0,), (0,)) == 0
        assert m((2,), (0,)) == 0.5

    def test_unguarded_nonfinite_raises(self):
        m = load_symbol({"kind": "toeplitz", "d": 1, "phi": "1 / k1"})
        with pytest.raises(SymbolError, match="guard"):
            m((0,), (0,))

    def test_missing_kind(self):
        with pytest.raises(SymbolError, match="kind"):
            load_symbol({"d": 1})

    def test_unknown_kind(self):
        with pytest.raises(SymbolError):
            load_symbol({"kind": "mystery", "d": 1})

    def test_parse_error_carries_position(self):
        from schurkit.symbols import ParseError
        with pytest.raises(ParseError) as exc:
            load_symbol({"kind": "toeplitz", "d": 1, "phi": "k1 +"})
        assert "offset" in str(exc.value)

    def test_unknown_variable_rejected(self):
        from schurkit.symbols import ParseError
        with pytest.raises(ParseError):
            load_symbol({"kind": "toeplitz", "d": 1, "phi": "q7"})


def _pow(base, exponent):
    return np.asarray(base, dtype=complex) ** exponent


class TestExpressionGrammar:
    """Each accepted expression against the same formula written in numpy, bit for
    bit; each rejected one raises ParseError at its offset. Literals are complex,
    so exponents are written as complex numbers here too."""

    K1 = np.array([-2.5, -1.0, 0.5, 1.0, 3.0]).astype(complex)
    K2 = np.array([1.5, -0.5, 2.0, 4.0, -3.0]).astype(complex)

    ACCEPTED = [
        ("k1 + k2 - 3*k1 / 2", lambda a, b: a + b - 3 * a / 2),
        ("k1 × k2 ÷ 4", lambda a, b: a * b / 4),
        ("k1^2 + k2**3", lambda a, b: _pow(a, 2 + 0j) + _pow(b, 3 + 0j)),
        ("2^3^2 + 2**k1**2", lambda a, b: _pow(2, _pow(3, 2 + 0j)) + _pow(2, _pow(a, 2 + 0j))),
        ("-k1^2 + 2^-k2", lambda a, b: -_pow(a, 2 + 0j) + _pow(2, -b)),
        ("+k1 - -k2 * -k1", lambda a, b: a - -b * -a),
        ("2i*k1 + 3j - 1.5i + 2.5e-1j*k2 + 1E2i", lambda a, b: 2j * a + 3j - 1.5j + 0.25j * b + 100j),
        ("007*k1 + 00.5 + .5 + 1. + 2e3 + 1.5E+2", lambda a, b: 7 * a + 0.5 + 0.5 + 1.0 + 2000.0 + 150.0),
        ("abs(k1) + sign(k2)", lambda a, b: np.abs(a) + np.sign(b)),
        ("exp(1i*k1) + sin(k1) + cos(k2)", lambda a, b: np.exp(1j * a) + np.sin(a) + np.cos(b)),
        ("sqrt(k1) + log(k2) + arctan(k1)", lambda a, b: np.sqrt(a) + np.log(b) + np.arctan(a)),
        ("conj(k1 + 2i) + re(k2*(1 + 2i)) + im(k1*(1 - 2i))",
         lambda a, b: np.conj(a + 2j) + np.real(b * (1 + 2j)) + np.imag(a * (1 - 2j))),
        ("min(k1, k2, k1*k2) + max(k1, k2, k1*k2)",
         lambda a, b: np.minimum(np.minimum(a.real, b.real), (a * b).real).astype(complex)
         + np.maximum(np.maximum(a.real, b.real), (a * b).real).astype(complex)),
        # a constant argument broadcasts against the arrays
        ("max(k1, 0)", lambda a, b: np.maximum(a.real, 0.0).astype(complex)),
        ("min(2, k1, -k1)", lambda a, b: np.minimum(np.minimum(2.0, a.real), (-a).real)
         .astype(complex)),
        ("pi*k1 + e - i*k2 + j", lambda a, b: np.pi * a + np.e - 1j * b + 1j),
        ("\n  (k1 +\n   k2) / (k2 - 1)\n", lambda a, b: (a + b) / (b - 1)),
    ]

    # (expression, offset): the exact offset where the grammar itself rejects
    # the text, None where CPython's parser does (3.10 and 3.11 word and place
    # their syntax errors differently, so only "inside the text" is checked)
    REJECTED = [
        ("foo(k1)", 0),  # unknown function
        ("k1 + 2 * bar(k2)", 9),
        ("abs(k1, k2)", 0),  # arity
        ("k1 ^ max(k1)", 5),
        ("max()", 0),
        ("q7", 0),  # unbound variable
        ("k1 +\n q7", 6),
        ("k1 ^ 2 ^ x1", 9),
        ("abs + k1", 0),
        ("k1 // 2", 3),  # operator outside the grammar
        ("(k1) // 2", 5),
        ("k1^2 // 2", 5),
        ("k1 % 2", 3),  # character outside the grammar
        ("k1 < 2", 3),
        ("k1[0]", 2),
        ("'a'", 0),
        ("abs(x=k1)", 5),
        ("lambda k1: k1", 9),
        ("k1 # comment", 3),
        ("k1 \\\n+ 1", 3),
        ("π*k1", 0),
        ("k1.real", 0),  # node outside the grammar
        ("True", 0),
        ("max(*k1, k2)", 4),
        ("max(**k1)", 0),
        ("k1 if k1 else k2", 0),
        ("not k1", 0),
        ("k1 and k2", 0),
        ("k1, k2", 0),
        ("abs(k1,)", 0),
        ("(abs)(k1)", 0),
        ("abs(k1)(k2)", 0),
        ("1_0", 0),
        ("0x10", 0),
        ("1J", 0),
        ("k1 +", None),  # CPython's syntax errors
        ("", None),
        ("cos(", None),
        ("(k1", None),
        ("k1) + (k1", None),
        ("k1 k2", None),
        ("2k1", None),
        ("k1 ^^ 2", None),
        ("1.2.3", None),
        ("1if k1 else k2", None),
    ]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text, formula", ACCEPTED, ids=[t for t, _ in ACCEPTED])
    def test_accepted(self, text, formula):
        from schurkit._expr import compile_expr
        got = compile_expr(text, ["k1", "k2"])({"k1": self.K1, "k2": self.K2})
        want = np.asarray(formula(self.K1, self.K2), dtype=complex)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_overflowing_imaginary_literal_is_infj(self):
        # as Python reads 1e400j: real part 0, not the nan of 1j * inf
        from schurkit._expr import compile_expr
        for text in ("1e400i", "1e400j"):
            got = compile_expr(text, [])({})
            assert got.tobytes() == np.asarray(complex(0.0, np.inf)).tobytes()

    def test_accepted_table_calls_every_function(self):
        from schurkit._expr import _FUNCTIONS
        called = {name for text, _ in self.ACCEPTED for name in re.findall(r"(\w+)\(", text)}
        assert called == set(_FUNCTIONS)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text, offset", REJECTED, ids=[t for t, _ in REJECTED])
    def test_rejected(self, text, offset):
        from schurkit._expr import ParseError, compile_expr
        with pytest.raises(ParseError) as exc:
            compile_expr(text, ["k1", "k2"])
        if offset is None:
            assert 0 <= exc.value.position <= len(text)
        else:
            assert exc.value.position == offset


def test_readme_spec_examples_load():
    # every JSON block in the README is a symbol spec that loads and evaluates
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```json\n(.*?)```", readme.read_text(), flags=re.S)
    assert len(blocks) >= 3
    kinds = set()
    for block in blocks:
        spec = json.loads(block)
        sym = load_symbol(spec)
        kinds.add(spec["kind"])
        if isinstance(sym, ContinuousSymbol):
            x, y = np.array([0.5, -1.0]), np.array([0.0, 2.0])
            for vals in (sym(x, y), sym.partial(1, x, y), sym.partial(2, x, y)):
                assert np.all(np.isfinite(vals))
        else:
            win = Box.from_pairs(spec.get("rows", [[-1, 1]] * sym.d))
            assert np.all(np.isfinite(sym.values_on(win, win)))
    assert {"dense", "toeplitz", "continuous"} <= kinds
