"""Polynomial, rational-function and polynomial-matrix arithmetic along with
the Smith and Smith-McMillan reductions."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _helpers import (
    LAM,
    ONE,
    bareiss_det,
    cofactor_det,
    euclid_gcd,
    floordiv_reduce,
    lcm_smith_mcmillan,
    naive_poly_matmul,
    naive_poly_op,
    square_free_decomposition,
)
from rosepen.polymat import (
    Poly,
    PolyMatrix,
    RationalFn,
    RationalMatrix,
    block_transpose,
    gcd_free_base,
    horner_shift,
    multiplicity_index,
    poly_gcd,
    poly_matrix_det,
    poly_matrix_eval,
    smith_form,
    smith_form_matrix,
    smith_form_with_transforms,
    smith_mcmillan,
    zero_pole_polys,
)

DESK1_S = PolyMatrix([[LAM * LAM, ONE], [ONE, Poly([1, -1])]])
DESK1_DET = Poly([-1, 0, 1, -1])  # -lam^3 + lam^2 - 1


def rand_poly(rng, max_deg=3, lo=-4, hi=4):
    return Poly([rng.randint(lo, hi) for _ in range(rng.randint(0, max_deg) + 1)])


def rand_pm(rng, rows, cols, max_deg=2):
    return PolyMatrix([[rand_poly(rng, max_deg) for _ in range(cols)] for _ in range(rows)])


# --- Poly basics ------------------------------------------------------------

def test_zero_poly_degree_sentinel():
    z = Poly.zero()
    assert z.degree == -1 and z.is_zero
    assert Poly([0, 0]).degree == -1
    assert (z + ONE) == ONE
    assert z.divides(z) and ONE.divides(z)


def test_poly_divmod_and_gcd():
    a = Poly([-6, 11, -6, 1])  # (x-1)(x-2)(x-3)
    b = Poly([-2, 1])
    q, r = divmod(a, b)
    assert r.is_zero and q * b == a
    g = poly_gcd(a, Poly([-3, 1]) * Poly([7, 1]))
    assert g == Poly([-3, 1])


def test_poly_mode_never_switches_silently():
    with pytest.raises(ValueError):
        ONE + Poly([1.0])
    with pytest.raises(ValueError):
        poly_gcd(Poly([1.0, 1.0]), Poly([1.0]))


def test_square_free_decomposition_multiplicity_classes():
    p = (Poly([-2, 1]) ** 3) * Poly([5, 1]) * Poly([1, 0, 1])
    parts = square_free_decomposition(p)
    assert sorted((f.degree, k) for f, k in parts) == [(1, 3), (3, 1)]
    rebuilt = ONE
    for f, k in parts:
        rebuilt = rebuilt * f**k
    assert rebuilt == p.monic()


# integers, p/q with large denominators, and integers beyond 2**64
_GCD_SCALAR = (
    st.integers(-5, 5)
    | st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 10**15))
    | st.integers(-2**80, 2**80)
)


def _polys(max_degree):
    return st.lists(_GCD_SCALAR, max_size=max_degree + 1).map(Poly)


@st.composite
def _gcd_operands(draw):
    """Operand pairs sharing a planted factor, one or both zero, a nonzero
    constant, or equal; in either order."""
    common = draw(_polys(3))
    a, b = common * draw(_polys(3)), common * draw(_polys(3))
    shape = draw(st.sampled_from(["planted", "zero", "both zero", "constant", "equal"]))
    if shape == "zero":
        b = Poly.zero()
    elif shape == "both zero":
        a = b = Poly.zero()
    elif shape == "constant":
        b = Poly.constant(draw(_GCD_SCALAR.filter(bool)))
    elif shape == "equal":
        b = a
    return draw(st.permutations([a, b]))


@settings(max_examples=200, deadline=None)
@given(_gcd_operands())
def test_gcd_matches_euclid_oracle(operands):
    a, b = operands
    assert poly_gcd(a, b) == euclid_gcd(a, b)


@st.composite
def _products_of_powers(draw):
    factors = draw(st.lists(_polys(2).filter(lambda f: f.degree >= 1), min_size=1, max_size=3))
    p = Poly.constant(draw(_GCD_SCALAR.filter(bool)))
    for f in factors:
        p = p * f ** draw(st.integers(1, 3))
    return p


@settings(max_examples=60, deadline=None)
@given(_products_of_powers())
def test_square_free_decomposition_rebuilds_the_monic_input(p):
    parts = square_free_decomposition(p)
    rebuilt = ONE
    for f, k in parts:
        assert f == f.monic() and euclid_gcd(f, f.derivative()) == ONE
        rebuilt = rebuilt * f**k
    assert rebuilt == p.monic()
    for i, (f, _) in enumerate(parts):
        assert all(euclid_gcd(f, g) == ONE for g, _ in parts[i + 1 :])


@settings(max_examples=60, deadline=None)
@given(st.lists(_products_of_powers(), min_size=1, max_size=3))
def test_gcd_free_base_refines_every_input(polys):
    base, exponents = gcd_free_base(polys)
    for i, b in enumerate(base):
        assert b.degree >= 1 and b == b.monic()
        assert euclid_gcd(b, b.derivative()) == ONE
        assert all(euclid_gcd(b, c) == ONE for c in base[i + 1 :])
    for p, row in zip(polys, exponents):
        rebuilt = ONE
        for b, e in zip(base, row):
            rebuilt = rebuilt * b**e
        assert rebuilt == p.monic()


@settings(max_examples=60, deadline=None)
@given(_products_of_powers())
def test_gcd_free_base_of_one_polynomial_is_its_square_free_decomposition(p):
    base, (exponents,) = gcd_free_base([p])
    assert sorted(zip(base, exponents), key=lambda bk: bk[1]) == square_free_decomposition(p)


def test_square_free_parts_and_base_divide_no_polynomial(monkeypatch):
    # one exact division, on primitive integer coefficients
    calls = []
    divmod_poly = Poly.__divmod__

    def counting(self, other):
        calls.append(1)
        return divmod_poly(self, other)

    monkeypatch.setattr(Poly, "__divmod__", counting)
    a = Poly([F(-1, 3), F(2, 7), 1])
    b = Poly([F(5, 11), F(-3, 2)])
    parts, (multiplicities,) = gcd_free_base([a**3 * b * F(-9, 4)])
    base, exponents = gcd_free_base((a**2 * b, a * b**3, b))
    assert calls == []
    assert set(zip(parts, multiplicities)) == {(b.monic(), 1), (a, 3)}
    assert set(base) == {a, b.monic()}
    assert sorted(exponents[0]) == [1, 2] and sorted(exponents[1]) == [1, 3]


def test_gcd_of_rationals_divides_no_polynomial(monkeypatch):
    # one gcd path: the integer remainder sequence, never Poly division
    calls = []
    divmod_poly = Poly.__divmod__

    def counting(self, other):
        calls.append(1)
        return divmod_poly(self, other)

    monkeypatch.setattr(Poly, "__divmod__", counting)
    common = Poly([F(-1, 3), F(2, 7), 1])
    a = common * Poly([F(5, 11), F(-3, 2)])
    b = common * Poly([F(1, 9), 0, F(4, 5)])
    assert poly_gcd(a, b) == common
    assert calls == []
    assert euclid_gcd(a, b) == common and calls


def test_rational_fn_reduced_and_monic_denominator():
    f = RationalFn(Poly([0, 2]), Poly([0, 0, 2]))  # 2 lam / 2 lam^2 = 1/lam
    assert f.num == ONE and f.den == Poly([0, 1])
    g = RationalFn(ONE, Poly([4, 2]))  # 1/(2 lam + 4)
    assert g.den == Poly([2, 1]) and g.num == Poly([F(1, 2)])
    assert f + g == RationalFn(Poly([2, F(3, 2)]), Poly([0, 2, 1]))


@st.composite
def _fractions(draw):
    """num / den pairs with a nonzero den scaled off monic and a planted
    common factor, or a zero num."""
    common = draw(_polys(3).filter(lambda p: not p.is_zero))
    den = common * draw(_polys(2).filter(lambda p: not p.is_zero))
    den = den * draw(_GCD_SCALAR.filter(lambda c: c not in (0, 1)))
    num = draw(st.sampled_from([common, ONE, Poly.zero()])) * draw(_polys(3))
    return num, den


@settings(max_examples=200, deadline=None)
@given(_fractions())
def test_rational_fn_lowest_terms_match_the_floordiv_oracle(fraction):
    f = RationalFn(*fraction)
    assert (f.num, f.den) == floordiv_reduce(*fraction)


def test_rational_fn_reduces_without_polynomial_division(monkeypatch):
    calls = []
    divmod_poly = Poly.__divmod__

    def counting(self, other):
        calls.append(1)
        return divmod_poly(self, other)

    monkeypatch.setattr(Poly, "__divmod__", counting)
    common = Poly([F(-1, 3), F(2, 7), 1])
    f = RationalFn(common * Poly([F(5, 11), F(-3, 2)]), common * Poly([4, F(2, 3)]))
    assert calls == []
    assert f.num == Poly([F(15, 22), F(-9, 4)]) and f.den == Poly([6, 1])


# --- poly_matrix_eval -------------------------------------------------------

def test_eval_constant_term():
    assert poly_matrix_eval(DESK1_S, 0) == ((F(0), F(1)), (F(1), F(1)))


def test_eval_at_one_by_substitution():
    assert poly_matrix_eval(DESK1_S, 1) == ((F(1), F(1)), (F(1), F(0)))


def test_eval_zero_matrix():
    z = PolyMatrix.zeros(2, 2)
    assert poly_matrix_eval(z, 7) == ((F(0), F(0)), (F(0), F(0)))


def test_eval_mode_mismatch():
    with pytest.raises(ValueError):
        poly_matrix_eval(DESK1_S, 0.5)
    fm = PolyMatrix([[Poly([1.0, 2.0])]])
    with pytest.raises(ValueError):
        poly_matrix_eval(fm, F(1, 2))


# Interior zeros, negative and signed-zero coefficients, unequal lengths.
ARITH_OPERANDS = {
    "exact": [
        [0, -3, 0, F(1, 2)],
        [F(-2, 3)],
        [5, 0, 0, 0, -1],
        [],
        [0, 0, 1],
        [F(7, 4), -1],
    ],
    "float": [
        [-0.0, 1.5, 0.0, -2.0],
        [0.0, -0.0, 3.0],
        [-1.0],
        [2.0, 0.0, -0.0, 0.0, -4.0],
        [],
        [-0.5, -0.0, 1.0],
    ],
}


def _exact_coeffs(p):
    return p.mode, tuple((type(c), c, math.copysign(1.0, c)) for c in p.coeffs)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_arithmetic_matches_naive_reference(mode):
    polys = [Poly(c, mode) for c in ARITH_OPERANDS[mode]]
    for p in polys:
        assert _exact_coeffs(-p) == _exact_coeffs(naive_poly_op("neg", p))
        for q in polys:
            for op, got in (("+", p + q), ("-", p - q), ("*", p * q)):
                assert _exact_coeffs(got) == _exact_coeffs(naive_poly_op(op, p, q)), (op, p, q)
            if not q.is_zero:
                got = divmod(p, q)
                want = naive_poly_op("divmod", p, q)
                assert [_exact_coeffs(x) for x in got] == [_exact_coeffs(x) for x in want]


# a constant divisor is a unit: zero coefficients of either sign, negative
# constants, and floats from subnormal to near overflow
_DIVIDEND_SCALAR = {
    "exact": _GCD_SCALAR,
    "float": st.sampled_from([0.0, -0.0]) | st.floats(allow_nan=False, allow_infinity=False),
}
_UNIT_SCALAR = {
    "exact": _GCD_SCALAR.filter(lambda c: c != 0),
    "float": st.sampled_from([-1.0, -0.5, -3.0, 2.0])
    | st.floats(allow_nan=False, allow_infinity=False).filter(lambda c: c != 0),
}


@pytest.mark.parametrize("mode", ["exact", "float"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_division_by_a_constant_matches_naive_reference(mode, data):
    p = Poly(data.draw(st.lists(_DIVIDEND_SCALAR[mode], max_size=6)), mode)
    c = Poly([data.draw(_UNIT_SCALAR[mode])], mode)
    got = divmod(p, c)
    want = naive_poly_op("divmod", p, c)
    assert [_exact_coeffs(x) for x in got] == [_exact_coeffs(x) for x in want]


# --- poly_matrix_det --------------------------------------------------------

def test_det_desk1_cofactor_value():
    # 2x2 cofactor expansion by hand: lam^2 (1 - lam) - 1
    assert poly_matrix_det(DESK1_S) == DESK1_DET


def test_det_identity():
    assert poly_matrix_det(PolyMatrix.identity(3)) == ONE


def test_det_desk1_companion_pencil():
    pencil = PolyMatrix(
        [
            [LAM, Poly.zero(), ONE],
            [Poly([-1]), LAM, Poly.zero()],
            [Poly.zero(), ONE, Poly([1, -1])],
        ]
    )
    assert poly_matrix_det(pencil) == DESK1_DET


def test_det_rejects_float_and_nonsquare():
    with pytest.raises(ValueError):
        poly_matrix_det(PolyMatrix([[Poly([1.0])]]))
    with pytest.raises(ValueError):
        poly_matrix_det(PolyMatrix([[ONE, ONE]]))


def test_det_matches_cofactor_oracle_on_random_matrices():
    rng = random.Random(42)
    for _ in range(15):
        size = rng.randint(1, 4)
        m = rand_pm(rng, size, size)
        assert poly_matrix_det(m) == cofactor_det(m)


@pytest.mark.parametrize(
    "m",
    [
        # row-degree bound 4 below column-degree bound 6
        PolyMatrix([[LAM**3, LAM**3], [ONE, Poly([1, 1])]]),
        # column-degree bound 4 below row-degree bound 6
        PolyMatrix([[LAM**3, ONE], [LAM**3, Poly([1, 1])]]),
        PolyMatrix([[LAM, ONE], [Poly.zero(), Poly.zero()]]),
        PolyMatrix([[LAM, Poly.zero()], [ONE, Poly.zero()]]),
        # bound 4, determinant -1 after cancellation
        PolyMatrix([[Poly([1, 0, 1]), LAM**2], [LAM**2, Poly([-1, 0, 1])]]),
        PolyMatrix([[Poly([F(1, 2), F(1, 3)]), Poly([F(2, 5)])], [LAM, Poly([F(1, 7), -1])]]),
    ],
    ids=["row-bound", "col-bound", "zero-row", "zero-col", "cancellation", "rational"],
)
def test_det_structured_cases_match_oracles(m):
    assert poly_matrix_det(m) == cofactor_det(m) == bareiss_det(m)


_INT = st.integers(-5, 5)
_RATIONAL = st.builds(F, st.integers(-9, 9), st.integers(1, 7))


@st.composite
def _mixed_rows_matrix(draw):
    """Square, size <= 4, degree <= 3; each row is zero, integral, or mixes
    integer and non-integer rational coefficients."""
    size = draw(st.integers(1, 4))
    rows = []
    for _ in range(size):
        kind = draw(st.sampled_from(["zero", "integer", "mixed"]))
        scalars = {"zero": st.just(0), "integer": _INT, "mixed": _INT | _RATIONAL}[kind]
        rows.append(
            [Poly(draw(st.lists(scalars, max_size=4))) for _ in range(size)]
        )
    return PolyMatrix(rows)


@settings(max_examples=60, deadline=None)
@given(_mixed_rows_matrix())
@example(PolyMatrix([[Poly([2, -1]), Poly([0, 3])], [Poly([F(1, 2), 1]), Poly([F(-2, 3)])]]))
@example(PolyMatrix([[Poly([1, F(1, 3)]), Poly([5])], [Poly.zero(), Poly.zero()]]))
def test_det_of_row_scaled_rationals_matches_oracles(m):
    assert poly_matrix_det(m) == bareiss_det(m) == cofactor_det(m)


def test_det_matches_pointwise_evaluation():
    from rosepen import _linalg

    rng = random.Random(7)
    for _ in range(10):
        size = rng.randint(2, 4)
        m = rand_pm(rng, size, size)
        d = poly_matrix_det(m)
        for x in range(size * 2 + 3):
            assert d(F(x)) == _linalg.det(poly_matrix_eval(m, F(x)))


# --- PolyMatrix product -----------------------------------------------------

_FLOAT = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.25, 3.0])


@st.composite
def _product_operands(draw):
    """A (rows x inner) and B (inner x cols), sizes 1..5, of one mode, with
    whole zero rows and columns and zero, one, lam and general entries, and
    a nonempty row range of A and column range of B."""
    mode = draw(st.sampled_from(["exact", "float"]))
    scalars = _INT | _RATIONAL if mode == "exact" else _FLOAT

    def entry():
        kind = draw(st.sampled_from(["zero", "one", "lam", "poly", "poly"]))
        if kind == "poly":
            return Poly(draw(st.lists(scalars, max_size=4)), mode)
        return {"zero": Poly.zero, "one": Poly.one, "lam": Poly.lam}[kind](mode)

    def matrix(h, w):
        zero_rows = draw(st.sets(st.integers(0, h - 1)))
        zero_cols = draw(st.sets(st.integers(0, w - 1)))
        return PolyMatrix(
            [
                [
                    Poly.zero(mode) if i in zero_rows or j in zero_cols else entry()
                    for j in range(w)
                ]
                for i in range(h)
            ]
        )

    def span(k):
        lo = draw(st.integers(0, k - 1))
        return range(lo, draw(st.integers(lo + 1, k)))

    rows, inner, cols = (draw(st.integers(1, 5)) for _ in range(3))
    return matrix(rows, inner), matrix(inner, cols), span(rows), span(cols)


@settings(max_examples=60, deadline=None)
@given(_product_operands())
# a constant-one entry times an interior -0.0: the dense sum gives +0.0
@example(
    (
        PolyMatrix([[Poly.one("float"), Poly([-1.0], "float")]]),
        PolyMatrix([[Poly([1.0, -0.0, 2.0], "float")], [Poly.zero("float")]]),
        range(1),
        range(1),
    )
)
@example(
    (
        PolyMatrix([[ONE, LAM], [Poly.zero(), Poly.zero()]]),
        PolyMatrix([[LAM], [Poly([F(1, 2), -1])]]),
        range(2),
        range(1),
    )
)
# ranges that start past the first row and column
@example(
    (
        PolyMatrix([[ONE, LAM], [LAM, Poly([2])], [ONE, ONE]]),
        PolyMatrix([[ONE, LAM, Poly([3])], [LAM, ONE, Poly([F(1, 2), -1])]]),
        range(1, 3),
        range(1, 3),
    )
)
def test_product_matches_dense_reference(operands):
    # the product kernel on a row range x column range against that slice
    # of the dense product, and `*`, the kernel's full case, against all of it
    a, b, rows, cols = operands
    want = naive_poly_matmul(a, b)
    got = a * b
    assert (got.rows, got.cols) == (want.rows, want.cols)
    assert [[_exact_coeffs(e) for e in row] for row in got.entries] == [
        [_exact_coeffs(e) for e in row] for row in want.entries
    ]
    part = a._product(b, rows, cols)
    assert [[_exact_coeffs(e) for e in row] for row in part] == [
        [_exact_coeffs(e) for e in row[cols.start : cols.stop]]
        for row in want.entries[rows.start : rows.stop]
    ]


def test_product_rejects_mismatched_operands():
    with pytest.raises(ValueError):
        PolyMatrix([[ONE, ONE]]) * PolyMatrix([[ONE, ONE]])
    with pytest.raises(ValueError):
        PolyMatrix([[ONE]]) * PolyMatrix([[Poly.one("float")]])


# --- horner_shift -----------------------------------------------------------

def test_horner_shift_endpoints():
    p = PolyMatrix([[LAM * LAM]])
    assert horner_shift(p, 0) == PolyMatrix([[ONE]])  # degree-0 shift is A_m
    assert horner_shift(p, 2) == p  # full shift is P itself


def test_horner_shift_interior():
    p = PolyMatrix([[Poly([5, 3, 1])]])
    assert horner_shift(p, 1) == PolyMatrix([[Poly([3, 1])]])


def test_horner_shift_recurrence():
    rng = random.Random(3)
    p = rand_pm(rng, 2, 2, max_deg=4)
    m = p.degree
    for k in range(m):
        lhs = horner_shift(p, k + 1)
        rhs = horner_shift(p, k).scale(LAM) + PolyMatrix.from_scalar_grid(
            p.coefficient_grid(m - k - 1)
        )
        assert lhs == rhs


def test_horner_shift_range_check():
    with pytest.raises(ValueError):
        horner_shift(PolyMatrix([[LAM]]), 2)


# --- smith_form -------------------------------------------------------------

def test_smith_already_diagonal():
    sf = smith_form(PolyMatrix([[Poly([0, 1]), Poly.zero()], [Poly.zero(), Poly([0, 0, 1])]]))
    assert sf.identity_count == 0
    assert sf.invariant_polys == (Poly([0, 1]), Poly([0, 0, 1]))


def test_smith_desk1_system_matrix():
    sf = smith_form(DESK1_S)
    assert sf.identity_count == 1
    assert sf.invariant_polys == (Poly([1, 0, -1, 1]),)
    assert sf.zero_rows == sf.zero_cols == 0


def test_smith_identity(monkeypatch):
    # a constant pivot divides every entry, so no divisibility sweep runs
    calls = []
    mod_poly = Poly.__mod__

    def counting(self, other):
        calls.append(1)
        return mod_poly(self, other)

    monkeypatch.setattr(Poly, "__mod__", counting)
    sf = smith_form(PolyMatrix.identity(4))
    assert calls == []
    assert sf.identity_count == 4 and sf.invariant_polys == ()


# diagonal matrices whose entries are no divisibility chain, and the
# invariant factors after their one 1: only the divisibility sweep of a
# non-constant pivot reaches these forms
NON_CHAIN_DIAGONALS = {
    "diag2": ([Poly([0, 1]), Poly([1, 1])], (Poly([0, 1, 1]),)),
    "diag3": ([Poly([-1, 1]), Poly([2, 1]), Poly([-2, 1, 1])], (Poly([-2, 1, 1]),) * 2),
}


@pytest.mark.parametrize("name", NON_CHAIN_DIAGONALS)
def test_smith_of_a_non_chain_diagonal(name):
    diagonal, invariant = NON_CHAIN_DIAGONALS[name]
    k = len(diagonal)
    m = PolyMatrix([[diagonal[i] if i == j else Poly.zero() for j in range(k)] for i in range(k)])
    sf = smith_form(m)
    assert (sf.identity_count, sf.invariant_polys, sf.zero_rows, sf.zero_cols) == (1, invariant, 0, 0)
    sf_t, u, v = smith_form_with_transforms(m)
    assert sf_t == sf
    assert u * m * v == smith_form_matrix(sf, k, k)
    for t in (u, v):
        d = poly_matrix_det(t)
        assert d.degree == 0 and not d.is_zero


def test_smith_rejects_float():
    with pytest.raises(ValueError):
        smith_form(PolyMatrix([[Poly([1.0])]]))


def test_smith_random_properties():
    rng = random.Random(11)
    for _ in range(15):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = rand_pm(rng, rows, cols)
        sf = smith_form(m)
        chain = [ONE] * sf.identity_count + list(sf.invariant_polys)
        for a, b in zip(chain, chain[1:]):
            assert a.divides(b)
        for p in sf.invariant_polys:
            assert not p.is_zero and p.leading == 1
        assert sf.zero_rows == rows - sf.normal_rank
        assert sf.zero_cols == cols - sf.normal_rank
        if rows == cols:
            det = poly_matrix_det(m)
            if not det.is_zero:
                prod = ONE
                for c in chain:
                    prod = prod * c
                assert prod == det.monic()


def test_smith_transforms_are_unimodular_certificates():
    # U and V are read off the identity borders of the reduction: matrices
    # with a zero row or column, or of lower rank, leave pivot-free rows and
    # columns of M beside border entries, which the pivot search must not see
    rng = random.Random(13)
    for k in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        kind = ("full", "rank-deficient", "zero row", "zero column")[k % 4]
        if kind == "rank-deficient" and min(rows, cols) > 1:
            inner = rng.randint(1, min(rows, cols) - 1)
            m = rand_pm(rng, rows, inner, 1) * rand_pm(rng, inner, cols, 1)
        else:
            grid = [list(row) for row in rand_pm(rng, rows, cols).entries]
            if kind == "zero row":
                grid[rng.randrange(rows)] = [Poly.zero()] * cols
            elif kind == "zero column":
                j = rng.randrange(cols)
                for row in grid:
                    row[j] = Poly.zero()
            m = PolyMatrix(grid)
        sf, u, v = smith_form_with_transforms(m)
        assert smith_form(m) == sf
        assert u * m * v == smith_form_matrix(sf, rows, cols)
        du, dv = poly_matrix_det(u), poly_matrix_det(v)
        assert du.degree == 0 and not du.is_zero
        assert dv.degree == 0 and not dv.is_zero


# --- smith_mcmillan ---------------------------------------------------------

def upper_triangular_pole_example():
    # [[1, 1/(lam-2)], [0, 1]] has no eigenvalue but an eigenpole at 2
    z = RationalFn.from_poly(Poly.zero())
    one = RationalFn.from_poly(ONE)
    return RationalMatrix([[one, RationalFn(ONE, Poly([-2, 1]))], [z, one]])


def diag_index_example():
    # diag(1/(lam (lam-2)^2), (lam-2)/lam)
    z = RationalFn.from_poly(Poly.zero())
    return RationalMatrix(
        [
            [RationalFn(ONE, Poly([0, 1]) * Poly([-2, 1]) ** 2), z],
            [z, RationalFn(Poly([-2, 1]), Poly([0, 1]))],
        ]
    )


def test_smith_mcmillan_pole_example():
    sm = smith_mcmillan(upper_triangular_pole_example())
    assert sm.numerators == (ONE, Poly([-2, 1]))
    assert sm.denominators == (Poly([-2, 1]), ONE)


def test_smith_mcmillan_diag_example():
    sm = smith_mcmillan(diag_index_example())
    assert sm.numerators == (ONE, Poly([-2, 1]))
    assert sm.denominators == (Poly([0, 1]) * Poly([-2, 1]) ** 2, Poly([0, 1]))


def test_smith_mcmillan_constant_identity():
    sm = smith_mcmillan(RationalMatrix.from_poly_matrix(PolyMatrix.identity(2)))
    assert sm.numerators == (ONE, ONE)
    assert sm.denominators == (ONE, ONE)


def test_smith_mcmillan_invariants_random():
    rng = random.Random(17)
    for _ in range(10):
        size = rng.randint(1, 3)
        entries = [
            [
                RationalFn(rand_poly(rng, 2), Poly([rng.randint(-3, 3), 1]))
                for _ in range(size)
            ]
            for _ in range(size)
        ]
        sm = smith_mcmillan(RationalMatrix(entries))
        for phi, psi in zip(sm.numerators, sm.denominators):
            assert poly_gcd(phi, psi).degree == 0
        for a, b in zip(sm.numerators, sm.numerators[1:]):
            assert a.divides(b)
        for a, b in zip(sm.denominators, sm.denominators[1:]):
            assert b.divides(a)


def test_smith_mcmillan_rank_deficient():
    f = RationalFn(ONE, Poly([-1, 1]))
    sm = smith_mcmillan(RationalMatrix([[f, f], [f, f]]))
    assert sm.numerators == (ONE,)
    assert sm.denominators == (Poly([-1, 1]),)
    assert sm.zero_rows == 1 and sm.zero_cols == 1


def test_smith_mcmillan_of_promoted_poly_matrix_matches_smith_form():
    rng = random.Random(19)
    m = rand_pm(rng, 3, 3)
    sm = smith_mcmillan(RationalMatrix.from_poly_matrix(m))
    sf = smith_form(m)
    assert all(p == ONE for p in sm.denominators)
    assert (
        tuple(p for p in sm.numerators if p.degree > 0) == sf.invariant_polys
    )


# --- RationalMatrix as N / d ---------------------------------------------------

_GRID_SCALAR = st.integers(-3, 3) | st.builds(F, st.integers(-5, 5), st.integers(1, 4))
_POLE_FACTORS = (Poly([-1, 1]), Poly([2, 1]), Poly([1, 0, 1]), Poly([F(1, 2), 1]))


@st.composite
def _rational_grids(draw):
    """1..3 by 1..3 grids of exact `RationalFn`: numerators of degree up to
    3 (zero included), denominators a nonzero constant times up to three of
    a few shared factors, so entries share poles, and in some entries a
    factor planted in both parts."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    factor = st.sampled_from(_POLE_FACTORS)

    def entry():
        num = Poly(draw(st.lists(_GRID_SCALAR, max_size=4)))
        den = Poly([draw(_GRID_SCALAR.filter(bool))])
        for f in draw(st.lists(factor, max_size=3)):
            den = den * f
        planted = draw(st.sampled_from((ONE, ONE) + _POLE_FACTORS))
        return RationalFn(num * planted, den * planted)

    return [[entry() for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=150, deadline=None)
@given(
    _rational_grids(),
    st.sampled_from([ONE, Poly([-1, 1]), Poly([3, 0, 2]), Poly([F(-2, 3)])]),
)
def test_rational_matrix_is_its_entries_over_their_monic_lcm(grid, q):
    g = RationalMatrix(grid)
    assert [list(row) for row in g.entries] == grid
    assert all(g[i, j] == f for i, row in enumerate(grid) for j, f in enumerate(row))
    # one form for G, whatever the terms it is given in
    other = RationalMatrix.over(g.numer.scale(q), g.den * q)
    assert other == g and hash(other) == hash(g)
    lcm = ONE
    for row in grid:
        for f in row:
            lcm = lcm * f.den // euclid_gcd(lcm, f.den)
    assert g.den == lcm.monic()
    assert g.numer == PolyMatrix([[f.num * (g.den // f.den) for f in row] for row in grid])
    assert smith_mcmillan(g) == lcm_smith_mcmillan(g)


def test_rational_matrix_rejects_float_entries():
    f = RationalFn(Poly([1.0]), Poly([-1.0, 1.0]))
    with pytest.raises(ValueError):
        RationalMatrix([[f]])
    with pytest.raises(ValueError):
        RationalMatrix.over(PolyMatrix([[Poly([1.0])]]), Poly([-1.0, 1.0]))


# --- zero_pole_polys / multiplicity_index ------------------------------------

def test_zero_pole_polys_pole_example():
    phi, psi = zero_pole_polys(smith_mcmillan(upper_triangular_pole_example()))
    assert phi == Poly([-2, 1]) and psi == Poly([-2, 1])


def test_zero_pole_polys_identity():
    phi, psi = zero_pole_polys(
        smith_mcmillan(RationalMatrix.from_poly_matrix(PolyMatrix.identity(2)))
    )
    assert phi == ONE and psi == ONE


def test_zero_pole_polys_desk1_scalar():
    g = RationalMatrix([[RationalFn(Poly([1, 0, -1, 1]), Poly([-1, 1]))]])
    phi, psi = zero_pole_polys(smith_mcmillan(g))
    assert phi == Poly([1, 0, -1, 1]) and psi == Poly([-1, 1])


def test_multiplicity_index_divides_no_polynomial(monkeypatch):
    # the multiplicities are exact quotients of primitive integer parts
    calls = []
    divmod_poly = Poly.__divmod__

    def counting(self, other):
        calls.append(1)
        return divmod_poly(self, other)

    sm = smith_mcmillan(diag_index_example())
    monkeypatch.setattr(Poly, "__divmod__", counting)
    assert multiplicity_index(sm, 2, "pole") == (0, 2)
    assert multiplicity_index(sm, F(1, 2), "zero") == (0, 0)
    f = RationalFn(Poly([F(1, 4), -1, 1]) ** 2, Poly([F(-1, 2), 1]) * Poly([0, 1]))
    assert f.order_at(F(1, 2)) == 3 and f.order_at(0) == -1
    assert calls == []


def test_multiplicity_index_diag_example():
    sm = smith_mcmillan(diag_index_example())
    assert multiplicity_index(sm, 2, "zero") == (0, 1)
    assert multiplicity_index(sm, 2, "pole") == (0, 2)
    assert multiplicity_index(sm, 7, "zero") == (0, 0)
    assert multiplicity_index(sm, 0, "pole") == (1, 1)


# --- block_transpose --------------------------------------------------------

def test_block_transpose_1x1_blocks_is_transpose():
    m = PolyMatrix([[ONE, LAM], [Poly([2]), Poly([3])]])
    assert block_transpose(m, 2, 2, 1) == m.transpose()


def test_block_transpose_involution():
    rng = random.Random(23)
    m = rand_pm(rng, 6, 4)
    bt = block_transpose(m, 3, 2, 2)
    assert bt.rows == 4 and bt.cols == 6
    assert block_transpose(bt, 2, 3, 2) == m


def test_block_transpose_companion_forms():
    # scalar P = lam^2 + lam + 1: first companion vs second companion
    c_first = PolyMatrix([[Poly([1, 1]), ONE], [Poly([-1]), LAM]])
    c_second = PolyMatrix([[Poly([1, 1]), Poly([-1])], [ONE, LAM]])
    assert block_transpose(c_first, 2, 2, 1) == c_second


def test_block_transpose_dimension_check():
    with pytest.raises(ValueError):
        block_transpose(PolyMatrix.identity(3), 2, 2, 2)
