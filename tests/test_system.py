"""System matrix assembly, transfer functions, minimality analysis, and the
realization builder."""

import random
import warnings
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from _helpers import (
    LAM,
    ONE,
    desk1_system,
    exnoevl_spec,
    rand_rep_spec,
    rand_system,
    rational_det,
    rep_specs,
)
from rosepen.polymat import (
    Poly,
    PolyMatrix,
    RationalFn,
    RationalMatrix,
    poly_matrix_det,
    smith_mcmillan,
    zero_pole_polys,
)
from rosepen.system import (
    DecouplingReport,
    RepSpec,
    RepTerm,
    RosenbrockSystem,
    SingularStateError,
    assemble_system_matrix,
    decoupling_zeros,
    is_minimal,
    realize,
    rep_spec_matrix,
    state_pencil,
    transfer_function,
)


# --- construction invariants --------------------------------------------------

def test_dimension_checks():
    with pytest.raises(ValueError):
        RosenbrockSystem(PolyMatrix([[LAM]]), [[1]], [[1]], [[1, 2]], [[1]])
    with pytest.raises(ValueError):
        RosenbrockSystem(PolyMatrix([[LAM, ONE]]))


def test_constant_p_gets_m_equal_one():
    sys = RosenbrockSystem(PolyMatrix.identity(2), [[1]], [[1]], [[0, 1]], [[1], [0]])
    assert sys.m == 1 and sys.P.degree == 0
    # the implied leading coefficient is zero but never stored
    assert sys.coefficient(1) == ((F(0), F(0)), (F(0), F(0)))


def test_mode_mismatch_rejected():
    with pytest.raises(ValueError):
        RosenbrockSystem(PolyMatrix([[LAM]]), [[1.5]], [[1]], [[1]], [[1]])


# --- assemble_system_matrix ---------------------------------------------------

def test_assemble_desk1():
    s = assemble_system_matrix(desk1_system())
    assert s == PolyMatrix([[LAM * LAM, ONE], [ONE, Poly([1, -1])]])


def test_assemble_r0_is_p():
    sys = RosenbrockSystem(PolyMatrix([[LAM * LAM + ONE]]))
    assert assemble_system_matrix(sys) == sys.P


def test_assemble_block_diagonal_when_uncoupled():
    sys = RosenbrockSystem(PolyMatrix([[LAM]]), [[5]], [[1]], [[0]], [[0]])
    s = assemble_system_matrix(sys)
    assert s == PolyMatrix([[LAM, Poly.zero()], [Poly.zero(), Poly([5, -1])]])


# --- transfer_function ----------------------------------------------------------

def test_transfer_desk1():
    g = transfer_function(desk1_system())
    assert g[0, 0] == RationalFn(Poly([1, 0, -1, 1]), Poly([-1, 1]))


def test_transfer_b_zero_gives_p():
    sys = RosenbrockSystem(PolyMatrix([[LAM, ONE], [ONE, LAM]]), [[1]], [[1]], [[0, 0]], [[1], [1]])
    assert transfer_function(sys) == RationalMatrix.from_poly_matrix(sys.P)


def test_transfer_exnoevl_realization():
    sys = realize(exnoevl_spec())
    g = transfer_function(sys)
    assert g[0, 0] == RationalFn.from_poly(ONE)
    assert g[0, 1] == RationalFn(ONE, Poly([-2, 1]))
    assert g[1, 0].is_zero and g[1, 1] == RationalFn.from_poly(ONE)


def test_transfer_requires_regular_state_pencil():
    sys = RosenbrockSystem(PolyMatrix([[LAM]]), [[0, 0], [0, 0]], [[0, 1], [0, 0]], [[1], [1]], [[1, 1]])
    with pytest.raises(SingularStateError):
        transfer_function(sys)


# --- minimality and decoupling --------------------------------------------------

def test_desk1_minimal_with_empty_certificate():
    res = is_minimal(desk1_system())
    assert bool(res) and res.decoupling == DecouplingReport((), ())


def test_minimality_of_a_minimal_system_divides_by_no_polynomial(monkeypatch):
    # [A - lam*E, B] and [A - lam*E; C] of a minimal system have Smith form
    # [I, 0]: every pivot is a constant, and a constant divides every entry
    base = rand_system(random.Random(3), 2, 3, 3, minimal=True)
    calls = []
    mod_poly = Poly.__mod__

    def counting(self, other):
        calls.append(1)
        return mod_poly(self, other)

    monkeypatch.setattr(Poly, "__mod__", counting)
    # a fresh system, so nothing rand_system's own check computed is reused
    sys = RosenbrockSystem(base.P, base.A, base.E, base.B, base.C)
    assert is_minimal(sys)
    assert calls == []


def test_b_zero_fails_controllability_everywhere():
    sys = RosenbrockSystem(
        PolyMatrix([[LAM]]), [[1, 0], [0, 2]], [[1, 0], [0, 1]], [[0], [0]], [[0, 0]]
    )
    rep = decoupling_zeros(sys)
    assert sorted(rep.input_decoupling_zeros) == [F(1), F(2)]
    assert not is_minimal(sys)


def test_c_zero_fails_observability():
    sys = RosenbrockSystem(PolyMatrix([[LAM]]), [[3]], [[1]], [[1]], [[0]])
    rep = decoupling_zeros(sys)
    assert rep.input_decoupling_zeros == ()
    assert rep.output_decoupling_zeros == (F(3),)
    assert not is_minimal(sys)


def test_repeated_irrational_decoupling_zero_listed_once():
    # A is the companion matrix of (lam^2 - 2)^2 = lam^4 - 4 lam^2 + 4 and
    # B = 0, so the whole state is uncontrollable; (A, C) is observable
    a = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-4, 0, 4, 0]]
    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    sys = RosenbrockSystem(PolyMatrix([[LAM]]), a, eye, [[0]] * 4, [[1, 0, 0, 0]])
    rep = decoupling_zeros(sys)
    assert rep.output_decoupling_zeros == ()
    got = sorted(rep.input_decoupling_zeros, key=lambda z: z.real)
    assert len(got) == 2
    for v, w in zip(got, (-(2**0.5), 2**0.5)):
        assert v.imag == 0 and abs(v - w) <= 1e-12 * abs(w)


def test_decoupling_zeros_live_on_state_spectrum():
    rng = random.Random(31)
    for _ in range(8):
        sys = rand_system(rng, rng.randint(1, 2), rng.randint(1, 3), rng.randint(1, 3))
        rep = decoupling_zeros(sys)
        if rep.empty:
            continue
        spectrum = poly_matrix_det(state_pencil(sys))
        for v in rep.input_decoupling_zeros + rep.output_decoupling_zeros:
            if isinstance(v, F):
                assert spectrum(v) == 0
            else:
                assert abs(spectrum(complex(v))) < 1e-6


def test_singular_e_raises():
    sys = RosenbrockSystem(PolyMatrix([[LAM]]), [[1, 0], [0, 1]], [[1, 0], [0, 0]], [[1], [1]], [[1, 1]])
    with pytest.raises(SingularStateError):
        decoupling_zeros(sys)


def test_float_mode_decoupling_matches_exact_verdict():
    rng = random.Random(37)
    for _ in range(5):
        sys = rand_system(rng, 2, 2, 2)
        fsys = RosenbrockSystem(
            PolyMatrix([[Poly([float(c) for c in e.coeffs], "float") for e in row] for row in sys.P.entries]),
            [[float(x) for x in row] for row in sys.A],
            [[float(x) for x in row] for row in sys.E],
            [[float(x) for x in row] for row in sys.B],
            [[float(x) for x in row] for row in sys.C],
        )
        assert bool(is_minimal(fsys)) == bool(is_minimal(sys))


# --- realize --------------------------------------------------------------------

def test_realize_desk1_spec_exactly():
    spec = RepSpec(
        PolyMatrix([[LAM * LAM]]), (RepTerm(RationalFn(ONE, Poly([-1, 1])), ((1,),)),)
    )
    sys = realize(spec)
    assert sys == desk1_system()
    assert is_minimal(sys).minimal is True


def test_realize_exnoevl_rank_one_factorization():
    sys = realize(exnoevl_spec())
    assert (sys.n, sys.r, sys.m) == (2, 1, 1)
    assert sys.A == ((F(2),),) and sys.E == ((F(1),),)
    assert sys.B == ((F(0), F(1)),)
    assert sys.C == ((F(1),), (F(0),))


def test_realize_splits_polynomial_part():
    # lam/(lam-3) = 1 + 3/(lam-3): the constant 1 folds into P
    spec = RepSpec(
        PolyMatrix([[LAM]]), (RepTerm(RationalFn(LAM, Poly([-3, 1])), ((2,),)),)
    )
    sys = realize(spec)
    assert sys.P == PolyMatrix([[Poly([2, 1])]])
    assert transfer_function(sys) == rep_spec_matrix(spec)


def test_realize_rejects_higher_order_poles():
    with pytest.raises(ValueError):
        RepTerm(RationalFn(ONE, Poly([0, 0, 1])), ((1,),))


def test_realize_drops_zero_matrix_term_with_warning():
    spec = RepSpec(
        PolyMatrix([[LAM]]),
        (RepTerm(RationalFn(ONE, Poly([-1, 1])), ((0,),)),),
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sys = realize(spec)
    assert sys.r == 0
    assert any("zero coefficient matrix" in str(w.message) for w in caught)


def test_realize_round_trip_random_specs():
    rng = random.Random(41)
    for _ in range(20):
        spec = rand_rep_spec(rng, rng.randint(1, 3), rng.randint(1, 3))
        sys = realize(spec)
        assert transfer_function(sys) == rep_spec_matrix(spec)


@settings(max_examples=40, deadline=None)
@given(rep_specs())
def test_realize_round_trip_property(spec):
    assert transfer_function(realize(spec)) == rep_spec_matrix(spec)


def test_minimal_realization_state_size_is_pole_degree():
    rng = random.Random(43)
    checked = 0
    for _ in range(20):
        spec = rand_rep_spec(rng, rng.randint(1, 2), rng.randint(1, 3))
        sys = realize(spec)
        if not is_minimal(sys).minimal:
            continue
        _, psi = zero_pole_polys(smith_mcmillan(transfer_function(sys)))
        assert sys.r == psi.degree
        checked += 1
    assert checked >= 10


def test_schur_complement_determinant_identity():
    rng = random.Random(47)
    for _ in range(8):
        n = rng.randint(1, 2)
        r = rng.randint(1, 3)
        sys = rand_system(rng, n, r, rng.randint(1, 3))
        det_s = poly_matrix_det(assemble_system_matrix(sys))
        det_state = poly_matrix_det(state_pencil(sys))  # det(lam E - A)
        sign = F(-1) ** r
        lhs = RationalFn.from_poly(det_s)
        rhs = RationalFn.from_poly(det_state * sign) * rational_det(transfer_function(sys))
        assert lhs == rhs
