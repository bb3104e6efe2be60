"""GEP solving, zero classification, and the realize -> linearize -> solve
pipeline."""

import math
import random
from fractions import Fraction as F
from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _helpers import (
    LAM,
    ONE,
    assert_value_sets_close,
    bareiss_det,
    det_constant_oracle,
    desk1_spec,
    desk1_system,
    eigenpole_index_matrix,
    eigenpole_index_system,
    euclid_gcd,
    exact_systems,
    exnoevl_spec,
    lcm_smith_mcmillan,
    rand_rep_spec,
    rand_system,
    transfer_oracle,
)
from rosepen.eigen import (
    EIGENPOLE,
    EIGENVALUE,
    classify_zeros,
    eig_eip_split,
    pencil_determinant,
    solve_gep,
    solve_rep,
)
from rosepen import _roots, eigen, polymat
from rosepen._roots import all_roots, numeric_roots, rational_roots
from rosepen.fiedler import (
    Bijection,
    SystemPencil,
    first_companion,
    pencil_algorithm1,
    pencil_direct,
)
from rosepen.io import decode_system
from rosepen.polymat import (
    Poly,
    PolyMatrix,
    RationalFn,
    poly_matrix_det,
    RationalMatrix,
    smith_form,
    smith_form_with_transforms,
    smith_mcmillan,
    zero_pole_polys,
)
from rosepen.system import (
    RepSpec,
    RepTerm,
    RosenbrockSystem,
    SingularStateError,
    assemble_system_matrix,
    is_minimal,
    realize,
    state_det,
    state_pencil,
    system_det,
    transfer_function,
)

DESK1 = desk1_system()
DESK1_DET = Poly([1, 0, -1, 1])  # monic lam^3 - lam^2 + 1


# --- solve_gep -----------------------------------------------------------------

def test_solve_gep_desk1_matches_companion_oracle():
    pencil = first_companion(DESK1)
    got = solve_gep(pencil, "exact")
    assert not got.singular and not got.infinite_flag
    assert got.det_poly.monic() == DESK1_DET
    oracle = np.roots([1, -1, 0, 1])  # companion-matrix roots of the exact det
    assert_value_sets_close([v for v, _ in got.eigenvalues], oracle, 1e-10)


def test_solve_gep_diag_pencil():
    pencil = SystemPencil(
        ((F(1), F(0)), (F(0), F(1))), ((F(-1), F(0)), (F(0), F(-2))), 2, 0, 1, 1, 1
    )
    got = solve_gep(pencil, "exact")
    assert sorted(v for v, _ in got.eigenvalues) == [F(1), F(2)]
    assert got.count_with_multiplicity == 2


def test_solve_gep_singular_lead_sets_infinite_flag():
    sys = RosenbrockSystem(
        PolyMatrix.from_coefficient_grids([[[1, 0], [0, 1]], [[1, 1], [1, 1]]]),
        [[1]],
        [[1]],
        [[1, 0]],
        [[1], [1]],
    )  # leading coefficient [[1,1],[1,1]] is singular, E = 1 is not
    got = solve_gep(first_companion(sys), "exact")
    assert got.infinite_flag


def test_solve_gep_singular_pencil_is_a_condition_not_an_exception():
    sys = RosenbrockSystem(PolyMatrix([[LAM, LAM], [LAM, LAM]]))
    got = solve_gep(first_companion(sys), "exact")
    assert got.singular and got.eigenvalues == ()


def test_solve_gep_backends_agree_on_desk1():
    pencil = first_companion(DESK1)
    exact = solve_gep(pencil, "exact")
    numeric = solve_gep(pencil, "numeric")
    assert_value_sets_close(
        [v for v, _ in exact.eigenvalues], [v for v, _ in numeric.eigenvalues], 1e-8
    )


def test_pencil_determinant_matches_bareiss():
    rng = random.Random(193)
    for _ in range(5):
        sys = rand_system(rng, 2, 1, rng.randint(2, 3))
        pencil = pencil_direct(sys, Bijection.first_companion_order(sys.m))
        assert pencil_determinant(pencil) == bareiss_det(pencil.as_poly_matrix())


def test_eigencount_equals_det_degree():
    rng = random.Random(197)
    for _ in range(5):
        sys = rand_system(rng, rng.randint(1, 2), rng.randint(0, 2), rng.randint(1, 3))
        got = solve_gep(first_companion(sys), "exact")
        if not got.singular:
            assert got.count_with_multiplicity == got.det_poly.degree


def test_rational_roots_where_the_float_screen_overflows():
    # |candidate|^degree = (1e12)^30 is beyond binary64
    roots, rest = rational_roots(Poly([999999999989] + [0] * 29 + [1]))
    assert roots == [] and rest.degree == 30
    p = Poly([-999999999989, 1]) * Poly([1] + [0] * 28 + [1])
    assert rational_roots(p)[0] == [(F(-1), 1), (F(999999999989), 1)]


def test_rational_roots_with_coefficients_beyond_float_range():
    huge = Poly([1, 10**400, 1])
    assert rational_roots(huge) == ([], huge)
    roots, rest = rational_roots(Poly([-2, 1]) * huge)
    assert roots == [(F(2), 1)] and rest == huge


def test_rational_roots_give_up_beyond_the_candidate_bound():
    # 720720 has 240 divisors, all coprime to the odd primes in the lead:
    # 2 * 240 * 2**7 = 61440 candidates +-a/b are beyond _MAX_CANDIDATES,
    # 2 * 240 * 2**5 = 15360 are not
    for primes, searched in (((17, 19, 23, 29, 31, 37, 41), False), ((17, 19, 23, 29, 31), True)):
        lead = math.prod(primes)
        p = Poly([-720720, lead]) * Poly([1, 0, 1])
        roots, rest = rational_roots(p)
        assert roots == ([(F(720720, lead), 1)] if searched else [])
        assert rest.degree == (2 if searched else 3)


def test_numeric_roots_rescale_coefficients_beyond_float_range():
    # lam^2 - 2 * 10**400 has the roots +-sqrt(2) * 10**200
    roots = sorted(numeric_roots(Poly([-2 * 10**400, 0, 1])), key=lambda z: z.real)
    assert len(roots) == 2
    for got, want in zip(roots, (-(2**0.5) * 1e200, 2**0.5 * 1e200)):
        assert abs(got - want) <= 1e-14 * abs(want)
    # roots near 1e-400 and 1e400 cannot both be floats: no silent drop
    with pytest.raises(OverflowError):
        numeric_roots(Poly([1, 10**400, 1]))


def test_all_roots_lists_a_repeated_irrational_root_once():
    # (lam - 1) (lam^2 - 3) (lam^2 - 2)^2: each irrational root once, by
    # increasing multiplicity, with its exact multiplicity
    p = Poly([-1, 1]) * Poly([-3, 0, 1]) * Poly([-2, 0, 1]) ** 2
    got = all_roots(p)
    assert got[0] == (F(1), 1)
    want = [(-(3**0.5), 1), (3**0.5, 1), (-(2**0.5), 2), (2**0.5, 2)]
    assert [k for _, k in got[1:]] == [k for _, k in want]
    for (v, _), (w, _) in zip(got[1:], want):
        assert v.imag == 0 and abs(v - w) <= 1e-15 * abs(w)


# --- eig_eip_split ----------------------------------------------------------------

def test_split_shared_root_is_eigenpole():
    eig, eip = eig_eip_split(Poly([-2, 1]), Poly([-2, 1]))
    assert eig == [] and eip == [F(2)]


def test_split_coprime_all_eigenvalues():
    eig, eip = eig_eip_split(DESK1_DET, Poly([-1, 1]))
    assert len(eig) == 3 and eip == []


def test_split_constant_zero_poly():
    assert eig_eip_split(ONE, Poly([-1, 1])) == ([], [])


def test_split_repeated_irrational_shared_factor():
    # (lam^2 - 2)^2 is shared: its roots are eigenpoles, listed once each
    shared = Poly([-2, 0, 1]) ** 2
    eig, eip = eig_eip_split(shared * Poly([-1, 1]), shared * Poly([3, 1]))
    assert eig == [F(1)]
    assert len(eip) == 2
    for v, w in zip(sorted(eip, key=lambda z: z.real), (-(2**0.5), 2**0.5)):
        assert v.imag == 0 and abs(v - w) <= 1e-15 * abs(w)


@pytest.mark.parametrize("pole", [1.1, 2.5, 3.3])
def test_float_split_matches_a_zero_on_a_double_pole(pole):
    # np.roots splits the double pole into copies farther than MATCH_TOL
    # from the zero; their mean is not, as in numeric classify_zeros
    lin = Poly([-pole, 1.0])
    eig, eip = eig_eip_split(lin * Poly([-5.0, 1.0]), lin**2 * Poly([1.0, 1.0]))
    assert len(eig) == 1 and abs(eig[0] - 5) <= 1e-12 * 5
    assert len(eip) == 1 and abs(eip[0] - pole) <= 1e-12 * pole


# --- classify_zeros ----------------------------------------------------------------

def test_classify_exnoevl_eigenpole_only():
    from rosepen.system import realize

    sys = realize(exnoevl_spec())
    report = classify_zeros(sys)
    assert report.minimal
    assert [z.value for z in report.zeros] == [F(2)]
    assert report.zeros[0].classification == EIGENPOLE
    assert [p.value for p in report.poles] == [F(2)]


def test_classify_desk1_all_eigenvalues():
    report = classify_zeros(DESK1)
    assert report.minimal and report.decoupling.empty
    assert len(report.zeros) == 3
    assert all(z.classification == EIGENVALUE for z in report.zeros)
    assert [p.value for p in report.poles] == [F(1)]
    assert report.det_constant == F(1)


def test_classify_multiplicity_indices_at_shared_point():
    sys = eigenpole_index_system()
    assert transfer_function(sys) == eigenpole_index_matrix()
    report = classify_zeros(sys)
    assert report.minimal
    assert [z.value for z in report.zeros] == [F(2)]
    entry = report.zeros[0]
    assert entry.classification == EIGENPOLE
    assert entry.ind_phi == (0, 1)
    assert entry.ind_psi == (0, 2)


def test_classify_singular_e_raises():
    sys = RosenbrockSystem(
        PolyMatrix([[LAM]]), [[1, 0], [0, 1]], [[1, 0], [0, 0]], [[1], [1]], [[1, 1]]
    )
    with pytest.raises(SingularStateError):
        classify_zeros(sys)


def test_classify_singular_pencil_reported():
    sys = RosenbrockSystem(PolyMatrix([[LAM, LAM], [LAM, LAM]]))
    report = classify_zeros(sys)
    assert report.singular and report.zeros == ()


def test_classify_exact_rejects_a_float_system():
    doc = {"P": [[[0, 0, 1]]], "A": [[1]], "E": [[1]], "B": [[1]], "C": [[1]]}
    sys = decode_system(doc, "float")
    with pytest.raises(ValueError, match="exact system"):
        classify_zeros(sys, backend="exact")


def test_classify_exact_rejects_a_sigma_of_another_length():
    with pytest.raises(ValueError, match="bijection length"):
        classify_zeros(DESK1, sigma=Bijection((0, 1, 2)), backend="exact")


def test_classify_exact_takes_no_pencil():
    with pytest.raises(ValueError, match="reads det S"):
        classify_zeros(DESK1, backend="exact", pencil=first_companion(DESK1))


def _check_pencils_against_report(sys, orders):
    """Every pencil of `orders`, by the product and (m >= 2) by the splice,
    has the exact spectrum of the report and det(pencil) = c * det S with
    the report's c; returns the report."""
    report = classify_zeros(sys)
    det_s = system_det(sys)
    for order in orders:
        sigma = Bijection(order)
        pencils = [pencil_direct(sys, sigma)]
        if sys.m >= 2:
            pencils.append(pencil_algorithm1(sys, sigma))
        for pencil in pencils:
            gep = solve_gep(pencil, "exact")
            assert gep.singular == report.singular
            assert gep.eigenvalues == (() if det_s.is_zero else tuple(all_roots(det_s)))
            assert [v for v, _ in gep.eigenvalues] == [z.value for z in report.zeros]
            if report.minimal:
                # det S is phi_G up to a constant: each multiplicity is the
                # zero's sum of Smith-McMillan indices
                assert [k for _, k in gep.eigenvalues] == [sum(z.ind_phi) for z in report.zeros]
            assert det_constant_oracle(pencil, det_s) == report.det_constant
    return report


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_exact_report_matches_every_pencil_spectrum(m, r):
    # n = 1, 2; every sigma for m <= 3, a seeded sample of four for m = 4
    rng = random.Random(1601 + 10 * m + r)
    for n in (1, 2):
        sys = rand_system(rng, n, r, m)
        orders = list(permutations(range(m)))
        if m == 4:
            orders = rng.sample(orders, 4)
        _check_pencils_against_report(sys, orders)


def test_exact_report_matches_singular_pencils():
    sq = LAM * LAM
    sys = RosenbrockSystem(PolyMatrix([[sq, sq], [sq, sq]]), [[1]], [[1]], [[0, 0]], [[0], [0]])
    assert _check_pencils_against_report(sys, permutations(range(2))).singular


def test_exact_report_matches_the_pencil_spectrum_on_irrational_specs():
    irrational = 0
    for seed in range(1611, 1621):
        rng = random.Random(seed)
        sys = realize(rand_rep_spec(rng, rng.randint(1, 2), 2, 3))
        orders = list(permutations(range(sys.m)))[:3]
        report = _check_pencils_against_report(sys, orders)
        irrational += any(not isinstance(z.value, F) for z in report.zeros)
    assert irrational >= 6


def test_classify_numeric_backend_matches_exact():
    rng = random.Random(199)
    for _ in range(5):
        sys = rand_system(rng, 2, 2, 2, nonsingular_lead=True)
        exact = classify_zeros(sys, backend="exact")
        numeric = classify_zeros(sys, backend="numeric")
        assert_value_sets_close(
            [z.value for z in exact.zeros], [z.value for z in numeric.zeros], 1e-8
        )
        assert exact.minimal == numeric.minimal


@pytest.mark.parametrize(
    "doc",
    [
        # det(lam E - A) = -lam^2; the zero at 0 sits on a defective double pole
        {
            "P": [[[-1, -2, -2, 0], [-2, -3, 2, -1]], [[3, 3, -3, -1], [2, -1, 1, 0]]],
            "A": [[3, 1], [-3, -1]],
            "E": [[-2, -1], [-1, 0]],
            "B": [[1, 2], [-3, -2]],
            "C": [[-1, -2], [1, 2]],
        },
        # det(lam E - A) = -2 (lam + 1)^2
        {
            "P": [[[-2, 1, 3, 0], [0, -1, -3, -1]], [[-1, 0, 2, 3], [3, 0, 1, 0]]],
            "A": [[2, -2], [1, -2]],
            "E": [[1, 2], [2, 2]],
            "B": [[3, 0], [-1, -1]],
            "C": [[1, 0], [3, 0]],
        },
    ],
    ids=["double-pole-at-0", "double-pole-at-minus-1"],
)
def test_classify_numeric_zero_on_defective_pole_is_eigenpole(doc):
    sys = decode_system(doc, "exact")
    exact = classify_zeros(sys, backend="exact")
    numeric = classify_zeros(sys, backend="numeric")
    for kind in (EIGENPOLE, EIGENVALUE):
        assert_value_sets_close(
            [z.value for z in exact.zeros if z.classification == kind],
            [z.value for z in numeric.zeros if z.classification == kind],
            1e-8,
        )


def test_classification_partitions_by_pole_polynomial():
    rng = random.Random(229)
    checked = 0
    for _ in range(6):
        sys = rand_system(rng, rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 3))
        if not classify_zeros(sys).minimal:
            continue
        report = classify_zeros(sys)
        phi, psi = zero_pole_polys(smith_mcmillan(transfer_function(sys)))
        # exact mode: the zero list is the root multiset of phi_G
        pencil_det = pencil_determinant(first_companion(sys)).monic()
        assert pencil_det == phi
        for z in report.zeros:
            if isinstance(z.value, F):
                is_pole = psi(z.value) == 0
            else:
                is_pole = abs(psi(complex(z.value))) < 1e-6
            assert (z.classification == EIGENPOLE) == is_pole
            checked += 1
    assert checked >= 3


def test_zero_multiset_invariant_across_bijections():
    rng = random.Random(211)
    sys = rand_system(rng, 2, 1, 3)
    from itertools import permutations

    dets = set()
    for perm in permutations(range(3)):
        pencil = pencil_direct(sys, Bijection(perm))
        dets.add(pencil_determinant(pencil).monic())
    assert len(dets) == 1  # identical spectrum, multiplicities included


def _irreducible(coeffs):
    # a monic integer quadratic or cubic is reducible over Q exactly when it
    # has an integer root, which divides its constant term
    p = Poly(list(coeffs) + [1])
    c0 = abs(coeffs[0])
    return c0 > 0 and all(p(x) != 0 for x in range(-c0, c0 + 1))


# the lower coefficients of monic irreducible quadratics and cubics
_IRREDUCIBLE = st.lists(st.integers(-4, 4), min_size=2, max_size=3).map(tuple).filter(_irreducible)


def _monic(coeffs):
    return Poly(list(coeffs) + [1])


def _true_roots(coeffs):
    return [complex(z) for z in np.roots([1] + list(reversed(coeffs)))]


def _match(zeros, factors):
    """For each zero, the (factor, root) pair whose root it approximates,
    within 1e-10 relative; every root is matched at most once."""
    roots = [(j, i, z) for j, f in enumerate(factors) for i, z in enumerate(_true_roots(f))]
    out = []
    for v in zeros:
        j, i, z = min(roots, key=lambda jiz: abs(jiz[2] - complex(v)))
        assert abs(complex(v) - z) <= 1e-10 * max(1.0, abs(z))
        out.append((j, i))
    assert len(set(out)) == len(out)
    return out


@st.composite
def _diagonal_powers(draw):
    """Distinct irreducible factors q_j and exponents e[i][j] for
    P = diag(prod_j q_j ** e[i][j]), every entry of degree at most 6."""
    factors = draw(st.lists(_IRREDUCIBLE, min_size=1, max_size=2, unique=True))
    exponents = []
    for _ in range(draw(st.integers(1, 2))):
        budget, row = 6, []
        for f in factors:
            row.append(draw(st.integers(0, budget // len(f))))
            budget -= row[-1] * len(f)
        exponents.append(row)
    if not any(map(any, exponents)):
        exponents[0][0] = 1
    return factors, exponents


@settings(max_examples=40, deadline=None)
@given(_diagonal_powers())
def test_exact_indices_of_diagonal_products_of_irreducible_powers(case):
    factors, exponents = case
    entries = []
    for row in exponents:
        entry = ONE
        for f, e in zip(factors, row):
            entry = entry * _monic(f) ** e
        entries.append(entry)
    n = len(entries)
    P = PolyMatrix([[entries[i] if i == j else Poly.zero() for j in range(n)] for i in range(n)])
    report = classify_zeros(RosenbrockSystem(P))
    present = [j for j in range(len(factors)) if any(row[j] for row in exponents)]
    assert len(report.zeros) == sum(len(factors[j]) for j in present)
    assert report.poles == ()
    for z, (j, _) in zip(report.zeros, _match([z.value for z in report.zeros], factors)):
        # the Smith form of a diagonal matrix sorts each factor's exponents
        assert z.ind_phi == tuple(sorted(row[j] for row in exponents))
        assert z.classification == EIGENVALUE and z.ind_psi is None


def _companion_realization(q, b):
    """(A, B column, C row) of the controllable canonical realization of
    1 / q^b: A is the companion matrix of q^b, B = e_r and C = e_1^T."""
    d = q**b
    r = d.degree
    a = [[F(int(j == i + 1)) for j in range(r)] for i in range(r - 1)]
    a.append([-c for c in d.coeffs[:r]])
    return a, [F(int(i == r - 1)) for i in range(r)], [F(int(j == 0)) for j in range(r)]


@st.composite
def _shared_pole_cases(draw):
    """q, its zero and pole exponents a and b, another factor w and its
    exponent c in {0, 1}."""
    q = draw(_IRREDUCIBLE)
    a, b = draw(st.integers(1, 4 // len(q))), draw(st.integers(1, 4 // len(q)))
    return q, a, draw(_IRREDUCIBLE.filter(lambda w: w != q)), draw(st.integers(0, 1)), b


@settings(max_examples=25, deadline=None)
@given(_shared_pole_cases())
def test_exact_eigenpole_verdict_and_indices_on_a_shared_factor(case):
    # G = diag(q^a w^c, 1 / q^b): the roots of q are zeros of index (0, a)
    # and poles of index (0, b), so eigenpoles; the roots of w are eigenvalues
    q, a, other, c, b = case
    p1 = _monic(q) ** a * _monic(other) ** c
    A, b_col, c_row = _companion_realization(_monic(q), b)
    r = len(A)
    sys = RosenbrockSystem(
        PolyMatrix([[p1, Poly.zero()], [Poly.zero(), Poly.zero()]]),
        A,
        [[F(int(i == j)) for j in range(r)] for i in range(r)],
        [[F(0), x] for x in b_col],
        [[F(0)] * r, c_row],
    )
    report = classify_zeros(sys)
    assert report.minimal
    factors = [q] + ([other] if c else [])
    assert len(report.zeros) == sum(len(f) for f in factors)
    for z, (j, _) in zip(report.zeros, _match([z.value for z in report.zeros], factors)):
        if j == 0:
            assert (z.classification, z.ind_phi, z.ind_psi) == (EIGENPOLE, (0, a), (0, b))
        else:
            assert (z.classification, z.ind_phi, z.ind_psi) == (EIGENVALUE, (0, c), None)
    assert len(report.poles) == len(q)
    _match([p.value for p in report.poles], [q])
    assert all(p.ind_psi == (0, b) for p in report.poles)


def test_gcd_free_bases_per_report_do_not_grow_with_the_zeros(monkeypatch):
    calls = []
    original = polymat.gcd_free_base

    def counting(polys):
        calls.append(polys)
        return original(polys)

    for mod in (polymat, _roots, eigen):
        monkeypatch.setattr(mod, "gcd_free_base", counting)
    quadratics = [Poly([-2, 0, 1]), Poly([-3, 0, 1]), Poly([1, 0, 1]), Poly([-5, 0, 1])]
    counts = []
    for k in (1, 4):
        p = ONE
        for f in quadratics[:k]:
            p = p * f
        report = classify_zeros(RosenbrockSystem(PolyMatrix([[p * quadratics[0]]])))
        assert len(report.zeros) == 2 * k
        counts.append(len(calls))
        calls.clear()
    assert counts[0] == counts[1] == 1


def _quadratic_roots(b, c):
    """The roots of lam^2 + b*lam + c for exact b and c, accurate to a few
    ulps: the stable formula for real roots, conjugates otherwise."""
    d = b * b - 4 * c
    if d < 0:
        re, im = float(-b / 2), float(-d) ** 0.5 / 2
        return [complex(re, -im), complex(re, im)]
    big = -(float(b) + (1 if b >= 0 else -1) * float(d) ** 0.5) / 2
    return [complex(big), complex(float(c) / big)]


def _assert_zeros_of_near_coincident_quadratics(report, quadratics):
    """Each quadratic (b, c, ind_phi) has two zeros carrying its ind_phi,
    each within 1e-12 relative of one of its roots, and real ones real."""
    assert len(report.zeros) == 2 * len(quadratics)
    for b, c, ind_phi in quadratics:
        got = [complex(z.value) for z in report.zeros if z.ind_phi == ind_phi]
        want = _quadratic_roots(b, c)
        assert len(got) == 2
        if b * b > 4 * c:
            assert all(v.imag == 0 for v in got)
        matched = [min(range(2), key=lambda i: abs(want[i] - v)) for v in got]
        assert sorted(matched) == [0, 1]
        for v, i in zip(got, matched):
            assert abs(v - want[i]) <= 1e-12 * abs(want[i])


@pytest.mark.parametrize("k", range(5, 17))
def test_exact_zeros_of_near_coincident_factors_sharing_a_square_free_part(k):
    # P = diag(q, q * q_eps^2), q = lam^2 - 2, q_eps = q - eps: both factors
    # have exponent 2 in det P, so one square-free part of det P holds them,
    # but q has indices (1, 1) and q_eps has (0, 2)
    eps = F(2, 10**k)
    q, q_eps = Poly([-2, 0, 1]), Poly([-2 - eps, 0, 1])
    P = PolyMatrix([[q, Poly.zero()], [Poly.zero(), q * q_eps**2]])
    report = classify_zeros(RosenbrockSystem(P))
    _assert_zeros_of_near_coincident_quadratics(
        report, [(F(0), F(-2), (1, 1)), (F(0), -2 - eps, (0, 2))]
    )


def _is_rational_square(x):
    return x >= 0 and all(math.isqrt(n) ** 2 == n for n in (x.numerator, x.denominator))


@st.composite
def _near_coincident_quadratics(draw):
    """An irreducible q = lam^2 + b*lam + c, q_eps = q - 2 * 10**-k still
    irreducible, and the exponents of q and q_eps in the two diagonal
    entries of P: equal totals, so one square-free part of det P holds
    both, but different index lists."""
    b, c = draw(st.integers(-4, 4)), draw(st.integers(-4, 4).filter(bool))
    eps = F(2, 10 ** draw(st.integers(5, 16)))
    assume(not _is_rational_square(F(b * b - 4 * c)))
    assume(not _is_rational_square(b * b - 4 * (c - eps)))
    total = draw(st.integers(2, 3))
    q_exps, eps_exps = [
        (j, total - j) if draw(st.booleans()) else (total - j, j)
        for j in draw(st.permutations([0, 1]))
    ]
    return F(b), F(c), eps, q_exps, eps_exps


@settings(max_examples=40, deadline=None)
@given(_near_coincident_quadratics())
def test_exact_zeros_of_near_coincident_factors_with_different_indices(case):
    b, c, eps, q_exps, eps_exps = case
    q, q_eps = Poly([c, b, 1]), Poly([c - eps, b, 1])
    entries = [q**i * q_eps**j for i, j in zip(q_exps, eps_exps)]
    P = PolyMatrix([[entries[0], Poly.zero()], [Poly.zero(), entries[1]]])
    report = classify_zeros(RosenbrockSystem(P))
    assert all(z.classification == EIGENVALUE for z in report.zeros)
    _assert_zeros_of_near_coincident_quadratics(
        report, [(b, c, tuple(sorted(q_exps))), (b, c - eps, tuple(sorted(eps_exps)))]
    )


# --- G over one common denominator ---------------------------------------------------

@st.composite
def _transfer_systems(draw):
    """`exact_systems` with m = 1..3 and r = 0..3, some of them with a state
    cut off from the input (B = 0, or a last state with a zero row of B and
    no coupling in A and E) or from the output (C = 0, or the dual)."""
    sys = draw(exact_systems(degrees=st.integers(1, 3), states=st.integers(0, 3)))
    cut = draw(st.sampled_from(["none", "none", "B = 0", "C = 0", "input", "output"]))
    if sys.r == 0 or cut == "none":
        return sys
    r, n = sys.r, sys.n
    a, e = [list(row) for row in sys.A], [list(row) for row in sys.E]
    b, c = [list(row) for row in sys.B], [list(row) for row in sys.C]
    if cut == "B = 0":
        b = [[0] * n for _ in range(r)]
    elif cut == "C = 0":
        c = [[0] * r for _ in range(n)]
    else:
        for k in range(r - 1):
            a[k][r - 1] = a[r - 1][k] = e[k][r - 1] = e[r - 1][k] = 0
        if cut == "input":
            b[r - 1] = [0] * n
        else:
            for row in c:
                row[r - 1] = 0
    return RosenbrockSystem(sys.P, a, e, b, c)


@settings(max_examples=80, deadline=None)
@given(_transfer_systems())
def test_smith_mcmillan_over_the_common_denominator_matches_the_lcm_route(sys):
    assume(not state_det(sys).is_zero)
    g = transfer_function(sys)
    if sys.r == 0:
        assert (g.numer, g.den) == (sys.P, ONE)
        oracle = RationalMatrix([[RationalFn.from_poly(p) for p in row] for row in sys.P.entries])
    else:
        # d is the lcm of the oracle's denominators and N its d * G
        oracle = transfer_oracle(sys)
        assert g == oracle
        lcm = ONE
        for row in oracle.entries:
            for f in row:
                lcm = lcm * f.den // euclid_gcd(lcm, f.den)
        assert g.den == lcm.monic()
        assert g.numer == PolyMatrix([[f.num * (g.den // f.den) for f in row] for row in oracle.entries])
    assert smith_mcmillan(g) == lcm_smith_mcmillan(oracle)


def _parts_and_oracle(sys):
    g = transfer_function(sys)
    assert smith_mcmillan(g) == lcm_smith_mcmillan(transfer_oracle(sys))
    return g.numer, g.den


@pytest.mark.parametrize("zero", ["B", "C"])
def test_transfer_parts_of_a_decoupled_input_or_output_are_p_over_one(zero):
    # every numerator is det(lam*E - A) * P_ij, so h = det(lam*E - A)
    sys = rand_system(random.Random(2203), 2, 3, 2)
    b = [[0, 0]] * 3 if zero == "B" else sys.B
    c = [[0] * 3] * 2 if zero == "C" else sys.C
    sys = RosenbrockSystem(sys.P, sys.A, sys.E, b, c)
    assert not is_minimal(sys)
    assert _parts_and_oracle(sys) == (sys.P, ONE)


def test_transfer_parts_keep_zero_entries():
    sys = realize(exnoevl_spec())
    numer, d = _parts_and_oracle(sys)
    assert d == Poly([-2, 1])
    assert numer[1, 0].is_zero and not numer[0, 1].is_zero


def test_transfer_parts_of_a_rank_two_term_drop_the_repeated_pole():
    # a rank-2 residue at lam = 1 realizes with two states there, so
    # det(lam*E - A) = (lam - 1)^2 while G has the simple pole lam - 1
    spec = RepSpec(
        PolyMatrix([[LAM, ONE], [Poly.zero(), LAM]]),
        (RepTerm(RationalFn(ONE, Poly([-1, 1])), [[1, 0], [0, 2]]),),
    )
    sys = realize(spec)
    assert state_det(sys).monic() == Poly([-1, 1]) ** 2
    numer, d = _parts_and_oracle(sys)
    assert d == Poly([-1, 1])
    assert numer == PolyMatrix([[Poly([1, -1, 1]), Poly([-1, 1])], [Poly.zero(), Poly([2, -1, 1])]])


def test_exact_classify_builds_no_rational_function(monkeypatch):
    # G reaches the Smith-McMillan form as N / d, on the exact route and
    # through the public functions alike: no entry is reduced on its own
    sys = realize(rand_rep_spec(random.Random(2207), 3, 3, 2))
    counts = {"RationalFn": 0}
    init = RationalFn.__init__

    def counting_init(self, *args):
        counts["RationalFn"] += 1
        init(self, *args)

    monkeypatch.setattr(RationalFn, "__init__", counting_init)
    report = classify_zeros(sys)
    assert report.zeros and counts == {"RationalFn": 0}
    smith_mcmillan(transfer_function(sys))
    assert counts == {"RationalFn": 0}


# --- solve_rep -----------------------------------------------------------------------

def test_solve_rep_desk1_end_to_end():
    report = solve_rep(desk1_spec())
    assert report.minimal
    assert report.pencil_size == 3 and tuple(report.sigma) == (1, 0)
    oracle = np.roots([1, -1, 0, 1])
    assert_value_sets_close([z.value for z in report.zeros], oracle, 1e-10)
    assert all(z.classification == EIGENVALUE for z in report.zeros)
    assert [p.value for p in report.poles] == [F(1)]
    assert report.decoupling.empty


def test_solve_rep_fluid_solid_style_spec():
    # K - lam*M + lam/(lam - sigma1) * C1 with rank-1 symmetric C1
    K = [[4, 1], [1, 3]]
    M = [[2, 0], [0, 1]]
    P = PolyMatrix.from_coefficient_grids([K, [[-2, 0], [0, -1]]])
    c1 = ((1, 1), (1, 1))
    spec = RepSpec(P, (RepTerm(RationalFn(LAM, Poly([-5, 1])), c1),))
    report = solve_rep(spec)
    assert report.minimal
    from rosepen.system import realize

    sys = realize(spec)
    det_s = poly_matrix_det(assemble_system_matrix(sys))
    oracle = np.roots([float(c) for c in reversed(det_s.coeffs)])
    assert_value_sets_close([z.value for z in report.zeros], oracle, 1e-8)


def test_solve_rep_polynomial_only_reduces_to_classical_pep():
    spec = RepSpec(PolyMatrix([[Poly([1, 0, 1])]]), ())
    report = solve_rep(spec)
    assert report.pencil_size == 2  # r = 0: classical companion of lam^2 + 1
    assert_value_sets_close([z.value for z in report.zeros], [1j, -1j], 1e-10)


def test_solve_rep_warns_on_non_minimal_realization():
    # duplicated pole with colinear matrices stacks two state blocks at the
    # same pole reachable through the same input direction
    spec = RepSpec(
        PolyMatrix([[LAM]]),
        (
            RepTerm(RationalFn(ONE, Poly([-1, 1])), ((1,),)),
            RepTerm(RationalFn(Poly([2]), Poly([-1, 1])), ((1,),)),
        ),
    )
    with pytest.warns(UserWarning, match="not minimal"):
        report = solve_rep(spec)
    assert not report.minimal
    assert "invariant zeros" in report.note


# --- linearization theorems ------------------------------------------------------------

def test_linearization_smith_form_theorem():
    rng = random.Random(223)
    shapes = [(1, 1, 2), (2, 1, 2), (1, 2, 3), (2, 2, 2)]
    for n, r, m in shapes:
        sys = rand_system(rng, n, r, m, minimal=True)
        sm = smith_mcmillan(transfer_function(sys))
        for sigma in (Bijection.first_companion_order(m), Bijection.second_companion_order(m)):
            pencil = pencil_direct(sys, sigma)
            sf = smith_form(pencil.as_poly_matrix())
            nonconstant = tuple(p for p in sm.numerators if p.degree > 0)
            assert sf.invariant_polys == nonconstant
            assert sf.identity_count == (m - 1) * n + r + (
                len(sm.numerators) - len(nonconstant)
            )


def test_state_pencil_smith_form_carries_pole_structure():
    rng = random.Random(227)
    for n, r, m in [(1, 1, 2), (2, 2, 2), (1, 3, 2)]:
        sys = rand_system(rng, n, r, m, minimal=True)
        sm = smith_mcmillan(transfer_function(sys))
        sf = smith_form(state_pencil(sys))
        expected = tuple(p for p in reversed(sm.denominators) if p.degree > 0)
        assert sf.invariant_polys == expected
        assert sf.identity_count == r - len(expected)


def test_eigenpole_admits_vanishing_direction():
    # v = V e_i from the Smith reduction of d*G satisfies v(2) != 0 and
    # G(lam) v(lam) -> 0 as lam -> 2, by exact order counting
    for g, lam0 in [(eigenpole_index_matrix(), F(2)), (upper_example(), F(2))]:
        sf, u, v = smith_form_with_transforms(g.numer)
        sm = smith_mcmillan(g)
        pick = next(
            i
            for i, phi in enumerate(sm.numerators)
            if (phi % Poly([-lam0, 1])).is_zero
        )
        direction = [v.entries[k][pick] for k in range(v.rows)]
        assert any(p(lam0) != 0 for p in direction)
        for row in range(g.rows):
            w = RationalFn.from_poly(Poly.zero())
            for k in range(g.cols):
                w = w + g.entries[row][k] * direction[k]
            assert w.is_zero or w.order_at(lam0) >= 1


def upper_example():
    z = RationalFn.from_poly(Poly.zero())
    one = RationalFn.from_poly(ONE)
    return RationalMatrix([[one, RationalFn(ONE, Poly([-2, 1]))], [z, one]])
