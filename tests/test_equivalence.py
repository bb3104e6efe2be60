"""Auxiliary system polynomials, the intermediate-pencil chain, and the
unimodular equivalence certificates."""

import random
from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import (
    LAM,
    ONE,
    certificate_residual,
    desk1_system,
    exact_systems,
    kept_factor_pencil,
    naive_poly_matmul,
    rand_system,
)
from rosepen import _linalg as L
from rosepen import equivalence
from rosepen.equivalence import (
    CertificateError,
    aux_block_transpose,
    aux_matrix,
    aux_relations_check,
    build_certificate,
    intermediate_pencil,
    verify_rosenbrock_linearization,
)
from rosepen.fiedler import (
    Bijection,
    SystemPencil,
    factor_inverse,
    make_factor,
    pencil_algorithm1,
    pencil_direct,
    system_block_transpose,
)
from rosepen.polymat import Poly, PolyMatrix, poly_matrix_det
from rosepen.system import assemble_system_matrix

DESK1 = desk1_system()


# --- auxiliary matrices ------------------------------------------------------

def test_d1_equals_leading_factor():
    d1 = aux_matrix(DESK1, "D", 1)
    assert d1.matrix == PolyMatrix.from_scalar_grid(make_factor(DESK1, 2).matrix)


def test_r1_desk1():
    r1 = aux_matrix(DESK1, "R", 1)
    assert r1.matrix == PolyMatrix(
        [
            [Poly.zero(), ONE, Poly.zero()],
            [ONE, LAM, Poly.zero()],  # P_1(lam) = lam for P = lam^2
            [Poly.zero(), Poly.zero(), ONE],
        ]
    )


def test_t1_desk1():
    t1 = aux_matrix(DESK1, "T", 1)
    assert t1.matrix == PolyMatrix(
        [
            [Poly.zero(), LAM, Poly.zero()],
            [LAM, LAM * LAM, Poly.zero()],
            [Poly.zero(), Poly.zero(), Poly.zero()],
        ]
    )


def test_aux_index_ranges():
    with pytest.raises(ValueError):
        aux_matrix(DESK1, "Q", 2)
    with pytest.raises(ValueError):
        aux_matrix(DESK1, "D", 3)
    aux_matrix(DESK1, "D", 2)  # D goes up to m


def test_q_r_unimodular_and_r_self_transpose():
    rng = random.Random(127)
    sys = rand_system(rng, 2, 2, 4)
    for i in (1, 2, 3):
        q = aux_matrix(sys, "Q", i)
        r = aux_matrix(sys, "R", i)
        dq, dr = poly_matrix_det(q.matrix), poly_matrix_det(r.matrix)
        assert dq.degree == 0 and not dq.is_zero
        assert dr.degree == 0 and not dr.is_zero
        assert aux_block_transpose(r, sys).matrix == r.matrix


# --- lemma relations -----------------------------------------------------------

def test_relations_desk1():
    assert bool(aux_relations_check(DESK1, 1))


def test_relations_random_m3():
    rng = random.Random(131)
    sys = rand_system(rng, 2, 2, 3)
    for i in (1, 2):
        rep = aux_relations_check(sys, i)
        assert bool(rep), rep.failures


def test_relations_absorption_vacuous_at_top_index():
    rng = random.Random(137)
    sys = rand_system(rng, 1, 1, 2)
    # i = m-1 = 1: condition (c) ranges over an empty index set
    assert bool(aux_relations_check(sys, 1))


# --- intermediate pencils --------------------------------------------------------

def test_intermediate_j1_is_pencil():
    rng = random.Random(139)
    sys = rand_system(rng, 2, 1, 3)
    for perm in permutations(range(3)):
        sigma = Bijection(perm)
        assert intermediate_pencil(sys, sigma, 1) == pencil_direct(sys, sigma).as_poly_matrix()


def test_intermediate_jm_is_deflated_system_matrix():
    rng = random.Random(149)
    sys = rand_system(rng, 2, 1, 3)
    sigma = Bijection((2, 0, 1))
    out = intermediate_pencil(sys, sigma, 3)
    s = assemble_system_matrix(sys)
    lead = (sys.m - 1) * sys.n
    for i in range(lead):
        for j in range(out.cols):
            want = Poly.constant(-1) if i == j else Poly.zero()
            assert out.entries[i][j] == want
            assert out.entries[j][i] == want
    for a in range(sys.n + sys.r):
        for b in range(sys.n + sys.r):
            assert out.entries[lead + a][lead + b] == s.entries[a][b]


def test_intermediate_desk1_m2_coincides():
    sigma = Bijection((1, 0))
    assert intermediate_pencil(DESK1, sigma, 2) == PolyMatrix(
        [
            [Poly([-1]), Poly.zero(), Poly.zero()],
            [Poly.zero(), LAM * LAM, ONE],
            [Poly.zero(), ONE, Poly([1, -1])],
        ]
    )


@settings(max_examples=30, deadline=None)
@given(exact_systems())
def test_intermediate_pencils_are_the_kept_factor_products(sys):
    # the splice of factors 0..m-j against their product multiplied out
    for perm in permutations(range(sys.m)):
        sigma = Bijection(perm)
        for j in range(1, sys.m + 1):
            assert intermediate_pencil(sys, sigma, j) == kept_factor_pencil(sys, sigma, j), (perm, j)


def test_intermediate_pencils_do_no_poly_matrix_arithmetic(monkeypatch):
    # every entry is laid out once from the splice and D_j's coefficients,
    # on a cold memo too: no difference, scaling or lift of a scalar grid
    sys = rand_system(random.Random(211), 1, 1, 4)
    calls = []

    def counting(name, f):
        def wrapper(*args):
            calls.append(name)
            return f(*args)

        return wrapper

    for name in ("__sub__", "scale"):
        monkeypatch.setattr(PolyMatrix, name, counting(name, getattr(PolyMatrix, name)))
    lift = counting("from_scalar_grid", PolyMatrix.from_scalar_grid)
    monkeypatch.setattr(PolyMatrix, "from_scalar_grid", staticmethod(lift))
    for perm in permutations(range(4)):
        for j in range(1, 5):
            intermediate_pencil(sys, Bijection(perm), j)
    assert calls == []


def _count_products(monkeypatch):
    """(PolyMatrix products, product-kernel calls over every row and
    column, chain steps applied): three lists that gain one item per call
    from now on."""
    products, full, steps = [], [], []
    mul, kernel, apply_step = PolyMatrix.__mul__, PolyMatrix._product, equivalence._apply_step

    def counting_mul(self, other):
        products.append(1)
        return mul(self, other)

    def counting_kernel(self, other, rows, cols):
        if (rows, cols) == (range(self.rows), range(other.cols)):
            full.append(1)
        return kernel(self, other, rows, cols)

    def counting_step(step, x):
        steps.append(1)
        return apply_step(step, x)

    monkeypatch.setattr(PolyMatrix, "__mul__", counting_mul)
    monkeypatch.setattr(PolyMatrix, "_product", counting_kernel)
    monkeypatch.setattr(equivalence, "_apply_step", counting_step)
    return products, full, steps


@pytest.mark.parametrize("m", [2, 3, 4])
def test_cold_certificate_multiplies_only_the_chain_steps(monkeypatch, m):
    # each of the m-1 steps is applied once, as row and column updates: the
    # intermediate pencils are spliced, so no Fiedler factor is multiplied,
    # and no PolyMatrix product is formed even on a cold memo
    sys = rand_system(random.Random(199 + m), 1, 1, m)
    sigma = Bijection(tuple(range(m)))
    pencil = pencil_algorithm1(sys, sigma)
    products, full, steps = _count_products(monkeypatch)
    assert build_certificate(sys, sigma, pencil=pencil).residual_zero
    assert (len(products), len(full), len(steps)) == (0, 0, m - 1)


# --- certificates ---------------------------------------------------------------

def test_certificate_desk1_single_step():
    cert = build_certificate(DESK1, Bijection((1, 0)))
    assert cert.residual_zero
    assert cert.u_factors == (("R", 1, True),)
    assert cert.v_factors == (("Q", 1, False),)
    assert verify_rosenbrock_linearization(DESK1, Bijection((1, 0)))


def test_certificate_paper_m4_factor_sequence():
    rng = random.Random(151)
    sys = rand_system(rng, 1, 1, 4)
    cert = build_certificate(sys, Bijection((2, 0, 1, 3)))
    assert cert.u_factors == (("Q", 3, True), ("R", 2, True), ("Q", 1, True))
    assert cert.v_factors == (("R", 1, False), ("Q", 2, False), ("R", 3, False))
    assert cert.residual_zero


def test_certificate_sweep_small_degrees():
    rng = random.Random(157)
    for m in (2, 3):
        sys = rand_system(rng, 2, 2, m)
        for perm in permutations(range(m)):
            cert = build_certificate(sys, Bijection(perm))
            assert cert.residual_zero, perm


def test_chain_composition_reproduces_u_and_v():
    rng = random.Random(163)
    sys = rand_system(rng, 2, 1, 4)
    sigma = Bijection((1, 3, 0, 2))
    cert = build_certificate(sys, sigma)
    u = None
    for kind, idx, transposed in cert.u_factors:
        aux = aux_matrix(sys, kind, idx)
        mat = aux_block_transpose(aux, sys).matrix if transposed else aux.matrix
        u = mat if u is None else u * mat
    v = None
    for kind, idx, transposed in cert.v_factors:
        aux = aux_matrix(sys, kind, idx)
        mat = aux_block_transpose(aux, sys).matrix if transposed else aux.matrix
        v = mat if v is None else v * mat
    assert u == cert.U and v == cert.V


def test_certificate_target_sign_bridge():
    # diag(-I, I) * target = I_{(m-1)n} (+) S, recovering the unsigned form
    rng = random.Random(167)
    sys = rand_system(rng, 2, 1, 3)
    cert = build_certificate(sys, Bijection((0, 1, 2)))
    n, r, m = sys.n, sys.r, sys.m
    size = n * m + r
    flip = PolyMatrix(
        [
            [
                Poly.constant(-1 if (i == j and i < (m - 1) * n) else (1 if i == j else 0))
                for j in range(size)
            ]
            for i in range(size)
        ]
    )
    unsigned = flip * cert.target
    s = assemble_system_matrix(sys)
    lead = (m - 1) * n
    for i in range(lead):
        assert unsigned.entries[i][i] == ONE
    for a in range(n + r):
        for b in range(n + r):
            assert unsigned.entries[lead + a][lead + b] == s.entries[a][b]


def test_certificate_det_relation():
    # det U * det L * det V = det(-I) * det(S) pins det L = c det S
    rng = random.Random(173)
    sys = rand_system(rng, 1, 2, 3)
    sigma = Bijection((2, 1, 0))
    cert = build_certificate(sys, sigma)
    pencil = pencil_direct(sys, sigma)
    det_l = poly_matrix_det(pencil.as_poly_matrix())
    det_s = poly_matrix_det(assemble_system_matrix(sys))
    du = poly_matrix_det(cert.U).coefficient(0)
    dv = poly_matrix_det(cert.V).coefficient(0)
    sign = F(-1) ** ((sys.m - 1) * sys.n)
    assert det_l * (du * dv) == det_s * sign


def test_corrupted_pencil_detected_and_localized():
    sigma = Bijection((1, 0))
    p = pencil_direct(DESK1, sigma)
    bad = [list(row) for row in p.const_term]
    bad[0][1] += 1
    forged = SystemPencil(
        p.lead, L.freeze(bad), p.n, p.r, p.m, p.b_row_block, p.c_col_block
    )
    with pytest.raises(CertificateError) as info:
        build_certificate(DESK1, sigma, pencil=forged)
    assert info.value.position is not None
    assert verify_rosenbrock_linearization(DESK1, sigma, pencil=forged) is False


def test_r0_reduces_to_classical_linearization_certificate():
    rng = random.Random(179)
    sys = rand_system(rng, 2, 0, 3)
    for perm in permutations(range(3)):
        assert verify_rosenbrock_linearization(sys, Bijection(perm))


def test_certificate_u_v_identity_on_state_block():
    rng = random.Random(181)
    sys = rand_system(rng, 2, 3, 3)
    cert = build_certificate(sys, Bijection((1, 0, 2)))
    n, r, m = sys.n, sys.r, sys.m
    for mat in (cert.U, cert.V):
        for a in range(r):
            for b in range(r):
                want = ONE if a == b else Poly.zero()
                assert mat.entries[n * m + a][n * m + b] == want


# --- the residual comes from the step chain ----------------------------------

def _step_matrix(sys, kind, idx, transposed):
    aux = aux_matrix(sys, kind, idx)
    return aux_block_transpose(aux, sys).matrix if transposed else aux.matrix


@settings(max_examples=25, deadline=None)
@given(exact_systems())
def test_chain_product_is_u_pencil_v(sys):
    for perm in permutations(range(sys.m)):
        sigma = Bijection(perm)
        pencil = pencil_algorithm1(sys, sigma)
        cert = build_certificate(sys, sigma, pencil=pencil)
        # x_i = L_i x_{i-1} R_i, the chain build_certificate walks
        x = pencil.as_poly_matrix()
        lefts = reversed(cert.u_factors)
        for left, right in zip(lefts, cert.v_factors):
            x = _step_matrix(sys, *left) * x * _step_matrix(sys, *right)
        assert x == cert.U * pencil.as_poly_matrix() * cert.V, perm
        assert cert.residual == certificate_residual(cert, pencil), perm


@settings(max_examples=25, deadline=None)
@given(exact_systems(), st.data())
def test_step_updates_equal_the_step_products(sys, data):
    # _apply_step against the dense product L * X * R for every sigma, step
    # and consecution flag, on the spliced pencil, the step's intermediate
    # pencil and a pencil forged at one drawn entry; `*` shares the step's
    # product kernel, so the oracle is the dense reference
    pieces = equivalence._SystemPieces(sys)
    size = sys.n * sys.m + sys.r
    a, b = data.draw(st.integers(0, size - 1)), data.draw(st.integers(0, size - 1))
    delta = Poly(data.draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(any)))
    for perm in permutations(range(sys.m)):
        sigma = Bijection(perm)
        pencil = pencil_algorithm1(sys, sigma).as_poly_matrix()
        forged = [list(row) for row in pencil.entries]
        forged[a][b] = forged[a][b] + delta
        for i in range(1, sys.m):
            xs = (pencil, intermediate_pencil(sys, sigma, i), PolyMatrix(forged))
            for consecution in (True, False):
                step = pieces.step(i, consecution)
                for x in xs:
                    left = naive_poly_matmul(step.left.matrix, x)
                    want = naive_poly_matmul(left, step.right.matrix)
                    assert equivalence._apply_step(step, x) == want, (perm, i, consecution)


def test_certificate_multiplies_the_pencil_once(monkeypatch):
    # m = 4, warm: step 1 is applied to the pencil; steps 2..m-1 and the
    # residual come from the per-system memo, and there is no PolyMatrix
    # product, U * pencil * V included
    sys = rand_system(random.Random(191), 1, 1, 4)
    sigma = Bijection((2, 0, 1, 3))
    pencil = pencil_algorithm1(sys, sigma)
    build_certificate(sys, sigma, pencil=pencil)  # warms the per-system memo
    products, full, steps = _count_products(monkeypatch)
    cert = build_certificate(sys, sigma, pencil=pencil)
    assert cert.residual_zero
    assert (len(products), len(full), len(steps)) == (0, 0, 1)


def test_wrong_target_still_fails_the_residual(monkeypatch):
    sys = rand_system(random.Random(193), 1, 1, 3)
    target = equivalence._target

    def off_by_one(s):
        t = target(s)
        entries = [list(row) for row in t.entries]
        entries[-1][-1] = entries[-1][-1] + ONE
        return PolyMatrix(entries)

    monkeypatch.setattr(equivalence, "_target", off_by_one)
    with pytest.raises(CertificateError, match="certificate residual is nonzero") as info:
        build_certificate(sys, Bijection((1, 0, 2)))
    size = sys.n * sys.m + sys.r
    assert info.value.position == (size - 1, size - 1)


def test_step_two_failure_is_shared_by_sigmas_with_its_order(monkeypatch):
    # m = 4: 2,0,1,3 and 3,2,0,1 keep the factor order 2,0,1 at step 2, so
    # the later sigma reads the first one's memoised verdict; 2,1,0,3 keeps
    # 1 before 0 and must still pass; a fresh system from the same seed has
    # a cold memo
    sys = rand_system(random.Random(197), 1, 1, 4)
    intermediate = equivalence.intermediate_pencil

    def off_at_three(s, sigma, j):
        p = intermediate(s, sigma, j)
        if j != 3 or [i for i in sigma.inverse_order if i <= 1] != [0, 1]:
            return p
        entries = [list(row) for row in p.entries]
        entries[0][0] = entries[0][0] + ONE
        return PolyMatrix(entries)

    def failure(sys, sigma):
        with pytest.raises(CertificateError, match="step 2 product deviates") as info:
            build_certificate(sys, sigma)
        return str(info.value), info.value.position

    monkeypatch.setattr(equivalence, "intermediate_pencil", off_at_three)
    first, later = Bijection((2, 0, 1, 3)), Bijection((3, 2, 0, 1))
    warm = [failure(sys, first), failure(sys, later)]
    assert build_certificate(sys, Bijection((2, 1, 0, 3))).residual_zero
    fresh = []
    for sigma in (first, later):
        fresh.append(failure(rand_system(random.Random(197), 1, 1, 4), sigma))
    assert warm == fresh


# --- structural facts the certificate no longer recomputes ------------------------

@settings(max_examples=50, deadline=None)
@given(exact_systems())
def test_step_matrices_fix_unimodularity_and_the_state_block(sys):
    # the facts behind c = 1: Q-type steps have det 1, R-type (-1)^n, and
    # every step keeps I_r on the state block with a zero border
    n, r, m = sys.n, sys.r, sys.m
    core = n * m
    patterns = {}  # one sigma per consecution pattern of steps 1..m-1
    for perm in permutations(range(m)):
        patterns.setdefault(equivalence._consecution_flags(Bijection(perm)), Bijection(perm))
    assert len(patterns) == 2 ** (m - 1)
    for flags, sigma in patterns.items():
        cert = build_certificate(sys, sigma)
        lefts = list(reversed(cert.u_factors))
        for i, (consecution, left, right) in enumerate(zip(flags, lefts, cert.v_factors), 1):
            want = (("Q", i, True), ("R", i, False))
            if not consecution:
                want = (("R", i, True), ("Q", i, False))
            assert (left, right) == want, (flags, i)
            for kind, idx, transposed in (left, right):
                det = poly_matrix_det(_step_matrix(sys, kind, idx, transposed))
                assert det == Poly.constant(1 if kind == "Q" else (-1) ** n), (flags, i, kind)
        det_u, det_v = poly_matrix_det(cert.U), poly_matrix_det(cert.V)
        assert det_u.degree == 0 and det_v.degree == 0, flags
        assert det_u * det_v == Poly.constant((-1) ** ((m - 1) * n)), flags
        for mat in (cert.U, cert.V):
            for a in range(r):
                for b in range(r):
                    assert mat.entries[core + a][core + b] == (ONE if a == b else Poly.zero())
                for k in range(core):
                    assert mat.entries[core + a][k].is_zero, flags
                    assert mat.entries[k][core + a].is_zero, flags


# --- the structured builders, m = 1 included ---------------------------------------

@settings(max_examples=50, deadline=None)
@given(exact_systems(degrees=st.integers(1, 4)), st.data())
def test_structured_builders_as_properties(sys, data):
    # every matrix laid out by _linalg.embed against what it must satisfy:
    # factor inverses, the step relations, S for m = 1, the chain's end at
    # the target, and the block transpose reversing sigma
    m = sys.m
    for i in range(1, m):
        factor = make_factor(sys, i)
        assert L.eq(L.mul(factor.matrix, factor_inverse(factor)), L.eye(factor.size)), i
        assert aux_relations_check(sys, i).failures == (), i
    sigma = Bijection(tuple(data.draw(st.permutations(range(m)))))
    pencil = pencil_direct(sys, sigma)
    if m == 1:
        assert pencil.as_poly_matrix() == assemble_system_matrix(sys)
    assert intermediate_pencil(sys, sigma, m) == equivalence._target(sys)
    transposed = system_block_transpose(pencil)
    reverse = pencil_direct(sys, Bijection(sigma.inverse_order[::-1]))
    assert transposed == reverse
    assert (transposed.b_row_block, transposed.c_col_block) == (
        reverse.b_row_block,
        reverse.c_col_block,
    )
