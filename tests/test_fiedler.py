"""Fiedler factors, bijections/CISS, the three pencil constructions,
companion forms, block transposition, and pentadiagonal structure."""

import hashlib
import math
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import LAM, ONE, desk1_system, grid_int, rand_grid, rand_system
from _helpers import _SCALAR as _EXACT_SCALARS
from _helpers import exact_systems as _exact_systems
from rosepen import _linalg as L
from rosepen import io as rio
from rosepen.fiedler import (
    Bijection,
    CISS,
    SystemPencil,
    ciss,
    commutation_check,
    factor_inverse,
    first_companion,
    is_block_pentadiagonal,
    make_factor,
    pencil_algorithm1,
    pencil_block_formula,
    pencil_direct,
    second_companion,
    system_block_transpose,
)
from rosepen.polymat import Poly, PolyMatrix, block_transpose, poly_matrix_det
from rosepen.system import RosenbrockSystem, assemble_system_matrix

DESK1 = desk1_system()


def block(grid, bi, bj, sizes):
    offs = [0]
    for s in sizes:
        offs.append(offs[-1] + s)
    return tuple(
        tuple(grid[a][b] for b in range(offs[bj - 1], offs[bj]))
        for a in range(offs[bi - 1], offs[bi])
    )


# --- bijections and CISS -----------------------------------------------------

def test_bijection_validation():
    with pytest.raises(ValueError):
        Bijection((0, 0))
    with pytest.raises(ValueError):
        Bijection((1, 2))
    assert Bijection.from_string("1,0,2,3").inverse_order == (1, 0, 2, 3)


def test_ciss_companion_orders():
    assert ciss(Bijection.first_companion_order(6)).pairs == (0, 5)
    assert ciss(Bijection.second_companion_order(6)).pairs == (5, 0)


def test_ciss_mixed_example():
    # inversion at 0, consecutions at 1 and 2
    assert ciss(Bijection((1, 0, 2, 3))).pairs == (0, 1, 2, 0)


def test_ciss_totals_sum_to_m_minus_one():
    rng = random.Random(5)
    for m in range(1, 7):
        order = list(range(m))
        rng.shuffle(order)
        s = ciss(Bijection(tuple(order)))
        assert s.consecution_total + s.inversion_total == m - 1
        interior = s.pairs[1:-1]
        assert all(x > 0 for x in interior)


# --- factors -------------------------------------------------------------------

def test_desk1_factors():
    assert grid_int(make_factor(DESK1, 0).matrix) == [[1, 0, 0], [0, 0, -1], [0, -1, -1]]
    assert grid_int(make_factor(DESK1, 1).matrix) == [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    assert grid_int(make_factor(DESK1, 2).matrix) == [[1, 0, 0], [0, 1, 0], [0, 0, -1]]


def test_factor_index_range():
    with pytest.raises(ValueError):
        make_factor(DESK1, 3)


def test_factor_inverse_desk1_self_inverse():
    inv = factor_inverse(make_factor(DESK1, 1))
    assert grid_int(inv) == [[0, 1, 0], [1, 0, 0], [0, 0, 1]]


def test_factor_inverse_defining_property():
    rng = random.Random(53)
    sys = rand_system(rng, 2, 2, 3)
    for i in (1, 2):
        f = make_factor(sys, i)
        inv = factor_inverse(f)
        assert L.eq(L.mul(f.matrix, inv), L.eye(f.size))
        assert L.eq(L.mul(inv, f.matrix), L.eye(f.size))


def test_factor_inverse_rejects_boundary_indices():
    with pytest.raises(ValueError):
        factor_inverse(make_factor(DESK1, 0))
    with pytest.raises(ValueError):
        factor_inverse(make_factor(DESK1, 2))


# --- pencil constructions -------------------------------------------------------

def test_pencil_direct_desk1():
    p = pencil_direct(DESK1, Bijection((1, 0)))
    assert grid_int(p.lead) == [[1, 0, 0], [0, 1, 0], [0, 0, -1]]
    assert grid_int(L.neg(p.const_term)) == [[0, 0, -1], [1, 0, 0], [0, -1, -1]]
    pm = p.as_poly_matrix()
    assert pm == PolyMatrix(
        [
            [LAM, Poly.zero(), ONE],
            [Poly([-1]), LAM, Poly.zero()],
            [Poly.zero(), ONE, Poly([1, -1])],
        ]
    )
    assert poly_matrix_det(pm) == Poly([-1, 0, 1, -1])
    assert (p.b_row_block, p.c_col_block) == (2, 1)


def test_pencil_direct_paper_m4_display():
    rng = random.Random(59)
    sys = rand_system(rng, 2, 2, 4)
    p = pencil_direct(sys, Bijection((1, 0, 2, 3)))
    sizes = [2] * 4 + [2]
    ms = L.neg(p.const_term)
    ai = [sys.coefficient(k) for k in range(5)]
    eye = L.eye(2)
    expect = {
        (1, 1): L.neg(ai[3]), (1, 2): eye,
        (2, 1): L.neg(ai[2]), (2, 3): eye,
        (3, 1): L.neg(ai[1]), (3, 4): L.neg(ai[0]), (3, 5): L.neg(sys.C),
        (4, 1): eye,
        (5, 4): L.neg(sys.B), (5, 5): L.neg(sys.A),
    }
    for bi in range(1, 6):
        for bj in range(1, 6):
            got = block(ms, bi, bj, sizes)
            if (bi, bj) in expect:
                assert L.eq(got, expect[(bi, bj)]), (bi, bj)
            else:
                assert all(x == 0 for row in got for x in row), (bi, bj)


def test_equivalent_bijections_same_pencil():
    rng = random.Random(61)
    sys = rand_system(rng, 2, 1, 4)
    tau = pencil_direct(sys, Bijection((2, 0, 1, 3)))
    delta = pencil_direct(sys, Bijection((0, 2, 3, 1)))
    assert tau == delta


def test_algorithm1_seed_matrices_desk1():
    consecution = pencil_algorithm1(DESK1, Bijection((0, 1)))
    assert grid_int(L.neg(consecution.const_term)) == [[0, 1, 0], [0, 0, -1], [-1, 0, -1]]
    inversion = pencil_algorithm1(DESK1, Bijection((1, 0)))
    assert grid_int(L.neg(inversion.const_term)) == [[0, 0, -1], [1, 0, 0], [0, -1, -1]]


# signed zeros, the float range's ends and its smallest subnormal, and floats
# in between
_FLOAT_SCALARS = st.sampled_from((0.0, -0.0, 1.0, -1.0, 1.7e308, -1.7e308, 5e-324)) | st.floats(
    -1.7e308, 1.7e308
)


@st.composite
def _any_degree_systems(draw, scalars, mode):
    """Systems of `mode` with n <= 2, r <= 2 and m = 1..4; at m = 1 P may be
    constant (deg P = 0, an implied zero leading coefficient)."""
    n, r, m = draw(st.integers(1, 2)), draw(st.integers(0, 2)), draw(st.integers(1, 4))

    def grid(h, w):
        return [[draw(scalars) for _ in range(w)] for _ in range(h)]

    grids = [grid(n, n) for _ in range(m + 1)]
    if m == 1 and draw(st.booleans()):
        grids = grids[:1]
    elif not any(any(row) for row in grids[m]):
        grids[m][0][0] = L.coerce_scalar(1, mode)
    P = PolyMatrix.from_coefficient_grids(grids, mode)
    if r == 0:
        return RosenbrockSystem(P)
    return RosenbrockSystem(P, grid(r, r), grid(r, r), grid(r, n), grid(n, r))


def _assert_same_pencil(got, want):
    """Equal block indices, and equal entries of one type; a float entry
    also in its sign, so -0.0 and 0.0 differ."""
    assert (got.b_row_block, got.c_col_block) == (want.b_row_block, want.c_col_block)
    assert len({L.shape(g) for g in (got.lead, got.const_term, want.lead, want.const_term)}) == 1
    for a, b in ((got.lead, want.lead), (got.const_term, want.const_term)):
        for x, y in zip([x for row in a for x in row], [y for row in b for y in row]):
            assert type(x) is type(y) and x == y, (x, y)
            if isinstance(x, float):
                assert math.copysign(1.0, x) == math.copysign(1.0, y), (x, y)


@pytest.mark.parametrize(
    "scalars, mode", [(_EXACT_SCALARS, L.EXACT), (_FLOAT_SCALARS, L.FLOAT)], ids=["exact", "float"]
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_splice_equals_product_at_every_degree(scalars, mode, data):
    # the splice is the pencil of every caller but numeric classify_zeros,
    # so it must equal the dense product for m = 1 too, and in float mode
    # in the sign of every zero
    sys = data.draw(_any_degree_systems(scalars, mode))
    for perm in permutations(range(sys.m)):
        sigma = Bijection(perm)
        _assert_same_pencil(pencil_algorithm1(sys, sigma), pencil_direct(sys, sigma))


def test_three_constructions_agree_m4_exhaustive():
    rng = random.Random(67)
    sys = rand_system(rng, 2, 2, 4)
    for perm in permutations(range(4)):
        sigma = Bijection(perm)
        a = pencil_direct(sys, sigma)
        b = pencil_algorithm1(sys, sigma)
        c = pencil_block_formula(sys, sigma)
        assert a == b == c, perm


@settings(max_examples=40, deadline=None)
@given(_exact_systems())
def test_splice_and_product_encode_alike(sys):
    # `verify` hashes these bytes, so the routes must agree to the byte
    for perm in permutations(range(sys.m)):
        sigma = Bijection(perm)
        spliced = rio.dumps(rio.encode_pencil(pencil_algorithm1(sys, sigma)))
        assert spliced == rio.dumps(rio.encode_pencil(pencil_direct(sys, sigma))), perm


def test_pencils_equal_up_to_metadata_hash_alike():
    # __eq__ ignores b_row_block / c_col_block, so the hash must too
    p = pencil_direct(rand_system(random.Random(73), 1, 1, 2), Bijection((1, 0)))
    q = SystemPencil(p.lead, p.const_term, p.n, p.r, p.m, p.b_row_block, p.c_col_block + 1)
    assert p == q and hash(p) == hash(q)
    assert len({p, q}) == 1


def test_block_formula_metadata_matches_ciss():
    rng = random.Random(71)
    for m in (2, 3, 4):
        sys = rand_system(rng, 1, 2, m)
        for perm in permutations(range(m)):
            sigma = Bijection(perm)
            s = ciss(sigma)
            want = (m - s.c1, m) if s.c1 > 0 else (m, m - s.i1)
            # the splice reads its border blocks off -A_0, not off the CISS
            for route in (pencil_direct, pencil_algorithm1, pencil_block_formula):
                p = route(sys, sigma)
                assert (p.b_row_block, p.c_col_block) == want, (route.__name__, perm)
                # the borders really live in the advertised blocks
                sizes = [sys.n] * m + [sys.r]
                for bi in range(1, m + 1):
                    cblock = block(p.const_term, bi, m + 1, sizes)
                    bblock = block(p.const_term, m + 1, bi, sizes)
                    assert L.eq(cblock, sys.C) == (bi == p.c_col_block)
                    assert L.eq(bblock, sys.B) == (bi == p.b_row_block)


# --- companion forms -------------------------------------------------------------

def test_first_companion_desk1():
    p = first_companion(DESK1)
    assert p.as_poly_matrix() == PolyMatrix(
        [
            [LAM, Poly.zero(), ONE],
            [Poly([-1]), LAM, Poly.zero()],
            [Poly.zero(), ONE, Poly([1, -1])],
        ]
    )


def test_first_companion_r0_classical():
    sys = RosenbrockSystem(PolyMatrix([[LAM * LAM + ONE]]))
    p = first_companion(sys)
    assert p.as_poly_matrix() == PolyMatrix([[LAM, ONE], [Poly([-1]), LAM]])
    assert poly_matrix_det(p.as_poly_matrix()) == Poly([1, 0, 1])


def test_m1_pencil_is_system_matrix():
    sys = RosenbrockSystem(
        PolyMatrix.identity(2), [[2]], [[1]], [[0, 1]], [[1], [0]]
    )
    p = first_companion(sys)
    assert p.as_poly_matrix() == assemble_system_matrix(sys)
    assert p == second_companion(sys)


def test_second_companion_desk1():
    p = second_companion(DESK1)
    assert grid_int(L.neg(p.const_term)) == [[0, 1, 0], [0, 0, -1], [-1, 0, -1]]
    pm = p.as_poly_matrix()
    assert pm == PolyMatrix(
        [
            [LAM, Poly([-1]), Poly.zero()],
            [Poly.zero(), LAM, ONE],
            [ONE, Poly.zero(), Poly([1, -1])],
        ]
    )
    assert poly_matrix_det(pm) == Poly([-1, 0, 1, -1])


def test_second_companion_is_block_transpose_of_first():
    rng = random.Random(73)
    for m in (2, 3, 4, 5):
        sys = rand_system(rng, 2, 1, m)
        assert system_block_transpose(first_companion(sys)) == second_companion(sys)


# --- system block transpose ------------------------------------------------------

def test_system_block_transpose_involution():
    rng = random.Random(79)
    sys = rand_system(rng, 2, 2, 3)
    for perm in permutations(range(3)):
        p = pencil_direct(sys, Bijection(perm))
        assert system_block_transpose(system_block_transpose(p)) == p


@settings(max_examples=25, deadline=None)
@given(_exact_systems())
def test_block_transpose_reverses_sigma(sys):
    # the pencil of the reversed product order is the block transpose, with
    # the B-row and C-column blocks swapped (C_2 = C_1^B for the companions)
    for perm in permutations(range(sys.m)):
        p = pencil_algorithm1(sys, Bijection(perm))
        bt = system_block_transpose(p)
        reverse = pencil_algorithm1(sys, Bijection(perm[::-1]))
        assert bt == reverse, perm
        assert (bt.b_row_block, bt.c_col_block) == (reverse.b_row_block, reverse.c_col_block)
        back = system_block_transpose(bt)
        assert back == p, perm
        assert (back.b_row_block, back.c_col_block) == (p.b_row_block, p.c_col_block)


def test_system_block_transpose_r0_matches_polymat():
    rng = random.Random(83)
    sys = rand_system(rng, 2, 0, 3)
    p = first_companion(sys)
    bt = system_block_transpose(p)
    assert bt.as_poly_matrix() == block_transpose(p.as_poly_matrix(), 3, 3, 2)


def test_system_block_transpose_rejects_scattered_border():
    p = first_companion(desk1_system())
    # misreport the C-column location: validation must notice the mismatch
    from rosepen.fiedler import SystemPencil

    forged = SystemPencil(
        p.lead, p.const_term, p.n, p.r, p.m, p.b_row_block, c_col_block=2
    )
    with pytest.raises(ValueError):
        system_block_transpose(forged)
    # a block index outside 1..m names no block at all
    outside = SystemPencil(p.lead, p.const_term, p.n, p.r, p.m, p.b_row_block, c_col_block=0)
    with pytest.raises(ValueError, match="outside 1..2"):
        system_block_transpose(outside)


# --- pentadiagonal ---------------------------------------------------------------

def pentadiagonal_bijections_m6():
    odd, even = (1, 3, 5), (2, 4)
    return {
        "case1": Bijection(odd + (0,) + even),
        "case2": Bijection((0,) + even + odd),
        "case3": Bijection((0,) + odd + even),
        "case4": Bijection(even + odd + (0,)),
    }


def test_pentadiagonal_m6_cases():
    rng = random.Random(89)
    sys = rand_system(rng, 2, 2, 6)
    cases = pentadiagonal_bijections_m6()
    assert is_block_pentadiagonal(pencil_direct(sys, cases["case1"]))
    assert is_block_pentadiagonal(pencil_direct(sys, cases["case2"]))
    assert not is_block_pentadiagonal(pencil_direct(sys, cases["case3"]))
    assert not is_block_pentadiagonal(pencil_direct(sys, cases["case4"]))


def test_first_companion_not_pentadiagonal_for_m4():
    rng = random.Random(97)
    sys = rand_system(rng, 1, 1, 4)
    assert not is_block_pentadiagonal(first_companion(sys))


def test_pentadiagonal_predicate_matches_structure_theorem():
    rng = random.Random(101)
    for m in (2, 3, 4, 5):
        sys = rand_system(rng, 2, 1, m)
        sys0 = RosenbrockSystem(sys.P)
        for perm in permutations(range(m)):
            sigma = Bijection(perm)
            s = ciss(sigma)
            predicted = (
                s.c1 <= 1
                and s.i1 <= 1
                and is_block_pentadiagonal(pencil_direct(sys0, sigma))
            )
            assert is_block_pentadiagonal(pencil_direct(sys, sigma)) == predicted


# --- commutation ----------------------------------------------------------------

def test_commutation_relations_m4():
    rng = random.Random(103)
    sys = rand_system(rng, 2, 2, 4)
    assert commutation_check(sys, 0, 2)
    assert not commutation_check(sys, 0, 4)
    assert not commutation_check(sys, 1, 2)  # adjacent, generically false


def test_inverse_factor_commutation():
    rng = random.Random(107)
    sys = rand_system(rng, 2, 2, 5)
    for i in range(1, 5):
        for j in range(1, 5):
            if abs(i - j) > 1:
                fi = factor_inverse(make_factor(sys, i))
                fj = factor_inverse(make_factor(sys, j))
                assert L.eq(L.mul(fi, fj), L.mul(fj, fi))


# --- deflation and counting ------------------------------------------------------

def test_lead_singular_iff_leading_coefficient_or_e_singular():
    rng = random.Random(109)
    good = rand_system(rng, 2, 2, 3, nonsingular_lead=True)
    assert L.rank(first_companion(good).lead) == good.n * good.m + good.r

    singular_am = RosenbrockSystem(
        PolyMatrix.from_coefficient_grids(
            [rand_grid(rng, 2, 2), rand_grid(rng, 2, 2), [[1, 0], [0, 0]]]
        ),
        rand_grid(rng, 2, 2),
        [[1, 0], [0, 1]],
        rand_grid(rng, 2, 2),
        rand_grid(rng, 2, 2),
    )
    assert L.rank(first_companion(singular_am).lead) < 2 * 2 + 2


def test_distinct_pencil_count_matches_classical():
    rng = random.Random(113)
    for m in (2, 3, 4, 5):
        sys = rand_system(rng, 1, 1, m)
        sys0 = RosenbrockSystem(sys.P)
        with_state = {
            pencil_direct(sys, Bijection(p)).const_term
            for p in permutations(range(m))
        }
        classical = {
            pencil_direct(sys0, Bijection(p)).const_term
            for p in permutations(range(m))
        }
        assert len(with_state) == len(classical)


def test_float_pencils_of_systems_equal_up_to_signed_zeros():
    # -0.0 == 0.0, so these systems compare (and hash) equal, yet -E differs
    # in the sign of one zero; no factor may be shared between them
    def system(e01):
        return RosenbrockSystem(
            PolyMatrix([[Poly([0.0, 0.0, 1.0], "float")]]),
            [[0.0, 0.0], [0.0, 0.0]],
            [[1.0, e01], [0.0, 1.0]],
            [[1.0], [1.0]],
            [[1.0, 1.0]],
        )

    plus, minus = system(0.0), system(-0.0)
    assert plus == minus
    sigma = Bijection((1, 0))
    for first, second in ((plus, minus), (minus, plus)):
        pencil_direct(first, sigma)
        got = pencil_direct(second, sigma).lead[2][3]
        assert got == 0 and math.copysign(1.0, got) == -math.copysign(1.0, second.E[0][1])


def _float_system(seed, n, r, m):
    """A seeded `rand_system` in float mode, each zero entry given the sign
    of a coin toss."""
    rng = random.Random(seed)
    exact = rand_system(rng, n, r, m)

    def grid(g):
        return [[float(x) if x or rng.random() < 0.5 else -0.0 for x in row] for row in g]

    grids = [grid(exact.coefficient(k)) for k in range(m + 1)]
    P = PolyMatrix.from_coefficient_grids(grids, "float")
    if r == 0:
        return RosenbrockSystem(P)
    return RosenbrockSystem(P, grid(exact.A), grid(exact.E), grid(exact.B), grid(exact.C))


# sha256 over every sigma, in `permutations` order, of
# repr((lead, const_term, b_row_block, c_col_block)) of the spliced pencil,
# keyed by (n, r, m, seed); these bytes, signed zeros included, were taken
# from the dense factor product `pencil_direct` on the same systems
_FLOAT_SPLICE_SHA256 = {
    (1, 0, 2, 2120): "4f268b3e1a3be3bdb6a86cd099b134ea8b8758ba756fa2d03ff688b44e1aba19",
    (2, 1, 2, 2121): "58e167112d941cbee7d6cf3e3d6ac9cb99755e919b5e66b3860623f2923876e7",
    (1, 2, 2, 2122): "f37a77abe81eef78d8d89f5cea95460377842c74a388e6ed05b6a02d65d3ef4a",
    (2, 0, 3, 2130): "d306b3e01a6c37f326a845abfacc51add99e4695dd996bc52ec1aead34cc2e04",
    (1, 1, 3, 2131): "195aed26554ec6858f13ce1f6b946bdd9c6acd1b8c90c14f0988afe7b354cd7b",
    (2, 2, 3, 2132): "980174c05cd22ff4bc7217037d011cf9fbce89884629dc8da2b0e4d906b53e40",
    (1, 0, 4, 2140): "ed44eb02f8cace791c49fcf89c3e2975bb67357a49a6dc64b606e6c42da693c7",
    (2, 1, 4, 2141): "616646deba5c7b07cac4470065f1aba089224c69da79b42bdc0b4bf5d2bb62d4",
    (1, 2, 4, 2142): "8fbb0d60ac714f8d422da38b32804fe2122dbbb60cdcbc739b91dbaa8cc1b20f",
}


@pytest.mark.parametrize("key", sorted(_FLOAT_SPLICE_SHA256))
def test_float_splice_bytes_are_pinned(key):
    n, r, m, seed = key
    sys = _float_system(seed, n, r, m)
    digest = hashlib.sha256()
    for perm in permutations(range(m)):
        p = pencil_algorithm1(sys, Bijection(perm))
        digest.update(repr((p.lead, p.const_term, p.b_row_block, p.c_col_block)).encode())
    assert digest.hexdigest() == _FLOAT_SPLICE_SHA256[key]
