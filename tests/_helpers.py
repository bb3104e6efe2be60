"""Shared fixtures-in-code for the test suite: desk examples, random system
and REP spec generators (plain and hypothesis), and independent gcd,
lowest-terms, transfer-function, Smith-McMillan, square-free
decomposition, determinant, certificate-residual, determinant-constant and
intermediate-pencil oracles."""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

from hypothesis import strategies as st

from rosepen import _linalg
from rosepen.eigen import pencil_determinant
from rosepen.equivalence import aux_matrix
from rosepen.fiedler import make_factor
from rosepen.polymat import (
    Poly,
    PolyMatrix,
    RationalFn,
    RationalMatrix,
    SmithMcMillanForm,
    smith_form,
)
from rosepen.system import RepSpec, RepTerm, RosenbrockSystem, assemble_system_matrix

LAM = Poly.lam()
ONE = Poly.one()


def rand_grid(rng, rows, cols, lo=-3, hi=3):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def rand_system(rng, n, r, m, nonsingular_lead=False, minimal=False, lo=-3, hi=3):
    """Random exact system with nonsingular E; optional extra constraints."""
    from rosepen.system import is_minimal

    while True:
        grids = [rand_grid(rng, n, n, lo, hi) for _ in range(m + 1)]
        P = PolyMatrix.from_coefficient_grids(grids)
        if P.degree != m:
            continue
        if nonsingular_lead and _linalg.det(grids[m]) == 0:
            continue
        if r == 0:
            sys = RosenbrockSystem(P)
        else:
            e = rand_grid(rng, r, r, lo, hi)
            if _linalg.det(e) == 0:
                continue
            sys = RosenbrockSystem(
                P,
                rand_grid(rng, r, r, lo, hi),
                e,
                rand_grid(rng, r, n, lo, hi),
                rand_grid(rng, n, r, lo, hi),
            )
        if minimal and not is_minimal(sys):
            continue
        return sys


def rand_rep_spec(rng, n, num_terms, max_poly_degree=3):
    """Random simple-pole REP specification with distinct integer poles."""
    while True:
        grids = [rand_grid(rng, n, n) for _ in range(rng.randint(1, max_poly_degree) + 1)]
        P = PolyMatrix.from_coefficient_grids(grids)
        if P.degree >= 1:
            break
    poles = rng.sample(range(-6, 7), num_terms)
    terms = []
    for p in poles:
        while True:
            mat = rand_grid(rng, n, n, -2, 2)
            if not _linalg.is_zero(mat):
                break
        num = Poly([rng.randint(-3, 3), rng.choice([0, 1])])
        if num.is_zero:
            num = ONE
        coeff = RationalFn(num, Poly([-p, 1]))
        if coeff.den.degree != 1:
            continue
        terms.append(RepTerm(coeff, mat))
    return RepSpec(P, tuple(terms))


def desk1_system():
    """n = r = 1, m = 2: P = lam^2, A = E = B = C = 1."""
    return RosenbrockSystem(PolyMatrix([[LAM * LAM]]), [[1]], [[1]], [[1]], [[1]])


def desk1_spec():
    return RepSpec(
        PolyMatrix([[LAM * LAM]]),
        (RepTerm(RationalFn(ONE, Poly([-1, 1])), ((1,),)),),
    )


def exnoevl_spec():
    """G = [[1, 1/(lam-2)], [0, 1]] as an REP specification."""
    return RepSpec(
        PolyMatrix.identity(2),
        (RepTerm(RationalFn(ONE, Poly([-2, 1])), ((0, 1), (0, 0))),),
    )


def exnoevl_system():
    return RosenbrockSystem(
        PolyMatrix.identity(2), [[2]], [[1]], [[0, 1]], [[1], [0]]
    )


def eigenpole_index_system():
    """Minimal realization of diag(1/(lam (lam-2)^2), (lam-2)/lam).

    Entry (1,1) in controllable canonical form for lam^3 - 4 lam^2 + 4 lam,
    entry (2,2) split as 1 - 2/lam; r = 4 matches deg(psi_G).
    """
    P = PolyMatrix([[Poly.zero(), Poly.zero()], [Poly.zero(), ONE]])
    A = [
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, -4, 4, 0],
        [0, 0, 0, 0],
    ]
    E = _linalg.eye(4)
    B = [[0, 0], [0, 0], [1, 0], [0, 1]]
    C = [[1, 0, 0, 0], [0, 0, 0, -2]]
    return RosenbrockSystem(P, A, E, B, C)


def eigenpole_index_matrix():
    """The rational matrix realized by eigenpole_index_system."""
    den1 = Poly([0, 1]) * Poly([-2, 1]) * Poly([-2, 1])
    zero = RationalFn.from_poly(Poly.zero())
    return RationalMatrix(
        [
            [RationalFn(ONE, den1), zero],
            [zero, RationalFn(Poly([-2, 1]), Poly([0, 1]))],
        ]
    )


def cofactor_det(matrix):
    """Independent recursive determinant oracle for PolyMatrix."""
    if matrix.rows == 1:
        return matrix[0, 0]
    total = Poly.zero(matrix.mode)
    for j in range(matrix.cols):
        e = matrix[0, j]
        if e.is_zero:
            continue
        term = e * cofactor_det(matrix.submatrix(0, j))
        total = total + term if j % 2 == 0 else total - term
    return total


def bareiss_det(matrix):
    """Independent determinant oracle for PolyMatrix: fraction-free Bareiss
    elimination over Q[lam], where every division is exact."""
    n = matrix.rows
    w = [list(row) for row in matrix.entries]
    sign = 1
    prev = Poly.one(matrix.mode)
    for k in range(n - 1):
        if w[k][k].is_zero:
            for i in range(k + 1, n):
                if not w[i][k].is_zero:
                    w[k], w[i] = w[i], w[k]
                    sign = -sign
                    break
            else:
                return Poly.zero(matrix.mode)
        pivot = w[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                w[i][j] = (w[i][j] * pivot - w[i][k] * w[k][j]) // prev
            w[i][k] = Poly.zero(matrix.mode)
        prev = pivot
    return w[n - 1][n - 1] * sign


def naive_poly_op(op, p, q=None):
    """List-based reference for Poly arithmetic through the public
    constructor: the shorter operand is padded with the mode's zero and
    each coefficient is computed on its own.  op is "+", "-", "neg", "*"
    or "divmod"."""
    zero = _linalg.coerce_scalar(0, p.mode)
    a = list(p.coeffs)
    if op == "neg":
        return Poly([-x for x in a], p.mode)
    b = list(q.coeffs)
    if op in ("+", "-"):
        n = max(len(a), len(b))
        a += [zero] * (n - len(a))
        b += [zero] * (n - len(b))
        return Poly([x + y if op == "+" else x - y for x, y in zip(a, b)], p.mode)
    if op == "*":
        if not a or not b:
            return Poly((), p.mode)
        out = [zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                out[i + j] += x * y
        return Poly(out, p.mode)
    if op == "divmod":
        dn = len(b) - 1
        quot = [zero] * max(len(a) - dn, 0)
        for i in range(len(a) - 1, dn - 1, -1):
            if a[i] == 0:
                continue
            f = a[i] / b[-1]
            quot[i - dn] = f
            for j in range(dn + 1):
                a[i - dn + j] -= f * b[j]
        return Poly(quot, p.mode), Poly(a[:dn], p.mode)
    raise ValueError(f"unknown op {op!r}")


def naive_poly_matmul(a, b):
    """Dense reference product of two PolyMatrix operands: every (i, k, j)
    triple is visited and each entry sums its nonzero terms by increasing k,
    starting from the zero polynomial."""
    cols = tuple(zip(*b.entries))
    zero = Poly.zero(a.mode)
    return PolyMatrix(
        tuple(
            tuple(
                sum((x * y for x, y in zip(row, col) if not (x.is_zero or y.is_zero)), zero)
                for col in cols
            )
            for row in a.entries
        )
    )


def rational_det(matrix):
    """Determinant of a RationalMatrix by cofactor expansion."""
    if matrix.rows == 1:
        return matrix[0, 0]
    total = RationalFn.from_poly(Poly.zero(matrix.mode))
    for j in range(matrix.cols):
        e = matrix[0, j]
        if e.is_zero:
            continue
        sub = RationalMatrix(
            tuple(
                tuple(x for k, x in enumerate(row) if k != j)
                for i, row in enumerate(matrix.entries)
                if i != 0
            )
        )
        term = e * rational_det(sub)
        total = total + term if j % 2 == 0 else total - term
    return total


def sorted_values(values):
    return sorted((complex(v) for v in values), key=lambda z: (z.real, z.imag))


def assert_value_sets_close(got, expected, tol):
    got = sorted_values(got)
    remaining = sorted_values(expected)
    assert len(got) == len(remaining), (got, remaining)
    for a in got:
        b = min(remaining, key=lambda z: abs(a - z))
        assert abs(a - b) <= tol * max(1.0, abs(a), abs(b)), (a, b)
        remaining.remove(b)


def grid_int(grid):
    return [[int(x) for x in row] for row in grid]


_SCALAR = st.integers(-3, 3) | st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))


@st.composite
def exact_systems(draw, degrees=st.integers(2, 4), states=st.integers(0, 2)):
    """Exact systems with integer and p/q entries, n <= 2, r drawn from
    `states` (0..2 by default) and m from `degrees` (2..4 by default)."""
    n, r, m = draw(st.integers(1, 2)), draw(states), draw(degrees)

    def grid(h, w):
        return [[draw(_SCALAR) for _ in range(w)] for _ in range(h)]

    grids = [grid(n, n) for _ in range(m + 1)]
    if not any(any(row) for row in grids[m]):
        grids[m][0][0] = 1
    P = PolyMatrix.from_coefficient_grids(grids)
    if r == 0:
        return RosenbrockSystem(P)
    return RosenbrockSystem(P, grid(r, r), grid(r, r), grid(r, n), grid(n, r))


@st.composite
def rep_specs(draw):
    """Exact REP specs with integer and p/q entries: n <= 2, deg P = 1 or 2, up to
    three terms (c0 + c1 lam + c2 lam^2) / (lam - p) with rational, possibly
    repeated, poles p and nonzero coefficient matrices."""
    n = draw(st.integers(1, 2))

    def grid():
        return [[draw(_SCALAR) for _ in range(n)] for _ in range(n)]

    grids = [grid() for _ in range(draw(st.integers(2, 3)))]
    if _linalg.is_zero(grids[-1]):
        grids[-1][0][0] = 1
    P = PolyMatrix.from_coefficient_grids(grids)
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        den = Poly([-draw(_SCALAR), 1])
        num = Poly(draw(st.lists(_SCALAR, min_size=1, max_size=3)))
        if num(-den.coefficient(0)) == 0:  # it would cancel the pole
            num = num + ONE
        mat = grid()
        if _linalg.is_zero(mat):
            mat[0][0] = 1
        terms.append(RepTerm(RationalFn(num, den), mat))
    return RepSpec(P, tuple(terms))


def euclid_gcd(a, b):
    """Monic gcd by Euclid's algorithm over `Fraction`: an independent
    oracle for `polymat.poly_gcd`."""
    while not b.is_zero:
        a, b = b, (a % b).monic()
    return a.monic()


def floordiv_reduce(num, den):
    """num / den in lowest terms with a monic denominator, by `euclid_gcd`
    and `Poly.__floordiv__` over `Fraction`: an independent oracle for the
    reduction in `RationalFn.__init__`.  Returns (num, den)."""
    g = euclid_gcd(num, den)
    if g.degree > 0:
        num, den = num // g, den // g
    return num * (1 / Fraction(den.leading)), den.monic()


def transfer_oracle(sys):
    """G(lam) of an exact system with r >= 1 from its Schur complement:
    entry (i, j) is (-1)^r det S_ij / det(lam*E - A) with both determinants
    by `bareiss_det`, reduced by `floordiv_reduce`, so neither the
    library's determinant nor its reduction is used."""
    s = assemble_system_matrix(sys).entries
    state = range(sys.n, sys.n + sys.r)
    det = bareiss_det(PolyMatrix([[-s[a][b] for b in state] for a in state]))
    entries = []
    for i in range(sys.n):
        row = []
        for j in range(sys.n):
            minor = bareiss_det(PolyMatrix([[s[a][b] for b in (j, *state)] for a in (i, *state)]))
            row.append(RationalFn(*floordiv_reduce(minor * (-1) ** sys.r, det)))
        entries.append(row)
    return RationalMatrix(entries)


def lcm_smith_mcmillan(g):
    """Smith-McMillan form of a rational matrix by the lcm route: d the
    monic lcm of its entries' denominators and N = d * G entry by entry,
    both by `euclid_gcd` and `Poly.__floordiv__`, then the Smith form of N
    and each epsilon_i / d reduced by `euclid_gcd`: an independent oracle
    for `polymat.smith_mcmillan`, which reads N and d off G."""
    d = ONE
    for row in g.entries:
        for f in row:
            d = (d * f.den // euclid_gcd(d, f.den)).monic()
    sf = smith_form(PolyMatrix([[f.num * (d // f.den) for f in row] for row in g.entries]))
    nums, dens = [], []
    for e in [ONE] * sf.identity_count + list(sf.invariant_polys):
        h = euclid_gcd(e, d)
        nums.append((e // h).monic())
        dens.append((d // h).monic())
    return SmithMcMillanForm(tuple(nums), tuple(dens), sf.zero_rows, sf.zero_cols)


def square_free_decomposition(p):
    """Yun's square-free decomposition (SYMSAC 1976) over `Fraction`, with
    `euclid_gcd`: the (monic part, multiplicity) pairs of a nonzero exact
    polynomial by increasing multiplicity, an independent oracle for
    `polymat.gcd_free_base` of one polynomial."""
    f = p.monic()
    g = euclid_gcd(f, f.derivative())
    w = f // g
    out = []
    i = 1
    while w.degree > 0:
        y = euclid_gcd(w, g)
        z = w // y
        if z.degree > 0:
            out.append((z, i))
        w, g = y, g // y
        i += 1
    return out


def certificate_residual(cert, pencil):
    """U * pencil * V - target, the residual formed by a second product."""
    return cert.U * pencil.as_poly_matrix() * cert.V - cert.target


def det_constant_oracle(pencil, det_s):
    """c with det(pencil) = c * det S from the pencil's own determinant, or
    None when det S = 0 or the quotient is not a nonzero constant."""
    if det_s.is_zero:
        return None
    q, rem = divmod(pencil_determinant(pencil), det_s)
    return q.coefficient(0) if rem.is_zero and q.degree == 0 else None


def kept_factor_pencil(sys, sigma, j):
    """lam * D_j minus the product, multiplied out, of the Fiedler factors
    with index <= m - j in their order in sigma: an independent oracle for
    `equivalence.intermediate_pencil`, which splices that product."""
    kept = [i for i in sigma.inverse_order if i <= sys.m - j]
    prod = reduce(_linalg.mul, [make_factor(sys, i).matrix for i in kept])
    return aux_matrix(sys, "D", j).matrix.scale(LAM) - PolyMatrix.from_scalar_grid(prod)
