"""Rosenbrock system polynomials: the data model for an LTI system in
state-space form, its transfer function, minimality analysis, and a
structured realization builder for rational eigenvalue problems.

A system holds an n-by-n matrix polynomial P together with constant state
matrices A, E (r-by-r, E expected nonsingular for analysis), B (r-by-n) and
C (n-by-r); the associated system matrix is

    S(lam) = [ P(lam)  C          ]
             [ B       A - lam*E  ].

The transfer function G(lam) = P(lam) + C (lam*E - A)^{-1} B comes out
as a `RationalMatrix` N / d: each numerator is a minor of S(lam), and d is
det(lam*E - A) reduced once against all of them.  `rep_spec_matrix` gives
the G a spec defines in the same form, over the product of its term
denominators.

r = 0 is supported throughout and collapses every construction to the
classical matrix-polynomial case.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import prod

from . import _linalg, _roots
from ._linalg import EXACT, FLOAT
from .polymat import (
    Poly,
    PolyMatrix,
    RationalFn,
    RationalMatrix,
    poly_matrix_det,
    smith_form,
)

__all__ = [
    "SingularStateError",
    "RosenbrockSystem",
    "RepSpec",
    "RepTerm",
    "DecouplingReport",
    "MinimalityResult",
    "assemble_system_matrix",
    "system_det",
    "state_det",
    "state_eigenvalues",
    "state_pencil",
    "transfer_function",
    "decoupling_zeros",
    "is_minimal",
    "realize",
    "rep_spec_matrix",
]


class SingularStateError(ValueError):
    """Raised when E or the state pencil lam*E - A is singular where a
    regular state pencil is required."""


class RosenbrockSystem:
    """The tuple (P, A, E, B, C) with dimensions (n, r) and degree m.

    m = max(deg P, 1): a constant P is carried with m = 1 and an implied
    zero leading coefficient, which routes it to the (n+r)-sized pencil
    that is already linear.  Storing a padded zero leading coefficient
    inside P itself is rejected by construction (Poly never keeps trailing
    zero coefficients).

    Facts derived from the system alone (factor grids, certificate pieces,
    det S, det(lam*E - A)) are kept in its memo, which equality and hashing
    ignore.
    """

    __slots__ = ("P", "A", "E", "B", "C", "n", "r", "m", "_memo")

    def __init__(self, P, A=(), E=(), B=(), C=()):
        if not isinstance(P, PolyMatrix):
            raise TypeError("P must be a PolyMatrix")
        if not P.is_square:
            raise ValueError("P must be square")
        mode = P.mode
        A = _linalg.coerce_grid(A, mode)
        E = _linalg.coerce_grid(E, mode)
        B = _linalg.coerce_grid(B, mode)
        C = _linalg.coerce_grid(C, mode)
        n = P.rows
        r = len(A)
        if _linalg.shape(A) != (r, r) or _linalg.shape(E) != (r, r):
            raise ValueError("A and E must be square of the same size")
        if r == 0:
            B, C = (), ()
        else:
            if _linalg.shape(B) != (r, n):
                raise ValueError(f"B must be {r}x{n}")
            if _linalg.shape(C) != (n, r):
                raise ValueError(f"C must be {n}x{r}")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "m", max(P.degree, 1))
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("RosenbrockSystem is immutable")

    @property
    def mode(self):
        return self.P.mode

    def coefficient(self, k):
        """Constant coefficient grid A_k of P (zeros beyond deg P)."""
        return self.P.coefficient_grid(k)

    def memo(self, key, build):
        """The value of `build()` under `key`, built once per system object.
        No value may refer back to the system, so reference counting frees
        the memo together with it."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value

    def e_is_nonsingular(self):
        if self.r == 0:
            return True
        if self.mode == EXACT:
            return _linalg.det(self.E) != 0
        return _linalg.rank_float(self.E) == self.r

    def __eq__(self, other):
        return (
            isinstance(other, RosenbrockSystem)
            and self.P == other.P
            and self.A == other.A
            and self.E == other.E
            and self.B == other.B
            and self.C == other.C
        )

    def __hash__(self):
        return hash((self.P, self.A, self.E, self.B, self.C))

    def __repr__(self):
        return f"RosenbrockSystem(n={self.n}, r={self.r}, m={self.m})"


@dataclass(frozen=True)
class DecouplingReport:
    input_decoupling_zeros: tuple
    output_decoupling_zeros: tuple

    @property
    def empty(self):
        return not self.input_decoupling_zeros and not self.output_decoupling_zeros


@dataclass(frozen=True)
class MinimalityResult:
    minimal: bool
    decoupling: DecouplingReport

    def __bool__(self):
        return self.minimal


def _system_layout(sys, m, blocks):
    """S(lam) as the (nm + r)-square grid with P at block (m, m), C and B
    beside it and A - lam*E in the state corner, next to the given n x n
    `blocks` of `Poly`s: the m = 1 layout is S(lam) itself, and
    diag(-I_{(m-1)n}, S(lam)) is the target of the equivalence chain."""
    blocks = {**blocks, (m, m): sys.P.entries}
    c_col, b_row = (m, _constant(sys.C, sys.mode)), (m, _constant(sys.B, sys.mode))
    return _linalg.embed(sys.n, m, blocks, _state_corner(sys), Poly.zero(sys.mode), c_col, b_row)


def _constant(grid, mode):
    """`grid` as a grid of constant `Poly`s."""
    return tuple([tuple([Poly((x,), mode) for x in row]) for row in grid])


def _state_corner(sys):
    """A - lam*E as a grid of `Poly`s, empty when r = 0."""
    if sys.r == 0:
        return ()
    return PolyMatrix.from_coefficient_grids((sys.A, _linalg.neg(sys.E)), sys.mode).entries


def assemble_system_matrix(sys):
    """The (n+r)-by-(n+r) system matrix S(lam) as one PolyMatrix: its
    m = 1 layout."""
    return PolyMatrix(_system_layout(sys, 1, {}))


def system_det(sys):
    """det S(lam), computed once per system object."""
    return sys.memo("det_s", lambda: poly_matrix_det(assemble_system_matrix(sys)))


def state_det(sys):
    """det(lam*E - A), computed once per system object; 1 when r = 0."""
    if sys.r == 0:
        return Poly.one(sys.mode)
    return sys.memo("det_state", lambda: poly_matrix_det(state_pencil(sys)))


def state_eigenvalues(sys):
    """QZ eigenvalues of (A, E) in floats, computed once per system object."""
    to_float = _linalg.to_float_array
    return sys.memo("eig_state", lambda: _linalg.qz_eig(to_float(sys.A), to_float(sys.E)))


def state_pencil(sys):
    """lam*E - A as an r-by-r PolyMatrix (requires r >= 1)."""
    if sys.r == 0:
        raise ValueError("system has no state part")
    return PolyMatrix.from_coefficient_grids((_linalg.neg(sys.A), sys.E), sys.mode)


def transfer_function(sys):
    """G(lam) = P(lam) + C (lam*E - A)^{-1} B, computed exactly as N / d in
    lowest terms (`RationalMatrix`).

    By the Schur complement of A - lam*E in S(lam), each entry is
    g_ij = (-1)^r det S_ij / det(lam*E - A), where S_ij keeps row i and
    column j of P and every state row and column of S(lam).  Those minors
    over det(lam*E - A), the memoised `state_det`, are reduced once
    together; no entry is reduced on its own.  r = 0 gives P / 1.
    """
    if sys.mode != EXACT:
        raise ValueError("transfer_function requires exact mode")
    if sys.r == 0:
        return RationalMatrix.over(sys.P, Poly.one())
    det = state_det(sys)
    if det.is_zero:
        raise SingularStateError("state pencil lam*E - A is singular")
    s = assemble_system_matrix(sys).entries
    state = range(sys.n, sys.n + sys.r)

    def numerator(i, j):
        minor = poly_matrix_det(PolyMatrix([[s[a][b] for b in (j, *state)] for a in (i, *state)]))
        return -minor if sys.r % 2 else minor

    numer = PolyMatrix([[numerator(i, j) for j in range(sys.n)] for i in range(sys.n)])
    return RationalMatrix.over(numer, det)


def _pencil_zero_polynomial(matrix):
    """Monic product of the invariant factors of a (possibly non-square)
    polynomial matrix; its roots are the matrix's finite eigenvalues."""
    sf = smith_form(matrix)
    out = Poly.one()
    for p in sf.invariant_polys:
        out = out * p
    return out.monic()


def _input_pencil(sys):
    # [A - lam*E | B], r x (r + n)
    b = _constant(sys.B, sys.mode)
    return PolyMatrix([row + b_row for row, b_row in zip(_state_corner(sys), b)])


def _output_pencil(sys):
    # [A - lam*E; C], (r + n) x r
    return PolyMatrix(_state_corner(sys) + _constant(sys.C, sys.mode))


def decoupling_zeros(sys):
    """Input and output decoupling zeros of the system.

    Exact mode works with the Smith forms of [A - lam*E, B] and
    [A - lam*E; C]: the decoupling zeros are the spectra of those pencils,
    so the rank tests are decided without ever leaving the rationals.
    Float mode follows the direct recipe: eigenvalues of (A, E), then a
    singular-value rank test at each.
    """
    if sys.r == 0:
        return DecouplingReport((), ())
    if not sys.e_is_nonsingular():
        raise SingularStateError("E is singular")
    if sys.mode == EXACT:
        zin = _pencil_zero_polynomial(_input_pencil(sys))
        zout = _pencil_zero_polynomial(_output_pencil(sys))
        inputs = tuple([v for v, _ in _roots.all_roots(zin)]) if zin.degree > 0 else ()
        outputs = tuple([v for v, _ in _roots.all_roots(zout)]) if zout.degree > 0 else ()
        return DecouplingReport(inputs, outputs)

    import numpy as np

    a, e, b, c = [_linalg.to_float_array(g) for g in (sys.A, sys.E, sys.B, sys.C)]
    inputs, outputs = [], []
    for lam in state_eigenvalues(sys):
        if not np.isfinite(lam):
            continue
        m_in = np.hstack([a - lam * e, b])
        m_out = np.vstack([a - lam * e, c])
        rk_in = np.linalg.matrix_rank(m_in, tol=None)
        rk_out = np.linalg.matrix_rank(m_out, tol=None)
        if rk_in < sys.r:
            inputs.append(complex(lam))
        if rk_out < sys.r:
            outputs.append(complex(lam))
    return DecouplingReport(tuple(inputs), tuple(outputs))


def is_minimal(sys):
    """Controllability + observability check with the decoupling zeros as
    the failure certificate."""
    report = decoupling_zeros(sys)
    return MinimalityResult(report.empty, report)


@dataclass(frozen=True)
class RepTerm:
    """One rational term s(lam) * C of an REP specification; s must have a
    single finite pole (denominator of degree one after reduction)."""

    coeff: RationalFn
    matrix: tuple

    def __post_init__(self):
        if self.coeff.den.degree != 1:
            raise ValueError("rational term must have a degree-1 denominator")
        object.__setattr__(self, "matrix", _linalg.freeze(self.matrix))


@dataclass(frozen=True)
class RepSpec:
    """Polynomial part plus simple-pole rational terms sum_j s_j(lam) C_j."""

    P: PolyMatrix
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        n = self.P.rows
        for t in self.terms:
            if _linalg.shape(t.matrix) != (n, n):
                raise ValueError("term matrix size does not match P")

    @property
    def n(self):
        return self.P.rows

    @property
    def mode(self):
        return self.P.mode


def _rank_factorization(grid, mode):
    """C = L * R with inner dimension rank(C).

    Exact mode takes R as the nonzero rows of the reduced row echelon form
    and L as the pivot columns of C; float mode splits a thresholded SVD.
    """
    if mode == EXACT:
        red, pivots = _linalg.rref(grid)
        rho = len(pivots)
        if rho == 0:
            return 0, (), ()
        left = tuple([tuple([row[j] for j in pivots]) for row in grid])
        right = tuple([red[i] for i in range(rho)])
        return rho, left, right

    import numpy as np

    m = _linalg.to_float_array(grid)
    u, s, vt = np.linalg.svd(m)
    if s.size == 0 or s[0] == 0.0:
        return 0, (), ()
    cutoff = max(m.shape) * 2.0 ** -52 * s[0]
    rho = int((s > cutoff).sum())
    if rho == 0:
        return 0, (), ()
    sq = np.sqrt(s[:rho])
    left = tuple([tuple([float(x) for x in (u[:, :rho] * sq)[i]]) for i in range(m.shape[0])])
    right = tuple([tuple([float(x) for x in (sq[:, None] * vt[:rho])[i]]) for i in range(rho)])
    return rho, left, right


def realize(spec):
    """Build a state-space realization of an REP specification.

    Each scalar term is split into its polynomial part (absorbed into P)
    and a strictly proper part c/(lam - p); the latter contributes a state
    block p*I, E-block I, B-rows c*R and C-columns L, where C_term = L*R is
    a rank factorization.  Construction only: whether the result is
    minimal is decided by `is_minimal`, which `classify_zeros` runs.
    """
    mode = spec.mode
    n = spec.n
    P = spec.P
    blocks = []  # (pole, rho, left, right, c)
    for term in spec.terms:
        if term.coeff.mode != mode:
            raise ValueError("field mode mismatch between P and a term")
        if _linalg.grid_mode(term.matrix) == FLOAT and mode == EXACT:
            raise ValueError("float term matrix in exact mode")
        if _linalg.is_zero(term.matrix):
            warnings.warn("dropping rational term with zero coefficient matrix")
            continue
        q, rem = divmod(term.coeff.num, term.coeff.den)
        if not q.is_zero:
            P = P + PolyMatrix.from_scalar_grid(term.matrix, mode).scale(q)
        if rem.is_zero:
            continue
        c = rem.coefficient(0)
        pole = -term.coeff.den.coefficient(0)
        rho, left, right = _rank_factorization(term.matrix, mode)
        if rho == 0:
            continue
        blocks.append((pole, rho, left, right, c))

    r = sum(b[1] for b in blocks)
    if r == 0:
        return RosenbrockSystem(P)

    zero = _linalg.coerce_scalar(0, mode)
    a_grid = [[zero] * r for _ in range(r)]
    e_grid = [[zero] * r for _ in range(r)]
    b_grid = [[zero] * n for _ in range(r)]
    c_grid = [[zero] * r for _ in range(n)]
    offset = 0
    one = _linalg.coerce_scalar(1, mode)
    for pole, rho, left, right, c in blocks:
        for k in range(rho):
            a_grid[offset + k][offset + k] = pole
            e_grid[offset + k][offset + k] = one
            for j in range(n):
                b_grid[offset + k][j] = c * right[k][j]
            for i in range(n):
                c_grid[i][offset + k] = left[i][k]
        offset += rho
    return RosenbrockSystem(P, a_grid, e_grid, b_grid, c_grid)


def rep_spec_matrix(spec):
    """The rational matrix P(lam) + sum_j s_j(lam) C_j defined by an exact
    spec, as N / d over d, the product of the term denominators: N is
    d * P plus each C_j scaled by the numerator of s_j times the other
    denominators."""
    one = Poly.one(spec.mode)
    dens = [t.coeff.den for t in spec.terms]
    d = prod(dens, start=one)
    numer = spec.P.scale(d)
    for k, term in enumerate(spec.terms):
        rest = prod(dens[:k] + dens[k + 1 :], start=one)
        c = PolyMatrix.from_scalar_grid(term.matrix, spec.mode)
        numer = numer + c.scale(term.coeff.num * rest)
    return RationalMatrix.over(numer, d)
