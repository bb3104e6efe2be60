"""Fiedler factors and Fiedler pencils of Rosenbrock system polynomials.

A degree-m system carries m+1 constant Fiedler factors of size (nm+r):
the middle factors embed the classical matrix-polynomial factors with an
identity state block, while the 0-th factor absorbs B, C and A and the m-th
carries the leading coefficient next to -E.  An ordering of the factor
product is described by a bijection sigma, stored here by its product order
sigma^{-1}; the consecution-inversion structure sequence of sigma fixes
where the single B-row and C-column land in the assembled pencil.

Three construction routes are provided and must agree entrywise: the direct
factor product, the row/column splicing algorithm (Algorithm 1), and the
block formula that borders a classical Fiedler pencil of P.  The splice,
the production route at every degree and in both modes, builds the product
of the factors 0..k for any k, so the same code gives the Fiedler pencil
(k = m - 1) and the certificate's intermediate pencils
(`equivalence.intermediate_pencil`).  The product serves only numeric
`classify_zeros` on a system; otherwise both are test oracles.

The factors, their closed-form inverses, the spliced products, the border
of the block formula and the system block transpose are laid out by
`_linalg.embed`: this module says only which n x n blocks, state corner and
border each one holds.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _linalg
from .polymat import PolyMatrix

__all__ = [
    "Bijection",
    "CISS",
    "FiedlerFactor",
    "SystemPencil",
    "ciss",
    "make_factor",
    "factor_inverse",
    "pencil_direct",
    "pencil_algorithm1",
    "pencil_block_formula",
    "first_companion",
    "second_companion",
    "system_block_transpose",
    "is_block_pentadiagonal",
    "commutation_check",
]


@dataclass(frozen=True)
class Bijection:
    """Factor ordering, stored as the product order sigma^{-1}.

    inverse_order lists the factor indices as they appear in the product
    M_{sigma^{-1}(1)} ... M_{sigma^{-1}(m)} and must be a permutation of
    {0, ..., m-1}.
    """

    inverse_order: tuple

    def __post_init__(self):
        order = tuple([int(i) for i in self.inverse_order])
        object.__setattr__(self, "inverse_order", order)
        if sorted(order) != list(range(len(order))):
            raise ValueError(
                f"{order} is not a permutation of 0..{max(len(order) - 1, 0)}"
            )
        if not order:
            raise ValueError("bijection must order at least one factor")

    @property
    def m(self):
        return len(self.inverse_order)

    def position(self, i):
        """sigma(i): 1-based position of factor i in the product."""
        return self.inverse_order.index(i) + 1

    def has_consecution_at(self, d):
        if not 0 <= d <= self.m - 2:
            raise ValueError(f"consecution index {d} out of range")
        return self.position(d) < self.position(d + 1)

    @classmethod
    def first_companion_order(cls, m):
        return cls(tuple(range(m - 1, -1, -1)))

    @classmethod
    def second_companion_order(cls, m):
        return cls(tuple(range(m)))

    @classmethod
    def from_string(cls, text):
        return cls(tuple([int(p) for p in text.split(",") if p.strip() != ""]))


@dataclass(frozen=True)
class CISS:
    """Consecution-inversion structure sequence (c_1, i_1, ..., c_l, i_l)."""

    pairs: tuple

    @property
    def c1(self):
        return self.pairs[0] if self.pairs else 0

    @property
    def i1(self):
        return self.pairs[1] if self.pairs else 0

    @property
    def consecution_total(self):
        return sum(self.pairs[0::2])

    @property
    def inversion_total(self):
        return sum(self.pairs[1::2])


def ciss(sigma):
    """Scan d = 0..m-2 and aggregate maximal runs of consecutions and
    inversions; only c_1 and i_l may be zero."""
    m = sigma.m
    flags = [sigma.has_consecution_at(d) for d in range(m - 1)]
    pairs = []
    d = 0
    while d < m - 1:
        c = 0
        while d < m - 1 and flags[d]:
            c += 1
            d += 1
        i = 0
        while d < m - 1 and not flags[d]:
            i += 1
            d += 1
        pairs.extend((c, i))
    return CISS(tuple(pairs))


@dataclass(frozen=True)
class FiedlerFactor:
    index: int
    matrix: tuple
    n: int
    r: int
    m: int

    @property
    def size(self):
        return self.n * self.m + self.r


def _factor_blocks(sys, i):
    """The n x n blocks of M_i: the identity on the block diagonal but for
    -A_0 in block m (index 0), A_m in block 1 (index m), or the core
    [[-A_i, I], [I, 0]] at blocks m - i, m - i + 1 (otherwise)."""
    n, m, mode = sys.n, sys.m, sys.mode
    if i == 0:
        return _identity_but(n, m, {(m, m): _linalg.neg(sys.coefficient(0))}, mode)
    if i == m:
        return _identity_but(n, m, {(1, 1): sys.coefficient(m)}, mode)
    neg_a_i = _linalg.neg(sys.coefficient(i))
    return _identity_but(n, m, _core(n, m - i, neg_a_i, _linalg.zeros(n, n, mode), mode), mode)


def _core(n, p, a, d, mode):
    """The 2x2-block core [[a, I], [I, d]] at blocks p, p + 1."""
    eye = _linalg.eye(n, mode)
    return {(p, p): a, (p, p + 1): eye, (p + 1, p): eye, (p + 1, p + 1): d}


def _identity_but(n, m, blocks, mode):
    """The n x n identity on the block diagonal, but for `blocks`."""
    eye = _linalg.eye(n, mode)
    return {**{(k, k): eye for k in range(1, m + 1)}, **blocks}


def _classical_factor(sys, i):
    """The nm x nm Fiedler factor of P alone: the factor blocks with r = 0."""
    zero = _linalg.coerce_scalar(0, sys.mode)
    return _linalg.embed(sys.n, sys.m, _factor_blocks(sys, i), (), zero)


def make_factor(sys, i):
    """Fiedler factor of the system matrix: the classical factor bordered
    by the state data (index 0: -C in the last block row, -B in the last
    block column, -A), by -E (index m), or by I_r (otherwise)."""
    n, r, m = sys.n, sys.r, sys.m
    if not 0 <= i <= m:
        raise ValueError(f"factor index {i} out of range 0..{m}")
    mode = sys.mode
    c_col = b_row = None
    if i == 0:
        corner = _linalg.neg(sys.A)
        c_col, b_row = (m, _linalg.neg(sys.C)), (m, _linalg.neg(sys.B))
    elif i == m:
        corner = _linalg.neg(sys.E)
    else:
        corner = _linalg.eye(r, mode)
    zero = _linalg.coerce_scalar(0, mode)
    grid = _linalg.embed(n, m, _factor_blocks(sys, i), corner, zero, c_col, b_row)
    return FiedlerFactor(i, grid, n, r, m)


def factor_inverse(factor):
    """Closed-form inverse, available for indices 1..m-1 only: the core
    [[-A_i, I], [I, 0]] at block m - i becomes [[0, I], [I, A_i]]."""
    i, n, r, m = factor.index, factor.n, factor.r, factor.m
    if not 1 <= i <= m - 1:
        raise ValueError("closed-form inverse exists only for indices 1..m-1")
    mode = _linalg.grid_mode(factor.matrix)
    p = m - i
    # recover A_i from the stored factor: its block (p, p) holds -A_i
    top = (p - 1) * n
    a_i = _linalg.neg([row[top : top + n] for row in factor.matrix[top : top + n]])
    blocks = _identity_but(n, m, _core(n, p, _linalg.zeros(n, n, mode), a_i, mode), mode)
    return _linalg.embed(n, m, blocks, _linalg.eye(r, mode), _linalg.coerce_scalar(0, mode))


@dataclass(frozen=True)
class SystemPencil:
    """lam * lead + const_term with block metadata.

    const_term is the negated factor product, so the stored pencil equals
    lam*M_m - M_sigma; blocks 1..m have size n and block m+1 size r.
    b_row_block / c_col_block give the 1-based block positions of the
    single B-row and C-column inside the polynomial part; equality and hash
    ignore them.
    """

    lead: tuple
    const_term: tuple
    n: int
    r: int
    m: int
    b_row_block: int
    c_col_block: int

    @property
    def size(self):
        return self.n * self.m + self.r

    @property
    def mode(self):
        return _linalg.grid_mode(self.lead)

    def as_poly_matrix(self):
        return PolyMatrix.from_coefficient_grids((self.const_term, self.lead), self.mode)

    def __eq__(self, other):
        return (
            isinstance(other, SystemPencil)
            and (self.n, self.r, self.m) == (other.n, other.r, other.m)
            and _linalg.eq(self.lead, other.lead)
            and _linalg.eq(self.const_term, other.const_term)
        )

    def __hash__(self):
        return hash((self.n, self.r, self.m, self.lead, self.const_term))


def _metadata(sigma):
    s = ciss(sigma)
    m = sigma.m
    if s.c1 > 0:
        return m - s.c1, m
    return m, m - s.i1


def _factor_grid(sys, i):
    """The grid of M_i, built once per system object (`RosenbrockSystem.memo`)
    and shared by every sigma of a `verify` sweep."""
    return sys.memo(("grid", i), lambda: make_factor(sys, i).matrix)


def pencil_direct(sys, sigma):
    """lam*M_m - M_{sigma^{-1}(1)} ... M_{sigma^{-1}(m)} by plain product."""
    if sigma.m != sys.m:
        raise ValueError("bijection length does not match the system degree")
    prod = None
    for i in sigma.inverse_order:
        f = _factor_grid(sys, i)
        prod = f if prod is None else _linalg.mul(prod, f)
    lead = _factor_grid(sys, sys.m)
    b_row, c_col = _metadata(sigma)
    return SystemPencil(
        lead=lead,
        const_term=_linalg.neg(prod),
        n=sys.n,
        r=sys.r,
        m=sys.m,
        b_row_block=b_row,
        c_col_block=c_col,
    )


def _shifted(pos, consecution):
    """Block position `pos` after one splice step: a consecution moves a
    block down, and right unless it is in block column 0; an inversion
    moves it right, and down unless it is in block row 0."""
    a, b = pos
    if consecution:
        return a + 1, b + (b > 0)
    return a + (a > 0), b + 1


def _spliced_product(sys, sigma, k):
    """The product of the factors 0..k in sigma's order, spliced with no
    factor product, and the 1-based block (bi, bj) of its -A_0.

    From {(0, 0): -A_0}, step i < k shifts every block (`_shifted`) and
    puts -A_{i+1} at (0, 0) with I at (0, 1) after a consecution at i, at
    (1, 0) after an inversion.  The blocks land at m - k..m, with I on the
    blocks before them; the -C column and the -B row sit in block row bi and
    block column bj, next to the state corner -A.
    """
    n, m, mode, neg = sys.n, sys.m, sys.mode, _linalg.neg
    eye = _linalg.eye(n, mode)
    blocks, at = {(0, 0): neg(sys.coefficient(0))}, (0, 0)
    for i in range(k):
        consecution = sigma.has_consecution_at(i)
        blocks = {_shifted(pos, consecution): grid for pos, grid in blocks.items()}
        at = _shifted(at, consecution)
        blocks[(0, 0)] = neg(sys.coefficient(i + 1))
        blocks[(0, 1) if consecution else (1, 0)] = eye
    p = m - k
    placed = {(q, q): eye for q in range(1, p)}
    placed.update({(p + a, p + b): grid for (a, b), grid in blocks.items()})
    bi, bj = p + at[0], p + at[1]
    zero = _linalg.coerce_scalar(0, mode)
    grid = _linalg.embed(n, m, placed, neg(sys.A), zero, (bi, neg(sys.C)), (bj, neg(sys.B)))
    return grid, bi, bj


def pencil_algorithm1(sys, sigma):
    """lam*M_m - M_sigma with the factor product spliced (Algorithm 1) by
    `_spliced_product`, not multiplied, at every degree (M_0 itself at
    m = 1); it matches pencil_direct exactly, float zero signs included.
    The B-row and C-column blocks are those of -A_0.  Only the lead M_m is
    a factor grid, read through `_factor_grid`.  For m >= 2 in float mode
    every zero of the constant term is written -0.0, because the dense
    product sums each entry from 0 (a zero comes out +0.0) and negates it.
    """
    if sigma.m != sys.m:
        raise ValueError("bijection length does not match the system degree")
    prod, c_col, b_row = _spliced_product(sys, sigma, sys.m - 1)
    if sys.m >= 2 and sys.mode == _linalg.FLOAT:
        const = tuple([tuple([-x or -0.0 for x in row]) for row in prod])
    else:
        const = _linalg.neg(prod)
    lead = _factor_grid(sys, sys.m)
    return SystemPencil(lead, const, sys.n, sys.r, sys.m, b_row, c_col)


def pencil_block_formula(sys, sigma):
    """Assemble the system pencil from the classical Fiedler pencil of P
    plus a single bordered C-column and B-row placed per the CISS."""
    if sys.m < 2:
        raise ValueError("the block formula needs degree m >= 2")
    if sigma.m != sys.m:
        raise ValueError("bijection length does not match the system degree")
    n, r, m = sys.n, sys.r, sys.m
    prod = None
    for i in sigma.inverse_order:
        f = _classical_factor(sys, i)
        prod = f if prod is None else _linalg.mul(prod, f)
    b_row, c_col = _metadata(sigma)
    zero = _linalg.coerce_scalar(0, sys.mode)
    const = _linalg.embed(
        n, m, {(1, 1): _linalg.neg(prod)}, sys.A, zero, (c_col, sys.C), (b_row, sys.B)
    )
    return SystemPencil(make_factor(sys, m).matrix, const, n, r, m, b_row, c_col)


def first_companion(sys):
    """The companion pencil with sigma^{-1} = (m-1, ..., 1, 0).

    Its leading block row carries A_{m-1} ... A_0 and C, the identity
    subdiagonal is negated, and B sits in the last block column of the
    state row.
    """
    return pencil_algorithm1(sys, Bijection.first_companion_order(sys.m))


def second_companion(sys):
    """The companion pencil with sigma^{-1} = (0, 1, ..., m-1); equals the
    system block transpose of the first companion form."""
    return pencil_algorithm1(sys, Bijection.second_companion_order(sys.m))


def _border_structure_ok(grid, n, m, row_block, col_block, zero):
    """Verify the single e_i (x) X column / e_j^T (x) Y row shape: block
    transposing twice keeps only the nm part, the state corner and those
    two borders, so it gives the grid back iff nothing else is nonzero."""
    once = _linalg.embedded_block_transpose(grid, n, m, row_block, col_block, zero)
    twice = _linalg.embedded_block_transpose(once, n, m, col_block, row_block, zero)
    return _linalg.eq(twice, grid)


def system_block_transpose(pencil):
    """Block transpose of a system pencil: blockwise transpose of the
    polynomial part with the B-row and C-column block indices swapped."""
    n, r, m = pencil.n, pencil.r, pencil.m
    b_row, c_col = pencil.b_row_block, pencil.c_col_block
    if not (1 <= b_row <= m and 1 <= c_col <= m):
        raise ValueError(f"B-row block {b_row} or C-column block {c_col} is outside 1..{m}")
    zero = _linalg.coerce_scalar(0, pencil.mode)

    def one_side(grid):
        if r and not _border_structure_ok(grid, n, m, b_row, c_col, zero):
            raise ValueError("pencil border is not in e_i (x) X / e_j^T (x) Y form")
        return _linalg.embedded_block_transpose(grid, n, m, b_row, c_col, zero)

    return SystemPencil(one_side(pencil.lead), one_side(pencil.const_term), n, r, m, c_col, b_row)


def is_block_pentadiagonal(pencil):
    """Structural scan: every block outside the two block super- and
    sub-diagonals must vanish in both the lead and the constant term, the
    state row/column counting as one block."""
    n, r, m = pencil.n, pencil.r, pencil.m
    sizes = [n] * m + ([r] if r else [])
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    k = len(sizes)
    for grid in (pencil.lead, pencil.const_term):
        for bi in range(k):
            for bj in range(k):
                if abs(bi - bj) <= 2:
                    continue
                for a in range(offsets[bi], offsets[bi + 1]):
                    for b in range(offsets[bj], offsets[bj + 1]):
                        if grid[a][b] != 0:
                            return False
    return True


def commutation_check(sys, i, j):
    """Exact test of M_i M_j = M_j M_i for the system factors."""
    fi = make_factor(sys, i).matrix
    fj = make_factor(sys, j).matrix
    return _linalg.eq(_linalg.mul(fi, fj), _linalg.mul(fj, fi))
