"""Scalar polynomials, rational functions, and their dense matrices.

Two scalar fields are supported and never mixed silently: ``exact`` works
over the rationals with `fractions.Fraction` coefficients, ``float`` over
binary64.  Everything structural (Smith form, Smith-McMillan form,
divisibility, gcd) is restricted to exact mode so that equality stays
decidable; float mode exists for evaluation and for the numeric eigenvalue
backend.

The zero polynomial is encoded with degree -1 and an empty coefficient
tuple, which keeps divisibility checks free of special cases.

A rational matrix G is held as N / d, a polynomial matrix over one monic
denominator in lowest terms, the form the Smith-McMillan form is defined
on: every constructor reduces once over all entries (`_lowest_terms`), and
entries are read back as `RationalFn`s on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import factorial, lcm, prod

from . import _linalg
from ._linalg import EXACT, FLOAT, coerce_scalar, derivative, exact_quotient
from ._linalg import multiplicity, primitive_gcd, primitive_part

__all__ = [
    "EXACT",
    "FLOAT",
    "Poly",
    "RationalFn",
    "PolyMatrix",
    "RationalMatrix",
    "SmithForm",
    "SmithMcMillanForm",
    "poly_gcd",
    "gcd_free_base",
    "poly_matrix_eval",
    "poly_matrix_det",
    "horner_shift",
    "smith_form",
    "smith_form_with_transforms",
    "smith_form_matrix",
    "smith_mcmillan",
    "zero_pole_polys",
    "multiplicity_index",
    "block_transpose",
]


class Poly:
    """Scalar polynomial, coefficients stored in ascending power order."""

    __slots__ = ("coeffs", "mode")

    def __init__(self, coeffs=(), mode=None):
        coeffs = tuple(coeffs)
        if mode is None:
            mode = FLOAT if any(isinstance(c, float) for c in coeffs) else EXACT
        coeffs = tuple([coerce_scalar(c, mode) for c in coeffs])
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "mode", mode)

    @classmethod
    def _trusted(cls, coeffs, mode):
        """Result of arithmetic on operands of one mode.

        The coefficients are already elements of the field of `mode`, so
        only trailing zeros are trimmed; the public constructor's coercion
        would re-normalise every Fraction for nothing.
        """
        n = len(coeffs)
        while n and coeffs[n - 1] == 0:
            n -= 1
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", tuple(coeffs[:n]))
        object.__setattr__(p, "mode", mode)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def constant(cls, c, mode=EXACT):
        return cls((c,), mode)

    @classmethod
    def zero(cls, mode=EXACT):
        return cls((), mode)

    @classmethod
    def one(cls, mode=EXACT):
        return cls((1,), mode)

    @classmethod
    def lam(cls, mode=EXACT):
        """The monomial corresponding to the indeterminate itself."""
        return cls((0, 1), mode)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def leading(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else coerce_scalar(0, self.mode)

    def _check(self, other):
        if not isinstance(other, Poly):
            raise TypeError("expected a Poly")
        if other.mode != self.mode:
            raise ValueError("field mode mismatch between polynomials")

    def __add__(self, other):
        self._check(other)
        # pad with the mode's zero, never 0 * c: in float mode that is -0.0
        # for a negative c
        zero = coerce_scalar(0, self.mode)
        return Poly._trusted(
            [a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=zero)],
            self.mode,
        )

    def __sub__(self, other):
        self._check(other)
        zero = coerce_scalar(0, self.mode)
        return Poly._trusted(
            [a - b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=zero)],
            self.mode,
        )

    def __neg__(self):
        return Poly._trusted([-c for c in self.coeffs], self.mode)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, float)):
            c = coerce_scalar(other, self.mode)
            return Poly._trusted([c * x for x in self.coeffs], self.mode)
        self._check(other)
        if self.is_zero or other.is_zero:
            return Poly._trusted((), self.mode)
        zero = coerce_scalar(0, self.mode)
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly._trusted(out, self.mode)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = Poly.one(self.mode)
        for _ in range(k):
            out = out * self
        return out

    def __divmod__(self, other):
        """Long division; a constant divisor (a unit) divides each nonzero
        coefficient alone, and a zero one keeps the mode's zero, never -0.0."""
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn = other.degree
        lead = other.coeffs[-1]
        q = [coerce_scalar(0, self.mode)] * max(len(rem) - dn, 0)
        if dn == 0:
            q = [c / lead if c else z for c, z in zip(rem, q)]
            return Poly._trusted(q, self.mode), Poly._trusted((), self.mode)
        for i in range(len(rem) - 1, dn - 1, -1):
            if rem[i] == 0:
                continue
            f = rem[i] / lead
            q[i - dn] = f
            for j in range(dn + 1):
                rem[i - dn + j] -= f * other.coeffs[j]
        return Poly._trusted(q, self.mode), Poly._trusted(rem[:dn], self.mode)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divides(self, other):
        """Exact divisibility test (zero remainder)."""
        if self.is_zero:
            return other.is_zero
        return (other % self).is_zero

    def __call__(self, x):
        """Horner evaluation; accepts exact, float, or complex points."""
        if not self.coeffs:
            return 0 * x if isinstance(x, (float, complex)) else Fraction(0)
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def monic(self):
        if self.is_zero:
            return self
        return self * (1 / Fraction(self.leading) if self.mode == EXACT else 1.0 / self.leading)

    def derivative(self):
        return Poly([i * c for i, c in enumerate(self.coeffs) if i > 0], self.mode)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.mode == other.mode
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.mode, self.coeffs))

    def pretty(self, var="λ"):
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coefficient(k)
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                power = var if k == 1 else f"{var}^{k}"
                body = power if mag == 1 else f"{mag}*{power}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"Poly<{self.pretty()}>"


def poly_gcd(a, b):
    """Monic greatest common divisor over the rationals (exact mode only).

    A primitive polynomial remainder sequence (Collins 1967; Brown 1971):
    both operands become primitive integer polynomials, every
    pseudo-remainder is divided by its content, and only the last nonzero
    term becomes a monic `Fraction` polynomial, so the sequence pays integer
    arithmetic instead of a gcd per `Fraction` operation.  gcd(0, 0) = 0.
    """
    if a.mode != EXACT or b.mode != EXACT:
        raise ValueError("polynomial gcd requires exact mode")
    return _monic(primitive_gcd(primitive_part(a.coeffs), primitive_part(b.coeffs)))


def _monic(f):
    """The monic exact polynomial of an integer coefficient list."""
    return Poly._trusted([Fraction(c, f[-1]) for c in f], EXACT)


def _lowest_terms(nums, den):
    """The nums[k] / den over one common denominator in lowest terms: the
    numerators over d and d, the monic lcm of the entries' reduced
    denominators, for exact polynomials and a nonzero exact den.

    With h = gcd(den, every nonzero numerator), that lcm is den / h made
    monic, and each numerator is nums[k] * d / den; both are exact
    divisions of primitive integer parts by h, and the gcd stops at the
    first constant.  For one entry this is the fraction in lowest terms
    with a monic denominator.
    """
    base = primitive_part(den.coeffs)
    h = base
    for p in nums:
        if len(h) == 1:
            break
        if not p.is_zero:
            h = primitive_gcd(h, primitive_part(p.coeffs))
    out = []
    for p in nums:
        if not p.is_zero:
            # p * d / den has the ratios of p / h and lead(p) / lead(den)
            q = exact_quotient(primitive_part(p.coeffs), h)
            c = p.leading / den.leading / q[-1]
            p = Poly._trusted([c * x for x in q], EXACT)
        out.append(p)
    return out, _monic(exact_quotient(base, h))


def gcd_free_base(polys):
    """Factor refinement (Bach, Driscoll & Shallit, J. Algorithms 1993) of
    nonzero exact polynomials into one gcd-free base.

    Returns (base, exponents): `base` lists pairwise coprime, square-free,
    monic polynomials of positive degree, and exponents[i][j] is the
    multiplicity of base[j] in polys[i], so polys[i] is a constant times the
    product of the base[j] ** exponents[i][j].  A root of an input is thus a
    root of exactly one element, and its multiplicity in polys[i] is that
    element's exponent.  The square-free part of every input is refined in
    with it, which keeps every element square-free.  The arithmetic runs on
    primitive integer coefficients, as in `poly_gcd`.
    """
    if any(p.mode != EXACT or p.is_zero for p in polys):
        raise ValueError("a gcd-free base needs nonzero exact polynomials")
    # positive leading terms, so that p and -p are one input
    ints = [[c if p.leading > 0 else -c for c in primitive_part(p.coeffs)] for p in polys]
    todo = []
    for f in ints:
        if len(f) > 1 and f not in todo:
            todo.append(f)
            g = primitive_gcd(f, primitive_part(derivative(f)))
            if len(g) > 1:
                todo.append(exact_quotient(f, g))
    base = []
    while todo:
        a = todo.pop()
        for i, b in enumerate(base):
            g = primitive_gcd(a, b)
            if len(g) > 1:
                # a = g * (a / g) and b = g * (b / g): the three go back
                # through the refinement; total degree falls by deg g
                del base[i]
                todo.extend([
                    h for h in (g, exact_quotient(a, g), exact_quotient(b, g)) if len(h) > 1
                ])
                break
        else:
            base.append(a)
    return [_monic(b) for b in base], [[multiplicity(f, b)[0] for b in base] for f in ints]


class RationalFn:
    """Quotient of two scalar polynomials with a monic denominator.

    In exact mode the fraction is always held in lowest terms.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = Poly.one(num.mode)
        if num.mode != den.mode:
            raise ValueError("field mode mismatch in rational function")
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.mode == EXACT:
            (num,), den = _lowest_terms([num], den)
        elif den.leading != 1:
            num, den = num * (1.0 / den.leading), den.monic()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFn is immutable")

    @property
    def mode(self):
        return self.den.mode

    @property
    def is_zero(self):
        return self.num.is_zero

    @property
    def is_polynomial(self):
        return self.den.degree == 0

    @classmethod
    def from_poly(cls, p):
        return cls(p, Poly.one(p.mode))

    @classmethod
    def constant(cls, c, mode=EXACT):
        return cls(Poly.constant(c, mode), Poly.one(mode))

    def __add__(self, other):
        other = self._coerce(other)
        return RationalFn(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        other = self._coerce(other)
        return RationalFn(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self):
        return RationalFn(-self.num, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        return RationalFn(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFn(self.num * other.den, self.den * other.num)

    def _coerce(self, other):
        if isinstance(other, RationalFn):
            return other
        if isinstance(other, Poly):
            return RationalFn.from_poly(other)
        if isinstance(other, (int, Fraction, float)):
            return RationalFn.constant(other, self.mode)
        raise TypeError("cannot combine RationalFn with " + type(other).__name__)

    def __eq__(self, other):
        return (
            isinstance(other, RationalFn)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __call__(self, x):
        return self.num(x) / self.den(x)

    def order_at(self, lam0):
        """Order of the function at a rational point: multiplicity of lam0 in
        the numerator minus its multiplicity in the denominator."""
        return _root_multiplicity(self.num, lam0) - _root_multiplicity(self.den, lam0)

    def pretty(self, var="λ"):
        if self.is_polynomial:
            return self.num.pretty(var)
        return f"({self.num.pretty(var)}) / ({self.den.pretty(var)})"

    def __repr__(self):
        return f"RationalFn<{self.pretty()}>"


def _root_multiplicity(p, lam0):
    """Multiplicity of the rational point lam0 as a root of an exact p: how
    many times the primitive b*lam - a, for lam0 = a/b, divides p's
    primitive integer part (`_linalg.multiplicity`)."""
    if p.is_zero:
        raise ValueError("zero polynomial has no root multiplicity")
    if p.mode != EXACT:
        raise ValueError("root multiplicity requires exact mode")
    lam0 = Fraction(lam0)
    return multiplicity(primitive_part(p.coeffs), [-lam0.numerator, lam0.denominator])[0]


class PolyMatrix:
    """Dense matrix with polynomial entries sharing one field mode."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        entries = tuple([tuple(row) for row in entries])
        if not entries or not entries[0]:
            raise ValueError("PolyMatrix must be non-empty")
        cols = len(entries[0])
        if any(len(row) != cols for row in entries):
            raise ValueError("ragged rows in PolyMatrix")
        mode = entries[0][0].mode
        for row in entries:
            for e in row:
                if not isinstance(e, Poly):
                    raise TypeError("PolyMatrix entries must be Poly")
                if e.mode != mode:
                    raise ValueError("mixed field modes in PolyMatrix")
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    @property
    def mode(self):
        return self.entries[0][0].mode

    @property
    def degree(self):
        return max(e.degree for row in self.entries for e in row)

    @property
    def is_square(self):
        return self.rows == self.cols

    @classmethod
    def from_scalar_grid(cls, grid, mode=None):
        if mode is None:
            mode = _linalg.grid_mode(grid)
        return cls(
            tuple([tuple([Poly((x,), mode) for x in row]) for row in grid])
        )

    @classmethod
    def from_coefficient_grids(cls, grids, mode=EXACT):
        """Assemble sum_j lam^j A_j from constant coefficient grids of one
        shape."""
        shape = _linalg.shape(grids[0])
        if any(_linalg.shape(g) != shape for g in grids[1:]):
            raise ValueError("coefficient grids of different shapes")
        return cls([[Poly(c, mode) for c in zip(*rows)] for rows in zip(*grids)])

    @classmethod
    def identity(cls, k, mode=EXACT):
        return cls.from_scalar_grid(_linalg.eye(k, mode), mode)

    @classmethod
    def zeros(cls, rows, cols, mode=EXACT):
        z = Poly.zero(mode)
        return cls(tuple([tuple([z for _ in range(cols)]) for _ in range(rows)]))

    def coefficient_grid(self, k):
        """Constant coefficient matrix of lam^k."""
        return tuple([tuple([e.coefficient(k) for e in row]) for row in self.entries])

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def __add__(self, other):
        self._check(other)
        return PolyMatrix._trusted(
            tuple([
                tuple([a + b for a, b in zip(ra, rb)])
                for ra, rb in zip(self.entries, other.entries)
            ])
        )

    def __sub__(self, other):
        self._check(other)
        return PolyMatrix._trusted(
            tuple([
                tuple([a - b for a, b in zip(ra, rb)])
                for ra, rb in zip(self.entries, other.entries)
            ])
        )

    def __neg__(self):
        return PolyMatrix(tuple([tuple([-e for e in row]) for row in self.entries]))

    @classmethod
    def _trusted(cls, entries):
        """Result of arithmetic on valid operands: `entries` is a non-empty
        rectangular tuple of tuples of Polys of one mode, so nothing is
        re-validated."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", len(entries))
        object.__setattr__(m, "cols", len(entries[0]))
        object.__setattr__(m, "entries", entries)
        return m

    def __mul__(self, other):
        """Matrix product (`_product` over every row and column), or `scale`
        for a scalar or scalar polynomial."""
        if not isinstance(other, PolyMatrix):
            return self.scale(other)
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        if other.mode != self.mode:
            raise ValueError("field mode mismatch")
        return PolyMatrix._trusted(tuple(self._product(other, range(self.rows), range(other.cols))))

    def _product(self, other, rows, cols):
        """The rows `rows` and columns `cols` (ranges) of self * other, one
        tuple per row; the operands are valid for the product.

        The cost is proportional to the nonzero products: each nonzero
        a = self[i, k] adds a * b into out[i, j] for the nonzero b in row k
        of `other`, and a constant-one a adds b itself.  Each entry sums its
        terms by increasing k; in float mode the sum starts from the zero
        polynomial, as `sum` does, so a -0.0 coefficient comes out as +0.0.
        """
        zero = Poly.zero(self.mode)
        start = zero if self.mode == FLOAT else None
        lo, hi = cols.start, cols.stop
        nonzero_rows = [
            [(j, b) for j, b in enumerate(row[lo:hi]) if b.coeffs] for row in other.entries
        ]
        out = []
        for row in self.entries[rows.start : rows.stop]:
            acc = [start] * (hi - lo)
            for a, terms in zip(row, nonzero_rows):
                if not a.coeffs or not terms:
                    continue
                one = a.coeffs == (1,)
                for j, b in terms:
                    term = b if one else a * b
                    acc[j] = term if acc[j] is None else acc[j] + term
            out.append(tuple([zero if e is None else e for e in acc]))
        return out

    def scale(self, c):
        """Entrywise multiplication by a scalar or a scalar polynomial."""
        if not isinstance(c, Poly):
            c = Poly.constant(c, self.mode)
        return PolyMatrix(tuple([tuple([c * e for e in row]) for row in self.entries]))

    def transpose(self):
        return PolyMatrix(tuple(zip(*self.entries)))

    def _check(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch")
        if self.mode != other.mode:
            raise ValueError("field mode mismatch")

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(self.entries)

    def is_zero_matrix(self):
        return all(e.is_zero for row in self.entries for e in row)

    def submatrix(self, drop_row, drop_col):
        return PolyMatrix(
            tuple([
                tuple([e for j, e in enumerate(row) if j != drop_col])
                for i, row in enumerate(self.entries)
                if i != drop_row
            ])
        )

    def __repr__(self):
        body = "; ".join(
            ", ".join(e.pretty() for e in row) for row in self.entries
        )
        return f"PolyMatrix[{self.rows}x{self.cols}]({body})"


def poly_matrix_eval(matrix, lam0):
    """Evaluate a PolyMatrix at a scalar point, returning a constant grid."""
    if isinstance(lam0, (int, Fraction)):
        if matrix.mode != EXACT:
            raise ValueError("exact point for a float-mode matrix")
        lam0 = Fraction(lam0)
    elif isinstance(lam0, float):
        if matrix.mode != FLOAT:
            raise ValueError("float point for an exact-mode matrix")
    elif not isinstance(lam0, complex):
        raise TypeError("unsupported evaluation point")
    return tuple([tuple([e(lam0) for e in row]) for row in matrix.entries])


def _interpolate(samples, scale):
    """The polynomial p with p(k) = samples[k] / scale for k = 0, 1, ...

    Newton's forward-difference form on the integer nodes: the k-th divided
    difference is the k-th forward difference over k!.  Scaled by (n-1)!,
    every Newton coefficient is an integer, so the whole expansion runs on
    Python ints and only the final coefficients become Fractions.
    """
    n = len(samples)
    diffs = []
    ys = list(samples)
    for _ in range(n):
        diffs.append(ys[0])
        ys = [b - a for a, b in zip(ys, ys[1:])]
    top = factorial(n - 1)
    # Horner over the Newton basis: acc = acc * (lam - k) + c_k, c_k scaled by top
    acc = []
    for k in range(n - 1, -1, -1):
        shifted = [0] + acc
        for i, c in enumerate(acc):
            shifted[i] -= k * c
        shifted[0] += diffs[k] * (top // factorial(k))
        acc = shifted
    denom = top * scale
    return Poly._trusted([Fraction(c, denom) for c in acc], EXACT)


def _int_rows(matrix):
    """Each row's coefficients as integers, with the product of row scales.

    Row i is multiplied by d_i, the lcm of its coefficient denominators, so
    det(M) = det(scaled M) / prod(d_i).
    """
    rows = []
    scale = 1
    for row in matrix.entries:
        d = 1
        for e in row:
            for c in e.coeffs:
                d = lcm(d, c.denominator)
        scale *= d
        rows.append(
            [[c.numerator * (d // c.denominator) for c in e.coeffs] for e in row]
        )
    return rows, scale


def _int_horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_matrix_det(matrix):
    """Exact determinant of a square polynomial matrix.

    Evaluation and interpolation: the determinant has degree at most the
    smaller of the sums of the row and of the column maximum degrees, so
    exact constant determinants at that many plus one integer points pin it
    down.  Each row is first scaled by the lcm of its coefficient
    denominators, so the samples are integer determinants (`_linalg.det`
    on Python ints) and the interpolant is divided by the product of the
    row scales.  Float mode is rejected; numeric determinants belong to the
    eigen module.
    """
    if not matrix.is_square:
        raise ValueError("determinant of a non-square matrix")
    if matrix.mode != EXACT:
        raise ValueError("exact mode required for polynomial determinants")
    row_degrees = [max(e.degree for e in row) for row in matrix.entries]
    col_degrees = [max(e.degree for e in col) for col in zip(*matrix.entries)]
    if min(row_degrees) < 0 or min(col_degrees) < 0:
        return Poly.zero()
    bound = min(sum(row_degrees), sum(col_degrees))
    rows, scale = _int_rows(matrix)
    samples = [
        _linalg.det([[_int_horner(c, x) for c in row] for row in rows])
        for x in range(bound + 1)
    ]
    return _interpolate(samples, scale)


def horner_shift(matrix, k):
    """Degree-k Horner shift: A_{m-k} + lam*A_{m-k+1} + ... + lam^k*A_m."""
    m = matrix.degree
    if not 0 <= k <= m:
        raise ValueError(f"Horner shift index {k} out of range for degree {m}")
    grids = [matrix.coefficient_grid(m - k + j) for j in range(k + 1)]
    return PolyMatrix.from_coefficient_grids(grids, matrix.mode)


def block_transpose(matrix, block_rows, block_cols, block_size):
    """Blockwise transpose for a uniformly blocked polynomial matrix."""
    if matrix.rows != block_rows * block_size or matrix.cols != block_cols * block_size:
        raise ValueError("dimensions are not an exact multiple of the block size")
    s = block_size
    out = [
        [None] * (block_rows * s)
        for _ in range(block_cols * s)
    ]
    for bi in range(block_rows):
        for bj in range(block_cols):
            for i in range(s):
                for j in range(s):
                    out[bj * s + i][bi * s + j] = matrix.entries[bi * s + i][bj * s + j]
    return PolyMatrix(out)


@dataclass(frozen=True)
class SmithForm:
    """diag(I_p, phi_1, ..., phi_k, 0) up to unimodular equivalence."""

    identity_count: int
    invariant_polys: tuple
    zero_rows: int
    zero_cols: int

    @property
    def normal_rank(self):
        return self.identity_count + len(self.invariant_polys)


@dataclass(frozen=True)
class SmithMcMillanForm:
    """diag(phi_i / psi_i, 0) with the usual divisibility chains."""

    numerators: tuple
    denominators: tuple
    zero_rows: int
    zero_cols: int

    @property
    def normal_rank(self):
        return len(self.numerators)


def _smith_reduce(w, rows, cols):
    """Reduce the list grid w, whose top-left rows x cols block is an
    exact M, in place to its Smith form, and return that form.

    Elementary row/column reduction over Q[lam] with the minimal-degree
    pivot rule.  A constant pivot is a unit and divides every entry, so
    only a non-constant one sweeps the trailing block for an entry it does
    not divide.  The pivot search and the clearing loops look at M's block
    only, but a row operation spans the whole row of w and a column
    operation every row of w, so a border beside or below M records them:
    `smith_form_with_transforms` borders M with identities and reads U and
    V off them, `smith_form` passes M alone.
    """
    if w[0][0].mode != EXACT:
        raise ValueError("Smith form requires exact mode")

    def swap_cols(a, b):
        for row in w:
            row[a], row[b] = row[b], row[a]

    def row_op(dst, src, q):
        # row dst -= q * row src
        w[dst] = [x - q * y for x, y in zip(w[dst], w[src])]

    def col_op(dst, src, q):
        for row in w:
            row[dst] = row[dst] - q * row[src]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # gcd-pivot selection: minimal-degree nonzero entry of the active
        # submatrix, ties broken by lowest (row, col)
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if not w[i][j].is_zero and (
                    pivot is None or w[i][j].degree < w[pivot[0]][pivot[1]].degree
                ):
                    pivot = (i, j)
        if pivot is None:
            break
        w[t], w[pivot[0]] = w[pivot[0]], w[t]
        if pivot[1] != t:
            swap_cols(t, pivot[1])

        while True:
            # clear the pivot column with row operations
            restart = False
            for i in range(t + 1, rows):
                if w[i][t].is_zero:
                    continue
                q, r = divmod(w[i][t], w[t][t])
                row_op(i, t, q)
                if not r.is_zero:
                    w[t], w[i] = w[i], w[t]
                    restart = True
                    break
            if restart:
                continue
            # clear the pivot row with column operations
            for j in range(t + 1, cols):
                if w[t][j].is_zero:
                    continue
                q, r = divmod(w[t][j], w[t][t])
                col_op(j, t, q)
                if not r.is_zero:
                    swap_cols(t, j)
                    restart = True
                    break
            if restart:
                continue
            # enforce divisibility of the trailing block by a non-unit pivot
            if w[t][t].degree == 0:
                break
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if not (w[i][j] % w[t][t]).is_zero:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            w[t] = [x + y for x, y in zip(w[t], w[offender])]

        lead = w[t][t].leading
        if lead != 1:
            c = 1 / lead
            w[t] = [x * c for x in w[t]]
        t += 1

    pivots = [w[i][i] for i in range(t)]
    return SmithForm(
        identity_count=sum(1 for p in pivots if p.degree == 0),
        invariant_polys=tuple([p for p in pivots if p.degree > 0]),
        zero_rows=rows - t,
        zero_cols=cols - t,
    )


def smith_form(matrix):
    """Smith form of an exact polynomial matrix (`_smith_reduce`);
    guaranteed for sizes up to 12x12 with entry degrees up to 16, merely
    slow beyond that."""
    return _smith_reduce([list(row) for row in matrix.entries], matrix.rows, matrix.cols)


def smith_form_with_transforms(matrix):
    """Smith form together with unimodular U, V with U * M * V = SF(M).

    The one reduction runs on M bordered by I_rows on its right and I_cols
    below it (the bottom rows stop at M's last column); U is read off the
    right border and V off the bottom one.
    """
    rows, cols = matrix.rows, matrix.cols
    eye = PolyMatrix.identity(rows).entries
    w = [list(row + e) for row, e in zip(matrix.entries, eye)]
    w += [list(row) for row in PolyMatrix.identity(cols).entries]
    form = _smith_reduce(w, rows, cols)
    u = PolyMatrix._trusted(tuple([tuple(row[cols:]) for row in w[:rows]]))
    return form, u, PolyMatrix._trusted(tuple([tuple(row) for row in w[rows:]]))


def smith_form_matrix(form, rows, cols, mode=EXACT):
    """Materialize a SmithForm as the canonical diagonal PolyMatrix."""
    zero = Poly.zero(mode)
    entries = [[zero] * cols for _ in range(rows)]
    diag = [Poly.one(mode)] * form.identity_count + list(form.invariant_polys)
    for i, p in enumerate(diag):
        entries[i][i] = p
    return PolyMatrix(entries)


class RationalMatrix:
    """Exact rational matrix G = N / d: a polynomial matrix `numer` over one
    monic denominator `den`, in lowest terms (no factor of d divides every
    entry of N).  For a given G that pair is unique, so it is G's form for
    equality, hashing and the Smith-McMillan form; d is the monic lcm of
    the denominators of G's reduced entries and N = d * G.
    """

    __slots__ = ("numer", "den")

    def __init__(self, entries):
        entries = tuple([tuple(row) for row in entries])
        if not entries or not entries[0]:
            raise ValueError("RationalMatrix must be non-empty")
        cols = len(entries[0])
        if any(len(row) != cols for row in entries):
            raise ValueError("ragged rows in RationalMatrix")
        mode = entries[0][0].mode
        for row in entries:
            for e in row:
                if not isinstance(e, RationalFn):
                    raise TypeError("RationalMatrix entries must be RationalFn")
                if e.mode != mode:
                    raise ValueError("mixed field modes in RationalMatrix")
        if mode != EXACT:
            raise ValueError("RationalMatrix requires exact entries")
        # the product of the distinct denominators is a common multiple;
        # each entry's numerator takes the product of the others
        dens = dict.fromkeys([e.den for row in entries for e in row])
        rest = {d: prod([x for x in dens if x != d], start=Poly.one()) for d in dens}
        numer = PolyMatrix._trusted(
            tuple([tuple([e.num * rest[e.den] for e in row]) for row in entries])
        )
        self._reduce(numer, prod(dens, start=Poly.one()))

    @classmethod
    def over(cls, numer, den):
        """G = numer / den for an exact PolyMatrix and a nonzero exact Poly,
        in any terms."""
        if numer.mode != EXACT or den.mode != EXACT:
            raise ValueError("RationalMatrix requires exact entries")
        if den.is_zero:
            raise ZeroDivisionError("rational matrix with zero denominator")
        g = object.__new__(cls)
        g._reduce(numer, den)
        return g

    def _reduce(self, numer, den):
        """Store numer / den in lowest terms, reduced once by
        `_lowest_terms` over all entries."""
        flat, den = _lowest_terms([e for row in numer.entries for e in row], den)
        k = numer.cols
        rows = tuple([tuple(flat[i : i + k]) for i in range(0, len(flat), k)])
        object.__setattr__(self, "numer", PolyMatrix._trusted(rows))
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @property
    def rows(self):
        return self.numer.rows

    @property
    def cols(self):
        return self.numer.cols

    @property
    def mode(self):
        return self.den.mode

    @property
    def entries(self):
        """The entries N_ij / d as reduced `RationalFn`s, built on each read."""
        return tuple([tuple([RationalFn(p, self.den) for p in row]) for row in self.numer.entries])

    @classmethod
    def from_poly_matrix(cls, matrix):
        return cls.over(matrix, Poly.one())

    def __getitem__(self, key):
        return RationalFn(self.numer[key], self.den)

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix)
            and self.numer == other.numer
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.numer, self.den))

    def __repr__(self):
        body = "; ".join(
            ", ".join(e.pretty() for e in row) for row in self.entries
        )
        return f"RationalMatrix[{self.rows}x{self.cols}]({body})"


def smith_mcmillan(matrix):
    """Smith-McMillan form of a rational matrix G = N / d: the Smith form of
    N, then each epsilon_i / d in lowest terms with both parts monic
    (Rosenbrock 1970; Kailath, Linear Systems, section 6.5)."""
    sf = smith_form(matrix.numer)
    nums, dens = [], []
    for e in [Poly.one()] * sf.identity_count + list(sf.invariant_polys):
        (num,), den = _lowest_terms([e], matrix.den)
        nums.append(num)
        dens.append(den)
    return SmithMcMillanForm(
        numerators=tuple(nums),
        denominators=tuple(dens),
        zero_rows=sf.zero_rows,
        zero_cols=sf.zero_cols,
    )


def zero_pole_polys(sm):
    """Zero and pole polynomials: the monic products of the phi_i and psi_i."""
    phi = Poly.one()
    psi = Poly.one()
    for p in sm.numerators:
        phi = phi * p
    for p in sm.denominators:
        psi = psi * p
    return phi.monic(), psi.monic()


def multiplicity_index(sm, lam0, kind):
    """Multiplicity index tuple of a point, as a zero or as a pole.

    kind="zero" returns (gamma_1, ..., gamma_k), nondecreasing; kind="pole"
    returns (alpha_k, ..., alpha_1), i.e. the pole multiplicities listed
    from the last invariant denominator to the first.  All-zero tuples are
    returned when the point is not a zero/pole.
    """
    lam0 = Fraction(lam0)
    if kind == "zero":
        return tuple([_root_multiplicity(p, lam0) for p in sm.numerators])
    if kind == "pole":
        return tuple(
            [_root_multiplicity(p, lam0) for p in reversed(sm.denominators)]
        )
    raise ValueError("kind must be 'zero' or 'pole'")
