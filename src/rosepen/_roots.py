"""Root extraction for exact and float scalar polynomials.

Exact polynomials are solved over a gcd-free base (`polymat.gcd_free_base`)
one element at a time: an element's rational roots are peeled off exactly
(the rational root theorem on its primitive integer coefficients, each root
divided out by `_linalg.multiplicity`, a linear rest solved outright), and
the rest go to the companion-matrix eigenvalue solver behind numpy.roots.
An element is square-free, so its roots are simple and come out accurate,
and each carries the element's exact exponent as its multiplicity and
belongs to that element by construction.  Numeric results are clustered
with the scale-relative matching tolerance used throughout the package: two
values coincide when |a - b| <= tol * max(1, |a|, |b|).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd, ldexp

from ._linalg import multiplicity, primitive_part
from .polymat import EXACT, Poly, gcd_free_base

MATCH_TOL = 1e-8

_FACTOR_BOUND = 10**12
_MAX_CANDIDATES = 20000


def close(a, b, tol=MATCH_TOL):
    a = complex(a)
    b = complex(b)
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _factorize(n):
    """Trial-division factorization; None when n is too large to bother."""
    n = abs(n)
    if n > _FACTOR_BOUND:
        return None
    out = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _divisors(n):
    factors = _factorize(n)
    if factors is None:
        return None
    divs = [1]
    for p, e in factors.items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
        if len(divs) > _MAX_CANDIDATES:
            return None
    return divs


def rational_roots(p):
    """All rational roots with multiplicities, plus the deflated remainder.

    On the primitive integer coefficients f of p, lam**k and then every
    candidate +-a/b (a | f's constant, b | its lead, coprime) are divided
    out by `_linalg.multiplicity`, the one exact deflation; a linear rest
    is solved outright, exact at any size.  The roots come back with 0
    first, then ascending; the remainder keeps p's leading coefficient.
    The search gives up (a linear rest is still solved) beyond
    _MAX_CANDIDATES candidates or an unreasonably large divisor
    enumeration; the caller then finds those roots numerically.
    """
    if p.mode != EXACT:
        raise ValueError("rational root extraction requires exact mode")
    if p.is_zero:
        raise ValueError("the zero polynomial has every point as a root")
    k, f = multiplicity(primitive_part(p.coeffs), [0, 1])
    roots = [(Fraction(0), k)] if k else []
    found = []
    num_divs = _divisors(f[0]) if len(f) > 2 else None
    den_divs = _divisors(f[-1]) if num_divs is not None else None
    if den_divs is not None:
        # each coprime pair is two distinct candidates, +-a/b
        pairs = list(islice(
            ((a, b) for a in num_divs for b in den_divs if gcd(a, b) == 1),
            _MAX_CANDIDATES // 2 + 1,
        ))
        if 2 * len(pairs) <= _MAX_CANDIDATES:
            for a, b in pairs:
                if len(f) <= 2:
                    break
                for num in (a, -a):
                    e, f = multiplicity(f, [-num, b])
                    if e:
                        found.append((Fraction(num, b), e))
    if len(f) == 2:
        found.append((Fraction(-f[0], f[1]), 1))
        f = f[1:]
    rest = Poly([Fraction(c, f[-1]) * p.leading for c in f], EXACT)
    return roots + sorted(found), rest


def _float_coeffs(p):
    """The coefficients as floats, or None when one is beyond the float range."""
    try:
        return [float(c) for c in p.coeffs]
    except OverflowError:
        return None


def numeric_roots(p):
    """Roots of a polynomial via companion-matrix eigenvalues.

    An exact polynomial with a coefficient beyond the float range is solved
    as q(mu) = p(2^k mu) / 2^s: k balances its outer coefficients and s
    brings the largest to about 1, both exactly; each root is 2^k mu.
    """
    import numpy as np

    if p.degree < 1:
        return []
    coeffs = _float_coeffs(p)
    if coeffs is not None:
        return [complex(z) for z in np.roots(coeffs[::-1])]
    log2 = [c.numerator.bit_length() - c.denominator.bit_length() if c else None for c in p.coeffs]
    low = next(i for i, e in enumerate(log2) if e is not None)
    k = round((log2[low] - log2[-1]) / (p.degree - low))
    s = max(e + k * i for i, e in enumerate(log2) if e is not None)
    scaled = [float(c * Fraction(2) ** (k * i - s)) for i, c in enumerate(p.coeffs)]
    if scaled[low] == 0 or scaled[-1] == 0:
        raise OverflowError("the roots spread beyond the float range")
    return [
        complex(ldexp(z.real, k), ldexp(z.imag, k))
        for z in map(complex, np.roots(scaled[::-1]))
    ]


def cluster(values, tol=MATCH_TOL):
    """Greedy clustering of numeric values into (center, count) pairs."""
    groups = []
    for v in sorted(values, key=lambda z: (z.real, z.imag)):
        for g in groups:
            if close(g[0] / g[1], v, tol):
                g[0] += v
                g[1] += 1
                break
        else:
            groups.append([v, 1])
    return [(g[0] / g[1], g[1]) for g in groups]


def base_roots(p, base, exponents):
    """Roots of a nonzero exact polynomial p over a gcd-free base of it (see
    `polymat.gcd_free_base`), as (value, multiplicity, j) triples: `value`
    is a root of base[j], and p is a constant times the product of the
    base[j] ** exponents[j].

    The elements are square-free and pairwise coprime, so each element with
    a positive exponent e is solved on its own and every root of it gets
    multiplicity e and index j: its rational roots exactly, by
    `rational_roots`, and the deflated rest by `numeric_roots`, scaled by
    the leading coefficient of p.  Rational roots come first, 0 before the
    others in ascending order; then the rest by increasing multiplicity,
    each multiplicity's roots in `cluster`'s (re, im) order.
    """
    exact, rest = [], []
    for j, (b, e) in enumerate(zip(base, exponents)):
        if e:
            found, left = rational_roots(b)
            exact.extend([(v, e, j) for v, _ in found])
            rest.extend([
                (e, v, e * count, j) for v, count in cluster(numeric_roots(left * p.leading))
            ])
    exact.sort(key=lambda t: (t[0] != 0, t[0]))
    rest.sort(key=lambda t: (t[0], t[1].real, t[1].imag))
    return exact + [t[1:] for t in rest]


def all_roots(p):
    """Roots with multiplicities: exact Fractions where possible, complex
    floats for the rest.

    In exact mode these are the `base_roots` of p over its own gcd-free
    base, whose elements are the square-free parts of p; float mode
    clusters the companion-matrix eigenvalues.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has every point as a root")
    if p.mode != EXACT:
        return cluster(numeric_roots(p))
    base, (exponents,) = gcd_free_base([p])
    return [(v, k) for v, k, _ in base_roots(p, base, exponents)]
