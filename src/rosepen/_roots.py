"""Root extraction for exact and float scalar polynomials.

Exact polynomials get their rational roots peeled off first (rational root
theorem with exact synthetic division).  The remainder is split into its
square-free parts (Yun's decomposition), and each part goes to the
companion-matrix eigenvalue solver behind numpy.roots: a part's roots are
simple, so they come out accurate, and each carries the part's exact
multiplicity.  Numeric results are clustered with the scale-relative
matching tolerance used throughout the package: two values coincide when
|a - b| <= tol * max(1, |a|, |b|).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, isfinite, ldexp

from .polymat import EXACT, Poly, square_free_decomposition

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

    Gives up on the rational-root search (returning an empty list) when the
    integer divisor enumeration would be unreasonably large; the roots are
    then still found numerically by the caller.
    """
    if p.mode != EXACT:
        raise ValueError("rational root extraction requires exact mode")
    if p.is_zero:
        raise ValueError("the zero polynomial has every point as a root")
    roots = []
    # powers of lam split off directly
    k = 0
    while k <= p.degree and p.coefficient(k) == 0:
        k += 1
    if k > 0:
        roots.append((Fraction(0), k))
        p = Poly(p.coeffs[k:], EXACT)
    if p.degree < 1:
        return roots, p
    denlcm = 1
    for c in p.coeffs:
        denlcm = denlcm * c.denominator // gcd(denlcm, c.denominator)
    ints = [int(c * denlcm) for c in p.coeffs]
    a0, lead = ints[0], ints[-1]
    num_divs = _divisors(a0)
    den_divs = _divisors(lead)
    if num_divs is None or den_divs is None:
        return roots, p
    candidates = set()
    for a in num_divs:
        for b in den_divs:
            c = Fraction(a, b)
            candidates.add(c)
            candidates.add(-c)
    if len(candidates) > _MAX_CANDIDATES:
        return roots, p
    float_coeffs = _float_coeffs(p)
    for cand in sorted(candidates):
        if p.degree < 1:
            break
        # cheap float screen; a true root always passes, exact division decides.
        # Where the floats overflow the screen cannot decide and lets it pass.
        if float_coeffs is not None:
            x = float(cand)
            acc = float_coeffs[-1]
            for c in reversed(float_coeffs[:-1]):
                acc = acc * x + c
            try:
                scale = max(abs(c) for c in float_coeffs) * max(1.0, abs(x)) ** p.degree
            except OverflowError:
                scale = inf
            if isfinite(acc) and abs(acc) > 1e-6 * scale:
                continue
        mult = 0
        while p(cand) == 0:
            p = p // Poly((-cand, 1), EXACT)
            mult += 1
        if mult:
            roots.append((cand, mult))
            float_coeffs = _float_coeffs(p)
    return roots, p


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


def all_roots(p):
    """Roots with multiplicities: exact Fractions where possible, complex
    floats for the rest.

    In exact mode the rational roots come first, in `rational_roots` order.
    Then come the roots of each square-free part of the deflated remainder,
    by increasing multiplicity, each part's roots ordered as `cluster`
    orders them and counted with the part's multiplicity.  A square-free
    remainder is solved as it stands, so its digits do not depend on the
    decomposition.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has every point as a root")
    if p.mode != EXACT:
        return cluster(numeric_roots(p))
    found, rest = rational_roots(p)
    parts = square_free_decomposition(rest)
    if [k for _, k in parts] == [1]:
        parts = [(rest, 1)]
    out = list(found)
    for part, k in parts:
        out.extend([(v, k * count) for v, count in cluster(numeric_roots(part))])
    return out
