"""Output checks, run on the CLI's stdout after the timed loop.

Each check takes the input document and the output text of one request and
raises ``CheckError`` when the output is wrong; the caller records the
request and the exception type.  The checks recompute everything from the
input document with their own arithmetic and never call the library.

zeros: every reported eigenvalue makes S(lam) singular, or G(lam) for an
REP spec; an exact (rational) value is tested with an exact determinant and
a complex one by its backward error, the smallest singular value over the
coefficient-weighted norm (for G, of its numerator d G, see
``_rep_numerators``).  A zero is an eigenpole exactly when it is a
root of det(lam E - A), or a term pole for an REP spec.  For a complex
value "a root" is decided by the backward error of lam E - A: an eigenpole
must be a root to within POLE_CLAIM_TOL and an eigenvalue must not be one
to within POLE_EXCLUDE_TOL; between the two floating point cannot decide,
and either class passes.

verify: all certificates passed, one result per bijection (m!), and every
result carries the constant c of det L = c det S.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from workloads import frac_det

# Largest backward error accepted for a reported zero.
ZERO_TOL = 1e-6
# Backward error of lam E - A (or relative distance to a term pole) below
# which a complex zero may be an eigenpole, and below which it must be one.
POLE_CLAIM_TOL = 1e-8
POLE_EXCLUDE_TOL = 1e-14


class CheckError(Exception):
    """An output failed its check."""


def _scalar(obj):
    """Decode a reported value: exact rational or complex float."""
    if isinstance(obj, dict):
        return complex(obj["re"], obj["im"])
    if isinstance(obj, str):
        num, _, den = obj.partition("/")
        return Fraction(int(num), int(den))
    if isinstance(obj, int):
        return Fraction(obj)
    raise CheckError(f"unexpected value {obj!r}")


def _polyval(coeffs, x):
    acc = 0 * x
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _backward_error(value, coefficient_mats, terms=()):
    """sigma_min(M(value)) / (sum_k |value|^k ||M_k|| + sum_j |s_j| ||C_j||).

    ``coefficient_mats`` are the float coefficients M_k of the polynomial
    part; ``terms`` holds (s_j(value), C_j) pairs for the rational part.
    """
    mag = abs(value)
    matrix = sum(m * value**k for k, m in enumerate(coefficient_mats))
    scale = sum(np.linalg.norm(m, 2) * mag**k for k, m in enumerate(coefficient_mats))
    for s, c in terms:
        matrix = matrix + s * c
        scale += abs(s) * np.linalg.norm(c, 2)
    sigma = np.linalg.svd(matrix, compute_uv=False)
    return float(sigma[-1] / scale) if scale else math.inf


def _system_coefficients(doc):
    """Float coefficient matrices S_0, S_1, ... of the system matrix S(lam)."""
    p = doc["P"]
    n, r = len(p), len(doc["A"])
    m = max(len(c) for row in p for c in row) - 1
    mats = []
    for k in range(max(m, 1) + 1):
        s = np.zeros((n + r, n + r))
        for i in range(n):
            for j in range(n):
                coeffs = p[i][j]
                s[i, j] = coeffs[k] if k < len(coeffs) else 0
        if k == 0:
            s[:n, n:] = np.array(doc["C"], dtype=float).reshape(n, r)
            s[n:, :n] = np.array(doc["B"], dtype=float).reshape(r, n)
            s[n:, n:] = np.array(doc["A"], dtype=float).reshape(r, r)
        elif k == 1:
            s[n:, n:] = -np.array(doc["E"], dtype=float).reshape(r, r)
        mats.append(s)
    return mats


def _system_matrix_exact(doc, x):
    p = doc["P"]
    n, r = len(p), len(doc["A"])
    rows = [[_polyval(p[i][j], x) for j in range(n)] + list(doc["C"][i]) for i in range(n)]
    for i in range(r):
        rows.append(
            list(doc["B"][i]) + [doc["A"][i][j] - x * doc["E"][i][j] for j in range(r)]
        )
    return rows


def _check_system_zero(doc, zero):
    value = _scalar(zero["value"])
    a = doc["A"]
    if isinstance(value, Fraction):
        if frac_det(_system_matrix_exact(doc, value)) != 0:
            raise CheckError(f"S({value}) is not singular")
        eta_pole = 0.0 if a and frac_det(
            [[value * e - x for e, x in zip(re, ra)] for re, ra in zip(doc["E"], a)]
        ) == 0 else math.inf
    else:
        eta = _backward_error(value, _system_coefficients(doc))
        if not eta <= ZERO_TOL:
            raise CheckError(f"S({value}) has backward error {eta:.3g}")
        eta_pole = math.inf
        if a:
            e = np.array(doc["E"], dtype=float)
            eta_pole = _backward_error(value, [-np.array(a, dtype=float), e])
    _check_class(value, zero["class"], eta_pole)


def _check_class(value, claimed, eta_pole):
    """``eta_pole``: 0 on a pole, inf off one, else a backward error."""
    if claimed == "eigenpole" and not eta_pole <= POLE_CLAIM_TOL:
        raise CheckError(f"eigenpole {value} is not a pole ({eta_pole:.3g})")
    if claimed == "eigenvalue" and not eta_pole > POLE_EXCLUDE_TOL:
        raise CheckError(f"eigenvalue {value} is a pole ({eta_pole:.3g})")
    if claimed not in ("eigenpole", "eigenvalue"):
        raise CheckError(f"unknown class {claimed!r}")


def _check_rep_zero(doc, zero):
    value = _scalar(zero["value"])
    poles = [-t["den"][0] for t in doc["terms"]]
    p = doc["P"]
    n = len(p)
    if isinstance(value, Fraction):
        eta_pole = 0.0 if value in poles else math.inf
    else:
        eta_pole = min(abs(value - q) for q in poles) / max(1.0, abs(value))
    _check_class(value, zero["class"], eta_pole)
    if zero["class"] == "eigenpole":
        return  # G has a pole there; the class check is the whole test
    if isinstance(value, Fraction):
        g = [[_polyval(p[i][j], value) for j in range(n)] for i in range(n)]
        for t in doc["terms"]:
            s = Fraction(_polyval(t["num"], value)) / _polyval(t["den"], value)
            for i in range(n):
                for j in range(n):
                    g[i][j] += s * t["matrix"][i][j]
        if frac_det(g) != 0:
            raise CheckError(f"G({value}) is not singular")
        return
    # G is ill-conditioned next to a pole, so test H = d G with the common
    # denominator d = prod_j (lam - p_j): a polynomial matrix singular at
    # every zero of G.
    h = _rep_numerators(doc)
    eta = _backward_error(value, [np.array(c, dtype=float) for c in h])
    if not eta <= ZERO_TOL:
        raise CheckError(f"G({value}) has backward error {eta:.3g}")


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _rep_numerators(doc):
    """Coefficient grids H_0, H_1, ... of H = d P + sum_j num_j d / den_j."""
    p, terms = doc["P"], doc["terms"]
    n = len(p)
    d = [1]
    for t in terms:
        d = _poly_mul(d, t["den"])
    entries = [[_poly_mul(d, p[i][j]) for j in range(n)] for i in range(n)]
    for k, t in enumerate(terms):
        rest = [1]
        for other in terms[:k] + terms[k + 1 :]:
            rest = _poly_mul(rest, other["den"])
        s = _poly_mul(t["num"], rest)
        for i in range(n):
            for j in range(n):
                c = t["matrix"][i][j]
                e = entries[i][j]
                e.extend([0] * (len(s) - len(e)))
                for q, x in enumerate(s):
                    e[q] += c * x
    degree = max(len(e) for row in entries for e in row)
    return [
        [[e[k] if k < len(e) else 0 for e in row] for row in entries]
        for k in range(degree)
    ]


def check_zeros(doc, rc, text):
    """Check one `zeros` request; returns the number of problems solved (1)."""
    if rc != 0:
        raise CheckError(f"exit code {rc}")
    report = json.loads(text)
    if report["singular"]:
        raise CheckError("report flags a singular pencil")
    check = _check_rep_zero if "terms" in doc else _check_system_zero
    for zero in report["zeros"]:
        check(doc, zero)
    return 1


def check_verify(doc, rc, text):
    """Check one `verify --all` request; returns the certificates verified."""
    if rc != 0:
        raise CheckError(f"exit code {rc}")
    summary = json.loads(text)
    m = summary["m"]
    results = summary["results"]
    if not summary["all_passed"]:
        raise CheckError("not every certificate passed")
    if len(results) != math.factorial(m):
        raise CheckError(f"{len(results)} results for m={m}")
    if any(r["det_constant"] is None for r in results):
        raise CheckError("a result has no det_constant")
    return len(results)


CHECKS = {"zeros": check_zeros, "verify": check_verify}
