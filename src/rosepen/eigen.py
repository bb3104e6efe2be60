"""Generalized eigenvalue solving for system pencils, zero classification,
and the end-to-end pipeline for rational eigenvalue problems.

The exact backend works from the exact determinant of the pencil: rational
roots are isolated exactly, the deflated remainder goes to companion-matrix
eigenvalues.  The numeric backend runs a dense QZ solver on (-const, lead).
Every computed zero of a transfer function is classified as an eigenvalue
(a zero that is not a pole) or an eigenpole (a zero coinciding with a
pole): the pencil supplies the invariant zeros, the state pencil supplies
the poles, and the intersection decides.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from . import _linalg, _roots
from ._linalg import EXACT
from ._roots import MATCH_TOL
from .fiedler import Bijection, pencil_algorithm1, pencil_direct
from .polymat import (
    _root_multiplicity,
    poly_gcd,
    poly_matrix_det,
    smith_mcmillan,
    square_free_decomposition,
    zero_pole_polys,
)
from .system import (
    RosenbrockSystem,
    SingularStateError,
    is_minimal,
    realize,
    state_det,
    system_det,
    transfer_function,
)

__all__ = [
    "GepResult",
    "ZeroEntry",
    "PoleEntry",
    "ZeroReport",
    "pencil_determinant",
    "solve_gep",
    "classify_zeros",
    "solve_rep",
    "eig_eip_split",
]

EIGENVALUE = "eigenvalue"
EIGENPOLE = "eigenpole"


@dataclass(frozen=True)
class GepResult:
    """Finite eigenvalues of a pencil as (value, multiplicity) pairs.

    infinite_flag is set iff the leading coefficient matrix is singular;
    a pencil with identically zero determinant is reported through the
    singular flag instead of raising.
    """

    eigenvalues: tuple
    infinite_flag: bool
    singular: bool
    backend: str
    det_poly: object = None

    @property
    def count_with_multiplicity(self):
        return sum(m for _, m in self.eigenvalues)


def pencil_determinant(pencil):
    """Exact determinant of lam*lead + const, by `poly_matrix_det`."""
    if pencil.mode != EXACT:
        raise ValueError("exact determinant requires an exact pencil")
    return poly_matrix_det(pencil.as_poly_matrix())


def solve_gep(pencil, backend="exact"):
    """Finite eigenvalues of a system pencil.

    backend="exact": roots of the exact determinant polynomial (rational
    roots isolated exactly, the rest from the companion matrix of the
    deflated factor).  backend="numeric": dense QZ on (-const, lead).
    """
    if backend == "exact":
        det = pencil_determinant(pencil)
        if det.is_zero:
            return GepResult((), _lead_singular(pencil), True, backend, det)
        eigs = tuple(_roots.all_roots(det))
        return GepResult(eigs, _lead_singular(pencil), False, backend, det)
    if backend != "numeric":
        raise ValueError("backend must be 'exact' or 'numeric'")

    import numpy as np
    import scipy.linalg

    a = -_linalg.to_float_array(pencil.const_term)
    b = _linalg.to_float_array(pencil.lead)
    alpha, beta = scipy.linalg.eig(a, b, right=False, homogeneous_eigvals=True)
    finite = []
    degenerate = 0
    scale = max(1.0, float(np.abs(a).max()), float(np.abs(b).max()))
    for al, be in zip(alpha, beta):
        if abs(be) <= 1e-12 * scale and abs(al) <= 1e-12 * scale:
            degenerate += 1
        elif abs(be) > 1e-12 * max(1.0, abs(al)):
            finite.append(complex(al / be))
    infinite = _linalg.rank_float(pencil.lead) < pencil.size
    if degenerate > 0:
        # singular pencil: whatever else the QZ sweep produced is noise
        return GepResult((), infinite, True, backend)
    return GepResult(tuple(_roots.cluster(finite)), infinite, False, backend)


def _lead_singular(pencil):
    if pencil.mode == EXACT:
        return _linalg.rank(pencil.lead) < pencil.size
    return _linalg.rank_float(pencil.lead) < pencil.size


def eig_eip_split(zero_poly, pole_poly):
    """Partition the roots of the zero polynomial by whether they are also
    roots of the pole polynomial: (eigenvalues, eigenpoles).

    Exact mode decides membership through gcd(zero_poly, pole_poly); float
    mode matches numeric root sets with the scale-relative `MATCH_TOL`.
    """
    zero_poly = zero_poly.monic()
    pole_poly = pole_poly.monic()
    if zero_poly.degree < 1:
        return [], []
    if zero_poly.mode == EXACT and pole_poly.mode == EXACT:
        common = poly_gcd(zero_poly, pole_poly)
        eip_roots = (
            [v for v, _ in _roots.all_roots(common)] if common.degree > 0 else []
        )
        eig = []
        for v, _ in _roots.all_roots(zero_poly):
            if isinstance(v, Fraction):
                shared = common(v) == 0
            else:
                shared = any(_roots.close(v, w) for w in eip_roots)
            if not shared:
                eig.append(v)
        return eig, eip_roots
    zeros = [v for v, _ in _roots.all_roots(zero_poly)]
    poles = (
        [v for v, _ in _roots.all_roots(pole_poly)]
        if pole_poly.degree > 0
        else []
    )
    eig = [v for v in zeros if not any(_roots.close(v, p) for p in poles)]
    eip = [v for v in zeros if any(_roots.close(v, p) for p in poles)]
    return eig, eip


@dataclass(frozen=True)
class ZeroEntry:
    value: object
    classification: str
    ind_phi: tuple = None
    ind_psi: tuple = None


@dataclass(frozen=True)
class PoleEntry:
    value: object
    ind_psi: tuple = None


@dataclass(frozen=True)
class ZeroReport:
    """Classified zeros of a system together with the run provenance."""

    zeros: tuple
    poles: tuple
    decoupling: object
    minimal: bool
    backend: str
    sigma: tuple
    pencil_size: int
    det_constant: object = None
    singular: bool = False
    note: str = ""


def _index_for_value(polys, value):
    """Multiplicity of `value` as a root of each polynomial in order.

    Rational points are decided by exact division; other points are located
    inside the square-free decomposition, whose factors are pairwise
    coprime, so at most one multiplicity class can host the root.
    """
    out = []
    for p in polys:
        if p.degree < 1:
            out.append(0)
            continue
        if isinstance(value, Fraction):
            out.append(_root_multiplicity(p, value))
            continue
        factors = square_free_decomposition(p)
        try:
            mags = [abs(factor(complex(value))) for factor, _ in factors]
            bound = 1e-6 * max(1.0, abs(complex(value))) ** p.degree
        except OverflowError:
            # beyond the float range: the same test on squares, exactly
            x, y = Fraction(value.real), Fraction(value.imag)
            mags = [_abs2_at(factor, x, y) for factor, _ in factors]
            bound = Fraction(1e-6) ** 2 * max(1, x * x + y * y) ** p.degree
        best = min(range(len(factors)), key=mags.__getitem__)
        out.append(factors[best][1] if mags[best] <= bound else 0)
    return tuple(out)


def _abs2_at(p, x, y):
    """|p(x + iy)|^2 in exact arithmetic."""
    re = im = Fraction(0)
    for c in reversed(p.coeffs):
        re, im = re * x - im * y + c, re * y + im * x
    return re * re + im * im


def _is_pole_value(value, pole_poly, pole_roots):
    if isinstance(value, Fraction):
        return pole_poly(value) == 0
    return any(_roots.close(value, p) for p in pole_roots)


class CertificateMismatch(RuntimeError):
    """Internal consistency failure between a pencil and its system."""


def classify_zeros(sys, sigma=None, backend="exact", pencil=None):
    """Full zero report for a system: invariant zeros from a Fiedler pencil
    (first companion by default), poles from the state pencil, eigenpoles
    as the intersection, plus multiplicity indices from the Smith-McMillan
    form in exact mode.

    Minimality is decided here, once, by `is_minimal`.  A non-minimal
    system still gets a report, flagged minimal=False: its pencil
    eigenvalues are then invariant zeros of the realization, not
    necessarily zeros of the transfer function.

    Root clustering and zero-pole matching use the scale-relative
    `MATCH_TOL`; multiplicity indices locate a numeric zero with a fixed
    1e-6 relative cut.  det(lam*E - A) is the system's memoised
    `state_det`, which `transfer_function` shares.
    """
    if not sys.e_is_nonsingular():
        raise SingularStateError("E is singular")
    if sigma is None:
        sigma = Bijection.first_companion_order(sys.m)
    if pencil is None:
        pencil = pencil_direct(sys, sigma)
    minrep = is_minimal(sys)
    note = (
        "zeros are transmission zeros (= invariant zeros; realization is minimal)"
        if minrep.minimal
        else "realization is not minimal: zeros listed are invariant zeros of "
        "the realization and may differ from the zeros of G"
    )

    gep = solve_gep(pencil, backend=backend)
    if gep.singular:
        return ZeroReport(
            zeros=(),
            poles=(),
            decoupling=minrep.decoupling,
            minimal=minrep.minimal,
            backend=backend,
            sigma=sigma.inverse_order,
            pencil_size=pencil.size,
            singular=True,
            note="singular pencil: spectrum undefined at pencil level",
        )

    if backend == "exact":
        pole_poly = state_det(sys).monic()
        pole_roots = (
            [v for v, _ in _roots.all_roots(pole_poly)] if pole_poly.degree > 0 else []
        )
        sm = smith_mcmillan(transfer_function(sys))
        psi_g = zero_pole_polys(sm)[1]

        q, rem = divmod(gep.det_poly, system_det(sys))
        if not rem.is_zero or q.degree != 0:
            raise CertificateMismatch(
                "pencil determinant is not a constant multiple of det S"
            )
        det_constant = q.coefficient(0)

        zeros = []
        for value, _mult in gep.eigenvalues:
            is_pole = _is_pole_value(value, pole_poly, pole_roots)
            ind_phi = _index_for_value(sm.numerators, value)
            ind_psi = (
                _index_for_value(tuple(reversed(sm.denominators)), value)
                if is_pole
                else None
            )
            zeros.append(
                ZeroEntry(
                    value=value,
                    classification=EIGENPOLE if is_pole else EIGENVALUE,
                    ind_phi=ind_phi,
                    ind_psi=ind_psi,
                )
            )
        poles = []
        if psi_g.degree > 0:
            for value, _mult in _roots.all_roots(psi_g):
                poles.append(
                    PoleEntry(
                        value=value,
                        ind_psi=_index_for_value(
                            tuple(reversed(sm.denominators)), value
                        ),
                    )
                )
        return ZeroReport(
            zeros=tuple(zeros),
            poles=tuple(poles),
            decoupling=minrep.decoupling,
            minimal=minrep.minimal,
            backend=backend,
            sigma=sigma.inverse_order,
            pencil_size=pencil.size,
            det_constant=det_constant,
            note=note,
        )

    # numeric backend: poles from a dense generalized eigensolver on (A, E)
    import numpy as np
    import scipy.linalg

    if sys.r > 0:
        a = _linalg.to_float_array(sys.A)
        e = _linalg.to_float_array(sys.E)
        raw = scipy.linalg.eig(a, e, right=False)
        pole_roots = [complex(v) for v in raw if np.isfinite(v)]
    else:
        pole_roots = []
    # QZ splits a defective pole of multiplicity k into copies about
    # eps**(1/k) apart, which can leave a zero on that pole farther than
    # MATCH_TOL from every copy.  The mean of the copies stays accurate, so
    # zeros are also matched against the means of poles grouped within
    # sqrt(MATCH_TOL).
    targets = pole_roots + [
        c for c, k in _roots.cluster(pole_roots, MATCH_TOL**0.5) if k > 1
    ]
    zeros = []
    for value, _mult in gep.eigenvalues:
        is_pole = any(_roots.close(value, p) for p in targets)
        zeros.append(
            ZeroEntry(
                value=value,
                classification=EIGENPOLE if is_pole else EIGENVALUE,
            )
        )
    poles = tuple([PoleEntry(value=v) for v, _ in _roots.cluster(pole_roots)])
    return ZeroReport(
        zeros=tuple(zeros),
        poles=poles,
        decoupling=minrep.decoupling,
        minimal=minrep.minimal,
        backend=backend,
        sigma=sigma.inverse_order,
        pencil_size=pencil.size,
        note=note,
    )


def solve_rep(spec, sigma=None, backend="exact"):
    """Direct method for a rational eigenproblem: realize the spec in
    state-space form, build a Fiedler pencil by the splicing construction
    (the product for m = 1), solve the GEP, classify.

    `spec` is a `RepSpec`, or a `RosenbrockSystem` already realized from
    one.  Minimality is decided once, by `classify_zeros`; a non-minimal
    realization is not fatal: the pipeline proceeds with a warning and the
    report downgrades its claims accordingly.
    """
    sys = spec if isinstance(spec, RosenbrockSystem) else realize(spec)
    if sigma is None:
        sigma = Bijection.first_companion_order(sys.m)
    if sys.m >= 2:
        pencil = pencil_algorithm1(sys, sigma)
    else:
        pencil = pencil_direct(sys, sigma)
    report = classify_zeros(sys, sigma=sigma, backend=backend, pencil=pencil)
    if not report.minimal:
        warnings.warn(
            "realization is not minimal; reported zeros are invariant zeros"
        )
    return report
