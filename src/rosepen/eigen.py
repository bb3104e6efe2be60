"""Generalized eigenvalue solving for system pencils, zero classification,
and the end-to-end pipeline for rational eigenvalue problems.

A Fiedler pencil of a system is a Rosenbrock linearization of S(lam)
whose determinant is det S itself (c = 1 for every sigma).  So the exact
backend of `classify_zeros` works from det S and builds no pencil:
its roots are listed over one gcd-free base of the report's polynomials,
one element at a time, with rational roots isolated exactly and the rest
from companion-matrix eigenvalues (`_roots.base_roots`).  The pencil
is what the numeric backend solves, by dense QZ on (-const, lead);
`solve_gep` and `pencil_determinant` also solve a caller's own pencil
exactly.  Every computed zero of a transfer function is classified as an
eigenvalue (a zero that is not a pole) or an eigenpole (a zero coinciding
with a pole): det S or the pencil supplies the invariant zeros, the state
pencil supplies the poles, and the intersection decides.  In exact mode
the intersection and the multiplicity indices are read from that same
base: each zero is listed with the one base element it is a root of,
which is a pole exactly when it divides det(lam*E - A), and whose
exponents in the Smith-McMillan numerators and denominators are the
zero's indices.  That form is `smith_mcmillan(transfer_function(sys))`,
and `transfer_function` holds G = N / d over one common denominator: the
numerators are minors of S(lam), d is det(lam*E - A) with its gcd with
all of them divided out, and no entry of G is reduced on its own.
Numeric zeros and poles are matched by one rule (`_on_a_pole`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from . import _linalg, _roots
from ._linalg import EXACT
from ._roots import MATCH_TOL
from .fiedler import Bijection, pencil_algorithm1, pencil_direct
from .polymat import gcd_free_base, poly_matrix_det, smith_mcmillan, zero_pole_polys
from .system import (
    RosenbrockSystem,
    SingularStateError,
    is_minimal,
    realize,
    state_det,
    state_eigenvalues,
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

    a = -_linalg.to_float_array(pencil.const_term)
    b = _linalg.to_float_array(pencil.lead)
    alpha, beta = _linalg.qz_eig(a, b, homogeneous=True)
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
    return _linalg.rank(pencil.lead) < pencil.size


def eig_eip_split(zero_poly, pole_poly):
    """Partition the roots of the zero polynomial by whether they are also
    roots of the pole polynomial: (eigenvalues, eigenpoles).

    Exact mode lists the roots of zero_poly over a gcd-free base of the two
    polynomials (`_roots.base_roots`), so each root comes with its base
    element; a root is shared when its element divides pole_poly, and so
    divides gcd(zero_poly, pole_poly).  Float mode matches numeric zeros
    with the raw numeric roots of pole_poly as numeric `classify_zeros`
    does (`_on_a_pole`).
    """
    zero_poly = zero_poly.monic()
    pole_poly = pole_poly.monic()
    if zero_poly.degree < 1:
        return [], []
    if zero_poly.mode == EXACT and pole_poly.mode == EXACT:
        base, (zero_exps, pole_exps) = gcd_free_base((zero_poly, pole_poly))
        eig, eip = [], []
        for v, _, j in _roots.base_roots(zero_poly, base, zero_exps):
            (eip if pole_exps[j] else eig).append(v)
        return eig, eip
    zeros = [v for v, _ in _roots.all_roots(zero_poly)]
    on_pole = _on_a_pole(zeros, _roots.numeric_roots(pole_poly))
    eig = [v for v, p in zip(zeros, on_pole) if not p]
    eip = [v for v, p in zip(zeros, on_pole) if p]
    return eig, eip


def _on_a_pole(zeros, poles):
    """For each numeric zero, whether it lies on one of the numeric poles.

    An eigensolver splits a defective pole of multiplicity k into copies
    about eps**(1/k) apart, which can leave a zero on that pole farther
    than `MATCH_TOL` from every copy.  The mean of the copies stays
    accurate, so a zero matches a pole within `MATCH_TOL` or the mean of
    poles grouped within sqrt(MATCH_TOL).
    """
    targets = poles + [c for c, k in _roots.cluster(poles, MATCH_TOL**0.5) if k > 1]
    return [any(_roots.close(z, p) for p in targets) for z in zeros]


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


def classify_zeros(sys, sigma=None, backend="exact", pencil=None):
    """Full zero report for a system: invariant zeros, poles from the state
    pencil, eigenpoles as the intersection, plus multiplicity indices from
    the Smith-McMillan form in exact mode.

    Minimality is decided here, once, by `is_minimal`.  A non-minimal
    system still gets a report, flagged minimal=False: its zeros are then
    invariant zeros of the realization, not necessarily zeros of the
    transfer function.

    The exact backend reads the zeros from det S, the system's memoised
    `system_det`: a Fiedler pencil of S is a Rosenbrock linearization with
    det(pencil) = det S for every sigma (c = 1), so it builds no pencil and
    takes none, reports det_constant 1 and is singular iff det S = 0.  It
    builds one gcd-free base of det S, the pole polynomial of G,
    det(lam*E - A) and the Smith-McMillan numerators and denominators, and
    lists the zeros (the roots of det S) and the poles over it one element
    at a time (`_roots.base_roots`), so each comes with its element: a zero
    is an eigenpole exactly when its element divides det(lam*E - A), and
    its ind_phi and ind_psi are that element's exponents in the numerators
    and in the reversed denominators, so no value is compared with a
    tolerance.  The Smith-McMillan form is that of `transfer_function`,
    which holds G as N / d over one common denominator; det(lam*E - A) is
    the system's memoised `state_det`, which that denominator shares.

    The numeric backend runs QZ on `pencil`, the Fiedler pencil of sigma
    (first companion by default), which is the dense product `pencil_direct`
    when not given: that route's one production use.  The poles are the
    system's memoised `state_eigenvalues`, shared with the float decoupling
    test; zeros are clustered and matched with poles by `_on_a_pole`, as
    `eig_eip_split` does.
    """
    if not sys.e_is_nonsingular():
        raise SingularStateError("E is singular")
    if sigma is None:
        sigma = Bijection.first_companion_order(sys.m)
    if backend == "exact":
        if pencil is not None:
            raise ValueError("the exact backend reads det S and takes no pencil")
        if sys.mode != EXACT:
            raise ValueError("the exact backend requires an exact system")
        if sigma.m != sys.m:
            raise ValueError("bijection length does not match the system degree")
    elif pencil is None:
        pencil = pencil_direct(sys, sigma)
    minrep = is_minimal(sys)
    provenance = dict(
        decoupling=minrep.decoupling,
        minimal=minrep.minimal,
        backend=backend,
        sigma=sigma.inverse_order,
        pencil_size=sys.n * sys.m + sys.r,
    )
    note = (
        "zeros are transmission zeros (= invariant zeros; realization is minimal)"
        if minrep.minimal
        else "realization is not minimal: zeros listed are invariant zeros of "
        "the realization and may differ from the zeros of G"
    )

    if backend == "exact":
        det_s = system_det(sys)
        singular = det_s.is_zero
    else:
        gep = solve_gep(pencil, backend=backend)
        singular = gep.singular
    if singular:
        note = "singular pencil: spectrum undefined at pencil level"
        return ZeroReport((), (), singular=True, note=note, **provenance)

    if backend == "exact":
        sm = smith_mcmillan(transfer_function(sys))
        psi_g = zero_pole_polys(sm)[1]
        k = len(sm.numerators)
        base, exps = gcd_free_base(
            (det_s, psi_g, state_det(sys), *sm.numerators, *reversed(sm.denominators))
        )
        det_exps, psi_g_exps, state_exps = exps[:3]
        phi_exps, psi_exps = exps[3 : 3 + k], exps[3 + k :]

        zeros = []
        for value, _, j in _roots.base_roots(det_s, base, det_exps):
            is_pole = state_exps[j] > 0
            zeros.append(
                ZeroEntry(
                    value=value,
                    classification=EIGENPOLE if is_pole else EIGENVALUE,
                    ind_phi=tuple([e[j] for e in phi_exps]),
                    ind_psi=tuple([e[j] for e in psi_exps]) if is_pole else None,
                )
            )
        poles = [
            PoleEntry(value=value, ind_psi=tuple([e[j] for e in psi_exps]))
            for value, _, j in _roots.base_roots(psi_g, base, psi_g_exps)
        ]
        return ZeroReport(
            tuple(zeros), tuple(poles), det_constant=Fraction(1), note=note, **provenance
        )

    # numeric backend: poles from a dense generalized eigensolver on (A, E)
    import numpy as np

    state_eigs = state_eigenvalues(sys) if sys.r else ()
    pole_roots = [complex(v) for v in state_eigs if np.isfinite(v)]
    values = [value for value, _mult in gep.eigenvalues]
    zeros = [
        ZeroEntry(value=value, classification=EIGENPOLE if is_pole else EIGENVALUE)
        for value, is_pole in zip(values, _on_a_pole(values, pole_roots))
    ]
    poles = tuple([PoleEntry(value=v) for v, _ in _roots.cluster(pole_roots)])
    return ZeroReport(tuple(zeros), poles, note=note, **provenance)


def solve_rep(spec, sigma=None, backend="exact"):
    """Direct method for a rational eigenproblem: realize the spec in
    state-space form, then classify its zeros.  The exact backend reads
    them from det S; the numeric backend solves the Fiedler pencil of
    sigma, spliced by `pencil_algorithm1`, by QZ.

    `spec` is a `RepSpec`, or a `RosenbrockSystem` already realized from
    one.  Minimality is decided once, by `classify_zeros`; a non-minimal
    realization is not fatal: the pipeline proceeds with a warning and the
    report downgrades its claims accordingly.
    """
    sys = spec if isinstance(spec, RosenbrockSystem) else realize(spec)
    pencil = None
    if backend == "numeric":
        sigma = sigma or Bijection.first_companion_order(sys.m)
        pencil = pencil_algorithm1(sys, sigma)
    report = classify_zeros(sys, sigma=sigma, backend=backend, pencil=pencil)
    if not report.minimal:
        warnings.warn(
            "realization is not minimal; reported zeros are invariant zeros"
        )
    return report
