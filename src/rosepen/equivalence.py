"""System-equivalence certificates for Fiedler pencils.

The auxiliary system polynomials Q_i, R_i, T_i, D_i couple consecutive
block rows of an (nm+r)-sized system matrix; chaining them according to the
consecution/inversion pattern of a bijection transforms a Fiedler pencil
step by step into diag(-I_{(m-1)n}, S(lam)).  Accumulating the left and
right factors yields explicit transforms U, V, i.e. a checkable certificate
that the pencil is a trimmed structured linearization of the system matrix.
The construction alone makes U and V unimodular with I_r on the state block
and a zero border: Q_i, Q_i^B are unit triangular, and R_i, R_i^B are the
identity but for a [[0, I], [I, X]] block.  So det U * det V =
(-1)^((m-1)n) and det(pencil) = det S(lam) for every passing pencil.  The
tier-1 property `test_step_matrices_fix_unimodularity_and_the_state_block`
proves this on generated systems; nothing here recomputes it.

Only the pencil depends on sigma beyond its consecution pattern.  The
pieces that do not (the step pairs, the intermediate pencils, U and V, and
the target) live in the system's own memo (`RosenbrockSystem.memo`): every
sigma of a sweep shares them, and they are freed with the system.  U and V
are multiplied out only when read.  Each sigma takes its own pencil
through the first step only and compares the result with the intermediate
pencil it must equal.  Once that holds, every later step's input is a
memoised intermediate pencil, so the verdict of steps 2..m-1 is memoised per
factor order kept at step 2, and the residual, the last product minus the
target, is the same for every sigma and formed once per system.  The pencil,
when not given, is spliced by Algorithm 1 (`pencil_algorithm1`), and each
intermediate pencil lam*D_j - M_sigma^(j) is laid out entry by entry from
the same splice on fewer factors and D_j, with no PolyMatrix arithmetic.

Nor is a step a full matrix product.  Its left and right matrices equal
the identity outside block rows and columns i and i+1 (the I_r state block
included), so `_apply_step` recomputes only those at most 2n rows of the
left product, then those at most 2n columns of the right one, by the
product kernel of `PolyMatrix` itself (`_product` on a row or column
range, of which `*` is the full case), and keeps every other entry as it
is.  Each result is still compared whole with its intermediate pencil, so
a pencil forged at any entry fails at the same step and entry as under
full products.  A certificate calls no `PolyMatrix.__mul__`.

Q_i, R_i, T_i, D_i and the target are laid out by `_linalg.embed` from
their core blocks and block positions, and block transposed by
`_linalg.embedded_block_transpose`, as the pencils are.

Everything here is exact-mode only: the certificate is a proof artifact and
float residuals prove nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

from . import _linalg
from ._linalg import EXACT
from .fiedler import _spliced_product, make_factor, pencil_algorithm1
from .polymat import Poly, PolyMatrix, horner_shift
from .system import _system_layout

__all__ = [
    "AuxMatrix",
    "AuxRelationsReport",
    "CertificateError",
    "EquivalenceCertificate",
    "aux_matrix",
    "aux_block_transpose",
    "aux_relations_check",
    "intermediate_pencil",
    "build_certificate",
    "verify_rosenbrock_linearization",
]


class CertificateError(ValueError):
    """A certificate product failed to reproduce its target exactly."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


@dataclass(frozen=True)
class AuxMatrix:
    kind: str  # "Q" | "R" | "T" | "D"
    index: int
    matrix: PolyMatrix
    block_transposed: bool = False


@dataclass(frozen=True)
class AuxRelationsReport:
    failures: tuple

    def __bool__(self):
        return not self.failures


def _require_exact(sys):
    if sys.mode != EXACT:
        raise ValueError("equivalence certificates require exact mode")


def _diag(p, k):
    """The k x k grid with the Poly p on its diagonal."""
    zero = Poly.zero(p.mode)
    return [[p if a == b else zero for b in range(k)] for a in range(k)]


def aux_matrix(sys, kind, i):
    """Auxiliary system polynomial: Q and R get an I_r state block, T gets
    0_r and D gets -E.  D_1 coincides with the leading Fiedler factor.

    The n x n blocks, 1-based: Q_i is I with lam*I at (i, i+1); R_i is I
    but for [[0, I], [I, P_i]] at blocks i, i+1; T_i is zero but for
    [[0, lam*P_{i-1}], [lam*I, lam^2*P_{i-1}]] there; D_i has P_{i-1} at
    (i, i), I after it and zero before.  P_k is the degree-k Horner shift.
    """
    _require_exact(sys)
    n, r, m, mode = sys.n, sys.r, sys.m, sys.mode
    if kind == "D":
        if not 1 <= i <= m:
            raise ValueError(f"D index {i} out of range 1..{m}")
    elif not 1 <= i <= m - 1:
        raise ValueError(f"{kind} index {i} out of range 1..{m - 1}")
    lam, one = Poly.lam(mode), Poly.one(mode)
    eye = _diag(one, n)
    if kind == "D":
        blocks = {(k, k): eye for k in range(i + 1, m + 1)}
        blocks[(i, i)] = horner_shift(sys.P, i - 1).entries
        corner = [[Poly.constant(-x, mode) for x in row] for row in sys.E]
    elif kind in ("Q", "R"):
        blocks = {(k, k): eye for k in range(1, m + 1)}
        if kind == "Q":
            blocks[(i, i + 1)] = _diag(lam, n)
        else:
            del blocks[(i, i)]
            blocks[(i, i + 1)] = blocks[(i + 1, i)] = eye
            blocks[(i + 1, i + 1)] = horner_shift(sys.P, i).entries
        corner = _diag(one, r)
    elif kind == "T":
        shift = horner_shift(sys.P, i - 1)
        blocks = {
            (i, i + 1): shift.scale(lam).entries,
            (i + 1, i): _diag(lam, n),
            (i + 1, i + 1): shift.scale(lam * lam).entries,
        }
        corner = _diag(Poly.zero(mode), r)
    else:
        raise ValueError("kind must be one of Q, R, T, D")
    return AuxMatrix(kind, i, PolyMatrix(_linalg.embed(n, m, blocks, corner, Poly.zero(mode))))


def aux_block_transpose(aux, sys):
    """The system block transpose of an auxiliary matrix, whose C-column and
    B-row are identically zero."""
    n, m = sys.n, sys.m
    nm = n * m
    entries = aux.matrix.entries
    if any(not e.is_zero for row in entries[:nm] for e in row[nm:]):
        raise ValueError("nonzero C-column; use the pencil-level block transpose")
    if any(not e.is_zero for row in entries[nm:] for e in row[:nm]):
        raise ValueError("nonzero B-row; use the pencil-level block transpose")
    # a zero border reads the same at any block, so it stays at block m
    grid = _linalg.embedded_block_transpose(entries, n, m, m, m, Poly.zero(sys.mode))
    return AuxMatrix(
        aux.kind, aux.index, PolyMatrix(grid), block_transposed=not aux.block_transposed
    )


@dataclass(frozen=True)
class _Step:
    """One chain step, x -> left * x * right.  Both matrices equal the
    identity outside `lines`: the rows of left and the columns of right in
    block rows and columns i and i+1."""

    left: AuxMatrix
    right: AuxMatrix
    lines: range


def _apply_step(step, x):
    """step.left * x * step.right by the product kernel
    (`PolyMatrix._product`), but only for the rows of x in `step.lines`,
    then only for those columns of every row; every other entry is kept as
    it is."""
    lo, hi = step.lines.start, step.lines.stop
    rows = list(x.entries)
    rows[lo:hi] = step.left.matrix._product(x, step.lines, range(x.cols))
    cols = PolyMatrix._trusted(tuple(rows))._product(step.right.matrix, range(x.rows), step.lines)
    return PolyMatrix._trusted(tuple([row[:lo] + new + row[hi:] for row, new in zip(rows, cols)]))


class _SystemPieces:
    """The sigma-independent pieces of the certificates of one system, each
    built on first use by the public function that defines it and kept in
    the system's memo."""

    def __init__(self, sys):
        self.sys = sys

    def aux(self, kind, i):
        return self.sys.memo(("aux", kind, i), lambda: aux_matrix(self.sys, kind, i))

    def step(self, i, consecution):
        """Step i: (left, right) is (Q_i^B, R_i) after a consecution,
        (R_i^B, Q_i) after an inversion; both equal the identity outside
        block rows and columns i and i+1."""

        def build():
            q, rr = self.aux("Q", i), self.aux("R", i)
            lines = range((i - 1) * self.sys.n, (i + 1) * self.sys.n)
            if consecution:
                return _Step(aux_block_transpose(q, self.sys), rr, lines)
            return _Step(aux_block_transpose(rr, self.sys), q, lines)

        return self.sys.memo(("step", i, consecution), build)

    def pencil(self, sigma, j):
        """intermediate_pencil(sys, sigma, j), laid out in one pass; it
        depends on sigma only through the order of the factors it keeps."""
        kept = tuple([i for i in sigma.inverse_order if i <= self.sys.m - j])
        return self.sys.memo(("pencil", kept), lambda: intermediate_pencil(self.sys, sigma, j))

    def chain_tail(self, sigma, flags):
        """Verdict of steps 2..m-1 once step 1 has produced pencil(sigma, 2):
        None, or (step, first differing entry) of the first step whose
        product deviates from its intermediate pencil.  It depends on sigma
        only through the order of the factors 0..m-2 kept at step 2, which
        also fixes the flags of steps 2..m-1 (consecutions at 0..m-3)."""
        kept = tuple([i for i in sigma.inverse_order if i <= self.sys.m - 2])

        def build():
            x = self.pencil(sigma, 2)
            for i in range(2, self.sys.m):
                x = _apply_step(self.step(i, flags[i - 1]), x)
                pos = _deviation(x, self.pencil(sigma, i + 1))
                if pos is not None:
                    return i, pos
            return None

        return self.sys.memo(("chain", kept), build)

    def transforms(self, flags):
        """(U, V) for the consecution flags of steps 1..m-1."""

        def build():
            steps = [self.step(i, c) for i, c in enumerate(flags, start=1)]
            u = reduce(PolyMatrix.__mul__, [s.left.matrix for s in reversed(steps)])
            return u, reduce(PolyMatrix.__mul__, [s.right.matrix for s in steps])

        return self.sys.memo(("transforms", flags), build)

    def target(self):
        return self.sys.memo(("target",), lambda: _target(self.sys))

    def residual(self, sigma):
        """pencil(sigma, m) - target: the last intermediate pencil keeps only
        M_0, so this is the same for every sigma."""
        return self.sys.memo(
            ("residual",), lambda: self.pencil(sigma, self.sys.m) - self.target()
        )


def aux_relations_check(sys, i):
    """Exact verification of the coupling identities at index i.

    (a) Q_i^B (lam D_i) R_i = lam D_{i+1} + T_i and the factor version,
    (b) the R/Q swapped identities, (c) T_i absorbs every factor with index
    at most m-i-2 from either side (vacuously true when none exist).
    """
    _require_exact(sys)
    m = sys.m
    if not 1 <= i <= m - 1:
        raise ValueError(f"relation index {i} out of range 1..{m - 1}")
    lam = Poly.lam()

    def factor(k):
        return PolyMatrix.from_scalar_grid(make_factor(sys, k).matrix, sys.mode)

    q = aux_matrix(sys, "Q", i)
    rr = aux_matrix(sys, "R", i)
    t = aux_matrix(sys, "T", i)
    d = aux_matrix(sys, "D", i)
    d_next = aux_matrix(sys, "D", i + 1)
    qb = aux_block_transpose(q, sys).matrix
    rb = aux_block_transpose(rr, sys).matrix
    tb = aux_block_transpose(t, sys).matrix
    lam_d = d.matrix.scale(lam)
    lam_d_next = d_next.matrix.scale(lam)
    failures = []

    if qb * lam_d * rr.matrix != lam_d_next + t.matrix:
        failures.append(f"(a) Q{i}^B (lam D{i}) R{i} != lam D{i + 1} + T{i}")
    lo = factor(m - (i + 1))
    hi = factor(m - i)
    if qb * (lo * hi) * rr.matrix != lo + t.matrix:
        failures.append(f"(a) Q{i}^B (M{m - i - 1} M{m - i}) R{i} != M{m - i - 1} + T{i}")
    if rb * lam_d * q.matrix != lam_d_next + tb:
        failures.append(f"(b) R{i}^B (lam D{i}) Q{i} != lam D{i + 1} + T{i}^B")
    if rb * (hi * lo) * q.matrix != lo + tb:
        failures.append(f"(b) R{i}^B (M{m - i} M{m - i - 1}) Q{i} != M{m - i - 1} + T{i}^B")
    for j in range(0, m - i - 1):
        fj = factor(j)
        if t.matrix * fj != t.matrix or fj * t.matrix != t.matrix:
            failures.append(f"(c) T{i} M{j} = M{j} T{i} = T{i} fails")
        if tb * fj != tb or fj * tb != tb:
            failures.append(f"(c) T{i}^B M{j} = M{j} T{i}^B = T{i}^B fails")
    return AuxRelationsReport(tuple(failures))


def intermediate_pencil(sys, sigma, j):
    """lam * D_j - M_sigma^(j), M_sigma^(j) the product of the factors with
    index <= m - j in their order in sigma, spliced like Algorithm 1
    (`fiedler._spliced_product`).  Each entry is built once, as the Poly
    (-p, d_0, d_1, ...) of the product's entry p and D_j's coefficients d_k.
    j=1 gives the Fiedler pencil itself, j=m diag(-I_{(m-1)n}, S(lam))."""
    _require_exact(sys)
    m = sys.m
    if not 1 <= j <= m:
        raise ValueError(f"intermediate index {j} out of range 1..{m}")
    d = _SystemPieces(sys).aux("D", j).matrix.entries
    return PolyMatrix._trusted(tuple([
        tuple([Poly._trusted((-p, *e.coeffs), EXACT) for p, e in zip(prow, drow)])
        for prow, drow in zip(_spliced_product(sys, sigma, m - j)[0], d)
    ]))


def _target(sys):
    """diag(-I_{(m-1)n}, S(lam)) as one PolyMatrix: S laid out at block m."""
    minus_eye = _diag(Poly.constant(-1, sys.mode), sys.n)
    blocks = {(k, k): minus_eye for k in range(1, sys.m)}
    return PolyMatrix(_system_layout(sys, sys.m, blocks))


@dataclass(frozen=True)
class EquivalenceCertificate:
    """Unimodular transforms with U * pencil * V = diag(-I, S(lam)).

    u_factors and v_factors list the constituent auxiliary matrices in
    product order (left to right); each item is (kind, index,
    block_transposed).  U and V are multiplied out on first read, once per
    system and consecution pattern.
    """

    u_factors: tuple
    v_factors: tuple
    residual: PolyMatrix
    target: PolyMatrix
    _pieces: _SystemPieces = field(repr=False, compare=False)
    _flags: tuple = field(repr=False, compare=False)

    @property
    def U(self):
        return self._pieces.transforms(self._flags)[0]

    @property
    def V(self):
        return self._pieces.transforms(self._flags)[1]

    @property
    def residual_zero(self):
        return self.residual.is_zero_matrix()


def _first_nonzero(matrix):
    for i, row in enumerate(matrix.entries):
        for j, e in enumerate(row):
            if not e.is_zero:
                return i, j, e
    return None


def _deviation(x, expected):
    """None if x == expected, else the first entry of x - expected that is
    nonzero (the difference is formed only then)."""
    return None if x == expected else _first_nonzero(x - expected)


def _consecution_flags(sigma):
    """Consecution flags of steps 1..m-1: step i follows sigma at m-i-1."""
    m = sigma.m
    return tuple([sigma.has_consecution_at(m - i - 1) for i in range(1, m)])


def build_certificate(sys, sigma, pencil=None):
    """Construct and verify the equivalence certificate for one bijection.

    The consecution/inversion pattern selects Q- or R-type factors for each
    of the m-1 steps; each intermediate product must equal the closed-form
    intermediate pencil, and the residual, the last product
    L_{m-1}...L_1 * pencil * R_1...R_{m-1} = U * pencil * V minus
    diag(-I_{(m-1)n}, S(lam)), must vanish.  A mismatch raises
    CertificateError with the first differing entry; a forged pencil is
    never silently accepted.  `pencil` defaults to the spliced pencil of
    sigma; a pencil whose (n, r, m) differs from the system's raises
    ValueError.  Only step 1 is applied to the pencil: once its result equals
    the intermediate pencil, the verdict of the later steps and the
    residual come from the per-system memo, which also holds every other
    sigma-independent piece.
    """
    _require_exact(sys)
    m = sys.m
    if m < 2:
        raise ValueError("certificates need degree m >= 2")
    if sigma.m != m:
        raise ValueError("bijection length does not match the system degree")
    if pencil is None:
        pencil = pencil_algorithm1(sys, sigma)
    elif (pencil.n, pencil.r, pencil.m) != (sys.n, sys.r, m):
        raise ValueError(
            "pencil dimensions do not match the system: (n, r, m) = "
            f"{(pencil.n, pencil.r, pencil.m)} for the pencil, "
            f"{(sys.n, sys.r, m)} for the system"
        )
    pieces = _SystemPieces(sys)

    flags = _consecution_flags(sigma)
    steps = [pieces.step(i, c) for i, c in enumerate(flags, start=1)]
    x = _apply_step(steps[0], pencil.as_poly_matrix())
    pos = _deviation(x, pieces.pencil(sigma, 2))
    failure = (1, pos) if pos is not None else pieces.chain_tail(sigma, flags)
    if failure is not None:
        i, pos = failure
        raise CertificateError(
            f"step {i} product deviates from the intermediate pencil "
            f"at entry {pos[:2]}: {pos[2]!r}",
            position=pos[:2],
        )

    residual = pieces.residual(sigma)
    cert = EquivalenceCertificate(
        u_factors=tuple(
            [(s.left.kind, s.left.index, s.left.block_transposed) for s in reversed(steps)]
        ),
        v_factors=tuple([(s.right.kind, s.right.index, s.right.block_transposed) for s in steps]),
        residual=residual,
        target=pieces.target(),
        _pieces=pieces,
        _flags=flags,
    )
    if not cert.residual_zero:
        pos = _first_nonzero(residual)
        raise CertificateError(
            f"certificate residual is nonzero at entry {pos[:2]}: {pos[2]!r}",
            position=pos[:2],
        )
    return cert


def verify_rosenbrock_linearization(sys, sigma, pencil=None):
    """True iff the certificate builds: every chain step matches its
    intermediate pencil and the residual vanishes.  That U and V are then
    unimodular with the system-equivalence shape diag(*, I_r) holds for
    every system by construction; the tier-1 property
    `test_step_matrices_fix_unimodularity_and_the_state_block` proves it."""
    try:
        build_certificate(sys, sigma, pencil=pencil)
    except CertificateError:
        return False
    return True
