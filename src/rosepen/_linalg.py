"""Dense constant-matrix helpers shared by the higher level modules.

Grids are tuples of tuple rows.  Entries are `fractions.Fraction` in exact
mode and `float` in float mode; nothing here ever mixes the two.  numpy and
scipy only enter through the float-mode helpers (rank and QZ, `qz_eig`, the
one route to `scipy.linalg.eig`); all exact work stays in pure Python so
equality is decidable.

`embed` is the one layout of every (nm + r)-square structured matrix of the
construction, on scalar and `Poly` entries alike: the Fiedler factors and
their inverses, the spliced factor products of Algorithm 1 and of the
intermediate pencils, the step matrices and target of the equivalence chain,
and S(lam).  `embedded_block_transpose` is the block transpose of any of them.

Across the package a tuple is built from a list, ``tuple([... for ...])``,
never from a generator.  CPython sizes a tuple built from a generator at a
guess of ten and shrinks it, and each shrunk tuple freed stays on the
interpreter's free list of its size (up to 2000 per size), so a long-running
process's memory grows with the number of requests it has served.
"""

from __future__ import annotations

from fractions import Fraction

EXACT = "exact"
FLOAT = "float"


def coerce_scalar(x, mode):
    """x as an element of the field of `mode`: a `Fraction` in exact mode
    (a `Fraction` argument is returned as it is, since it is immutable),
    a `float` in float mode.  A float in exact mode is a ValueError."""
    if mode == EXACT:
        if type(x) is Fraction:
            return x
        if isinstance(x, float):
            raise ValueError("float scalar in exact mode")
        return Fraction(x)
    return float(x)


def freeze(grid):
    return tuple([tuple(row) for row in grid])


def coerce_grid(grid, mode):
    return tuple([tuple([coerce_scalar(x, mode) for x in row]) for row in grid])


def shape(grid):
    rows = len(grid)
    cols = len(grid[0]) if rows else 0
    if any(len(row) != cols for row in grid):
        raise ValueError("ragged rows in a grid")
    return rows, cols


def grid_mode(grid):
    for row in grid:
        for x in row:
            if isinstance(x, float):
                return FLOAT
    return EXACT


def zeros(rows, cols, mode=EXACT):
    z = coerce_scalar(0, mode)
    return tuple([tuple([z for _ in range(cols)]) for _ in range(rows)])


def eye(k, mode=EXACT):
    one = coerce_scalar(1, mode)
    z = coerce_scalar(0, mode)
    return tuple([tuple([one if i == j else z for j in range(k)]) for i in range(k)])


def neg(a):
    return tuple([tuple([-x for x in row]) for row in a])


def mul(a, b):
    """Matrix product of two grids; the inner dimensions must agree."""
    bt = tuple(zip(*b))
    return tuple(
        [tuple([sum(x * y for x, y in zip(row, col)) for col in bt]) for row in a]
    )


def eq(a, b):
    return shape(a) == shape(b) and all(
        x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


def is_zero(a):
    return all(x == 0 for row in a for x in row)


def embed(n, m, blocks, corner, zero, c_col=None, b_row=None):
    """The (nm + r)-square grid, r = len(corner), holding `blocks` and the
    state corner, with `zero` everywhere else.

    `blocks` maps 1-based block positions (bi, bj) to grids placed with
    their top-left entry at the top-left of that block; a grid larger than
    n x n spans the blocks after it.  `corner` is the r x r state block.
    `c_col` = (bi, C) puts the n x r grid C in block row bi of the state
    columns, and `b_row` = (bj, B) the r x n grid B in block column bj of
    the state rows.  Entries are copied as they are, so the same layout
    serves scalar and `Poly` grids.
    """
    nm = n * m
    size = nm + len(corner)
    out = [[zero] * size for _ in range(size)]
    placed = [((bi - 1) * n, (bj - 1) * n, grid) for (bi, bj), grid in blocks.items()]
    placed.append((nm, nm, corner))
    if c_col is not None:
        placed.append(((c_col[0] - 1) * n, nm, c_col[1]))
    if b_row is not None:
        placed.append((nm, (b_row[0] - 1) * n, b_row[1]))
    for top, left, grid in placed:
        for a, row in enumerate(grid):
            out[top + a][left : left + len(row)] = row
    return freeze(out)


def embedded_block_transpose(grid, n, m, b_row, c_col, zero):
    """The system block transpose of an `embed` layout whose B-row sits in
    block column `b_row` and whose C-column in block row `c_col`: block
    (bi, bj) of the nm part moves to (bj, bi) as it is, the state corner
    stays, the C-column moves to block row `b_row` and the B-row to block
    column `c_col`.  Entries outside those places are not read."""
    nm = n * m

    def block_row(bi):
        return grid[(bi - 1) * n : bi * n]

    def block_col(rows, bj):
        return [row[(bj - 1) * n : bj * n] for row in rows]

    ks = range(1, m + 1)
    blocks = {(bj, bi): block_col(block_row(bi), bj) for bi in ks for bj in ks}
    corner = [row[nm:] for row in grid[nm:]]
    c_grid = [row[nm:] for row in block_row(c_col)]
    return embed(n, m, blocks, corner, zero, (b_row, c_grid), (c_col, block_col(grid[nm:], b_row)))


def _exact_div(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return a // b
    return a / b


def det(a):
    """Exact determinant by fraction-free (Bareiss) elimination.

    Works over integers and rationals alike.  Integer-valued input is
    demoted to Python ints first and eliminated without any Fraction;
    `polymat.poly_matrix_det` hands over integer samples, so it always
    takes this path.
    """
    n = len(a)
    if n == 0:
        return Fraction(1)
    w = [list(row) for row in a]
    if all(
        isinstance(x, int) or (isinstance(x, Fraction) and x.denominator == 1)
        for row in w
        for x in row
    ):
        w = [[int(x) for x in row] for row in w]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if w[k][k] == 0:
            for i in range(k + 1, n):
                if w[i][k] != 0:
                    w[k], w[i] = w[i], w[k]
                    sign = -sign
                    break
            else:
                return 0 * w[0][0]
        pivot = w[k][k]
        for i in range(k + 1, n):
            wik = w[i][k]
            for j in range(k + 1, n):
                w[i][j] = _exact_div(w[i][j] * pivot - wik * w[k][j], prev)
            w[i][k] = 0
        prev = pivot
    return sign * w[n - 1][n - 1]


def rank(a):
    """Exact rank over the rationals: the pivot count of the RREF."""
    return len(rref(a)[1])


def rref(a):
    """Reduced row echelon form; returns (rref grid, pivot column indices)."""
    rows, cols = shape(a)
    w = [[Fraction(x) for x in row] for row in a]
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if w[i][c] != 0), None)
        if piv is None:
            continue
        w[r], w[piv] = w[piv], w[r]
        inv = 1 / w[r][c]
        w[r] = [x * inv for x in w[r]]
        for i in range(rows):
            if i != r and w[i][c] != 0:
                f = w[i][c]
                w[i] = [x - f * y for x, y in zip(w[i], w[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return freeze(w), tuple(pivots)


class ConvergenceError(ArithmeticError):
    """LAPACK's QZ iteration did not converge on a float pencil."""


def qz_eig(a, b, homogeneous=False):
    """Generalized eigenvalues of the float pencil (a, b) by QZ
    (`scipy.linalg.eig`): the values, or the (alpha, beta) pair arrays when
    `homogeneous`.  Raises ConvergenceError, not numpy's LinAlgError, when
    the iteration fails, as it can on entries near the float range."""
    import numpy as np
    import scipy.linalg

    try:
        return scipy.linalg.eig(a, b, right=False, homogeneous_eigvals=homogeneous)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(str(exc)) from exc


def to_float_array(a):
    import numpy as np

    return np.array([[float(x) for x in row] for row in a], dtype=float)


def rank_float(a):
    """Numerical rank: singular values below max(dims) * eps * sigma_1 count
    as zero (eps = 2**-52)."""
    import numpy as np

    m = to_float_array(a)
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int((s > max(m.shape) * 2.0 ** -52 * s[0]).sum())
