"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` and returns a JSON document in
the CLI's input schema: polynomials are ascending coefficient arrays and
exact scalars are integers.  Nothing here imports the library or the test
suite, so neither a test edit nor a library change can alter a workload:
the same seed always yields the same documents.

A workload is a list of *classes*, each a (label, count, maker) triple.
One *round* draws ``count`` fresh documents from every class, so every
round has the same class mix and each request gets its own input.
"""

from __future__ import annotations

import random
from fractions import Fraction


def rand_grid(rng, rows, cols, lo=-3, hi=3):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def frac_det(grid):
    """Exact determinant of a square grid of rationals (Gaussian elimination)."""
    w = [[Fraction(x) for x in row] for row in grid]
    n = len(w)
    out = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if w[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            w[k], w[piv] = w[piv], w[k]
            out = -out
        out *= w[k][k]
        inv = 1 / w[k][k]
        for i in range(k + 1, n):
            f = w[i][k] * inv
            if f:
                w[i] = [a - f * b for a, b in zip(w[i], w[k])]
    return out


def frac_rank(grid):
    """Exact rank of a grid of rationals."""
    w = [[Fraction(x) for x in row] for row in grid]
    rank = 0
    for c in range(len(w[0]) if w else 0):
        piv = next((i for i in range(rank, len(w)) if w[i][c] != 0), None)
        if piv is None:
            continue
        w[rank], w[piv] = w[piv], w[rank]
        for i in range(rank + 1, len(w)):
            f = w[i][c] / w[rank][c]
            w[i] = [a - f * b for a, b in zip(w[i], w[rank])]
        rank += 1
    return rank


def _poly_matrix_from_grids(grids):
    """Coefficient grids A_0..A_m -> nested array of ascending coefficients."""
    n = len(grids[0])
    return [[[g[i][j] for g in grids] for j in range(n)] for i in range(n)]


def system_doc(rng, n, r, m):
    """Random exact system: entries in [-3, 3], deg P = m, E nonsingular."""
    while True:
        grids = [rand_grid(rng, n, n) for _ in range(m + 1)]
        if all(x == 0 for row in grids[m] for x in row):
            continue
        e = rand_grid(rng, r, r)
        if frac_det(e) == 0:
            continue
        return {
            "P": _poly_matrix_from_grids(grids),
            "A": rand_grid(rng, r, r),
            "E": e,
            "B": rand_grid(rng, r, n),
            "C": rand_grid(rng, n, r),
        }


def rep_spec_doc(rng, n, ranks, poly_degree):
    """Random simple-pole REP spec G = P + sum_j s_j C_j.

    P has degree exactly ``poly_degree`` with entries in [-3, 3].  There is
    one term per entry of ``ranks``; the terms sit at distinct integer poles
    in [-6, 6] with s_j = (c0 + c1 lam) / (lam - p_j), c1 in {0, 1}, and a
    numerator that does not cancel the pole.  C_j has entries in [-2, 2]
    and rank ``ranks[j]``, so the realization has r = sum(ranks) states:
    r sets most of a request's cost, and fixing it keeps the cost of a
    class steady from seed to seed.
    """
    while True:
        grids = [rand_grid(rng, n, n) for _ in range(poly_degree + 1)]
        if any(x for row in grids[poly_degree] for x in row):
            break
    terms = []
    for pole, rank in zip(rng.sample(range(-6, 7), len(ranks)), ranks):
        while True:
            mat = rand_grid(rng, n, n, -2, 2)
            if frac_rank(mat) == rank:
                break
        while True:
            num = [rng.randint(-3, 3), rng.choice([0, 1])]
            # a numerator lam - p would cancel the pole
            if num != [0, 0] and num != [-pole, 1]:
                break
        if num[1] == 0:
            num.pop()
        terms.append({"num": num, "den": [-pole, 1], "matrix": mat})
    return {"P": _poly_matrix_from_grids(grids), "terms": terms}


def _system_maker(n, r, m):
    return lambda rng: system_doc(rng, n, r, m)


def _rep_maker(n, ranks, poly_degree):
    return lambda rng: rep_spec_doc(rng, n, ranks, poly_degree)


def _ladder():
    # (n, r, m) -> pencil size N = n*m + r of 8, 15, 24 and 42.  The counts
    # put the median request inside the N=15 class and the 90th percentile
    # inside the N=24 class, away from the class boundaries.
    sizes = ((2, 2, 3, 6), (3, 3, 4, 5), (4, 4, 5, 3), (6, 6, 6, 1))
    return [
        (f"N={n * m + r}", count, _system_maker(n, r, m)) for n, r, m, count in sizes
    ]


def _exact_rep():
    # (n, term ranks, deg P): 2-4 terms, r = 3..7.  Larger n = 3 specs cost
    # 1-4 s a request, which would leave fewer than 100 requests in a run.
    shapes = [
        (2, ranks, d)
        for ranks in ((1, 2), (1, 2, 2), (1, 1, 2, 2))
        for d in (1, 2, 3)
    ]
    shapes += [(3, (1, 2), d) for d in (1, 2, 3)]
    return [
        (f"n={n},ranks={'+'.join(map(str, ranks))},deg={d}", 1, _rep_maker(n, ranks, d))
        for n, ranks, d in shapes
    ]


def _verify_sweep():
    # (n, r, m) with m! bijections per request: 6, 6 and 24.  The median
    # request falls in the (2,2,3) class and the 90th percentile in (1,1,4).
    sizes = ((1, 1, 3, 2), (2, 2, 3, 2), (1, 1, 4, 1))
    return [
        (f"({n},{r},{m})", count, _system_maker(n, r, m)) for n, r, m, count in sizes
    ]


WORKLOADS = {
    "zeros-numeric-ladder": {
        "argv": ["zeros", "--backend", "numeric"],
        "classes": _ladder,
    },
    "zeros-exact-rep": {
        "argv": ["zeros"],
        "classes": _exact_rep,
    },
    "verify-sweep": {
        "argv": ["verify", "--all"],
        "classes": _verify_sweep,
    },
}


def make_round(name, seed, index):
    """The documents of round ``index`` for workload ``name``.

    Each round has its own generator, derived from (seed, index), so round k
    is the same whatever rounds ran before it.
    """
    rng = random.Random(f"{name}/{seed}/{index}")
    out = []
    for label, count, maker in WORKLOADS[name]["classes"]():
        for _ in range(count):
            out.append((label, maker(rng)))
    return out
