"""A fixed corpus of seeded in-process CLI runs, for byte-identity checks.

Each run prints one line: the command (input named by its corpus name), the
exit code and the sha256 of stdout.  Two checkouts give the same output
exactly when every run's bytes agree, so comparing a change with its parent
is a diff of two runs of this script:

    PYTHONPATH=src python tests/cli_corpus.py > head.txt
    PYTHONPATH=/path/to/parent/src python tests/cli_corpus.py > parent.txt
    diff parent.txt head.txt

The corpus covers `build` (exact and float), `zeros` (exact, numeric, and
numeric on float input) on `rand_system` systems with m = 1..4, most of them
with irrational zeros, one with B = 0 and one with C = 0, on `rand_rep_spec`
specs with n = 1..3 and on the hand-written specs, `verify --all`, `realize`
and `smith`, also on non-square, rank-deficient and zero-row polynomial
matrices and on two diagonals that are no divisibility chain.  Float
systems whose zero entries carry a sign (m = 1..3, one with r = 0) pin the
signed zeros of float `build` and numeric `zeros`.
Two systems with planted zeros pin exact and numeric `zeros` on a repeated
rational zero with a denominator and on a zero on a pole, and `ciss` runs on
identity, reversed and mixed sigma for m = 1..5 and on an invalid sigma.
`verify --sigma ... --pencil` runs on forged
pencils pin each failure's message and position, one `verify --all
--jobs 2` run pins the worker path, and one `verify --all` run on an m = 5
system (120 sigma) pins degree-5 intermediate pencils.  The name does not
match pytest's `test_*.py`, so the suite does not collect it.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

from _helpers import desk1_spec, eigenpole_index_system, exnoevl_spec, rand_rep_spec, rand_system
from test_golden import DESK1, HAND_SPECS, _rationalise
from test_polymat import NON_CHAIN_DIAGONALS

from rosepen import io as rio
from rosepen._linalg import freeze
from rosepen.cli import main
from rosepen.fiedler import Bijection, SystemPencil, pencil_algorithm1
from rosepen.polymat import Poly, PolyMatrix


def systems():
    """name -> system document: two seeds of every (1, r, m) and one of
    every (2, r, m), r = 0..3, m = 1..4, plus p/q variants of every third,
    and one (2, 2, 2) system each with B = 0 and with C = 0."""
    docs = {"desk1": DESK1, "eigenpole": rio.encode_system(eigenpole_index_system())}
    for n, seeds in ((1, 2), (2, 1)):
        for m in range(1, 5):
            for r in range(4):
                for s in range(seeds):
                    seed = 1000 * n + 100 * m + 10 * r + s
                    sys_ = rand_system(random.Random(seed), n, r, m)
                    docs[f"sys-n{n}r{r}m{m}-{seed}"] = rio.encode_system(sys_)
    for k, name in enumerate(list(docs)[2::3]):
        docs[name + "q"] = _rationalise(docs[name], k)
    # B = 0: every state is an input-decoupling zero and G = P
    b0 = rio.encode_system(rand_system(random.Random(2230), 2, 2, 2))
    docs["sys-n2r2m2-b0"] = {**b0, "B": [[0, 0], [0, 0]]}
    # C = 0: every state is an output-decoupling zero and G = P
    c0 = rio.encode_system(rand_system(random.Random(2240), 2, 2, 2))
    docs["sys-n2r2m2-c0"] = {**c0, "C": [[0, 0], [0, 0]]}
    return docs


def signed_zero_systems():
    """name -> float system document with entries in {-1, 0, 1}, each zero
    entry of P, A, E, B and C written 0.0 or -0.0 by a coin toss:
    (n, r, m) = (1, 1, 1), (2, 0, 2) and (2, 2, 3)."""
    rng = random.Random(2600)

    def signed(x):
        if isinstance(x, list):
            return [signed(y) for y in x]
        return float(x) if x or rng.random() < 0.5 else -0.0

    docs = {}
    for n, r, m in ((1, 1, 1), (2, 0, 2), (2, 2, 3)):
        seed = 2600 + 100 * m + 10 * r + n
        doc = rio.encode_system(rand_system(random.Random(seed), n, r, m, lo=-1, hi=1))
        docs[f"sys-float-n{n}r{r}m{m}-{seed}"] = {k: signed(doc[k]) for k in "PAEBC"}
    return docs


def specs():
    """name -> REP spec document: `rand_rep_spec` over n = 1, 2 (two seeds)
    and n = 3 (one seed), one to three terms and deg P up to 1..3, and the
    hand-written specs."""
    docs = {
        "desk1-spec": rio.encode_rep_spec(desk1_spec()),
        "exnoevl-spec": rio.encode_rep_spec(exnoevl_spec()),
        **HAND_SPECS,
    }
    for n in (1, 2, 3):
        for terms in (1, 2, 3):
            for deg in (1, 2, 3):
                for s in range(2 if n < 3 else 1):
                    seed = 5000 + 1000 * n + 100 * terms + 10 * deg + s
                    spec = rand_rep_spec(random.Random(seed), n, terms, deg)
                    docs[f"spec-n{n}t{terms}d{deg}-{seed}"] = rio.encode_rep_spec(spec)
    return docs


def poly_matrices():
    """name -> polynomial-matrix document for `smith`: 2 x 3, 3 x 2, a
    3 x 3 of rank 2 (its last row is a polynomial combination of the
    others) and a 3 x 3 with a zero row.  One row or column of each is
    scaled by a fixed polynomial, so each form has an invariant factor.
    Two diagonals whose entries are no divisibility chain, diag(lam,
    lam + 1) and diag(lam - 1, lam + 2, (lam - 1)(lam + 2)), reach their
    form only through the divisibility sweep of a non-constant pivot."""
    rng = random.Random(2500)

    def poly():
        return Poly([Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(rng.randint(0, 3))])

    def rows(h, w, scaled, f):
        g = [[poly() for _ in range(w)] for _ in range(h)]
        g[scaled] = [f * x for x in g[scaled]]
        return g

    wide = rows(2, 3, 1, Poly([-2, 0, 1]))
    tall = [list(col) for col in zip(*rows(2, 3, 1, Poly([1, 2, 1])))]
    top = rows(2, 3, 0, Poly([-3, 1]))
    p, q = poly(), poly()
    rank2 = top + [[p * a + q * b for a, b in zip(*top)]]
    zero_row = rows(3, 3, 2, Poly([1, 0, 1]))
    zero_row[1] = [Poly.zero()] * 3
    grids = {"2x3": wide, "3x2": tall, "rank2": rank2, "zero-row": zero_row}
    for name, (diagonal, _) in NON_CHAIN_DIAGONALS.items():
        k = len(diagonal)
        grids[name] = [[diagonal[i] if i == j else Poly.zero() for j in range(k)] for i in range(k)]
    return {f"pm-{k}": rio.encode_poly_matrix(PolyMatrix(g)) for k, g in grids.items()}


def planted_systems():
    """name -> system document with planted rational zeros: r = 0 and
    P = diag(lam^3 (3 lam - 2)^2, lam^2 - 2), and r = 1 with
    P = diag(lam, (lam - 3)(2 lam - 1)^2), A = 3, E = 1 and the state
    coupled to the first channel only, so det S has the double zero 1/2,
    an irrational pair and the zero 3 on the pole 3."""
    return {
        "sys-planted-r0": {
            "P": [[[0, 0, 0, 4, -12, 9], [0]], [[0], [-2, 0, 1]]],
            "A": [],
            "E": [],
            "B": [],
            "C": [[], []],
        },
        "sys-planted-r1": {
            "P": [[[0, 1], [0]], [[0], [-3, 13, -16, 4]]],
            "A": [[3]],
            "E": [[1]],
            "B": [[1, 0]],
            "C": [[1], [0]],
        },
    }


def sigmas():
    """The sigma of every `ciss` run: for m = 1..5 the identity, its
    reverse and the mixed order with neighbours swapped in pairs (1,0,3,2,
    ...), each once, and the invalid 0,2."""
    out = []
    for m in range(1, 6):
        mixed = [i ^ 1 if i ^ 1 < m else i for i in range(m)]
        out += [list(range(m)), list(range(m))[::-1], mixed]
    return list(dict.fromkeys(",".join(map(str, s)) for s in out)) + ["0,2"]


def forged(doc, order, where):
    """The spliced pencil of `order` for the system `doc`, with 1 added to
    one constant entry: in block row 1 (rows that step 1 of the certificate
    changes), in block row 3 (rows it leaves as they are) or in the state
    corner."""
    sys_ = rio.decode_system(doc)
    pencil = pencil_algorithm1(sys_, Bijection(order))
    n, nm = sys_.n, sys_.n * sys_.m
    a, b = {"step1": (0, n), "outside": (2 * n, 2 * n), "state": (nm, nm)}[where]
    const = [list(row) for row in pencil.const_term]
    const[a][b] += 1
    return rio.encode_pencil(
        SystemPencil(
            pencil.lead,
            freeze(const),
            pencil.n,
            pencil.r,
            pencil.m,
            pencil.b_row_block,
            pencil.c_col_block,
        )
    )


def commands():
    """(input name, document, argv after the input, pencil document or
    None) for every run."""
    out = []
    docs = systems()
    for name, doc in docs.items():
        m = max(len(entry) for row in doc["P"] for entry in row) - 1
        out += [
            (name, doc, ["build"], None),
            (name, doc, ["build", "--mode", "float"], None),
            (name, doc, ["zeros"], None),
            (name, doc, ["zeros", "--backend", "numeric"], None),
            (name, doc, ["zeros", "--mode", "float", "--backend", "numeric"], None),
            (name, doc, ["smith"], None),
        ]
        if m >= 2:
            sigma = ",".join(str(i) for i in [1, 0, *range(2, m)])
            out += [
                (name, doc, ["verify", "--all"], None),
                (name, doc, ["zeros", "--sigma", sigma], None),
                (name, doc, ["build", "--sigma", sigma], None),
            ]
    for name, order in (("sys-n2r1m3-2310", (1, 0, 2)), ("sys-n2r2m4-2420", (2, 0, 1, 3))):
        sigma = ",".join(map(str, order))
        for where in ("step1", "outside", "state"):
            pencil = forged(docs[name], order, where)
            out.append((name, docs[name], ["verify", "--sigma", sigma, "--pencil", where], pencil))
    out.append(("sys-n2r2m4-2420", docs["sys-n2r2m4-2420"], ["verify", "--all", "--jobs", "2"], None))
    # m = 5, past the systems above: degree-5 entries of lam*D_j
    m5 = rio.encode_system(rand_system(random.Random(1152), 2, 1, 5))
    out.append(("sys-n2r1m5-1152", m5, ["verify", "--all"], None))
    for name, doc in signed_zero_systems().items():
        m = max(len(entry) for row in doc["P"] for entry in row) - 1
        out += [
            (name, doc, ["build", "--mode", "float"], None),
            (name, doc, ["zeros", "--mode", "float", "--backend", "numeric"], None),
        ]
        if m >= 2:
            sigma = ",".join(str(i) for i in [1, 0, *range(2, m)])
            out.append((name, doc, ["build", "--mode", "float", "--sigma", sigma], None))
    for name, doc in poly_matrices().items():
        out.append((name, doc, ["smith"], None))
    for name, doc in planted_systems().items():
        out += [
            (name, doc, ["zeros"], None),
            (name, doc, ["zeros", "--backend", "numeric"], None),
        ]
    out += [(None, None, ["ciss", "--sigma", sigma], None) for sigma in sigmas()]
    for name, doc in specs().items():
        out += [
            (name, doc, ["realize"], None),
            (name, doc, ["zeros"], None),
            (name, doc, ["zeros", "--backend", "numeric"], None),
            (name, doc, ["zeros", "--mode", "float", "--backend", "numeric"], None),
            (name, doc, ["zeros", "--sigma", "1,0"], None),
        ]
    return out


def run(tmp, name, doc, argv, pencil=None):
    """Exit code and the sha256 of stdout of `rosepen <argv[0]> --input
    <doc> <argv[1:]>`, or of `rosepen <argv>` when `doc` is None; with a
    `pencil` document, the argument after `--pencil` names it and is
    replaced by the path it is written to."""
    args = list(argv)
    if doc is not None:
        path = Path(tmp) / f"{name}.json"
        path.write_text(json.dumps(doc))
        args[1:1] = ["--input", str(path)]
    if pencil is not None:
        ppath = Path(tmp) / f"{name}-pencil.json"
        ppath.write_text(json.dumps(pencil))
        args[args.index("--pencil") + 1] = str(ppath)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(args)
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc, argv, pencil in commands():
            code, digest = run(tmp, name, doc, argv, pencil)
            cmd = " ".join(argv if doc is None else [argv[0], "--input", name, *argv[1:]])
            sys.stdout.write(f"{cmd} {code} {digest}\n")
