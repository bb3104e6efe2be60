"""Golden CLI bytes: the sha256 of stdout and the exit code of fixed commands
on small seeded inputs, so that "byte-identical output" is a test.

The recorded values live in golden_cli.json next to this file.  After an
intended change of output, rewrite it with

    PYTHONPATH=src:tests python tests/test_golden.py

The numeric backend is left out (LAPACK output differs between platforms),
and `zeros` runs only on inputs whose zeros are all rational, so no
companion-matrix root reaches the recorded bytes.
"""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from _helpers import rand_rep_spec, rand_system
from rosepen import io as rio
from rosepen.cli import main
from rosepen.fiedler import Bijection, pencil_direct

GOLDEN = Path(__file__).with_name("golden_cli.json")

# name -> (n, r, m, seed); N = nm + r <= 10
SYSTEMS = {
    "s112": (1, 1, 2, 1),
    "s113": (1, 1, 3, 2),
    "s212": (2, 1, 2, 3),
    "s223": (2, 2, 3, 4),
    "s103": (1, 0, 3, 5),
    "s114": (1, 1, 4, 6),
    "s132": (1, 3, 2, 7),
    "z112": (1, 1, 2, 107),
    "z103": (1, 0, 3, 129),
    "z212": (2, 1, 2, 349),
    "z122": (1, 2, 2, 181),
}
# name -> (n, number of terms, max deg P, seed)
SPECS = {
    "r122": (1, 2, 2, 11),
    "r221": (2, 2, 1, 12),
    "zr112": (1, 1, 2, 122),
    "zr221": (2, 2, 1, 425),
}
# hand-written REP specs: "nonmin" realizes to a non-minimal system (two
# terms on the pole 1); "dropz" has a zero-matrix term that realize drops
# with a warning, m = 2 and G = lam (lam - 2)(lam + 1) / (lam - 1)
HAND_SPECS = {
    "nonmin": {
        "P": [[[0, 1]]],
        "terms": [
            {"num": [1], "den": [-1, 1], "matrix": [[1]]},
            {"num": [2], "den": [-1, 1], "matrix": [[1]]},
        ],
    },
    "dropz": {
        "P": [[[-2, 0, 1]]],
        "terms": [
            {"num": [-2], "den": [-1, 1], "matrix": [[1]]},
            {"num": [1], "den": [-3, 1], "matrix": [[0]]},
        ],
    },
}
# inputs (seeds picked, or written by hand) whose exact zeros are all rational
ZEROS_INPUTS = ("z112", "z103", "z212", "z122", "zr112", "zr221", "dropz")
# --sigma is checked against the degree of the realized spec: zr112
# realizes with m = 1, so "0,1" is rejected there and accepted on dropz
ZEROS_SIGMA = (("zr112", "0,1"), ("dropz", "0,1"))

DESK1 = {"P": [[[0, 0, 1]]], "A": [[1]], "E": [[1]], "B": [[1]], "C": [[1]]}

# verify --pencil: (case id, system, --sigma, product order of the pencil,
# constant entry to forge or None); "forged" is the sigma's own pencil with
# one entry changed, "other" is the untouched pencil of another sigma
PENCIL_CASES = (
    ("verify-pencil-forged-s113", "s113", "1,0,2", (1, 0, 2), (0, 1)),
    ("verify-pencil-other-s114", "s114", "1,0,2,3", (2, 0, 1, 3), None),
)


def _rationalise(doc, seed):
    """Turn about a third of the nonzero integer scalars into p/q strings."""
    rng = random.Random(seed)

    def walk(x):
        if isinstance(x, list):
            return [walk(y) for y in x]
        if isinstance(x, dict):
            return {k: walk(v) for k, v in x.items()}
        if isinstance(x, int) and x and rng.random() < 0.35:
            q = rng.choice((2, 3, 5))
            f = Fraction(x, q)
            return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else int(f)
        return x

    return {k: v if k in ("n", "r", "m") else walk(v) for k, v in doc.items()}


def inputs():
    docs = {"desk1": DESK1}
    for name, (n, r, m, seed) in SYSTEMS.items():
        docs[name] = rio.encode_system(rand_system(random.Random(seed), n, r, m))
    for name, (n, terms, deg, seed) in SPECS.items():
        docs[name] = rio.encode_rep_spec(rand_rep_spec(random.Random(seed), n, terms, deg))
    docs.update(HAND_SPECS)
    for name in ("s212", "s223", "r221"):
        docs[name + "q"] = _rationalise(docs[name], len(name))
    return docs


def cases():
    """(case id, input name, argv after --input) for every recorded run."""
    out = []
    docs = inputs()
    for name in docs:
        base = name.rstrip("q")
        if base in SPECS or name in HAND_SPECS:
            out.append((f"realize-{name}", name, ["realize"]))
        else:
            m = 2 if name == "desk1" else SYSTEMS[base][2]
            out.append((f"build-{name}", name, ["build"]))
            out.append((f"build-float-{name}", name, ["build", "--mode", "float"]))
            sigma = ",".join(str(i) for i in ([1, 0] + list(range(2, m))))
            out.append((f"build-sigma-{name}", name, ["build", "--sigma", sigma]))
            out.append((f"smith-{name}", name, ["smith"]))
            out.append((f"verify-all-{name}", name, ["verify", "--all"]))
        if name in ZEROS_INPUTS:
            out.append((f"zeros-{name}", name, ["zeros"]))
    for name, sigma in ZEROS_SIGMA:
        out.append((f"zeros-sigma-{name}", name, ["zeros", "--sigma", sigma]))
    for case_id, name, sigma, order, forged in PENCIL_CASES:
        pencil = _pencil_doc(docs[name], order, forged)
        out.append((case_id, name, ["verify", "--sigma", sigma, "--pencil", pencil]))
    return out


def _pencil_doc(system_doc, order, forged):
    """The product-route pencil of `order` on the system, as JSON, with the
    constant entry at `forged` (if any) increased by one."""
    sys = rio.decode_system(system_doc)
    doc = rio.encode_pencil(pencil_direct(sys, Bijection(order)))
    if forged is not None:
        i, j = forged
        doc["const_term"][i][j] = rio.encode_scalar(
            rio.decode_scalar(doc["const_term"][i][j]) + 1
        )
    return doc


def run_case(tmp_dir, doc, argv):
    """Exit code and the sha256 of stdout of one CLI run on `doc`.  A dict
    in `argv` is a further JSON document, passed by the path it is written to."""
    path = Path(tmp_dir) / "input.json"
    path.write_text(json.dumps(doc))
    argv = list(argv)
    for k, arg in enumerate(argv):
        if isinstance(arg, dict):
            extra = Path(tmp_dir) / f"arg{k}.json"
            extra.write_text(json.dumps(arg))
            argv[k] = str(extra)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([argv[0], "--input", str(path), *argv[1:]])
    return {"exit": code, "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def docs():
    return inputs()


CASES = cases()


@pytest.mark.parametrize("case_id,name,argv", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(case_id, name, argv, golden, docs, tmp_path):
    assert run_case(tmp_path, docs[name], argv) == golden[case_id]


def test_golden_file_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(c[0] for c in CASES)


if __name__ == "__main__":
    import tempfile

    docs = inputs()
    with tempfile.TemporaryDirectory() as tmp:
        record = {cid: run_case(tmp, docs[name], argv) for cid, name, argv in CASES}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record)} cases to {GOLDEN}")
