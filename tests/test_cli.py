"""End-to-end command line behavior: schemas, exit codes, determinism."""

import argparse
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys as _sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cli_corpus
from _helpers import det_constant_oracle, exact_systems, rand_system, rep_specs
from rosepen import _linalg, cli, eigen, equivalence, fiedler, polymat, system
from rosepen import io as rio
from rosepen.cli import main
from rosepen.fiedler import Bijection, pencil_algorithm1, pencil_direct
from rosepen.polymat import poly_matrix_det
from rosepen.system import assemble_system_matrix

DESK1_JSON = {
    "P": [[[0, 0, 1]]],
    "A": [[1]],
    "E": [[1]],
    "B": [[1]],
    "C": [[1]],
}

M3_JSON = {"P": [[[1, 2, 0, 1]]], "A": [[3]], "E": [[1]], "B": [[2]], "C": [[1]]}

EXNOEVL_SPEC_JSON = {
    "P": [[[1], [0]], [[0], [1]]],
    "terms": [{"num": [1], "den": [-2, 1], "matrix": [[0, 1], [0, 0]]}],
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- build ---------------------------------------------------------------------

def test_build_with_sigma(tmp_path, capsys):
    path = write(tmp_path, "desk1.json", DESK1_JSON)
    code, out, _ = run(capsys, "build", "--input", path, "--sigma", "1,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["lead"] == [[1, 0, 0], [0, 1, 0], [0, 0, -1]]
    assert doc["const_term"] == [[0, 0, 1], [-1, 0, 0], [0, 1, 1]]
    assert doc["b_row_block"] == 2 and doc["c_col_block"] == 1
    assert doc["sigma_default"] is False


def test_build_defaults_to_first_companion(tmp_path, capsys):
    path = write(tmp_path, "desk1.json", DESK1_JSON)
    code, out, _ = run(capsys, "build", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["sigma"] == [1, 0] and doc["sigma_default"] is True


def test_build_rejects_non_permutation(tmp_path, capsys):
    path = write(tmp_path, "desk1.json", DESK1_JSON)
    code, _, err = run(capsys, "build", "--input", path, "--sigma", "0,0")
    assert code == 3 and "sigma" in err


def test_build_rejects_wrong_length_sigma(tmp_path, capsys):
    path = write(tmp_path, "desk1.json", DESK1_JSON)
    code, _, _ = run(capsys, "build", "--input", path, "--sigma", "0,1,2")
    assert code == 3


def test_build_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run(capsys, "build", "--input", str(bad))
    assert code == 2


# --- zeros ---------------------------------------------------------------------

def test_zeros_exnoevl_spec_reports_single_eigenpole(tmp_path, capsys):
    path = write(tmp_path, "spec.json", EXNOEVL_SPEC_JSON)
    code, out, _ = run(capsys, "zeros", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["minimal"] is True
    assert doc["zeros"] == [
        {"class": "eigenpole", "ind_phi": [0, 1], "ind_psi": [0, 1], "value": 2}
    ]
    assert doc["poles"][0]["value"] == 2


def test_zeros_desk1(tmp_path, capsys):
    path = write(tmp_path, "desk1.json", DESK1_JSON)
    code, out, _ = run(capsys, "zeros", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["zeros"]) == 3
    assert all(z["class"] == "eigenvalue" for z in doc["zeros"])
    assert [p["value"] for p in doc["poles"]] == [1]
    assert doc["decoupling"] == {"input": [], "output": []}
    assert doc["det_constant"] == 1


def test_zeros_non_minimal_spec_flagged(tmp_path, capsys):
    spec = {
        "P": [[[0, 1]]],
        "terms": [
            {"num": [1], "den": [-1, 1], "matrix": [[1]]},
            {"num": [2], "den": [-1, 1], "matrix": [[1]]},
        ],
    }
    path = write(tmp_path, "spec.json", spec)
    with pytest.warns(UserWarning):
        code, out, _ = run(capsys, "zeros", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["minimal"] is False
    assert "invariant zeros" in doc["note"]


@pytest.mark.parametrize("backend", ["exact", "numeric"])
def test_zeros_spec_realizes_once_and_tests_minimality_once(
    tmp_path, capsys, monkeypatch, backend
):
    calls = {"realize": 0, "decoupling_zeros": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    realize = system.realize
    for mod in (system, eigen, cli):
        if getattr(mod, "realize", None) is realize:
            monkeypatch.setattr(mod, "realize", counting("realize", realize))
    monkeypatch.setattr(
        system, "decoupling_zeros", counting("decoupling_zeros", system.decoupling_zeros)
    )
    path = write(tmp_path, "spec.json", EXNOEVL_SPEC_JSON)
    code, out, _ = run(capsys, "zeros", "--input", path, "--backend", backend)
    assert code == 0 and json.loads(out)["minimal"] is True
    assert calls == {"realize": 1, "decoupling_zeros": 1}


def test_zeros_computes_one_state_determinant(tmp_path, capsys, monkeypatch):
    # classify_zeros and transfer_function both need det(lam*E - A); the
    # system memo computes it once per request (here r = 3)
    pencils, dets = [], []
    state_pencil = system.state_pencil

    def recording_pencil(sys):
        pencils.append(state_pencil(sys))
        return pencils[-1]

    def counting_det(matrix):
        dets.append(any(matrix == p for p in pencils))
        return poly_matrix_det(matrix)

    for mod in (system, eigen):
        if getattr(mod, "state_pencil", None) is state_pencil:
            monkeypatch.setattr(mod, "state_pencil", recording_pencil)
        if getattr(mod, "poly_matrix_det", None) is poly_matrix_det:
            monkeypatch.setattr(mod, "poly_matrix_det", counting_det)
    terms = [{"num": [1], "den": [-p, 1], "matrix": [[1]]} for p in (1, 2, 3)]
    spec = {"P": [[[-2, 0, 1]]], "terms": terms}
    code, out, _ = run(capsys, "zeros", "--input", write(tmp_path, "spec.json", spec))
    assert code == 0 and len(json.loads(out)["poles"]) == 3
    assert sum(dets) == 1


def _count_calls(monkeypatch, targets):
    """Record the arguments of every call of each (home module, name) in
    `targets`, through every rosepen module that binds the function."""
    calls = {name: [] for _, name in targets}
    for home, name in targets:
        original = getattr(home, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls[_name].append(args)
            return _original(*args, **kwargs)

        for mod in list(_sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("rosepen") and (
                getattr(mod, name, None) is original
            ):
                monkeypatch.setattr(mod, name, wrapper)
    return calls


_PENCIL_WORK = (
    (eigen, "pencil_determinant"),
    (eigen, "solve_gep"),
    (eigen, "_lead_singular"),
    (fiedler, "pencil_direct"),
    (fiedler, "pencil_algorithm1"),
    (polymat, "poly_matrix_det"),
)


@pytest.mark.parametrize("kind", ["system", "spec"])
def test_exact_zeros_reads_det_s_and_builds_no_pencil(kind, tmp_path, capsys, monkeypatch):
    # (n, r, m) = (2, 2, 3) and (2, 2, 2): S(lam) is 4 x 4, a pencil 8 x 8
    # or 6 x 6, and no other determinant has either size
    if kind == "system":
        sys = rand_system(random.Random(1631), 2, 2, 3)
        doc = rio.encode_system(sys)
    else:
        doc = {
            "P": [[[-2, 0, 1], [0]], [[0], [1, 0, 1]]],
            "terms": [{"num": [1], "den": [-1, 1], "matrix": [[1, 0], [0, 1]]}],
        }
        sys = system.realize(rio.decode_rep_spec(doc))
    calls = _count_calls(monkeypatch, _PENCIL_WORK)
    code, out, _ = run(capsys, "zeros", "--input", write(tmp_path, "in.json", doc))
    assert code == 0 and json.loads(out)["pencil_size"] == sys.n * sys.m + sys.r
    dets = calls.pop("poly_matrix_det")
    assert all(not args for args in calls.values())
    s = assemble_system_matrix(sys)
    assert sum(1 for (matrix,) in dets if matrix == s) == 1
    assert all(matrix.rows != sys.n * sys.m + sys.r for (matrix,) in dets)


def test_exact_zeros_takes_g_over_one_common_denominator(tmp_path, capsys, monkeypatch):
    # the Smith-McMillan form is read from G's numerators over
    # det(lam*E - A) reduced once: one transfer_function, one
    # smith_mcmillan and no entry reduced on its own (here n = 2, r = 3)
    calls = _count_calls(
        monkeypatch, ((system, "transfer_function"), (polymat, "smith_mcmillan"))
    )
    fns = []
    init = polymat.RationalFn.__init__

    def counting_init(self, *args):
        fns.append(args)
        init(self, *args)

    doc = {
        "P": [[[-2, 0, 1], [0, 1]], [[1], [1, 0, 1]]],
        "terms": [
            {"num": [1], "den": [-1, 1], "matrix": [[1, 0], [0, 1]]},
            {"num": [2, 1], "den": [3, 1], "matrix": [[1, 1], [1, 1]]},
        ],
    }
    monkeypatch.setattr(polymat.RationalFn, "__init__", counting_init)
    code, out, _ = run(capsys, "zeros", "--input", write(tmp_path, "spec.json", doc))
    assert code == 0 and json.loads(out)["zeros"]
    assert {k: len(v) for k, v in calls.items()} == {"transfer_function": 1, "smith_mcmillan": 1}
    # the decoder builds each term's coefficient; nothing else builds one
    assert len(fns) == len(doc["terms"])


def test_numeric_zeros_solves_one_product_pencil(tmp_path, capsys, monkeypatch):
    calls = _count_calls(monkeypatch, _PENCIL_WORK)
    doc = rio.encode_system(rand_system(random.Random(1631), 2, 2, 3))
    path = write(tmp_path, "sys.json", doc)
    code, _, _ = run(capsys, "zeros", "--input", path, "--backend", "numeric")
    assert code == 0
    assert len(calls["pencil_direct"]) == 1 and len(calls["solve_gep"]) == 1
    assert not calls["pencil_algorithm1"] and not calls["pencil_determinant"]


_M1_SYSTEM_JSON = {"P": [[[2, 1]]], "A": [[3]], "E": [[1]], "B": [[1]], "C": [[1]]}
_M1_SPEC_JSON = {"P": [[[1, 1]]], "terms": [{"num": [1], "den": [-2, 1], "matrix": [[1]]}]}


@pytest.mark.parametrize(
    "doc, argv",
    [
        (_M1_SYSTEM_JSON, ["build"]),
        (_M1_SYSTEM_JSON, ["build", "--mode", "float"]),
        (M3_JSON, ["build"]),
        (M3_JSON, ["build", "--mode", "float"]),
        (_M1_SPEC_JSON, ["zeros", "--backend", "numeric"]),
    ],
    ids=["build-m1", "build-m1-float", "build-m3", "build-m3-float", "numeric-zeros-spec-m1"],
)
def test_pencils_are_spliced_at_every_degree(doc, argv, tmp_path, capsys, monkeypatch):
    # numeric zeros on a system is the one caller left on the dense product
    calls = _count_calls(monkeypatch, _PENCIL_WORK)
    path = write(tmp_path, "in.json", doc)
    code, _, _ = run(capsys, argv[0], "--input", path, *argv[1:])
    assert code == 0
    assert len(calls["pencil_algorithm1"]) == 1 and not calls["pencil_direct"]


def test_float_numeric_zeros_runs_qz_on_the_state_pencil_once(tmp_path, capsys, monkeypatch):
    # the float decoupling test and the numeric poles share one QZ on (A, E)
    shapes = []
    qz_eig = _linalg.qz_eig

    def counting_qz(a, b, homogeneous=False):
        shapes.append(a.shape)
        return qz_eig(a, b, homogeneous)

    monkeypatch.setattr(_linalg, "qz_eig", counting_qz)
    doc = rio.encode_system(rand_system(random.Random(1631), 2, 2, 3))
    path = write(tmp_path, "sys.json", doc)
    code, out, _ = run(capsys, "zeros", "--input", path, "--mode", "float", "--backend", "numeric")
    assert code == 0 and json.loads(out)["poles"]
    # (A, E) is 2 x 2 and the pencil (n, r, m) = (2, 2, 3) is 8 x 8
    assert sorted(shapes) == [(2, 2), (8, 8)]


_Q = polymat.Poly([-2, 0, 1])  # lam^2 - 2
_QE = polymat.Poly([-2 - F(2, 10**5), 0, 1])  # lam^2 - 2 - 2e-5
_SQRT2 = 2**0.5
_SQRT2_EPS = 1.4142206334232293  # sqrt(2 + 2e-5)


def _r0_system(diagonal):
    """An r = 0 system document with P = diag(diagonal)."""
    n = len(diagonal)
    grid = [
        [[str(c) for c in diagonal[i].coeffs] if i == j else [0] for j in range(n)]
        for i in range(n)
    ]
    return {"P": grid, "A": [], "E": [], "B": [[] for _ in range(n)], "C": []}


@pytest.mark.parametrize(
    "diagonal, want",
    [
        ([_Q**3], {-_SQRT2: [3], _SQRT2: [3]}),
        ([_Q**2], {-_SQRT2: [2], _SQRT2: [2]}),
        (
            [_Q, _Q * _QE],
            {-_SQRT2_EPS: [0, 1], _SQRT2_EPS: [0, 1], -_SQRT2: [1, 1], _SQRT2: [1, 1]},
        ),
    ],
    ids=["cube", "square", "near-double"],
)
def test_zeros_of_repeated_irrational_factors(tmp_path, capsys, diagonal, want):
    path = write(tmp_path, "sys.json", _r0_system(diagonal))
    code, out, _ = run(capsys, "zeros", "--input", path)
    assert code == 0
    zeros = json.loads(out)["zeros"]
    want = dict(want)
    assert len(zeros) == len(want)
    for z in zeros:
        assert z["value"]["im"] == 0.0 and z["class"] == "eigenvalue"
        re = z["value"]["re"]
        target = min(want, key=lambda w: abs(w - re))
        assert abs(re - target) <= 1e-12 * abs(target)
        assert z["ind_phi"] == want.pop(target)


def test_zeros_singular_e_exit_code(tmp_path, capsys):
    doc = {
        "P": [[[0, 1]]],
        "A": [[1, 0], [0, 1]],
        "E": [[1, 0], [0, 0]],
        "B": [[1], [1]],
        "C": [[1, 1]],
    }
    path = write(tmp_path, "sys.json", doc)
    code, _, err = run(capsys, "zeros", "--input", path)
    assert code == 4 and "singular" in err.lower()


def test_zeros_singular_pencil_exit_code(tmp_path, capsys):
    doc = {
        "P": [[[0, 1], [0, 1]], [[0, 1], [0, 1]]],
        "A": [],
        "E": [],
        "B": [],
        "C": [],
    }
    path = write(tmp_path, "sys.json", doc)
    code, _, err = run(capsys, "zeros", "--input", path)
    assert code == 5 and "singular pencil" in err


# --- verify --------------------------------------------------------------------

def test_verify_all_desk1(tmp_path, capsys):
    path = write(tmp_path, "desk1.json", DESK1_JSON)
    code, out, _ = run(capsys, "verify", "--input", path, "--all")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert len(doc["results"]) == 2
    assert all(r["det_constant"] == 1 for r in doc["results"])
    assert doc["distinct_pencils"] == 2


def test_verify_all_m4_sweep_reports_distinct_count(tmp_path, capsys):
    doc = {
        "P": [[[1, 2, 0, 1, 1]]],
        "A": [[3]],
        "E": [[1]],
        "B": [[2]],
        "C": [[1]],
    }
    path = write(tmp_path, "sys.json", doc)
    code, out, _ = run(capsys, "verify", "--input", path, "--all")
    assert code == 0
    parsed = json.loads(out)
    assert len(parsed["results"]) == 24
    assert parsed["all_passed"] is True
    assert 1 < parsed["distinct_pencils"] < 24


def test_verify_parallel_jobs_matches_serial(tmp_path, capsys):
    doc = {
        "P": [[[1, 2, 0, 1]]],
        "A": [[3]],
        "E": [[1]],
        "B": [[2]],
        "C": [[1]],
    }
    path = write(tmp_path, "sys.json", doc)
    code1, out1, _ = run(capsys, "verify", "--input", path, "--all")
    code2, out2, _ = run(capsys, "verify", "--input", path, "--all", "--jobs", "2")
    assert code1 == code2 == 0 and out1 == out2


def test_verify_corrupted_pencil_exits_6(tmp_path, capsys):
    path = write(tmp_path, "desk1.json", DESK1_JSON)
    code, out, _ = run(capsys, "build", "--input", path, "--sigma", "1,0")
    pencil = json.loads(out)
    pencil["const_term"][0][1] = 7
    for k in ("sigma", "sigma_default"):
        pencil.pop(k)
    ppath = write(tmp_path, "pencil.json", pencil)
    code, out, _ = run(
        capsys, "verify", "--input", path, "--sigma", "1,0", "--pencil", ppath
    )
    assert code == 6
    doc = json.loads(out)
    assert doc["all_passed"] is False
    assert doc["results"][0]["residual_zero"] is False


def test_verify_pencil_is_decoded_once(tmp_path, capsys, monkeypatch):
    desk1 = write(tmp_path, "desk1.json", DESK1_JSON)
    pencil = json.loads(run(capsys, "build", "--input", desk1, "--sigma", "1,0")[1])
    ppath = write(tmp_path, "pencil.json", pencil)
    calls = []
    decode_pencil = rio.decode_pencil

    def counting_decode(*args, **kwargs):
        calls.append(args)
        return decode_pencil(*args, **kwargs)

    monkeypatch.setattr(rio, "decode_pencil", counting_decode)
    code, out, _ = run(
        capsys, "verify", "--input", desk1, "--sigma", "1,0", "--pencil", ppath
    )
    assert code == 0 and json.loads(out)["all_passed"] is True
    assert len(calls) == 1


def test_verify_respects_max_m_env(tmp_path, capsys, monkeypatch):
    doc = {
        "P": [[[1, 2, 0, 1]]],
        "A": [[3]],
        "E": [[1]],
        "B": [[2]],
        "C": [[1]],
    }
    path = write(tmp_path, "sys.json", doc)
    monkeypatch.setenv("ROSEPEN_MAX_M", "2")
    code, _, err = run(capsys, "verify", "--input", path, "--all")
    assert code == 2 and "ROSEPEN_MAX_M" in err


def test_verify_rejects_non_integer_max_m_env(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "desk1.json", DESK1_JSON)
    monkeypatch.setenv("ROSEPEN_MAX_M", "abc")
    code, out, err = run(capsys, "verify", "--input", path, "--all")
    assert code == 2 and out == ""
    assert err.startswith("rosepen:") and "ROSEPEN_MAX_M" in err


def test_verify_all_computes_det_s_once(tmp_path, capsys, monkeypatch):
    # m = 4: det S is the one determinant, counted wherever the function is
    # bound; the step determinants are fixed by the construction (see
    # test_equivalence's structural property)
    calls = []

    def counting_det(matrix):
        calls.append(matrix)
        return poly_matrix_det(matrix)

    poly_matrix_det = polymat.poly_matrix_det
    for name, mod in list(_sys.modules.items()):
        if name.startswith("rosepen") and getattr(mod, "poly_matrix_det", None) is poly_matrix_det:
            monkeypatch.setattr(mod, "poly_matrix_det", counting_det)
    doc = {"P": [[[1, 2, 0, 1, 1]]], "A": [[3]], "E": [[1]], "B": [[2]], "C": [[1]]}
    path = write(tmp_path, "sys.json", doc)
    code, out, _ = run(capsys, "verify", "--input", path, "--all")
    results = json.loads(out)["results"]
    assert code == 0 and len(results) == 24 and len(calls) == 1
    assert all(r["det_constant"] == 1 for r in results)

    # a failing certificate gets no constant and computes no det S
    desk1 = write(tmp_path, "desk1.json", DESK1_JSON)
    code, out, _ = run(capsys, "verify", "--input", desk1, "--sigma", "1,0")
    assert code == 0
    pencil = json.loads(run(capsys, "build", "--input", desk1, "--sigma", "1,0")[1])
    pencil["const_term"][0][1] = 7
    for k in ("sigma", "sigma_default"):
        pencil.pop(k)
    ppath = write(tmp_path, "pencil.json", pencil)
    code, out, _ = run(
        capsys, "verify", "--input", desk1, "--sigma", "1,0", "--pencil", ppath
    )
    assert code == 6 and json.loads(out)["results"][0]["det_constant"] is None
    assert len(calls) == 2


def test_verify_jobs_pool_is_capped(tmp_path, capsys, monkeypatch):
    import concurrent.futures

    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    path = write(tmp_path, "sys.json", M3_JSON)
    serial = run(capsys, "verify", "--input", path, "--all", "--jobs", "1")
    assert serial[0] == 0 and asked == []
    # m = 3: six certificates
    for cpus, want in ((16, [6]), (4, [4]), (1, []), (None, [])):
        asked.clear()
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        assert run(capsys, "verify", "--input", path, "--all", "--jobs", "64") == serial
        assert asked == want


@pytest.mark.parametrize("flag", ["--sigma", "--pencil"])
def test_verify_all_rejects_a_single_sigma(flag, tmp_path, capsys):
    # --all sweeps every sigma, so a --sigma or --pencil beside it would be
    # ignored: an error, not a run that reads as checking it
    path = write(tmp_path, "desk1.json", DESK1_JSON)
    code, pencil, _ = run(capsys, "build", "--input", path)
    value = "0,1" if flag == "--sigma" else write(tmp_path, "pencil.json", json.loads(pencil))
    code, out, err = run(capsys, "verify", "--input", path, "--all", flag, value)
    assert (code, out) == (2, "")
    assert err == "rosepen: --all sweeps every sigma; it takes no --sigma or --pencil\n"


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_rejects_fewer_than_one_job(tmp_path, capsys, jobs):
    # --jobs k runs at most min(k, m!, CPU count) workers, so k < 1 is no
    # worker count: an error, not a silent serial run
    path = write(tmp_path, "sys.json", M3_JSON)
    code, out, err = run(capsys, "verify", "--input", path, "--all", "--jobs", jobs)
    assert (code, out) == (2, "")
    assert err == f"rosepen: --jobs must be at least 1, got {jobs}\n"


def test_verify_all_builds_each_piece_once(tmp_path, capsys, monkeypatch):
    aux_calls, factor_calls = [], []
    aux_matrix, make_factor = equivalence.aux_matrix, fiedler.make_factor

    def counting_aux(sys, kind, i):
        aux_calls.append((kind, i))
        return aux_matrix(sys, kind, i)

    def counting_factor(sys, i):
        factor_calls.append(i)
        return make_factor(sys, i)

    monkeypatch.setattr(equivalence, "aux_matrix", counting_aux)
    monkeypatch.setattr(fiedler, "make_factor", counting_factor)
    doc = {"P": [[[1, 2, 0, 1, 1]]], "A": [[3]], "E": [[1]], "B": [[2]], "C": [[1]]}
    path = write(tmp_path, "sys.json", doc)
    code, out, _ = run(capsys, "verify", "--input", path, "--all")
    assert code == 0 and len(json.loads(out)["results"]) == 24
    assert len(aux_calls) == len(set(aux_calls)) > 0
    assert len(factor_calls) <= 4 + 1


def test_verify_memos_hold_no_stale_system(tmp_path, capsys):
    # two systems with the same (n, r, m) = (1, 1, 3), verified back to back
    first = write(tmp_path, "a.json", M3_JSON)
    second = write(tmp_path, "b.json", dict(M3_JSON, P=[[[2, -1, 3, 1]]], A=[[-1]]))
    fresh = []
    for path in (first, second):
        fresh.append(run(capsys, "verify", "--input", path, "--all"))
    warm = [run(capsys, "verify", "--input", p, "--all") for p in (first, second)]
    assert warm == fresh and fresh[0][1] != fresh[1][1]
    assert all(code == 0 for code, _, _ in fresh)


def test_memo_dies_with_its_system(tmp_path, capsys):
    # per-system facts live on the system, so nothing outlives a request;
    # with the collector off, a cycle through a system would keep it too
    import gc

    sys_path = write(tmp_path, "sys.json", M3_JSON)
    spec_path = write(tmp_path, "spec.json", EXNOEVL_SPEC_JSON)
    held = [o for o in gc.get_objects() if isinstance(o, system.RosenbrockSystem)]
    gc.disable()
    try:
        assert run(capsys, "verify", "--input", sys_path, "--all")[0] == 0
        assert run(capsys, "zeros", "--input", spec_path)[0] == 0
        left = [
            o
            for o in gc.get_objects()
            if isinstance(o, system.RosenbrockSystem) and not any(o is h for h in held)
        ]
    finally:
        gc.enable()
    assert left == []


class _SerialPool:
    """A ProcessPoolExecutor stand-in that maps in this process."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return list(map(fn, items))


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_all_splices_every_pencil(tmp_path, capsys, monkeypatch, jobs):
    import concurrent.futures

    calls = {"pencil_direct": 0, "pencil_algorithm1": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        fn = getattr(fiedler, name)
        for mod in (fiedler, cli, eigen, equivalence):
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counting(name, fn))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    doc = {"P": [[[1, 2, 0, 1, 1]]], "A": [[3]], "E": [[1]], "B": [[2]], "C": [[1]]}
    path = write(tmp_path, "sys.json", doc)
    code, out, _ = run(capsys, "verify", "--input", path, "--all", "--jobs", jobs)
    assert code == 0 and len(json.loads(out)["results"]) == 24
    assert calls == {"pencil_direct": 0, "pencil_algorithm1": 24}


def test_verify_jobs_decodes_once_per_worker(tmp_path, capsys, monkeypatch):
    import concurrent.futures

    calls = []
    decode_system = rio.decode_system

    def counting_decode(*args):
        calls.append(args)
        return decode_system(*args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(rio, "decode_system", counting_decode)
    doc = {"P": [[[1, 2, 0, 1, 1]]], "A": [[3]], "E": [[1]], "B": [[2]], "C": [[1]]}
    path = write(tmp_path, "sys.json", doc)
    serial = run(capsys, "verify", "--input", path, "--all")
    calls.clear()
    # m = 4: 24 certificates in two slices, one decode each and one in main
    assert run(capsys, "verify", "--input", path, "--all", "--jobs", "2") == serial
    assert serial[0] == 0 and len(calls) == 3


def test_zeros_spec_builds_one_factor(tmp_path, capsys, monkeypatch):
    # the numeric backend's splice needs only the lead M_m, so the factor
    # memo must not build all m + 1 factors for it; the exact backend reads
    # det S and builds none
    built = []
    make_factor = fiedler.make_factor

    def counting_factor(sys, i):
        built.append(i)
        return make_factor(sys, i)

    monkeypatch.setattr(fiedler, "make_factor", counting_factor)
    spec = {"P": [[[-2, 0, 1]]], "terms": [{"num": [-2], "den": [-1, 1], "matrix": [[1]]}]}
    path = write(tmp_path, "spec.json", spec)
    code, _, _ = run(capsys, "zeros", "--input", path, "--backend", "numeric")
    assert code == 0 and built == [2]
    built.clear()
    code, _, _ = run(capsys, "zeros", "--input", path)
    assert code == 0 and built == []


def test_zeros_does_not_load_hashlib(tmp_path):
    # only verify hashes; an exact zeros run has no use for OpenSSL
    path = write(tmp_path, "spec.json", EXNOEVL_SPEC_JSON)
    src = str(Path(cli.__file__).resolve().parents[1])
    script = (
        "import sys; from rosepen.cli import main; "
        f"code = main(['zeros', '--input', {path!r}]); "
        "print(code, '_hashlib' in sys.modules)"
    )
    proc = subprocess.run(
        [_sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_verify_does_not_load_openssl(tmp_path):
    # the pencil hash comes from the interpreter's own SHA-256, and no
    # certificate step needs numpy
    path = write(tmp_path, "sys.json", M3_JSON)
    src = str(Path(cli.__file__).resolve().parents[1])
    script = (
        "import sys; from rosepen.cli import main; "
        f"code = main(['verify', '--input', {path!r}, '--all']); "
        "print(code, '_hashlib' in sys.modules, 'numpy' in sys.modules)"
    )
    proc = subprocess.run(
        [_sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    *out, status = proc.stdout.splitlines()
    assert status == "0 False False"
    results = json.loads("\n".join(out))["results"]
    sys = rio.decode_system(M3_JSON, "exact")
    assert len(results) == 6
    for r in results:
        pencil = pencil_algorithm1(sys, Bijection(tuple(r["sigma"])))
        text = rio.dumps(rio.encode_pencil(pencil))
        assert r["pencil_sha256"] == hashlib.sha256(text.encode()).hexdigest()


def test_verify_writes_each_pencil_hash_without_json(tmp_path, capsys, monkeypatch):
    # every sigma's hash comes from io.pencil_sha256; the summary is the one
    # document that goes through io.dumps (cold (2, 2, 4) system, 24 sigma)
    doc = rio.encode_system(rand_system(random.Random(2804), 2, 2, 4))
    calls = _count_calls(monkeypatch, ((rio, "encode_pencil"), (rio, "dumps")))
    code, out, _ = run(capsys, "verify", "--input", write(tmp_path, "s.json", doc), "--all")
    assert code == 0 and len(json.loads(out)["results"]) == 24
    assert not calls["encode_pencil"]
    assert [set(args[0]) for args in calls["dumps"]] == [
        {"m", "results", "distinct_pencils", "all_passed"}
    ]


@settings(max_examples=20, deadline=None)
@given(exact_systems())
def test_det_constant_matches_the_pencil_determinant(sys):
    # the CLI's c is the closed form 1; the oracle divides the pencil's own
    # determinant by det S
    det_s = poly_matrix_det(system.assemble_system_matrix(sys))
    for order in permutations(range(sys.m)):
        sigma = Bijection(order)
        for pencil in (pencil_algorithm1(sys, sigma), pencil_direct(sys, sigma)):
            entry = cli._verify_payload(sys, order, pencil)
            assert entry["residual_zero"], order
            want = det_constant_oracle(pencil, det_s)
            assert entry["det_constant"] == (
                None if want is None else rio.encode_scalar(want)
            ), order


def test_verify_det_constant_is_null_when_det_s_vanishes(tmp_path, capsys):
    # P has two equal rows and B = C = 0, so det S = det P * det(A - lam E) = 0
    doc = {
        "P": [[[1, 0, 1], [2, 1, 0]], [[1, 0, 1], [2, 1, 0]]],
        "A": [[1]],
        "E": [[2]],
        "B": [[0, 0]],
        "C": [[0], [0]],
    }
    code, out, _ = run(capsys, "verify", "--input", write(tmp_path, "s.json", doc), "--all")
    results = json.loads(out)["results"]
    assert code == 0 and len(results) == 2
    assert all(r["residual_zero"] and r["det_constant"] is None for r in results)
    sys = rio.decode_system(doc, "exact")
    det_s = poly_matrix_det(system.assemble_system_matrix(sys))
    assert det_s.is_zero
    for order in permutations(range(sys.m)):
        pencil = pencil_algorithm1(sys, Bijection(order))
        assert det_constant_oracle(pencil, det_s) is None


def test_parser_is_built_once_per_process(tmp_path, capsys):
    path = write(tmp_path, "desk1.json", DESK1_JSON)
    argvs = (["verify", "--input", path, "--all"], ["ciss", "--sigma", "2,1,0"])
    separate = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        separate.append(run(capsys, *argv))
    cli._build_parser.cache_clear()
    shared = [run(capsys, *argv) for argv in argvs]
    assert shared == separate and shared[0][0] == shared[1][0] == 0
    assert cli._build_parser.cache_info().misses == 1


def test_corpus_runs_every_subcommand():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) <= {argv[0] for _, _, argv, _ in cli_corpus.commands()}


def test_verify_forged_pencil_after_a_passing_sweep(tmp_path, capsys):
    path = write(tmp_path, "desk1.json", DESK1_JSON)
    code, out, _ = run(capsys, "verify", "--input", path, "--all")
    assert code == 0 and json.loads(out)["all_passed"] is True
    pencil = json.loads(run(capsys, "build", "--input", path, "--sigma", "1,0")[1])
    pencil["const_term"][0][1] = 7
    for k in ("sigma", "sigma_default"):
        pencil.pop(k)
    ppath = write(tmp_path, "pencil.json", pencil)
    code, out, _ = run(capsys, "verify", "--input", path, "--sigma", "1,0", "--pencil", ppath)
    result = json.loads(out)["results"][0]
    assert code == 6 and result["residual_zero"] is False
    assert result["det_constant"] is None


@pytest.mark.parametrize("shape", [(2, 0, 2), (1, 2, 2), (1, 0, 2), (1, 0, 3)])
def test_verify_pencil_of_another_shape_is_a_parse_error(tmp_path, capsys, shape):
    # the (1, 1, 2) system against pencils of other (n, r, m); (1, 0, 3) has
    # the system's size 3, the others do not
    n, r, m = shape
    other = rand_system(random.Random(211), n, r, m)
    pencil = pencil_algorithm1(other, Bijection.first_companion_order(m))
    ppath = write(tmp_path, "pencil.json", rio.encode_pencil(pencil))
    doc = {"P": [[[1, 2, 3]]], "A": [[1]], "E": [[1]], "B": [[1]], "C": [[1]]}
    path = write(tmp_path, "sys.json", doc)
    code, out, err = run(capsys, "verify", "--input", path, "--sigma", "1,0", "--pencil", ppath)
    assert code == 2 and out == ""
    assert err.startswith("rosepen:") and "pencil dimensions do not match the system" in err
    sys = rio.decode_system(doc)
    with pytest.raises(ValueError, match=rf"\(n, r, m\) = \({n}, {r}, {m}\).*\(1, 1, 2\)"):
        equivalence.build_certificate(sys, Bijection((1, 0)), pencil=pencil)


@pytest.mark.parametrize("key", ["n", "r", "m", "b_row_block", "c_col_block"])
@pytest.mark.parametrize("raw", ["1e400", "1.5", "true", '"1"', "0", "3"])
def test_verify_pencil_with_a_malformed_integer_field_is_a_parse_error(
    tmp_path, capsys, key, raw
):
    # the desk1 system (n = r = 1, m = 2) against its own companion pencil
    # with one integer field written as the raw JSON literal `raw`: a
    # non-finite, non-integral, boolean or string value, or a count or
    # block index that does not fit, exits 2 with no traceback
    desk1 = rio.decode_system(DESK1_JSON)
    pencil = rio.encode_pencil(pencil_algorithm1(desk1, Bijection((1, 0))))
    pencil[key] = "@raw " + raw
    ppath = _write_raw(tmp_path, "pencil.json", pencil)
    path = write(tmp_path, "sys.json", DESK1_JSON)
    code, out, err = run(capsys, "verify", "--input", path, "--sigma", "1,0", "--pencil", ppath)
    assert code == 2 and out == ""
    assert err.startswith("rosepen: cannot load input:"), err


# --- out-of-range numbers ------------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ["zeros"],
        ["zeros", "--mode", "float", "--backend", "numeric"],
        ["build", "--mode", "float"],
        ["verify", "--all"],
    ],
)
def test_json_number_beyond_float_range_is_a_parse_error(tmp_path, capsys, argv):
    path = tmp_path / "inf.json"
    # 1e400 parses to float('inf')
    path.write_text(json.dumps(DESK1_JSON).replace('"C": [[1]]', '"C": [[1e400]]'))
    code, out, err = run(capsys, *argv, "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith("rosepen:") and "non-finite" in err


def test_numeric_backend_on_exact_numbers_beyond_float_range(tmp_path, capsys):
    doc = dict(DESK1_JSON, C=[[10**400]])
    path = write(tmp_path, "big.json", doc)
    code, out, err = run(capsys, "zeros", "--input", path, "--backend", "numeric")
    assert code == 2 and out == ""
    assert err.startswith("rosepen:") and "float range" in err
    code, out, err = run(capsys, "zeros", "--input", path, "--mode", "float", "--backend", "numeric")
    assert code == 2 and err.startswith("rosepen:") and "float range" in err
    # the exact pencil itself is fine
    assert run(capsys, "build", "--input", path)[0] == 0


def _qz_stall_doc():
    """A float system on which LAPACK's QZ does not converge (ggev, info=8)."""
    doc = rio.encode_system(rand_system(random.Random(1), 2, 2, 4))
    zero = [[0, 0], [0, 0]]
    return dict(doc, A=[[1e300, 0], [0, 1]], E=[[0, 1], [1, 0]], B=zero, C=zero)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_qz_that_does_not_converge_is_a_parse_error(tmp_path, capsys, mode):
    path = write(tmp_path, "stall.json", _qz_stall_doc())
    code, out, err = run(capsys, "zeros", "--input", path, "--backend", "numeric", "--mode", mode)
    assert code == 2 and out == ""
    assert err.startswith("rosepen: QZ eigensolver failed:") and err.count("\n") == 1, err


# --- malformed REP specs ---------------------------------------------------------------

@pytest.mark.parametrize("den", [[0], []])
@pytest.mark.parametrize(
    "argv", [["zeros"], ["zeros", "--backend", "numeric"], ["realize"]]
)
def test_zero_term_denominator_is_a_parse_error(tmp_path, capsys, argv, den):
    doc = json.loads(json.dumps(EXNOEVL_SPEC_JSON))
    doc["terms"][0]["den"] = den
    path = write(tmp_path, "spec.json", doc)
    code, out, err = run(capsys, *argv, "--input", path)
    assert code == 2 and out == ""
    assert err.startswith("rosepen:") and "zero polynomial" in err


def test_exact_zeros_beyond_float_range(tmp_path, capsys):
    # det S = lam^3 - lam^2 - 10**400: no rational root, and its companion
    # coefficients are beyond binary64 while its roots are not
    doc = dict(DESK1_JSON, C=[[10**400]])
    code, out, _ = run(capsys, "zeros", "--input", write(tmp_path, "big.json", doc))
    assert code == 0
    det = poly_matrix_det(assemble_system_matrix(rio.decode_system(doc)))
    zeros = [complex(z["value"]["re"], z["value"]["im"]) for z in json.loads(out)["zeros"]]
    assert len(zeros) == det.degree == 3
    for z in zeros:
        # |det(z)| against the size of its terms, in exact arithmetic
        x, y = F(z.real), F(z.imag)
        re = im = F(0)
        for c in reversed(det.coeffs):
            re, im = re * x - im * y + c, re * y + im * x
        size = sum(abs(c) * F(abs(z)) ** k for k, c in enumerate(det.coeffs))
        assert re * re + im * im <= (F(1e-12) * size) ** 2


def test_exact_zeros_of_a_linear_p_beyond_the_divisor_bound(tmp_path, capsys):
    # the lead 10000000000039 is beyond the rational-root search's bound
    doc = {"P": [[[-7, 10000000000039]]], "A": [], "E": [], "B": [], "C": []}
    code, out, _ = run(capsys, "zeros", "--input", write(tmp_path, "linear.json", doc))
    assert code == 0
    assert [F(z["value"]) for z in json.loads(out)["zeros"]] == [F(7, 10000000000039)]


# --- ciss / smith / realize -------------------------------------------------------

def test_ciss_reverse_order(capsys):
    code, out, _ = run(capsys, "ciss", "--sigma", "3,2,1,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["ciss"] == [0, 3]
    assert doc["consecutions"] == 0 and doc["inversions"] == 3


def test_ciss_invalid_sigma(capsys):
    code, _, _ = run(capsys, "ciss", "--sigma", "0,2")
    assert code == 3


def test_smith_on_system_matrix(tmp_path, capsys):
    path = write(tmp_path, "desk1.json", DESK1_JSON)
    code, out, _ = run(capsys, "smith", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["p"] == 1
    assert doc["phi"] == ["λ^3 - λ^2 + 1"]
    assert doc["phi_coeffs"] == [[1, 0, -1, 1]]


def test_smith_on_plain_polymatrix(tmp_path, capsys):
    path = write(tmp_path, "pm.json", [[[0, 1], [0]], [[0], [0, 0, 1]]])
    code, out, _ = run(capsys, "smith", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["p"] == 0 and doc["phi_coeffs"] == [[0, 1], [0, 0, 1]]


def test_realize_round_trip(tmp_path, capsys):
    path = write(tmp_path, "spec.json", EXNOEVL_SPEC_JSON)
    code, out, _ = run(capsys, "realize", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["minimal"] is True
    assert doc["n"] == 2 and doc["r"] == 1 and doc["m"] == 1
    assert doc["A"] == [[2]] and doc["B"] == [[0, 1]] and doc["C"] == [[1], [0]]


def test_zeros_float_mode_numeric_backend(tmp_path, capsys):
    path = write(tmp_path, "desk1.json", DESK1_JSON)
    code, out, _ = run(
        capsys, "zeros", "--input", path, "--mode", "float", "--backend", "numeric"
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["zeros"]) == 3 and doc["det_constant"] is None
    # float-mode input cannot feed the exact backend
    code, _, err = run(capsys, "zeros", "--input", path, "--mode", "float")
    assert code == 2 and "exact" in err


# --- determinism -------------------------------------------------------------------

def test_identical_input_identical_output_bytes(tmp_path, capsys):
    path = write(tmp_path, "desk1.json", DESK1_JSON)
    outputs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "zeros", "--input", path)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_out_flag_writes_file(tmp_path, capsys):
    path = write(tmp_path, "desk1.json", DESK1_JSON)
    target = tmp_path / "pencil.json"
    code, out, _ = run(capsys, "build", "--input", path, "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["m"] == 2


# --- fuzz -------------------------------------------------------------------------

_SCHEMA_KEYS = (
    "P", "A", "E", "B", "C", "n", "r", "m", "terms", "num", "den", "matrix",
    "lead", "const_term", "b_row_block", "c_col_block",
)
_FUZZ_SCALARS = st.one_of(
    st.integers(-3, 3),
    st.integers(2**64, 2**80),
    st.integers(-(2**80), -(2**64)),
    st.floats(-10, 10) | st.sampled_from([1e300, -2.5e-8, 0.5, 3.0]),
    st.sampled_from(["1/2", "-3/4", "1/0", "0/5", "7", "x", ""]),
    st.booleans(),
    st.none(),
)
_FUZZ_JSON = st.recursive(
    _FUZZ_SCALARS,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(_SCHEMA_KEYS), kids, max_size=5),
    max_leaves=16,
)
# JSON literals that json.dumps never writes for an integer field
_RAW_LITERALS = ("1e400", "1.5", "true")
_FUZZ_SIGMAS = st.one_of(
    st.integers(2, 4).flatmap(lambda m: st.permutations(range(m))).map(
        lambda p: ",".join(map(str, p))
    ),
    st.sampled_from(["", "0,0", "a,b", "-1,0", "0,1,2,3,4", "1,,0"]),
)


@st.composite
def _mutated(draw, value):
    """`value` with one nested item, or the whole of it, replaced by junk."""
    if isinstance(value, (list, dict)) and value and draw(st.booleans()):
        value = value.copy()
        key = draw(st.sampled_from(sorted(value) if isinstance(value, dict) else range(len(value))))
        value[key] = draw(_mutated(value[key]))
        return value
    return draw(_FUZZ_JSON)


@st.composite
def _fuzz_documents(draw):
    """(document, m): junk JSON, or an encoded system, REP spec or pencil,
    each intact or with some part replaced by junk, and the degree of the
    system it came from (2 for the others)."""
    kind = draw(st.sampled_from(["junk", "system", "system", "spec", "pencil"]))
    if kind == "junk":
        return draw(_FUZZ_JSON), 2
    m = 2
    if kind == "spec":
        doc = rio.encode_rep_spec(draw(rep_specs()))
    else:
        sys = draw(exact_systems())
        m, doc = sys.m, rio.encode_system(sys)
        if kind == "pencil":
            doc = rio.encode_pencil(pencil_algorithm1(sys, Bijection.first_companion_order(m)))
            if draw(st.booleans()):
                key = draw(st.sampled_from(["n", "r", "m", "b_row_block", "c_col_block"]))
                doc[key] = "@raw " + draw(st.sampled_from(_RAW_LITERALS))
    return (draw(_mutated(doc)) if draw(st.integers(0, 2)) == 0 else doc), m


def _write_raw(folder, name, doc):
    """`write`, with each "@raw <literal>" string put in as the bare literal."""
    path = folder / name
    path.write_text(re.sub(r'"@raw ([^"]*)"', r"\1", json.dumps(doc)))
    return str(path)


def _main_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=30, deadline=None)
@given(inputs=_fuzz_documents(), pencil=_fuzz_documents(), sigma=_FUZZ_SIGMAS)
@example(inputs=(_qz_stall_doc(), 4), pencil=(_qz_stall_doc(), 4), sigma="1,0,2,3")
def test_cli_fuzz_exits_with_a_documented_code(tmp_path_factory, inputs, pencil, sigma):
    # any JSON, as system input or as a --pencil (often of another shape),
    # ends in a documented exit code, and the same input repeats its output;
    # --pencil runs get the companion order of the input's degree
    (doc, m), (pencil, _) = inputs, pencil
    companion = ",".join(map(str, range(m - 1, -1, -1)))
    folder = tmp_path_factory.mktemp("fuzz")
    path = _write_raw(folder, "doc.json", doc)
    ppath = _write_raw(folder, "pencil.json", pencil)
    commands = [
        ["build", "--input", path],
        ["zeros", "--input", path],
        ["zeros", "--input", path, "--backend", "numeric"],
        ["verify", "--input", path, f"--sigma={sigma}"],
        ["verify", "--input", path, "--all"],
        ["verify", "--input", path, f"--sigma={companion}", "--pencil", ppath],
        ["smith", "--input", path],
        ["realize", "--input", path],
        ["ciss", f"--sigma={sigma}"],
    ]
    for argv in commands:
        first = _main_quietly(argv)
        assert first[0] in {0, 2, 3, 4, 5, 6}, (argv, first)
        assert _main_quietly(argv) == first, argv
