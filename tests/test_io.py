"""JSON interchange: round trips, scalar conventions, schema validation."""

import hashlib
import json
import random
from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _helpers import exact_systems, rand_rep_spec, rand_system
from rosepen import io as rio
from rosepen.fiedler import Bijection, pencil_algorithm1, pencil_direct
from rosepen.polymat import Poly, PolyMatrix
from rosepen.system import RosenbrockSystem


def test_scalar_conventions():
    assert rio.encode_scalar(F(3)) == 3
    assert rio.encode_scalar(F(1, 2)) == "1/2"
    assert rio.encode_scalar(F(-7, 3)) == "-7/3"
    assert rio.decode_scalar("1/2") == F(1, 2)
    assert rio.decode_scalar(5) == F(5)
    assert rio.decode_scalar(5, "float") == 5.0
    assert rio.decode_scalar("3/4", "float") == 0.75
    assert rio.encode_value(1 + 2j) == {"re": 1.0, "im": 2.0}


def test_scalar_rejections():
    with pytest.raises(ValueError):
        rio.decode_scalar("1/0")
    with pytest.raises(ValueError):
        rio.decode_scalar("x/y")
    with pytest.raises(ValueError):
        rio.decode_scalar(0.5)  # non-integral float in exact mode
    with pytest.raises(ValueError):
        rio.decode_scalar(True)


def test_poly_round_trip_with_fractions():
    p = Poly([F(1, 2), F(-3), F(0), F(7, 5)])
    assert rio.decode_poly(json.loads(json.dumps(rio.encode_poly(p)))) == p


def test_system_and_pencil_round_trips():
    rng = random.Random(5150)
    for _ in range(10):
        n, r, m = rng.randint(1, 3), rng.randint(0, 2), rng.randint(1, 4)
        sys = rand_system(rng, n, r, m)
        assert rio.decode_system(json.loads(json.dumps(rio.encode_system(sys)))) == sys
        order = list(range(m))
        rng.shuffle(order)
        pencil = pencil_direct(sys, Bijection(tuple(order)))
        back = rio.decode_pencil(json.loads(json.dumps(rio.encode_pencil(pencil))))
        assert back == pencil
        assert (back.b_row_block, back.c_col_block) == (
            pencil.b_row_block,
            pencil.c_col_block,
        )


def test_rep_spec_round_trip():
    rng = random.Random(6160)
    for _ in range(10):
        spec = rand_rep_spec(rng, rng.randint(1, 3), rng.randint(1, 3))
        back = rio.decode_rep_spec(json.loads(json.dumps(rio.encode_rep_spec(spec))))
        assert back.P == spec.P
        assert tuple(t.coeff for t in back.terms) == tuple(t.coeff for t in spec.terms)
        assert tuple(t.matrix for t in back.terms) == tuple(t.matrix for t in spec.terms)


def test_schema_validation():
    with pytest.raises(ValueError):
        rio.decode_system({"P": [[[1]]]})  # missing state data
    with pytest.raises(ValueError):
        rio.decode_system(
            {"P": [[[1, 1]]], "A": [[1]], "E": [[1]], "B": [[1]], "C": [[1]], "m": 7}
        )  # inconsistent claimed degree
    with pytest.raises(ValueError):
        rio.decode_rep_spec({"P": [[[1]]], "terms": [{"num": [1]}]})
    with pytest.raises(ValueError):
        rio.decode_pencil({"lead": [[1]], "const_term": [[1]]})
    with pytest.raises(ValueError):
        rio.decode_pencil(
            {
                "lead": [[1]],
                "const_term": [[1]],
                "n": 2,
                "r": 1,
                "m": 2,
                "b_row_block": 1,
                "c_col_block": 1,
            }
        )  # grids do not match declared sizes


def test_detect_kind():
    assert rio.detect_kind([[[1]]]) == "polymatrix"
    assert rio.detect_kind({"P": [], "terms": []}) == "repspec"
    assert rio.detect_kind({"lead": [], "const_term": []}) == "pencil"
    assert rio.detect_kind({"P": [], "A": [], "E": [], "B": [], "C": []}) == "system"
    with pytest.raises(ValueError):
        rio.detect_kind(42)


def test_dumps_is_canonical():
    a = rio.dumps({"b": 1, "a": [2, 3]})
    b = rio.dumps({"a": [2, 3], "b": 1})
    assert a == b and a.endswith("\n")


def _dumps_sha256(pencil):
    return hashlib.sha256(rio.dumps(rio.encode_pencil(pencil)).encode()).hexdigest()


# an m = 5, r = 0 system with p/q coefficients, which random draws seldom reach
_M5_GRIDS = [[[F(k - 2, 3), -k], [F(1, k + 2), F(-5, 2)]] for k in range(6)]


@settings(max_examples=40, deadline=None)
@example(RosenbrockSystem(PolyMatrix.from_coefficient_grids(_M5_GRIDS)))
@given(exact_systems(degrees=st.integers(2, 5)))
def test_pencil_sha256_hashes_the_dumps_text(sys):
    # integer and p/q entries, r = 0..2, every sigma of m = 2..5
    for order in permutations(range(sys.m)):
        pencil = pencil_algorithm1(sys, Bijection(order))
        assert rio.pencil_sha256(pencil) == _dumps_sha256(pencil), order


def test_pencil_sha256_of_a_decoded_pencil():
    doc = {
        "lead": [[1, 0], [0, 0]],
        "const_term": [["-7/3", -1], ["1/2", "-12/5"]],
        "n": 1,
        "r": 0,
        "m": 2,
        "b_row_block": 2,
        "c_col_block": 1,
    }
    pencil = rio.decode_pencil(doc)
    assert rio.pencil_sha256(pencil) == _dumps_sha256(pencil)
    with pytest.raises(TypeError):
        rio.pencil_sha256(rio.decode_pencil(doc, "float"))
