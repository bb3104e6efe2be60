"""JSON interchange for every type the command line front end touches.

Conventions: polynomials are ascending coefficient arrays; exact rationals
travel as integers or "p/q" strings; complex values as {"re", "im"} pairs;
matrices are row-major nested arrays.  Decoding validates shapes and raises
ValueError on anything malformed, which the CLI maps to its parse-error
exit code.  `dumps` writes the canonical text of every document, and
`pencil_sha256` writes an exact pencil's text straight from its grids.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import isfinite

from ._linalg import EXACT, shape
from .eigen import ZeroReport
from .fiedler import SystemPencil
from .polymat import Poly, PolyMatrix, RationalFn
from .system import RepSpec, RepTerm, RosenbrockSystem

# The pencil hash is a content fingerprint, not a security boundary: the
# interpreter's own SHA-256 gives hashlib's digest without loading OpenSSL
# (about 3.5 MB of resident memory) into the process.
try:
    from _sha256 import sha256  # CPython through 3.11
except ImportError:
    try:
        from _sha2 import sha256  # CPython 3.12+
    except ImportError:
        from hashlib import sha256

__all__ = [
    "encode_scalar",
    "decode_scalar",
    "encode_value",
    "encode_poly",
    "decode_poly",
    "encode_grid",
    "decode_grid",
    "encode_poly_matrix",
    "decode_poly_matrix",
    "encode_system",
    "decode_system",
    "encode_rep_spec",
    "decode_rep_spec",
    "encode_pencil",
    "decode_pencil",
    "pencil_sha256",
    "encode_smith_form",
    "encode_zero_report",
    "detect_kind",
    "dumps",
]


def encode_scalar(x):
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return x
    if isinstance(x, int):
        return x
    raise TypeError(f"cannot encode scalar {x!r}")


def decode_scalar(obj, mode=EXACT):
    """One scalar of the interchange format as an element of `mode`'s field.

    Raises ValueError on anything else, including a non-finite number (JSON
    numbers beyond the float range parse as ±inf) and, in float mode, a
    value beyond the float range.
    """
    if isinstance(obj, str):
        num, _, den = obj.partition("/")
        try:
            frac = Fraction(int(num), int(den) if den else 1)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad rational literal {obj!r}") from exc
        return frac if mode == EXACT else _to_float(frac)
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ValueError(f"bad scalar {obj!r}")
    if isinstance(obj, float) and not isfinite(obj):
        raise ValueError(f"non-finite number {obj!r}")
    if mode == EXACT:
        if isinstance(obj, float):
            if obj != int(obj):
                raise ValueError(
                    f"non-integral float {obj!r} in exact mode; use a 'p/q' string"
                )
            return Fraction(int(obj))
        return Fraction(obj)
    return _to_float(obj)


def _to_float(x):
    try:
        return float(x)
    except OverflowError as exc:
        raise ValueError("a scalar is beyond the float range") from exc


def encode_value(v):
    """Scalar-or-complex encoder used in reports."""
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    return encode_scalar(v)


def encode_poly(p):
    return [encode_scalar(c) for c in p.coeffs]


def decode_poly(obj, mode=EXACT):
    if not isinstance(obj, list):
        raise ValueError("polynomial must be a coefficient array")
    return Poly([decode_scalar(c, mode) for c in obj], mode)


def encode_grid(grid):
    return [[encode_scalar(x) for x in row] for row in grid]


def decode_grid(obj, mode=EXACT):
    if not isinstance(obj, list) or any(not isinstance(row, list) for row in obj):
        raise ValueError("matrix must be a nested array")
    return tuple([tuple([decode_scalar(x, mode) for x in row]) for row in obj])


def encode_poly_matrix(matrix):
    return [[encode_poly(e) for e in row] for row in matrix.entries]


def decode_poly_matrix(obj, mode=EXACT):
    if not isinstance(obj, list) or any(not isinstance(row, list) for row in obj):
        raise ValueError("polynomial matrix must be a nested array")
    return PolyMatrix([[decode_poly(e, mode) for e in row] for row in obj])


def encode_system(sys):
    return {
        "n": sys.n,
        "r": sys.r,
        "m": sys.m,
        "P": encode_poly_matrix(sys.P),
        "A": encode_grid(sys.A),
        "E": encode_grid(sys.E),
        "B": encode_grid(sys.B),
        "C": encode_grid(sys.C),
    }


def decode_system(obj, mode=EXACT):
    for key in ("P", "A", "E", "B", "C"):
        if key not in obj:
            raise ValueError(f"system JSON missing key {key!r}")
    sys = RosenbrockSystem(
        decode_poly_matrix(obj["P"], mode),
        decode_grid(obj["A"], mode),
        decode_grid(obj["E"], mode),
        decode_grid(obj["B"], mode),
        decode_grid(obj["C"], mode),
    )
    for key, got in (("n", sys.n), ("r", sys.r), ("m", sys.m)):
        if key in obj and obj[key] != got:
            raise ValueError(f"system JSON claims {key}={obj[key]} but data gives {got}")
    return sys


def encode_rep_spec(spec):
    return {
        "P": encode_poly_matrix(spec.P),
        "terms": [
            {
                "num": encode_poly(t.coeff.num),
                "den": encode_poly(t.coeff.den),
                "matrix": encode_grid(t.matrix),
            }
            for t in spec.terms
        ],
    }


def decode_rep_spec(obj, mode=EXACT):
    if "P" not in obj or "terms" not in obj:
        raise ValueError("REP spec JSON needs keys 'P' and 'terms'")
    terms = []
    for t in obj["terms"]:
        if not isinstance(t, dict) or not {"num", "den", "matrix"} <= set(t):
            raise ValueError("each term needs 'num', 'den' and 'matrix'")
        den = decode_poly(t["den"], mode)
        if den.is_zero:
            raise ValueError("a term's denominator is the zero polynomial")
        coeff = RationalFn(decode_poly(t["num"], mode), den)
        terms.append(RepTerm(coeff, decode_grid(t["matrix"], mode)))
    return RepSpec(decode_poly_matrix(obj["P"], mode), tuple(terms))


def encode_pencil(pencil):
    return {
        "lead": encode_grid(pencil.lead),
        "const_term": encode_grid(pencil.const_term),
        "n": pencil.n,
        "r": pencil.r,
        "m": pencil.m,
        "b_row_block": pencil.b_row_block,
        "c_col_block": pencil.c_col_block,
    }


def pencil_sha256(pencil):
    """Hex SHA-256 of `dumps(encode_pencil(pencil))`, written from the grids, not
    by json's indent encoder.  Exact pencils only (`verify` decodes exactly)."""
    try:
        const, lead = _grid_text(pencil.const_term), _grid_text(pencil.lead)
    except AttributeError:  # a float has no denominator
        raise TypeError("pencil_sha256 takes an exact pencil, not a float one") from None
    text = (
        f'{{\n  "b_row_block": {pencil.b_row_block},\n  "c_col_block": {pencil.c_col_block},'
        f'\n  "const_term": {const},\n  "lead": {lead},\n  "m": {pencil.m},'
        f'\n  "n": {pencil.n},\n  "r": {pencil.r}\n}}\n'
    )
    return sha256(text.encode()).hexdigest()


def _grid_text(grid):
    """A nonempty exact grid as `dumps` writes the value of a top-level key."""
    rows = [
        ",\n      ".join([str(x) if x.denominator == 1 else '"%s"' % x for x in row])
        for row in grid
    ]
    return "[\n    [\n      " + "\n    ],\n    [\n      ".join(rows) + "\n    ]\n  ]"


def _decode_int(obj, key):
    """The integer field `key` of a pencil document: an int, or a float of
    integral value.  A bool, a string, a non-finite or non-integral number or any
    other value raises ValueError."""
    x = obj[key]
    if isinstance(x, float) and isfinite(x) and x == int(x):
        return int(x)
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"pencil field {key!r} must be an integer, got {x!r}")
    return x


def decode_pencil(obj, mode=EXACT):
    needed = {"lead", "const_term", "n", "r", "m", "b_row_block", "c_col_block"}
    if not needed <= set(obj):
        raise ValueError(f"pencil JSON needs keys {sorted(needed)}")
    lead = decode_grid(obj["lead"], mode)
    const = decode_grid(obj["const_term"], mode)
    n, r, m, b_row, c_col = [
        _decode_int(obj, key) for key in ("n", "r", "m", "b_row_block", "c_col_block")
    ]
    size = n * m + r
    if shape(lead) != (size, size) or shape(const) != (size, size):
        raise ValueError("pencil grids do not match the declared dimensions")
    for key, block in (("b_row_block", b_row), ("c_col_block", c_col)):
        if not 1 <= block <= m:
            raise ValueError(f"pencil field {key!r} = {block} is outside 1..{m}")
    return SystemPencil(
        lead=lead, const_term=const, n=n, r=r, m=m, b_row_block=b_row, c_col_block=c_col
    )


def encode_smith_form(form):
    return {
        "p": form.identity_count,
        "phi": [poly.pretty() for poly in form.invariant_polys],
        "phi_coeffs": [encode_poly(poly) for poly in form.invariant_polys],
        "zero_rows": form.zero_rows,
        "zero_cols": form.zero_cols,
    }


def encode_zero_report(report: ZeroReport):
    return {
        "zeros": [
            {
                "value": encode_value(z.value),
                "class": z.classification,
                "ind_phi": list(z.ind_phi) if z.ind_phi is not None else None,
                "ind_psi": list(z.ind_psi) if z.ind_psi is not None else None,
            }
            for z in report.zeros
        ],
        "poles": [
            {
                "value": encode_value(p.value),
                "ind_psi": list(p.ind_psi) if p.ind_psi is not None else None,
            }
            for p in report.poles
        ],
        "decoupling": {
            "input": [encode_value(v) for v in report.decoupling.input_decoupling_zeros],
            "output": [encode_value(v) for v in report.decoupling.output_decoupling_zeros],
        },
        "minimal": report.minimal,
        "backend": report.backend,
        "sigma": list(report.sigma),
        "pencil_size": report.pencil_size,
        "det_constant": (
            encode_scalar(report.det_constant)
            if report.det_constant is not None
            else None
        ),
        "singular": report.singular,
        "note": report.note,
    }


def detect_kind(obj):
    """Classify a decoded JSON document by its schema."""
    if isinstance(obj, list):
        return "polymatrix"
    if isinstance(obj, dict):
        if "terms" in obj:
            return "repspec"
        if "const_term" in obj:
            return "pencil"
        if "P" in obj:
            return "system"
    raise ValueError("unrecognized input document")


def dumps(obj):
    """Canonical JSON: sorted keys, two-space indent, trailing newline --
    identical inputs must serialize to identical bytes."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
