"""Command line front end.

Subcommands wire the library end to end over a single JSON interchange
format: build (system -> Fiedler pencil), zeros (system or REP spec ->
classified zero report), verify (equivalence certificates, optionally for
every bijection), ciss, smith, and realize.

Exit codes: 0 success, 2 parse/validation error, 3 invalid sigma,
4 singular E, 5 singular pencil, 6 failed certificate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _sys
from functools import lru_cache
from itertools import permutations

from . import io as rio
from ._linalg import EXACT, FLOAT, ConvergenceError
from .eigen import classify_zeros, solve_rep
from .equivalence import CertificateError, build_certificate
from .fiedler import Bijection, ciss, pencil_algorithm1
from .polymat import smith_form
from .system import SingularStateError, assemble_system_matrix, is_minimal, realize, system_det

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SIGMA = 3
EXIT_SINGULAR_E = 4
EXIT_SINGULAR_PENCIL = 5
EXIT_CERTIFICATE = 6

DEFAULT_MAX_M = 5


def _fail(code, message):
    print(f"rosepen: {message}", file=_sys.stderr)
    return code


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)


def _parse_sigma(text, m):
    try:
        sigma = Bijection.from_string(text)
    except (ValueError, TypeError) as exc:
        raise InvalidSigma(str(exc)) from exc
    if sigma.m != m:
        raise InvalidSigma(f"sigma has length {sigma.m} but the system degree is {m}")
    return sigma


class InvalidSigma(ValueError):
    pass


def cmd_build(args):
    try:
        doc = _load_json(args.input)
        sys = rio.decode_system(doc, args.mode)
    except (OSError, json.JSONDecodeError, ValueError, TypeError, KeyError) as exc:
        return _fail(EXIT_PARSE, f"cannot load system: {exc}")
    try:
        if args.sigma:
            sigma = _parse_sigma(args.sigma, sys.m)
            default = False
        else:
            sigma = Bijection.first_companion_order(sys.m)
            default = True
    except InvalidSigma as exc:
        return _fail(EXIT_SIGMA, f"invalid sigma: {exc}")
    payload = rio.encode_pencil(pencil_algorithm1(sys, sigma))
    payload["sigma"] = list(sigma.inverse_order)
    payload["sigma_default"] = default
    _emit(rio.dumps(payload), args.out)
    return EXIT_OK


def cmd_zeros(args):
    if args.mode == FLOAT and args.backend == "exact":
        return _fail(EXIT_PARSE, "the exact backend needs exact-mode input")
    try:
        doc = _load_json(args.input)
        kind = rio.detect_kind(doc)
        if kind == "system":
            sys = rio.decode_system(doc, args.mode)
        elif kind == "repspec":
            sys = realize(rio.decode_rep_spec(doc, args.mode))
        else:
            raise ValueError(f"zeros expects a system or REP spec, got {kind}")
    except (OSError, json.JSONDecodeError, ValueError, TypeError, KeyError) as exc:
        return _fail(EXIT_PARSE, f"cannot load input: {exc}")
    solve = solve_rep if kind == "repspec" else classify_zeros
    try:
        sigma = _parse_sigma(args.sigma, sys.m) if args.sigma else None
        report = solve(sys, sigma=sigma, backend=args.backend)
    except InvalidSigma as exc:
        return _fail(EXIT_SIGMA, f"invalid sigma: {exc}")
    except SingularStateError as exc:
        return _fail(EXIT_SINGULAR_E, str(exc))
    except OverflowError as exc:
        # exact input whose numbers (or pencil entries) exceed binary64
        return _fail(EXIT_PARSE, f"numbers beyond the float range: {exc}")
    except ConvergenceError as exc:
        # float entries near the range's end can stall LAPACK's QZ
        return _fail(EXIT_PARSE, f"QZ eigensolver failed: {exc}")
    if report.singular:
        return _fail(EXIT_SINGULAR_PENCIL, "singular pencil: spectrum undefined")
    _emit(rio.dumps(rio.encode_zero_report(report)), args.out)
    return EXIT_OK


def _verify_payload(sys, order, pencil):
    """One certificate check of the decoded system `sys` on `pencil`, or on
    the Fiedler pencil of `order`, spliced by Algorithm 1 (m >= 2 here), when
    `pencil` is None.  Per sigma are only the splice, the first chain step and
    the hash, `io.pencil_sha256` of the pencil's `io.dumps` text written from
    its grids; the later steps, the residual and det S come from the system's
    memo.  A passing certificate gives det(pencil) = c * det S with c = 1 for
    every system, so c needs no determinant; it is null when the certificate
    fails or det S = 0.  Raises ValueError for a pencil of another (n, r, m)."""
    sigma = Bijection(tuple(order))
    if pencil is None:
        pencil = pencil_algorithm1(sys, sigma)
    entry = {
        "sigma": list(order),
        "pencil_sha256": rio.pencil_sha256(pencil),
        "residual_zero": False,
        "det_constant": None,
    }
    try:
        build_certificate(sys, sigma, pencil=pencil)
        entry["residual_zero"] = True
    except CertificateError as exc:
        entry["error"] = str(exc)
        return entry
    if not system_det(sys).is_zero:
        # U * pencil * V = diag(-I, S), det U * det V = (-1)^((m-1)n): c = 1
        entry["det_constant"] = 1
    return entry


def cmd_verify(args):
    if args.jobs < 1:
        return _fail(EXIT_PARSE, f"--jobs must be at least 1, got {args.jobs}")
    try:
        doc = _load_json(args.input)
        sys = rio.decode_system(doc, EXACT)
        pencil = (
            rio.decode_pencil(_load_json(args.pencil), EXACT) if args.pencil else None
        )
    except (OSError, json.JSONDecodeError, ValueError, TypeError, KeyError) as exc:
        return _fail(EXIT_PARSE, f"cannot load input: {exc}")
    if sys.m < 2:
        return _fail(EXIT_PARSE, "certificates need a system of degree m >= 2")
    if args.all:
        if args.pencil or args.sigma:
            return _fail(EXIT_PARSE, "--all sweeps every sigma; it takes no --sigma or --pencil")
        max_m = os.environ.get("ROSEPEN_MAX_M", DEFAULT_MAX_M)
        try:
            max_m = int(max_m)
        except ValueError:
            return _fail(EXIT_PARSE, f"ROSEPEN_MAX_M must be an integer, got {max_m!r}")
        if sys.m > max_m:
            return _fail(
                EXIT_PARSE,
                f"m={sys.m} exceeds the exhaustive-sweep bound {max_m} "
                "(override with ROSEPEN_MAX_M)",
            )
        orders = [tuple(p) for p in permutations(range(sys.m))]
    else:
        try:
            if not args.sigma:
                raise InvalidSigma("verify needs --sigma or --all")
            orders = [_parse_sigma(args.sigma, sys.m).inverse_order]
        except InvalidSigma as exc:
            return _fail(EXIT_SIGMA, f"invalid sigma: {exc}")

    # the pool forks all its workers at the first submit, so never ask for
    # more than there are certificates or CPUs
    workers = min(args.jobs, len(orders), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # a --pencil run has one sigma and never gets here; one contiguous
        # slice of the orders per worker, so each decodes the system once
        k = len(orders)
        slices = [orders[w * k // workers : (w + 1) * k // workers] for w in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = pool.map(_verify_chunk, [(doc, s) for s in slices])
            results = [r for chunk in chunks for r in chunk]
    else:
        try:
            results = [_verify_payload(sys, order, pencil) for order in orders]
        except ValueError as exc:  # a --pencil of another (n, r, m)
            return _fail(EXIT_PARSE, str(exc))

    summary = {
        "m": sys.m,
        "results": results,
        "distinct_pencils": len({r["pencil_sha256"] for r in results}),
        "all_passed": all(r["residual_zero"] for r in results),
    }
    _emit(rio.dumps(summary), args.out)
    return EXIT_OK if summary["all_passed"] else EXIT_CERTIFICATE


def _verify_chunk(payload):
    """The certificate checks of a slice of orders in a `--jobs` worker.
    The system travels as its JSON document and is decoded here once, since
    a Poly cannot be pickled."""
    doc, orders = payload
    sys = rio.decode_system(doc, EXACT)
    return [_verify_payload(sys, order, None) for order in orders]


def cmd_ciss(args):
    try:
        sigma = Bijection.from_string(args.sigma)
    except (ValueError, TypeError) as exc:
        return _fail(EXIT_SIGMA, f"invalid sigma: {exc}")
    structure = ciss(sigma)
    payload = {
        "sigma": list(sigma.inverse_order),
        "m": sigma.m,
        "ciss": list(structure.pairs),
        "consecutions": structure.consecution_total,
        "inversions": structure.inversion_total,
    }
    _emit(rio.dumps(payload), args.out)
    return EXIT_OK


def cmd_smith(args):
    try:
        doc = _load_json(args.input)
        kind = rio.detect_kind(doc)
        if kind == "polymatrix":
            matrix = rio.decode_poly_matrix(doc, EXACT)
        elif kind == "system":
            matrix = assemble_system_matrix(rio.decode_system(doc, EXACT))
        else:
            raise ValueError(f"smith expects a polynomial matrix or system, got {kind}")
    except (OSError, json.JSONDecodeError, ValueError, TypeError, KeyError) as exc:
        return _fail(EXIT_PARSE, f"cannot load input: {exc}")
    _emit(rio.dumps(rio.encode_smith_form(smith_form(matrix))), args.out)
    return EXIT_OK


def cmd_realize(args):
    try:
        doc = _load_json(args.input)
        spec = rio.decode_rep_spec(doc, EXACT)
    except (OSError, json.JSONDecodeError, ValueError, TypeError, KeyError) as exc:
        return _fail(EXIT_PARSE, f"cannot load REP spec: {exc}")
    sys = realize(spec)
    payload = rio.encode_system(sys)
    payload["minimal"] = is_minimal(sys).minimal
    _emit(rio.dumps(payload), args.out)
    return EXIT_OK


@lru_cache(maxsize=1)
def _build_parser():
    """The argument parser, built once per process: `parse_args` leaves it
    unchanged, so every `main` call can share it."""
    parser = argparse.ArgumentParser(
        prog="rosepen",
        description="Fiedler pencils of Rosenbrock system polynomials: "
        "construction, verification, and rational eigenproblem solving.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="assemble a Fiedler pencil from a system")
    p.add_argument("--input", required=True)
    p.add_argument("--sigma", help="comma-separated product order, e.g. 1,0,2,3")
    p.add_argument("--mode", choices=(EXACT, FLOAT), default=EXACT)
    p.add_argument("--out")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("zeros", help="solve and classify the zeros of a system or REP spec")
    p.add_argument("--input", required=True)
    p.add_argument("--sigma")
    p.add_argument("--backend", choices=("exact", "numeric"), default="exact")
    p.add_argument("--mode", choices=(EXACT, FLOAT), default=EXACT)
    p.add_argument("--out")
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser("verify", help="build equivalence certificates")
    p.add_argument("--input", required=True)
    p.add_argument("--sigma")
    p.add_argument("--all", action="store_true", help="sweep every bijection")
    p.add_argument("--pencil", help="verify this pencil JSON instead of rebuilding")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ciss", help="consecution-inversion structure sequence")
    p.add_argument("--sigma", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ciss)

    p = sub.add_parser("smith", help="Smith form of a polynomial matrix or system matrix")
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_smith)

    p = sub.add_parser("realize", help="state-space realization of an REP spec")
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_realize)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    _sys.exit(main())
