"""Command-line interface: matrix computation, polynomial evaluation and the
verification suites, with machine-readable JSON (or CSV for matrices) output.

Output contract: schema_version "10"; strict JSON (a non-finite deviation is
null); complex numbers as [re, im] pairs; matrices row-major in the fixed
index convention (row i is m = -l + i); spins as twice-values under keys
suffixed "_x2".  For fixed inputs and seed the output is byte-identical
across runs; only the Schur reduction (schur, all) makes a BLAS product, so
only its bytes depend on the BLAS kernel and thread count.  Since version 10
the Haar grid of schur, character and all has the fewest theta nodes whose
Gauss-Legendre rule is exact, and every check's magnitudes are libm's hypot
of the parts; since version 9 dmat's auto route takes the Jacobi recurrence
in the spin for an Euler source above wigner.ORACLE_TRUSTED_L_X2
(route_used "recurrence").  CHANGES.md lists each version.  Each command
takes only the flags it reads: dmat exactly one source, --theta (with --phi
and --psi, 0 when absent) or --matrix; poly the flags of its family.

Exit codes: 0 success / all checks passed, 1 verification failure, 2 usage
error, 3 numeric domain error (a ValueError or an ArithmeticError).

There is one argument parser per process (PARSER), built from build_parser()
when this module is imported, and main parses with it.  A usage error that
a command's handler finds goes through that command's parser
(COMMAND_PARSERS), so it prints the command's usage line, as argparse's own
errors for the command do.  main is re-entrant: a process may call it any
number of times, and each call prints what the same command prints as a
fresh `python -m wignerkit`.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .exactcomb import HalfInt
from .floatrepr import write_reprs
from .group import EulerAngles, Mat2C, from_euler
from .specfun import JacobiParams, jacobi_eval, krawtchouk, legendre
from .verify import SUITE_NAMES, run_suite
from .wigner import ELEMENT_ROUTES, ORACLE_TRUSTED_L_X2, ROTATION_ROUTES, RouteUnavailableError, WignerMatrix

SCHEMA_VERSION = "10"
# dmat's routes are the names of wigner's two route tables plus "auto", which
# takes the recurrence for an Euler source above the oracle's trusted spin
# and the oracle elsewhere; an unavailable route falls back to the oracle.
# An Euler source takes a route's chart form where it has one.
ROUTES = (*{**ELEMENT_ROUTES, **ROTATION_ROUTES}, "auto")
_FALLBACK = "oracle"
# poly's families: the flags each needs and the only ones it takes, in the
# order they are checked, its evaluator on those flags and its route_used.
# The lambdas look each function up at call time.
_FAMILIES = {
    "jacobi": (
        ("n", "alpha", "beta", "x"),
        lambda n, alpha, beta, x: jacobi_eval(JacobiParams(alpha, beta, n), x),
        "terminating-series",
    ),
    "krawtchouk": (("n", "x", "p", "N"), lambda n, x, p, N: krawtchouk(n, x, p, N), "terminating-2f1"),
    "legendre": (("n", "x"), lambda n, x: legendre(n, x), "jacobi-terminating-series"),
}
MAX_VERIFY_L_X2 = 12
# dmat prints about 84 bytes per entry: 13.6 MB at this spin, 55 MB at 800.
MAX_DMAT_L_X2 = 400
# dmat's matrix writer (_render_dmat) takes this many float parts at a time,
# in whole rows, which bounds the memory of a large matrix's text.
_CHUNK_VALUES = 4096


def _render_dmat(record: dict, M: WignerMatrix) -> str:
    """_render(record) with M added as record["result"]["matrix"], complex
    entries as [re, im] pairs.

    json.dumps with an indent runs its pure-Python encoder, which is slow for
    (2l+1)^2 pairs.  So the matrix text is written here, in the text
    json.dumps(indent=2) gives a list at its depth (record -> "result" ->
    "matrix"), and spliced into the rendered record in place of a
    placeholder.  json writes a finite float as float.__repr__ does, and
    WignerMatrix holds only finite entries.

    floatrepr.write_reprs writes the parts with the digits of
    float.__repr__, without a Python call per value; it leaves the few
    values it cannot decide with a wide margin to float.__repr__.  It takes
    _CHUNK_VALUES parts at a time, in whole rows, and ends each part with a
    separator byte: after a real part, after an imaginary part, or after a
    row.  bytes.replace turns the separators of a chunk into the list
    punctuation and indentation, and the chunk is decoded at once, so only
    the final join holds a copy of the whole text.
    """
    i0, i1, i2, i3 = ("\n" + " " * k for k in (4, 6, 8, 10))
    dim = M.entries.shape[0]
    values = np.ascontiguousarray(M.entries).view(float).reshape(dim, 2 * dim)
    # "inputs" sorts before "result" and holds no string equal to the slot.
    slot = "<matrix>"
    head, _, tail = _render({**record, "result": {**record["result"], "matrix": slot}}).partition(json.dumps(slot))
    punctuation = (
        (b"\0", "," + i3),
        (b"\1", i2 + "]," + i2 + "[" + i3),
        (b"\2", i2 + "]" + i1 + "]," + i1 + "[" + i2 + "[" + i3),
    )
    row_seps = np.tile(np.array([0, 1], dtype=np.uint8), dim)
    row_seps[-1] = 2
    rows = max(1, _CHUNK_VALUES // (2 * dim))
    parts = [head, "[" + i1 + "[" + i2 + "[" + i3]
    for start in range(0, dim, rows):
        block = values[start : start + rows]
        chunk = write_reprs(block.ravel(), np.tile(row_seps, len(block)))
        if start + rows >= dim:
            chunk = chunk[:-1]  # the last row closes the matrix instead
        for sep, text in punctuation:
            chunk = chunk.replace(sep, text.encode())
        parts.append(chunk.decode())
    parts += [i2 + "]" + i1 + "]" + i0 + "]", tail]
    return "".join(parts)


def _matrix_csv(M: WignerMatrix) -> str:
    lines = []
    for row in M.entries.tolist():
        lines.append(",".join(str(z).strip("()") for z in row))
    return "\n".join(lines)


def _render(record: dict) -> str:
    return json.dumps(record, sort_keys=True, indent=2, allow_nan=False)


def _eight_reals(text: str) -> list[float]:
    # --matrix's type: the 8 finite reals a_re,a_im,b_re,b_im,c_re,c_im,d_re,d_im.
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        values = []
    if len(values) != 8:
        raise argparse.ArgumentTypeError("needs 8 comma-separated reals: a_re,a_im,b_re,...,d_im")
    if not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(f"the 8 reals must be finite, got {text}")
    return values


def _route_for(route: str, l: HalfInt, angles: EulerAngles | None) -> str:
    # The route that serves a dmat request for this route name.
    if route != "auto":
        return route
    return "recurrence" if angles is not None and l.twice > ORACLE_TRUSTED_L_X2 else _FALLBACK


def _dmat_by_route(l: HalfInt, A: Mat2C, angles: EulerAngles | None, route: str) -> WignerMatrix:
    # The matrix by a route that _route_for named.
    if angles is not None and route in ROTATION_ROUTES:
        return WignerMatrix(l, ROTATION_ROUTES[route](l, [angles])[0])
    return ELEMENT_ROUTES[route](l, A)


def cmd_dmat(args, parser) -> tuple[str, int]:
    if not 0 <= args.l_x2 <= MAX_DMAT_L_X2:
        parser.error(f"--l-x2 must lie in [0, {MAX_DMAT_L_X2}], got {args.l_x2}")
    l = HalfInt(args.l_x2)
    angles = None
    if args.matrix is not None:
        if args.phi is not None or args.psi is not None:
            parser.error("--phi and --psi need --theta")
        if args.route not in (*ELEMENT_ROUTES, "auto"):
            parser.error(f"route {args.route} needs an Euler-angle source")
        A = Mat2C(*map(complex, args.matrix[::2], args.matrix[1::2]))
        source = {"source": "matrix", "matrix": args.matrix}
    else:
        phi, psi = (0.0 if phase is None else phase for phase in (args.phi, args.psi))
        angles = EulerAngles(args.theta, phi, psi)
        A = from_euler(angles)
        source = {"source": "euler", "theta": angles.theta, "phi": angles.phi, "psi": angles.psi}
    warnings = []
    route_used = _route_for(args.route, l, angles)
    try:
        M = _dmat_by_route(l, A, angles, route_used)
    except RouteUnavailableError as exc:
        warnings.append(f"route {args.route} unavailable ({exc}); fell back to {_FALLBACK}")
        route_used = _FALLBACK
        M = ELEMENT_ROUTES[_FALLBACK](l, A)
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": "dmat",
        "inputs": {"l_x2": l.twice, **source, "route": args.route},
        "result": {"l_x2": l.twice, "dim": l.twice + 1, "route_used": route_used},
    }
    if warnings:
        record["warnings"] = warnings
    if args.format == "csv":
        for w in warnings:
            print(w, file=sys.stderr)
        return _matrix_csv(M), 0
    return _render_dmat(record, M), 0


def cmd_poly(args, parser) -> tuple[str, int]:
    flags, evaluate, route = _FAMILIES[args.family]
    for flag in flags:
        if getattr(args, flag) is None:
            parser.error(f"{args.family} needs --{flag}")
    for flag, value in vars(args).items():
        if value is not None and flag not in ("command", "family", *flags):
            parser.error(f"{args.family} takes no --{flag}")
    values = {flag: getattr(args, flag) for flag in flags}
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": "poly",
        "inputs": {"family": args.family, **values},
        "result": {"value": evaluate(**values), "route_used": route},
    }
    return _render(record), 0


def cmd_verify(args, parser) -> tuple[str, int]:
    if args.max_l_x2 < 0 or args.max_l_x2 > MAX_VERIFY_L_X2:
        parser.error(f"--max-l-x2 must lie in [0, {MAX_VERIFY_L_X2}], got {args.max_l_x2}")
    if args.seed < 0:
        parser.error(f"--seed must be at least 0, got {args.seed}")
    report = run_suite(args.suite, HalfInt(args.max_l_x2), args.seed)
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "inputs": {"suite": args.suite, "max_l_x2": args.max_l_x2, "seed": args.seed},
        "result": report,
    }
    return _render(record), 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wignerkit",
        description="SU(2) representation matrices, the polynomials inside them, "
        "and quadrature-exact orthogonality verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dmat = sub.add_parser("dmat", help="compute a (2l+1) x (2l+1) representation matrix")
    dmat.add_argument("--l-x2", type=int, required=True, help="spin as a twice-value (3/2 -> 3)")
    source = dmat.add_mutually_exclusive_group(required=True)
    source.add_argument("--theta", type=float, help="colatitude in [0, pi/2] (radians)")
    source.add_argument(
        "--matrix", type=_eight_reals, help="8 comma-separated finite reals: a_re,a_im,b_re,b_im,c_re,c_im,d_re,d_im"
    )
    dmat.add_argument("--phi", type=float, help="first phase in [0, 2*pi), with --theta; default 0")
    dmat.add_argument("--psi", type=float, help="second phase in [0, 2*pi), with --theta; default 0")
    dmat.add_argument("--route", choices=ROUTES, default="auto")
    dmat.add_argument("--format", choices=("json", "csv"), default="json")

    poly = sub.add_parser("poly", help="evaluate a polynomial family member")
    poly.add_argument("--family", choices=tuple(_FAMILIES), required=True)
    poly.add_argument("--n", type=int, help="degree")
    poly.add_argument("--alpha", type=float, help="jacobi alpha")
    poly.add_argument("--beta", type=float, help="jacobi beta")
    poly.add_argument("--x", type=float, help="evaluation point")
    poly.add_argument("--p", type=float, help="krawtchouk success parameter")
    poly.add_argument("--N", type=int, help="krawtchouk lattice size")

    verify = sub.add_parser("verify", help="run a property-verification suite")
    verify.add_argument("--suite", choices=SUITE_NAMES, default="all")
    verify.add_argument("--max-l-x2", type=int, default=6)
    verify.add_argument("--seed", type=int, default=0)
    return parser


# The one parser of the process, built at import: building it costs about as
# much as a small dmat call, and parse_args keeps no state between calls.
PARSER = build_parser()
# Each command's own parser, built with PARSER: its handler reports usage
# errors through it, so they print that command's usage line.
COMMAND_PARSERS = next(a for a in PARSER._actions if isinstance(a, argparse._SubParsersAction)).choices


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    handlers = {"dmat": cmd_dmat, "poly": cmd_poly, "verify": cmd_verify}
    try:
        text, code = handlers[args.command](args, COMMAND_PARSERS[args.command])
    except (ValueError, ArithmeticError) as exc:
        record = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        print(_render(record))
        return 3
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
