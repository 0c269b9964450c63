"""Command-line interface: matrix computation, polynomial evaluation and the
verification suites, with machine-readable JSON (or CSV for matrices) output.

Output contract: schema_version "1"; complex numbers as [re, im] pairs;
matrices row-major in the fixed index convention (row i is m = -l + i);
spins as twice-values under keys suffixed "_x2".  For fixed inputs and seed
the output is byte-identical across runs.

Exit codes: 0 success / all checks passed, 1 verification failure, 2 usage
error, 3 numeric domain error (a ValueError or an ArithmeticError).
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from .exactcomb import HalfInt
from .group import EulerAngles, Mat2C, from_euler
from .specfun import JacobiParams, jacobi_eval, krawtchouk, legendre
from .verify import SUITE_NAMES, run_suite
from .wigner import (
    RouteUnavailableError,
    WignerMatrix,
    jacobi_matrix,
    krawtchouk_stack,
    oracle_matrix,
    rodrigues_stack,
    sum_matrix,
)

log = logging.getLogger("wignerkit")

SCHEMA_VERSION = "1"
ROUTES = ("oracle", "sum", "jacobi", "rodrigues", "krawtchouk", "auto")
MAX_VERIFY_L_X2 = 12
# dmat prints about 84 bytes per entry: 13.6 MB at this spin, 55 MB at 800.
MAX_DMAT_L_X2 = 400


def _render_dmat(record: dict, M: WignerMatrix) -> str:
    """_render(record) with M added as record["result"]["matrix"], complex
    entries as [re, im] pairs.

    json.dumps with an indent runs its pure-Python encoder, which is slow for
    (2l+1)^2 pairs.  So the matrix is written by one %-template, in the text
    json.dumps(indent=2) gives a list at its depth (record -> "result" ->
    "matrix"), and spliced into the rendered record in place of a
    placeholder.  %r is float.__repr__, which is what json writes for a
    finite float, and WignerMatrix holds only finite entries: no NaN or
    Infinity reaches the template.
    """
    i0, i1, i2, i3 = ("\n" + " " * k for k in (4, 6, 8, 10))
    dim = M.entries.shape[0]
    pair = "[" + i3 + "%r," + i3 + "%r" + i2 + "]"
    row = "[" + i2 + ("," + i2).join([pair] * dim) + i1 + "]"
    template = "[" + i1 + ("," + i1).join([row] * dim) + i0 + "]"
    matrix = template % tuple(np.ascontiguousarray(M.entries).view(float).ravel().tolist())
    # "inputs" sorts before "result" and holds no string equal to the slot.
    slot = "<matrix>"
    text = _render({**record, "result": {**record["result"], "matrix": slot}})
    return text.replace(json.dumps(slot), matrix, 1)


def _matrix_csv(M: WignerMatrix) -> str:
    lines = []
    for row in M.entries.tolist():
        lines.append(",".join(str(z).strip("()") for z in row))
    return "\n".join(lines)


def _render(record: dict) -> str:
    return json.dumps(record, sort_keys=True, indent=2)


def _dmat_by_route(l: HalfInt, A: Mat2C, angles: EulerAngles | None, route: str) -> WignerMatrix:
    if route in ("oracle", "auto"):
        return oracle_matrix(l, A)
    if route == "sum":
        return sum_matrix(l, A)
    if route == "jacobi":
        return jacobi_matrix(l, A)
    stack = {"rodrigues": rodrigues_stack, "krawtchouk": krawtchouk_stack}[route]
    return WignerMatrix(l, stack(l, [angles.theta])[0])


def cmd_dmat(args, parser) -> tuple[str, int]:
    if not 0 <= args.l_x2 <= MAX_DMAT_L_X2:
        parser.error(f"--l-x2 must lie in [0, {MAX_DMAT_L_X2}], got {args.l_x2}")
    l = HalfInt(args.l_x2)
    angles = None
    if args.matrix is not None:
        if args.theta is not None:
            parser.error("--matrix and --theta are mutually exclusive")
        if args.route in ("rodrigues", "krawtchouk"):
            parser.error(f"route {args.route} needs an Euler-angle source with phi = psi = 0")
        try:
            values = [float(v) for v in args.matrix.split(",")]
        except ValueError:
            values = []
        if len(values) != 8:
            parser.error("--matrix needs 8 comma-separated reals: a_re,a_im,b_re,...,d_im")
        A = Mat2C(
            complex(values[0], values[1]),
            complex(values[2], values[3]),
            complex(values[4], values[5]),
            complex(values[6], values[7]),
        )
        inputs = {"l_x2": l.twice, "source": "matrix", "matrix": values, "route": args.route}
    else:
        if args.theta is None:
            parser.error("need either --theta (with optional --phi/--psi) or --matrix")
        angles = EulerAngles(args.theta, args.phi, args.psi)
        if args.route in ("rodrigues", "krawtchouk") and (angles.phi != 0 or angles.psi != 0):
            parser.error(f"route {args.route} needs phi = psi = 0")
        A = from_euler(angles)
        inputs = {
            "l_x2": l.twice,
            "source": "euler",
            "theta": angles.theta,
            "phi": angles.phi,
            "psi": angles.psi,
            "route": args.route,
        }
    warnings = []
    route_used = "oracle" if args.route == "auto" else args.route
    try:
        M = _dmat_by_route(l, A, angles, args.route)
    except RouteUnavailableError as exc:
        warnings.append(f"route {args.route} unavailable ({exc}); fell back to oracle")
        log.info("route fallback: %s", exc)
        route_used = "oracle"
        M = oracle_matrix(l, A)
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": "dmat",
        "inputs": inputs,
        "result": {
            "l_x2": l.twice,
            "dim": l.twice + 1,
            "route_used": route_used,
        },
    }
    if warnings:
        record["warnings"] = warnings
    if args.format == "csv":
        for w in warnings:
            print(w, file=sys.stderr)
        return _matrix_csv(M), 0
    return _render_dmat(record, M), 0


def cmd_poly(args, parser) -> tuple[str, int]:
    if args.format == "csv":
        parser.error("CSV output is matrices-only; poly supports json")
    family = args.family
    if family == "jacobi":
        for flag in ("n", "alpha", "beta", "x"):
            if getattr(args, flag) is None:
                parser.error(f"jacobi needs --{flag}")
        value = jacobi_eval(JacobiParams(args.alpha, args.beta, args.n), args.x)
        inputs = {"family": family, "n": args.n, "alpha": args.alpha, "beta": args.beta, "x": args.x}
        route = "terminating-series"
    elif family == "legendre":
        for flag in ("n", "x"):
            if getattr(args, flag) is None:
                parser.error(f"legendre needs --{flag}")
        value = legendre(args.n, args.x)
        inputs = {"family": family, "n": args.n, "x": args.x}
        route = "jacobi-terminating-series"
    elif family == "krawtchouk":
        for flag in ("n", "x", "p", "N"):
            if getattr(args, flag) is None:
                parser.error(f"krawtchouk needs --{flag}")
        value = krawtchouk(args.n, args.x, args.p, args.N)
        inputs = {"family": family, "n": args.n, "x": args.x, "p": args.p, "N": args.N}
        route = "terminating-2f1"
    else:  # pragma: no cover - argparse restricts choices
        parser.error(f"unknown family {family}")
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": "poly",
        "inputs": inputs,
        "result": {"value": value, "route_used": route},
    }
    return _render(record), 0


def cmd_verify(args, parser) -> tuple[str, int]:
    if args.max_l_x2 < 0 or args.max_l_x2 > MAX_VERIFY_L_X2:
        parser.error(f"--max-l-x2 must lie in [0, {MAX_VERIFY_L_X2}]")
    overrides = {
        axis: count
        for axis, count in (("n_theta", args.grid_ntheta), ("n_phi", args.grid_nphi), ("n_psi", args.grid_npsi))
        if count is not None
    }
    report = run_suite(args.suite, HalfInt(args.max_l_x2), args.seed, overrides or None)
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "inputs": {
            "suite": args.suite,
            "max_l_x2": args.max_l_x2,
            "seed": args.seed,
            "grid_overrides": overrides,
        },
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
    dmat.add_argument("--theta", type=float, help="colatitude in [0, pi/2] (radians)")
    dmat.add_argument("--phi", type=float, default=0.0, help="first phase in [0, 2*pi)")
    dmat.add_argument("--psi", type=float, default=0.0, help="second phase in [0, 2*pi)")
    dmat.add_argument("--matrix", help="8 comma-separated reals: a_re,a_im,b_re,b_im,c_re,c_im,d_re,d_im")
    dmat.add_argument("--route", choices=ROUTES, default="auto")
    dmat.add_argument("--format", choices=("json", "csv"), default="json")

    poly = sub.add_parser("poly", help="evaluate a polynomial family member")
    poly.add_argument("--family", choices=("jacobi", "krawtchouk", "legendre"), required=True)
    poly.add_argument("--n", type=int, help="degree")
    poly.add_argument("--alpha", type=float, help="jacobi alpha")
    poly.add_argument("--beta", type=float, help="jacobi beta")
    poly.add_argument("--x", type=float, help="evaluation point")
    poly.add_argument("--p", type=float, help="krawtchouk success parameter")
    poly.add_argument("--N", type=int, help="krawtchouk lattice size")
    poly.add_argument("--format", choices=("json", "csv"), default="json")

    verify = sub.add_parser("verify", help="run a property-verification suite")
    verify.add_argument("--suite", choices=SUITE_NAMES, default="all")
    verify.add_argument("--max-l-x2", type=int, default=6)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--grid-ntheta", type=int, help="override Gauss-Legendre node count")
    verify.add_argument("--grid-nphi", type=int, help="override phi node count")
    verify.add_argument("--grid-npsi", type=int, help="override psi node count")
    return parser


def main(argv=None) -> int:
    level = os.environ.get("WIGNER_KIT_LOG")
    if level:
        logging.basicConfig(level=getattr(logging, level.upper(), logging.INFO))
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"dmat": cmd_dmat, "poly": cmd_poly, "verify": cmd_verify}
    try:
        text, code = handlers[args.command](args, parser)
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
