"""Command-line interface: matrix computation, polynomial evaluation and the
verification suites, with machine-readable JSON (or CSV for matrices) output.

Output contract: schema_version "14"; strict JSON (a non-finite deviation is
null); complex numbers as [re, im] pairs; matrices row-major in the fixed
index convention (row i is m = -l + i); spins as twice-values under keys
suffixed "_x2".  For fixed inputs and seed the output is byte-identical
across runs, and no command makes a BLAS product.  Since version 14 the
verify suites draw their samples from random.Random (group.seeded_random),
the same under every numpy version; since version 13 the Schur integrals
are read from the phase spectra of the grid stacks (an
on-bin theta sum, or a Cauchy-Schwarz bound below a rounding floor), and a
dmat error record after a refused route carries that route's warning; since
version 12 dmat's auto route is the Jacobi recurrence in the spin
(route_used "recurrence") for every Euler source and the oracle for a matrix
source, and an unavailable route falls back to auto's route for its source;
since version 11 jacobi-orth's same-column integrals are
wigner.jacobi_stack's on the Haar grid's theta rule, and a nan or infinity
in a real flag is a usage error; since version 10 the Haar grid of schur,
character and all has the fewest theta nodes whose Gauss-Legendre rule is
exact, and every check's magnitudes are libm's hypot of the parts.  CHANGES.md lists each version.  Each command
takes only the flags it reads: dmat exactly one source, --theta (with --phi
and --psi, 0 when absent) or --matrix; poly the flags of its family.

Exit codes: 0 success / all checks passed, 1 verification failure, 2 usage
error, 3 numeric domain error (a ValueError or an ArithmeticError), 141
(EXIT_BROKEN_PIPE, as for SIGPIPE) when the reader of a stdout pipe closes
it before the text is written: main then stops writing, points the
descriptor at the null device so that the interpreter's last flush stays
silent, and prints nothing to stderr.  A stdout that is not the process's
own, such as an in-process caller's buffer, gets the BrokenPipeError.

Each command's handler returns its text as pieces and its exit code, and
main writes the pieces in order, then a newline.  A dmat matrix is its
record's head, one piece per chunk of the matrix text and the record's
tail, so no string holds the whole matrix; the digit kernel behind those
pieces runs at most once per block of two of them.  For an Euler source it
runs on the first half of the matrix only: entry (-m, -n) is then (m, n)'s
up to signs, so a later part takes its mirror's digits, and a part whose
magnitude differs from its mirror's goes to the kernel too.  A handler
computes whatever can raise (the route, the finite check, the rendered
head) before it returns, so a domain error prints only its error record.

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
import os
import re
import sys
from collections.abc import Iterable, Iterator

import numpy as np

from .exactcomb import HalfInt
from .floatrepr import _mirrored_rows, _rows_text, _word_rows
from .group import EulerAngles, Mat2C, from_euler
from .specfun import JacobiParams, jacobi_eval, krawtchouk, legendre
from .verify import SUITE_NAMES, run_suite
from .wigner import ELEMENT_ROUTES, ROTATION_ROUTES, RouteUnavailableError, WignerMatrix

SCHEMA_VERSION = "14"
# dmat's routes are the names of wigner's two route tables plus "auto", which
# is the recurrence for an Euler source and the oracle for a matrix source; an
# unavailable route falls back to auto.  An Euler source takes a route's chart
# form where it has one.
ROUTES = (*{**ELEMENT_ROUTES, **ROTATION_ROUTES}, "auto")
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
# main's status when stdout is a pipe that its reader closed, as for SIGPIPE.
EXIT_BROKEN_PIPE = 141
MAX_VERIFY_L_X2 = 12
# dmat prints about 84 bytes per entry: 13.6 MB at this spin, 55 MB at 800.
MAX_DMAT_L_X2 = 400
# dmat's matrix writer (_render_dmat) yields its text in pieces of this many
# float parts, in whole rows, which bounds the memory of a large matrix's
# text.  Its digit kernel takes _BLOCK_PIECES pieces at a time, so that its
# fixed cost is paid once per block.
_CHUNK_VALUES = 4096
_BLOCK_PIECES = 2
# The writer takes a matrix's later parts from their mirrors only from this
# dim on: below it the kernel time that saves (about 90 ns a part) is less
# than the mirroring's fixed numpy cost (about 20-30 us a call).
_MIRROR_MIN_DIM = 31


def _render_dmat(record: dict, M: WignerMatrix) -> Iterator[str]:
    """The text of _render(record) with M added as record["result"]["matrix"],
    complex entries as [re, im] pairs, as pieces: the record up to the
    matrix, the matrix one chunk at a time, and the rest of the record.

    json.dumps with an indent runs its pure-Python encoder, which is slow for
    (2l+1)^2 pairs.  So the matrix text is written here, in the text
    json.dumps(indent=2) gives a list at its depth (record -> "result" ->
    "matrix"), between the pieces of the record rendered around a
    placeholder.  json writes a finite float as float.__repr__ does, and
    WignerMatrix holds only finite entries.  The record is rendered before
    this returns, so whatever can raise has raised before the first piece.

    The matrix text is cut into pieces of _CHUNK_VALUES parts at most, in
    whole rows.  floatrepr's digit kernel (floatrepr._word_rows) lays out
    _BLOCK_PIECES pieces at a time, with the digits of float.__repr__ and no
    Python call per value (the few values it cannot decide with a wide
    margin take float.__repr__).  Each part is a row of four 8-byte words,
    each taken from a small table: a prefix (sign, lead digit, point), two
    words of digits, and a suffix (the exponent and a separator byte: after
    a real part, after an imaginary part, or after a row).

    Entry q (row-major) mirrors entry dim^2 - 1 - q, (l_x2 - i, l_x2 - j)
    for (i, j): every source dmat builds from Euler angles gives the two the
    same parts up to sign.  The kernel lays out every part of the first
    ceil(dim^2 / 2) entries, whose rows are kept, and each later part whose
    |x| differs bit for bit from that of the same part of its mirror; every
    other later part takes its mirror's kept row with its own sign and
    separator (floatrepr._mirrored_rows), since the digit words and the
    exponent depend only on |x|.  That holds in a block where at least half
    the later parts match; any other block takes one kernel call over its
    whole slice, as does every block of a matrix whose last row does not
    mostly match its first, such as the oracle matrix of a --matrix source
    (under 4% of an SU(2) element's parts match, and none of a general
    matrix's), and every matrix of dim below _MIRROR_MIN_DIM.  At l_x2 200
    the kernel takes 40,402 of an Euler source's 80,802 parts in 6 calls,
    against 11 calls over all of them for a matrix source; the kept rows
    hold 34 bytes a part, 1.4 MB there.

    A piece's text is read from its own slice of the block's word rows, with
    one bytes.translate that deletes the padding between them
    (floatrepr._rows_text); bytes.replace turns its separators into the list
    punctuation and indentation, and the chunk is decoded at once into a
    piece of its own.  Nothing is spliced or joined: no piece holds more than
    one chunk, and no string the whole matrix.
    """
    i0, i1, i2, i3 = ("\n" + " " * k for k in (4, 6, 8, 10))
    dim = M.entries.shape[0]
    values = np.ascontiguousarray(M.entries).view(float).reshape(dim, 2 * dim)
    # "inputs" sorts before "result" and holds no string equal to the slot.
    slot = "<matrix>"
    head, _, tail = _render({**record, "result": {**record["result"], "matrix": slot}}).partition(json.dumps(slot))
    punctuation = (
        (b"\0", ("," + i3).encode()),
        (b"\1", (i2 + "]," + i2 + "[" + i3).encode()),
        (b"\2", (i2 + "]" + i1 + "]," + i1 + "[" + i2 + "[" + i3).encode()),
    )
    rows = max(1, _CHUNK_VALUES // (2 * dim))  # per piece
    block_rows = _BLOCK_PIECES * rows
    seps = np.tile(np.array([0, 1], dtype=np.uint8), block_rows * dim)
    seps[2 * dim - 1 :: 2 * dim] = 2
    # Entry q's mirror is entry size - 1 - q.  A part of the second half
    # whose |x| is its mirror's bit for bit takes its mirror's word row, in a
    # block where at least half the later parts do: at the few matches of an
    # SU(2) element's oracle matrix, gathering the rest for the kernel and
    # scattering their rows back took 11-18% more render time than one call
    # over the block.  From _MIRROR_MIN_DIM on, the first half's rows are
    # kept where the last row passes that test against the first.
    entries, size = values.reshape(-1, 2), dim * dim
    half = (size + 1) // 2

    def matches(a: int, b: int) -> np.ndarray:
        # Whether each part of entries a..b-1, all past the first half, has its mirror's |x|.
        return np.abs(entries[a:b]) == np.abs(_reversed(entries[size - b : size - a]))

    def mostly(matched: np.ndarray) -> bool:
        return 0 < matched.size <= 2 * np.count_nonzero(matched)

    if keep := dim >= _MIRROR_MIN_DIM and mostly(matches(max(half, size - dim), size)):
        kept, kept_prefix = np.empty((half, 2, 4), dtype=np.uint64), np.empty((half, 2), dtype=np.uint16)

    def store(a: int, split: int, words: np.ndarray, prefix: np.ndarray) -> None:
        # Keep the rows of entries a..a+split-1, the first of the kernel's.
        kept[a : a + split] = words[: 2 * split].reshape(-1, 2, 4)
        kept_prefix[a : a + split] = prefix[: 2 * split].reshape(-1, 2)

    def block_words(a: int, b: int) -> np.ndarray:
        # The word rows of entries a..b-1: the kernel's over the block, or the
        # kernel's over its parts of the first half and its unmatched parts
        # and the mirrors' for the rest.
        split = min(max(half - a, 0), b - a)  # entries of the first half
        if not (keep and mostly(mirrored := matches(a + split, b))):
            words, prefix = _word_rows(entries[a:b].ravel(), seps[: 2 * (b - a)])
            if keep:
                store(a, split, words, prefix)
            return words
        own, own_seps = entries[a + split : b], seps[2 * split : 2 * (b - a)].reshape(-1, 2)
        redo = ~mirrored
        todo, todo_seps = entries[a : a + split].ravel(), seps[: 2 * split]
        if some := redo.any():
            todo, todo_seps = np.concatenate([todo, own[redo]]), np.concatenate([todo_seps, own_seps[redo]])
        if todo.size:
            words, prefix = _word_rows(todo, todo_seps)
            store(a, split, words, prefix)
        out = np.empty((b - a, 2, 4), dtype=np.uint64)
        out[:split] = kept[a : a + split]
        mirror = slice(size - b, size - a - split)
        _mirrored_rows(kept[mirror][::-1], _reversed(kept_prefix[mirror]), own, own_seps, out[split:])
        if some:
            out[split:][redo] = words[2 * split :]
        return out.reshape(-1, 4)

    def pieces() -> Iterator[str]:
        yield head + "[" + i1 + "[" + i2 + "[" + i3
        for start in range(0, dim, rows):
            if start % block_rows == 0:
                words = block_words(start * dim, min(start + block_rows, dim) * dim)
            at = start % block_rows * 2 * dim
            chunk = _rows_text(words[at : at + rows * 2 * dim])
            if start + rows >= dim:
                chunk = chunk[:-1]  # the last row closes the matrix instead
            for sep, text in punctuation:
                chunk = chunk.replace(sep, text)
            yield chunk.decode()
        yield i2 + "]" + i1 + "]" + i0 + "]" + tail

    return pieces()


def _reversed(a: np.ndarray) -> np.ndarray:
    # a[::-1], copied as one item per row of a: numpy copies a reversed
    # (4096, 2) array four to seven times slower than a reversed 1-d array
    # of its rows.
    row = math.prod(a.shape[1:])
    items = a.reshape(len(a), row).view(np.dtype((np.void, row * a.itemsize)))
    return items[::-1].copy().view(a.dtype).reshape(a.shape)


def _matrix_csv(M: WignerMatrix) -> Iterator[str]:
    # One piece per row, each but the first after a newline.
    for i, row in enumerate(M.entries.tolist()):
        yield "\n" * (i > 0) + ",".join(str(z).strip("()") for z in row)


def _render(record: dict) -> str:
    return json.dumps(record, sort_keys=True, indent=2, allow_nan=False)


def _error_record(command: str, exc: Exception, warnings=()) -> str:
    # The record of a numeric domain error (exit 3), with the warnings of a
    # route that was refused before it, if any.
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }
    if warnings:
        record["warnings"] = list(warnings)
    return _render(record)


_NEGATIVE_REAL = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)


def _finite_real(text: str) -> float:
    # The type of every real flag: text that is not a finite float is a usage error.
    try:
        if math.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"needs a finite real, got {text}")


def _eight_reals(text: str) -> list[float]:
    # --matrix's type: the 8 finite reals a_re,a_im,b_re,b_im,c_re,c_im,d_re,d_im.
    if len(parts := text.split(",")) != 8:
        raise argparse.ArgumentTypeError("needs 8 comma-separated reals: a_re,a_im,b_re,...,d_im")
    try:
        return [_finite_real(v) for v in parts]
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(f"the 8 reals must be finite, got {text}") from None


def _auto_route(angles: EulerAngles | None) -> str:
    # auto's route: the oracle for a matrix source, the recurrence for an Euler source.
    return "oracle" if angles is None else "recurrence"


def _dmat_by_route(l: HalfInt, A: Mat2C, angles: EulerAngles | None, route: str) -> tuple[str, WignerMatrix]:
    # (the route that serves a route name of ROUTES, its matrix of the source).
    if route == "auto":
        route = _auto_route(angles)
    if angles is not None and route in ROTATION_ROUTES:
        return route, WignerMatrix(l, ROTATION_ROUTES[route](l, [angles])[0])
    return route, ELEMENT_ROUTES[route](l, A)


def cmd_dmat(args, parser) -> tuple[Iterable[str], int]:
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
    try:
        route_used, M = _dmat_by_route(l, A, angles, args.route)
    except RouteUnavailableError as exc:
        fallback = _auto_route(angles)
        warnings.append(f"route {args.route} unavailable ({exc}); fell back to {fallback}")
        try:
            route_used, M = _dmat_by_route(l, A, angles, fallback)
        except (ValueError, ArithmeticError) as fallback_exc:
            return [_error_record("dmat", fallback_exc, warnings)], 3
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


def cmd_poly(args, parser) -> tuple[Iterable[str], int]:
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
    return [_render(record)], 0


def cmd_verify(args, parser) -> tuple[Iterable[str], int]:
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
    return [_render(record)], 0 if report["passed"] else 1


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
    source.add_argument("--theta", type=_finite_real, help="colatitude in [0, pi/2] (radians)")
    source.add_argument(
        "--matrix", type=_eight_reals, help="8 comma-separated finite reals: a_re,a_im,b_re,b_im,c_re,c_im,d_re,d_im"
    )
    dmat.add_argument("--phi", type=_finite_real, help="first phase in [0, 2*pi), with --theta; default 0")
    dmat.add_argument("--psi", type=_finite_real, help="second phase in [0, 2*pi), with --theta; default 0")
    dmat.add_argument("--route", choices=ROUTES, default="auto")
    dmat.add_argument("--format", choices=("json", "csv"), default="json")

    poly = sub.add_parser("poly", help="evaluate a polynomial family member")
    poly.add_argument("--family", choices=tuple(_FAMILIES), required=True)
    poly.add_argument("--n", type=int, help="degree")
    poly.add_argument("--alpha", type=_finite_real, help="jacobi alpha")
    poly.add_argument("--beta", type=_finite_real, help="jacobi beta")
    poly.add_argument("--x", type=_finite_real, help="evaluation point")
    poly.add_argument("--p", type=_finite_real, help="krawtchouk success parameter")
    poly.add_argument("--N", type=int, help="krawtchouk lattice size")

    verify = sub.add_parser("verify", help="run a property-verification suite")
    verify.add_argument("--suite", choices=SUITE_NAMES, default="all")
    verify.add_argument("--max-l-x2", type=int, default=6)
    verify.add_argument("--seed", type=int, default=0)
    # argparse reads an argument that starts with "-" as an option unless it
    # matches this pattern, by default a plain decimal; every text that float()
    # reads as a negative number matches this one (-1e-3, -inf, -nan, and
    # --matrix's list), and no option of wignerkit does.
    for each in (parser, *sub.choices.values()):
        each._negative_number_matcher = _NEGATIVE_REAL
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
        pieces, code = handlers[args.command](args, COMMAND_PARSERS[args.command])
    except (ValueError, ArithmeticError) as exc:
        pieces, code = [_error_record(args.command, exc)], 3
    out = sys.stdout
    try:
        for piece in pieces:
            out.write(piece)
        out.write("\n")
        out.flush()
    except BrokenPipeError:
        if out is not sys.__stdout__:
            raise
        # The reader has gone: point the descriptor at the null device, so
        # that the interpreter's last flush of what is buffered is silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
