"""Long-lived interpreter that runs wignerkit CLI commands for the benchmark.

Reads one JSON argv list per line on stdin and runs ``wignerkit.cli.main`` on
it with stdout captured.  Before each op it empties every functools cache in
the wignerkit modules, so each op starts as cold as a fresh invocation; only
the interpreter start and the imports (the benchmark's setup_s) are shared.
Just before each op it also times REF_REPS runs of reference_load(), a fixed
piece of work that does not use wignerkit, as a probe of how fast the host
runs right then.  For each op it writes a JSON header line ``{"s": seconds,
"ref_s": [seconds, ...], "code": exit_code, "n": byte_count}`` followed by the
n bytes of captured output, so the harness checks the output outside the
timed call.  Exits when stdin closes.  Run with
``src`` on PYTHONPATH.
"""
import contextlib
import io
import json
import sys
import time
import traceback
from fractions import Fraction
from math import comb

import numpy as np
from wignerkit.cli import main

REF_REPS = 3


def reference_load() -> tuple:
    """About 5 ms of the kinds of work wignerkit does: exact rational series,
    big-integer binomials, small complex matrix products and JSON rendering."""
    acc, term, x = Fraction(0), Fraction(1), Fraction(3, 7)
    for k in range(1, 120):
        term = term * x * (k + 1) / (k + 2)
        acc += term
    total = sum(comb(n, k) for n in range(60, 100) for k in range(0, n, 3))
    m = np.exp(1j * np.arange(64.0)).reshape(8, 8) / 8
    for _ in range(120):
        m = m @ m.conj().T
    text = json.dumps([[[v.real, v.imag] for v in row] for row in np.tile(m, (4, 4))])
    return acc, total, len(text)


def wignerkit_caches() -> list:
    caches = {
        id(obj): obj
        for name, module in list(sys.modules.items())
        if name == "wignerkit" or name.startswith("wignerkit.")
        for obj in vars(module).values()
        if callable(getattr(obj, "cache_clear", None))
    }
    return list(caches.values())


def serve(requests, replies) -> None:
    caches = wignerkit_caches()
    for line in requests:
        argv = json.loads(line)
        for cache in caches:
            cache.cache_clear()
        ref_s = []
        for _ in range(REF_REPS):
            start = time.perf_counter()
            reference_load()
            ref_s.append(time.perf_counter() - start)
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = main(argv)
        except SystemExit as exc:  # argparse usage errors exit with code 2
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # reported as a failed op; the worker keeps serving
            code = -1
            buf.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        body = buf.getvalue().encode()
        replies.write(json.dumps({"s": seconds, "ref_s": ref_s, "code": code, "n": len(body)}).encode() + b"\n")
        replies.write(body)
        replies.flush()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout.buffer)
