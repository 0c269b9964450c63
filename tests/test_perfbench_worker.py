"""The benchmark worker (perfbench/cli_worker.py) starts every op cold.

The worker empties each functools cache it finds in the wignerkit modules
before each op.  A cache it missed would carry work from one op into the
next, and the benchmark would credit a change with a gain that a fresh
`wignerkit` invocation never sees.  This holds the worker's list against an
independent scan of every module and class in the package.
"""
import contextlib
import functools
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import wignerkit

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def cli_worker(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import cli_worker

    return cli_worker


def package_caches() -> dict:
    """Every lru_cache bound in a wignerkit module or on one of its classes,
    by qualified name."""
    found = {}
    for info in pkgutil.iter_modules(wignerkit.__path__):
        if info.name.startswith("__"):
            continue  # __main__ runs the CLI on import
        module = importlib.import_module(f"wignerkit.{info.name}")
        for name, obj in vars(module).items():
            holders = [(name, obj)]
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                holders += [(f"{name}.{attr}", value) for attr, value in vars(obj).items()]
            for qualname, value in holders:
                if isinstance(value, functools._lru_cache_wrapper):
                    found[f"{info.name}.{qualname}"] = value
    return found


def test_worker_clears_every_cache_in_the_package(cli_worker):
    listed = {id(cache) for cache in cli_worker.wignerkit_caches()}
    caches = package_caches()
    assert {"specfun._hyp2f1_coeffs_cached", "specfun._jacobi_coeffs_cached",
            "specfun.hyp2f1_series_coeffs", "haar.gauss_legendre", "wigner._quadrant_plan",
            "wigner._prefactor_column", "wigner._sum_plan"} <= set(caches)
    assert [name for name, cache in caches.items() if id(cache) not in listed] == []


def test_worker_lists_every_cache_from_a_fresh_process():
    # The worker takes its list once, when it starts serving, in a process that
    # has imported only wignerkit.cli; the scan above imports every module
    # first.  A fresh interpreter takes the list as the worker does, then scans
    # the whole package, and names every cache it did not list.
    script = f"""
import sys
sys.path[:0] = [{str(PERFBENCH)!r}, {str(Path(__file__).resolve().parent)!r}]
import wignerkit.cli
import cli_worker
listed = {{id(cache) for cache in cli_worker.wignerkit_caches()}}
from test_perfbench_worker import package_caches
print(sorted(name for name, cache in package_caches().items() if id(cache) not in listed))
"""
    src = str(Path(wignerkit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_each_op_starts_with_empty_caches(cli_worker):
    from wignerkit import haar, specfun, wigner
    from wignerkit.exactcomb import HalfInt
    from wignerkit.group import Mat2C

    haar.gauss_legendre(7)
    specfun._hyp2f1_coeffs_cached(-3, 2, 5, 3)
    plans = (wigner._quadrant_plan, wigner._sum_plan)
    wigner.jacobi_matrix(HalfInt(4), Mat2C(0.6, 0.8j, 0.8j, 0.6))
    wigner.sum_matrix(HalfInt(4), Mat2C(0.6, 0.8j, 0.8j, 0.6))
    assert all(plan.cache_info().currsize for plan in plans)
    replies = io.BytesIO()
    cli_worker.serve([json.dumps(["poly", "--family", "legendre", "--n", "2", "--x", "0.5"])], replies)
    header = json.loads(replies.getvalue().split(b"\n", 1)[0])
    assert header["code"] == 0
    assert haar.gauss_legendre.cache_info().currsize == 0
    assert specfun._hyp2f1_coeffs_cached.cache_info().currsize == 0
    assert [plan.cache_info().currsize for plan in plans] == [0, 0]


def test_a_warm_routes_op_prints_the_bytes_of_a_cold_one(cli_worker):
    # The worker empties the plans before each of its two ops; a call that
    # finds them filled by the op before prints the same bytes.
    from wignerkit import cli

    argv = ["verify", "--suite", "routes", "--max-l-x2", "6", "--seed", "3"]
    replies = io.BytesIO()
    cli_worker.serve([json.dumps(argv)] * 2, replies)
    first, rest = replies.getvalue().split(b"\n", 1)
    size = json.loads(first)["n"]
    cold, second = rest[:size], rest[size:]
    header, again = second.split(b"\n", 1)
    assert json.loads(first)["code"] == json.loads(header)["code"] == 0
    assert again == cold
    warm = io.StringIO()
    with contextlib.redirect_stdout(warm):
        assert cli.main(argv) == 0
    assert warm.getvalue().encode() == cold
