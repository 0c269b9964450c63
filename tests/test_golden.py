"""CLI stdout pinned byte for byte.

Each file under tests/golden/ holds the stdout of one command.  A change to
how any number is computed must leave these bytes alone; a deliberate output
change replaces the files and bumps the schema version.  Only the Schur
reduction makes a BLAS product, so only its last digits can depend on the
BLAS kernel and thread count; the pinned verify commands that run it stay at
spins small enough that their output was the same with one BLAS thread and
with the default thread count.  numpy's CPU feature level is another source:
the oracle's dmat bytes hold down to numpy's AVX2 level, not below it.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wignerkit.cli import main
from wignerkit.wigner import ROTATION_ROUTES

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"

COMMANDS = {
    "verify_all_0": ["verify", "--suite", "all", "--max-l-x2", "0", "--seed", "0"],
    "poly_jacobi_halfint": ["poly", "--family", "jacobi", "--n", "7", "--alpha", "0.5", "--beta", "-1.5", "--x", "0.3"],
    "poly_jacobi_negalpha": ["poly", "--family", "jacobi", "--n", "5", "--alpha", "-2", "--beta", "1", "--x", "0.1"],
    "poly_legendre": ["poly", "--family", "legendre", "--n", "9", "--x", "-0.7"],
    "poly_krawtchouk": ["poly", "--family", "krawtchouk", "--n", "4", "--x", "2.5", "--p", "0.3", "--N", "8"],
    "dmat_rodrigues": ["dmat", "--l-x2", "6", "--theta", "0.7", "--route", "rodrigues"],
    "dmat_krawtchouk": ["dmat", "--l-x2", "5", "--theta", "1.1", "--route", "krawtchouk"],
    "dmat_jacobi": ["dmat", "--l-x2", "4", "--matrix", "0.9,0.1,-0.2,0.3,0.5,-0.1,0.8,0.2", "--route", "jacobi"],
    "dmat_oracle_euler": ["dmat", "--l-x2", "5", "--theta", "0.7", "--phi", "1.2", "--psi", "0.3", "--route", "oracle"],
    "dmat_jacobi_halfint": ["dmat", "--l-x2", "3", "--matrix", "0.9,0.1,-0.2,0.3,0.5,-0.1,0.8,0.2", "--route", "jacobi"],
    "dmat_sum_csv": [
        "dmat", "--l-x2", "3", "--matrix", "0.9,0.1,-0.2,0.3,0.5,-0.1,0.8,0.2", "--route", "sum", "--format", "csv",
    ],
    "dmat_oracle_euler_20": ["dmat", "--l-x2", "20", "--theta", "0.7", "--phi", "1.2", "--psi", "0.3"],
    "dmat_oracle_matrix_20": ["dmat", "--l-x2", "20", "--matrix", "0.9,0.1,-0.2,0.3,0.5,-0.1,0.8,0.2"],
    "verify_routes_3": ["verify", "--suite", "routes", "--max-l-x2", "3", "--seed", "1"],
    "verify_routes_12": ["verify", "--suite", "routes", "--max-l-x2", "12", "--seed", "42"],
    "verify_all_2": ["verify", "--suite", "all", "--max-l-x2", "2", "--seed", "3"],
    "verify_jacobi_orth_6": ["verify", "--suite", "jacobi-orth", "--max-l-x2", "6", "--seed", "0"],
    "dmat_krawtchouk_16": ["dmat", "--l-x2", "16", "--theta", "0.7", "--route", "krawtchouk"],
    "dmat_jacobi_euler": ["dmat", "--l-x2", "8", "--theta", "0.7", "--phi", "1.2", "--psi", "0.3", "--route", "jacobi"],
}


# Larger outputs are pinned by the sha256 of their stdout instead of a file.
# The JSON ones (0.2 to 13.6 MB) were recorded with the %-template matrix
# writer that floatrepr's kernel replaced; the matrix source prints in
# exponent form.  The CSV ones pin the str(complex) writer: exponent forms
# at l_x2 40, "+0j" parts of a real matrix, and bare "0j" and "-1+0j" at
# theta = 0.
EULER_ANGLES = ["--theta", "0.7", "--phi", "1.2", "--psi", "0.3"]
HASHED = {
    "dmat_oracle_euler_45": (
        ["dmat", "--l-x2", "45", *EULER_ANGLES],
        "5e55fb5e7ddb78d9429833cdce7e83bd04531c04af906aee71d62b8d50a0a38b",
    ),
    "dmat_oracle_euler_200": (
        ["dmat", "--l-x2", "200", *EULER_ANGLES],
        "066751716e9ef525cf1cf958a197565f8c52a1f76248fd32f5d116a1abb5c2d6",
    ),
    "dmat_oracle_euler_400": (
        ["dmat", "--l-x2", "400", *EULER_ANGLES],
        "f0e16debeb53597cea3b702af4d2196b242c7a4c3cc34a7477a70bcbe3b1be2e",
    ),
    "dmat_oracle_matrix_60": (
        ["dmat", "--l-x2", "60", "--matrix", "30,1,2,0.5,0.3,-1,0.1,0.04"],
        "3f54f691cb15bcff842f42351417ef38112007ca18312350749a287fb5bee578",
    ),
    "dmat_oracle_euler_40_csv": (
        ["dmat", "--l-x2", "40", *EULER_ANGLES, "--format", "csv"],
        "008886f750934bc2d0c608395bdf1262b0c87e001eacc9876c519a0246ddb26c",
    ),
    "dmat_krawtchouk_40_csv": (
        ["dmat", "--l-x2", "40", "--theta", "0.7", "--route", "krawtchouk", "--format", "csv"],
        "c370d9ec51c4d35b2d3b6c0405643b4f48eb65cf8f7f59248eac9f262f237781",
    ),
    # The Jacobi chart form at a spin where the oracle is far from unitary.
    "dmat_jacobi_euler_200": (
        ["dmat", "--l-x2", "200", *EULER_ANGLES, "--route", "jacobi"],
        "6f3c95d1b757158f546a1a71d853c15764788bc04f1a81bc5c698c2cf986b854",
    ),
    "dmat_oracle_theta0_12_csv": (
        ["dmat", "--l-x2", "12", "--theta", "0.0", "--format", "csv"],
        "8dc9b3f0c3a2936a0ef290646581803076a5fc0e822e207f45ec7280725be1a9",
    ),
    # The suites that build oracle stacks, at the CLI cap, where the stacks
    # are largest (VERIFY_HASHED below pins them at 6).
    "verify_unitarity_12": (
        ["verify", "--suite", "unitarity", "--max-l-x2", "12", "--seed", "0"],
        "0cd366055bbdc4e6775404854dbb7f167c048abe17cfa90a85ae075cbf8b4e1c",
    ),
    "verify_homomorphism_12": (
        ["verify", "--suite", "homomorphism", "--max-l-x2", "12", "--seed", "0"],
        "bce80a6feff5d70ed3c266e44d1d56a7f531455d85b9714813d86ddd69facef4",
    ),
    "verify_routes_12_seed_0": (
        ["verify", "--suite", "routes", "--max-l-x2", "12", "--seed", "0"],
        "488f0a7ad61f777d645ae11903b1edbea31d4a556c3601d21356777e6f006c2a",
    ),
}


def test_every_golden_file_has_a_command():
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_is_byte_identical(name, capsys):
    assert main(COMMANDS[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name", sorted(HASHED))
def test_large_stdout_is_byte_identical(name, capsys):
    argv, digest = HASHED[name]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# Every verify suite that runs no Haar grid, at --max-l-x2 6 with seed 0,
# pinned by the sha256 of its stdout.  None makes a BLAS product, so the bytes
# do not depend on the BLAS kernel or thread count; schur and all, which run
# the Schur reduction, do.
VERIFY_HASHED = {
    "routes": "0800ecf777dc44775a0c8fe1cac8ad9fca6cf525fa74bbfd41e17a3eeea76c23",
    "unitarity": "309220631eb8ff59ae3d3c17afced44acb03de5f91299da2c13e68876f67d42e",
    "homomorphism": "f41bba165797d86358984d4f4e68e8b58571cdce458089a913e4116d6bb9e137",
    "jacobi-orth": "ccc3c00d442cd5ae1b74e153f44434cd633660be323a2122494746781708d074",
    "legendre": "030591b90661f4d2b95eacb227b7df28bcd800735161da1d735aaab09d7f3d5c",
    "krawtchouk-sym": "fbdee9fd9d50bae221be686e5c4d855d0547ca4a275abbac852c67a9169737cb",
}


@pytest.mark.parametrize("suite", sorted(VERIFY_HASHED))
def test_verify_suite_stdout_is_byte_identical(suite, capsys):
    assert main(["verify", "--suite", suite, "--max-l-x2", "6", "--seed", "0"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == VERIFY_HASHED[suite]


# Commands that call no BLAS, run under other OpenBLAS kernels, must print
# the bytes pinned above.  OPENBLAS_CORETYPE names the kernel; OpenBLAS reads
# it when numpy loads, so each kernel gets a fresh interpreter.  An OpenBLAS
# built without DYNAMIC_ARCH ignores the variable and runs its one kernel.
OTHER_KERNELS = ("Haswell", "Zen")
KERNEL_PINS = [
    (COMMANDS["dmat_oracle_euler_20"], hashlib.sha256((GOLDEN / "dmat_oracle_euler_20.out").read_bytes()).hexdigest()),
    HASHED["dmat_oracle_euler_200"],
    *(
        (["verify", "--suite", suite, "--max-l-x2", "6", "--seed", "0"], VERIFY_HASHED[suite])
        for suite in ("routes", "unitarity", "homomorphism", "legendre")
    ),
]
# Runs each argv list of argv[1] (JSON) and prints its exit code and the
# sha256 of its stdout, one line each.
RUN_AND_HASH = """
import contextlib, hashlib, io, json, sys
from wignerkit.cli import main
from wignerkit.wigner import ROTATION_ROUTES
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    print(code, hashlib.sha256(out.getvalue().encode()).hexdigest())
"""


@pytest.mark.parametrize("kernel", OTHER_KERNELS)
def test_stdout_is_the_same_on_other_blas_kernels(kernel):
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "PYTHONPATH": str(SRC)}
    argvs = json.dumps([argv for argv, _ in KERNEL_PINS])
    run = subprocess.run([sys.executable, "-c", RUN_AND_HASH, argvs], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split("\n")[:-1] == [f"0 {digest}" for _, digest in KERNEL_PINS]


# numpy picks its loops by CPU feature level.  With its AVX-512 levels turned
# off, the AVX2 level (X86_V3) is the highest left, and every dmat command
# must print the bytes pinned above.  Below X86_V3 numpy does not fuse complex
# products with FMA, so the oracle's last bits change there (ROADMAP item 8).
# The chart forms multiply a real d(theta) by chart_phases, one exponential
# per entry, so their bytes hold below X86_V3 too.  numpy reads
# NPY_DISABLE_CPU_FEATURES when it loads, so each run gets a fresh
# interpreter.  A feature that this CPU or this numpy build lacks is left out
# of the variable, because numpy warns about it; with none left, the run is at
# the default level.
AVX512_LEVELS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
DMAT_PINS = [
    *(
        (argv, hashlib.sha256((GOLDEN / f"{name}.out").read_bytes()).hexdigest())
        for name, argv in COMMANDS.items()
        if argv[0] == "dmat"
    ),
    *(pin for pin in HASHED.values() if pin[0][0] == "dmat"),
]


def route_of(argv):
    return argv[argv.index("--route") + 1] if "--route" in argv else "auto"


# The dmat pins of an Euler source on a route with a chart form.
CHART_PINS = [pin for pin in DMAT_PINS if "--theta" in pin[0] and route_of(pin[0]) in ROTATION_ROUTES]


def assert_pins_hold_without(levels, pins):
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    disabled = [f for f in levels if f in __cpu_dispatch__ and __cpu_features__.get(f)]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(disabled), "PYTHONPATH": str(SRC)}
    env.pop("NPY_ENABLE_CPU_FEATURES", None)  # numpy refuses both variables at once
    argvs = json.dumps([argv for argv, _ in pins])
    run = subprocess.run([sys.executable, "-c", RUN_AND_HASH, argvs], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split("\n")[:-1] == [f"0 {digest}" for _, digest in pins]


def test_dmat_stdout_is_the_same_without_avx512():
    assert_pins_hold_without(AVX512_LEVELS, DMAT_PINS)


def test_chart_route_stdout_is_the_same_without_avx2():
    assert len(CHART_PINS) == 6 and {route_of(argv) for argv, _ in CHART_PINS} == set(ROTATION_ROUTES)
    assert_pins_hold_without(("X86_V3", *AVX512_LEVELS), CHART_PINS)
