"""CLI stdout pinned byte for byte.

Each file under tests/golden/ holds the stdout of one command.  A change to
how any number is computed must leave these bytes alone; a deliberate output
change replaces the files and bumps the schema version.  Only the Schur
reduction makes a BLAS product, so only its last digits can depend on the BLAS kernel
and thread count; the pinned verify commands that run it stay at spins small
enough that their output was the same with one BLAS thread and with the
default thread count.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wignerkit.cli import main

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
        "ee66be0540bd9641487fc63448f956bb5eb1e03423367839d76dbd247a5749f6",
    ),
    "dmat_oracle_euler_200": (
        ["dmat", "--l-x2", "200", *EULER_ANGLES],
        "1d5680eb5c7b2e80e3b4a632859e2a18427a8705313f5e60aa11af3f71285e83",
    ),
    "dmat_oracle_euler_400": (
        ["dmat", "--l-x2", "400", *EULER_ANGLES],
        "43eb02a51a2ad73b919244945d6d16e29badcf9c94c9da12b815553c5517b87b",
    ),
    "dmat_oracle_matrix_60": (
        ["dmat", "--l-x2", "60", "--matrix", "30,1,2,0.5,0.3,-1,0.1,0.04"],
        "c5b732ba989be455b16dd4575f041f318bd5a3c1fe57c3a280da01a075f6ae6d",
    ),
    "dmat_oracle_euler_40_csv": (
        ["dmat", "--l-x2", "40", *EULER_ANGLES, "--format", "csv"],
        "008886f750934bc2d0c608395bdf1262b0c87e001eacc9876c519a0246ddb26c",
    ),
    "dmat_krawtchouk_40_csv": (
        ["dmat", "--l-x2", "40", "--theta", "0.7", "--route", "krawtchouk", "--format", "csv"],
        "c370d9ec51c4d35b2d3b6c0405643b4f48eb65cf8f7f59248eac9f262f237781",
    ),
    "dmat_oracle_theta0_12_csv": (
        ["dmat", "--l-x2", "12", "--theta", "0.0", "--format", "csv"],
        "8dc9b3f0c3a2936a0ef290646581803076a5fc0e822e207f45ec7280725be1a9",
    ),
    # The suites that build oracle stacks, at the CLI cap, where the stacks
    # are largest (VERIFY_HASHED below pins them at 6).
    "verify_unitarity_12": (
        ["verify", "--suite", "unitarity", "--max-l-x2", "12", "--seed", "0"],
        "ba3444b91cfd4e2d1eb992c5a3a3b833392bc695a404cca9b58e7522f3afd8b7",
    ),
    "verify_homomorphism_12": (
        ["verify", "--suite", "homomorphism", "--max-l-x2", "12", "--seed", "0"],
        "2664ec2ce6fe1665fa6c904515ee3dbf9905ce7a347054cab00a6e9eaef8eeef",
    ),
    "verify_routes_12_seed_0": (
        ["verify", "--suite", "routes", "--max-l-x2", "12", "--seed", "0"],
        "b9458599ce76da78c15bb5bea03dccc31f98cba07658eecd163022daf8ff509f",
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
    "routes": "0749aab73c89e724aa30efca7f707873b768f1d887d1c30cf0319a0e53835711",
    "unitarity": "187a3075cb2ed7b9bbd6907ff35875ee323e994afa1477e3900004c99e70b68c",
    "homomorphism": "1df2826b50232f0ffe7ff4e7215d0d22300ab758f7dcc1511ceb89b66d776d33",
    "jacobi-orth": "351562471724d33673e3d70db9f2cfeec53a0e623672bed3648ba9e61db663cd",
    "legendre": "55d793ab19dd29f10193e12809c9949011ee13538c2d5f466172c28b90fa2544",
    "krawtchouk-sym": "dfddbca9d60a7fa8f1d4b7ba4c8af97c37b22a94908e861fbb5546b511b6773f",
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
