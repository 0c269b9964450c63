"""CLI stdout pinned byte for byte.

Each file under tests/golden/ holds the stdout of one command.  A change to
how any number is computed must leave these bytes alone; a deliberate output
change replaces the files and bumps the schema version.  The Schur check's
last digits can depend on the BLAS thread count; the pinned verify commands
stay at spins small enough that their output was the same with one BLAS
thread and with the default thread count.
"""
import hashlib
from pathlib import Path

import pytest

from wignerkit.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

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
        "61aaf68b95efc714c97b726324c397e956b5952ddba42e4bb0a1a523db92de18",
    ),
    "dmat_oracle_euler_200": (
        ["dmat", "--l-x2", "200", *EULER_ANGLES],
        "5900ee963b64b1117527cfc52efbac4da3e50046f241ba439d3b0c2b37414836",
    ),
    "dmat_oracle_euler_400": (
        ["dmat", "--l-x2", "400", *EULER_ANGLES],
        "17101899459eeca907a813f669f80a2006a526f09d16395341a84f4257f68316",
    ),
    "dmat_oracle_matrix_60": (
        ["dmat", "--l-x2", "60", "--matrix", "30,1,2,0.5,0.3,-1,0.1,0.04"],
        "3c44fe79b7235012fbb29a4077ab63b58e1d878a7916d64785a0760cf3e8c992",
    ),
    "dmat_oracle_euler_40_csv": (
        ["dmat", "--l-x2", "40", *EULER_ANGLES, "--format", "csv"],
        "67cd3393356e9435d4b7d135ca3b8fc04c85a71724e74ba2574bbe4fcda41f1b",
    ),
    "dmat_krawtchouk_40_csv": (
        ["dmat", "--l-x2", "40", "--theta", "0.7", "--route", "krawtchouk", "--format", "csv"],
        "c370d9ec51c4d35b2d3b6c0405643b4f48eb65cf8f7f59248eac9f262f237781",
    ),
    "dmat_oracle_theta0_12_csv": (
        ["dmat", "--l-x2", "12", "--theta", "0.0", "--format", "csv"],
        "8dc9b3f0c3a2936a0ef290646581803076a5fc0e822e207f45ec7280725be1a9",
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
# pinned by the sha256 of its stdout.  Each gave the same bytes with one BLAS
# thread and with the default thread count; schur, character and all do not.
VERIFY_HASHED = {
    "routes": "1b8f29856f7962155944fd842b4e3f59f2e6471c660ffdc48dc4f97b1861a6ce",
    "unitarity": "c6a7957a5dfb1b4b7fb17d7c19ed7c5bd1aa20161709479dd9f9c65b25607b76",
    "homomorphism": "df9c24ed690e0f3736e72426ff8a36725c38edff8ab56df716ce2c6396a191e4",
    "jacobi-orth": "ba798099a44bdbfc5c9d5904f3403add6a59f772ce90122cbbd01db94f7b337b",
    "legendre": "be8006139f5d1b6892c9425e0bce98c38af0073ef9584f18c222b45c26e5b9fd",
    "krawtchouk-sym": "a61b60859a2ab671781a4026dfad5b96e4175c3f64e6e282481c2acd87895bdf",
}


@pytest.mark.parametrize("suite", sorted(VERIFY_HASHED))
def test_verify_suite_stdout_is_byte_identical(suite, capsys):
    assert main(["verify", "--suite", suite, "--max-l-x2", "6", "--seed", "0"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == VERIFY_HASHED[suite]
