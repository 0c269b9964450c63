"""CLI stdout pinned byte for byte.

Each file under tests/golden/ holds the stdout of one command.  A change to
how any number is computed must leave these bytes alone; a deliberate output
change replaces the files and bumps the schema version.  The Schur check's
last digits can depend on the BLAS thread count; the pinned verify commands
stay at spins small enough that their output was the same with one BLAS
thread and with the default thread count.
"""
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
}


def test_every_golden_file_has_a_command():
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_is_byte_identical(name, capsys):
    assert main(COMMANDS[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.out").read_bytes()
