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
        "45bcca6eecfe78096c0c7875c051f29561fd6acff3dad8e973fd676ee047c677",
    ),
    "dmat_oracle_euler_200": (
        ["dmat", "--l-x2", "200", *EULER_ANGLES],
        "622ec46bc5a453e2774e09662dcbe0780dab77b89cecafea52f6e2750cdb061b",
    ),
    "dmat_oracle_euler_400": (
        ["dmat", "--l-x2", "400", *EULER_ANGLES],
        "41dd78703d619f03c5b9491eafcba199ebe0d982c6681b9513315da79786280d",
    ),
    "dmat_oracle_matrix_60": (
        ["dmat", "--l-x2", "60", "--matrix", "30,1,2,0.5,0.3,-1,0.1,0.04"],
        "6690eeebc08a50000437cd38c0994b0f9a1045c99d6ce373e4ec4a78a411b76a",
    ),
    "dmat_oracle_euler_40_csv": (
        ["dmat", "--l-x2", "40", *EULER_ANGLES, "--format", "csv"],
        "008886f750934bc2d0c608395bdf1262b0c87e001eacc9876c519a0246ddb26c",
    ),
    "dmat_krawtchouk_40_csv": (
        ["dmat", "--l-x2", "40", "--theta", "0.7", "--route", "krawtchouk", "--format", "csv"],
        "1d8a6c135e57e82d3b3ed9d2c2bb0a6da0f25d5623112c5a977b5e0781aa4b6e",
    ),
    # The Jacobi chart form at a spin where the oracle is far from unitary.
    "dmat_jacobi_euler_200": (
        ["dmat", "--l-x2", "200", *EULER_ANGLES, "--route", "jacobi"],
        "62b0ec74686bb901d498484aebfaf4ef91b9e4106cff882e907cd47e089e5a5d",
    ),
    "dmat_oracle_theta0_12_csv": (
        ["dmat", "--l-x2", "12", "--theta", "0.0", "--format", "csv"],
        "8dc9b3f0c3a2936a0ef290646581803076a5fc0e822e207f45ec7280725be1a9",
    ),
    # The suites that build oracle stacks, at the CLI cap, where the stacks
    # are largest (VERIFY_HASHED below pins them at 6).
    "verify_unitarity_12": (
        ["verify", "--suite", "unitarity", "--max-l-x2", "12", "--seed", "0"],
        "3dbe795e81a3606c9ddbdbf95287ddbd2bc960372c4b902a06de636402246cc8",
    ),
    "verify_homomorphism_12": (
        ["verify", "--suite", "homomorphism", "--max-l-x2", "12", "--seed", "0"],
        "71115f8cda7760b7b0fd353413f9c9a6fc042dc9adaf409d74547d9b58f5ada3",
    ),
    "verify_routes_12_seed_0": (
        ["verify", "--suite", "routes", "--max-l-x2", "12", "--seed", "0"],
        "670abe5f1922d387fa8f956bf37beb939e51ce8c530e4a1071876d753102d330",
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


# Every verify suite but schur and all, at --max-l-x2 6 with seed 0, pinned by
# the sha256 of its stdout.  None makes a BLAS product, so the bytes do not
# depend on the BLAS kernel or thread count; schur and all, which run the Schur
# reduction, do.  SCHUR_HASHED pins schur at one BLAS thread.
VERIFY_HASHED = {
    "routes": "2ab5a5c34dba3317f5a9c23a0d02e002ab1796a40cfedb21079b183ddbe937a5",
    "unitarity": "e0f1d186daf6ea369381a8407599f4564fdd6bd5eb5442abd6e26a92cdee1f97",
    "homomorphism": "5bd9f90efcf3d71fe031f61f0d95c2c653d43cb748d61ed6fdc43954586bdc73",
    "jacobi-orth": "2718a66b82824c32a43f98004b0af686018b6433cdc3a3c949df67e1fe58f472",
    "legendre": "d80419bee09b2604f969f43e540d00c2afc94baf772039204911ec868038de4e",
    "krawtchouk-sym": "716f260807f37b60e692ebb30f007abb8a6d2f88b9b078449c73300e0d5027f6",
    "character": "30f943f3995d86cd1b623365ac5a71dbec08260f49cc50daee593a89c35eba98",
}
SCHUR_HASHED = "6f15af7badebcbf0ec1acac4cf6548f04bf3554d26f1d9c80fc2c7e27d10d9a4"


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
    env["OPENBLAS_NUM_THREADS"] = "1"  # the Schur pins' BLAS product holds at one thread
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


# The Haar angles are drawn with math.acos, one sample at a time, so every
# verify pin, the suites that read Haar samples or the grid included, prints
# the same bytes with the AVX-512 levels off.
VERIFY_PINS = [
    *(
        (argv, hashlib.sha256((GOLDEN / f"{name}.out").read_bytes()).hexdigest())
        for name, argv in COMMANDS.items()
        if argv[0] == "verify"
    ),
    *(pin for pin in HASHED.values() if pin[0][0] == "verify"),
    *(
        (["verify", "--suite", suite, "--max-l-x2", "6", "--seed", "0"], digest)
        for suite, digest in [*VERIFY_HASHED.items(), ("schur", SCHUR_HASHED)]
    ),
]


def test_verify_stdout_is_the_same_without_avx512():
    assert len(VERIFY_PINS) == 16
    assert_pins_hold_without(AVX512_LEVELS, VERIFY_PINS)
