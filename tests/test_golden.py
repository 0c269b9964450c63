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
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from wignerkit.cli import main
from wignerkit.haar import gauss_legendre
from wignerkit.specfun import JacobiParams, jacobi_eval
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
    "dmat_auto_euler_20": ["dmat", "--l-x2", "20", "--theta", "0.7", "--phi", "1.2", "--psi", "0.3"],
    "dmat_oracle_matrix_20": ["dmat", "--l-x2", "20", "--matrix", "0.9,0.1,-0.2,0.3,0.5,-0.1,0.8,0.2"],
    "verify_routes_3": ["verify", "--suite", "routes", "--max-l-x2", "3", "--seed", "1"],
    "verify_routes_12": ["verify", "--suite", "routes", "--max-l-x2", "12", "--seed", "42"],
    "verify_all_2": ["verify", "--suite", "all", "--max-l-x2", "2", "--seed", "3"],
    "verify_jacobi_orth_6": ["verify", "--suite", "jacobi-orth", "--max-l-x2", "6", "--seed", "0"],
    "dmat_krawtchouk_16": ["dmat", "--l-x2", "16", "--theta", "0.7", "--route", "krawtchouk"],
    "dmat_jacobi_euler": ["dmat", "--l-x2", "8", "--theta", "0.7", "--phi", "1.2", "--psi", "0.3", "--route", "jacobi"],
}


# Larger outputs are pinned by the sha256 of their stdout instead of a file.
# The oracle's JSON ones (0.2 to 13.6 MB) were first recorded with the
# %-template matrix writer that floatrepr's kernel replaced; the matrix
# source prints in exponent form.  The CSV ones pin the str(complex) writer:
# exponent forms at l_x2 40, "+0j" parts of a real matrix, and bare "0j" and
# "-0+0j" at theta = 0.
EULER_ANGLES = ["--theta", "0.7", "--phi", "1.2", "--psi", "0.3"]
HASHED = {
    # auto on an Euler source: the recurrence in the spin
    "dmat_auto_euler_45": (
        ["dmat", "--l-x2", "45", *EULER_ANGLES],
        "ad0f56f75c23e06e8c53f497bf63945eb84d6641e5a2804318869d3bee9269b4",
    ),
    "dmat_auto_euler_200": (
        ["dmat", "--l-x2", "200", *EULER_ANGLES],
        "f5f453b9091d966cdd1cd39d6f79159e3c605a7f1ac7d7f6130e37208f093ec3",
    ),
    "dmat_auto_euler_400": (
        ["dmat", "--l-x2", "400", *EULER_ANGLES],
        "7ebc4e0ac36ce7fd6a000751a735412e99851ed35748d44dc5d9eb2b94c10ad1",
    ),
    # The oracle where it is far from unitary (residual 4.4e25), kept on
    # purpose: its matrix is the one auto printed at this spin up to schema 8.
    "dmat_oracle_euler_200": (
        ["dmat", "--l-x2", "200", *EULER_ANGLES, "--route", "oracle"],
        "fc30e497b4f123bd571c808c3d030b5beeb8030e70284afe504a82e042dbb80d",
    ),
    "dmat_recurrence_euler_201": (
        ["dmat", "--l-x2", "201", *EULER_ANGLES, "--route", "recurrence"],
        "9a90d7db7f7f86be717c60637741a3d1a191c09ae2d1600a25ac9849ecc2ed57",
    ),
    "dmat_recurrence_euler_400": (
        ["dmat", "--l-x2", "400", *EULER_ANGLES, "--route", "recurrence"],
        "d36499d84b823f40a9172be10fd5f1c8e6c6cc1f777524fd65ebab1ab771b412",
    ),
    "dmat_oracle_matrix_60": (
        ["dmat", "--l-x2", "60", "--matrix", "30,1,2,0.5,0.3,-1,0.1,0.04"],
        "42fb30a1201f163195d6704ccf93052e70d28c6dc1b9a9109abe741c4d48d590",
    ),
    "dmat_auto_euler_40_csv": (
        ["dmat", "--l-x2", "40", *EULER_ANGLES, "--format", "csv"],
        "5ba8d07ef15bbb3eb768fef4fb6b3448a58d66eec2c03d996fba25a03ee25687",
    ),
    "dmat_krawtchouk_40_csv": (
        ["dmat", "--l-x2", "40", "--theta", "0.7", "--route", "krawtchouk", "--format", "csv"],
        "1d8a6c135e57e82d3b3ed9d2c2bb0a6da0f25d5623112c5a977b5e0781aa4b6e",
    ),
    # The Jacobi chart form at a spin where the oracle is far from unitary.
    "dmat_jacobi_euler_200": (
        ["dmat", "--l-x2", "200", *EULER_ANGLES, "--route", "jacobi"],
        "86fe54b45b4f3cc4c637c9204ce613e81d7a46299c0a5841b2ec161030b49a35",
    ),
    "dmat_auto_theta0_12_csv": (
        ["dmat", "--l-x2", "12", "--theta", "0.0", "--format", "csv"],
        "03b611f5bc5957b449f00b959f2a8ed0f7d3bde4876c7e6b0d902fca4c5b8799",
    ),
    # The suites that build oracle stacks, at the CLI cap, where the stacks
    # are largest (VERIFY_HASHED below pins them at 6).
    "verify_unitarity_12": (
        ["verify", "--suite", "unitarity", "--max-l-x2", "12", "--seed", "0"],
        "0f6e12b47dc4d310cc86a51c881d73325d6e88c709b123781dd6695f225131e3",
    ),
    "verify_homomorphism_12": (
        ["verify", "--suite", "homomorphism", "--max-l-x2", "12", "--seed", "0"],
        "4d3ad3f76a630fc65fac46e4289f685a0af6011c40c5753bde006929a8f69c2d",
    ),
    "verify_routes_12_seed_0": (
        ["verify", "--suite", "routes", "--max-l-x2", "12", "--seed", "0"],
        "9dc5c93fbca1c7f87903588f488e5955e62260ec165a546eb9e55b7bd2afcbd5",
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
    "routes": "ba11a2e35851c6567fe4dc2ac7ba30a92b0a8a45023458de13b1b198cb9adf26",
    "unitarity": "1af5191f001c8af003e1d52bc60f00e88c0814d5ade403988dd1f95ba83e0de7",
    "homomorphism": "842f19815ffc7af3a115198e89e5e08ca7c8d33f77b5b0252d661386ecd8a904",
    "jacobi-orth": "0bfab236902f3c22abe79c23649afe2c6e95cdb191320c72156145d9a6cffd6f",
    "legendre": "4e5942d467079b627afe31197791c01f0f0b91be8b71e212d434f21283d76ed3",
    "krawtchouk-sym": "57c2edc18b98daa5c9824e69758ce3d5d6478363182a363d66f11b0916fcf2d7",
    "character": "1f03caeda4011fd8eae642c1d81a57db77207f92f6546defa1a9cebf8b0851b2",
}
SCHUR_HASHED = "1288211faab766891cf8679a83d97e2c725f155dc4d52cba5ccdfa85118fee8a"


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
    (COMMANDS["dmat_auto_euler_20"], hashlib.sha256((GOLDEN / "dmat_auto_euler_20.out").read_bytes()).hexdigest()),
    HASHED["dmat_auto_euler_200"],
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
    # The route that prints the pin: auto takes the recurrence for an Euler
    # source and the oracle for a matrix source.
    route = argv[argv.index("--route") + 1] if "--route" in argv else "auto"
    if route != "auto":
        return route
    return "recurrence" if "--theta" in argv else "oracle"


# The dmat pins of an Euler source on a route with a chart form.
CHART_PINS = [pin for pin in DMAT_PINS if "--theta" in pin[0] and route_of(pin[0]) in ROTATION_ROUTES]


def assert_pins_hold_without(levels, pins, script=RUN_AND_HASH, extra=()):
    # extra: the lines that script prints after those of the pins.
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    disabled = [f for f in levels if f in __cpu_dispatch__ and __cpu_features__.get(f)]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(disabled), "PYTHONPATH": str(SRC)}
    env["OPENBLAS_NUM_THREADS"] = "1"  # the Schur pins' BLAS product holds at one thread
    env.pop("NPY_ENABLE_CPU_FEATURES", None)  # numpy refuses both variables at once
    argvs = json.dumps([argv for argv, _ in pins])
    run = subprocess.run([sys.executable, "-c", script, argvs], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split("\n")[:-1] == [*(f"0 {digest}" for _, digest in pins), *extra]


def test_dmat_stdout_is_the_same_without_avx512():
    assert_pins_hold_without(AVX512_LEVELS, DMAT_PINS)


# Two blocks of verify_all_0 that take specfun's double-double Jacobi kernel,
# the reflection check's 539 rows at 21 shared nodes and the weighted family
# below; their values must be scalar jacobi_eval's exact sums at every feature
# level.  verify_all_0 itself runs the oracle, whose bytes move below X86_V3
# (the legendre checks), so its pin holds in the AVX-512 test below.
REFLECTION_BLOCK = """
from itertools import product
import numpy as np
from wignerkit.specfun import JacobiParams, jacobi_values
params = [JacobiParams(*t) for t in product(range(7), range(7), range(11))]
print(hashlib.sha256(jacobi_values(params, np.arange(-10, 11) / 10).tobytes()).hexdigest())
"""


# The jacobi-orth suite's weighted family, the block whose rows each take
# their own nodes: 225 rows (alpha, beta, n), each at its Gauss rule padded to
# 13 nodes by repeating the last.  The nodes enter the script as literals, so
# both sides evaluate at the same floats whatever leggauss gives at a level.
WEIGHTED_BLOCK = """
from wignerkit.specfun import jacobi_rows
params = [JacobiParams(al, be, n) for al, be in product(range(5), repeat=2) for n in range(9)]
print(hashlib.sha256(jacobi_rows(params, np.array({nodes})).tobytes()).hexdigest())
"""


def exact_hash(params, nodes):
    # The sha256 of the scalar jacobi_eval values, row r at nodes[r].
    values = np.array([[jacobi_eval(p, x) for x in row] for p, row in zip(params, nodes)])
    return hashlib.sha256(values.tobytes()).hexdigest()


def test_chart_route_stdout_is_the_same_without_avx2():
    assert len(CHART_PINS) == 14 and {route_of(argv) for argv, _ in CHART_PINS} == set(ROTATION_ROUTES)
    params = [JacobiParams(*t) for t in product(range(7), range(7), range(11))]
    reflection = exact_hash(params, [(np.arange(-10, 11) / 10).tolist()] * len(params))
    blocks = list(product(range(5), repeat=2))
    rules = [gauss_legendre((2 * 8 + al + be) // 2 + 1)[0] for al, be in blocks]
    nodes = np.repeat([x[np.minimum(np.arange(13), len(x) - 1)] for x in rules], 9, axis=0).tolist()
    weighted = exact_hash([JacobiParams(al, be, n) for al, be in blocks for n in range(9)], nodes)
    script = RUN_AND_HASH + REFLECTION_BLOCK + WEIGHTED_BLOCK.format(nodes=nodes)
    assert_pins_hold_without(("X86_V3", *AVX512_LEVELS), CHART_PINS, script, [reflection, weighted])


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
