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
from wignerkit.wigner import ORACLE_TRUSTED_L_X2, ROTATION_ROUTES

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
# The oracle's JSON ones (0.2 to 13.6 MB) were first recorded with the
# %-template matrix writer that floatrepr's kernel replaced; the matrix
# source prints in exponent form.  The CSV ones pin the str(complex) writer:
# exponent forms at l_x2 40, "+0j" parts of a real matrix, and bare "0j" and
# "-1+0j" at theta = 0.
EULER_ANGLES = ["--theta", "0.7", "--phi", "1.2", "--psi", "0.3"]
HASHED = {
    # auto above the oracle's trusted spin: the recurrence in the spin
    "dmat_auto_euler_45": (
        ["dmat", "--l-x2", "45", *EULER_ANGLES],
        "6374bcef60b3db628858d1ca051649fde44910f3b123d76eb0358819ca8868e0",
    ),
    "dmat_auto_euler_200": (
        ["dmat", "--l-x2", "200", *EULER_ANGLES],
        "0e2840b9a1ccd170258d9f8618659fcc4606b64d60cf4500603fd3ca02606577",
    ),
    "dmat_auto_euler_400": (
        ["dmat", "--l-x2", "400", *EULER_ANGLES],
        "ed4d6c97ff3b27eced2c758c05139399542bb35e385898a8cd469f5fe0621825",
    ),
    # The oracle where it is far from unitary (residual 4.4e25), kept on
    # purpose: its matrix is the one auto printed at this spin before.
    "dmat_oracle_euler_200": (
        ["dmat", "--l-x2", "200", *EULER_ANGLES, "--route", "oracle"],
        "8b52e8142099d12b74e684feedad845d5daf8d2215b005d34d46842a097ec409",
    ),
    "dmat_recurrence_euler_201": (
        ["dmat", "--l-x2", "201", *EULER_ANGLES, "--route", "recurrence"],
        "266b04a3eae89e54e8c0d5ce0e9381c5a4c74e38f40236219ec16eb4be6e6530",
    ),
    "dmat_recurrence_euler_400": (
        ["dmat", "--l-x2", "400", *EULER_ANGLES, "--route", "recurrence"],
        "61b97668af6b98e6a68451eb049c097e31ae6b337f2b01faac2e47d16ceb3f22",
    ),
    "dmat_oracle_matrix_60": (
        ["dmat", "--l-x2", "60", "--matrix", "30,1,2,0.5,0.3,-1,0.1,0.04"],
        "a34e3f1a3ff65a59f33b3f08b6a06cdd821df1afa152d2c596beb8f50a095eac",
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
        "6cbc90d33311c67880781f8f37670cfa9bfb651b18fd06bedf4d8af6fb1fcd28",
    ),
    "dmat_oracle_theta0_12_csv": (
        ["dmat", "--l-x2", "12", "--theta", "0.0", "--format", "csv"],
        "8dc9b3f0c3a2936a0ef290646581803076a5fc0e822e207f45ec7280725be1a9",
    ),
    # The suites that build oracle stacks, at the CLI cap, where the stacks
    # are largest (VERIFY_HASHED below pins them at 6).
    "verify_unitarity_12": (
        ["verify", "--suite", "unitarity", "--max-l-x2", "12", "--seed", "0"],
        "dd15425496ddd5319c5d3797622a16e66304be82ce5681a02bd96cdba3aeafb1",
    ),
    "verify_homomorphism_12": (
        ["verify", "--suite", "homomorphism", "--max-l-x2", "12", "--seed", "0"],
        "d94eea852222baab1e6d01e7c80d08a3a10a01547c380baa2261fe0aa8951e45",
    ),
    "verify_routes_12_seed_0": (
        ["verify", "--suite", "routes", "--max-l-x2", "12", "--seed", "0"],
        "303f7cb36135f0c8a0df26edbc3b95d18c0510fd14b54d60180a790084d54eff",
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
    "routes": "69a10fa09825e40b879e12a6d0e8245e1a70f612a2b7dd671b53b9b8716b085e",
    "unitarity": "ea6ac8c55759930c6bfcc458be109bcf64bfc84b2c4f37139d3b190c72d007be",
    "homomorphism": "820775ba3e85f6c3169bb49c033b07c8616d57fadc2d7f66285f636cbe3d6cc8",
    "jacobi-orth": "8e9f6c130109194cc65c147f4c7ff04824e412096d88f19c8ea6cf23f93f5838",
    "legendre": "ef7d1f8e7753f5da29441ce999668bc5165e13294cbd36cc3b184f74700aefda",
    "krawtchouk-sym": "c2925c7b560c370e5ac69e9c65ac39a2bf74a0e4d4f53e5e9089995101125e5f",
    "character": "7fb169793306e64a014236ab1d010f0fec85624118a67e44e94a8c113b63ec5c",
}
SCHUR_HASHED = "629a3ec3e7f151e49806ddaef044cfb862452f6e1d516affb26301a18b9733bb"


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
    # source above the oracle's trusted spin and the oracle elsewhere.
    route = argv[argv.index("--route") + 1] if "--route" in argv else "auto"
    if route != "auto":
        return route
    high = int(argv[argv.index("--l-x2") + 1]) > ORACLE_TRUSTED_L_X2
    return "recurrence" if "--theta" in argv and high else "oracle"


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
    assert len(CHART_PINS) == 11 and {route_of(argv) for argv, _ in CHART_PINS} == set(ROTATION_ROUTES)
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
