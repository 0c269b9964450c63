"""CLI stdout pinned byte for byte.

Each file under tests/golden/ holds the stdout of one command.  A change to
how any number is computed must leave these bytes alone; a deliberate output
change replaces the files and bumps the schema version.  No command makes a
BLAS product: the Schur reduction reads FFT phase spectra and sums in a
fixed order, so the pins hold under every OpenBLAS kernel, at one BLAS
thread and at the default thread count.  numpy's CPU feature level is the
one source left: the oracle's dmat bytes hold down to numpy's AVX2 level, not
below it.
"""
import contextlib
import hashlib
import io
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

from test_route_tables import PHASE_SPINS, direct_phases, phase_angles

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
        "32477b185237f0b7562ce56e0ecb5e09b595ad64a7897720bf4e24b00aef1004",
    ),
    "dmat_auto_euler_200": (
        ["dmat", "--l-x2", "200", *EULER_ANGLES],
        "110d2251558c4e730d8bac7792b3022f9dc6d28042c20303b9ad2adb0a4d93eb",
    ),
    "dmat_auto_euler_400": (
        ["dmat", "--l-x2", "400", *EULER_ANGLES],
        "375b76ab126e5f6c57c12f681730ec1a6e6237e146bf672dc63a6f5e9c2b1cba",
    ),
    # The oracle where it is far from unitary (residual 4.4e25), kept on
    # purpose: its matrix is the one auto printed at this spin up to schema 8.
    "dmat_oracle_euler_200": (
        ["dmat", "--l-x2", "200", *EULER_ANGLES, "--route", "oracle"],
        "b58f6fbb04dc84137f566532d7a073dae46f181be5e75e8ad01c15665e0ae4cb",
    ),
    "dmat_recurrence_euler_201": (
        ["dmat", "--l-x2", "201", *EULER_ANGLES, "--route", "recurrence"],
        "27e80653a3b03e6249f742990bdb1baa7ae584cdbd50734c3b0185ffd1daf31b",
    ),
    "dmat_recurrence_euler_400": (
        ["dmat", "--l-x2", "400", *EULER_ANGLES, "--route", "recurrence"],
        "a5f69eaa937958cca4ca14afab53ceec234b1a912cf7395c5c9fc747309ab967",
    ),
    "dmat_oracle_matrix_60": (
        ["dmat", "--l-x2", "60", "--matrix", "30,1,2,0.5,0.3,-1,0.1,0.04"],
        "ede45f74657935e17ac05fc022ec18dc7e7bc6a29cab066f44b8ff973b0ccfae",
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
        "e14f2773d7d189b52d85cc1b45ce5b48e560f682f398ff9eef0bef4ed2f3ab61",
    ),
    "dmat_auto_theta0_12_csv": (
        ["dmat", "--l-x2", "12", "--theta", "0.0", "--format", "csv"],
        "03b611f5bc5957b449f00b959f2a8ed0f7d3bde4876c7e6b0d902fca4c5b8799",
    ),
    # The suites that build oracle stacks, at the CLI cap, where the stacks
    # are largest (VERIFY_HASHED below pins them at 6).
    "verify_unitarity_12": (
        ["verify", "--suite", "unitarity", "--max-l-x2", "12", "--seed", "0"],
        "1d4955544ed1b24e8e468944076c140a24a037a07da9b892a3a4e5bd0bc62b9f",
    ),
    "verify_homomorphism_12": (
        ["verify", "--suite", "homomorphism", "--max-l-x2", "12", "--seed", "0"],
        "8d9f4f9f9771e2e12126fd424d389a5035957202d9484273de6e1d429c85c9a7",
    ),
    "verify_routes_12_seed_0": (
        ["verify", "--suite", "routes", "--max-l-x2", "12", "--seed", "0"],
        "bd77eaffd17b03d4721a2db65319ec3d4fa9a8507588fe48ce2e3075e1211829",
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
# the sha256 of its stdout, and schur by SCHUR_HASHED.  None makes a BLAS
# product, so the bytes do not depend on the BLAS kernel or thread count.
VERIFY_HASHED = {
    "routes": "be91601af4c6e85b76aa2adff3213fb1c1d3bf895ed41b85e26691a29d33921c",
    "unitarity": "04d1bfd2e975a49e27fe5cbf6d4244de307fcc10b2f8fe4026baa249f94a8236",
    "homomorphism": "0cc86b63325571ffe880c44fb698346eb5e64f0cb2ddddeaafcf7041c653991b",
    "jacobi-orth": "325099bca972de14be26b8d210f61754d39e6045e60759a10b4dd96462441d79",
    "legendre": "ca7b3041d075bdcc810583a0f4468bbb0b6bdfffa2568924d6f5635f6f79daf4",
    "krawtchouk-sym": "5bcff1e5fcc8348f9a63ee5f5a632cd8b55fdf8d67909071a7fba57b48fefcd0",
    "character": "dfb27b8d5a376c1c724f931292cd7c96783cd676c1a9fbde95aa56e60999ad08",
}
SCHUR_HASHED = "f17911810a72f7a4150f0fa036cdbf8fcd820b6a36340e1c0f52fcce0cd6faaa"


@pytest.mark.parametrize("suite", sorted(VERIFY_HASHED))
def test_verify_suite_stdout_is_byte_identical(suite, capsys):
    assert main(["verify", "--suite", suite, "--max-l-x2", "6", "--seed", "0"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == VERIFY_HASHED[suite]


# Commands run under other OpenBLAS kernels must print the bytes pinned above,
# the Schur suite and all included: up to schema 12 the Schur reduction was a
# BLAS product, and under Haswell, Zen and Sandybridge schur and all printed
# other bytes than under SkylakeX.  OPENBLAS_CORETYPE names the kernel;
# OpenBLAS reads it when numpy loads, so each kernel gets a fresh interpreter.
# An OpenBLAS built without DYNAMIC_ARCH ignores the variable and runs its one
# kernel.
OTHER_KERNELS = ("Haswell", "Zen", "Sandybridge")
KERNEL_PINS = [
    *(
        (COMMANDS[name], hashlib.sha256((GOLDEN / f"{name}.out").read_bytes()).hexdigest())
        for name in ("dmat_auto_euler_20", "verify_all_2")
    ),
    HASHED["dmat_auto_euler_200"],
    *(
        (["verify", "--suite", suite, "--max-l-x2", "6", "--seed", "0"], digest)
        for suite, digest in {**VERIFY_HASHED, "schur": SCHUR_HASHED}.items()
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


def assert_pins_hold(env, pins, script=RUN_AND_HASH, extra=()):
    # Runs script in a fresh interpreter with env, once at one BLAS thread and
    # once at the default thread count; extra: the lines that script prints
    # after those of the pins.
    argvs = json.dumps([argv for argv, _ in pins])
    for threads in ("1", None):
        run_env = {k: v for k, v in env.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        if threads:
            run_env["OPENBLAS_NUM_THREADS"] = threads
        run = subprocess.run([sys.executable, "-c", script, argvs], env=run_env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split("\n")[:-1] == [*(f"0 {digest}" for _, digest in pins), *extra], threads


@pytest.mark.parametrize("kernel", OTHER_KERNELS)
def test_stdout_is_the_same_on_other_blas_kernels(kernel):
    assert_pins_hold({**os.environ, "OPENBLAS_CORETYPE": kernel, "PYTHONPATH": str(SRC)}, KERNEL_PINS)


# numpy picks its loops by CPU feature level.  With its AVX-512 levels turned
# off, the AVX2 level (X86_V3) is the highest left, and every dmat command
# must print the bytes pinned above.  Below X86_V3 numpy does not fuse complex
# products with FMA, so the oracle's last bits change there (ROADMAP item 8).
# The chart forms multiply a real d(theta) by chart_phases, one exponential
# per mirrored pair of entries, so their bytes hold below X86_V3 too.  numpy reads
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
    env.pop("NPY_ENABLE_CPU_FEATURES", None)  # numpy refuses both variables at once
    assert_pins_hold(env, pins, script, extra)


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


# The four element stacks at l_x2 0-6 over the routes suite's samples at seed
# 0 and four int- and float-typed elements with signed zeros, which every form
# accepts.  Their complex products are written as real products and sums, so
# their bytes hold below X86_V3, where numpy stops fusing complex ufuncs with FMA.
ELEMENT_BLOCK = """
from wignerkit.exactcomb import HalfInt
from wignerkit.group import Mat2C, sample_haar
from wignerkit.verify import sample_gl2
from wignerkit.wigner import hyp_matrices, hyp_symmetric_matrices, jacobi_matrices, sum_matrices
reals = [Mat2C(-0.0, 2, -3, 1.5), Mat2C(1, -2, 0.5, -0.0), Mat2C(3, 1, -1, 0), Mat2C(0.0, -1.25, 2, -0.0)]
samples = sample_haar(0, 20) + sample_gl2(1, 10) + reals
builders = (sum_matrices, hyp_matrices, hyp_symmetric_matrices, jacobi_matrices)
stacks = [build(HalfInt(l2), samples) for build in builders for l2 in range(7)]
print(hashlib.sha256(b"".join(stack.tobytes() for stack in stacks)).hexdigest())
"""


# chart_phases at the spins and angles of tests/test_route_tables.py, in one
# call per spin: its mirrored half is the conjugate of its first, which is
# one exponential per entry only where the complex exponential's sine is odd
# bit for bit.  The angles enter the script as literals.
PHASES_BLOCK = """
from wignerkit.exactcomb import HalfInt
from wignerkit.group import EulerAngles
from wignerkit.wigner import chart_phases
angles = [EulerAngles(*t) for t in {angles}]
digest = hashlib.sha256()
for l_x2 in {spins}:
    digest.update(chart_phases(HalfInt(l_x2), angles).tobytes())
print(digest.hexdigest())
"""


def direct_phases_hash():
    # What PHASES_BLOCK prints, from one exponential per entry in this interpreter.
    digest = hashlib.sha256()
    for l_x2 in PHASE_SPINS:
        for angles in phase_angles():
            digest.update(direct_phases(l_x2, [angles]).tobytes())
    return digest.hexdigest()


def element_hash():
    # What ELEMENT_BLOCK prints, run in this interpreter at numpy's default feature level.
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec("import hashlib" + ELEMENT_BLOCK, {})
    return out.getvalue().strip()


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
    angles = [(a.theta, a.phi, a.psi) for a in phase_angles()]
    phases = PHASES_BLOCK.format(angles=angles, spins=PHASE_SPINS)
    script = RUN_AND_HASH + REFLECTION_BLOCK + WEIGHTED_BLOCK.format(nodes=nodes) + ELEMENT_BLOCK + phases
    extra = [reflection, weighted, element_hash(), direct_phases_hash()]
    assert_pins_hold_without(("X86_V3", *AVX512_LEVELS), CHART_PINS, script, extra)


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
