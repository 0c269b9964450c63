"""CLI surface: flags, output schema, exit codes, fallbacks, determinism."""
import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerkit import cli, floatrepr
from wignerkit.cli import MAX_DMAT_L_X2, _render_dmat, main
from wignerkit.exactcomb import HalfInt
from wignerkit.group import EulerAngles, Mat2C, from_euler
from wignerkit.verify import SUITE_NAMES
from wignerkit.wigner import WignerMatrix

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_main(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_main(capsys, *argv)
    return code, json.loads(out)


class TestDmat:
    def test_identity_matrix(self, capsys):
        code, rec = run_json(
            capsys, "dmat", "--l-x2", "1", "--theta", repr(math.pi / 2), "--route", "oracle"
        )
        assert code == 0
        assert rec["schema_version"] == "15"
        assert rec["result"]["dim"] == 2
        matrix = rec["result"]["matrix"]
        assert matrix[0][0] == pytest.approx([1.0, 0.0], abs=1e-12)
        assert matrix[1][1] == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_matrix_source_routes_agree(self, capsys):
        flat = "1,0,2,0,3,0,4,0"
        _, rec_sum = run_json(capsys, "dmat", "--l-x2", "2", "--matrix", flat, "--route", "sum")
        _, rec_orc = run_json(capsys, "dmat", "--l-x2", "2", "--matrix", flat, "--route", "oracle")
        a = np.array(rec_sum["result"]["matrix"])
        b = np.array(rec_orc["result"]["matrix"])
        assert np.max(np.abs(a - b)) <= 1e-10

    def test_jacobi_route_covers_all_quadrants(self, capsys):
        flat = "0.9,0.1,-0.2,0.3,0.5,-0.1,0.8,0.2"
        _, rec_jac = run_json(capsys, "dmat", "--l-x2", "4", "--matrix", flat, "--route", "jacobi")
        _, rec_orc = run_json(capsys, "dmat", "--l-x2", "4", "--matrix", flat, "--route", "oracle")
        assert "warnings" not in rec_jac
        a = np.array(rec_jac["result"]["matrix"])
        b = np.array(rec_orc["result"]["matrix"])
        assert np.max(np.abs(a - b)) <= 1e-9

    def test_center_entry_quarter_turn(self, capsys):
        code, rec = run_json(capsys, "dmat", "--l-x2", "2", "--theta", repr(math.pi / 4))
        center = rec["result"]["matrix"][1][1]
        assert abs(complex(center[0], center[1])) <= 1e-12

    def test_route_fallback_is_visible(self, capsys):
        # bc = ad puts the Jacobi route on its singular locus
        code, rec = run_json(
            capsys, "dmat", "--l-x2", "2", "--matrix", "1,0,2,0,2,0,4,0", "--route", "jacobi"
        )
        assert code == 0
        assert rec["result"]["route_used"] == "recurrence"
        assert any("jacobi" in w for w in rec["warnings"])

    def test_fallback_prints_the_recurrence_matrix_and_its_reason(self, capsys):
        # bc = ad = 1: the Jacobi route refuses, and dmat prints the recurrence's matrix
        source = ["dmat", "--l-x2", "3", "--matrix", "1,0,1,0,1,0,1,0"]
        code, rec = run_json(capsys, *source, "--route", "jacobi")
        _, recurrence = run_json(capsys, *source, "--route", "recurrence")
        assert code == 0
        assert rec["warnings"] == ["route jacobi unavailable (Jacobi route needs bc != ad); fell back to recurrence"]
        assert rec["result"] == recurrence["result"]
        assert rec["result"]["route_used"] == "recurrence"

    def test_rodrigues_route_euler_source(self, capsys):
        code, rec = run_json(
            capsys, "dmat", "--l-x2", "3", "--theta", "0.8", "--route", "rodrigues"
        )
        assert code == 0
        assert rec["result"]["route_used"] == "rodrigues"
        _, rec_orc = run_json(capsys, "dmat", "--l-x2", "3", "--theta", "0.8")
        a = np.array(rec["result"]["matrix"])
        b = np.array(rec_orc["result"]["matrix"])
        assert np.max(np.abs(a - b)) <= 1e-9

    def test_rodrigues_falls_back_at_boundary(self, capsys):
        # an Euler source falls back to auto's route for it, the recurrence
        code, rec = run_json(capsys, "dmat", "--l-x2", "2", "--theta", "0.0", "--route", "rodrigues")
        _, recurrence = run_json(capsys, "dmat", "--l-x2", "2", "--theta", "0.0", "--route", "recurrence")
        assert code == 0
        assert rec["result"]["route_used"] == "recurrence"
        assert rec["result"] == recurrence["result"]
        assert rec["warnings"]

    def test_rodrigues_needs_euler_source(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["dmat", "--l-x2", "2", "--matrix", "1,0,2,0,3,0,4,0", "--route", "rodrigues"])
        assert err.value.code == 2

    def test_recurrence_takes_a_matrix_source(self, capsys):
        # It needed an Euler source up to schema 14; it is now an element route too.
        code, rec = run_json(capsys, "dmat", "--l-x2", "2", "--matrix", "1,0,2,0,3,0,4,0", "--route", "recurrence")
        _, oracle = run_json(capsys, "dmat", "--l-x2", "2", "--matrix", "1,0,2,0,3,0,4,0", "--route", "oracle")
        assert code == 0 and rec["result"]["route_used"] == "recurrence" and "warnings" not in rec
        assert np.max(np.abs(np.array(rec["result"]["matrix"]) - np.array(oracle["result"]["matrix"]))) <= 1e-12

    def test_auto_is_the_recurrence_for_euler_and_matrix_sources(self, capsys):
        angles = ["--theta", "0.7", "--phi", "1.2", "--psi", "0.3"]
        for l_x2 in (0, 40, 41, 200):
            code, rec = run_json(capsys, "dmat", "--l-x2", str(l_x2), *angles)
            assert code == 0 and rec["result"]["route_used"] == "recurrence" and "warnings" not in rec
            _, rec_route = run_json(capsys, "dmat", "--l-x2", str(l_x2), *angles, "--route", "recurrence")
            assert rec_route["result"]["matrix"] == rec["result"]["matrix"]
        pairs = np.array(rec["result"]["matrix"])
        T = pairs[..., 0] + 1j * pairs[..., 1]
        assert np.max(np.abs(T @ T.conj().T - np.eye(201))) < 1e-13  # the oracle's: 4.4e25
        for l_x2 in (0, 40, 41):
            source = ["dmat", "--l-x2", str(l_x2), "--matrix", "1,0,0,0,0,0,1,0"]
            code, rec = run_json(capsys, *source)
            _, oracle = run_json(capsys, *source, "--route", "oracle")
            assert code == 0 and rec["result"]["route_used"] == "recurrence" and "warnings" not in rec
            # t(I) is I: the recurrence prints it exactly (the oracle is 1 ulp off at l_x2 41)
            pairs = np.array(rec["result"]["matrix"])
            assert np.array_equal(pairs[..., 0] + 1j * pairs[..., 1], np.eye(l_x2 + 1))
            assert np.max(np.abs(pairs - np.array(oracle["result"]["matrix"]))) <= 1e-15
            _, rec_route = run_json(capsys, *source, "--route", "recurrence")
            assert rec_route["result"] == rec["result"]
        # an SU(2) matrix source, where the oracle's residual is 6.3e25
        source = ["dmat", "--l-x2", "200", "--matrix", "0.5,0.5,-0.5,0.5,0.5,0.5,0.5,-0.5"]
        code, rec = run_json(capsys, *source)
        assert code == 0 and rec["result"]["route_used"] == "recurrence" and "warnings" not in rec
        pairs = np.array(rec["result"]["matrix"])
        T = pairs[..., 0] + 1j * pairs[..., 1]
        assert np.max(np.abs(T @ T.conj().T - np.eye(201))) < 1e-13

    @pytest.mark.parametrize("angles", [(0.7, 1.2, 0.3), (0.05, 4.0, 2.5), (1.5, 0.2, 5.9)])
    def test_auto_prints_the_recurrence_at_every_spin_up_to_40(self, capsys, angles):
        source = ["--theta", repr(angles[0]), "--phi", repr(angles[1]), "--psi", repr(angles[2])]
        for l_x2 in range(41):
            _, auto = run_main(capsys, "dmat", "--l-x2", str(l_x2), *source)
            _, recurrence = run_main(capsys, "dmat", "--l-x2", str(l_x2), *source, "--route", "recurrence")
            assert auto.count('"route": "auto"') == 1, l_x2
            assert auto.replace('"route": "auto"', '"route": "recurrence"') == recurrence, l_x2

    def test_auto_is_unitary_at_l_x2_40(self, capsys):
        # The oracle, which auto took here before, has residual 1.1e-11.
        _, rec = run_json(capsys, "dmat", "--l-x2", "40", "--theta", "0.7", "--phi", "1.2", "--psi", "0.3")
        pairs = np.array(rec["result"]["matrix"])
        T = pairs[..., 0] + 1j * pairs[..., 1]
        assert np.max(np.abs(T @ T.conj().T - np.eye(41))) < 1e-13

    @pytest.mark.parametrize("l_x2", [*range(41), 201, 400])
    def test_the_ones_of_d_at_0_and_pi_over_2_print_exactly(self, capsys, l_x2):
        # d(0) is a signed anti-diagonal and d(pi/2) nearly the identity: each
        # lane there starts at +-1 and adds differences of 0 (or of cos^2 of
        # the rounded pi/2, 3.7e-33).  The spin recurrence printed 2 of the 13
        # ones at l_x2 12 exactly.
        for theta in (0.0, math.pi / 2):
            _, rec = run_json(capsys, "dmat", "--l-x2", str(l_x2), "--theta", repr(theta))
            pairs = np.array(rec["result"]["matrix"])
            ones = np.abs(pairs[..., 0]) > 0.5
            assert ones.sum() == l_x2 + 1 and np.all(ones.any(axis=0)), theta
            assert set(np.abs(pairs[..., 0][ones]).tolist()) == {1.0} and not pairs[..., 1][ones].any(), theta

    def test_an_overflowing_power_falls_back_to_the_recurrence_which_refuses_its_norm(self, capsys):
        # The Jacobi route refuses 31^400 with its reason (it used to raise a
        # bare "complex exponentiation"), and so does the oracle (it used to
        # raise a bare OverflowError); dmat falls back to the recurrence, whose
        # norm s1^(2l) overflows too, and exits 3 as auto does.  The error
        # record keeps the refused route's reason as its warning.
        source = ["dmat", "--l-x2", "400", "--matrix", "30,0,1,0,2,0,31,0"]
        refusal = {
            "type": "RouteUnavailableError",
            "message": "recurrence route's norm s1^(2l) (s1 the largest singular value of A) overflows",
        }
        code, rec = run_json(capsys, *source, "--route", "jacobi")
        assert code == 3
        assert rec["error"] == refusal
        assert rec.pop("warnings") == [
            "route jacobi unavailable (Jacobi route's power of a, b, c, d or bc - ad overflows); fell back to recurrence"
        ]
        code, oracle = run_json(capsys, *source, "--route", "oracle")
        assert code == 3 and oracle.pop("warnings") == [
            "route oracle unavailable (oracle route's power of a, b, c or d overflows); fell back to recurrence"
        ]
        assert oracle == rec
        for route in ("auto", "recurrence"):
            assert run_json(capsys, *source, "--route", route) == (3, rec)

    @pytest.mark.parametrize("route", ["rodrigues", "krawtchouk", "recurrence"])
    def test_rotation_routes_take_any_phases(self, capsys, route):
        # t(P1 R(theta) P2) = t(P1) d(theta) t(P2) with P1, P2 diagonal.
        angles = ["--theta", "0.7", "--phi", "1.2", "--psi", "0.3"]
        for l_x2 in range(1, 17):
            code, rec = run_json(capsys, "dmat", "--l-x2", str(l_x2), *angles, "--route", route)
            assert code == 0 and rec["result"]["route_used"] == route and "warnings" not in rec
            _, rec_orc = run_json(capsys, "dmat", "--l-x2", str(l_x2), *angles, "--route", "oracle")
            a = np.array(rec["result"]["matrix"])
            b = np.array(rec_orc["result"]["matrix"])
            assert np.max(np.abs(a - b)) <= 1e-12, l_x2

    def test_missing_source_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["dmat", "--l-x2", "2"])
        assert err.value.code == 2

    def test_both_sources_are_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["dmat", "--l-x2", "2", "--theta", "0.3", "--matrix", "1,0,2,0,3,0,4,0"])
        assert err.value.code == 2

    @pytest.mark.parametrize("phases", [["--phi", "2.0"], ["--psi", "1.0"], ["--phi", "0", "--psi", "0"]])
    def test_phases_with_a_matrix_source_are_a_usage_error(self, capsys, phases):
        # A --matrix source has no phases to apply them to.
        with pytest.raises(SystemExit) as err:
            main(["dmat", "--l-x2", "1", "--matrix", "1,0,0,0,0,0,1,0", *phases])
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith("error: --phi and --psi need --theta\n")

    def test_absent_phases_print_as_zero_and_given_ones_as_given(self, capsys):
        _, rec = run_json(capsys, "dmat", "--l-x2", "1", "--theta", "0.7", "--psi", "-0.0")
        assert rec["inputs"]["phi"] == 0.0 and math.copysign(1.0, rec["inputs"]["phi"]) == 1.0
        assert rec["inputs"]["psi"] == 0.0 and math.copysign(1.0, rec["inputs"]["psi"]) == -1.0

    def test_bad_matrix_length_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["dmat", "--l-x2", "2", "--matrix", "1,2,3"])
        assert err.value.code == 2

    def test_malformed_matrix_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["dmat", "--l-x2", "2", "--matrix", "x,0,0,0,0,0,1,0"])
        assert err.value.code == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("l_x2", ["0", "2"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_a_non_finite_matrix_is_usage_error(self, capsys, l_x2, value):
        # refused by --matrix's type, before any entry is computed or rendered
        with pytest.raises(SystemExit) as err:
            main(["dmat", "--l-x2", l_x2, f"--matrix={value},0,0,0,0,0,1,0"])
        assert err.value.code == 2
        out, err_text = capsys.readouterr()
        assert out == ""
        lines = err_text.splitlines()
        assert lines[0].startswith("usage: wignerkit dmat [-h]")
        message = f"argument --matrix: the 8 reals must be finite, got {value},0,0,0,0,0,1,0"
        assert lines[-1] == f"wignerkit dmat: error: {message}"

    def test_negative_spin_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["dmat", "--l-x2", "-1", "--theta", "0.3"])
        assert err.value.code == 2

    def test_spin_above_cap_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["dmat", "--l-x2", str(MAX_DMAT_L_X2 + 1), "--theta", "0.3"])
        assert err.value.code == 2
        assert f"[0, {MAX_DMAT_L_X2}]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (
                # spin 0 is refused at cos(theta) = 0 like every other spin
                ["--l-x2", "0", "--theta", repr(math.pi / 2), "--route", "krawtchouk"],
                "Krawtchouk route needs cos(theta) != 0",
            ),
            (
                ["--l-x2", "3", "--theta", repr(math.pi / 2), "--route", "krawtchouk"],
                "Krawtchouk route needs cos(theta) != 0",
            ),
            (
                ["--l-x2", "2", "--theta", "0", "--route", "rodrigues"],
                "derivative route needs theta strictly inside (0, pi/2)",
            ),
            (
                ["--l-x2", "2", "--matrix", "1,0,1,0,1,0,1,0", "--route", "jacobi"],
                "Jacobi route needs bc != ad",
            ),
            # sin(theta) ** -(m + n) overflows a float, though the entry is tiny
            (
                ["--l-x2", "40", "--theta", "1e-9", "--route", "rodrigues"],
                "a float on the way to a chart form's entry overflows",
            ),
            (
                ["--l-x2", "2", "--theta", "1e-200", "--route", "rodrigues"],
                "a float on the way to a chart form's entry overflows",
            ),
            # the Krawtchouk series in 1/p = 1/cos^2(theta) overflows a float
            (
                ["--l-x2", "40", "--theta", "1.5707963267", "--route", "krawtchouk"],
                "a float on the way to a chart form's entry overflows",
            ),
        ],
    )
    def test_fallback_warning_names_the_first_failing_entry(self, capsys, argv, reason):
        # the fallback is auto's route, the recurrence, for either kind of source
        code, rec = run_json(capsys, "dmat", *argv)
        route, fallback = argv[-1], "recurrence"
        assert code == 0
        assert rec["result"]["route_used"] == fallback
        assert rec["warnings"] == [f"route {route} unavailable ({reason}); fell back to {fallback}"]

    def test_jacobi_route_on_a_matrix_source_is_unitary_at_l_x2_200(self, capsys):
        # The element Jacobi form sums its polynomials exactly; with a float
        # sum this matrix had unitarity residual 4.3e69.
        A = from_euler(EulerAngles(0.7, 1.2, 0.3))
        source = ",".join(repr(v) for z in (A.a, A.b, A.c, A.d) for v in (z.real, z.imag))
        code, rec = run_json(capsys, "dmat", "--l-x2", "200", "--matrix", source, "--route", "jacobi")
        assert code == 0
        assert rec["result"]["route_used"] == "jacobi" and "warnings" not in rec
        pairs = np.array(rec["result"]["matrix"])
        T = pairs[..., 0] + 1j * pairs[..., 1]
        assert np.max(np.abs(T @ T.conj().T - np.eye(201))) < 1e-13

    def test_krawtchouk_serves_theta_zero(self, capsys):
        # Folded onto the quadrant, no entry has a negative sin power.
        code, rec = run_json(capsys, "dmat", "--l-x2", "3", "--theta", "0", "--route", "krawtchouk")
        assert code == 0
        assert rec["result"]["route_used"] == "krawtchouk"
        assert "warnings" not in rec

    def test_overflowing_matrix_is_domain_error(self, capsys):
        code, rec = run_json(capsys, "dmat", "--l-x2", "3", "--matrix", "1e300,0,1e300,0,1e300,0,1e300,0")
        assert code == 3
        assert rec["error"]["type"] == "RouteUnavailableError"
        assert "s1^(2l)" in rec["error"]["message"] and "warnings" not in rec

    def test_domain_error_exit_code(self, capsys):
        code, out = run_main(capsys, "dmat", "--l-x2", "2", "--theta", "3.0")
        assert code == 3
        rec = json.loads(out)
        assert rec["error"]["type"] == "ValueError"

    def test_csv_output(self, capsys):
        code, out = run_main(
            capsys, "dmat", "--l-x2", "1", "--matrix", "1,0,2,0,3,0,4,0", "--format", "csv"
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 2
        assert rows[0].split(",")[0] == "1+0j"

    def test_json_roundtrip(self, capsys):
        _, out = run_main(capsys, "dmat", "--l-x2", "3", "--theta", "0.7", "--phi", "1.1")
        rec = json.loads(out)
        assert json.loads(json.dumps(rec)) == rec


FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, 1e16, -1e16, 1e-5, 0.1]),
)
DMAT_RECORDS = [
    {
        "schema_version": "2",
        "command": "dmat",
        "inputs": {"l_x2": 0, "source": "euler", "theta": 0.7, "phi": 1.2, "psi": 0.3, "route": "auto"},
        "result": {"l_x2": 0, "dim": 1, "route_used": "oracle"},
    },
    {
        "schema_version": "2",
        "command": "dmat",
        "inputs": {"l_x2": 0, "source": "matrix", "matrix": [0.9, 0.1, -0.2, 0.3, 0.5, -0.1, 0.8, 0.2], "route": "sum"},
        "result": {"l_x2": 0, "dim": 1, "route_used": "oracle"},
        "warnings": ["route sum unavailable (b = 0); fell back to oracle"],
    },
]


def assert_renders_as_json_dumps(record, M):
    payload = [[[z.real, z.imag] for z in row] for row in M.entries.tolist()]
    want = json.dumps({**record, "result": {**record["result"], "matrix": payload}}, sort_keys=True, indent=2)
    got = "".join(_render_dmat(record, M))
    if got != want:
        # Report the first difference only: pytest's full diff of two long
        # texts is slow enough to stall hypothesis's shrinking.
        at = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y), min(len(got), len(want)))
        pytest.fail(f"texts differ at offset {at}: {got[max(at - 40, 0):at + 40]!r} != {want[max(at - 40, 0):at + 40]!r}")


def mirrored(entries):
    # The matrix whose entries from ceil(dim^2 / 2) on (row-major) are their
    # mirrors' (-1)^(i - j) conj(entry), as an Euler source's are; the centre
    # entry of an odd dim keeps its own.
    dim = len(entries)
    i, j = np.indices((dim, dim))
    later = i * dim + j >= (dim * dim + 1) // 2
    return np.where(later, np.conj(entries[::-1, ::-1]) * (-1.0) ** (i - j), entries)


class TestMatrixJson:
    """The dmat matrix writer against the json.dumps payload it replaced."""

    # From 1 x 1 up to 70 x 70: past one chunk (cli._CHUNK_VALUES parts).
    @given(
        st.integers(1, 70),
        st.lists(FINITE, min_size=1, max_size=24),
        st.integers(0, 2**32 - 1),
        st.sampled_from(DMAT_RECORDS),
        st.one_of(st.none(), st.floats(0, 1)),
    )
    @settings(deadline=None, max_examples=150)
    def test_same_text_as_json_dumps(self, dim, pool, seed, record, redrawn):
        # Every real and imaginary part is drawn from the pool, so large
        # matrices cost no more to generate than small ones.  With a share
        # `redrawn`, the matrix is mirrored as an Euler source's is, and that
        # share of its later parts is drawn from the pool again.
        rng = np.random.default_rng(seed)
        entries = rng.choice(np.array(pool), size=(dim, dim, 2)).view(complex)[..., 0]
        if redrawn is not None:
            entries = mirrored(entries)
            later = np.arange(dim * dim).reshape(dim, dim) >= (dim * dim + 1) // 2
            redraw = later[..., None] & (rng.random((dim, dim, 2)) < redrawn)
            parts = entries.view(float).reshape(dim, dim, 2)
            parts[redraw] = rng.choice(np.array(pool), size=np.count_nonzero(redraw))
        assert_renders_as_json_dumps(record, WignerMatrix(HalfInt(dim - 1), entries))

    def test_non_contiguous_entries(self):
        entries = (np.arange(9.0) + 1j * np.arange(9.0)[::-1]).reshape(3, 3).T
        assert_renders_as_json_dumps(DMAT_RECORDS[0], WignerMatrix(HalfInt(2), entries))


def _buffered_env():
    # src on the path, and stdout block-buffered, as in a shell that does not
    # set PYTHONUNBUFFERED: text can then still sit in the buffer at exit.
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _auto_matrix(l_x2):
    angles = EulerAngles(0.7, 1.2, 0.3)
    return cli._dmat_by_route(HalfInt(l_x2), from_euler(angles), angles, "auto")[1]


class _Writes(io.StringIO):
    # A stdout that keeps the length of each write.
    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


class TestStreamedOutput:
    """dmat's text reaches stdout as pieces, none of them the whole matrix."""

    @pytest.mark.parametrize("l_x2", [200, 400])
    def test_each_piece_holds_at_most_one_chunk(self, l_x2):
        M = _auto_matrix(l_x2)
        pieces = list(_render_dmat(DMAT_RECORDS[0], M))
        dim = l_x2 + 1
        rows = cli._CHUNK_VALUES // (2 * dim)
        assert len(pieces) == 2 + -(-dim // rows)
        # Each part of an entry starts a line of its own, at indent 10.
        parts = [piece.count("\n" + " " * 10) for piece in pieces]
        assert parts[0] == 1 and parts[-1] == 0
        assert max(parts) <= cli._CHUNK_VALUES and sum(parts) == 2 * dim * dim
        assert_renders_as_json_dumps(DMAT_RECORDS[0], M)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_main_writes_the_pieces_and_a_newline(self, capsys, fmt):
        argv = ["dmat", "--l-x2", "400", "--theta", "0.7", "--phi", "1.2", "--psi", "0.3", "--format", fmt]
        code, want = run_main(capsys, *argv)
        out = _Writes()
        with contextlib.redirect_stdout(out):
            assert main(argv) == code == 0
        assert out.getvalue() == want
        assert len(out.sizes) > 80 and out.sizes[-1] == 1
        assert max(out.sizes) < len(want) / 20

    def test_an_in_process_stdout_that_raises_broken_pipe_sees_it(self):
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        with contextlib.redirect_stdout(Closed()), pytest.raises(BrokenPipeError):
            main(["dmat", "--l-x2", "2", "--theta", "0.7"])

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_reader_that_closes_the_pipe_ends_the_process_quietly(self, fmt):
        # The reader takes 20 bytes of a text of megabytes and closes its end:
        # the process exits with EXIT_BROKEN_PIPE and writes nothing to stderr.
        argv = ["dmat", "--l-x2", "200", "--theta", "0.7", "--format", fmt]
        with subprocess.Popen(
            [sys.executable, "-m", "wignerkit", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_buffered_env()
        ) as proc:
            assert len(proc.stdout.read(20)) == 20
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == cli.EXIT_BROKEN_PIPE == 141
        assert err == b""

    def test_a_pipe_closed_before_the_first_byte_ends_the_process_quietly(self):
        # The whole record sits in stdout's buffer when main's flush fails, so
        # the interpreter's last flush must find the null device, not the pipe.
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "wignerkit", "poly", "--family", "legendre", "--n", "3", "--x", "0.5"],
                stdout=write,
                stderr=subprocess.PIPE,
                env=_buffered_env(),
                timeout=120,
            )
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (cli.EXIT_BROKEN_PIPE, b"")


def _pieces_per_matrix(dim):
    # (rows per piece, pieces) of the dmat writer for a dim x dim matrix
    rows = max(1, cli._CHUNK_VALUES // (2 * dim))
    return rows, -(-dim // rows)


def kernel_calls_per_piece(monkeypatch, M):
    # The sizes of the digit kernel's calls while M renders, by the matrix
    # piece whose rendering made them; M's text is json.dumps's.
    assert_renders_as_json_dumps(DMAT_RECORDS[0], M)
    calls = []

    def counted(values, seps):
        calls.append(values.size)
        return floatrepr._word_rows(values, seps)

    monkeypatch.setattr(cli, "_word_rows", counted)
    per_piece = []
    for _ in _render_dmat(DMAT_RECORDS[0], M):
        per_piece.append(calls[:])
        calls.clear()
    return per_piece[1:-1]


class TestKernelBlocks:
    """The digit kernel runs at most once per block of cli._BLOCK_PIECES
    pieces, on the first half of an Euler source's matrix and the parts
    whose magnitudes differ from their mirrors', and each piece is cut from
    the block's word rows."""

    # dim 41 and 42: one block of one piece; 60: one block of two pieces; 81
    # and 102: a short last piece ending a full block; 128 and 200: full
    # blocks only; 146, 201, 202 and 401: a last block of one short piece.
    SPINS = [40, 41, 59, 80, 101, 127, 145, 199, 200, 201, 400]

    @pytest.mark.parametrize("l_x2", SPINS)
    def test_same_text_as_json_dumps_with_the_kernel_on_the_first_half(self, monkeypatch, l_x2):
        per_piece = kernel_calls_per_piece(monkeypatch, _auto_matrix(l_x2))
        rows, pieces = _pieces_per_matrix(l_x2 + 1)
        assert len(per_piece) == pieces
        # A block's calls come with its first piece, at most one of them.
        assert all(len(calls) <= (k % cli._BLOCK_PIECES == 0) for k, calls in enumerate(per_piece))
        calls = sum(per_piece, [])
        assert sum(calls) == 2 * -(-((l_x2 + 1) ** 2) // 2) and max(calls) <= cli._BLOCK_PIECES * cli._CHUNK_VALUES

    # A random matrix has no mirrored part, at these spins and the smallest.
    @pytest.mark.parametrize("l_x2", [0, 1, 2, *SPINS])
    def test_a_matrix_with_no_mirrored_part_takes_one_call_per_block_over_every_part(self, monkeypatch, l_x2):
        dim = l_x2 + 1
        entries = np.random.default_rng(l_x2).normal(size=(dim, dim, 2)).view(complex)[..., 0]
        per_piece = kernel_calls_per_piece(monkeypatch, WignerMatrix(HalfInt(l_x2), entries))
        assert [len(calls) for calls in per_piece] == [k % cli._BLOCK_PIECES == 0 for k in range(len(per_piece))]
        assert sum(sum(per_piece, [])) == 2 * dim * dim

    @pytest.mark.parametrize("dim", [41, 42, 81, 146, 201, 401])
    def test_fallback_parts_at_the_ends_of_every_piece_and_block(self, dim):
        # float.__repr__ writes the parts the kernel leaves undecided: a power
        # of two or a value below the kernel's table.  Put them on the first
        # and the last part of every piece, so on the ends of every block too.
        entries = np.random.default_rng(dim).normal(size=(dim, dim, 2))
        rows, _ = _pieces_per_matrix(dim)
        for k, start in enumerate(range(0, dim, rows)):
            entries[start, 0, 0] = (-1) ** k * 2.0 ** (k - 40)
            entries[min(start + rows, dim) - 1, -1, 1] = (-1) ** k * 1e-300 if k % 2 else 2.0**60
        fallbacks = entries[::rows, 0, 0].tolist() + entries[rows - 1 :: rows, -1, 1].tolist() + [entries[-1, -1, 1]]
        assert floatrepr._shortest(np.array(fallbacks))[3].all()
        assert_renders_as_json_dumps(DMAT_RECORDS[0], WignerMatrix(HalfInt(dim - 1), entries.view(complex)[..., 0]))


def _euler_matrix(l_x2, theta, phi, psi):
    angles = EulerAngles(theta, phi, psi)
    return cli._dmat_by_route(HalfInt(l_x2), from_euler(angles), angles, "auto")[1]


def _broken(entries, case):
    # entries with some parts set, each part given by (row, column, part);
    # -1 counts from the end, so (-1, -1, p) is the mirror of (0, 0, p) and
    # (-1, -2, p) that of (0, 1, p).  Returns the matrix and how many later
    # parts no longer match their mirrors.
    parts = np.array(entries).view(float).reshape(*entries.shape, 2)
    if case == "one ulp off":
        parts[-1, -1, 0] = np.nextafter(parts[-1, -1, 0], np.inf)
        broken = 1
    elif case == "signed zeros":
        parts[0, 0, 0], parts[-1, -1, 0], parts[0, 1, 1], parts[-1, -2, 1] = 0.0, -0.0, -0.0, 0.0
        broken = 0
    elif case == "fallbacks on both sides":
        parts[0, 0, 1], parts[-1, -1, 1], parts[0, 1, 0], parts[-1, -2, 0] = 2.0**-40, -(2.0**-40), 1e-300, 1e-300
        broken = 0
    elif case == "fallbacks on one side":
        parts[0, 0, 1], parts[-1, -2, 0] = 2.0**-40, -1e-300
        broken = 2
    else:  # "ten and more": fixed notation with the point in the digit words
        parts *= 12345.678
        broken = 0
    return WignerMatrix(HalfInt(len(entries) - 1), parts.view(complex)[..., 0]), broken


# Odd and even dims, below cli._MIRROR_MIN_DIM (1-3) and from it on.  The
# half of the entries ends inside a piece at each, but on a piece boundary
# inside a block at 168 and on a block boundary at 200.
MIRROR_DIMS = [1, 2, 3, 41, 42, 60, 168, 200, 201, 202, 401]


def kernel_parts(dim, broken=0):
    # The parts the kernel takes of a mirrored matrix whose `broken` later
    # parts differ from their mirrors: the first half and those from
    # cli._MIRROR_MIN_DIM on, every part below it.
    return 2 * ((dim * dim + 1) // 2) + broken if dim >= cli._MIRROR_MIN_DIM else 2 * dim * dim


class TestMirroredRows:
    """A later part whose |x| is its mirror's bit for bit takes its mirror's
    word row with its own sign and separator; every other part takes the
    kernel's.  Either way the text is json.dumps's."""

    # Each theta with both phases at every dim but 401, where json.dumps
    # takes about a second.
    @pytest.mark.parametrize(
        "dim, theta, phase",
        [(d, t, p) for d in MIRROR_DIMS[:-1] for t in (0.0, math.pi / 2, 1e-3) for p in (0.0, math.pi)]
        + [(401, 1e-3, 0.0), (401, math.pi / 2, math.pi)],
    )
    def test_euler_sources_run_the_kernel_on_the_first_half(self, monkeypatch, dim, theta, phase):
        per_piece = kernel_calls_per_piece(monkeypatch, _euler_matrix(dim - 1, theta, phase, phase))
        assert sum(sum(per_piece, [])) == kernel_parts(dim)

    @pytest.mark.parametrize(
        "case", ["one ulp off", "signed zeros", "fallbacks on both sides", "fallbacks on one side", "ten and more"]
    )
    @pytest.mark.parametrize("dim", MIRROR_DIMS[1:-1])
    def test_a_part_takes_the_kernel_where_its_mirror_differs(self, monkeypatch, dim, case):
        M, broken = _broken(_euler_matrix(dim - 1, 0.7, 1.2, 0.3).entries, case)
        per_piece = kernel_calls_per_piece(monkeypatch, M)
        assert sum(sum(per_piece, [])) == kernel_parts(dim, broken)

    def test_a_block_where_fewer_than_half_match_takes_the_kernel_over_all_its_parts(self, monkeypatch):
        # In one block of the l_x2 200 matrix, the later parts of three
        # columns in four are one ulp off, so that block takes one call over
        # all its parts; the rest mirror.
        rows = cli._BLOCK_PIECES * _pieces_per_matrix(201)[0]
        start = 7 * rows  # a block past the half
        parts = np.array(_euler_matrix(200, 0.7, 1.2, 0.3).entries).view(float).reshape(201, 201, 2)
        off = (slice(start, start + rows), np.arange(201) % 4 != 0)
        parts[off] = np.nextafter(parts[off], np.inf)
        per_piece = kernel_calls_per_piece(monkeypatch, WignerMatrix(HalfInt(200), parts.view(complex)[..., 0]))
        # Five blocks of the first half, the first-half parts of the sixth,
        # and the broken block.
        block = 2 * rows * 201
        assert sum(per_piece, []) == [block] * 5 + [kernel_parts(201) - 5 * block, block]

    def test_the_oracle_matrix_source_at_l_x2_60_has_no_mirrored_part(self, monkeypatch):
        A = Mat2C(*map(complex, [30, 2, 0.3, 0.1], [1, 0.5, -1, 0.04]))
        M = cli._dmat_by_route(HalfInt(60), A, None, "auto")[1]
        assert kernel_calls_per_piece(monkeypatch, M) == [[2 * 61 * 61], []]


class TestPoly:
    def test_jacobi(self, capsys):
        code, rec = run_json(
            capsys, "poly", "--family", "jacobi", "--n", "2", "--alpha", "0", "--beta", "0", "--x", "0"
        )
        assert code == 0
        assert rec["result"]["value"] == -0.5

    def test_legendre(self, capsys):
        code, rec = run_json(capsys, "poly", "--family", "legendre", "--n", "1", "--x", "0.77")
        assert rec["result"]["value"] == pytest.approx(0.77)

    def test_krawtchouk(self, capsys):
        code, rec = run_json(
            capsys, "poly", "--family", "krawtchouk", "--n", "1", "--x", "2", "--p", "0.5", "--N", "4"
        )
        assert rec["result"]["value"] == 0.0

    def test_missing_parameter_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["poly", "--family", "jacobi", "--n", "2"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "family, flags",
        [
            ("jacobi", ["n", "alpha", "beta", "x"]),
            ("krawtchouk", ["n", "x", "p", "N"]),
            ("legendre", ["n", "x"]),
        ],
    )
    def test_missing_flags_are_named_in_order(self, capsys, family, flags):
        # Given the first k flags, the usage error names flag k.
        for k, missing in enumerate(flags):
            given = [arg for flag in flags[:k] for arg in (f"--{flag}", "1")]
            with pytest.raises(SystemExit) as err:
                main(["poly", "--family", family, *given])
            assert err.value.code == 2
            assert capsys.readouterr().err.endswith(f"error: {family} needs --{missing}\n")

    @pytest.mark.parametrize(
        "family, argv",
        [
            ("legendre", ["--n", "2", "--x", "0.5", "--alpha", "7"]),
            ("legendre", ["--n", "2", "--x", "0.5", "--N", "3"]),
            ("krawtchouk", ["--n", "1", "--x", "2", "--p", "0.5", "--N", "4", "--beta", "1"]),
            ("jacobi", ["--n", "2", "--alpha", "0", "--beta", "0", "--x", "0", "--p", "0.5"]),
        ],
    )
    def test_a_flag_outside_the_family_is_a_usage_error(self, capsys, family, argv):
        with pytest.raises(SystemExit) as err:
            main(["poly", "--family", family, *argv])
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: {family} takes no {argv[-2]}\n")

    def test_format_is_not_a_poly_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["poly", "--family", "legendre", "--n", "1", "--x", "0.5", "--format", "json"])
        assert err.value.code == 2

    def test_csv_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["poly", "--family", "legendre", "--n", "1", "--x", "0.5", "--format", "csv"])
        assert err.value.code == 2

    def test_domain_error_exit_code(self, capsys):
        code, out = run_main(
            capsys, "poly", "--family", "krawtchouk", "--n", "9", "--x", "1", "--p", "0.5", "--N", "4"
        )
        assert code == 3


# Each real flag with a command line that is valid for any finite value of it.
REAL_FLAGS = {
    "theta": ["dmat", "--l-x2", "0"],
    "phi": ["dmat", "--l-x2", "0", "--theta", "0.3"],
    "psi": ["dmat", "--l-x2", "0", "--theta", "0.3"],
    "alpha": ["poly", "--family", "jacobi", "--n", "2", "--beta", "0", "--x", "0.3"],
    "beta": ["poly", "--family", "jacobi", "--n", "2", "--alpha", "0", "--x", "0.3"],
    "x": ["poly", "--family", "legendre", "--n", "3"],
    "p": ["poly", "--family", "krawtchouk", "--n", "1", "--x", "2", "--N", "4"],
}


@pytest.mark.parametrize("flag", sorted(REAL_FLAGS))
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_a_non_finite_real_flag_is_usage_error(capsys, flag, value):
    argv = REAL_FLAGS[flag]
    with pytest.raises(SystemExit) as err:
        main([*argv, f"--{flag}={value}"])
    assert err.value.code == 2
    out, err_text = capsys.readouterr()
    assert out == ""
    lines = err_text.splitlines()
    assert lines[0].startswith(f"usage: wignerkit {argv[0]} [-h]")
    assert lines[-1] == f"wignerkit {argv[0]}: error: argument --{flag}: needs a finite real, got {value}"



def outcome_of(capsys, argv):
    # (exit code, stdout, stderr) of main(argv); a usage error exits through SystemExit.
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


# A real flag's value may start with "-" in any form float() reads, and may
# follow the flag as the next argument: it then means what --flag=value means.
SPACED_FLAGS = {**REAL_FLAGS, "matrix": ["dmat", "--l-x2", "1"]}


@pytest.mark.parametrize("flag", sorted(SPACED_FLAGS))
@pytest.mark.parametrize("value", ["-1e-3", "-2.5E+0", "-.5", "-7", "-inf", "-nan", "-Infinity"])
def test_a_negative_real_after_its_flag_is_its_value(capsys, flag, value):
    argv = SPACED_FLAGS[flag]
    if flag == "matrix":
        value = f"{value},0,0,0,0,0,1,0"
    spaced = outcome_of(capsys, [*argv, f"--{flag}", value])
    assert spaced == outcome_of(capsys, [*argv, f"--{flag}={value}"])
    code, out, err = spaced
    if not math.isfinite(float(value.split(",")[0])):
        assert code == 2 and out == ""
        reason = "the 8 reals must be finite" if flag == "matrix" else "needs a finite real"
        assert err.splitlines()[-1] == f"wignerkit {argv[0]}: error: argument --{flag}: {reason}, got {value}"
    else:
        assert code in (0, 3) and out.startswith("{") and err == ""


class TestVerify:
    def test_schur_suite_passes(self, capsys):
        code, rec = run_json(capsys, "verify", "--suite", "schur", "--max-l-x2", "3")
        assert code == 0
        assert rec["result"]["passed"] is True
        assert all(c["max_deviation"] <= 1e-10 for c in rec["result"]["checks"][1:])

    def test_routes_suite_passes(self, capsys):
        code, rec = run_json(
            capsys, "verify", "--suite", "routes", "--max-l-x2", "6", "--seed", "42"
        )
        assert code == 0
        assert rec["result"]["passed"] is True

    def test_max_l_guard(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", "schur", "--max-l-x2", "13"])
        assert err.value.code == 2
        assert "--max-l-x2 must lie in [0, 12], got 13" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_negative_seed_is_usage_error(self, capsys, suite):
        # Refused before any suite runs, also by the suites that take no seed.
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", suite, "--max-l-x2", "0", "--seed", "-1"])
        assert err.value.code == 2
        assert "--seed must be at least 0, got -1" in capsys.readouterr().err

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", "nonsense"])
        assert err.value.code == 2

    @pytest.mark.parametrize("flag", ["--grid-ntheta", "--grid-nphi", "--grid-npsi"])
    def test_grid_node_counts_are_not_options(self, capsys, flag):
        # The suites run on the grid build_grid sizes for the spin, and on no other.
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", "schur", "--max-l-x2", "2", flag, "9"])
        assert err.value.code == 2

    def test_verify_inputs_are_the_flags_it_takes(self, capsys):
        _, rec = run_json(capsys, "verify", "--suite", "krawtchouk-sym", "--max-l-x2", "0", "--seed", "4")
        assert rec["inputs"] == {"suite": "krawtchouk-sym", "max_l_x2": 0, "seed": 4}

    def test_all_suite_smallest_run_under_five_seconds(self, capsys):
        import time

        t0 = time.monotonic()
        code, rec = run_json(capsys, "verify", "--suite", "all", "--max-l-x2", "1", "--seed", "7")
        elapsed = time.monotonic() - t0
        assert code == 0
        assert rec["result"]["passed"] is True
        assert elapsed < 5.0


# A usage error that a command's handler finds, after parsing, with its message.
HANDLER_USAGE_ERRORS = {
    "dmat": (["dmat", "--l-x2", "-1", "--theta", "0.3"], "--l-x2 must lie in [0, 400], got -1"),
    "poly": (["poly", "--family", "jacobi", "--n", "3"], "jacobi needs --alpha"),
    "verify": (["verify", "--seed", "-1"], "--seed must be at least 0, got -1"),
}


@pytest.mark.parametrize("command", HANDLER_USAGE_ERRORS)
def test_a_handler_usage_error_prints_the_command_usage_line(capsys, command):
    # As argparse's own errors for the command do, not the top-level usage line.
    argv, message = HANDLER_USAGE_ERRORS[command]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith(f"usage: wignerkit {command} [-h]")
    assert lines[-1] == f"wignerkit {command}: error: {message}"


def _run_subprocess(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "wignerkit", *args],
        capture_output=True,
        env=env,
    )


class TestDeterminism:
    def test_verify_output_byte_identical(self):
        args = ["verify", "--suite", "routes", "--max-l-x2", "2", "--seed", "123"]
        first = _run_subprocess(args)
        second = _run_subprocess(args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout  # non-empty

    def test_dmat_output_byte_identical(self):
        args = ["dmat", "--l-x2", "3", "--theta", "0.7", "--phi", "1.1", "--psi", "0.2"]
        first = _run_subprocess(args)
        second = _run_subprocess(args)
        assert first.stdout == second.stdout


def _fresh(argv):
    # (exit code, stdout) of argv as a fresh `python -m wignerkit`.
    done = _run_subprocess(argv)
    return done.returncode, done.stdout.decode()


def _in_process(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # a usage error
        code = exc.code
    return code, capsys.readouterr().out


EULER = ["dmat", "--l-x2", "5", "--theta", "0.7"]
# Pairs of calls that one process makes in turn, with the first call's exit
# code: a call that sets a flag, or fails, and then a call that leaves the
# flag out, or succeeds.
REENTRANT_PAIRS = {
    "phases-then-none": (EULER + ["--phi", "1.1", "--psi", "0.2"], EULER, 0),
    "both-sources-then-valid": (EULER + ["--matrix", "1,0,0,0,0,0,1,0"], EULER, 2),
    "phases-with-matrix-then-valid": (
        ["dmat", "--l-x2", "2", "--matrix", "1,0,0,0,0,0,1,0", "--phi", "1.0"],
        ["dmat", "--l-x2", "2", "--matrix", "1,0,0,0,0,0,1,0"],
        2,
    ),
    "poly-missing-flag-then-valid": (
        ["poly", "--family", "jacobi", "--n", "3"],
        ["poly", "--family", "jacobi", "--n", "3", "--alpha", "0.5", "--beta", "1.5", "--x", "0.25"],
        2,
    ),
    "seed-then-default": (
        ["verify", "--suite", "routes", "--max-l-x2", "1", "--seed", "5"],
        ["verify", "--suite", "routes", "--max-l-x2", "1"],
        0,
    ),
    "csv-then-json": (EULER + ["--format", "csv"], EULER, 0),
}


class TestReentrant:
    """main parses with the one parser built at import, so no call may leave
    state behind for the next: each call of a pair made in one process prints
    what the same command prints as a fresh interpreter."""

    @pytest.mark.parametrize("first, second, first_code", REENTRANT_PAIRS.values(), ids=REENTRANT_PAIRS)
    def test_a_pair_of_calls_prints_what_fresh_processes_print(self, capsys, first, second, first_code):
        results = [_in_process(capsys, argv) for argv in (first, second)]
        assert results == [_fresh(first), _fresh(second)]
        assert [code for code, _ in results] == [first_code, 0]

    def test_main_does_not_build_a_parser(self, capsys, monkeypatch):
        expected = _in_process(capsys, EULER)

        def refuse():
            raise AssertionError("main built a parser")

        monkeypatch.setattr(cli, "build_parser", refuse)
        assert _in_process(capsys, EULER) == expected
        assert _in_process(capsys, EULER + ["--matrix", "1,0,0,0,0,0,1,0"])[0] == 2


def _loaded_with_the_cli(package):
    # The modules of package loaded after a bare `import numpy`, and after
    # importing the CLI too, in a fresh interpreter.
    script = (
        "import json, sys, numpy\n"
        f"def loaded(): return sorted(m for m in sys.modules if m.startswith({package!r}))\n"
        "bare = loaded()\n"
        "import wignerkit.cli\n"
        "print(json.dumps([bare, loaded()]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env, check=True)
    return json.loads(done.stdout)


def test_importing_the_cli_leaves_numpy_polynomial_unloaded():
    # haar imports leggauss only inside gauss_legendre, which dmat and poly
    # never call.  numpy 1.x imports numpy.polynomial with numpy itself, so
    # the test compares against a bare `import numpy`.
    bare, with_cli = _loaded_with_the_cli("numpy.polynomial")
    assert with_cli == bare
    if int(np.__version__.split(".")[0]) >= 2:
        assert with_cli == []


def test_importing_the_cli_leaves_numpy_fft_unloaded():
    # haar imports numpy.fft only inside _phase_spectra, which only the
    # schur suite calls.
    bare, with_cli = _loaded_with_the_cli("numpy.fft")
    assert with_cli == bare
    if int(np.__version__.split(".")[0]) >= 2:
        assert with_cli == []


# What no command loads: numpy.random and the secrets and hashlib modules that
# it imports (about 6 MB and 17 ms).  The samplers draw from random.Random.
SAMPLER_MODULES = ("numpy.random", "secrets", "hashlib")


def test_no_command_loads_numpy_random():
    # numpy 1.x imports numpy.random with numpy itself, so the test compares
    # against a bare `import numpy`.
    script = (
        "import contextlib, io, json, sys, numpy\n"
        f"def loaded(): return [m for m in {SAMPLER_MODULES!r} if m in sys.modules]\n"
        "bare = loaded()\n"
        "from wignerkit.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print(json.dumps([bare, loaded()]))\n"
    )
    argvs = [["verify", "--suite", "all", "--max-l-x2", "0", "--seed", "0"], ["dmat", "--l-x2", "8", "--theta", "0.7"]]
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], capture_output=True, env=env, check=True)
    bare, after = json.loads(done.stdout)
    assert after == bare
    if int(np.__version__.split(".")[0]) >= 2:
        assert after == []
