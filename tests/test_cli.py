"""CLI surface: flags, output schema, exit codes, fallbacks, determinism."""
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

from wignerkit import cli
from wignerkit.cli import MAX_DMAT_L_X2, _render_dmat, main
from wignerkit.exactcomb import HalfInt
from wignerkit.group import EulerAngles, from_euler
from wignerkit.verify import SUITE_NAMES
from wignerkit.wigner import ORACLE_TRUSTED_L_X2, WignerMatrix

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
        assert rec["schema_version"] == "10"
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
        assert rec["result"]["route_used"] == "oracle"
        assert any("jacobi" in w for w in rec["warnings"])

    def test_fallback_prints_the_oracle_matrix_and_its_reason(self, capsys):
        # bc = ad = 1: the Jacobi route refuses, and dmat prints the oracle's matrix
        source = ["dmat", "--l-x2", "3", "--matrix", "1,0,1,0,1,0,1,0"]
        code, rec = run_json(capsys, *source, "--route", "jacobi")
        _, oracle = run_json(capsys, *source, "--route", "oracle")
        assert code == 0
        assert rec["warnings"] == ["route jacobi unavailable (Jacobi route needs bc != ad); fell back to oracle"]
        assert rec["result"] == oracle["result"]
        assert rec["result"]["route_used"] == "oracle"

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
        code, rec = run_json(capsys, "dmat", "--l-x2", "2", "--theta", "0.0", "--route", "rodrigues")
        assert code == 0
        assert rec["result"]["route_used"] == "oracle"
        assert rec["warnings"]

    def test_rodrigues_needs_euler_source(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["dmat", "--l-x2", "2", "--matrix", "1,0,2,0,3,0,4,0", "--route", "rodrigues"])
        assert err.value.code == 2

    def test_recurrence_needs_euler_source(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["dmat", "--l-x2", "2", "--matrix", "1,0,2,0,3,0,4,0", "--route", "recurrence"])
        assert err.value.code == 2

    def test_auto_takes_the_recurrence_above_the_trusted_spin(self, capsys):
        angles = ["--theta", "0.7", "--phi", "1.2", "--psi", "0.3"]
        cases = [(ORACLE_TRUSTED_L_X2, "oracle"), (ORACLE_TRUSTED_L_X2 + 1, "recurrence"), (200, "recurrence")]
        for l_x2, route in cases:
            code, rec = run_json(capsys, "dmat", "--l-x2", str(l_x2), *angles)
            assert code == 0 and rec["result"]["route_used"] == route and "warnings" not in rec
            _, rec_route = run_json(capsys, "dmat", "--l-x2", str(l_x2), *angles, "--route", route)
            assert rec_route["result"]["matrix"] == rec["result"]["matrix"]
        pairs = np.array(rec["result"]["matrix"])
        T = pairs[..., 0] + 1j * pairs[..., 1]
        assert np.max(np.abs(T @ T.conj().T - np.eye(201))) < 1e-13  # the oracle's: 4.4e25
        code, rec = run_json(capsys, "dmat", "--l-x2", str(ORACLE_TRUSTED_L_X2 + 1), "--matrix", "1,0,0,0,0,0,1,0")
        assert code == 0 and rec["result"]["route_used"] == "oracle"

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
        code, rec = run_json(capsys, "dmat", *argv)
        route = argv[-1]
        assert code == 0
        assert rec["result"]["route_used"] == "oracle"
        assert rec["warnings"] == [f"route {route} unavailable ({reason}); fell back to oracle"]

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
        assert rec["error"]["type"] == "OverflowError"

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
    got = _render_dmat(record, M)
    if got != want:
        # Report the first difference only: pytest's full diff of two long
        # texts is slow enough to stall hypothesis's shrinking.
        at = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y), min(len(got), len(want)))
        pytest.fail(f"texts differ at offset {at}: {got[max(at - 40, 0):at + 40]!r} != {want[max(at - 40, 0):at + 40]!r}")


class TestMatrixJson:
    """The dmat matrix writer against the json.dumps payload it replaced."""

    # From 1 x 1 up to 70 x 70: past one chunk (cli._CHUNK_VALUES parts).
    @given(
        st.integers(1, 70),
        st.lists(FINITE, min_size=1, max_size=24),
        st.integers(0, 2**32 - 1),
        st.sampled_from(DMAT_RECORDS),
    )
    @settings(deadline=None, max_examples=150)
    def test_same_text_as_json_dumps(self, dim, pool, seed, record):
        # Every real and imaginary part is drawn from the pool, so large
        # matrices cost no more to generate than small ones.
        values = np.random.default_rng(seed).choice(np.array(pool), size=(dim, dim, 2))
        M = WignerMatrix(HalfInt(dim - 1), values.view(complex)[..., 0])
        assert_renders_as_json_dumps(record, M)

    def test_non_contiguous_entries(self):
        entries = (np.arange(9.0) + 1j * np.arange(9.0)[::-1]).reshape(3, 3).T
        assert_renders_as_json_dumps(DMAT_RECORDS[0], WignerMatrix(HalfInt(2), entries))


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


def test_importing_the_cli_leaves_numpy_polynomial_unloaded():
    # haar imports leggauss only inside gauss_legendre, which dmat and poly
    # never call.  numpy 1.x imports numpy.polynomial with numpy itself, so
    # the test compares against a bare `import numpy`.
    script = (
        "import json, sys, numpy\n"
        "def loaded(): return sorted(m for m in sys.modules if m.startswith('numpy.polynomial'))\n"
        "bare = loaded()\n"
        "import wignerkit.cli\n"
        "print(json.dumps([bare, loaded()]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env, check=True)
    bare, with_cli = json.loads(done.stdout)
    assert with_cli == bare
    if int(np.__version__.split(".")[0]) >= 2:
        assert with_cli == []
