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

from wignerkit.cli import MAX_DMAT_L_X2, _render_dmat, main
from wignerkit.exactcomb import HalfInt
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
        assert rec["schema_version"] == "1"
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

    def test_rodrigues_needs_zero_phases(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["dmat", "--l-x2", "2", "--theta", "0.4", "--phi", "0.3", "--route", "rodrigues"])
        assert err.value.code == 2

    def test_missing_source_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["dmat", "--l-x2", "2"])
        assert err.value.code == 2

    def test_bad_matrix_length_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["dmat", "--l-x2", "2", "--matrix", "1,2,3"])
        assert err.value.code == 2

    def test_malformed_matrix_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["dmat", "--l-x2", "2", "--matrix", "x,0,0,0,0,0,1,0"])
        assert err.value.code == 2

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
                ["--l-x2", "3", "--theta", "0", "--route", "krawtchouk"],
                "negative sin power: Krawtchouk route needs theta > 0 when m + n < 0",
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
        ],
    )
    def test_fallback_warning_names_the_first_failing_entry(self, capsys, argv, reason):
        code, rec = run_json(capsys, "dmat", *argv)
        route = argv[-1]
        assert code == 0
        assert rec["result"]["route_used"] == "oracle"
        assert rec["warnings"] == [f"route {route} unavailable ({reason}); fell back to oracle"]

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
        "schema_version": "1",
        "command": "dmat",
        "inputs": {"l_x2": 0, "source": "euler", "theta": 0.7, "phi": 1.2, "psi": 0.3, "route": "auto"},
        "result": {"l_x2": 0, "dim": 1, "route_used": "oracle"},
    },
    {
        "schema_version": "1",
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

    @given(
        st.integers(1, 30),
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

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", "nonsense"])
        assert err.value.code == 2

    def test_grid_override_still_exact(self, capsys):
        code, rec = run_json(
            capsys,
            "verify", "--suite", "schur", "--max-l-x2", "2",
            "--grid-ntheta", "6", "--grid-nphi", "9", "--grid-npsi", "9",
        )
        assert code == 0
        assert rec["result"]["passed"] is True

    def test_all_suite_smallest_run_under_five_seconds(self, capsys):
        import time

        t0 = time.monotonic()
        code, rec = run_json(capsys, "verify", "--suite", "all", "--max-l-x2", "1", "--seed", "7")
        elapsed = time.monotonic() - t0
        assert code == 0
        assert rec["result"]["passed"] is True
        assert elapsed < 5.0


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
