"""Routes against the high-precision reference table.

tests/data/reference_table.json holds sampled entries of t^l(A) and the norm
s1^(2l) at four elements (three SU(2) Euler triples and one GL(2, C)
element) and l_x2 from 6 to 400, from the exact finite sum
(scripts/reference_table.py).  A route passes at a spin when every sampled
entry is within 1e-10 of the table, relative to the norm.  Each route is held
only up to the spin where it is accurate today, or as far as its cost allows
in a test: the oracle drifts above l_x2 40, and dmatrix_euler costs seconds
above 120.  The Rodrigues and Krawtchouk chart forms cost about l^4; they
are held to 40 and 80.  The recurrence in the spin is held at every spin of
the table, up to 400.  The element forms sum their series exactly and fold
the quadrant onto every cell: the Jacobi form is held to 120 (its worst at
400 was 1.2e-14), the 2F1 form to 80 (from 99 it refuses its factorial
prefactor) and the symmetric 2F1 form to 120.
"""
import importlib.util
import json
from collections import defaultdict
from pathlib import Path

import pytest

from wignerkit.exactcomb import HalfInt
from wignerkit.group import EulerAngles, Mat2C, from_euler
from wignerkit.wigner import (
    ELEMENT_ROUTES,
    ROTATION_ROUTES,
    dmatrix_euler,
    hyp_matrix,
    hyp_symmetric_matrix,
    oracle_matrix,
)

ROOT = Path(__file__).resolve().parents[1]
TABLE = json.loads((ROOT / "tests" / "data" / "reference_table.json").read_text())
TOLERANCE = 1e-10
NORMS = {(name, l2): float(norm) for name, l2, norm in TABLE["norms"]}
CELLS = defaultdict(list)
for name, l2, i, j, re, im in TABLE["entries"]:
    CELLS[name, l2].append(((i, j), complex(float(re), float(im))))
EULER = [name for name, (kind, _) in TABLE["elements"].items() if kind == "euler"]


def load_script():
    spec = importlib.util.spec_from_file_location("reference_table", ROOT / "scripts" / "reference_table.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def angles(name):
    kind, values = TABLE["elements"][name]
    assert kind == "euler"
    return EulerAngles(*values)


def element(name):
    kind, values = TABLE["elements"][name]
    return from_euler(angles(name)) if kind == "euler" else Mat2C(*map(complex, values[::2], values[1::2]))


def worst(entries, name, l2):
    # The largest deviation from the table at the sampled cells, relative to the norm.
    deviations = [abs(entries[i, j] - want) for (i, j), want in CELLS[name, l2]]
    assert deviations, (name, l2)
    return max(deviations) / NORMS[name, l2]


def test_the_table_covers_every_element_and_spin():
    spins = {l2 for _, l2 in NORMS}
    assert spins == {6, 20, 40, 80, 120, 200, 400}
    assert set(CELLS) == set(NORMS) == {(name, l2) for name in TABLE["elements"] for l2 in spins}
    assert all(len(cells) >= 5 for cells in CELLS.values())


@pytest.mark.parametrize("name", sorted(TABLE["elements"]))
@pytest.mark.parametrize("l2", [6, 20, 40])
def test_the_oracle_matches_the_table(name, l2):
    assert worst(oracle_matrix(HalfInt(l2), element(name)).entries, name, l2) <= TOLERANCE


@pytest.mark.parametrize("name", EULER)
@pytest.mark.parametrize("l2", [6, 20, 40, 80, 120])
def test_dmatrix_euler_matches_the_table(name, l2):
    assert worst(dmatrix_euler(HalfInt(l2), angles(name)).entries, name, l2) <= TOLERANCE


@pytest.mark.parametrize(
    "route, l2",
    [("rodrigues", l2) for l2 in (6, 20, 40)]
    + [("krawtchouk", l2) for l2 in (6, 20, 40, 80)]
    + [("recurrence", l2) for l2 in (6, 20, 40, 80, 120, 200, 400)],
)
def test_the_chart_forms_match_the_table(route, l2):
    # All three Euler elements in one stack.
    matrices = ROTATION_ROUTES[route](HalfInt(l2), [angles(name) for name in EULER])
    for name, entries in zip(EULER, matrices):
        assert worst(entries, name, l2) <= TOLERANCE, name


@pytest.mark.parametrize("name", sorted(TABLE["elements"]))
@pytest.mark.parametrize("l2", [6, 20, 40, 80, 120])
def test_the_element_jacobi_form_matches_the_table(name, l2):
    assert worst(ELEMENT_ROUTES["jacobi"](HalfInt(l2), element(name)).entries, name, l2) <= TOLERANCE


@pytest.mark.parametrize("name", sorted(TABLE["elements"]))
@pytest.mark.parametrize(
    "route, l2",
    [("hyp", l2) for l2 in (6, 20, 40, 80)] + [("hyp-symmetric", l2) for l2 in (6, 20, 40, 80, 120)],
)
def test_the_2f1_forms_match_the_table(name, route, l2):
    matrix = {"hyp": hyp_matrix, "hyp-symmetric": hyp_symmetric_matrix}[route](HalfInt(l2), element(name))
    assert worst(matrix.entries, name, l2) <= TOLERANCE


def test_the_script_rederives_the_smallest_spin():
    # The stored rows of l_x2 6 are what the script computes now, each digit
    # reproduced at twice the working precision.
    pytest.importorskip("mpmath")
    script = load_script()
    assert script.ELEMENTS == {name: tuple(spec) for name, spec in TABLE["elements"].items()}
    for name in script.ELEMENTS:
        rows, norm = script.table_rows(name, 6)
        assert rows == [[name, 6, i, j, re, im] for n, l2, i, j, re, im in TABLE["entries"] if (n, l2) == (name, 6)]
        assert norm == next(text for n, l2, text in TABLE["norms"] if (n, l2) == (name, 6))
