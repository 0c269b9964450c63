"""Every route's build over a list of spins, held to its one-spin builds.

Each *_by_spin builder makes its tables once, at the largest spin, and every
spin reads their prefix.  Its stacks must be the one-spin builder's at each
spin, bit for bit, signed zeros included (compared as bytes), and it must
raise exactly where one of its spins' one-spin builds raises: the refusal of
the first such spin in the list, with the same type and message.
"""
import math

import numpy as np
import pytest

from wignerkit.exactcomb import HalfInt
from wignerkit.group import EulerAngles, Mat2C, from_euler, sample_haar
from wignerkit.verify import sample_gl2
from wignerkit.wigner import (
    ROTATION_ROUTES,
    ROTATION_STACKS,
    RouteUnavailableError,
    hyp_matrices,
    hyp_matrices_by_spin,
    hyp_symmetric_matrices,
    hyp_symmetric_matrices_by_spin,
    jacobi_matrices,
    jacobi_matrices_by_spin,
    jacobi_stack,
    jacobi_stack_by_spin,
    krawtchouk_stack,
    krawtchouk_stack_by_spin,
    oracle_stack,
    oracle_stack_by_spin,
    recurrence_stack,
    recurrence_stack_by_spin,
    rodrigues_stack,
    rodrigues_stack_by_spin,
    sum_matrices,
    sum_matrices_by_spin,
)

# Overflowing elements make numpy warn in the oracle's running products; that is expected.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def entries(elements):
    return [[getattr(A, x) for A in elements] for x in "abcd"]


# Each form's build over a list of spins and its one-spin build, both called with a list of elements or thetas.
ELEMENT_FORMS = {
    "oracle": (
        lambda spins, elements: oracle_stack_by_spin(spins, *entries(elements)),
        lambda l, elements: oracle_stack(l, *entries(elements)),
    ),
    "sum": (sum_matrices_by_spin, sum_matrices),
    "hyp": (hyp_matrices_by_spin, hyp_matrices),
    "hyp-symmetric": (hyp_symmetric_matrices_by_spin, hyp_symmetric_matrices),
    "jacobi": (jacobi_matrices_by_spin, jacobi_matrices),
}
CHART_FORMS = {
    "jacobi": (jacobi_stack_by_spin, jacobi_stack),
    "rodrigues": (rodrigues_stack_by_spin, rodrigues_stack),
    "krawtchouk": (krawtchouk_stack_by_spin, krawtchouk_stack),
    "recurrence": (recurrence_stack_by_spin, recurrence_stack),
}

# The routes suite's samples and Euler triples at seed 0.
SAMPLES = sample_haar(0, 20) + sample_gl2(1, 10)
_rng = np.random.default_rng(2)
TRIPLES = [
    EulerAngles(*angles)
    for angles in zip(*(_rng.uniform(0, top, 20) for top in (math.pi / 2, 2 * math.pi, 2 * math.pi)))
]
THETAS = [angles.theta for angles in TRIPLES]

# Edge elements, each refused by some form at some spins or at all of them.
EDGES = {
    "b = 0": Mat2C(0.6 + 0.2j, 0.0, 0.5j, 0.7),
    "c = 0": Mat2C(0.6, -0.3 + 0.1j, -0.0, 0.7 - 0.4j),
    "bc = ad": Mat2C(0.5, 0.25, 1.0, 0.5),
    # |entries| near 1e30: the powers overflow from l_x2 11 on, bc - ad's from 12.
    "overflowing powers": Mat2C(1e30 + 1e29j, 2e29, -3e29j, 1e30),
    # exact int powers past the float range from l_x2 11 on
    "overflowing int powers": Mat2C(10**30, 3, 2, 10**30),
    # ad/(bc) about 1e296: the 2F1 series of degree 2 and up overflow, from l_x2 4 on
    "overflowing series": Mat2C(0.9, 1e-148, 1e-148j, 0.8),
}
# Thetas each chart form refuses at every spin or at some spins only.
EDGE_THETAS = {"0": 0.0, "pi/2": math.pi / 2, "tiny": 1e-200, "pi/4": math.pi / 4}

SPINS = [HalfInt(l_x2) for l_x2 in range(13)]
# The same spins out of order, one of them twice.
SHUFFLED = [HalfInt(l_x2) for l_x2 in (7, 0, 12, 3, 3, 1, 10, 2, 11, 4, 5, 6, 8, 9)]


def one_spin_builds(build, spins, inputs):
    """Each spin's one-spin build in order, as (shape, bytes), or the first refusal as (type, message)."""
    out = []
    for l in spins:
        try:
            stack = build(l, inputs)
        except (RouteUnavailableError, OverflowError) as exc:
            return type(exc), str(exc)
        out.append((stack.shape, stack.tobytes()))
    return out


def spin_build(build, spins, inputs):
    """The build over the spins, in the form of one_spin_builds."""
    try:
        stacks = build(spins, inputs)
    except (RouteUnavailableError, OverflowError) as exc:
        return type(exc), str(exc)
    assert len(stacks) == len(spins)
    return [(stack.shape, stack.tobytes()) for stack in stacks]


ELEMENT_SETS = {
    "samples": SAMPLES,
    **{name: [A] for name, A in EDGES.items()},
    **{f"samples and {name}": [*SAMPLES[:4], A, *SAMPLES[25:]] for name, A in EDGES.items()},
    # Refused by the 2F1 form for its series from l_x2 4 on, before its powers overflow at 11.
    "series, then powers": [EDGES["overflowing series"], EDGES["overflowing powers"]],
}


@pytest.mark.parametrize("spins", [SPINS, SHUFFLED], ids=["in order", "shuffled"])
@pytest.mark.parametrize("elements", sorted(ELEMENT_SETS))
@pytest.mark.parametrize("form", sorted(ELEMENT_FORMS))
def test_an_element_form_over_spins_is_its_one_spin_builds(form, elements, spins):
    by_spin, one_spin = ELEMENT_FORMS[form]
    inputs = ELEMENT_SETS[elements]
    assert spin_build(by_spin, spins, inputs) == one_spin_builds(one_spin, spins, inputs)


def test_the_edge_elements_are_refused_where_they_should_be():
    # The cases above meet a refusal at every spin, at some spins only, and
    # after the tables, so each path of the by-spin builds is taken.
    def refused_at(build, A):
        return [l.twice for l in SPINS if isinstance(one_spin_builds(build, [l], [A]), tuple)]

    assert refused_at(hyp_matrices, EDGES["b = 0"]) == list(range(13))
    assert refused_at(hyp_symmetric_matrices, EDGES["c = 0"]) == list(range(13))
    assert refused_at(jacobi_matrices, EDGES["bc = ad"]) == list(range(13))
    assert refused_at(sum_matrices, EDGES["overflowing powers"]) == [11, 12]
    assert refused_at(sum_matrices, EDGES["overflowing int powers"]) == [11, 12]
    assert refused_at(jacobi_matrices, EDGES["overflowing int powers"]) == [11, 12]
    assert refused_at(hyp_matrices, EDGES["overflowing series"]) == list(range(4, 13))
    assert refused_at(ELEMENT_FORMS["oracle"][1], EDGES["overflowing powers"]) == [11, 12]
    assert refused_at(sum_matrices, EDGES["bc = ad"]) == []


THETA_SETS = {
    "triples": THETAS,
    **{name: [theta] for name, theta in EDGE_THETAS.items()},
    **{f"triples and {name}": [*THETAS[:3], theta, *THETAS[17:]] for name, theta in EDGE_THETAS.items()},
}


@pytest.mark.parametrize("spins", [SPINS, SHUFFLED], ids=["in order", "shuffled"])
@pytest.mark.parametrize("thetas", sorted(THETA_SETS))
@pytest.mark.parametrize("form", sorted(CHART_FORMS))
def test_a_chart_form_over_spins_is_its_one_spin_builds(form, thetas, spins):
    by_spin, one_spin = CHART_FORMS[form]
    inputs = THETA_SETS[thetas]
    assert spin_build(by_spin, spins, inputs) == one_spin_builds(one_spin, spins, inputs)


def test_the_edge_thetas_are_refused_where_they_should_be():
    def refused_at(build, theta):
        return [l.twice for l in SPINS if isinstance(one_spin_builds(build, [l], [theta]), tuple)]

    assert refused_at(rodrigues_stack, 0.0) == list(range(13))
    assert refused_at(krawtchouk_stack, math.pi / 2) == list(range(13))
    # sin^-(m+n) of a tiny theta overflows only where m + n is large enough
    assert refused_at(rodrigues_stack, 1e-200)[:1] == [2] and refused_at(rodrigues_stack, 1e-200)[-1] == 12


def test_a_build_over_no_spins_is_empty_and_a_negative_spin_is_refused():
    for forms, inputs in ((ELEMENT_FORMS, SAMPLES), (CHART_FORMS, THETAS)):
        for by_spin, _ in forms.values():
            assert by_spin([], inputs) == []
    with pytest.raises(ValueError, match="negative spin"):
        sum_matrices_by_spin([HalfInt(2), HalfInt(-1)], SAMPLES)
    with pytest.raises(ValueError, match="negative spin"):
        rodrigues_stack_by_spin([HalfInt(-1)], THETAS)


def test_the_rotation_stacks_are_the_rotation_routes_without_their_phases():
    # ROTATION_STACKS lists the routes of ROTATION_ROUTES in their order, and each
    # route's matrices are chart_phases times its by-spin stacks, bit for bit.
    from wignerkit.wigner import chart_phases

    assert list(ROTATION_STACKS) == list(ROTATION_ROUTES)
    spins = SPINS[:7]
    for name, stacks in ROTATION_STACKS.items():
        got = [chart_phases(l, TRIPLES) * S for l, S in zip(spins, stacks(spins, THETAS))]
        want = [ROTATION_ROUTES[name](l, TRIPLES) for l in spins]
        assert [S.tobytes() for S in got] == [S.tobytes() for S in want], name


def test_the_routes_samples_are_the_oracle_stacks_of_the_triples():
    # The triples' elements through the oracle over spins, as the suite builds its references.
    elements = [from_euler(angles) for angles in TRIPLES]
    by_spin, one_spin = ELEMENT_FORMS["oracle"]
    assert spin_build(by_spin, SPINS, elements) == one_spin_builds(one_spin, SPINS, elements)
