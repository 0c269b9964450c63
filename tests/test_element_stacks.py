"""The element forms' stack builders, held to their one-element cases.

sum_matrices, hyp_matrices, hyp_symmetric_matrices and jacobi_matrices build
a form over a list of elements in one pass per spin.  Each matrix of a stack
must be the form's matrix at its element alone, bit for bit, signed zeros
included: every value is compared by the .hex() of both its parts.  Each
per-entry tmn_* must be its stack's entry, and a stack that holds an element
the route refuses must raise.

Every product in those forms follows one rule, wigner._chain: Python's own
complex arithmetic with every operand taken as a complex.  It is checked on
its own, on scalars and on arrays, against complex(first, 0.0) * f1 * ... /
complex(divisor) * last.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerkit.exactcomb import HalfInt, spin_range
from wignerkit.group import EulerAngles, Mat2C, from_euler, sample_haar
from wignerkit.verify import sample_gl2
from wignerkit.wigner import (
    RouteUnavailableError,
    _chain,
    hyp_matrices,
    hyp_matrix,
    hyp_symmetric_matrices,
    hyp_symmetric_matrix,
    jacobi_matrices,
    jacobi_matrix,
    sum_matrices,
    sum_matrix,
    tmn_hyp,
    tmn_hyp_symmetric,
    tmn_jacobi,
    tmn_sum,
)

# Overflowing and underflowing elements make numpy warn on the oracle side; that is expected.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

# Each form's stack builder, one-element builder and per-entry form.
FORMS = {
    "sum": (sum_matrices, sum_matrix, tmn_sum),
    "hyp": (hyp_matrices, hyp_matrix, tmn_hyp),
    "hyp-symmetric": (hyp_symmetric_matrices, hyp_symmetric_matrix, tmn_hyp_symmetric),
    "jacobi": (jacobi_matrices, jacobi_matrix, tmn_jacobi),
}


def hexes(values):
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in np.ravel(values)]


def alone(build, l, A):
    # The one-element matrix, or None where the route refuses the element.
    try:
        return build(l, A).entries
    except ValueError:
        return None


# The parts of an entry: values in [-1, 1], signed zeros, subnormals, and
# values whose products are subnormal (1e-160^2) or underflow to 0 (1e-200^2).
PART = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-160, -1e-160, 1e-200, 3e-170]))
GL2 = st.builds(Mat2C, *(st.builds(complex, PART, PART) for _ in range(4)))
HAAR = st.builds(
    lambda t, p, q: from_euler(EulerAngles(t, p, q)),
    st.floats(0.0, math.pi / 2),
    st.floats(0.0, 2 * math.pi, exclude_max=True),
    st.floats(0.0, 2 * math.pi, exclude_max=True),
)
# Entries that are ints or floats of either sign, signed zeros among them, each taken as the complex (x, 0.0).
REAL = st.builds(Mat2C, *(st.one_of(st.integers(-3, 3), st.floats(-2.0, 2.0), st.just(-0.0)) for _ in range(4)))
ELEMENTS = st.lists(st.one_of(HAAR, GL2, REAL), min_size=1, max_size=4)


@st.composite
def chains(draw):
    # Lanes of one shape of _chain's arguments: (first, factor pairs, divisor or
    # None, last pair or None), the divisor an (m+n)! as a float.
    count, lanes = draw(st.integers(0, 5)), draw(st.integers(1, 4))
    pair, divisor = st.tuples(PART, PART), st.integers(0, 170).map(lambda k: float(math.factorial(k)))
    lane = st.tuples(
        PART,
        st.lists(pair, min_size=count, max_size=count),
        divisor if draw(st.booleans()) else st.none(),
        pair if draw(st.booleans()) else st.none(),
    )
    return draw(st.lists(lane, min_size=lanes, max_size=lanes))


def by_python(first, factors, divisor, last):
    out = complex(first, 0.0)
    for factor in factors:
        out = out * complex(*factor)
    if divisor is not None:
        out = out / complex(divisor)
    return out if last is None else out * complex(*last)


@given(lanes=chains())
@settings(deadline=None, max_examples=300)
def test_the_chain_is_python_complex_arithmetic(lanes):
    want = [by_python(*lane) for lane in lanes]
    for lane, value in zip(lanes, want):  # each lane alone, on Python floats
        assert hexes([complex(*_chain(*lane))]) == hexes([value])
    # All lanes at once, on (N,) arrays: each part of each argument is a column.
    first, factors, divisor, last = zip(*lanes)
    columns = [
        np.array(first),
        [tuple(np.array(part) for part in zip(*pairs)) for pairs in zip(*factors)],
        None if divisor[0] is None else np.array(divisor),
        None if last[0] is None else tuple(np.array(part) for part in zip(*last)),
    ]
    re, im = np.broadcast_arrays(*_chain(*columns))
    assert [(r.hex(), i.hex()) for r, i in zip(re.tolist(), im.tolist())] == hexes(want)


@pytest.mark.parametrize("form", sorted(FORMS))
@given(elements=ELEMENTS, l_x2=st.integers(0, 8))
@settings(deadline=None, max_examples=100)
def test_a_stack_is_its_elements_one_at_a_time(form, elements, l_x2):
    stack_of, matrix, per_entry = FORMS[form]
    l = HalfInt(l_x2)
    singles = [alone(matrix, l, A) for A in elements]
    accepted = [(A, M) for A, M in zip(elements, singles) if M is not None]
    stack = stack_of(l, [A for A, _ in accepted])
    assert stack.shape == (len(accepted), l_x2 + 1, l_x2 + 1)
    for S, (_, M) in zip(stack, accepted):
        assert hexes(S) == hexes(M)
    if len(accepted) < len(elements):
        with pytest.raises(ValueError):
            stack_of(l, elements)
    if accepted:
        # The per-entry form at every entry of the first accepted element.
        A, spins = accepted[0][0], spin_range(l)
        got = [per_entry(l, m, n, A) for m in spins for n in spins]
        assert hexes(got) == hexes(stack[0])


# The routes suite's samples: Haar draws and GL(2, C) draws with b, c away from 0.
SAMPLES = sample_haar(5, 20) + sample_gl2(6, 10)


@pytest.mark.parametrize("form", sorted(FORMS))
def test_the_routes_samples_stack_bit_for_bit_up_to_l_x2_12(form):
    stack_of, matrix, _ = FORMS[form]
    for l_x2 in range(13):
        l = HalfInt(l_x2)
        stack = stack_of(l, SAMPLES)
        assert stack.tobytes() == np.array([matrix(l, A).entries for A in SAMPLES]).tobytes(), l_x2


@pytest.mark.parametrize("form", sorted(FORMS))
def test_a_matrix_built_in_blocks_is_its_per_entry_forms(form):
    # At l_x2 70 one element's build takes the finite sum's 5,041 entries and
    # the quadrant's 1,296 in blocks of at most 1,024; every fifth row and
    # column across them is its per-entry form's, bit for bit.
    _, matrix, per_entry = FORMS[form]
    l, A = HalfInt(70), SAMPLES[20]
    entries, spins = matrix(l, A).entries, spin_range(l)
    for i in range(0, 71, 5):
        for j in [*range(0, 71, 5), 69]:
            assert hexes([per_entry(l, spins[i], spins[j], A)]) == hexes(entries[i, j]), (i, j)


# An element each form refuses at l_x2 = 4: a power of an entry overflows (the
# finite sum), b = 0 (the 2F1 forms), and bc = ad (the Jacobi form); and one
# whose 2F1 series in ad/(bc) = 1e300 overflows at the first quadrant entry.
REFUSED = [
    ("sum", Mat2C(1e300 + 0j, 1e300 + 0j, 1e300 + 0j, 1e300 + 0j),
     "finite sum route's power of a, b, c or d overflows"),
    ("hyp", Mat2C(0.6 + 0.3j, 0j, -0.4 + 0.2j, 0.9 - 0.1j), "2F1 route needs b != 0 and c != 0"),
    ("hyp-symmetric", Mat2C(0.6 + 0.3j, 0j, -0.4 + 0.2j, 0.9 - 0.1j), "2F1 route needs b != 0 and c != 0"),
    ("jacobi", Mat2C(1 + 1j, 2 + 0j, 1j, 1 + 1j), "Jacobi route needs bc != ad"),
    ("hyp", Mat2C(1 + 0j, 1e-150 + 0j, 1e-150 + 0j, 1 + 0j),
     "2F1 route's series 2F1(-(l-m), -(l-n); m+n+1; ad/(bc)) overflows"),
]


@pytest.mark.parametrize("form, refused, message", REFUSED)
@pytest.mark.parametrize("at", [0, 1, 3])
def test_a_stack_with_one_refused_element_raises(form, refused, message, at):
    stack_of, matrix, _ = FORMS[form]
    l = HalfInt(4)
    with pytest.raises(RouteUnavailableError) as alone_info:
        matrix(l, refused)
    assert str(alone_info.value) == message
    elements = [*SAMPLES[:3]]
    elements.insert(at, refused)
    with pytest.raises(RouteUnavailableError) as info:
        stack_of(l, elements)
    assert str(info.value) == message


@pytest.mark.parametrize("form", sorted(FORMS))
def test_a_stack_of_no_elements_is_empty(form):
    stack_of = FORMS[form][0]
    assert stack_of(HalfInt(3), []).shape == (0, 4, 4)
    with pytest.raises(ValueError, match="negative spin"):
        stack_of(HalfInt(-1), [])
