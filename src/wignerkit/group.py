"""Elements of GL(2, C) and SU(2): the angle parametrization, group
operations, membership predicates and uniform (Haar) sampling.

SU(2) membership is a predicate rather than a type of its own: the
representation matrices are defined on all of GL(2, C) and the library
evaluates them there too.
"""
from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Mat2C",
    "EulerAngles",
    "from_euler",
    "multiply",
    "diag_element",
    "sample_haar",
    "seeded_random",
]

SU2_TOL = 1e-12


@dataclass(frozen=True)
class Mat2C:
    """The 2x2 complex matrix [[a, b], [c, d]]."""

    a: complex
    b: complex
    c: complex
    d: complex

    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def is_invertible(self) -> bool:
        return abs(self.det()) > 0

    def is_su2(self) -> bool:
        """Check the unitary-determinant-one shape [[a, -conj(c)], [c, conj(a)]], within SU2_TOL."""
        return (
            abs(abs(self.a) ** 2 + abs(self.c) ** 2 - 1) <= SU2_TOL
            and abs(self.b + self.c.conjugate()) <= SU2_TOL
            and abs(self.d - self.a.conjugate()) <= SU2_TOL
        )

    def as_array(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=complex)

    @classmethod
    def from_array(cls, arr) -> "Mat2C":
        arr = np.asarray(arr)
        if arr.shape != (2, 2):
            raise ValueError(f"expected a 2x2 array, got shape {arr.shape}")
        return cls(complex(arr[0, 0]), complex(arr[0, 1]), complex(arr[1, 0]), complex(arr[1, 1]))


@dataclass(frozen=True)
class EulerAngles:
    """The (theta, phi, psi) chart on SU(2).

    theta lies in [0, pi/2]; phi and psi in [0, 2*pi).  At theta = 0 or
    theta = pi/2 one of the phases is redundant, which is accepted as a
    measure-zero coordinate degeneracy.
    """

    theta: float
    phi: float
    psi: float

    def __post_init__(self):
        if not 0 <= self.theta <= math.pi / 2:
            raise ValueError(f"theta={self.theta} outside [0, pi/2]")
        if not 0 <= self.phi < 2 * math.pi:
            raise ValueError(f"phi={self.phi} outside [0, 2*pi)")
        if not 0 <= self.psi < 2 * math.pi:
            raise ValueError(f"psi={self.psi} outside [0, 2*pi)")


def from_euler(angles: EulerAngles) -> Mat2C:
    """The SU(2) element [[sin(t) e^{i phi}, -cos(t) e^{-i psi}],
    [cos(t) e^{i psi}, sin(t) e^{-i phi}]]."""
    st, ct = math.sin(angles.theta), math.cos(angles.theta)
    ephi = cmath.exp(1j * angles.phi)
    epsi = cmath.exp(1j * angles.psi)
    return Mat2C(st * ephi, -ct / epsi, ct * epsi, st / ephi)


def multiply(A: Mat2C, B: Mat2C) -> Mat2C:
    return Mat2C(
        A.a * B.a + A.b * B.c,
        A.a * B.b + A.b * B.d,
        A.c * B.a + A.d * B.c,
        A.c * B.b + A.d * B.d,
    )


def diag_element(phi: float) -> Mat2C:
    """The diagonal SU(2) element diag(e^{i phi}, e^{-i phi})."""
    e = cmath.exp(1j * phi)
    return Mat2C(e, 0j, 0j, 1 / e)


def seeded_random(seed: int):
    """random.Random at a seed: the one source of every sample drawn here.

    The seed is an int of at least 0.  random.Random alone would take -5 as 5
    and hash a float or a str, so those are refused rather than aliased.
    """
    import random  # here, so that importing the package loads no sampler

    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return random.Random(seed)


def sample_haar(rng_seed: int, count: int) -> list[Mat2C]:
    """Draw `count` SU(2) elements from the normalized invariant measure.

    cos(2*theta) is uniform on [-1, 1] (this realizes the sin*cos density in
    theta) and the two phases are uniform on [0, 2*pi): all `count` values
    of cos(2*theta), then all of phi, then all of psi, from seeded_random.
    The sequence is a pure function of the seed, on every platform.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    rng = seeded_random(rng_seed)
    x = [rng.uniform(-1.0, 1.0) for _ in range(count)]
    phi = [rng.uniform(0.0, 2 * math.pi) for _ in range(count)]
    psi = [rng.uniform(0.0, 2 * math.pi) for _ in range(count)]
    thetas = [0.5 * math.acos(v) for v in x]  # per sample: np.arccos's bits depend on the SIMD level
    return [from_euler(EulerAngles(t, p, q)) for t, p, q in zip(thetas, phi, psi)]
