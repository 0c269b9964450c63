"""Exact integer and half-integer combinatorics.

Spin labels are stored as twice their value, so l = 3/2 is the integer 3 and
all label arithmetic stays exact.  Factorials and binomials are exact
integers and the rising factorial (pochhammer) an exact rational; square
roots and other float conversions happen only at the outermost step.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "HalfInt",
    "is_valid_spin_pair",
    "check_spin_pair",
    "spin_range",
    "spins_up_to",
    "factorial",
    "binomial",
    "pochhammer",
    "pochhammer_pair",
]


@dataclass(frozen=True, order=True)
class HalfInt:
    """An exact integer or half-integer, stored as twice its value."""

    twice: int

    def __post_init__(self):
        object.__setattr__(self, "twice", operator.index(self.twice))

    def __add__(self, other: "HalfInt") -> "HalfInt":
        return HalfInt(self.twice + other.twice)

    def __sub__(self, other: "HalfInt") -> "HalfInt":
        return HalfInt(self.twice - other.twice)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice)

    def __float__(self) -> float:
        return self.twice / 2.0

    def as_int(self) -> int:
        """Convert to a plain integer; only legal when the value is integral."""
        if self.twice % 2:
            raise ValueError(f"{self} is a genuine half-integer, not an integer")
        return self.twice // 2

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


def is_valid_spin_pair(l: HalfInt, m: HalfInt) -> bool:
    """True when m is a weight of the spin-l representation (l-m, l+m in N)."""
    return (
        l.twice >= 0
        and abs(m.twice) <= l.twice
        and (l.twice - m.twice) % 2 == 0
    )


def check_spin_pair(l: HalfInt, m: HalfInt) -> None:
    if not is_valid_spin_pair(l, m):
        raise ValueError(f"invalid spin pair (l={l}, m={m})")


def spin_range(l: HalfInt) -> list[HalfInt]:
    """All weights -l, -l+1, ..., l of the spin-l representation."""
    if l.twice < 0:
        raise ValueError(f"negative spin l={l}")
    return [HalfInt(t) for t in range(-l.twice, l.twice + 1, 2)]


def spins_up_to(max_l: HalfInt) -> list[HalfInt]:
    """All spins 0, 1/2, 1, ... up to and including max_l."""
    return [HalfInt(t) for t in range(0, max_l.twice + 1)]


def factorial(n: int) -> int:
    if n < 0:
        raise ValueError(f"factorial of negative argument {n}")
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    """C(n, k) with the empty-summand convention: 0 for k outside [0, n]."""
    if n < 0:
        raise ValueError(f"binomial with negative row {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def pochhammer(a, k: int) -> Fraction:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1) as an exact rational: with
    a = p/q (any value Fraction takes), the integer product of p + i q over q^k."""
    return Fraction(*pochhammer_pair(a, k))


def pochhammer_pair(a, k: int) -> tuple[int, int]:
    """pochhammer(a, k) as the integer pair (p (p + q) ... (p + (k-1) q), q^k)
    for a = p/q in lowest terms, q > 0: its numerator and denominator, not
    reduced."""
    if k < 0:
        raise ValueError(f"pochhammer with negative length {k}")
    p, q = Fraction(a).as_integer_ratio()
    return math.prod(p + i * q for i in range(k)), q**k
