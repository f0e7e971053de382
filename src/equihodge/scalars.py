"""Exact scalars that carry an explicit power of pi.

Inner products on the exact backends are rational multiples of a power of
pi (2*pi per circle factor, one factor of pi for the sphere area).  Keeping
the power symbolic lets every projection coefficient stay an exact rational:
ratios of inner products with the same power cancel the pi factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class PiScalar:
    """A value ``coeff * pi**pi_power`` with exact rational ``coeff``."""

    coeff: Fraction
    pi_power: int

    def __post_init__(self):
        object.__setattr__(self, "coeff", Fraction(self.coeff))

    @property
    def is_zero(self) -> bool:
        return self.coeff == 0

    def __float__(self) -> float:
        return float(self.coeff) * math.pi ** self.pi_power

    def __add__(self, other: "PiScalar") -> "PiScalar":
        if self.is_zero:
            return PiScalar(other.coeff, other.pi_power)
        if other.is_zero:
            return self
        if self.pi_power != other.pi_power:
            raise ValueError("cannot add pi-scalars of different pi powers")
        return PiScalar(self.coeff + other.coeff, self.pi_power)

    def __neg__(self) -> "PiScalar":
        return PiScalar(-self.coeff, self.pi_power)

    def __sub__(self, other: "PiScalar") -> "PiScalar":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, PiScalar):
            return PiScalar(self.coeff * other.coeff, self.pi_power + other.pi_power)
        return PiScalar(self.coeff * Fraction(other), self.pi_power)

    __rmul__ = __mul__

    def __repr__(self):
        if self.pi_power == 0 or self.coeff == 0:
            return "PiScalar(%s)" % (self.coeff,)
        return "PiScalar(%s * pi^%d)" % (self.coeff, self.pi_power)
