"""Log-scaled complex values.

The LG prefactors behave like (2e/u)^(u/4) and overflow doubles well
before the expansions stop being useful, so function values are carried
as ``mantissa * exp(exponent)`` with a unit-modulus mantissa and a real
natural-log exponent.
"""
from __future__ import annotations

import cmath
import math
from typing import NamedTuple


class ScaledValue(NamedTuple):
    """A complex number mantissa*e^exponent with |mantissa| = 1 (or 0).

    Immutable; a named tuple rather than a frozen dataclass because one
    LG evaluation builds about fifteen and the dataclass constructor
    costs twice as much.  The arithmetic operators below replace the
    tuple's concatenation and repetition.
    """
    mantissa: complex
    exponent: float

    @staticmethod
    def make(mantissa: complex, exponent: float = 0.0) -> "ScaledValue":
        r = abs(mantissa)
        if r == 0.0:
            return ScaledValue(0j, 0.0)
        return ScaledValue(mantissa / r, exponent + math.log(r))

    @property
    def is_zero(self) -> bool:
        return self.mantissa == 0

    def to_complex(self) -> complex:
        """Unscaled value; may overflow to inf for large exponents."""
        if self.is_zero:
            return 0j
        return self.mantissa * cmath.exp(complex(self.exponent))

    def log_abs(self) -> float:
        return -math.inf if self.is_zero else self.exponent

    def conjugate(self) -> "ScaledValue":
        return ScaledValue(self.mantissa.conjugate(), self.exponent)

    def __neg__(self) -> "ScaledValue":
        return ScaledValue(-self.mantissa, self.exponent)

    def __mul__(self, other) -> "ScaledValue":
        if isinstance(other, ScaledValue):
            if self.is_zero or other.is_zero:
                return ScaledValue(0j, 0.0)
            return ScaledValue.make(self.mantissa * other.mantissa,
                                    self.exponent + other.exponent)
        return ScaledValue.make(self.mantissa * other, self.exponent)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ScaledValue":
        if isinstance(other, ScaledValue):
            if other.is_zero:
                raise ZeroDivisionError("division by zero ScaledValue")
            if self.is_zero:
                return ScaledValue(0j, 0.0)
            return ScaledValue.make(self.mantissa / other.mantissa,
                                    self.exponent - other.exponent)
        return ScaledValue.make(self.mantissa / other, self.exponent)

    def __add__(self, other: "ScaledValue") -> "ScaledValue":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        e = max(self.exponent, other.exponent)
        m = (self.mantissa * math.exp(self.exponent - e)
             + other.mantissa * math.exp(other.exponent - e))
        return ScaledValue.make(m, e)

    def __sub__(self, other: "ScaledValue") -> "ScaledValue":
        return self + (-other)
