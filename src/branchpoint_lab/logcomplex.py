"""Principal-branch elementary functions and a log-magnitude complex type.

Magnitudes like exp(-1e6) fall far below the double-precision range, so
complex values are carried as (log magnitude, argument) pairs.  The argument
is accumulated unreduced; reduction to (-pi, pi] happens only on request, so
long products do not wrap prematurely.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import BranchCutError

#: below this log-magnitude, conversion to a plain complex saturates to 0
LOG_TINY = math.log(2.2250738585072014e-308)


@dataclass(frozen=True)
class LogComplex:
    """The value exp(log_mag + i*arg); log_mag = -inf encodes exact zero."""

    log_mag: float
    arg: float = 0.0

    @classmethod
    def zero(cls) -> "LogComplex":
        return cls(-math.inf, 0.0)

    @classmethod
    def from_complex(cls, w: complex) -> "LogComplex":
        w = complex(w)
        if w == 0:
            return cls.zero()
        # math.atan2, not cmath.phase, which raises on a subnormal phase
        return cls(math.log(abs(w)), math.atan2(w.imag, w.real))

    @property
    def is_zero(self) -> bool:
        return self.log_mag == -math.inf

    def mul(self, other: "LogComplex") -> "LogComplex":
        if self.is_zero or other.is_zero:
            return LogComplex.zero()
        return LogComplex(self.log_mag + other.log_mag, self.arg + other.arg)

    def abs(self) -> float:
        return math.exp(self.log_mag) if self.log_mag != -math.inf else 0.0

    def reduced_arg(self) -> float:
        """Argument folded into (-pi, pi]."""
        if self.is_zero:
            return 0.0
        a = math.remainder(self.arg, 2.0 * math.pi)
        return a if a != -math.pi else math.pi

    def to_complex(self) -> complex:
        if self.log_mag < LOG_TINY:
            return 0j
        return cmath.rect(math.exp(self.log_mag), self.reduced_arg())


def principal_log(z: complex) -> complex:
    """Principal logarithm; rejects the closed negative real axis and 0."""
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0:
        raise BranchCutError(f"log undefined on the cut (-inf, 0]: z = {z}")
    return cmath.log(z)


def complex_pow(z: complex, alpha: float) -> complex:
    """z**alpha through the principal logarithm."""
    return cmath.exp(alpha * principal_log(z))


def decay_block(z: complex, alpha: float) -> LogComplex:
    """exp(-z**(-alpha)), the smooth factor that dies to all orders at 0.

    Requires 0 < alpha < 1 so the exponent Re(z**-alpha) is nonnegative on
    the closed right half-plane.
    """
    if not (0.0 < alpha < 1.0):
        raise BranchCutError(f"alpha must lie in (0, 1), got {alpha}")
    w = complex_pow(z, -alpha)
    return LogComplex(-w.real, -w.imag)


def oscillating_block(z: complex, alpha: float) -> LogComplex:
    """cos(log(z)) * exp(-z**(-alpha)).

    The cosine factor vanishes exactly at z = exp((2k+1)*pi/2); a floating
    cosine of a rounded argument rarely lands on 0.0 exactly, in which case
    the result is merely tiny rather than the exact-zero encoding.
    """
    c = cmath.cos(principal_log(z))
    a = decay_block(z, alpha)
    if c == 0:
        return LogComplex.zero()
    return LogComplex(a.log_mag + math.log(abs(c)), a.arg + math.atan2(c.imag, c.real))
