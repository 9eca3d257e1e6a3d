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

import numpy as np

from .errors import BranchCutError

#: the smallest normal double; below its log, conversion to a plain complex
#: saturates to 0
TINY = 2.2250738585072014e-308
LOG_TINY = math.log(TINY)


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


# ---------------------------------------------------------------------------
# log-polar array kernels: every module takes its powers and cosines of
# logarithms from these (real transcendentals only; complex ufuncs are an
# order of magnitude slower on some BLAS-less hosts)
# ---------------------------------------------------------------------------


def log_polar(wr: np.ndarray, wi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log|w|, arg w) for w = wr + i*wi; log|0| = -inf.

    0.5 log(wr^2 + wi^2) is exact to rounding while the squared modulus is a
    finite normal double, about 1e-154 < |w| < 1e154.  The rare elements
    outside that range are recomputed as log(hypot(wr, wi)).
    """
    with np.errstate(divide="ignore", over="ignore"):
        m2 = wr * wr + wi * wi
        lr = 0.5 * np.log(m2)
        # ufunc reductions: np.min and np.max cost twice as much per call
        lo = np.minimum.reduce(m2, axis=None, initial=math.inf)
        if not (lo >= TINY and np.maximum.reduce(m2, axis=None, initial=0.0) < math.inf):
            lr = np.where((m2 >= TINY) & (m2 < math.inf), lr, np.log(np.hypot(wr, wi)))
    return lr, np.arctan2(wi, wr)


def neg_power(lr: np.ndarray, th: np.ndarray, alpha: float) -> np.ndarray:
    """w^-alpha from (log|w|, arg w), principal branch (arrays or floats).

    The angle enters through one tangent of its half, t = tan(alpha th / 2),
    which costs about an eighth of a cosine and a sine: cos(alpha th) =
    (1 - t^2) / (1 + t^2) and sin(alpha th) = 2t / (1 + t^2) stay within a
    few ulps of |w^-alpha| for |alpha th| <= 2 pi.  Every higher power
    w^(-alpha-m) is this value times (1/w)^m, so a series pair costs one exp
    and one tan however many orders it needs.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.tan((0.5 * alpha) * th)
        t2 = t * t
        r = np.exp(-alpha * lr) / (1.0 + t2)
        out = np.empty(np.shape(t), dtype=complex)
        out.real = r * (1.0 - t2)
        out.imag = -2.0 * r * t
    return out


def log_cos(
    lr: np.ndarray, th: np.ndarray, b: float, with_deriv: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """cos(b*L) for L = log|w| + i*arg w, in log form (arrays or floats),
    and with `with_deriv` d/dw log cos(b*log w) = -b tan(b*L) / w (else None).

    Returns (log|cos|, arg cos, exact-zero mask, derivative); where the
    floating cosine is 0.0 its log is -inf.  |cos(x + iy)|^2 = m2 has
    m2 - 1 = sinh^2 y - sin^2 x, so log|cos| = 0.5 log1p(sinh^2 y - sin^2 x)
    keeps full relative precision where m2 is near 1 (a factor of a far
    shift), and 0.5 log(m2) is kept next to zeros.  tan(x + iy) = (sin x
    cos x + i sinh y cosh y) / m2 takes its parts and denominator from the
    cosine; the double-angle form (sin 2x + i sinh 2y) / (cos 2x +
    cosh 2y) cancels next to a zero.
    """
    x = b * lr
    y = b * th
    # log|w| = -inf (w on the set) gives NaN by design
    with np.errstate(divide="ignore", invalid="ignore"):
        c, s = np.cos(x), np.sin(x)
        ch, sh = np.cosh(y), np.sinh(y)
        cr = c * ch
        ci = -s * sh
        m2 = cr * cr + ci * ci
        d = sh * sh - s * s
        log_abs = 0.5 * np.log1p(d)
        wide = ~(np.abs(d) <= 0.5)
        if np.any(wide):
            log_abs = np.where(wide, 0.5 * np.log(m2), log_abs)
    dlog = None
    if with_deriv:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            tan = np.empty(np.shape(x), dtype=complex)
            tan.real = s * c / m2
            tan.imag = sh * ch / m2
            dlog = -b * tan * neg_power(lr, th, 1.0)
    return log_abs, np.arctan2(ci, cr), m2 == 0.0, dlog


# ---------------------------------------------------------------------------
# the single-shift blocks at one point
# ---------------------------------------------------------------------------


def decay_block(z: complex, alpha: float) -> LogComplex:
    """exp(-z**(-alpha)), the smooth factor that dies to all orders at 0.

    Requires 0 < alpha < 1 so the exponent Re(z**-alpha) is nonnegative on
    the closed right half-plane.
    """
    if not (0.0 < alpha < 1.0):
        raise BranchCutError(f"alpha must lie in (0, 1), got {alpha}")
    L = principal_log(z)
    w = complex(neg_power(L.real, L.imag, alpha))
    return LogComplex(-w.real, -w.imag)


def oscillating_block(z: complex, alpha: float) -> LogComplex:
    """cos(log(z)) * exp(-z**(-alpha)).

    The cosine factor vanishes exactly at z = exp((2k+1)*pi/2); a floating
    cosine of a rounded argument rarely lands on 0.0 exactly, in which case
    the result is merely tiny rather than the exact-zero encoding.
    """
    a = decay_block(z, alpha)
    L = principal_log(z)
    log_abs, arg, zero, _ = log_cos(L.real, L.imag, 1.0)
    if zero:
        return LogComplex.zero()
    return LogComplex(a.log_mag + float(log_abs), a.arg + float(arg))
