"""L2 mass curves and log-log slope diagnostics for boundary vanishing.

The squared density of a candidate function is integrated over half-disks
B_R in log space, giving logMass down to values like -10^4 that a direct
double-precision integral would flatten to zero.  Infinite-order vanishing
at a boundary point shows up as the slope of logMass against log R growing
without bound as the window of radii moves inward; the companion doubling
ratio log2(mass(2r)/mass(r))/2 grows likewise, while at interior points of
a nonvanishing function both settle at the area exponent 2.  A ladder of
radii is integrated region by region: the innermost disk once, then each
annulus between consecutive rungs once, and every rung sums the regions
inside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._quad import QuadConfig, log_disk_integral
from .cantor import CantorSet
from .errors import ValidationError
from .frequency import MinimizerSpec, _check_disk, polar_mesh
from .series import FAR_TOL, SeriesParams, decay_exponent_many

__all__ = [
    "MassCurve",
    "RealPartTarget",
    "ConstantTarget",
    "default_ladder",
    "mass_curve",
    "vanishing_order_slope",
    "sliding_window_slopes",
    "doubling_ratio",
]


@dataclass(frozen=True)
class RealPartTarget:
    """u = Re(exp(-F)) for the shifted power sum F over a boundary set.

    The density (Re u)^2 = exp(-2 Re F) cos^2(Im F) is smooth on the open
    half-plane and dies to all orders on the boundary set.
    """

    params: SeriesParams
    cs: CantorSet
    domain = "half_plane"

    def log_density(self, zs: np.ndarray) -> np.ndarray:
        F, _, _ = decay_exponent_many(self.params, self.cs, zs, far_tol=FAR_TOL)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = -2.0 * F.real + 2.0 * np.log(np.abs(np.cos(F.imag)))
        return np.where(np.isnan(out), -np.inf, out)

    def decay_rate(self, rho: float) -> float:
        al = self.params.max_exponent()
        return 2.0 * (math.pi**2 / 6.0) * al * rho ** (-al)


@dataclass(frozen=True)
class ConstantTarget:
    """u identically constant; mass over B_R is pi R^2 c^2."""

    value: float
    domain = "plane"

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValidationError(f"constant value must be finite, got {self.value}")

    def log_density(self, zs: np.ndarray) -> np.ndarray:
        if self.value == 0.0:
            return np.full(np.asarray(zs).shape, -np.inf)
        return np.full(np.asarray(zs).shape, 2.0 * math.log(abs(self.value)))

    def decay_rate(self, rho: float) -> float:
        return 0.0


# a mass target: anything with `domain`, `log_density(zs)` (the log of |u|^2)
# and `decay_rate(rho)` (|d/dr log density| near the domain edge at radius rho)
Target = MinimizerSpec | RealPartTarget | ConstantTarget


@dataclass(frozen=True)
class MassCurve:
    """log of the L2 mass over B_R at a descending ladder of radii."""

    center: complex
    radii: tuple[float, ...]
    log_mass: tuple[float, ...]
    quadrature_errors: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.radii) != len(self.log_mass):
            raise ValidationError("radii and log_mass lengths differ")
        _check_ladder(self.radii)
        if not np.all(np.isfinite(self.log_mass)):
            raise ValidationError("log_mass must be finite (log-space evaluation)")


def _check_ladder(radii: Sequence[float]) -> None:
    """Raise unless the ladder has two or more positive, strictly descending
    radii."""
    if len(radii) < 2:
        raise ValidationError("a mass curve needs at least two radii")
    r = np.asarray(radii)
    if not (np.all(r > 0) and np.all(np.diff(r) < 0)):
        raise ValidationError("radii must be positive and strictly descending")


def default_ladder(rungs: int = 12, largest: float = 0.2) -> list[float]:
    """Geometric radius ladder, ratio 1/sqrt(2), descending."""
    if rungs < 2 or largest <= 0:
        raise ValidationError(f"invalid ladder ({rungs} rungs, largest {largest})")
    return [largest * 2.0 ** (-0.5 * k) for k in range(rungs)]


def log_mass(
    target: Target,
    center: complex,
    r: float,
    config: QuadConfig | None = None,
    *,
    r_inner: float = 0.0,
) -> tuple[float, float]:
    """log of the integral of the squared density over the (annular) disk
    r_inner <= |z - center| <= r, clipped to the domain, plus a log-error
    estimate."""
    cfg = config or QuadConfig()
    center = _check_disk(center, r, r_inner)
    r_edges, arcs, _ = polar_mesh(
        center, r, target.domain, target.decay_rate, r_inner=r_inner
    )
    return log_disk_integral(target.log_density, center, r_edges, arcs, cfg)


def mass_curve(
    target: Target,
    center: complex,
    radii: Sequence[float] | None = None,
    config: QuadConfig | None = None,
) -> MassCurve:
    """Evaluate the L2 mass at every rung of a descending radius ladder.

    The ladder is checked before any quadrature.  The innermost disk is
    integrated once, as `log_mass` does, and so is each annulus between
    consecutive rungs, outward; a rung's log-mass is the logaddexp of the
    regions inside it.  Its log-error is log sum_i w_i exp(e_i), where w_i
    is region i's share of the rung's mass and e_i its log-error, so it
    never exceeds the largest e_i; the innermost rung keeps its disk's
    value and error.
    """
    rs = default_ladder() if radii is None else [float(r) for r in radii]
    _check_ladder(rs)
    lm, err = log_mass(target, center, rs[-1], config)
    # running logs of sum m_i and of sum m_i exp(e_i), and the largest e_i
    lms, errs = [lm], [err]
    lme, top = lm + err, err
    for r_out, r_in in zip(rs[-2::-1], rs[:0:-1]):
        la, ea = log_mass(target, center, r_out, config, r_inner=r_in)
        lm = float(np.logaddexp(lm, la))
        lme = float(np.logaddexp(lme, la + ea))
        top = max(top, ea)
        lms.append(lm)
        # min: rounding in the two running sums must not lift it past top
        errs.append(min(top, lme - lm))
    return MassCurve(complex(center), tuple(rs), tuple(lms[::-1]), tuple(errs[::-1]))


def vanishing_order_slope(curve: MassCurve, window: Sequence[int]) -> float:
    """Least-squares slope of logMass against log R over the given indices.

    A function vanishing to order k at the center gives slope about 2k + 2;
    infinite-order vanishing pushes the slope past every fixed bound as the
    window moves to smaller radii.
    """
    idx = list(window)
    if len(idx) < 2:
        raise ValidationError(f"slope window needs >= 2 points, got {len(idx)}")
    logR = np.log([curve.radii[i] for i in idx])
    logM = np.array([curve.log_mass[i] for i in idx])
    if np.ptp(logR) == 0.0:
        raise ValidationError("degenerate slope window: equal radii")
    return float(np.polyfit(logR, logM, 1)[0])


def sliding_window_slopes(curve: MassCurve, width: int = 3) -> list[float]:
    """Slopes over consecutive windows [i, i+width), largest radii first."""
    if width < 2 or width > len(curve.radii):
        raise ValidationError(f"invalid window width {width}")
    return [
        vanishing_order_slope(curve, range(i, i + width))
        for i in range(len(curve.radii) - width + 1)
    ]


def doubling_ratio(curve: MassCurve, rtol: float = 1e-9) -> list[float]:
    """Empirical doubling exponents log2(mass(2r)/mass(r))/2 over every
    (2r, r) pair present in the ladder, largest r first."""
    out = []
    radii = np.asarray(curve.radii)
    for i, r2 in enumerate(curve.radii):
        j = np.nonzero(np.abs(radii - 0.5 * r2) <= rtol * r2)[0]
        if j.size:
            out.append(
                (curve.log_mass[i] - curve.log_mass[int(j[0])]) / (2.0 * math.log(2.0))
            )
    if not out:
        raise ValidationError("ladder contains no (2r, r) pairs")
    return out
