"""Almgren frequency functions for Q-valued roots of holomorphic functions.

The Q-valued minimizer u(z) = sum of the Q-th roots of h(z) has closed-form
energy and mass densities: |Du|^2 = (2/Q)|h|^(2/Q - 2)|h'|^2 and
|u|^2 = Q|h|^(2/Q).  Both are integrated in log space (via the shared
quadrature, whose one line integral takes nested trapezoid rings on full
circles and Gauss panels on arcs and chords) so the frequency ratio I = D/H
stays computable even when D and H individually underflow near the
boundary set.  On the plane D is taken on the arc of H, by Green's
identity, and on a half-disk that crosses the imaginary axis on that arc
and the chord on the axis.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from ._quad import DROP, MAX_NODES, MIN_FRAC, QuadConfig, log_difference, log_disk_integral
from ._quad import Arcs, _passed, log_line_integral, refined_breakpoints
from ._quad import refined_panels
from .cantor import CantorSet, IntervalIndex
from .errors import ConvergenceError, DegenerateMassError, ValidationError
from .logcomplex import log_cos, log_polar, neg_power
from .series import FAR_TOL, SeriesParams, decay_exponent_many, log_cosine_product_many
from .series import product_zero


# ---------------------------------------------------------------------------
# base holomorphic functions h
# ---------------------------------------------------------------------------


class BaseFunction(ABC):
    """A holomorphic h whose Q-th roots define the minimizer.

    Log-magnitude/argument evaluation keeps densities meaningful when |h|
    underflows.  `log_h(zs, deriv=True)` adds h' from the same pass.
    `decay_rate(rho)` bounds |d log|h| / dtheta| at distance rho from the
    function's singular corner; it seeds boundary-layer panels and may be
    zero for smooth cases.

    `axis_singularities` lists the y of the points iy where a half-plane h
    is singular on the imaginary axis, or is None where they are a Cantor
    set; it chooses how D is taken on a disk that crosses the axis
    (`log_dirichlet_energy`).
    """

    domain: str = "plane"
    axis_singularities: tuple[float, ...] | None = None

    @abstractmethod
    def log_h(self, zs: np.ndarray, deriv: bool = False) -> tuple[np.ndarray, ...]:
        """(log|h|, arg h) on an array, and with `deriv` also
        (log|h'|, arg h'); log|h| = -inf marks an exact zero.  Without
        `deriv` no part of h' is formed."""

    def zeros_in_disk(self, center: complex, r: float) -> list[complex]:
        return []

    def decay_rate(self, rho: float) -> float:
        return 0.0


def _log_split(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log|v|, arg v) of a complex array; log|0| = -inf."""
    with np.errstate(divide="ignore"):
        return np.log(np.abs(vals)), np.angle(vals)


def _nan_is_zero(la: np.ndarray) -> np.ndarray:
    """A log-magnitude with NaN (an indeterminate sum on the set) read as -inf."""
    return np.where(np.isnan(la), -np.inf, la)


@dataclass(frozen=True)
class Monomial(BaseFunction):
    """h(z) = z**P, the canonical branch point of order P/Q."""

    P: int

    def __post_init__(self) -> None:
        if self.P < 1:
            raise ValidationError(f"monomial power must be >= 1, got {self.P}")

    def log_h(self, zs, deriv=False):
        zs = np.asarray(zs, dtype=complex)
        lz, az = log_polar(zs.real, zs.imag)
        h = self.P * lz, self.P * az
        if not deriv:
            return h
        if self.P == 1:  # h' = 1
            return (*h, np.zeros(lz.shape), np.zeros(lz.shape))
        return (*h, math.log(self.P) + (self.P - 1) * lz, (self.P - 1) * az)

    def zeros_in_disk(self, center, r):
        return [0j] if abs(center) < r else []


@dataclass(frozen=True)
class Polynomial(BaseFunction):
    """h given by ascending coefficients: h(z) = c0 + c1 z + c2 z^2 + ..."""

    coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) < 1 or self.coeffs[-1] == 0:
            raise ValidationError("need a nonzero leading coefficient")

    # h' and the zeros of h, formed at their first use
    @functools.cached_property
    def _derivative(self) -> np.ndarray:
        return npoly.polyder(self.coeffs)

    @functools.cached_property
    def _roots(self) -> np.ndarray:
        return npoly.polyroots(self.coeffs) if len(self.coeffs) > 1 else np.zeros(0)

    def log_h(self, zs, deriv=False):
        zs = np.asarray(zs, dtype=complex)
        h = _log_split(npoly.polyval(zs, self.coeffs))
        return (*h, *_log_split(npoly.polyval(zs, self._derivative))) if deriv else h

    def zeros_in_disk(self, center, r):
        return [complex(z) for z in self._roots if abs(z - center) < r]


def _log_power(zs, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log|z|, arg z, z^-alpha) on an array."""
    zs = np.asarray(zs, dtype=complex)
    lr, th = log_polar(zs.real, zs.imag)
    return lr, th, neg_power(lr, th, alpha)


@dataclass(frozen=True)
class SmoothBlock(BaseFunction):
    """h(z) = exp(-z**(-alpha)): the single-corner block dying to all orders at 0."""

    alpha: float
    domain = "half_plane"
    axis_singularities = (0.0,)

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValidationError(f"alpha must lie in (0, 1), got {self.alpha}")

    def log_h(self, zs, deriv=False):
        lr, th, w = _log_power(zs, self.alpha)
        if not deriv:
            return -w.real, -w.imag
        # h' = alpha * z**(-alpha-1) * h
        a1 = self.alpha + 1.0
        return -w.real, -w.imag, math.log(self.alpha) - a1 * lr - w.real, -a1 * th - w.imag

    def decay_rate(self, rho):
        return self.alpha * rho ** (-self.alpha)


def oscillation_zeros(window: tuple[float, float]) -> list[float]:
    """Zeros exp((2k+1)*pi/2) of cos(log z) on the positive axis in `window`."""
    lo, hi = window
    if not (0.0 < lo < hi):
        raise ValidationError(f"window must satisfy 0 < lo < hi, got {window}")
    k_lo = math.ceil((2.0 * math.log(lo) / math.pi - 1.0) / 2.0)
    k_hi = math.floor((2.0 * math.log(hi) / math.pi - 1.0) / 2.0)
    return [math.exp((2 * k + 1) * math.pi / 2.0) for k in range(k_lo, k_hi + 1)]


@dataclass(frozen=True)
class OscillatingPower(BaseFunction):
    """h(z) = (cos(log z) * exp(-z**(-alpha)))**P."""

    alpha: float
    P: int = 1
    domain = "half_plane"
    axis_singularities = (0.0,)

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValidationError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.P < 1:
            raise ValidationError(f"power must be >= 1, got {self.P}")

    def log_h(self, zs, deriv=False):
        # h = b^P for the block b = cos(log z) exp(-z^-alpha)
        lr, th, w = _log_power(zs, self.alpha)
        la_c, arg_c, _, dlog_c = log_cos(lr, th, 1.0, deriv)
        la, ar = self.P * (la_c - w.real), self.P * (arg_c - w.imag)
        if not deriv:
            return la, ar
        # h'/h = P b'/b = P (alpha z^(-alpha-1) - tan(log z) / z)
        with np.errstate(over="ignore", invalid="ignore"):
            ratio = self.P * (self.alpha * neg_power(lr, th, self.alpha + 1.0) + dlog_c)
        l_r, a_r = _log_split(ratio)
        return la, ar, la + l_r, ar + a_r

    def zeros_in_disk(self, center, r):
        lo = max(abs(center) - r, 1e-14)
        hi = abs(center) + r
        if hi <= lo:
            return []
        return [
            complex(x)
            for x in oscillation_zeros((lo, hi))
            if abs(x - center) < r
        ]

    def decay_rate(self, rho):
        return self.P * (self.alpha * rho ** (-self.alpha) + 2.0)


@dataclass(frozen=True)
class _OverSet(BaseFunction):
    """A base function built from the series over a Cantor boundary set."""

    params: SeriesParams
    cs: CantorSet
    domain = "half_plane"

    def _F(self, zs, with_deriv=False):
        return decay_exponent_many(
            self.params, self.cs, zs, with_deriv=with_deriv, far_tol=FAR_TOL
        )


class SeriesFactor(_OverSet):
    """h = the decay factor exp(-F) built over a Cantor boundary set."""

    def log_h(self, zs, deriv=False):
        F, Fp, _ = self._F(zs, deriv)
        la, ar = _nan_is_zero(-F.real), -F.imag
        if not deriv:
            return la, ar
        # h' = -F' h
        lf, af = _log_split(-Fp)
        with np.errstate(invalid="ignore"):
            return la, ar, _nan_is_zero(lf - F.real), af - F.imag

    def decay_rate(self, rho):
        am = self.params.max_exponent()
        return (math.pi**2 / 6.0) * am * rho ** (-am)


class SeriesProduct(_OverSet):
    """h = the branched product: cosine product times the decay factor."""

    def log_h(self, zs, deriv=False):
        # h = G e^-F (exact zeros of G give -inf) and h'/h = G'/G - F'
        F, Fp, _ = self._F(zs, deriv)
        la_g, arg_g, zero, dlog_g, _ = log_cosine_product_many(
            self.params, self.cs, zs, with_deriv=deriv
        )
        with np.errstate(invalid="ignore"):
            la, arg = np.where(zero, -np.inf, _nan_is_zero(la_g - F.real)), arg_g - F.imag
            if not deriv:
                return la, arg
            lr, ar = _log_split(dlog_g - Fp)
            return la, arg, _nan_is_zero(la + lr), arg + ar

    def zeros_in_disk(self, center, r):
        out = []
        floor = 1e-12 * r
        for k in range(1, self.params.max_gen + 1):
            for m in itertools.count(1):
                # the zeros of one (k, m) share their real part
                if self._zero(k, 1, m).real < floor:
                    break
                zs = (self._zero(k, pos, m) for pos in range(1, 2**k + 1))
                out += [z for z in zs if abs(z - center) < r]
        return out

    def _zero(self, k: int, pos: int, m: int) -> complex:
        return product_zero(self.params, self.cs, IntervalIndex(k, pos), m).to_complex()

    def decay_rate(self, rho):
        am = self.params.max_exponent()
        return (math.pi**2 / 6.0) * (am * rho ** (-am) + 2.0)


# ---------------------------------------------------------------------------
# minimizer spec and quadrature assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinimizerSpec:
    """The Q-valued minimizer u(z) = sum of Q-th roots of h(z)."""

    h: BaseFunction
    Q: int

    def __post_init__(self) -> None:
        if self.Q < 2:
            raise ValidationError(f"Q must be >= 2, got {self.Q}")
        if self.domain not in ("plane", "half_plane"):
            raise ValidationError(f"unknown domain {self.domain!r}")
        if isinstance(self.h, OscillatingPower) and math.gcd(self.h.P, self.Q) != 1:
            raise ValidationError(
                f"P = {self.h.P} and Q = {self.Q} must be coprime for a pure branch point"
            )

    @property
    def domain(self) -> str:
        return self.h.domain

    def log_density(self, zs: np.ndarray) -> np.ndarray:
        """log of the mass density |u|^2 = Q|h|^(2/Q)."""
        return self._log_density(self.h.log_h(zs)[0])

    def _log_density(self, la_h: np.ndarray) -> np.ndarray:
        out = math.log(self.Q) + (2.0 / self.Q) * la_h
        if self.domain == "half_plane":
            out = np.where(np.isfinite(out), out, -np.inf)
        return out

    def decay_rate(self, rho: float) -> float:
        """|d/dr log density| near the domain edge at radius rho."""
        return (2.0 / self.Q) * self.h.decay_rate(rho)

    def log_energy_density(self, zs: np.ndarray) -> np.ndarray:
        """log of the energy density |Du|^2 = (2/Q)|h|^(2/Q-2)|h'|^2.

        For half-plane h, which vanish at the boundary, the indeterminate
        -inf/-inf combinations arise only where the density truly collapses,
        so they sanitize to -inf; algebraic zeros keep their +inf
        (integrable) marker.
        """
        la_h, _, la_p, _ = self.h.log_h(zs, deriv=True)
        return self._log_energy(la_h, la_p, math.log(2.0 / self.Q))

    def _log_energy(self, la_h: np.ndarray, la_p: np.ndarray, shift: float) -> np.ndarray:
        """shift + log(|h|^(2/Q-2)|h'|^2), sanitized as log_energy_density."""
        with np.errstate(invalid="ignore"):
            out = shift + (2.0 / self.Q - 2.0) * la_h + 2.0 * la_p
        if self.domain == "half_plane":
            return np.where(np.isfinite(out), out, -np.inf)
        return np.where(np.isnan(out), np.inf, out)


@dataclass(frozen=True)
class FrequencySample:
    """D, H, I at one (center, radius), with log-scale duplicates of D and H.

    On a sample whose D is an arc integral (the plane, or a half-plane disk
    clear of the imaginary axis) `dI_dr` is the slope I'(r) from the same
    nodes, with `dI_dr_error` (an estimate); NaN on the others.
    """

    center: complex
    radius: float
    D: float
    H: float
    I: float
    quadrature_error: float
    log_D: float = field(default=math.nan)
    log_H: float = field(default=math.nan)
    dI_dr: float = field(default=math.nan)
    dI_dr_error: float = field(default=math.nan)


def _log_flux(
    h_hp: tuple[np.ndarray, ...], lr: np.ndarray, th: np.ndarray, power: float
) -> tuple[np.ndarray, np.ndarray]:
    """(log|f|, f < 0) for f = |h|^power phi at center + rho e^(i theta),
    where h_hp = `log_h(..., deriv=True)` there and lr = log rho, and
    phi = rho Re(h'/h e^(i theta)) is the radial log-derivative of |h|
    times rho."""
    la_h, ar_h, la_p, ar_p = h_hp
    c = np.cos(ar_p - ar_h + th)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (power - 1.0) * la_h + la_p + lr + np.log(np.abs(c)), c < 0


def _theta_limits(center: complex, rho: np.ndarray, domain: str) -> np.ndarray:
    """The clip angles of the arcs of radii rho: the domain holds the part
    |theta| <= thm of each."""
    thm = np.full(rho.size, math.pi)
    if domain == "plane":
        return thm
    x = complex(center).real
    clip = np.flatnonzero(rho > x)
    thm[clip] = [math.acos(max(-1.0, -x / r)) for r in rho[clip].tolist()]
    return thm


def _arc_keys(
    center: complex,
    rho: np.ndarray,
    domain: str,
    rate: Callable[[float], float],
    zero_polar: Sequence[tuple[float, float]] = (),
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
    """(clip angles, rates, zero targets) of the arcs of radii rho: the rate
    rate(rho) of a density decaying at the domain's clip, 0 where the arc is
    not clipped, and the zeros inside each arc with their cluster widths, as
    `refined_panels` takes them (None without zeros)."""
    thm = _theta_limits(center, rho, domain)
    rates = np.zeros(rho.size)
    clip = np.flatnonzero(thm < math.pi)
    rates[clip] = [rate(r) for r in rho[clip].tolist()]
    if not zero_polar:
        return thm, rates, None
    # a zero ring only needs deep angular resolution at nearby radii
    rz, az = np.array(zero_polar, dtype=float).T
    w0 = np.maximum(
        MIN_FRAC * 2.0 * thm[:, None],
        0.3 * np.abs(rho[:, None] - rz) / np.maximum(rho, 1e-300)[:, None],
    )
    # two targets per zero: the zero inside the arc, or both ends of a full
    # arc for a zero on its seam (NaN: none)
    seam = (thm[:, None] == math.pi) & (np.abs(az) == math.pi)
    inside = (-thm[:, None] < az) & (az < thm[:, None])
    t = np.stack([np.where(seam, -math.pi, np.where(inside, az, np.nan)),
                  np.where(seam, math.pi, np.nan)], axis=2)
    return thm, rates, (t.reshape(rho.size, -1), np.repeat(w0, 2, axis=1))


def _arc_panels(
    center: complex,
    rho: np.ndarray,
    domain: str,
    rate: Callable[[float], float],
    zero_polar: Sequence[tuple[float, float]] = (),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Angular panels of the arcs [-thm, thm] of radii rho, as
    `refined_panels` returns them, refined at both ends for the rate and at
    the zeros (`_arc_keys`)."""
    thm, rates, targets = _arc_keys(center, rho, domain, rate, zero_polar)
    return refined_panels(-thm, thm, rate_a=rates, rate_b=rates, targets=targets)


def polar_mesh(
    center: complex,
    r: float,
    domain: str,
    rate: Callable[[float], float],
    *,
    r_inner: float = 0.0,
    zero_polar: Sequence[tuple[float, float]] = (),
) -> tuple[np.ndarray, Arcs, list[float]]:
    """Panel edges of the (annular) disk r_inner <= |z - center| <= r,
    clipped to `domain`, for a log-density whose |d/dr| near the domain edge
    at radius rho is about rate(rho).

    Returns (radial edges, angular panels at an array of radii, the radii of
    the interior zeros in zero_polar that fall inside the annulus).  Radial
    edges are geometric toward a disk's center and refined toward r by the
    decay rate and around each zero radius; angular panels as _arc_panels.
    """
    inner = [x for x, _ in zero_polar if r_inner < x < r]
    r_edges = refined_breakpoints(
        r_inner,
        r,
        geo_a=(r_inner == 0.0),
        rate_b=rate(r) / r,
        targets=[(x, 1e-7 * x) for x in inner],
    )
    for x in inner:
        # every interior zero must carry its own refinement cluster; a zero
        # merely near a coarse panel edge would poison the Gauss nodes.  An
        # edge within the merge distance of `refined_panels` stands for it.
        if not np.any(np.abs(r_edges - x) <= 1e-15 * (r - r_inner)):
            warnings.warn(f"interior zero at radius {x:.6g} is not a panel edge")

    def arcs(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _arc_panels(center, rho, domain, rate, zero_polar)

    return r_edges, arcs, inner


def _zero_geometry(spec: MinimizerSpec, center: complex, r: float) -> list[tuple[float, float]]:
    """(radius, angle) of the interior zeros of h that can matter.

    For half-plane h, which vanish at the boundary, the zeros accumulate at
    the singular corner under an envelope like exp(-c rho^-alpha); zeros
    whose envelope sits DROP + 60 e-folds below the largest probed magnitude
    cannot move any digit of the integrals and are dropped.
    """
    center = complex(center)
    zeros = [
        z0 for z0 in spec.h.zeros_in_disk(center, r) if abs(z0 - center) > 0
    ]
    if not zeros:
        return []
    keep = zeros
    if spec.domain == "half_plane":
        thm = _theta_limits(center, np.array([r], dtype=float), spec.domain)[0]
        ring = center + r * np.exp(1j * np.linspace(-0.98 * thm, 0.98 * thm, 9))
        probes = np.array([z0 * 1.001 + center * (-0.001) for z0 in zeros])
        la_ring, _ = spec.h.log_h(ring)
        la_z, _ = spec.h.log_h(probes)
        ref = float(np.max(la_ring[np.isfinite(la_ring)], initial=-math.inf))
        cut = ref - (DROP + 60.0) * spec.Q / 2.0
        keep = [z0 for z0, la in zip(zeros, la_z) if la >= cut]
    # math.atan2, not cmath.phase, which raises on a subnormal phase
    offsets = [z0 - center for z0 in keep]
    return [(abs(dz), math.atan2(dz.imag, dz.real)) for dz in offsets]


def _check_disk(center: complex, r: float, domain: str, r_inner: float = 0.0) -> complex:
    """The disk's centre as a complex; raises ValidationError, before any
    quadrature, unless it is finite, in the closed half-plane Re >= 0 for
    the "half_plane" domain, and 0 <= r_inner < r < inf."""
    c = complex(center)
    if not cmath.isfinite(c):
        raise ValidationError(f"disk centre must be finite, got {center}")
    if domain == "half_plane" and c.real < 0:
        raise ValidationError(f"half-plane center must have Re >= 0, got {center}")
    if not 0.0 <= r_inner < r < math.inf:
        raise ValidationError(f"need 0 <= r_inner < r < inf, got r_inner = {r_inner}, r = {r}")
    return c


# the default configs of H and of D
_H_CONFIG = QuadConfig()
_D_CONFIG = QuadConfig(rel_tol=1e-6)


def _from_log(log_v: float, log_err: float) -> tuple[float, float]:
    """(v, its absolute error) from log v and its log-error; v underflows to
    0 below e^-745."""
    v = math.exp(log_v) if log_v > -745.0 else 0.0
    return v, v * math.expm1(log_err) if log_err < 1.0 else v


def _arc_mesh(spec: MinimizerSpec, center: complex, r: float) -> np.ndarray:
    """Angular panel edges of the arc of radius r, refined at its clip and at
    the zeros of h next to it."""
    zero_polar = _zero_geometry(spec, center, 1.001 * r)
    lo, hi, _ = _arc_panels(center, np.array([r], dtype=float), spec.domain,
                            spec.decay_rate, zero_polar)
    return np.append(lo, hi[-1])


def _first_ring(spec: MinimizerSpec, center: complex, r: float) -> int | None:
    """The node count of the first ring on the circle of radius r, or None
    where the arc pass takes panels: a clipped arc, or a zero of h so near
    the circle that the ring could not double within MAX_NODES.

    On a full circle (the plane, or r < Re c) the pass's integrands are
    analytic in theta on |Im theta| < a, the annulus r e^-a < |z - c| <
    r e^a being clear of the zeros of h (one at c is no obstacle) and of
    the axis; a is taken at most log 2, so only zeros within 2r matter.
    The rule's error on n nodes is about e^(-a n), so the first ring is the
    smallest power of two n with n a >= 6 pi (e^(-6 pi) = 6.5e-9): its
    nodes, no wider apart than a/3, see a zero next to the circle that
    coarser rings can miss and agree on, and its first doubling's step,
    the reported error, is already small.
    """
    if spec.domain == "half_plane" and not r < center.real:
        return None
    a = math.log(2.0)
    if spec.domain == "half_plane":
        a = min(a, math.log(center.real / r))
    for z0 in spec.h.zeros_in_disk(center, 2.0 * r):
        if z0 != center:
            a = min(a, abs(math.log(abs(z0 - center) / r)))
    if not a * MAX_NODES >= 12.0 * math.pi:
        return None
    return 1 << math.ceil(math.log2(6.0 * math.pi / a))


def _d_form(spec: MinimizerSpec, center: complex, r: float) -> str:
    """How D on the disk is taken (`_log_D`): "arc", the arc integral (the
    plane, or a half-plane disk clear of the axis, r < Re c); "chord", the
    arc and the chord on the axis (a disk that crosses the axis, where h has
    finitely many singular points on it); "disk", the disk integral
    (tangent circles, and h over a Cantor set)."""
    if spec.domain == "plane" or r < center.real:
        return "arc"
    return "chord" if r > center.real and spec.h.axis_singularities is not None else "disk"


def _log_arc_pass(
    spec: MinimizerSpec, center: complex, r: float, cfg_H: QuadConfig | None,
    cfg_D: QuadConfig | None, form: str = "arc",
) -> dict:
    """The arc integrals of H and D, on one set of nodes on the arc of radius
    r with one call of h per level: the parts of one quadrature by name,
    each its own one-part integral under its config, bit for bit, from one
    `log_line_integral`: on a full circle its nested rings from
    `_first_ring`'s node count; on a clipped arc, or a circle with a zero of
    h on or at it, the Gauss panels of `_arc_mesh`.

    "H" (with cfg_H) is H.  "D" (with cfg_D, unless `form` is "disk") is
    the signed arc integral of |h|^(2/Q) phi: D on the "arc" form, the
    arc's share of D on the "chord" form, with "-D" its negative (the pair
    as `_log_net` takes it).  "C" = integral of |h|^(2/Q) |psi|^2 d theta,
    psi = (z - c) h'/h, comes with H and D on the "arc" form and drives
    nothing.  Without D each level calls `log_h` without `deriv`, so H
    computes no h'."""
    log_r, power = math.log(r), 2.0 / spec.Q
    cfgs: dict[str, QuadConfig | None] = {} if cfg_H is None else {"H": cfg_H}
    if cfg_D is not None and form != "disk":
        cfgs["D"] = cfg_D
        if form == "chord":
            cfgs["-D"] = cfg_D
        elif "H" in cfgs:
            cfgs["C"] = None
    if not cfgs:
        return {}

    def L(thetas: np.ndarray) -> tuple:
        zs = center + r * np.exp(1j * thetas)
        if "D" not in cfgs:
            return (spec.log_density(zs),)
        h_hp = spec.h.log_h(zs, deriv=True)
        D = _log_flux(h_hp, log_r, thetas, power)
        # the columns in the order of cfgs: H, D, then C or -D
        H = (spec._log_density(h_hp[0]),) if "H" in cfgs else ()
        if "C" in cfgs:
            return (*H, D, spec._log_energy(h_hp[0], h_hp[2], 2.0 * log_r))
        return (*H, D, (D[0], ~D[1])) if "-D" in cfgs else (*H, D)

    signed = [k in ("D", "-D") for k in cfgs]
    parts = log_line_integral(L, _first_ring(spec, center, r) or _arc_mesh(spec, center, r),
                              list(cfgs.values()), signed=signed)
    return dict(zip(cfgs, parts))


def _chord_parts(spec: MinimizerSpec, center: complex, r: float, cfg: QuadConfig) -> list:
    """The chord's share of D on a half-plane disk that crosses the axis:
    the integral of the flux |h|^(2/Q) Re(-h'/h) out through the axis over
    y in Im c +- sqrt(r^2 - (Re c)^2), meshed toward h's singular points on
    the axis, and a second part of its negative, as `_log_net` takes them."""
    half = math.sqrt(r * r - center.real**2)
    edges = refined_breakpoints(center.imag - half, center.imag + half,
                                targets=spec.h.axis_singularities)
    power = 2.0 / spec.Q

    def L(ys: np.ndarray) -> tuple:
        # the outward normal -1 is the direction theta = pi at rho = 1
        flux = _log_flux(spec.h.log_h(1j * ys, deriv=True), 0.0, math.pi, power)
        return flux, (flux[0], ~flux[1])

    return log_line_integral(L, edges, (cfg, cfg), signed=(True, True))


def _log_net(*pairs: Sequence) -> tuple[float, float]:
    """log of a sum of signed integrals, each given as the two parts of
    `log_line_integral` that integrate it and its negative, of which one
    passes (a signed part raises unless its sum is positive), with its
    log-error.

    The sum is log(P - N), P and N the sums of the positive and of the
    negative integrals.  Its error is theirs weighted by their magnitudes
    over P - N, and at least the rounding floor 2^-52 (P + N) / (P - N)."""
    logs: tuple[list, list] = ([], [])
    weighted = []
    for pair in pairs:
        passed = [i for i, part in enumerate(pair) if not isinstance(part, ConvergenceError)]
        if not passed:
            raise max(pair, key=lambda exc: len(exc.estimates))
        log_v, err = pair[passed[0]]
        logs[passed[0]].append(log_v)
        if err > 0.0:
            weighted.append(log_v + math.log(err))
    log_sum, amp = log_difference(*(float(np.logaddexp.reduce(v, initial=-math.inf))
                                    for v in logs))
    err = math.exp(float(np.logaddexp.reduce(weighted, initial=-math.inf)) - log_sum)
    return log_sum, max(err, 2.0**-52 * amp)


def _log_D(
    spec: MinimizerSpec, center: complex, r: float, cfg: QuadConfig, form: str, parts: dict
) -> tuple[float, float]:
    """log of D on the disk of radius r, plus log-error, in the form of
    `_d_form`, from the parts of `_log_arc_pass`: on the "arc" form its part
    "D"; on the "chord" form that pair and the chord's (`_log_net`); on the
    "disk" form the polar integral of the energy density."""
    if form == "arc":
        return _passed(parts["D"])
    if form == "chord":
        return _log_net((parts["D"], parts["-D"]), _chord_parts(spec, center, r, cfg))
    r_edges, arcs, inner = polar_mesh(
        center, r, spec.domain, lambda rho: (2.0 / spec.Q + 2.0) * spec.h.decay_rate(rho),
        zero_polar=_zero_geometry(spec, center, r),
    )
    return log_disk_integral(spec.log_energy_density, center, r_edges, arcs, cfg,
                             inner_targets=inner)


def log_boundary_mass(
    spec: MinimizerSpec,
    center: complex,
    r: float,
    config: QuadConfig | None = None,
) -> tuple[float, float]:
    """log of H = (1/r) * integral of Q|h|^(2/Q) over the arc, plus
    log-error: the arc pass (`_log_arc_pass`) with H alone."""
    center = _check_disk(center, r, spec.domain)
    return _passed(_log_arc_pass(spec, center, r, config or _H_CONFIG, None)["H"])


def boundary_mass(
    spec: MinimizerSpec,
    center: complex,
    r: float,
    config: QuadConfig | None = None,
) -> tuple[float, float]:
    """H with an absolute error estimate (underflows to 0 when tiny)."""
    return _from_log(*log_boundary_mass(spec, center, r, config))


def log_dirichlet_energy(
    spec: MinimizerSpec,
    center: complex,
    r: float,
    config: QuadConfig | None = None,
) -> tuple[float, float]:
    """log of D = integral of the energy density over the disk.

    On the plane, Green's identity turns D into the signed arc integral of
    |h|^(2/Q) phi, since sum |g_j|^2 = Q|h|^(2/Q) over the branches g_j of
    h^(1/Q) has Laplacian twice the energy density.  The same holds on a
    half-plane disk clear of the imaginary axis (r < Re c).  On one that
    crosses it (r > Re c), D is that integral on the clipped arc minus the
    integral of |h(iy)|^(2/Q) Re(h'/h)(iy) dy on the chord (`_log_net`),
    where h has finitely many singular points on the axis (SmoothBlock and
    OscillatingPower: 0).  A disk tangent to the axis, and one over a Cantor
    set, is the disk integral of the energy density.  D is `_log_D` of the
    arc pass (`_log_arc_pass`) with D alone.
    """
    cfg = config or _D_CONFIG
    center = _check_disk(center, r, spec.domain)
    form = _d_form(spec, center, r)
    return _log_D(spec, center, r, cfg, form, _log_arc_pass(spec, center, r, None, cfg, form))


def dirichlet_energy(
    spec: MinimizerSpec,
    center: complex,
    r: float,
    config: QuadConfig | None = None,
) -> tuple[float, float]:
    """D with an absolute error estimate (underflows to 0 when tiny)."""
    return _from_log(*log_dirichlet_energy(spec, center, r, config))


def frequency(
    spec: MinimizerSpec,
    center: complex,
    r: float,
    config: QuadConfig | None = None,
    *,
    log_scale: bool = False,
) -> FrequencySample:
    """Assemble the frequency I = D/H at one radius.

    The ratio is always formed in log space, which is exactly the rescaling
    of both integrals by the common underflow scale; `log_scale` merely
    permits H to underflow a double without raising.  Without `config`
    each integral takes its own default (`log_boundary_mass`,
    `log_dirichlet_energy`).

    H and D's arc parts come from one arc pass (`_log_arc_pass`), as in
    those two calls, and `_log_D` forms D, so both are theirs bit for bit:
    one `log_line_integral`, on a full circle by nested rings of the
    periodic trapezoid rule, on a clipped arc by Gauss panels.
    Where D is an arc integral the pass also gives C, and the sample
    carries the slope I' = (2/r)(C/(Q H) - I^2), from H' = (2/r) D and
    D' = (2/(Q r)) C; I' is NaN on the chord and disk forms.
    """
    center = _check_disk(center, r, spec.domain)
    form, cfg_D = _d_form(spec, center, r), config or _D_CONFIG
    parts = _log_arc_pass(spec, center, r, config or _H_CONFIG, cfg_D, form)
    log_H, err_H = _passed(parts["H"])
    if log_H == -math.inf:
        raise DegenerateMassError(f"u vanishes identically on the arc r = {r}")
    if not log_scale and log_H < math.log(1e-300):
        raise DegenerateMassError(
            f"H underflows (log H = {log_H:.4g}); pass log_scale=True to use "
            f"the rescaled ratio"
        )
    log_D, err_D = _log_D(spec, center, r, cfg_D, form, parts)
    I = math.exp(log_D - log_H) if log_D > -math.inf else 0.0
    D, H = _from_log(log_D, err_D)[0], _from_log(log_H, err_H)[0]
    err = I * math.expm1(min(err_D + err_H, 1.0))
    slope = () if "C" not in parts else _slope(spec.Q, r, I, log_H, err_H, log_D, err_D,
                                               *_passed(parts["C"]))
    return FrequencySample(center, r, D, H, I, err, log_D, log_H, *slope)


def _slope(
    Q: int, r: float, I: float, log_H: float, err_H: float, log_D: float, err_D: float,
    log_C: float, err_C: float,
) -> tuple[float, float]:
    """I'(r) = (2/r)(J - I^2), J = C/(Q H), and its error: the log-errors
    of C, H and D carried through J and I^2 apart, each with a rounding
    floor of the logs it is formed from.  J past the largest double is
    inf."""
    log_J = log_C - math.log(Q) - log_H
    J = math.exp(log_J) if log_J < 709.0 else math.inf
    ulps = 2.0**-52 * (abs(log_C) + abs(log_H) + abs(log_D) + 4.0)
    err = J * math.expm1(min(err_C + err_H + ulps, 1.0)) + I * I * math.expm1(
        min(2.0 * (err_D + err_H + ulps), 1.0)
    )
    return (2.0 / r) * (J - I * I), (2.0 / r) * err


def frequency_curve(
    spec: MinimizerSpec,
    center: complex,
    radii: Sequence[float],
    config: QuadConfig | None = None,
    *,
    log_scale: bool = False,
) -> list[FrequencySample]:
    """I(r) over an ascending radius ladder."""
    radii = list(radii)
    if not radii or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValidationError(f"radii must be non-empty and strictly ascending, got {radii}")
    return [frequency(spec, center, r, config, log_scale=log_scale) for r in radii]


# ---------------------------------------------------------------------------
# reference bounds for the boundary blow-up tests
# ---------------------------------------------------------------------------


def smooth_block_frequency_bound(alpha: float, Q: int, R: float) -> float:
    """Lower bound (alpha/Q) R^(-alpha) cos(alpha pi/2) for h = exp(-z^-alpha)."""
    return (alpha / Q) * R ** (-alpha) * math.cos(alpha * math.pi / 2.0)


def gap_centered_radii(s: float, n: int) -> float:
    """R_n = (1/3)(2^(1+1/s) - 1) 2^(-n/s): radii whose spheres stay inside a
    construction gap when centered at a mirrored left endpoint."""
    if not (0.0 < s < 1.0):
        raise ValidationError(f"s must lie in (0, 1), got {s}")
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    return (2.0 ** (1.0 + 1.0 / s) - 1.0) / 3.0 * 2.0 ** (-n / s)
