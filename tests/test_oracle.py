"""The tree-code series against an independent 50-digit direct sum.

The oracle shares no code with the package: it sums coeff(k) (z + i y)^-a_k
over every stored endpoint y in mpmath, with the coefficients and exponents
written out from their definitions.  Only the endpoints come from the
package, because the series is defined over the stored doubles: a probe
1e-6 from an endpoint would feel a rounding shift of that endpoint at the
1e-10 level.
"""

import functools
import math

import mpmath
import numpy as np
import pytest

from branchpoint_lab import CantorSet, IntervalIndex, SeriesParams, decay_exponent_many
from branchpoint_lab.frequency import OscillatingPower, oscillation_zeros
from branchpoint_lab.logcomplex import log_cos, log_polar
from branchpoint_lab.series import (
    FAR_TOL,
    POINT_FAR_TOL,
    log_cosine_product_many,
    product_zero,
)

# (s, max_gen): the deepest generation lies below 1e-6, 1e-4 and 2.4e-4
CASES = [(0.5, 10), (0.75, 10), (1.0, 8)]


def _exponent(s: float, k: int):
    if s == 1.0:
        return 1 - mpmath.mpf(k) ** (-mpmath.mpf(1) / 3) / 2
    return (1 + mpmath.mpf(s)) / 2


def _probes(cs: CantorSet, max_gen: int) -> list[complex]:
    """Points in deep construction gaps, at distances 1e-6 to 1 from an
    endpoint, and left of the imaginary axis off the mirrored set."""
    out = []
    for k, pos in [(max_gen - 1, 3), (max_gen - 3, 6), (3, 2)]:
        y = cs.left_endpoints(k)[pos]
        # the gap between the two children of interval (k, pos)
        mid = y + 0.5 * cs.length(k)
        out += [complex(1e-6, -mid), complex(-1e-6, -mid), complex(-0.2, -mid)]
    y = cs.left_endpoints(max_gen)[5]
    out += [complex(d, -y) for d in (1e-6, 1e-4, 1e-2, 1.0)]
    out += [complex(1e-3 * np.cos(1.2), 1e-3 * np.sin(1.2) - y)]
    out += [complex(-0.3, 0.2), complex(-0.2, -1.3), complex(0.4, -0.5)]
    return out


@functools.lru_cache(maxsize=None)
def _oracle(s: float, max_gen: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    cs = CantorSet.build(s, max_gen)
    zs = np.array(_probes(cs, max_gen))
    F = np.empty(zs.size, dtype=complex)
    Fp = np.empty(zs.size, dtype=complex)
    with mpmath.workdps(50):
        for i, z in enumerate(zs):
            zz = mpmath.mpc(z.real, z.imag)
            f = fp = mpmath.mpc(0)
            for k in range(1, max_gen + 1):
                a = _exponent(s, k)
                c = mpmath.mpf(2) ** (-k) / k**2
                for y in cs.left_endpoints(k):
                    w = zz + mpmath.mpc(0, y)
                    t = c * mpmath.power(w, -a)
                    f += t
                    fp -= a * t / w
            F[i] = complex(f)
            Fp[i] = complex(fp)
    return zs, F, Fp


@pytest.mark.parametrize("s,max_gen", CASES)
@pytest.mark.parametrize("far_tol", [POINT_FAR_TOL, 1e-2, FAR_TOL])
def test_series_matches_mpmath_oracle(s, max_gen, far_tol):
    zs, F_mp, Fp_mp = _oracle(s, max_gen)
    params = SeriesParams(s=s, max_gen=max_gen)
    cs = CantorSet.build(s, max_gen)
    F, Fp, ferr = decay_exponent_many(params, cs, zs, with_deriv=True, far_tol=far_tol)
    assert np.all(np.abs(F - F_mp) <= ferr + 1e-13 * np.abs(F_mp))
    assert np.all(np.abs(Fp - Fp_mp) <= 1e-8 * np.abs(Fp_mp))


# the cosine product G and its log-derivative --------------------------------

# (s, max_gen) for G: every (point, shift) pair takes a 50-digit log, cos and tan
G_CASES = [(0.5, 6), (0.75, 6), (1.0, 6)]


@functools.lru_cache(maxsize=None)
def _cos_oracle(s: float, max_gen: int):
    """(probes, log|G|, arg G, G'/G) and the sums of the terms' magnitudes
    for log|G| and G'/G, which set the rounding scale of each double sum."""
    cs = CantorSet.build(s, max_gen)
    zs = np.array(_probes(cs, max_gen))
    rows = []
    with mpmath.workdps(50):
        for z in zs:
            zz = mpmath.mpc(z.real, z.imag)
            la = ar = la_scale = d_scale = mpmath.mpf(0)
            d = mpmath.mpc(0)
            for k in range(1, max_gen + 1):
                b = mpmath.mpf(2) ** (-k) / k**2
                for y in cs.left_endpoints(k):
                    bL = b * mpmath.log(zz + mpmath.mpc(0, y))
                    c = mpmath.cos(bL)
                    t = -b * mpmath.tan(bL) / (zz + mpmath.mpc(0, y))
                    la += mpmath.log(abs(c))
                    ar += mpmath.arg(c)
                    la_scale += abs(mpmath.log(abs(c)))
                    d += t
                    d_scale += abs(t)
            rows.append((float(la), float(ar), complex(d), float(la_scale), float(d_scale)))
    la, ar, d, la_scale, d_scale = (np.array(col) for col in zip(*rows))
    return zs, la, ar, d, la_scale, d_scale


@pytest.mark.parametrize("s,max_gen", G_CASES)
def test_cosine_product_matches_mpmath_oracle(s, max_gen):
    zs, la_mp, ar_mp, dlog_mp, la_scale, d_scale = _cos_oracle(s, max_gen)
    params = SeriesParams(s=s, max_gen=max_gen)
    cs = CantorSet.build(s, max_gen)
    la, ar, zero, dlog = log_cosine_product_many(params, cs, zs, with_deriv=True)
    assert not zero.any()
    # a factor's log|cos| = 0.5 log(m2) with m2 near 1 is off by about 1e-16
    # however small it is, hence the + 1
    assert np.all(np.abs(la - la_mp) <= 1e-13 * (la_scale + 1.0))
    assert np.all(np.abs(np.remainder(ar - ar_mp + np.pi, 2 * np.pi) - np.pi) <= 1e-13)
    assert np.all(np.abs(dlog - dlog_mp) <= 1e-14 * d_scale)


# next to zeros: the kernels against the complex-ufunc formulas ---------------

# offset directions of the near-zero probes w = w0 (1 + 1e-9 e^(i phi))
_PHIS = [0.0, 0.5 * np.pi, 1.0, 2.5, np.pi, -0.5 * np.pi]


def _near(w0: float) -> np.ndarray:
    return w0 * (1.0 + 1e-9 * np.exp(1j * np.array(_PHIS)))


def _rel(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    return np.abs(got - want) / np.abs(want)


def test_dlog_cos_next_to_product_zeros():
    """-b tan(b L) / w at offsets 1e-9 relative from constructed zeros of
    the cosine product, where tan has a pole; the split L is shared, so the
    comparison sees only the kernel's algebra.  (1/w = e^-log|w| e^-i arg w
    loses |log|w|| ulp: about 1e-14 at the generation-4 offset e^-402.)"""
    params = SeriesParams(s=0.5, max_gen=8)
    cs = CantorSet.build(0.5, 8)
    # generations 1-4: deeper offsets e^(log_r) underflow
    for idx, m in [((1, 1), 1), ((1, 2), 2), ((2, 3), 1), ((3, 5), 1), ((4, 9), 1)]:
        z0 = product_zero(params, cs, IntervalIndex(*idx), m)
        b = params.coeff(z0.idx.gen)
        w = _near(math.exp(z0.log_r))
        lr, th = log_polar(w.real, w.imag)
        want = -b * np.tan(b * (lr + 1j * th)) / w
        assert np.all(np.abs(want) > 1e6 / np.abs(w))  # next to the pole
        assert np.all(_rel(log_cos(lr, th, b, with_deriv=True)[3], want) <= 1e-13)


@pytest.mark.parametrize("P", [1, 2])
def test_oscillating_power_hprime_next_to_zeros(P):
    """h' of (cos(log z) e^(-z^-alpha))^P at offsets 1e-9 relative from the
    zeros e^((2k+1) pi / 2), against b' = a (alpha z^(-alpha-1) cos L -
    sin L / z) with complex ufuncs on the same split L."""
    alpha = 0.5
    zs = np.concatenate([_near(x) for x in oscillation_zeros((0.1, 3000.0))])
    lr, th = log_polar(zs.real, zs.imag)
    L = lr + 1j * th
    a = np.exp(-np.exp(-alpha * L))
    b = a * np.cos(L)
    db = a * (alpha * np.exp(-(alpha + 1.0) * L) * np.cos(L) - np.sin(L) * np.exp(-L))
    want = P * b ** (P - 1) * db
    _, _, lp, ap = OscillatingPower(alpha, P).log_h_hprime(zs)
    assert np.all(_rel(np.exp(lp + 1j * ap), want) <= 1e-13)
