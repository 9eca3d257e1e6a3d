"""The tree-code series and cosine product against independent mpmath
direct sums.

The oracle shares no code with the package: it sums coeff(k) (z + i y)^-a_k
(50 digits) and log cos(coeff(k) log(z + i y)) (30 digits) over every stored
endpoint y in mpmath, with the coefficients and exponents written out from
their definitions.  Only the endpoints come from the
package, because the series is defined over the stored doubles: a probe
1e-6 from an endpoint would feel a rounding shift of that endpoint at the
1e-10 level.
"""

import functools
import math

import mpmath
import numpy as np
import pytest

from branchpoint_lab import CantorSet, IntervalIndex, SeriesParams, decay_exponent_many, series
from branchpoint_lab.frequency import (
    MinimizerSpec,
    OscillatingPower,
    SeriesProduct,
    oscillation_zeros,
)
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
# 0.25 is the cosine product's ratio and F's default before FAR_TOL = 0.4;
# it stays a valid choice for callers, so it keeps its own cases
@pytest.mark.parametrize("far_tol", [POINT_FAR_TOL, 1e-2, 0.25, FAR_TOL])
def test_series_matches_mpmath_oracle(s, max_gen, far_tol):
    zs, F_mp, Fp_mp = _oracle(s, max_gen)
    params = SeriesParams(s=s, max_gen=max_gen)
    cs = CantorSet.build(s, max_gen)
    F, Fp, ferr = decay_exponent_many(params, cs, zs, with_deriv=True, far_tol=far_tol)
    assert np.all(np.abs(F - F_mp) <= ferr + 1e-13 * np.abs(F_mp))
    assert np.all(np.abs(Fp - Fp_mp) <= 1e-8 * np.abs(Fp_mp))


# the cosine product G and its log-derivative --------------------------------

# (s, max_gen) for G: every (point, shift) pair takes a 30-digit log and exp
G_CASES = [(0.5, 6), (0.75, 6), (1.0, 6)]
# the tree-coded G: at max_gen 10 the walk proxies far subtrees of
# generations 0-4 (below that a subtree has fewer endpoints than 13 proxies
# per generation)
TREE_G_CASES = [(0.5, 10), (0.75, 10), (1.0, 10)]


def _tree_probes(cs: CantorSet, max_gen: int) -> list[complex]:
    """Points far from the set, 1e-3 from an endpoint, and 1e-9 relative
    from two rounded constructed zeros (generations 1 and 2)."""
    params = SeriesParams(s=cs.s, max_gen=max_gen)
    y = cs.left_endpoints(max_gen)[5]
    out = [complex(1.5, -0.4), complex(-0.6, 0.9), complex(0.3, -1.6)]
    out += [complex(1e-3 * np.cos(a), 1e-3 * np.sin(a) - y) for a in (1.2, -0.7)]
    for idx, phi in [((1, 2), 1.0), ((2, 3), 2.5)]:
        z0 = product_zero(params, cs, IntervalIndex(*idx), 1)
        w = math.exp(z0.log_r) * (1.0 + 1e-9 * np.exp(1j * phi))
        out.append(complex(w.real, w.imag - z0.y))
    return out


def _cos_scales(cs: CantorSet, max_gen: int, zs: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per point, the sums of the terms' magnitudes for log|G| and G'/G,
    which set the rounding scale of each double sum, and their
    sensitivities to the rounding of the input: w = z + i*y and its log L
    carry about eps ((|z| + y) / |w| + |L|) of error in L, which a term next
    to a zero of its cosine amplifies by |d(term)/dL|.  (Double precision
    is enough for a scale.)"""
    la_scale, d_scale, la_sens, d_sens = (np.zeros(zs.size) for _ in range(4))
    for k in range(1, max_gen + 1):
        b = 2.0**-k / k**2
        y = cs.left_endpoints(k)[None, :]
        w = zs[:, None] + 1j * y
        L = np.log(w)
        c = np.cos(b * L)
        bt = b * np.tan(b * L)
        dL = (np.abs(zs[:, None]) + y) / np.abs(w) + np.abs(L)
        la_scale += np.abs(np.log(np.abs(c))).sum(axis=1)
        d_scale += np.abs(bt / w).sum(axis=1)
        la_sens += (np.abs(bt) * dL).sum(axis=1)
        d_sens += ((np.abs(b * b / (c * c * w)) + np.abs(bt / w)) * dL).sum(axis=1)
    return la_scale, d_scale, la_sens, d_sens


@functools.lru_cache(maxsize=None)
def _cos_oracle(s: float, max_gen: int, probes=_probes):
    """(probes, log|G|, arg G, G'/G) to 30 digits, then the `_cos_scales`."""
    cs = CantorSet.build(s, max_gen)
    zs = np.array(probes(cs, max_gen))
    rows = []
    with mpmath.workdps(30):
        for z in zs:
            zz = mpmath.mpc(z.real, z.imag)
            la = ar = mpmath.mpf(0)
            d = mpmath.mpc(0)
            for k in range(1, max_gen + 1):
                ib = mpmath.mpc(0, mpmath.mpf(2) ** (-k) / k**2)
                for y in cs.left_endpoints(k):
                    w = zz + mpmath.mpc(0, y)
                    # cos(bL) and b tan(bL) from e = exp(i b L)
                    e = mpmath.exp(ib * mpmath.log(w))
                    c = (e + 1 / e) / 2
                    la += mpmath.log(abs(c))
                    ar += mpmath.arg(c)
                    d += (e - 1 / e) / 2 * ib / (c * w)  # -b tan(bL) / w
            rows.append((float(la), float(ar), complex(d)))
    return (zs, *(np.array(col) for col in zip(*rows)), *_cos_scales(cs, max_gen, zs))


@pytest.mark.parametrize("s,max_gen", G_CASES)
def test_cosine_product_matches_mpmath_oracle(s, max_gen):
    zs, la_mp, ar_mp, dlog_mp, la_scale, d_scale, _, _ = _cos_oracle(s, max_gen)
    params = SeriesParams(s=s, max_gen=max_gen)
    cs = CantorSet.build(s, max_gen)
    la, ar, zero, dlog, rem = log_cosine_product_many(params, cs, zs, with_deriv=True)
    assert not zero.any()
    # log|cos| = 0.5 log1p(sinh^2 y - sin^2 x) keeps each factor's relative
    # precision however close to 1 it is
    assert np.all(np.abs(la - la_mp) <= rem + 1e-14 * la_scale)
    assert np.all(np.abs(np.remainder(ar - ar_mp + np.pi, 2 * np.pi) - np.pi) <= rem + 1e-13)
    assert np.all(np.abs(dlog - dlog_mp) <= 1e-14 * d_scale)


@pytest.mark.parametrize("s,max_gen", TREE_G_CASES)
def test_tree_coded_cosine_product_matches_mpmath_oracle(s, max_gen):
    """log|G|, arg G and G'/G with far subtrees as Chebyshev proxies: within
    the certified remainder plus rounding, and next to a rounded zero
    within what the double input allows (2 ulp of each term's L)."""
    zs, la_mp, ar_mp, dlog_mp, la_scale, d_scale, la_sens, d_sens = _cos_oracle(
        s, max_gen, _tree_probes)
    params = SeriesParams(s=s, max_gen=max_gen)
    cs = CantorSet.build(s, max_gen)
    la, ar, zero, dlog, rem = log_cosine_product_many(params, cs, zs, with_deriv=True)
    assert not zero.any()
    assert np.all(rem > 0.0)  # every probe has proxied subtrees
    ulp2 = 2.0**-51
    assert np.all(np.abs(la - la_mp) <= rem + 1e-14 * la_scale + ulp2 * la_sens)
    ar_err = np.abs(np.remainder(ar - ar_mp + np.pi, 2 * np.pi) - np.pi)
    assert np.all(ar_err <= rem + 1e-13 + ulp2 * la_sens)
    assert np.all(np.abs(dlog - dlog_mp) <= 1e-14 * d_scale + ulp2 * d_sens)


def _brute_cos(params: SeriesParams, cs: CantorSet, zs: np.ndarray) -> tuple[np.ndarray, ...]:
    """log|G|, arg G and G'/G summed over every (point, shift) pair with
    the package's kernels, and the sum of |log cos| for a rounding scale."""
    la, ar, scale = (np.zeros(zs.size) for _ in range(3))
    d = np.zeros(zs.size, dtype=complex)
    for k in range(1, params.max_gen + 1):
        lr, th = log_polar(zs.real[:, None], zs.imag[:, None] + cs.left_endpoints(k)[None, :])
        a, r, _, dl = log_cos(lr, th, params.coeff(k), with_deriv=True)
        la += a.sum(axis=1)
        ar += r.sum(axis=1)
        d += dl.sum(axis=1)
        scale += np.abs(a).sum(axis=1) + np.abs(r).sum(axis=1)
    return la, ar, d, scale


def _mixed_probes(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(1e-3, 2.0, n) + 1j * rng.uniform(-1.5, 1.5, n)


def _proxy_use(params: SeriesParams, cs: CantorSet, zs: np.ndarray) -> np.ndarray:
    """Per point and generation k, the log cos elements its far proxies take
    explicitly (b_k past the polynomial's cap), counted in one-point calls."""
    kernel = series.log_cos
    gens = {params.coeff(k): k for k in range(1, params.max_gen + 1)}
    out = np.zeros((zs.size, params.max_gen + 1), dtype=int)
    for n, z in enumerate(zs):

        def counted(lr, th, b, with_deriv=False):
            if np.ndim(lr) == 2:  # (pair, proxy): proxied, not near
                out[n, gens[b]] += np.size(lr)
            return kernel(lr, th, b, with_deriv)

        series.log_cos = counted
        try:
            log_cosine_product_many(params, cs, np.array([z]))
        finally:
            series.log_cos = kernel
    return out


@pytest.mark.parametrize("s,p,M", [
    pytest.param(0.5, 4, None, id="4"),
    pytest.param(0.5, 8, None, id="8"),
    pytest.param(0.5, None, None, id="13"),
    pytest.param(0.75, None, None, id="13-s0.75"),
    pytest.param(1.0, None, None, id="13-s1"),
    pytest.param(0.5, None, 4, id="13-M4"),
])
def test_proxy_remainder_bounds_the_deviation_from_the_pair_sum(monkeypatch, s, p, M):
    """With p proxies per far subtree and M terms of the (log w)^2
    polynomial, log|G| and arg G differ from the sum over every pair by at
    most the certified remainder (plus rounding): on probes where
    generation 1 stays explicit at some proxies and on probes where every
    proxied generation is in the polynomial.  G'/G, taken in the same
    call, agrees with the pair sum to rounding at the default p and M.  At
    p = 4 the proxies' own error, and at M = 4 the polynomial's, stands
    well above rounding."""
    monkeypatch.setattr(series, "_PROXIES", p or series._PROXIES)
    monkeypatch.setattr(series, "_POLY_TERMS", M or series._POLY_TERMS)
    params = SeriesParams(s=s, max_gen=12)
    cs = CantorSet.build(s, 12)
    zs = _mixed_probes(300, 5)
    la_b, ar_b, dl_b, scale = _brute_cos(params, cs, zs)
    la, ar, _, dl, rem = log_cosine_product_many(params, cs, zs, with_deriv=True)
    assert np.array_equal(la, log_cosine_product_many(params, cs, zs)[0])
    use = _proxy_use(params, cs, zs)
    gen1, poly = use[:, 1] > 0, use.sum(axis=1) == 0
    assert gen1.sum() > 50 and poly.sum() > 50  # both kinds of probe
    assert np.all(rem > 0.0)
    assert np.all(np.abs(la - la_b) <= rem + 1e-15 * scale)
    assert np.all(np.abs(ar - ar_b) <= rem + 1e-15 * scale)
    if p is None and M is None:
        d_scale = _cos_scales(cs, 12, zs)[1]
        assert np.all(np.abs(dl - dl_b) <= 1e-14 * d_scale)
    if p == 4 or M == 4:
        for sel in (gen1, poly):
            assert np.abs(la - la_b)[sel].max() > 1e-10


def _mp_log_cos_coeff(m: int):
    """c_m of log cos u = sum_m c_m u^(2m) (A&S 4.3.71), from mpmath's B_2m."""
    return ((-1) ** m * mpmath.mpf(2) ** (2 * m - 1) * (mpmath.mpf(4) ** m - 1)
            * mpmath.bernoulli(2 * m) / (m * mpmath.factorial(2 * m)))


def test_log_cos_coefficients_match_the_bernoulli_numbers():
    """The Taylor coefficients of log cos, rounded from exact rationals,
    within 1 ulp of A&S 4.3.71 with mpmath's Bernoulli numbers."""
    c = series._log_cos_coeffs(30)
    assert c[0] == 0.0
    with mpmath.workdps(50):
        for m in range(1, 31):
            want = _mp_log_cos_coeff(m)
            assert abs(mpmath.mpf(c[m]) - want) <= math.ulp(float(want)), m


@pytest.mark.parametrize("M", [4, 8, series._POLY_TERMS])
def test_log_cos_tail_bounds_the_truncated_series(M):
    """|log cos u - sum_{m<=M} c_m u^(2m)| (exact c_m) is at most
    _log_cos_tail(M, |u|) on 200 sampled complex u with cap / 4 <= |u| <=
    cap, the circle |u| = cap included, and the bound is within 200 times
    the largest tail there.  (The tail falls like |u|^(2M+2): at
    |u| = cap / 4 and M = 18 it is 1e-45 of log cos u, hence 100 digits.)"""
    rng = np.random.default_rng(M)
    cap = series._POLY_CAP
    us = cap * np.sqrt(rng.uniform(1 / 16, 1.0, 200)) * np.exp(2j * np.pi * rng.uniform(size=200))
    us[:8] = cap * np.exp(0.25j * np.pi * np.arange(8))
    worst = 0.0
    with mpmath.workdps(100):
        c = [_mp_log_cos_coeff(m) for m in range(1, M + 1)]
        for u in us:
            uu = mpmath.mpc(u.real, u.imag)
            poly = sum(cm * uu ** (2 * m) for m, cm in enumerate(c, 1))
            tail = float(abs(mpmath.log(mpmath.cos(uu)) - poly))
            assert tail <= series._log_cos_tail(M, abs(u)), u
            worst = max(worst, tail)
    assert series._log_cos_tail(M, cap) < 200 * worst


def test_series_product_energy_density_against_the_pair_sum():
    """MinimizerSpec(SeriesProduct).log_energy_density on 2,000 nodes of the
    ring |z| = 0.3 at max_gen 10, against (2/Q)|h|^(2/Q)|h'/h|^2 with log|G|
    and G'/G summed over every (node, shift) pair in complex arithmetic and
    F, F' from decay_exponent_many at FAR_TOL, as the product takes them."""
    params = SeriesParams(s=0.5, max_gen=10)
    cs = CantorSet.build(0.5, 10)
    zs = 0.3 * np.exp(1j * np.pi * ((np.arange(2000) + 0.5) / 2000 - 0.5))
    la_G = np.zeros(zs.size)
    dl_G = np.zeros(zs.size, dtype=complex)
    for k in range(1, 11):
        b = 2.0**-k / k**2
        for rows in np.array_split(np.arange(zs.size), 8):
            w = zs[rows, None] + 1j * cs.left_endpoints(k)[None, :]
            bL = b * np.log(w)
            la_G[rows] += np.log(np.abs(np.cos(bL))).sum(axis=1)
            dl_G[rows] += (-b * np.tan(bL) / w).sum(axis=1)
    F, Fp, _ = decay_exponent_many(params, cs, zs, with_deriv=True, far_tol=FAR_TOL)
    h = SeriesProduct(params=params, cs=cs)
    for Q in (2, 3):
        want = math.log(2.0 / Q) + (2.0 / Q) * (la_G - F.real) + 2.0 * np.log(np.abs(dl_G - Fp))
        got = MinimizerSpec(h=h, Q=Q).log_energy_density(zs)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


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
    _, _, lp, ap = OscillatingPower(alpha, P).log_h(zs, deriv=True)
    assert np.all(_rel(np.exp(lp + 1j * ap), want) <= 1e-13)
