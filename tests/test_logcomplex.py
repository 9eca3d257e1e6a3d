import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from branchpoint_lab import (
    BranchCutError,
    LogComplex,
    decay_block,
    oscillating_block,
    principal_log,
)
from branchpoint_lab.logcomplex import LOG_TINY, log_polar, neg_power

finite = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


def lc(log_mag, arg):
    return LogComplex(log_mag, arg)


def test_round_trip_moderate():
    for w in [1 + 2j, -3 + 0.5j, 0.001 - 7j, 2j]:
        back = LogComplex.from_complex(w).to_complex()
        assert back == pytest.approx(w, rel=1e-14)


def test_zero_encoding():
    z = LogComplex.zero()
    assert z.is_zero
    assert z.abs() == 0.0
    assert z.to_complex() == 0j
    assert LogComplex.from_complex(0j).is_zero
    assert z.mul(lc(3.0, 1.0)).is_zero


def test_deep_underflow_preserved_in_log():
    tiny = lc(-1e6, 0.3)
    assert tiny.to_complex() == 0j  # saturates as a double
    assert tiny.log_mag == -1e6  # but the log survives
    prod = tiny.mul(lc(-2e6, 0.1))
    assert prod.log_mag == -3e6


@given(a=finite, b=finite, c=finite, d=finite, e=finite, f=finite)
@settings(max_examples=50, deadline=None)
def test_mul_associative_and_commutative(a, b, c, d, e, f):
    x, y, z = lc(a, b), lc(c, d), lc(e, f)
    left = x.mul(y).mul(z)
    right = x.mul(y.mul(z))
    assert left.log_mag == pytest.approx(right.log_mag, rel=1e-12, abs=1e-12)
    assert left.arg == pytest.approx(right.arg, rel=1e-12, abs=1e-12)
    assert x.mul(y) == y.mul(x)


@given(arg=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_reduced_arg_range(arg):
    r = lc(0.0, arg).reduced_arg()
    assert -math.pi < r <= math.pi
    # reduction preserves the value modulo 2 pi
    assert math.remainder(r - arg, 2.0 * math.pi) == pytest.approx(0.0, abs=1e-6)


def test_unreduced_argument_accumulates():
    x = lc(0.0, 3.0)
    acc = x
    for _ in range(9):
        acc = acc.mul(x)
    assert acc.arg == pytest.approx(30.0)


def test_principal_log_and_cut():
    assert principal_log(1j) == pytest.approx(cmath.log(1j))
    for z in [-1.0 + 0j, -2.5 + 0j, 0j]:
        with pytest.raises(BranchCutError):
            principal_log(z)


def test_decay_block_matches_direct():
    for z in [0.5 + 0.2j, 1.5 - 1j, 0.3j, 2 + 0j]:
        for alpha in [0.3, 0.5, 0.9]:
            got = decay_block(z, alpha)
            want = cmath.exp(-cmath.exp(-alpha * cmath.log(z)))
            assert got.to_complex() == pytest.approx(want, rel=1e-13)


def test_decay_block_underflow_regime():
    got = decay_block(1e-12 + 0j, 0.5)
    assert got.log_mag == pytest.approx(-1e6)
    assert got.to_complex() == 0j


def test_decay_block_validation():
    for alpha in [0.0, 1.0, -0.5, 2.0]:
        with pytest.raises(BranchCutError):
            decay_block(1 + 0j, alpha)


def test_blocks_reject_the_cut():
    for block in (decay_block, oscillating_block):
        for z in (0j, -1 + 0j):
            with pytest.raises(BranchCutError):
                block(z, 0.5)


def test_oscillating_block_matches_direct():
    for z in [0.5 + 0.2j, 1.5 - 1j, 0.7 + 0j]:
        got = oscillating_block(z, 0.5)
        want = cmath.cos(cmath.log(z)) * cmath.exp(-z**-0.5)
        assert got.to_complex() == pytest.approx(want, rel=1e-12)


def test_oscillating_block_exact_zero():
    # cos(log z) = 0 exactly when the floating cosine returns 0.0
    z = math.exp(math.pi / 2.0)
    if math.cos(math.log(z)) == 0.0:
        assert oscillating_block(z + 0j, 0.5).is_zero


def test_log_tiny_boundary():
    assert lc(LOG_TINY + 1.0, 0.0).to_complex() != 0j
    assert lc(LOG_TINY - 800.0, 0.0).to_complex() == 0j


def test_subnormal_phase_does_not_overflow():
    # cmath.phase(2+5e-324j) raises OverflowError: its result underflows
    w = 2 + 5e-324j
    got = LogComplex.from_complex(w)
    assert got.log_mag == math.log(2.0)
    assert got.arg == 0.0
    block = oscillating_block(w, 0.5)
    assert block.log_mag == pytest.approx(oscillating_block(2 + 0j, 0.5).log_mag, rel=1e-15)
    assert abs(block.arg) < 1e-300


@pytest.mark.parametrize("w", [1e-200 + 0j, 1e-160 * (1 + 1j), 1e200 + 0j])
def test_log_polar_outside_the_squared_range(w):
    # wr^2 + wi^2 under- or overflows at these moduli
    lr, th = log_polar(w.real, w.imag)
    assert float(lr) == pytest.approx(math.log(abs(w)), rel=1e-15)
    assert float(th) == math.atan2(w.imag, w.real)
    # elements in range keep 0.5 log(wr^2 + wi^2) exactly
    lr, _ = log_polar(np.array([0.3, w.real, 2.0]), np.array([0.4, w.imag, -1.0]))
    assert lr[0] == 0.5 * np.log(0.25) and lr[2] == 0.5 * np.log(5.0)
    assert lr[1] == pytest.approx(math.log(abs(w)), rel=1e-15)


_ALPHAS = (0.25, 0.75, 1.0, 1.75, 2.0)


def _cos_sin_power(lr, th, alpha):
    # the cosine-and-sine form of w^-alpha, for its non-finite pattern
    with np.errstate(over="ignore", invalid="ignore"):
        mag = np.exp(-alpha * lr)
        return mag * np.cos(alpha * th), -mag * np.sin(alpha * th)


@pytest.mark.parametrize("alpha", _ALPHAS)
def test_neg_power_matches_mpmath(alpha):
    """|w| from 1e-150 to 1e150 and arg w over [-pi, pi] (both ends and 0
    included): within 4 ulp of |w^-alpha| of the exact value at the given
    log-polar form, beyond the rounding of the product alpha log|w| that
    every float form of the magnitude shares."""
    rng = np.random.default_rng(7)
    lr = np.concatenate([np.linspace(-345.4, 345.4, 40), rng.uniform(-345.4, 345.4, 160)])
    th = np.concatenate([[-math.pi, math.pi, 0.0, -0.0, 0.5 * math.pi],
                         np.linspace(-math.pi, math.pi, 41), rng.uniform(-math.pi, math.pi, 154)])
    got = neg_power(lr, th, alpha)
    with mpmath.workprec(120):
        a = mpmath.mpf(alpha)
        for x, t, g in zip(lr, th, got):
            ref = mpmath.exp(-a * mpmath.mpf(x) - 1j * a * mpmath.mpf(t))
            rounding = abs(mpmath.mpf(alpha * x) - a * mpmath.mpf(x))
            err = abs(mpmath.mpc(g.real, g.imag) - ref) / abs(ref)
            assert err <= 4 * 2.0**-52 + rounding, (x, t)


@pytest.mark.parametrize("alpha", _ALPHAS)
def test_neg_power_non_finite_pattern(alpha):
    """At log|w| = -inf (w = 0), +inf and NaN each part is inf, NaN or 0
    where the cosine-and-sine form's is, with the same sign."""
    th = np.concatenate([[-math.pi, math.pi, 0.0, -0.0, 0.5 * math.pi, -0.5 * math.pi],
                         np.linspace(-math.pi, math.pi, 97)])
    for special in (-math.inf, math.inf, math.nan):
        lr = np.full(th.size, special)
        got, want = neg_power(lr, th, alpha), _cos_sin_power(lr, th, alpha)
        for g, w in zip((got.real, got.imag), want):
            assert np.array_equal(np.isnan(g), np.isnan(w))
            assert np.array_equal(np.isposinf(g), np.isposinf(w))
            assert np.array_equal(np.isneginf(g), np.isneginf(w))
            assert np.array_equal(g == 0.0, w == 0.0)
