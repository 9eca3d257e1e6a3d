import math
from dataclasses import dataclass

import numpy as np
import pytest

from branchpoint_lab import (
    CantorSet,
    ConstantTarget,
    MassCurve,
    MinimizerSpec,
    Monomial,
    QuadConfig,
    RealPartTarget,
    SeriesParams,
    ValidationError,
    default_ladder,
    doubling_ratio,
    mass_curve,
    sliding_window_slopes,
    vanishing_order_slope,
)
from branchpoint_lab.vanishing import log_mass


def test_constant_target_area_formula():
    got, _ = log_mass(ConstantTarget(2.5), 0.3 + 0.4j, 0.7)
    assert got == pytest.approx(math.log(math.pi * 0.49 * 6.25), abs=1e-9)


def test_annulus_closed_forms():
    got, _ = log_mass(ConstantTarget(2.5), 0.3 + 0.4j, 0.7, r_inner=0.2)
    assert got == pytest.approx(math.log(math.pi * (0.49 - 0.04) * 6.25), abs=1e-9)
    # |u|^2 = Q|z|^(2P/Q): mass 2 pi Q (R^beta - r^beta) / beta, beta = 2P/Q + 2
    for P, Q in [(1, 2), (3, 2), (2, 3)]:
        beta = 2.0 * P / Q + 2.0
        got, _ = log_mass(MinimizerSpec(h=Monomial(P=P), Q=Q), 0j, 0.3, r_inner=0.1)
        want = 2.0 * math.pi * Q * (0.3**beta - 0.1**beta) / beta
        assert got == pytest.approx(math.log(want), abs=1e-9)


@pytest.mark.parametrize("r_inner", [-0.1, 0.3, 0.5])
def test_annulus_rejects_bad_inner_radius(r_inner):
    with pytest.raises(ValidationError):
        log_mass(ConstantTarget(1.0), 0j, 0.3, r_inner=r_inner)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_constant_target_rejects_non_finite(value):
    with pytest.raises(ValidationError):
        ConstantTarget(value)


def test_default_ladder():
    rs = default_ladder()
    assert len(rs) == 12
    assert rs[0] == 0.2
    ratios = np.diff(np.log(rs))
    np.testing.assert_allclose(ratios, -0.5 * math.log(2.0), rtol=1e-12)


def test_mass_curve_validation():
    with pytest.raises(ValidationError):
        MassCurve(0j, (0.1, 0.2), (0.0, 0.0), (0.0, 0.0))  # ascending
    with pytest.raises(ValidationError):
        MassCurve(0j, (0.2,), (0.0,), (0.0,))  # too short
    with pytest.raises(ValidationError):
        MassCurve(0j, (0.2, 0.1), (0.0, -math.inf), (0.0, 0.0))  # -inf mass


@dataclass
class _Counting:
    """A mass target that counts the points its density is asked for."""

    target: object
    points: int = 0

    @property
    def domain(self):
        return self.target.domain

    def log_density(self, zs):
        self.points += np.asarray(zs).size
        return self.target.log_density(zs)

    def decay_rate(self, rho):
        return self.target.decay_rate(rho)


@pytest.mark.parametrize("ladder", [(0.1, 0.2), (0.2, 0.2), (0.2, -0.1), (0.2,)])
def test_mass_curve_checks_the_ladder_before_quadrature(ladder):
    target = _Counting(ConstantTarget(1.0))
    with pytest.raises(ValidationError):
        mass_curve(target, 0j, ladder)
    assert target.points == 0


def test_mass_curve_regions_match_whole_disks():
    # the disk plus annuli against one log_mass per rung: each rung within
    # both reported errors, the innermost bit for bit, from under half the points
    params = SeriesParams(s=0.5, max_gen=12)
    t = RealPartTarget(params=params, cs=CantorSet.build(0.5, 12))
    radii, cfg = [0.2, 0.1, 0.05], QuadConfig(rel_tol=1e-3, order=10)
    counted = _Counting(t)
    curve = mass_curve(counted, 0j, radii, cfg)
    whole = _Counting(t)
    want = [log_mass(whole, 0j, r, cfg) for r in radii]
    for lm, err, (w, w_err) in zip(curve.log_mass, curve.quadrature_errors, want):
        assert abs(lm - w) <= err + w_err
    assert (curve.log_mass[-1], curve.quadrature_errors[-1]) == want[-1]
    part_errs = [want[-1][1]] + [
        log_mass(t, 0j, r, cfg, r_inner=r_in)[1] for r, r_in in zip(radii[-2::-1], radii[:0:-1])
    ]
    for k, err in enumerate(curve.quadrature_errors):
        assert err <= max(part_errs[: len(radii) - k])
    assert counted.points < 0.5 * whole.points


def test_synthetic_power_law_slope():
    radii = tuple(default_ladder(8))
    beta, c = 7.25, -3.0
    lm = tuple(beta * math.log(r) + c for r in radii)
    curve = MassCurve(0j, radii, lm, (0.0,) * 8)
    for window in [range(0, 3), range(2, 8), range(0, 8)]:
        assert vanishing_order_slope(curve, window) == pytest.approx(beta, abs=1e-12)


def test_slope_window_validation():
    radii = tuple(default_ladder(4))
    curve = MassCurve(0j, radii, (0.0, -1.0, -2.0, -3.0), (0.0,) * 4)
    with pytest.raises(ValidationError):
        vanishing_order_slope(curve, [1])
    with pytest.raises(ValidationError):
        sliding_window_slopes(curve, width=1)


def test_constant_slope_is_area_exponent():
    curve = mass_curve(ConstantTarget(1.3), 0j, default_ladder(6))
    for s in sliding_window_slopes(curve):
        assert s == pytest.approx(2.0, abs=1e-8)
    # doubling exponent 1 for every pair present in the 1/sqrt(2) ladder
    for d in doubling_ratio(curve):
        assert d == pytest.approx(1.0, abs=1e-8)


def test_monomial_minimizer_slope_and_doubling():
    for P, Q in [(1, 2), (3, 2)]:
        t = MinimizerSpec(h=Monomial(P=P), Q=Q)
        curve = mass_curve(t, 0j, default_ladder(8))
        for s in sliding_window_slopes(curve):
            assert s == pytest.approx(2.0 * P / Q + 2.0, abs=1e-8)
        for d in doubling_ratio(curve):
            assert d == pytest.approx(P / Q + 1.0, abs=1e-8)


def test_doubling_requires_pairs():
    radii = (0.2, 0.11, 0.07)
    curve = MassCurve(0j, radii, (0.0, -1.0, -2.0), (0.0,) * 3)
    with pytest.raises(ValidationError):
        doubling_ratio(curve)


def test_interior_center_slope_tends_to_area_exponent():
    # center away from the boundary set, density continuous and nonzero
    params = SeriesParams(s=0.5, max_gen=10)
    cs = CantorSet.build(0.5, 10)
    t = RealPartTarget(params=params, cs=cs)
    center = 1.5 + 0.5j
    curve = mass_curve(t, center, [0.08, 0.04, 0.02, 0.01], QuadConfig(rel_tol=1e-6))
    slopes = sliding_window_slopes(curve, width=2)
    assert slopes[-1] == pytest.approx(2.0, abs=0.02)


def test_boundary_center_mass_decreasing_and_finite():
    params = SeriesParams(s=0.5, max_gen=12)
    cs = CantorSet.build(0.5, 12)
    t = RealPartTarget(params=params, cs=cs)
    curve = mass_curve(t, 0j, [0.2, 0.1, 0.05], QuadConfig(rel_tol=1e-3))
    assert all(np.isfinite(curve.log_mass))
    assert curve.log_mass[0] > curve.log_mass[1] > curve.log_mass[2]


def test_real_part_not_constant():
    # the boundary-vanishing density takes genuinely different values
    params = SeriesParams(s=0.5, max_gen=10)
    cs = CantorSet.build(0.5, 10)
    t = RealPartTarget(params=params, cs=cs)
    zs = np.array([0.2 + 0.1j, 0.9 - 0.4j, 0.05 + 0.7j, 1.4 + 0j])
    vals = t.log_density(zs)
    assert np.ptp(vals) > 1.0
