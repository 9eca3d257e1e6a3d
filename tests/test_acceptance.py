"""Acceptance gate: every quantitative guarantee of the package, end to end.

Each test states the claim it checks in its docstring; tolerances are part
of the contract.  The module runs in about 6 s on 2 cores, the Cantor-set
frequency and vanishing runs in about 2 s of it; the whole tier-1 suite
takes about 45 s.
"""

import cmath
import math

import numpy as np
import pytest

from branchpoint_lab import (
    CantorSet,
    IntervalIndex,
    MinimizerSpec,
    Monomial,
    OscillatingPower,
    Polynomial,
    QuadConfig,
    RealPartTarget,
    SeriesFactor,
    SeriesParams,
    SeriesProduct,
    SmoothBlock,
    boundary_mass,
    branched_product,
    cauchy_derivatives,
    cosine_factor,
    cosine_product,
    decay_exponent_many,
    derivative,
    dirichlet_energy,
    frequency,
    frequency_curve,
    gap_centered_radii,
    mass_curve,
    product_zero,
    sliding_window_slopes,
    smooth_block_frequency_bound,
)
from branchpoint_lab.series import _exponent_tail, log_cosine_product_many


# 1. cover-sum identity ------------------------------------------------------


@pytest.mark.parametrize("s", [0.3, 0.5, 0.9])
def test_cover_sum_identity(s):
    """Generation-k covers have unit s-dimensional sum, k <= 20."""
    cs = CantorSet.build(s, 20)
    for k in range(1, 21):
        assert cs.cover_sum(k, s) == pytest.approx(1.0, rel=1e-12)


def test_cover_sum_borderline():
    """At s = 1 the cover sum is 2^(-k^(2/3)), strictly decreasing."""
    cs = CantorSet.build(1.0, 20)
    sums = [cs.cover_sum(k, 1.0) for k in range(1, 21)]
    for k, v in enumerate(sums, start=1):
        assert v == pytest.approx(2.0 ** (-(k ** (2.0 / 3.0))), rel=1e-12)
    assert all(b < a for a, b in zip(sums, sums[1:]))


# 2. interior frequency anchor -----------------------------------------------


@pytest.mark.parametrize("P,Q", [(1, 2), (3, 2), (2, 3)])
@pytest.mark.parametrize("r", [0.25, 0.5])
def test_interior_frequency_anchor(P, Q, r):
    """h = z^P: I = P/Q, D = 2 pi P r^(2P/Q), H = 2 pi Q r^(2P/Q)."""
    spec = MinimizerSpec(h=Monomial(P=P), Q=Q)
    fs = frequency(spec, 0j, r)
    assert fs.I == pytest.approx(P / Q, abs=1e-6)
    scale = r ** (2.0 * P / Q)
    D, _ = dirichlet_energy(spec, 0j, r)
    H, _ = boundary_mass(spec, 0j, r)
    assert D == pytest.approx(2.0 * math.pi * P * scale, rel=1e-6)
    assert H == pytest.approx(2.0 * math.pi * Q * scale, rel=1e-6)


# 3. interior monotonicity ---------------------------------------------------


@pytest.mark.parametrize(
    "coeffs,center,radii",
    [
        ((0.3, 1.0), 0j, np.geomspace(0.05, 0.25, 8)),  # h = z + 0.3
        ((0.0, 0.0, -0.5, 1.0), 0.1 + 0j, np.geomspace(0.04, 0.3, 8)),  # z^2 (z - 0.5)
    ],
)
def test_interior_monotonicity(coeffs, center, radii):
    """I(r) is nondecreasing in r at interior centers, within quadrature error."""
    spec = MinimizerSpec(h=Polynomial(coeffs=coeffs), Q=2)
    curve = frequency_curve(spec, center, list(radii))
    for a, b in zip(curve, curve[1:]):
        assert b.I >= a.I - (a.quadrature_error + b.quadrature_error)
    assert all(fs.I > 0.0 for fs in curve)


# 4. boundary blow-up, smooth block ------------------------------------------


def test_boundary_blowup_smooth_block():
    """h = exp(-z^-0.5), Q = 2: I(0, R) >= (alpha/Q) R^-alpha cos(alpha pi/2)
    and grows as R shrinks."""
    spec = MinimizerSpec(h=SmoothBlock(alpha=0.5), Q=2)
    Is = []
    for R in [0.2, 0.1, 0.05]:
        fs = frequency(spec, 0j, R, log_scale=True)
        assert fs.I >= smooth_block_frequency_bound(0.5, 2, R)
        Is.append(fs.I)
    assert Is[0] < Is[1] < Is[2]


# 5. oscillating power: branch point off-axis and boundary blow-up -----------


def test_oscillating_power_interior():
    """At the order-1 zero ring point e^(-pi/2), small disks see I = P/Q."""
    spec = MinimizerSpec(h=OscillatingPower(alpha=0.5, P=1), Q=2)
    fs = frequency(spec, cmath.exp(-math.pi / 2.0), 1e-3)
    assert fs.I == pytest.approx(0.5, abs=5e-3)


_TANH_QUARTER_PI = math.tanh(math.pi / 4.0)


def oscillating_power_frequency_bound(alpha: float, P: int, Q: int, R: float) -> float:
    """Lower bound (P/Q)(alpha R^(-alpha) cos(alpha pi/2) - 1/tanh(pi/4))."""
    return (P / Q) * (
        alpha * R ** (-alpha) * math.cos(alpha * math.pi / 2.0) - 1.0 / _TANH_QUARTER_PI
    )


def test_oscillating_power_boundary():
    """I(0, R) beats (P/Q)(alpha R^-alpha cos(alpha pi/2) - 1/tanh(pi/4))
    and grows as R shrinks."""
    spec = MinimizerSpec(h=OscillatingPower(alpha=0.5, P=1), Q=2)
    Is = []
    for R in [0.1, 0.05, 0.02]:
        fs = frequency(spec, 0j, R, log_scale=True)
        assert fs.I > oscillating_power_frequency_bound(0.5, 1, 2, R)
        Is.append(fs.I)
    assert Is[0] < Is[1] < Is[2]


# 6. Cantor boundary set: frequency blow-up through gap-centered radii -------


def test_cantor_frequency_blowup():
    """h = exp(-F) over the s = 0.5 set, Q = 3, center on the boundary set:
    I(R_n) increases along the gap-centered radii R_n, n = 2..8.

    The Dirichlet density is rough at Cantor scales near theta = +-pi/2, so
    the disk quadrature is run coarse: only the monotone growth of I
    (roughly 2.8x per rung) is asserted, not tight values.
    """
    params = SeriesParams(s=0.5, max_gen=20)
    cs = CantorSet.build(0.5, 20)
    spec = MinimizerSpec(h=SeriesFactor(params=params, cs=cs), Q=3)
    cfg = QuadConfig(rel_tol=0.25, order=10, max_refine=2)
    Is = []
    for n in range(2, 9):
        fs = frequency(spec, 0j, gap_centered_radii(0.5, n), cfg, log_scale=True)
        assert math.isfinite(fs.I)
        Is.append(fs.I)
    assert all(b > a for a, b in zip(Is, Is[1:]))


# 7. constructed zeros of the branched product -------------------------------


def test_product_zeros_exact():
    """Every constructed zero kills its cosine factor to 1e-12 and the full
    branched product exactly, for all intervals up to generation 6, m <= 20."""
    params = SeriesParams(s=0.5, max_gen=6)
    cs = CantorSet.build(0.5, 6)
    for k in range(1, 7):
        for pos in range(1, 2**k + 1):
            idx = IntervalIndex(k, pos)
            for m in range(1, 21):
                z = product_zero(params, cs, idx, m)
                assert abs(cosine_factor(params, cs, idx, z)) <= 1e-12
                g = branched_product(params, cs, z)
                assert g.value.is_zero
                assert g.tail_bound == 0.0


def test_branch_point_slope_follows_the_r_squared_model():
    """At the zero of G nearest 0.0432139 (s = 0.5, max_gen 12, Q = 3), u =
    h^(1/Q) has a simple branch point, so I(r) -> 1/Q.  If Q I - 1 ~ a r^2,
    then r I' -> 2(I - 1/Q): their relative gap is below 0.02 at r/4, r =
    0.01294, and at r/16 at most 1/8 of that (the model predicts 1/16;
    measured 0.0100 and 0.00063)."""
    h = SeriesProduct(params=SeriesParams(s=0.5, max_gen=12), cs=CantorSet.build(0.5, 12))
    spec = MinimizerSpec(h=h, Q=3)
    gaps = []
    for r in (0.01294 / 4, 0.01294 / 16):
        fs = frequency(spec, 0.0432139 + 0j, r)
        model = 2.0 * (fs.I - 1.0 / 3.0)
        gaps.append(abs(r * fs.dI_dr - model) / model)
    assert gaps[0] < 0.02
    assert gaps[1] <= gaps[0] / 8.0


# 8. uniform bound on the cosine product -------------------------------------


def test_cosine_product_uniform_bound():
    """|G| <= e^(pi^3 / 6) on a 1000-point half-plane grid."""
    params = SeriesParams(s=0.5, max_gen=12)
    cs = CantorSet.build(0.5, 12)
    rng = np.random.default_rng(42)
    zs = rng.uniform(1e-3, 2.0, 1000) + 1j * rng.uniform(-2.0, 2.0, 1000)
    la, _, zero, _, _ = log_cosine_product_many(params, cs, zs)
    assert not np.any(zero)
    assert np.all(la <= math.pi**3 / 6.0 + 1e-9)


# 9. derivative oracle: contour vs central finite differences ----------------


def _central_fd(fn, z, m, h):
    """Central stencil of order m at steps h, h/2, h/4, Richardson-extrapolated
    twice (truncation error O(h^6))."""

    def stencil(h):
        if m == 1:
            return (fn(z + h) - fn(z - h)) / (2.0 * h)
        if m == 2:
            return (fn(z + h) - 2.0 * fn(z) + fn(z - h)) / h**2
        return (fn(z + 2 * h) - 2.0 * fn(z + h) + 2.0 * fn(z - h) - fn(z - 2 * h)) / (
            2.0 * h**3
        )

    d0, d1, d2 = stencil(h), stencil(h / 2.0), stencil(h / 4.0)
    r0 = d1 + (d1 - d0) / 3.0
    r1 = d2 + (d2 - d1) / 3.0
    return r1 + (r1 - r0) / 15.0


def test_derivative_oracle():
    """Cauchy-contour derivatives of the single block, the decay factor and
    the branched product match finite differences to 1e-6 relative.

    The difference side uses exact direct sums (far_tol=None): the tree
    aggregation is only piecewise smooth at the ~far_tol^2 level, which a
    third-difference stencil would amplify.  The block's derivatives are
    taken on a contour of radius Re z / 2, clear of its cut (-inf, 0].
    """
    params = SeriesParams(s=0.5, max_gen=8)
    cs = CantorSet.build(0.5, 8)

    def f_exact(z):
        F, _, _ = decay_exponent_many(params, cs, np.array([complex(z)]), far_tol=None)
        return cmath.exp(-F[0])

    def g_exact(z):
        return cosine_product(params, cs, z).value.to_complex() * f_exact(z)

    def block(zs):
        la, ar = SmoothBlock(params.max_exponent()).log_h(np.asarray(zs, dtype=complex))
        return np.exp(la + 1j * ar)

    fns = {"decay_block": block, "decay_factor": f_exact, "branched_product": g_exact}
    rng = np.random.default_rng(7)
    probes = rng.uniform(0.4, 1.2, 20) + 1j * rng.uniform(-0.8, 0.8, 20)
    steps = {1: 2e-3, 2: 6e-3, 3: 2e-2}
    for name, fn in fns.items():
        for z in probes:
            z = complex(z)
            for m in (1, 2, 3):
                if name == "decay_block":
                    got, _ = cauchy_derivatives(block, z, z.real / 2.0, [m])[m]
                else:
                    got, _ = derivative(params, cs, name, z, m)
                want = _central_fd(fn, z, m, steps[m])
                assert abs(got - want) <= max(1e-6 * abs(got), 1e-12)


# 10. infinite-order vanishing of the boundary mass --------------------------


def test_infinite_order_vanishing():
    """The mass of (Re f)^2 around a boundary-set center vanishes faster than
    every power: local log-log slopes climb past 10 and keep climbing."""
    params = SeriesParams(s=0.5, max_gen=18)
    cs = CantorSet.build(0.5, 18)
    target = RealPartTarget(params=params, cs=cs)
    radii = [10.0 ** (-0.5 - 0.2 * k) for k in range(11)]
    cfg = QuadConfig(rel_tol=1e-3, order=10, max_refine=6)
    curve = mass_curve(target, 0j, radii, cfg)
    slopes = sliding_window_slopes(curve)
    assert all(b >= a - 0.1 for a, b in zip(slopes, slopes[1:]))
    assert slopes[-1] > 10.0


def test_power_law_contrast():
    """Contrast case: the monomial minimizer mass has the fixed finite slope
    2P/Q + 2 on every window."""
    for P, Q in [(1, 2), (2, 3)]:
        target = MinimizerSpec(h=Monomial(P=P), Q=Q)
        radii = [10.0 ** (-0.5 - 0.2 * k) for k in range(8)]
        curve = mass_curve(target, 0j, radii)
        for s in sliding_window_slopes(curve):
            assert s == pytest.approx(2.0 * P / Q + 2.0, abs=1e-3)


# 11. truncation tail-bound soundness ----------------------------------------


def test_tail_bound_soundness():
    """|F at K=15 minus F at K=25| is within the reported K=15 tail bound at
    100 half-plane probes."""
    params15 = SeriesParams(s=0.5, max_gen=15)
    cs15 = CantorSet.build(0.5, 15)
    params25 = SeriesParams(s=0.5, max_gen=25)
    cs16 = CantorSet.build(0.5, 16)
    rng = np.random.default_rng(11)
    zs = rng.uniform(0.05, 2.0, 100) + 1j * rng.uniform(-1.5, 1.5, 100)
    # deeper truncation via certified far-field aggregation past the stored set
    F25, _, agg_err = decay_exponent_many(params25, cs16, zs, far_tol=3e-4)
    diffs = []
    F15, _, _ = decay_exponent_many(params15, cs15, zs, far_tol=None)  # the direct sums
    tail15 = _exponent_tail(params15, cs15.dist_to_boundary_rays_many(zs))
    for f15, tail, f25, ae in zip(F15, tail15, F25, agg_err):
        diff = abs(f15 - f25)
        assert diff <= tail + ae
        diffs.append(diff)
    assert max(diffs) > 0.0  # the truncations genuinely differ
