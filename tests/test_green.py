"""Dirichlet energy by Green's identity.

On the plane, and on half-plane disks clear of the imaginary axis,
`log_dirichlet_energy` integrates |h|^(2/Q) phi over the arc (a signed
integrand); on the blocks' half-disks that cross the axis it adds the flux
through the chord on the axis.  The reference here is the disk integral of
the energy density, called directly, the closed form of the block's chord
term, and for I two 25-digit mpmath integrals.
"""

import importlib
import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from branchpoint_lab import (
    CantorSet,
    ConvergenceError,
    MinimizerSpec,
    Monomial,
    Polynomial,
    QuadConfig,
    SeriesParams,
    SmoothBlock,
    dirichlet_energy,
    frequency,
)
from branchpoint_lab._quad import log_difference, log_disk_integral, log_line_integral
from branchpoint_lab.frequency import (
    OscillatingPower,
    SeriesFactor,
    SeriesProduct,
    _chord_parts,
    _log_arc_pass,
    _log_flux,
    _zero_geometry,
    gap_centered_radii,
    log_boundary_mass,
    log_dirichlet_energy,
    polar_mesh,
)

_FREQ = importlib.import_module("branchpoint_lab.frequency")
ARC = QuadConfig(rel_tol=1e-10)
DISK = QuadConfig(rel_tol=1e-7)
LADDERS = [((0.3, 1.0), 0.0, (0.05, 0.25)), ((0.0, 0.0, -0.5, 1.0), 0.1, (0.04, 0.3))]


def _disk_energy(spec, center, r, cfg=DISK):
    """log D as the disk integral of the energy density, meshed as
    `log_dirichlet_energy` meshes a half-plane disk that reaches the axis."""
    r_edges, arcs, inner = polar_mesh(
        center, r, spec.domain, lambda rho: (2.0 / spec.Q + 2.0) * spec.h.decay_rate(rho),
        zero_polar=_zero_geometry(spec, center, r),
    )
    return log_disk_integral(
        spec.log_energy_density, center, r_edges, arcs, cfg, inner_targets=inner
    )


def _signs(spec, center, r):
    """The signs the arc integrand takes at 512 points of the arc."""
    th = np.linspace(-math.pi, math.pi, 512)
    h_hp = spec.h.log_h_hprime(center + r * np.exp(1j * th))
    _, neg = _log_flux(h_hp, math.log(r), th, 2.0 / spec.Q)
    return set(np.where(neg, -1, 1))


@pytest.mark.parametrize(
    "P,Q,center,r,signs",
    [
        (3, 2, 0j, 0.4, {1}),
        (2, 3, 0j, 0.7, {1}),
        (3, 2, 0.1 + 0.05j, 0.3, {1}),
        (1, 2, -0.2 + 0.1j, 0.5, {1}),
        (3, 2, 0.2 + 0.25j, 0.2, {1, -1}),
        (2, 3, -0.4 - 0.1j, 0.25, {1, -1}),
    ],
)
def test_arc_energy_matches_disk_on_monomials(P, Q, center, r, signs):
    # centred, off-centre with |c| < r, and |c| > r, where phi changes sign
    spec = MinimizerSpec(h=Monomial(P=P), Q=Q)
    assert _signs(spec, center, r) == signs
    got, _ = log_dirichlet_energy(spec, center, r, ARC)
    want, _ = _disk_energy(spec, center, r)
    assert abs(math.expm1(got - want)) <= 1e-8
    if center == 0:
        assert math.exp(got) == pytest.approx(2.0 * math.pi * P * r ** (2.0 * P / Q), rel=1e-14)


@pytest.mark.parametrize("Q", [2, 3])
@pytest.mark.parametrize("ladder", range(len(LADDERS)))
def test_arc_energy_matches_disk_on_ladders(ladder, Q):
    coeffs, c, (lo, hi) = LADDERS[ladder]
    # both ladders have a zero at angle pi from the centre, on the seam of
    # the disk's full arcs
    spec = MinimizerSpec(h=Polynomial(coeffs=coeffs), Q=Q)
    for r in np.geomspace(lo, hi, 8):
        got, _ = log_dirichlet_energy(spec, complex(c), r, ARC)
        want, _ = _disk_energy(spec, complex(c), r)
        assert abs(math.expm1(got - want)) <= 1e-8, r


def test_disk_converges_with_a_zero_on_the_seam():
    # the double zero of z^3 - z^2/2 lies at angle pi from 0.1; without an
    # angular cluster at both ends of the arc this disk does not converge
    spec = MinimizerSpec(h=Polynomial(coeffs=(0.0, 0.0, -0.5, 1.0)), Q=3)
    got, _ = log_dirichlet_energy(spec, 0.1 + 0j, 0.1265, ARC)
    want, _ = _disk_energy(spec, 0.1 + 0j, 0.1265, QuadConfig(rel_tol=1e-6))
    assert abs(math.expm1(got - want)) <= 1e-8


_FACTOR_10 = SeriesFactor(params=SeriesParams(s=0.5, max_gen=10), cs=CantorSet.build(0.5, 10))


@pytest.mark.parametrize(
    "h,Q,center,r",
    [
        (SmoothBlock(alpha=0.5), 2, 0.5 + 0j, 0.2),
        (SmoothBlock(alpha=0.5), 3, 0.3 + 0.1j, 0.25),
        (_FACTOR_10, 3, 0.3 + 0j, 0.1),
    ],
    ids=["block_q2", "block_q3", "factor_q3"],
)
def test_arc_energy_matches_disk_on_interior_half_plane_disks(h, Q, center, r):
    # the disk stays clear of the imaginary axis, so D is the arc form; the
    # series factor's arc and disk differ by 1.8e-9 (F' is not certified)
    spec = MinimizerSpec(h=h, Q=Q)
    got = log_dirichlet_energy(spec, center, r, ARC)
    assert got == _log_arc_pass(spec, center, r, None, ARC)["D"]
    want, _ = _disk_energy(spec, center, r)
    assert abs(math.expm1(got[0] - want)) <= 1e-8


def test_arc_energy_matches_recorded_disk_next_to_a_branch_point():
    # SeriesProduct, s = 0.5, max_gen 8, Q = 3, on the disk of radius
    # 0.01294 about 0.0432139, 1.8e-8 from the zero of G at 0.04321391826...
    # The reference is `_disk_energy` of this disk at rel_tol 1e-7 (log D
    # -3.487896721926, reported error 2.3e-11), computed once: it takes
    # about two minutes, where the arc takes 0.05 s.
    h = SeriesProduct(params=SeriesParams(s=0.5, max_gen=8), cs=CantorSet.build(0.5, 8))
    spec = MinimizerSpec(h=h, Q=3)
    got, err = log_dirichlet_energy(spec, 0.0432139 + 0j, 0.01294, ARC)
    assert abs(math.expm1(got - (-3.487896721926))) <= 1e-8
    assert err <= 1e-10


_BLOCK_GRID = list(itertools.product([0.25, 0.5, 0.75], [2, 3], [0.3, 0.1, 0.02]))


@pytest.mark.parametrize("alpha,Q,R", _BLOCK_GRID)
def test_chord_term_of_the_block_has_a_closed_form(alpha, Q, R):
    # on the axis Re(h'/h)(iy) = -alpha sin(alpha pi/2) |y|^(-alpha-1) and
    # |h|^(2/Q) = exp(-k |y|^-alpha), k = (2/Q) cos(alpha pi/2), so the
    # chord's share of D is (2 sin(alpha pi/2) / k) exp(-k R^-alpha); the
    # part of its negative has no positive sum
    spec = MinimizerSpec(h=SmoothBlock(alpha=alpha), Q=Q)
    k = (2.0 / Q) * math.cos(alpha * math.pi / 2.0)
    want = math.log(2.0 * math.sin(alpha * math.pi / 2.0) / k) - k * R**-alpha
    got, neg = _chord_parts(spec, 0j, R, QuadConfig(rel_tol=1e-6))
    assert abs(math.expm1(got[0] - want)) <= 1e-13
    assert isinstance(neg, ConvergenceError)


@pytest.mark.parametrize(
    "h,Q,center,r",
    [(SmoothBlock(alpha=alpha), Q, 0j, R) for alpha, Q, R in _BLOCK_GRID]
    + [
        (SmoothBlock(alpha=0.5), 2, 0.05 + 0j, 0.1),
        # the arc's share is negative here: D = chord - |arc|
        (SmoothBlock(alpha=0.5), 2, 0.1j, 0.02),
        (OscillatingPower(alpha=0.5, P=1), 2, 0j, 0.1),
        (OscillatingPower(alpha=0.5, P=2), 3, 0j, 0.1),
    ],
    ids=[f"block{alpha}-Q{Q}-R{R}" for alpha, Q, R in _BLOCK_GRID]
    + ["block_off_centre", "block_negative_arc", "oscillating_P1_Q2", "oscillating_P2_Q3"],
)
def test_chord_form_matches_disk_on_the_blocks(monkeypatch, h, Q, center, r):
    # a half-disk that crosses the axis, where h is singular only at 0:
    # the arc and the chord, with no disk integral
    spec = MinimizerSpec(h=h, Q=Q)
    want, _ = _disk_energy(spec, center, r)
    monkeypatch.setattr(_FREQ, "log_disk_integral", None)
    got, err = log_dirichlet_energy(spec, center, r, ARC)
    assert abs(math.expm1(got - want)) <= 1e-8
    assert err <= 1e-10
    # frequency takes H from the same arc pass, bit for bit
    fs = frequency(spec, center, r, ARC, log_scale=True)
    assert (fs.log_H, fs.log_D) == (log_boundary_mass(spec, center, r, ARC)[0], got)


def _assert_frequency_is_the_one_part_integrals(spec, center, r, cfg, D):
    # frequency's H and D are log_boundary_mass and log_dirichlet_energy bit
    # for bit, on the disk form too
    fs = frequency(spec, center, r, cfg, log_scale=True)
    H = log_boundary_mass(spec, center, r, cfg)
    assert (fs.log_H, fs.log_D) == (H[0], D[0])
    assert fs.quadrature_error == fs.I * math.expm1(min(D[1] + H[1], 1.0))


def test_cantor_disk_that_crosses_the_axis_keeps_the_disk():
    # the series factor has a Cantor set on the axis: D is the disk integral
    spec = MinimizerSpec(h=_FACTOR_10, Q=3)
    cfg = QuadConfig(rel_tol=0.25, order=6, max_refine=2)
    r = gap_centered_radii(0.5, 5)
    got = log_dirichlet_energy(spec, 0j, r, cfg)
    assert got == _disk_energy(spec, 0j, r, cfg)
    _assert_frequency_is_the_one_part_integrals(spec, 0j, r, cfg, got)


def test_half_plane_disk_tangent_to_the_axis_keeps_the_disk():
    # r < Re c is strict: a circle through the corner at 0 takes the disk
    spec = MinimizerSpec(h=SmoothBlock(alpha=0.5), Q=2)
    cfg = QuadConfig(rel_tol=1e-4)
    got = log_dirichlet_energy(spec, 0.2 + 0j, 0.2, cfg)
    assert got == _disk_energy(spec, 0.2 + 0j, 0.2, cfg)
    _assert_frequency_is_the_one_part_integrals(spec, 0.2 + 0j, 0.2, cfg, got)


@st.composite
def _polynomials(draw):
    """(spec, centre, r) for h = lead * prod(z - z_k), degree 1-4, with no
    zero within 0.1 r of the arc and none within 0.05 r of the centre.

    Zeros inside the disk are drawn for Q = 2 only: for Q = 3 the density
    |z - z_k|^(-4/3) there keeps the disk reference off by 1e-7 at rel_tol
    1e-7, and zeros nearer the arc cost it tens of seconds."""
    Q = draw(st.integers(2, 3))
    center = complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
    r = draw(st.floats(0.1, 1.0))
    rho = st.floats(0.05, 2.0) if Q == 2 else st.floats(1.1, 2.0)
    zeros = [
        center + r * draw(rho.filter(lambda x: abs(x - 1.0) >= 0.1))
        * np.exp(1j * draw(st.floats(-3.1, 3.1)))
        for _ in range(draw(st.integers(1, 4)))
    ]
    lead = complex(draw(st.floats(0.5, 2.0)), draw(st.floats(-1.0, 1.0)))
    coeffs = lead * np.polynomial.polynomial.polyfromroots(zeros)
    return MinimizerSpec(h=Polynomial(coeffs=tuple(complex(a) for a in coeffs)), Q=Q), center, r


@given(case=_polynomials())
@settings(max_examples=10, deadline=None)
def test_arc_energy_matches_disk_on_random_polynomials(case):
    spec, center, r = case
    got, _ = log_dirichlet_energy(spec, center, r, ARC)
    want, _ = _disk_energy(spec, center, r)
    assert abs(math.expm1(got - want)) <= 1e-8


def _check_slope(spec, center, r):
    """I'(r) of the arc pass against the central difference of I with step
    h = 1e-4 r: they agree within I''s error, the reported errors of I at
    r +- h over 2h, and |CD(h) - CD(2h)|, three times the difference's
    O(h^2) truncation."""
    fs = frequency(spec, center, r)

    def cd(h):
        lo, hi = frequency(spec, center, r - h), frequency(spec, center, r + h)
        return (hi.I - lo.I) / (2.0 * h), (lo.quadrature_error + hi.quadrature_error) / (2.0 * h)

    h = 1e-4 * r
    (d1, e1), (d2, _) = cd(h), cd(2.0 * h)
    assert abs(fs.dI_dr - d1) <= fs.dI_dr_error + e1 + abs(d2 - d1)
    return fs, d1


@pytest.mark.parametrize(
    "P,Q,center,r",
    [(3, 2, 0.1 + 0.05j, 0.3), (1, 2, -0.2 + 0.1j, 0.5), (3, 2, 0.2 + 0.25j, 0.2),
     (2, 3, -0.4 - 0.1j, 0.25)],
)
def test_slope_matches_central_difference_on_monomials(P, Q, center, r):
    # the off-centre monomials above, where I moves with r
    fs, d = _check_slope(MinimizerSpec(h=Monomial(P=P), Q=Q), center, r)
    assert abs(fs.dI_dr - d) <= 1e-6 * abs(d)


@given(case=_polynomials())
@settings(max_examples=10, deadline=None)
def test_slope_matches_central_difference_on_random_polynomials(case):
    _check_slope(*case)


def _mp_frequency(a: float, r: float) -> float:
    """I of h = a + z, Q = 2, on the disk of radius r < a about 0: D from
    the mean of 1/|a + rho e^(i theta)| over theta, 4 K(m) / (a + rho) with
    m = 4 a rho / (a + rho)^2, and H = the integral of 2|h| over the arc."""
    a, r = mpmath.mpf(a), mpmath.mpf(r)
    D = mpmath.quad(lambda p: 4 * p * mpmath.ellipk(4 * a * p / (a + p) ** 2) / (a + p), [0, r])
    H = mpmath.quad(lambda t: 2 * abs(a + r * mpmath.expj(t)), [-mpmath.pi, 0, mpmath.pi])
    return D / H


@pytest.mark.parametrize("rung", [6, 7])
def test_ladder_frequency_matches_mpmath(rung):
    r = float(np.geomspace(0.05, 0.25, 8)[rung])
    fs = frequency(MinimizerSpec(h=Polynomial(coeffs=(0.3, 1.0)), Q=2), 0j, r)
    with mpmath.workdps(25):
        want = float(_mp_frequency(0.3, r))
    assert abs(fs.I - want) <= fs.quadrature_error
    assert abs(fs.I - want) <= 1e-8 * want


def test_cancelling_arc_covers_the_rounding_floor():
    # h = z about 1 at r = 0.01: |h| phi = r (cos theta + r) / |z| nearly
    # cancels over the arc, P + N ~ 127 (P - N)
    spec = MinimizerSpec(h=Monomial(P=1), Q=2)
    got, err = log_dirichlet_energy(spec, 1 + 0j, 0.01, ARC)
    want, _ = _disk_energy(spec, 1 + 0j, 0.01, QuadConfig(rel_tol=1e-10))
    assert abs(math.expm1(got - want)) <= 1e-12
    th = np.linspace(-math.pi, math.pi, 200001)[:-1]
    la, neg = _log_flux(spec.h.log_h_hprime(1 + 0.01 * np.exp(1j * th)), math.log(0.01), th, 1.0)
    f = np.where(neg, -1.0, 1.0) * np.exp(la)
    ratio = np.sum(np.abs(f)) / np.sum(f)
    assert ratio > 50.0
    assert err >= 0.999 * 2.0**-52 * ratio


def test_constant_h_has_zero_energy_without_warnings():
    spec = MinimizerSpec(h=Polynomial(coeffs=(2.0 + 1.0j,)), Q=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert log_dirichlet_energy(spec, 0.2j, 0.5) == (-math.inf, 0.0)
        assert dirichlet_energy(spec, 0.2j, 0.5) == (0.0, 0.0)


def test_signed_level_without_positive_part_raises():
    with pytest.raises(ConvergenceError):
        log_line_integral(
            lambda th: (np.zeros(th.shape), th > -1.0), np.array([-1.0, 1.0]), ARC, signed=True
        )
    with pytest.raises(ConvergenceError):
        log_difference(0.5, 0.5)
    assert log_difference(-math.inf, -math.inf) == (-math.inf, 1.0)
    assert log_difference(math.log(3.0), 0.0) == pytest.approx((math.log(2.0), 2.0), rel=1e-15)
