import cmath
import importlib
import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from branchpoint_lab import (
    CantorSet,
    ConvergenceError,
    DegenerateMassError,
    MinimizerSpec,
    Monomial,
    Polynomial,
    QuadConfig,
    SmoothBlock,
    SeriesFactor,
    SeriesParams,
    SeriesProduct,
    ValidationError,
    boundary_mass,
    dirichlet_energy,
    frequency,
    frequency_curve,
    gap_centered_radii,
)
from branchpoint_lab._quad import MIN_FRAC, refined_breakpoints, refined_panels
from branchpoint_lab.frequency import (
    BaseFunction,
    OscillatingPower,
    _arc_keys,
    _log_arc_pass,
    _log_flux,
    _slope,
    log_boundary_mass,
    log_dirichlet_energy,
    polar_mesh,
)
from branchpoint_lab.logcomplex import decay_block, log_polar, oscillating_block
from branchpoint_lab.series import FAR_TOL, cosine_product_logderiv_many, decay_exponent_many
from branchpoint_lab.vanishing import ConstantTarget, log_mass


@dataclass(frozen=True)
class Scaled(BaseFunction):
    """c * h for a nonzero constant c (covariance checks)."""

    base: BaseFunction
    factor: complex

    def __post_init__(self) -> None:
        if self.factor == 0:
            raise ValidationError("scaling factor must be nonzero")
        object.__setattr__(self, "domain", self.base.domain)

    def _log_factor(self) -> tuple[float, float]:
        # math.atan2, not cmath.phase, which raises on a subnormal phase
        c = complex(self.factor)
        return math.log(abs(c)), math.atan2(c.imag, c.real)

    def log_h(self, zs, deriv=False):
        # c h and c h' both take c's log-magnitude and argument
        lc, ac = self._log_factor()
        return tuple(v + (ac if i % 2 else lc) for i, v in enumerate(self.base.log_h(zs, deriv)))

    def zeros_in_disk(self, center, r):
        return self.base.zeros_in_disk(center, r)

    def decay_rate(self, rho):
        return self.base.decay_rate(rho)


def phi_indicator(spec: MinimizerSpec, center: complex, z: complex) -> float:
    """rho * Re(h'/h * e^(i theta)): the radial log-derivative of |h| times rho."""
    zs = np.array([z], dtype=complex)
    dz = zs - complex(center)
    lr, th = log_polar(dz.real, dz.imag)
    la, neg = _log_flux(spec.h.log_h(zs, deriv=True), lr, th, 0.0)
    return -math.exp(la[0]) if neg[0] else math.exp(la[0])


_ARC_CASES = [
    (math.pi, 0.0, ()),
    (0.5 * math.pi, 37.5, ()),
    (1.2, 4.0, ((0.3, 1e-6), (-0.9, 0.02))),
]


@pytest.mark.parametrize("thm, rate, targets", _ARC_CASES)
def test_a_row_among_others_is_its_breakpoints(thm, rate, targets):
    """The case's arc as the middle row of one call, between rows with other
    clips, rates and targets, has the panels of its own one-row call."""
    rows = [_ARC_CASES[1], (thm, rate, targets), _ARC_CASES[2]]
    thms = np.array([r[0] for r in rows])
    rates = np.array([r[1] for r in rows])
    # the rows' targets, NaN-padded to the longest list
    t, w = np.full((2, len(rows), 2), np.nan)
    for i, r in enumerate(rows):
        for j, (tj, wj) in enumerate(r[2]):
            t[i, j], w[i, j] = tj, wj
    lo, hi, count = refined_panels(-thms, thms, rate_a=rates, rate_b=rates, targets=(t, w))
    at = np.cumsum(count) - count
    got = np.append(lo[at[1] : at[1] + count[1]], hi[at[1] + count[1] - 1])
    want = refined_breakpoints(-thm, thm, rate_a=rate, rate_b=rate, targets=targets)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _arc_key(center, rho, domain, rate, zero_polar=()):
    """(clip angle, rate, zero targets) of one arc, node by node: the rule
    `_arc_keys` forms for an array of radii."""
    thm = math.pi
    x = complex(center).real
    if domain == "half_plane" and rho > x:
        thm = math.acos(max(-1.0, -x / rho))
    targets = []
    for rz, az in zero_polar:
        w0 = max(MIN_FRAC * 2.0 * thm, 0.3 * abs(rho - rz) / max(rho, 1e-300))
        if -thm < az < thm:
            targets.append((az, w0))
        elif thm == math.pi and abs(az) == math.pi:
            targets += [(-math.pi, w0), (math.pi, w0)]
    return thm, rate(rho) if thm < math.pi else 0.0, tuple(targets)


def _one_key(center, rho, domain, rate, zero_polar=()):
    thm, rates, targets = _arc_keys(center, np.array([rho]), domain, rate, zero_polar)
    t, w = (v[0] for v in targets) if targets is not None else ((), ())
    return float(thm[0]), float(rates[0]), tuple((a, b) for a, b in zip(t, w) if a == a)


def test_arc_key_drops_the_rate_of_an_unclipped_arc():
    # the full circle of a plane disk, or a half-plane arc that stays inside
    assert _one_key(0j, 0.3, "plane", lambda rho: 50.0) == (math.pi, 0.0, ())
    assert _one_key(1.0 + 0j, 0.3, "half_plane", lambda rho: 50.0) == (math.pi, 0.0, ())
    thm = math.acos(-0.1 / 0.3)
    assert _one_key(0.1 + 0j, 0.3, "half_plane", lambda rho: 50.0) == (thm, 50.0, ())


@pytest.mark.parametrize("az", [math.pi, -math.pi])
def test_arc_key_puts_a_seam_zero_at_both_ends(az):
    thm, _, targets = _one_key(0j, 0.3, "plane", lambda rho: 0.0, [(0.2, az)])
    (lo, w0), (hi, w1) = targets
    assert (lo, hi) == (-math.pi, math.pi)
    assert w0 == w1 == pytest.approx(0.1)
    edges = refined_breakpoints(-thm, thm, targets=targets)
    assert -math.pi + w0 in edges and math.pi - w0 in edges


def _assert_arcs_are_per_node_breakpoints(center, domain, rate, zero_polar, rho):
    _, arcs, _ = polar_mesh(center, 1.0, domain, rate, zero_polar=zero_polar)
    lo, hi, count = arcs(rho)
    assert lo.size == hi.size == count.sum()
    at = 0
    for x, n in zip(rho.tolist(), count.tolist()):
        thm, rt, targets = _arc_key(center, x, domain, rate, zero_polar)
        want = refined_breakpoints(-thm, thm, rate_a=rt, rate_b=rt, targets=targets)
        got = np.append(lo[at : at + n], hi[at + n - 1])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        at += n


def test_polar_mesh_arcs_are_the_per_node_breakpoints():
    """Every radius of one call gets the mesh of its own arc: the same
    full circle at each plane radius, and a clipped half-plane arc that
    changes with the radius (a repeated radius repeats its mesh)."""
    _assert_arcs_are_per_node_breakpoints(
        0j, "plane", lambda rho: 50.0, (), np.array([0.1, 0.4])
    )
    _assert_arcs_are_per_node_breakpoints(
        0.1 + 0j, "half_plane", lambda rho: 50.0 * rho, (), np.array([0.05, 0.3, 0.3, 0.45])
    )


def test_zero_next_to_a_merged_edge_is_a_panel_edge():
    """`refined_panels` merges an edge within 1e-15 of the span into the one
    below: the zero at 0.001 gives way to its neighbour's cluster edge
    5e-16 below it, which stands for it."""
    x2 = (0.001 - 5e-16) / (1.0 - 1e-7)
    r_edges, _, inner = polar_mesh(0j, 1.0, "plane", lambda rho: 0.0,
                                   zero_polar=[(0.001, 0.0), (x2, 1.0)])
    assert inner == [0.001, x2]
    assert 0.001 not in r_edges
    assert np.min(np.abs(r_edges - 0.001)) <= 1e-15


@st.composite
def _zero_radii(draw):
    """(r_inner, r, zero radii) of an annulus: radii anywhere in it, some in
    runs closer together than 1e-15 r, and some past its ends."""
    r = draw(st.floats(1e-3, 2.0))
    r_inner = draw(st.sampled_from([0.0, 0.1, 0.9])) * r
    radii = []
    for _ in range(draw(st.integers(1, 6))):
        x = draw(st.floats(r_inner, r))
        if radii and draw(st.booleans()):
            x = radii[-1] + draw(st.sampled_from([1e-16, 4e-16, 9e-16, -6e-16, 2e-15])) * r
        radii.append(x)
    return r_inner, r, radii


@given(_zero_radii(), st.sampled_from([0.0, 50.0, 1e4]))
@example((0.0, 1.0, [0.001, (0.001 - 5e-16) / (1.0 - 1e-7)]), 0.0)
@example((0.0, 1.0, [0.3 + k * 0.4e-15 for k in range(12)]), 50.0)
@settings(max_examples=200, deadline=None)
def test_every_interior_zero_is_within_the_merge_distance_of_a_radial_edge(case, rate):
    """Each radial edge merges into the last one kept, so every interior
    zero radius of `polar_mesh`, in runs closer than the merge distance
    too, lies within 1e-15 (r - r_inner) of a radial edge."""
    r_inner, r, radii = case
    r_edges, _, inner = polar_mesh(0j, r, "plane", lambda rho: rate, r_inner=r_inner,
                                   zero_polar=[(x, 0.0) for x in radii])
    assert inner == [x for x in radii if r_inner < x < r]
    for x in inner:
        assert np.min(np.abs(r_edges - x)) <= 1e-15 * (r - r_inner)


_ANGLES = st.one_of(
    st.floats(-math.pi, math.pi),
    st.sampled_from([math.pi, -math.pi, 0.0, -0.0, 1e-17, -1e-17]),
)


@st.composite
def _arc_meshes(draw):
    """A center, domain, rate and zeros, and radii on both sides of the clip;
    some zeros sit within a few ulps or 1e-15 of the span of an edge that
    the rate or another zero puts there."""
    domain = draw(st.sampled_from(["plane", "half_plane"]))
    x = draw(st.sampled_from([0.0, 0.1, 0.35])) if domain == "half_plane" else 0.0
    center = complex(x, draw(st.sampled_from([0.0, 0.2])))
    scale = draw(st.sampled_from([0.0, 1.0, 40.0, 3e4]))
    rate = (lambda rho: scale) if draw(st.booleans()) else (lambda rho: scale / rho)
    rho = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=24)))
    zeros = []
    for _ in range(draw(st.integers(0, 3))):
        rz = draw(st.floats(1e-3, 1.0))
        az = draw(_ANGLES)
        if draw(st.booleans()) and zeros:
            # near-duplicate of another zero
            az = zeros[-1][1] * (1.0 + draw(st.sampled_from([2.2e-16, 1e-15, -4.4e-16])))
        elif draw(st.booleans()) and scale > 0.0:
            # near the first rate edge of a clipped arc at rho[0]
            thm = math.acos(max(-1.0, -x / rho[0])) if rho[0] > x else math.pi
            az = -thm + 8.0 / rate(rho[0]) * (1.0 + draw(st.sampled_from([0.0, 1e-15, -1e-15])))
        zeros.append((rz, az))
    return center, domain, rate, zeros, rho


@given(_arc_meshes())
@example((0j, "plane", lambda rho: 0.0, [(0.5, math.pi), (0.2, -0.0)], np.array([0.3, 0.5])))
@example((0.1 + 0j, "half_plane", lambda rho: 50.0, [(0.3, 0.4)], np.array([0.05, 0.1, 0.3])))
@settings(max_examples=150, deadline=None)
def test_random_arcs_are_the_per_node_breakpoints(case):
    _assert_arcs_are_per_node_breakpoints(*case)


def test_monomial_closed_forms():
    # D = 2 pi P r^(2P/Q), H = 2 pi Q r^(2P/Q), I = P/Q
    for P, Q, r in [(1, 2, 0.3), (2, 3, 0.7)]:
        spec = MinimizerSpec(h=Monomial(P=P), Q=Q)
        D = dirichlet_energy(spec, 0j, r)[0]
        H = boundary_mass(spec, 0j, r)[0]
        assert D == pytest.approx(2.0 * math.pi * P * r ** (2.0 * P / Q), rel=1e-9)
        assert H == pytest.approx(2.0 * math.pi * Q * r ** (2.0 * P / Q), rel=1e-9)


def test_scaling_covariance():
    # replacing h by c*h scales D and H by |c|^(2/Q) and leaves I alone
    base = Polynomial(coeffs=(1.0, 0.4))  # zero at -2.5, outside every disk used
    spec = MinimizerSpec(h=base, Q=2)
    scaled = MinimizerSpec(h=Scaled(base=base, factor=3 - 4j), Q=2)
    r = 0.4
    factor = 5.0 ** (2.0 / 2)
    D0, H0 = dirichlet_energy(spec, 0j, r)[0], boundary_mass(spec, 0j, r)[0]
    D1, H1 = dirichlet_energy(scaled, 0j, r)[0], boundary_mass(scaled, 0j, r)[0]
    assert D1 == pytest.approx(factor * D0, rel=1e-8)
    assert H1 == pytest.approx(factor * H0, rel=1e-8)
    f0 = frequency(spec, 0j, r)
    f1 = frequency(scaled, 0j, r)
    assert f1.I == pytest.approx(f0.I, rel=1e-8)


def test_radial_log_derivative_identity():
    # d/dr log|h| along the ray equals Re(h'/h e^{i theta}); phi = r * that
    spec = MinimizerSpec(h=Polynomial(coeffs=(0.2, 0.0, 1.0)), Q=2)
    rng = np.random.default_rng(5)
    for _ in range(50):
        rho = rng.uniform(0.05, 0.8)
        th = rng.uniform(-math.pi, math.pi)
        z = rho * cmath.exp(1j * th)
        h = 0.2 + z**2
        if abs(h) < 1e-3:
            continue
        eps = 1e-7 * rho
        hp = 0.2 + ((rho + eps) * cmath.exp(1j * th)) ** 2
        hm = 0.2 + ((rho - eps) * cmath.exp(1j * th)) ** 2
        fd = (math.log(abs(hp)) - math.log(abs(hm))) / (2.0 * eps)
        got = phi_indicator(spec, 0j, z) / rho
        assert got == pytest.approx(fd, rel=1e-5, abs=1e-5)


def test_monomial_frequency_all_radii():
    spec = MinimizerSpec(h=Monomial(P=3), Q=2)
    for fs in frequency_curve(spec, 0j, [0.1, 0.4, 0.9]):
        assert fs.I == pytest.approx(1.5, rel=1e-9)


def test_interior_center_monomial():
    # away from the zero, a nonvanishing h has small frequency at small r
    spec = MinimizerSpec(h=Monomial(P=1), Q=2)
    fs = frequency(spec, 1.0 + 0j, 0.05)
    assert fs.I < 0.01


def test_degenerate_mass_raises_and_log_scale_path():
    spec = MinimizerSpec(h=SmoothBlock(alpha=0.5), Q=2)
    center, r = 0j, 1e-6
    with pytest.raises(DegenerateMassError):
        frequency(spec, center, r)
    fs = frequency(spec, center, r, log_scale=True)
    assert math.isfinite(fs.I) and fs.I > 0.0
    assert fs.log_H < math.log(1e-300)


def test_oscillating_power_needs_coprime():
    with pytest.raises(ValidationError):
        MinimizerSpec(h=OscillatingPower(alpha=0.5, P=2), Q=2)


def test_frequency_curve_requires_ascending():
    spec = MinimizerSpec(h=Monomial(P=1), Q=2)
    with pytest.raises(ValidationError):
        frequency_curve(spec, 0j, [0.5, 0.25])


@dataclass(frozen=True)
class _NoDerivative(BaseFunction):
    """h of `base` without h'."""

    base: BaseFunction

    def log_h(self, zs, deriv=False):
        if deriv:
            raise AssertionError("called for h'")
        return self.base.log_h(zs)


def test_mass_alone_computes_no_derivative():
    # H alone is the arc pass on log_h: on the Cantor rungs it forms no F'
    spec = MinimizerSpec(h=Monomial(P=2), Q=3)
    bare = MinimizerSpec(h=_NoDerivative(base=spec.h), Q=3)
    assert log_boundary_mass(bare, 0j, 0.5) == log_boundary_mass(spec, 0j, 0.5)


def test_series_mass_alone_requests_no_derivative(monkeypatch):
    """On the real SeriesFactor and SeriesProduct, H alone asks the series
    for neither F' nor G'/G; `frequency` on the same arc asks for both."""
    asked = []

    def recorded(fn):
        def call(*args, with_deriv=False, **kwargs):
            asked.append((fn.__name__, with_deriv))
            return fn(*args, with_deriv=with_deriv, **kwargs)
        return call

    for name in ("decay_exponent_many", "log_cosine_product_many"):
        monkeypatch.setattr(_FREQ, name, recorded(getattr(_FREQ, name)))
    product = _series_product()
    cfg = QuadConfig(rel_tol=0.25, order=6, max_refine=2)
    for h, names in ((SeriesFactor(params=product.params, cs=product.cs),
                      {"decay_exponent_many"}),
                     (product, {"decay_exponent_many", "log_cosine_product_many"})):
        spec = MinimizerSpec(h=h, Q=3)
        asked.clear()
        log_boundary_mass(spec, 0.5 + 0j, 0.3, cfg)
        assert set(asked) == {(name, False) for name in names}
        asked.clear()
        frequency(spec, 0.5 + 0j, 0.3, cfg, log_scale=True)
        assert {name for name, deriv in asked if deriv} == names


def test_half_plane_center_validation():
    spec = MinimizerSpec(h=SmoothBlock(alpha=0.5), Q=2)
    with pytest.raises(ValidationError):
        boundary_mass(spec, -0.5 + 0j, 0.1)


_PLANE = MinimizerSpec(h=Monomial(P=1), Q=2)
_BLOCK = MinimizerSpec(h=SmoothBlock(alpha=0.5), Q=2)
_FACTOR = MinimizerSpec(h=SeriesFactor(params=SeriesParams(s=0.5, max_gen=4),
                                       cs=CantorSet.build(0.5, 4)), Q=3)


@pytest.mark.parametrize(
    "integral, spec, center, r, r_inner",
    [
        (log_boundary_mass, _PLANE, 0j, math.nan, None),
        (log_boundary_mass, _BLOCK, complex(math.nan, 0.0), 0.1, None),
        (log_boundary_mass, _PLANE, 0j, 0.0, None),
        (log_dirichlet_energy, _PLANE, 0j, math.inf, None),
        (log_dirichlet_energy, _BLOCK, 0j, math.inf, None),
        (log_dirichlet_energy, _BLOCK, complex(0.0, math.inf), 0.1, None),
        (frequency, _PLANE, complex(math.inf, 0.0), 0.5, None),
        (log_mass, _BLOCK, 0j, math.inf, 0.0),
        (log_mass, ConstantTarget(1.0), 0j, 0.3, math.nan),
        (log_mass, ConstantTarget(1.0), complex(0.0, math.nan), 0.3, 0.0),
        # a half-plane centre with Re c < 0, on a spec whose D is a disk
        (log_dirichlet_energy, _FACTOR, -0.5 + 0j, 0.1, None),
        (log_mass, _BLOCK, -0.5 + 0j, 0.1, 0.0),
    ],
)
def test_bad_disks_raise_before_any_quadrature(monkeypatch, integral, spec, center, r, r_inner):
    """A centre that is not finite, a half-plane centre with Re c < 0, or
    radii outside 0 <= r_inner < r < inf, raise ValidationError before any
    quadrature (they used to run every refinement, raise ConvergenceError
    or IndexError, return H = 0, or raise from inside the disk integral)."""
    calls = []
    for target in ("frequency.log_line_integral", "frequency.log_disk_integral",
                   "vanishing.log_disk_integral"):
        module, name = target.split(".")
        monkeypatch.setattr(importlib.import_module(f"branchpoint_lab.{module}"), name,
                            lambda *args, **kw: calls.append(args))
    kwargs = {} if r_inner is None else {"r_inner": r_inner}
    with pytest.raises(ValidationError):
        integral(spec, center, r, **kwargs)
    assert calls == []


def _series_product(max_gen=6):
    return SeriesProduct(params=SeriesParams(s=0.5, max_gen=max_gen),
                         cs=CantorSet.build(0.5, max_gen))


def test_series_product_energy_density_is_the_two_call_form():
    """(2/Q)|h|^(2/Q)|h'/h|^2 with h'/h = G'/G - F' from the series calls."""
    h = _series_product()
    rng = np.random.default_rng(3)
    zs = rng.uniform(1e-3, 1.0, 200) + 1j * rng.uniform(-1.2, 0.2, 200)
    # a point on the set (F is not finite there) and one where h underflows
    zs = np.append(zs, [-0.75j, 1e-200 - 0.75j])
    _, Fp, _ = decay_exponent_many(h.params, h.cs, zs, with_deriv=True, far_tol=FAR_TOL)
    ratio = cosine_product_logderiv_many(h.params, h.cs, zs) - Fp
    la_h, _ = h.log_h(zs)
    for Q in (2, 3):
        with np.errstate(divide="ignore", invalid="ignore"):
            two = math.log(2.0 / Q) + (2.0 / Q) * la_h + 2.0 * np.log(np.abs(ratio))
        two = np.where(np.isfinite(two), two, -np.inf)
        one = MinimizerSpec(h=h, Q=Q).log_energy_density(zs)
        finite = np.isfinite(two)
        assert np.array_equal(np.isfinite(one), finite)
        assert np.all(one[~finite] == -np.inf)
        assert not finite.all()
        np.testing.assert_allclose(one[finite], two[finite], rtol=1e-12, atol=1e-12)


def test_series_base_functions_on_the_set_raise_no_warnings():
    """On the set F, F' and G are infinite or NaN by design, and 1e-200 off
    it F' overflows; neither raises a RuntimeWarning."""
    h = _series_product()
    zs = np.array([-0.75j, 1e-200 - 0.75j])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for base in (SeriesFactor(params=h.params, cs=h.cs), h):
            la = base.log_h(zs, deriv=True)[0]
            assert la[0] == -np.inf and la[1] < -1e100


def test_series_product_frequency_is_finite():
    spec = MinimizerSpec(h=_series_product(), Q=3)
    cfg = QuadConfig(rel_tol=0.25, order=6, max_refine=2)
    fs = frequency(spec, 0.5 + 0j, 0.3, cfg, log_scale=True)
    assert math.isfinite(fs.I) and fs.I > 0.0
    assert math.isfinite(fs.quadrature_error)


def test_subnormal_phase_does_not_overflow():
    # cmath.phase raises OverflowError when the phase underflows, as at 2+5e-324j
    zs = np.array([0.5 + 0.5j, 1.0 - 0.2j])
    base = Monomial(P=1)
    scaled = Scaled(base=base, factor=2 + 5e-324j)
    for got, want in ((scaled.log_h(zs), base.log_h(zs)),
                      (scaled.log_h(zs, True)[2:], base.log_h(zs, True)[2:])):
        assert np.allclose(got[0], want[0] + math.log(2.0), rtol=1e-15)
        assert np.allclose(got[1], want[1], rtol=1e-15)
    spec = MinimizerSpec(h=base, Q=2)
    # z - center = 2+5e-324j: phi_indicator's angle, and the zero's angle
    # in the disk geometry
    assert phi_indicator(spec, -5e-324j, 2 + 0j) == pytest.approx(1.0, rel=1e-15)
    tilted = frequency(spec, -2 - 5e-324j, 3.0)
    assert tilted.I == pytest.approx(frequency(spec, -2 + 0j, 3.0).I, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
def test_block_classes_match_one_point_blocks(alpha):
    """SmoothBlock and OscillatingPower (P = 1) are the array forms of
    decay_block and oscillating_block."""
    rng = np.random.default_rng(3)
    zs = rng.uniform(0.05, 2.0, 40) + 1j * rng.uniform(-2.0, 2.0, 40)
    for h, block in ((SmoothBlock(alpha), decay_block),
                     (OscillatingPower(alpha), oscillating_block)):
        la, ar = h.log_h(zs)
        for z, got_la, got_ar in zip(zs, la, ar):
            want = block(complex(z), alpha)
            assert got_la == pytest.approx(want.log_mag, rel=1e-14, abs=1e-14)
            assert got_ar == pytest.approx(want.arg, rel=1e-14, abs=1e-14)


def _base_functions():
    params = SeriesParams(s=0.5, max_gen=6)
    cs = CantorSet.build(0.5, 6)
    return [
        Monomial(P=3),
        Polynomial(coeffs=(0.3, -1.0, 0.0, 2.0)),
        SmoothBlock(0.5),
        OscillatingPower(0.5, P=3),
        SeriesFactor(params=params, cs=cs),
        SeriesProduct(params=params, cs=cs),
        Scaled(base=SmoothBlock(0.7), factor=2 - 1j),
    ]


@pytest.mark.parametrize("h", _base_functions(), ids=lambda h: type(h).__name__)
def test_log_h_hprime_contract(h):
    """log_h with `deriv` repeats its first two arrays without it bit for
    bit, and its h'/h is the derivative of log h (a central difference
    along the real axis)."""
    rng = np.random.default_rng(5)
    zs = rng.uniform(0.2, 1.0, 20) + 1j * rng.uniform(-1.0, 0.6, 20)
    la, ar, lp, ap = h.log_h(zs, deriv=True)
    l0, a0 = h.log_h(zs)
    assert np.array_equal(la, l0) and np.array_equal(ar, a0)
    ratio = np.exp(lp - la + 1j * (ap - ar))
    d = 1e-5
    (l_hi, a_hi), (l_lo, a_lo) = h.log_h(zs + d), h.log_h(zs - d)
    # fold the argument step into [-pi, pi): principal arguments may wrap
    d_arg = np.remainder(a_hi - a_lo + np.pi, 2.0 * np.pi) - np.pi
    np.testing.assert_allclose((l_hi - l_lo + 1j * d_arg) / (2.0 * d), ratio, rtol=1e-6)


def test_blocks_log_h_at_tiny_z():
    # log|h| = -Re z^-alpha = -1e100 at z = 1e-200, alpha = 1/2; the squared
    # modulus of z underflows there
    for h in (SmoothBlock(0.5), OscillatingPower(0.5)):
        la, _ = h.log_h(np.array([1e-200 + 0j]))
        assert la[0] == pytest.approx(-1e100, rel=1e-12)


_FREQ = importlib.import_module("branchpoint_lab.frequency")
_ARC_PASS_CASES = [
    (Monomial(P=3), 2, 0j, 0.4, None),
    (Monomial(P=2), 3, 0.2 + 0.25j, 0.2, None),
    (Polynomial(coeffs=(0.0, 0.0, -0.5, 1.0)), 3, 0.1 + 0j, 0.1265, None),
    (Polynomial(coeffs=(0.3, 1.0)), 2, 0j, 0.25, QuadConfig(rel_tol=1e-10, max_refine=6)),
    (SmoothBlock(alpha=0.5), 3, 0.3 + 0.1j, 0.25, None),
    (_series_product(), 3, 0.5 + 0j, 0.3, QuadConfig(rel_tol=0.25, order=6, max_refine=2)),
    # a clipped arc (the chord form of D): panels
    (SmoothBlock(alpha=0.5), 2, 0.05 + 0j, 0.1, None),
]


def _counted(monkeypatch, name: str, calls: list) -> None:
    """Record (name, the node count of each integrand call) of every call of
    the quadrature entry `name` that `frequency` makes."""
    entry = getattr(_FREQ, name)

    def counted(L, *args, **kwargs):
        sizes = []
        calls.append((name, sizes))
        return entry(lambda th: sizes.append(th.size) or L(th), *args, **kwargs)

    monkeypatch.setattr(_FREQ, name, counted)


@pytest.mark.parametrize("h, Q, center, r, cfg", _ARC_PASS_CASES)
def test_arc_pass_parts_are_the_one_part_integrals(monkeypatch, h, Q, center, r, cfg):
    """`frequency` takes H and D's arc part from one arc pass, whose
    integrand calls log_h (with h') once per level: on a full circle one
    line integral on nested rings, each level on the new nodes only; on a
    clipped arc one panel mesh and one line integral.  Its H and D are
    `log_boundary_mass` and `log_dirichlet_energy` bit for bit, under their
    own defaults or one given config."""
    spec = MinimizerSpec(h=h, Q=Q)
    H = log_boundary_mass(spec, center, r, cfg)
    D = log_dirichlet_energy(spec, center, r, cfg)
    form = _FREQ._d_form(spec, center, r)
    [parts] = _log_arc_pass(spec, center, [r], cfg or _FREQ._H_CONFIG, cfg or _FREQ._D_CONFIG,
                            form)
    assert parts["H"] == H
    n0 = _FREQ._first_ring(spec, center, r)
    assert (n0 is None) == (form != "arc")
    if n0 is not None:
        assert parts["D"] == D
    calls, meshes = [], []
    arc_mesh = _FREQ._arc_mesh
    monkeypatch.setattr(_FREQ, "_arc_mesh", lambda *a: meshes.append(a) or arc_mesh(*a))
    _counted(monkeypatch, "log_line_integral", calls)
    fs = frequency(spec, center, r, cfg, log_scale=True)
    assert (fs.log_H, fs.log_D) == (H[0], D[0])
    assert fs.I == math.exp(D[0] - H[0])
    (name, sizes), *chord = calls
    if n0 is None:
        # the arc's line integral, then the chord's; sizes double per level
        assert name == "log_line_integral" and len(meshes) == 1 and len(chord) == 1
        assert all(b == 2 * a for a, b in zip(sizes, sizes[1:]))
        assert math.isnan(fs.dI_dr)
        return
    # the first ring, then the new half of each doubling
    assert name == "log_line_integral" and meshes == [] and chord == []
    assert sizes == [n0] + [n0 << k for k in range(len(sizes) - 1)]
    assert math.isfinite(fs.dI_dr) and fs.dI_dr_error >= 0.0


_MASS_CHECK_CASES = [
    # H vanishes or underflows: DegenerateMassError before D's error
    ([(-math.inf, 0.0), ConvergenceError("D"), (0.0, 0.0)], True, DegenerateMassError),
    ([(-800.0, 0.0), ConvergenceError("D"), (0.0, 0.0)], False, DegenerateMassError),
    ([(-800.0, 0.0), ConvergenceError("D"), (0.0, 0.0)], True, "D"),
    ([ConvergenceError("H"), ConvergenceError("D"), (0.0, 0.0)], True, "H"),
]


def _assert_mass_checks_first(monkeypatch, entry, spec, r, parts, log_scale, raised):
    monkeypatch.setattr(_FREQ, entry, lambda *args, **kwargs: parts)
    if isinstance(raised, str):
        with pytest.raises(ConvergenceError, match=raised):
            frequency(spec, 0j, r, log_scale=log_scale)
    else:
        with pytest.raises(raised):
            frequency(spec, 0j, r, log_scale=log_scale)


@pytest.mark.parametrize("parts, log_scale, raised", _MASS_CHECK_CASES)
def test_mass_checks_come_before_the_energy_s_convergence_error(monkeypatch, parts, log_scale,
                                                                raised):
    """From one arc pass, H's errors and checks are raised first, in the
    order of the separate integrals: H's ConvergenceError, then the vanishing
    or underflowing H, and only then D's ConvergenceError.  On the full
    circle the pass is one line integral of H, D and C on rings."""
    _assert_mass_checks_first(monkeypatch, "log_line_integral",
                              MinimizerSpec(h=Monomial(P=1), Q=2), 0.5, parts, log_scale, raised)


@pytest.mark.parametrize("parts, log_scale, raised", _MASS_CHECK_CASES)
def test_mass_checks_come_first_on_a_clipped_arc(monkeypatch, parts, log_scale, raised):
    """The same order on a clipped arc, whose pass is one line integral of
    H, D and -D; here -D fails with D (and the chord's line integral gets
    the same parts)."""
    _assert_mass_checks_first(monkeypatch, "log_line_integral",
                              MinimizerSpec(h=SmoothBlock(alpha=0.5), Q=2), 0.1,
                              parts[:2] + parts[1:2], log_scale, raised)


@pytest.mark.parametrize("P, Q", [(1, 2), (3, 2), (2, 3), (1, 3), (5, 3)])
@pytest.mark.parametrize("r", [0.05, 0.5, 2.0])
def test_slope_vanishes_on_monomials_about_their_zero(P, Q, r):
    # I = P/Q at every radius, so I' = 0 within its reported error
    fs = frequency(MinimizerSpec(h=Monomial(P=P), Q=Q), 0j, r)
    assert abs(fs.dI_dr) <= fs.dI_dr_error
    assert fs.dI_dr_error <= 1e-12 / r


def test_slope_of_a_ratio_past_the_largest_double_is_inf():
    # C/(Q H) = e^800 overflows a double: I' and its error are inf, not an
    # OverflowError
    assert _slope(2, 0.1, 0.5, 0.0, 1e-9, -0.7, 1e-9, 800.0, 1e-9) == (math.inf, math.inf)


def test_disk_form_samples_have_no_slope():
    # a half-plane disk over a Cantor set that reaches the axis takes D from
    # the disk; one over a block takes it from the arc and the chord, whose
    # slope would need the clip term of the moving arc: neither has I'
    factor = SeriesFactor(params=SeriesParams(s=0.5, max_gen=10), cs=CantorSet.build(0.5, 10))
    coarse = QuadConfig(rel_tol=0.25, order=6, max_refine=2)
    for spec, center, r, cfg in [
        (MinimizerSpec(h=factor, Q=3), 0j, gap_centered_radii(0.5, 5), coarse),
        (MinimizerSpec(h=SmoothBlock(alpha=0.5), Q=2), 0.05 + 0j, 0.1, None),
    ]:
        fs = frequency(spec, center, r, cfg, log_scale=True)
        assert math.isnan(fs.dI_dr) and math.isnan(fs.dI_dr_error)


# the E1 ladder's config (perfbench cantor_ladder)
_LADDER_CFG = QuadConfig(rel_tol=0.25, order=10, max_refine=2)


def _disk_D(monkeypatch, spec, r):
    """log D on the half-disk about 0, with its log-error, from the disk
    form on the E1 ladder's config, and the integrand nodes it took."""
    calls = []
    with monkeypatch.context() as m:
        _counted(m, "log_disk_integral", calls)
        got = log_dirichlet_energy(spec, 0j, r, _LADDER_CFG)
    assert [name for name, _ in calls] == ["log_disk_integral"]
    return got, sum(calls[0][1])


def test_frozen_rings_of_a_series_half_disk(monkeypatch):
    # exp(-F) vanishes to infinite order at 0, so the inner rings of the
    # R_3 disk are frozen from level 1 on: the freeze off takes more nodes
    # for a log D within the reported error
    spec = MinimizerSpec(h=SeriesFactor(params=SeriesParams(s=0.5, max_gen=8),
                                        cs=CantorSet.build(0.5, 8)), Q=3)
    r = gap_centered_radii(0.5, 3)
    (got, err), nodes = _disk_D(monkeypatch, spec, r)
    monkeypatch.setattr(importlib.import_module("branchpoint_lab._quad"), "FREEZE", 0.0)
    (full, _), full_nodes = _disk_D(monkeypatch, spec, r)
    assert abs(got - full) <= err
    assert nodes < full_nodes


def test_ladder_energy_disk_keeps_to_its_node_budget(monkeypatch):
    # the E1 R_2 energy disk: 72,280 integrand nodes when every level
    # evaluated every ring down to the early exit, 46,720 with the freeze
    spec = MinimizerSpec(h=SeriesFactor(params=SeriesParams(s=0.5, max_gen=20),
                                        cs=CantorSet.build(0.5, 20)), Q=3)
    _, nodes = _disk_D(monkeypatch, spec, gap_centered_radii(0.5, 2))
    assert nodes <= 100_000
