"""Full circles by the nested periodic trapezoid rule against 30-digit mpmath
quadrature.

On a full circle H, D and C are integrals of periodic functions analytic in
a strip about the circle, and `frequency` takes them from nested equispaced
rings (`_quad.log_line_integral` given the first ring's node count).  Their
reported errors are estimates, the last doubling's step or the rounding
floor of the sum; here they must bound the deviation from an mpmath
quadrature at 30 digits: on polynomials with every integrand evaluated in
mpmath, and at a branch point of the branched product, whose integrand is
the package's own (double precision, so the reference checks the quadrature
alone).
"""

import cmath
import functools
import importlib
import math
from dataclasses import dataclass

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath.calculus.quadrature import GaussLegendre
from numpy.polynomial import polynomial as npoly

from branchpoint_lab import (
    CantorSet,
    MinimizerSpec,
    Polynomial,
    SeriesParams,
    SeriesProduct,
    frequency,
)
from branchpoint_lab.frequency import BaseFunction, log_boundary_mass, log_dirichlet_energy

_FREQ = importlib.import_module("branchpoint_lab.frequency")
DPS = 30


def _mp_circle(h_ratio, Q, center, r, zeros):
    """(H, D) on the circle of radius r about center by mpmath's tanh-sinh
    rule at 30 digits: H = Q * integral of |h|^(2/Q), D = integral of
    |h|^(2/Q) r Re(h'/h e^(i theta)), split at the angles of the zeros
    within r/2 of the circle; h_ratio(z) gives h and h'/h in mpmath."""
    with mpmath.workdps(DPS):
        c, rr, p = mpmath.mpc(center), mpmath.mpf(r), mpmath.mpf(2) / Q

        @functools.lru_cache(maxsize=None)
        def parts(th):
            e = mpmath.expj(th)
            h, ratio = h_ratio(c + rr * e)
            w = abs(h) ** p
            return w, w * rr * mpmath.re(ratio * e)

        near = [z0 for z0 in zeros if abs(abs(z0 - center) - r) < 0.5 * r]
        cuts = sorted(math.atan2((z0 - center).imag, (z0 - center).real) % (2.0 * math.pi)
                      for z0 in near)
        pts = [mpmath.mpf(0)] + [mpmath.mpf(t) for t in cuts] + [2 * mpmath.pi]
        H = Q * mpmath.quad(lambda t: parts(t)[0], pts)
        D = mpmath.quad(lambda t: parts(t)[1], pts)
        return H, D


def _mp_polynomial(coeffs, Q, center, r):
    """`_mp_circle` of h = polynomial(coeffs), the expanded coefficients
    taken exactly."""
    with mpmath.workdps(DPS):
        cs = [mpmath.mpc(complex(x)) for x in coeffs][::-1]
        ds = [mpmath.mpc(complex(x)) for x in npoly.polyder(coeffs)][::-1]
    h = lambda z: mpmath.polyval(cs, z)  # noqa: E731
    return _mp_circle(lambda z: (h(z), mpmath.polyval(ds, z) / h(z)), Q, center, r,
                      npoly.polyroots(coeffs))


@dataclass(frozen=True)
class _Roots(BaseFunction):
    """h = lead (z - z_1) ... (z - z_d), evaluated as that product, and h'/h
    as the sum of 1/(z - z_k), so its rounding stays within a few ulps next
    to a zero.  `Polynomial` evaluates the expanded coefficients by Horner,
    whose rounding there is an error of h, not of the quadrature: on a
    circle of radius 0.078 about 0.5+0.5i, with a zero 1e-3 r inside it, the
    monomial terms are about 1e6 times |h| next to the zero, and it moved
    log D by 2.6e-15, most of the ring's rounding floor there (3.6e-15)."""

    zeros: tuple[complex, ...]
    lead: complex = 1.0

    def log_h(self, zs, deriv=False):
        d = np.asarray(zs, dtype=complex)[None, :] - np.array(self.zeros)[:, None]
        la = math.log(abs(self.lead)) + np.log(np.abs(d)).sum(axis=0)
        ar = math.atan2(self.lead.imag, self.lead.real) + np.angle(d).sum(axis=0)
        if not deriv:
            return la, ar
        ratio = (1.0 / d).sum(axis=0)
        return la, ar, la + np.log(np.abs(ratio)), ar + np.angle(ratio)

    def zeros_in_disk(self, center, r):
        return [z0 for z0 in self.zeros if abs(z0 - center) < r]


def _mp_roots(h: _Roots, Q, center, r):
    """`_mp_circle` of the product form of `_Roots`."""
    with mpmath.workdps(DPS):
        zs, lead = [mpmath.mpc(z0) for z0 in h.zeros], mpmath.mpc(h.lead)
    return _mp_circle(lambda z: (lead * mpmath.fprod(z - z0 for z0 in zs),
                                 mpmath.fsum(1 / (z - z0) for z0 in zs)),
                      Q, center, r, h.zeros)


def _assert_errors_bound(spec, center, r, H, D):
    """log H, log D and I with their reported errors against the reference."""
    log_H, err_H = log_boundary_mass(spec, center, r)
    log_D, err_D = log_dirichlet_energy(spec, center, r)
    fs = frequency(spec, center, r)
    with mpmath.workdps(DPS):
        assert abs(log_H - mpmath.log(H)) <= err_H
        assert abs(log_D - mpmath.log(D)) <= err_D
        assert abs(fs.I - D / H) <= fs.quadrature_error


@st.composite
def _polynomials(draw):
    """A polynomial of degree 1-4 by its zeros and leading coefficient, Q,
    a centre and a radius; the zeros lie between 1e-3 r and 2 r off the
    circle, some of them within 1e-2 r."""
    Q = draw(st.sampled_from([2, 3]))
    center = complex(draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5)))
    r = draw(st.floats(0.05, 1.0))
    zeros = []
    for _ in range(draw(st.integers(1, 4))):
        off = 10.0 ** draw(st.floats(-3.0, math.log10(2.0)))
        if draw(st.booleans()):
            off = -min(off, 0.99)
        zeros.append(center + r * (1.0 + off) * cmath.exp(1j * draw(st.floats(-math.pi, math.pi))))
    lead = complex(draw(st.sampled_from([1.0, -2.0, 0.5 + 1j])))
    return _Roots(tuple(zeros), lead), Q, center, r


# a zero 1e-3 r off the circle: the first ring takes 32,768 nodes
_NEAR_ZERO = (_Roots((1.001 * cmath.exp(0.7j), -0.4 + 0j)), 3, 0j, 1.0)


@given(_polynomials())
@example(_NEAR_ZERO)
@settings(max_examples=12, deadline=None)
def test_ring_errors_bound_the_deviation_on_polynomials(case):
    h, Q, center, r = case
    spec = MinimizerSpec(h=h, Q=Q)
    assert _FREQ._first_ring(spec, center, r) is not None
    _assert_errors_bound(spec, center, r, *_mp_roots(h, Q, center, r))


def test_a_zero_next_to_the_circle_sizes_the_first_ring():
    """A zero 1e-3 r off the circle narrows the strip to a = 1e-3, so the
    first ring has 32,768 nodes, no wider apart than a/3; 16 nodes would
    miss it.  On `Polynomial`, the errors bound the deviation from mpmath
    on its expanded coefficients."""
    h, Q, center, r = _NEAR_ZERO
    coeffs = tuple(complex(x) for x in npoly.polyfromroots(h.zeros))
    spec = MinimizerSpec(h=Polynomial(coeffs=coeffs), Q=Q)
    assert _FREQ._first_ring(spec, center, r) == 32768
    _assert_errors_bound(spec, center, r, *_mp_polynomial(coeffs, Q, center, r))


# h = z - 1/4, Q = 3, r = 1/4 about 0, from the panels; H's error is the
# rounding floor 2^-52 (|log H| + log n + 4) of its 1,296-node sum, which
# the panels share with the rings (its last step was 4.4e-16)
_PANEL_H = (2.1363615648509056, 2.9539480732061754e-15)
_PANEL_D = (0.3446020956228599, 5.329070518200751e-15)
_PANEL_I = 0.16666666666666824


def test_a_zero_on_the_circle_keeps_the_panels():
    """A zero on the circle leaves no strip: the arc pass takes the Gauss
    panels, and H, D and I are the panels' answers bit for bit (recorded
    before the rings were added; H's error since raised to its floor)."""
    spec = MinimizerSpec(h=Polynomial(coeffs=(-0.25, 1.0)), Q=3)
    assert _FREQ._first_ring(spec, 0j, 0.25) is None
    assert log_boundary_mass(spec, 0j, 0.25) == _PANEL_H
    assert log_dirichlet_energy(spec, 0j, 0.25) == _PANEL_D
    assert frequency(spec, 0j, 0.25).I == _PANEL_I


# the branched product's zero nearest 0.0432139 (s = 0.5, max_gen 12)
_BRANCH = (0.0432139 + 0j, 0.01294)


@functools.lru_cache(maxsize=None)
def _branch_spec():
    h = SeriesProduct(params=SeriesParams(s=0.5, max_gen=12), cs=CantorSet.build(0.5, 12))
    return MinimizerSpec(h=h, Q=3)


def _mp_gauss(spec, center, r, panels=8):
    """(H, D) by a composite Gauss-Legendre rule with 30-digit nodes and
    weights, 48 nodes on each of `panels` equal panels of [0, 2 pi], summed
    in mpmath; the integrand is the package's (one `log_h` call, double
    precision), so only the quadrature is compared."""
    with mpmath.workdps(DPS):
        rule = GaussLegendre(mpmath.mp).calc_nodes(5, mpmath.mp.prec)
        half = mpmath.pi / panels
        xs, ws = [], []
        for k in range(panels):
            mid = (2 * k + 1) * half
            xs += [mid + half * x for x, _ in rule]
            ws += [half * w for _, w in rule]
        th = np.array([float(x) for x in xs])
        h_hp = spec.h.log_h(center + r * np.exp(1j * th), deriv=True)
        la_H = spec._log_density(h_hp[0])
        la_D, neg = _FREQ._log_flux(h_hp, math.log(r), th, 2.0 / spec.Q)
        H = mpmath.fsum(w * mpmath.exp(mpmath.mpf(v)) for w, v in zip(ws, la_H))
        D = mpmath.fsum((-1 if n else 1) * w * mpmath.exp(mpmath.mpf(v))
                        for w, v, n in zip(ws, la_D, neg))
        return H, D


@pytest.mark.parametrize("r", [_BRANCH[1], _BRANCH[1] / 4, _BRANCH[1] / 16],
                         ids=["r", "r/4", "r/16"])
def test_ring_errors_bound_the_deviation_at_the_branch_point(r):
    spec = _branch_spec()
    center = _BRANCH[0]
    assert _FREQ._first_ring(spec, center, r) == 32
    _assert_errors_bound(spec, center, r, *_mp_gauss(spec, center, r))
