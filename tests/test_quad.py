import math

import numpy as np
import pytest

from branchpoint_lab import ConvergenceError, QuadConfig, ValidationError
from branchpoint_lab._quad import (
    halve_edges,
    log_disk_integral,
    log_line_integral,
    panel_nodes,
    refined_breakpoints,
)


def test_config_validation():
    with pytest.raises(ValidationError):
        QuadConfig(rel_tol=0.0)
    with pytest.raises(ValidationError):
        QuadConfig(order=1)


@pytest.mark.parametrize("rel_tol", [math.nan, math.inf])
def test_config_rejects_non_finite_rel_tol(rel_tol):
    with pytest.raises(ValidationError):
        QuadConfig(rel_tol=rel_tol)


def test_breakpoints_contain_ends_and_targets():
    edges = refined_breakpoints(0.0, 2.0, geo_a=True, targets=[0.7])
    assert edges[0] == 0.0 and edges[-1] == 2.0
    assert np.any(edges == 0.7)
    assert np.all(np.diff(edges) > 0)
    # geometric clustering reaches min_frac of the span
    assert edges[1] <= 1e-8 * 2.0 * 1.0001


def test_breakpoints_rate_hint():
    edges = refined_breakpoints(0.0, 1.0, rate_b=1000.0)
    # a boundary layer of width 8/rate gets its own panel
    assert np.any(np.isclose(1.0 - edges, 8.0 / 1000.0))


def test_breakpoints_empty_interval():
    with pytest.raises(ValidationError):
        refined_breakpoints(1.0, 1.0)


def test_halve_edges():
    e = np.array([0.0, 1.0, 4.0])
    np.testing.assert_allclose(halve_edges(e), [0.0, 0.5, 1.0, 2.5, 4.0])


def test_panel_nodes_integrate_line():
    edges = np.array([0.0, 0.3, 1.0])
    nodes, logw = panel_nodes(edges, 12)
    # integral of x^4 over [0, 1]
    val = np.sum(np.exp(logw) * nodes**4)
    assert val == pytest.approx(0.2, rel=1e-14)


def test_log_line_integral_gaussian():
    cfg = QuadConfig(rel_tol=1e-10, order=12)
    edges = refined_breakpoints(-8.0, 8.0)
    got, err = log_line_integral(lambda x: -0.5 * x**2, edges, cfg)
    assert got == pytest.approx(0.5 * math.log(2.0 * math.pi), abs=1e-9)
    assert err <= 1e-10


def test_log_line_integral_huge_scale():
    # integrand exp(-10^4 + x): the result only lives in log space
    cfg = QuadConfig(rel_tol=1e-10)
    edges = refined_breakpoints(0.0, 1.0)
    got, _ = log_line_integral(lambda x: -1e4 + x, edges, cfg)
    assert got == pytest.approx(-1e4 + math.log(math.e - 1.0), abs=1e-9)


def test_log_line_integral_singular_endpoint():
    # integral of x^(-1/2) over (0, 1] = 2, with the singularity at 0
    cfg = QuadConfig(rel_tol=1e-6)
    edges = refined_breakpoints(0.0, 1.0, geo_a=True, min_frac=1e-12)
    got, _ = log_line_integral(lambda x: -0.5 * np.log(x), edges, cfg)
    assert got == pytest.approx(math.log(2.0), abs=1e-5)


def test_log_line_integral_node_cap():
    cfg = QuadConfig(rel_tol=1e-15, order=4, max_refine=2)
    edges = refined_breakpoints(0.0, 1.0)
    with pytest.raises(ConvergenceError):
        log_line_integral(lambda x: np.cos(40.0 * x) * 30.0, edges, cfg)


def _full_theta(rho):
    return np.array([-math.pi, 0.0, math.pi])


def test_disk_integral_constant():
    cfg = QuadConfig(rel_tol=1e-10)
    r_edges = refined_breakpoints(0.0, 0.7, geo_a=True)
    got, _ = log_disk_integral(
        lambda zs: np.zeros(zs.shape), 1 + 1j, r_edges, _full_theta, cfg
    )
    assert got == pytest.approx(math.log(math.pi * 0.49), abs=1e-9)


def test_disk_integral_radial_power():
    # integral of |z|^4 over the unit disk = 2 pi / 6
    cfg = QuadConfig(rel_tol=1e-10)
    r_edges = refined_breakpoints(0.0, 1.0, geo_a=True)
    got, _ = log_disk_integral(
        lambda zs: 4.0 * np.log(np.abs(zs)), 0j, r_edges, _full_theta, cfg
    )
    assert got == pytest.approx(math.log(math.pi / 3.0), abs=1e-9)


def test_disk_integral_early_exit_matches_full():
    # sharply decaying integrand: inner panels are negligible and skipped
    rate = 200.0

    def L(zs):
        return -rate * (1.0 - np.abs(zs))

    r_edges = refined_breakpoints(0.0, 1.0, geo_a=True, rate_b=rate)
    got, _ = log_disk_integral(L, 0j, r_edges, _full_theta, QuadConfig(rel_tol=1e-9))
    # reference: 2 pi exp(-rate) int_0^1 exp(rate r) r dr
    from scipy.integrate import quad

    ref, _ = quad(lambda r: math.exp(-rate * (1.0 - r)) * r, 0.0, 1.0, limit=200)
    assert got == pytest.approx(math.log(2.0 * math.pi * ref), abs=1e-7)
