import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp

from branchpoint_lab import ConvergenceError, QuadConfig, ValidationError, _quad
from branchpoint_lab._quad import (
    DROP,
    MAX_NODES,
    MIN_FRAC,
    Ring,
    _disk_level,
    _gl,
    _lse,
    _refine,
    halve_edges,
    log_disk_integral,
    log_line_integral,
    panel_nodes,
    refined_breakpoints,
    refined_panels,
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


@pytest.mark.parametrize("n", [2, 4, 10, 12, 16])
def test_gauss_legendre_rule_matches_mpmath(n):
    """Nodes and weights to 2e-14 relative against Newton-polished roots of
    P_n at 50 digits."""
    x, w = _gl(n)
    with mpmath.workdps(50):
        for xi, wi in zip(x, w):
            r = mpmath.mpf(xi)
            for _ in range(5):
                p = mpmath.legendre(n, r)
                dp = n * (r * p - mpmath.legendre(n - 1, r)) / (r * r - 1)
                r -= p / dp
            weight = 2 / ((1 - r * r) * dp * dp)
            assert abs((xi - r) / r) <= 2e-14
            assert abs((wi - weight) / weight) <= 2e-14


def test_breakpoints_contain_ends_and_targets():
    edges = refined_breakpoints(0.0, 2.0, geo_a=True, targets=[0.7])
    assert edges[0] == 0.0 and edges[-1] == 2.0
    assert np.any(edges == 0.7)
    assert np.all(np.diff(edges) > 0)
    # geometric clustering reaches MIN_FRAC of the span
    assert edges[1] <= 1e-8 * 2.0 * 1.0001


def test_breakpoints_rate_hint():
    edges = refined_breakpoints(0.0, 1.0, rate_b=1000.0)
    # a boundary layer of width 8/rate gets its own panel
    assert np.any(np.isclose(1.0 - edges, 8.0 / 1000.0))


def test_breakpoints_empty_interval():
    with pytest.raises(ValidationError):
        refined_breakpoints(1.0, 1.0)


def _set_breakpoints(a, b, *, geo_a=False, rate_a=0.0, rate_b=0.0, targets=()):
    """The breakpoint rule one edge at a time, in a set: the form it had
    before `refined_panels` formed it for many intervals at once, with each
    edge merged into the last one kept."""

    def doublings(w):
        while w < 0.5 * span:
            yield w
            w *= 2.0

    span = b - a
    edges = {a, b, 0.5 * (a + b)}
    for w in doublings(MIN_FRAC * span) if geo_a else ():
        edges.add(a + w)
    for w in doublings(8.0 / rate_a) if rate_a > 0.0 else ():
        edges.add(a + w)
    for w in doublings(8.0 / rate_b) if rate_b > 0.0 else ():
        edges.add(b - w)
    for tgt in targets:
        t, w0 = tgt if isinstance(tgt, tuple) else (tgt, MIN_FRAC * span)
        if not (a <= t <= b):
            continue
        edges.add(t)
        for w in doublings(max(w0, 1e-15 * span)):
            if t - w > a:
                edges.add(t - w)
            if t + w < b:
                edges.add(t + w)
    kept = []
    for x in sorted(edges):
        if not kept or x - kept[-1] > 1e-15 * span:
            kept.append(x)
    return np.array(kept)


@st.composite
def _breakpoint_cases(draw):
    a = draw(st.one_of(st.sampled_from([0.0, -0.0, -math.pi]), st.floats(-2.0, 2.0)))
    b = a + draw(st.one_of(st.sampled_from([1.0, 2.0 * math.pi]), st.floats(1e-9, 4.0)))
    rates = st.one_of(st.sampled_from([0.0, -1.0]), st.floats(1e-3, 1e7))
    targets = []
    for _ in range(draw(st.integers(0, 4))):
        t = draw(st.one_of(
            st.sampled_from([a, b, 0.0, -0.0, 0.5 * (a + b)]),
            st.floats(a - 0.1, b + 0.1),
        ))
        if targets and draw(st.booleans()):
            # within a few ulps, or 1e-15 of the span, of another target
            t = targets[-1] if isinstance(targets[-1], float) else targets[-1][0]
            t += draw(st.sampled_from([1e-15, -2e-15, 4e-16])) * (b - a)
        width = draw(st.sampled_from([None, 1e-17, 1e-6, 0.02, math.nan]))
        targets.append(t if width is None else (t, width))
    return a, b, dict(
        geo_a=draw(st.booleans()), rate_a=draw(rates), rate_b=draw(rates), targets=targets
    )


@given(_breakpoint_cases())
@example((-0.0, 1.0, dict(geo_a=True, rate_a=0.0, rate_b=0.0, targets=[0.0, (-0.0, 1e-6)])))
@example((-1.0, 1.0, dict(geo_a=False, rate_a=0.0, rate_b=0.0, targets=[-0.0])))
@example((0.0, 1.0, dict(geo_a=False, rate_a=0.0, rate_b=7285.6, targets=[])))
@settings(max_examples=300, deadline=None)
def test_breakpoints_follow_the_set_rule_bit_for_bit(case):
    """Ends, targets on the ends or outside, zero targets of either sign and
    edges within 1e-15 of the span of each other (which merge) come out as
    the one-edge-at-a-time rule gives them, to the bit."""
    a, b, kw = case
    got = refined_breakpoints(a, b, **kw)
    want = _set_breakpoints(a, b, **kw)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_a_chain_of_close_targets_keeps_each_within_the_merge_distance():
    """Edges merge into the last kept edge, not into their neighbours, so
    the last of three targets 0.9e-15 apart keeps its own edge (it was left
    1.8e-15 from every kept edge), and a longer chain keeps one edge per
    merge distance."""
    for targets in ([0.3, 0.3 + 0.9e-15, 0.3 + 1.8e-15],
                    [0.3 + k * 0.4e-15 for k in range(12)]):
        edges = refined_breakpoints(0.0, 1.0, targets=targets)
        assert all(np.min(np.abs(edges - t)) <= 1e-15 for t in targets)
        assert np.all(np.diff(edges) > 1e-15)
    assert 0.3 + 1.8e-15 in refined_breakpoints(0.0, 1.0, targets=[0.3, 0.3 + 0.9e-15,
                                                                    0.3 + 1.8e-15])


def test_breakpoint_rows_are_their_own_breakpoints():
    """Rows of one call with different ends, rates, clusters and targets
    give the panels of their one-row calls."""
    a = np.array([0.0, -1.0, -math.pi, 0.2])
    b = np.array([1.0, 1.0, math.pi, 0.3])
    rate_a = np.array([0.0, 40.0, 0.0, 3e5])
    rate_b = np.array([1e3, 0.0, 0.0, 2.0])
    # NaN: no target
    t = np.array([[np.nan, np.nan], [0.1, -0.0], [math.pi, np.nan], [np.nan, 0.25]])
    w = np.array([[1.0, 1.0], [1e-6, 1e-3], [0.05, np.nan], [np.nan, 1e-17]])
    for geo_a in (False, True):
        lo, hi, count = refined_panels(
            a, b, geo_a=geo_a, rate_a=rate_a, rate_b=rate_b, targets=(t, w)
        )
        at = np.concatenate(([0], np.cumsum(count)))
        for i in range(a.size):
            on = ~np.isnan(t[i])
            want = refined_breakpoints(
                a[i], b[i], geo_a=geo_a, rate_a=rate_a[i], rate_b=rate_b[i],
                targets=list(zip(t[i, on], w[i, on])),
            )
            assert np.array_equal(lo[at[i] : at[i + 1]], want[:-1])
            assert np.array_equal(hi[at[i] : at[i + 1]], want[1:])


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
    edges = refined_breakpoints(0.0, 1.0, targets=[(0.0, 1e-12)])
    got, _ = log_line_integral(lambda x: -0.5 * np.log(x), edges, cfg)
    assert got == pytest.approx(math.log(2.0), abs=1e-5)


def test_log_line_integral_node_cap():
    cfg = QuadConfig(rel_tol=1e-15, order=4, max_refine=2)
    edges = refined_breakpoints(0.0, 1.0)
    with pytest.raises(ConvergenceError):
        log_line_integral(lambda x: np.cos(40.0 * x) * 30.0, edges, cfg)


def test_convergence_error_carries_estimates():
    cfg = QuadConfig(rel_tol=1e-15, order=4, max_refine=2)
    edges = refined_breakpoints(0.0, 1.0)
    with pytest.raises(ConvergenceError) as info:
        log_line_integral(lambda x: np.cos(40.0 * x) * 30.0, edges, cfg)
    assert str(info.value) == "line quadrature did not converge within 2 refinements"
    est = info.value.estimates
    assert len(est) == cfg.max_refine + 1
    assert all(math.isfinite(e) for e in est)
    # each one is the estimate of its level's mesh
    for level, e in enumerate(est):
        nodes, logw = panel_nodes(edges, cfg.order)
        assert e == _lse(np.cos(40.0 * nodes) * 30.0 + logw)
        edges = halve_edges(edges)


def _signed(f):
    def L(x):
        v = f(x)
        with np.errstate(divide="ignore"):
            return np.log(np.abs(v)), v < 0
    return L


# (L, config, signed): parts that pass on levels 1 and later, a signed one
# with its rounding floor, one that never agrees within max_refine 3 and one
# whose signed sum is negative
_PARTS = [
    (lambda x: -0.5 * x**2, QuadConfig(rel_tol=1e-13, order=8), False),
    (lambda x: 0.1 * x, QuadConfig(rel_tol=1e-4, order=8), False),
    (_signed(lambda x: np.cos(x) + 0.5), QuadConfig(rel_tol=1e-9, order=8), True),
    (lambda x: np.cos(40.0 * x) * 30.0, QuadConfig(rel_tol=1e-15, order=8, max_refine=3), False),
    (_signed(lambda x: -1.0 - x * x), QuadConfig(order=8), True),
]


def _outcome(part):
    if isinstance(part, ConvergenceError):
        return str(part), part.estimates
    return part


def test_parts_of_one_mesh_are_their_one_part_integrals():
    """Each part of a several-part line integral ends on the level where it
    passed its own test, so it is its one-part integral bit for bit (or
    fails alike); L_fn is called once per level, and a part without a
    config takes the last level's estimate with the last difference."""
    edges = refined_breakpoints(-3.0, 3.0)
    calls = []

    def L(x):
        calls.append(x.size)
        return [fn(x) for fn, _, _ in _PARTS] + [np.sin(3.0 * x)]

    got = log_line_integral(L, edges, [c for _, c, _ in _PARTS] + [None],
                            signed=[s for _, _, s in _PARTS] + [False])
    for part, (fn, cfg, signed) in zip(got, _PARTS):
        try:
            want = log_line_integral(fn, edges, cfg, signed=signed)
        except ConvergenceError as exc:
            want = exc
        assert _outcome(part) == _outcome(want)
    assert isinstance(got[3], ConvergenceError) and len(got[3].estimates) == 4
    assert isinstance(got[4], ConvergenceError) and got[4].estimates == ()
    # the never-agreeing part keeps the mesh halving to level 3
    assert len(calls) == 4
    follow = []
    for _ in calls:
        nodes, logw = panel_nodes(edges, 8)
        follow.append(_lse(np.sin(3.0 * nodes) + logw))
        edges = halve_edges(edges)
    assert got[5] == (follow[3], abs(follow[3] - follow[2]))


def test_parts_fail_alike_at_the_node_cap():
    # 2,049 panels of order 8 reach MAX_NODES on level 2: the part that has
    # not passed by then raises as its one-part integral does
    edges = np.linspace(0.0, 1.0, 2050)
    parts = [(lambda x: 0.1 * x, QuadConfig(rel_tol=1e-4, order=8)),
             (lambda x: np.sqrt(np.abs(x - 1.0 / 3.0)), QuadConfig(rel_tol=1e-15, order=8))]
    got = log_line_integral(lambda x: [fn(x) for fn, _ in parts], edges,
                            [cfg for _, cfg in parts], signed=[False, False])
    assert got[0] == log_line_integral(parts[0][0], edges, parts[0][1])
    with pytest.raises(ConvergenceError) as info:
        log_line_integral(parts[1][0], edges, parts[1][1])
    assert str(got[1]) == str(info.value) and "65536 nodes" in str(got[1])


def test_ring_samples_are_nested():
    """A ring of n nodes is the even half of the 2n-node ring: each doubling
    samples only the new odd-indexed angles, smaller rings are taken from
    the held samples, and an fn that raises leaves them as they were."""
    calls = []

    def fn(th):
        calls.append(th)
        if th.size > 64:
            raise ConvergenceError("too many")
        return np.stack([np.cos(th), np.sin(th)])

    ring = Ring(fn)
    got = ring.values(16)
    assert np.array_equal(got, fn(2.0 * math.pi * np.arange(16) / 16))
    calls.clear()
    full = ring.values(64)
    assert [c.size for c in calls] == [16, 32]
    assert np.array_equal(calls[1], 2.0 * math.pi * np.arange(1, 64, 2) / 64)
    assert np.array_equal(full, fn(2.0 * math.pi * np.arange(64) / 64))
    assert np.array_equal(ring.values(16), got) and ring.values(8).shape == (2, 8)
    with pytest.raises(ConvergenceError):
        ring.values(256)
    assert np.array_equal(ring.values(64), full)


def _von_mises(kappa):
    # the integral of exp(kappa cos theta) over a period, 2 pi I_0(kappa)
    want = mpmath.log(2 * mpmath.pi * mpmath.besseli(0, kappa))
    return lambda th: kappa * np.cos(th), float(want)


def test_ring_parts_are_their_one_part_integrals():
    """Each part of a line integral on rings ends on the level where it
    passed, so it is its one-part integral bit for bit; L_fn is called once
    per level, on the new nodes only.  The answers match closed forms
    within the reported errors: exp(kappa cos theta) far past the largest
    double, and the signed integral of cos theta + 1/2, pi."""
    parts = [_von_mises(3.0), _von_mises(2000.0)]
    signed = (lambda th: (np.log(np.abs(np.cos(th) + 0.5)), np.cos(th) + 0.5 < 0),
              math.log(math.pi))
    cfg = QuadConfig(rel_tol=1e-12)
    sizes = []

    def L(th):
        sizes.append(th.size)
        return [fn(th) for fn, _ in parts] + [signed[0](th)]

    got = log_line_integral(L, 16, [cfg, cfg, cfg], signed=[False, False, True])
    assert sizes == [16] + [16 << k for k in range(len(sizes) - 1)] and len(sizes) > 2
    for part, (fn, want), s in zip(got, parts + [signed], [False, False, True]):
        assert part == log_line_integral(lambda th: [fn(th)], 16, [cfg], signed=[s])[0]
        assert abs(part[0] - want) <= part[1] <= 1e-12


def test_ring_integral_reports_its_rounding_floor():
    """A constant integrand agrees from the first refinement on, on rings
    of 16 and 32 nodes and on Gauss panels of 48 and 96 alike; its error is
    the rounding floor 2^-52 (|log v| + log n + 4) of the n-node sum, and 0
    for an exact zero."""
    for mesh, n in [(16, 32), (np.linspace(0.0, 2.0 * math.pi, 5), 96)]:
        [(log_v, err), zero] = log_line_integral(
            lambda th: [np.full(th.size, 3.0), np.full(th.size, -math.inf)], mesh,
            [QuadConfig(), QuadConfig()], signed=[False, False])
        assert log_v == pytest.approx(3.0 + math.log(2.0 * math.pi), rel=1e-15)
        assert err == 2.0**-52 * (abs(log_v) + math.log(n) + 4.0)
        assert zero == (-math.inf, 0.0)


def test_ring_integral_stops_at_the_node_cap():
    # theta is not periodic, so the rings never agree to 1e-15; the ring
    # past MAX_NODES raises instead of sampling it
    calls = []
    [part] = log_line_integral(lambda th: calls.append(th.size) or [np.log1p(th)],
                               MAX_NODES // 2, [QuadConfig(rel_tol=1e-15)], signed=[False])
    assert isinstance(part, ConvergenceError) and f"{MAX_NODES} nodes" in str(part)
    assert calls == [MAX_NODES // 2, MAX_NODES // 2]


def _same(got: float, want: float) -> bool:
    return got == want or (math.isnan(got) and math.isnan(want))


_LSE_ELEMENTS = st.one_of(
    st.floats(-50.0, 50.0),
    st.floats(-1e300, 1e300),
    st.just(-math.inf),
)


@given(v=arrays(np.float64, st.integers(1, 2000), elements=_LSE_ELEMENTS))
@example(v=np.full(5, -math.inf))
@example(v=np.array([0.0, math.inf, -3.0]))
@example(v=np.array([1.0, math.nan, 2.0]))
@example(v=np.array([2.5, -1.0, 2.5, 2.5, 0.0]))
@example(v=np.array([-7.25]))
@settings(max_examples=200, deadline=None)
def test_lse_matches_scipy(v):
    assert _same(_lse(v), float(logsumexp(v)))


def _per_node(theta_edges):
    """The arcs of an array of radii from a mesh per radius, as
    `polar_mesh` gives them."""

    def arcs(rho):
        meshes = [theta_edges(float(x)) for x in rho]
        return (np.concatenate([m[:-1] for m in meshes]),
                np.concatenate([m[1:] for m in meshes]),
                np.array([m.size - 1 for m in meshes]))

    return arcs


@_per_node
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


def _freeze_rule(last, rel_tol, inner_targets):
    """The frozen block of a level from the last level's ring log-sums, ring
    by ring: out from the innermost ring the last level reached, the rings
    whose running log-sum stays under FREEZE * rel_tol of its total, up to
    the first with an inner target below its outer edge; as (the panels it
    spans on this level, its log-sum), or (0, -inf) if it holds no ring the
    last level reached."""
    edges, sums, total = last["edges"], last["sums"], last["total"]
    if _quad.FREEZE == 0.0 or not math.isfinite(total):
        return 0, -math.inf
    cut = total + math.log(_quad.FREEZE * rel_tol)
    lowest = min(sums)
    run, k, block = -math.inf, lowest, -math.inf
    for i in range(lowest, edges.size - 1):
        run = np.logaddexp(run, sums[i])
        if not run < cut or any(t < edges[i + 1] for t in inner_targets):
            break
        k, block = i + 1, float(run)
    return (2 * k, block) if k > lowest else (0, -math.inf)


def _per_node_level(L_fn, center, r_edges, theta_edges_fn, cfg, level, inner_targets,
                    last=None):
    """A disk level assembled node by node: each radial node halves its own
    angular mesh and the ring's log-sum-exp is scipy's.

    With `last`, a dict of the last level's edges, ring log-sums by index
    and total (empty on level 0), the innermost rings keep their log-sums by
    `_freeze_rule`; it then receives this level's, and the share of the
    total that a frozen block it added carries."""
    stop, block = _freeze_rule(last, cfg.rel_tol, inner_targets) if last else (0, -math.inf)
    total = -math.inf
    quiet = 0
    sums = {}
    added = False
    for i in range(r_edges.size - 2, stop - 1, -1):
        lo, hi = r_edges[i], r_edges[i + 1]
        rho, logw_r = panel_nodes(np.array([lo, hi]), cfg.order)
        zs, logw = [], []
        for j, rj in enumerate(rho):
            th_edges = theta_edges_fn(float(rj))
            for _ in range(level):
                th_edges = halve_edges(th_edges)
            th, logw_t = panel_nodes(th_edges, cfg.order)
            zs.append(center + rj * np.exp(1j * th))
            logw.append(logw_t + logw_r[j] + math.log(rj))
        with np.errstate(invalid="ignore"):
            vals = L_fn(np.concatenate(zs)) + np.concatenate(logw)
        contrib = float(logsumexp(vals))
        sums[i] = contrib
        total = float(np.logaddexp(total, contrib))
        if contrib < total - DROP:
            quiet += 1
            if quiet >= 3 and not any(t < lo for t in inner_targets):
                break
        else:
            quiet = 0
    else:
        if stop:
            # the walk reached the frozen block: it adds it and holds it in
            # slot 0, as the last level's log-sum of all its rings
            added = True
            total = float(np.logaddexp(total, block))
            sums.update({j: -math.inf for j in range(1, stop)})
            sums[0] = block
    if last is not None:
        last.update(edges=r_edges, sums=sums, total=total,
                    share=math.exp(block - total) if added and block > -math.inf else 0.0)
    return total


def _ragged_theta(rho):
    # the panel count grows with rho, so the nodes of one radial panel own
    # different numbers of angular panels; a target clusters them unevenly
    n = 2 + int(40.0 * rho)
    return refined_breakpoints(-math.pi, math.pi, targets=[(0.3 * n / 40.0, 1e-4 * rho)])


_RING_CASES = [
    # (log-density, center, radial edges, inner targets)
    (lambda zs: -3.0 * np.abs(zs - 0.5) ** 2, 0.2 + 0.1j,
     refined_breakpoints(0.0, 0.9, geo_a=True), ()),
    # sharp decay toward the center: the early exit skips inner panels
    (lambda zs: -200.0 * (1.0 - np.abs(zs)), 0j,
     refined_breakpoints(0.0, 1.0, geo_a=True, rate_b=200.0), ()),
    # the same, with an inner target that forbids the early exit
    (lambda zs: -200.0 * (1.0 - np.abs(zs)), 0j,
     refined_breakpoints(0.0, 1.0, geo_a=True, rate_b=200.0, targets=[0.05]), (0.05,)),
]


@pytest.mark.parametrize("case", range(len(_RING_CASES)))
@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_ring_assembly_matches_per_node_loop(case, level):
    L, center, r_edges, inner = _RING_CASES[case]
    cfg = QuadConfig(order=6)
    for edges in (r_edges, halve_edges(r_edges)):
        got = _disk_level(L, center, edges, _per_node(_ragged_theta), cfg, level, inner)
        want = _per_node_level(L, center, edges, _ragged_theta, cfg, level, inner)
        assert math.isfinite(got) and got == want


@pytest.mark.parametrize("case", range(len(_RING_CASES)))
def test_log_disk_integral_matches_per_node_loop(case):
    L, center, r_edges, inner = _RING_CASES[case]
    cfg = QuadConfig(rel_tol=1e-9, order=6, max_refine=4)
    last = {}
    [(want, step)] = _refine(
        lambda level, edges: lambda _: _per_node_level(
            L, center, edges, _ragged_theta, cfg, level, inner, last
        ),
        r_edges,
        [cfg],
        "disk",
    )
    got = log_disk_integral(
        L, center, r_edges, _per_node(_ragged_theta), cfg, inner_targets=inner
    )
    assert got == (want, step + last["share"])


def _disk_run(case, cfg, inner=None):
    """The disk of _RING_CASES[case] (with inner targets `inner`, if given):
    (its result, its integrand node count, each level's frozen panels)."""
    L, center, r_edges, targets = _RING_CASES[case]
    level = _quad._disk_level
    nodes, stops = [0], []

    def recorded(*args, stop=0, **kwargs):
        stops.append(stop)
        return level(*args, stop=stop, **kwargs)

    def counted(zs):
        nodes[0] += zs.size
        return L(zs)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(_quad, "_disk_level", recorded)
        got = log_disk_integral(counted, center, r_edges, _per_node(_ragged_theta), cfg,
                                inner_targets=targets if inner is None else inner)
    return got, nodes[0], stops


def test_frozen_rings_stay_within_the_reported_error(monkeypatch):
    # the sharp decay: with the freeze off every level evaluates every ring
    # down to the early exit, more nodes for the same integral
    cfg = QuadConfig(rel_tol=1e-9, order=6, max_refine=4)
    (got, err), nodes, stops = _disk_run(1, cfg)
    monkeypatch.setattr(_quad, "FREEZE", 0.0)
    (full, _), full_nodes, full_stops = _disk_run(1, cfg)
    assert stops[0] == 0 and all(stops[1:]) and not any(full_stops)
    assert abs(got - full) <= err
    assert nodes < full_nodes


def test_no_ring_below_an_inner_target_is_frozen(monkeypatch):
    # case 2's target at 0.05 lies under the light rings: it holds every
    # level's walk above it, so nothing is frozen and the integral is the one
    # without the freeze, bit for bit; without the target the level-1 frozen
    # block reaches past it
    cfg = QuadConfig(rel_tol=1e-6, order=6, max_refine=6)
    got, nodes, stops = _disk_run(2, cfg)
    assert not any(stops)
    _, _, free_stops = _disk_run(2, cfg, inner=())
    assert halve_edges(_RING_CASES[2][2])[free_stops[1]] > 0.05
    monkeypatch.setattr(_quad, "FREEZE", 0.0)
    assert _disk_run(2, cfg)[:2] == (got, nodes)
