import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from branchpoint_lab import (
    AnchoredPoint,
    CantorSet,
    IntervalIndex,
    ProductZero,
    SeriesParams,
    SingularPointError,
    SmoothBlock,
    ValidationError,
    boundary_decay_check,
    branched_product,
    cauchy_derivatives,
    cosine_factor,
    cosine_product,
    decay_exponent,
    decay_exponent_many,
    decay_factor,
    derivative,
    evaluate_many,
    function_evaluator,
    gap_centered_radii,
    product_zero,
)
from branchpoint_lab import series
from branchpoint_lab.series import (
    FAR_TOL,
    POINT_FAR_TOL,
    cosine_product_logderiv_many,
    expansion_order,
    log_cosine_product_many,
)


def _probes(n=200, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(1e-4, 2.0, n) + 1j * rng.uniform(-1.5, 1.5, n)


@pytest.mark.parametrize("s,max_gen", [(0.5, 14), (0.75, 14), (1.0, 12)])
def test_tree_aggregation_matches_direct_sum(s, max_gen):
    params = SeriesParams(s=s, max_gen=max_gen)
    cs = CantorSet.build(s, max_gen)
    zs = _probes()
    F0, Fp0, _ = decay_exponent_many(params, cs, zs, with_deriv=True, far_tol=None)
    for far_tol in (3e-4, 1e-2):
        F1, Fp1, err = decay_exponent_many(
            params, cs, zs, with_deriv=True, far_tol=far_tol
        )
        # certified bound contains the true aggregation error
        assert np.all(np.abs(F1 - F0) <= err + 1e-12 * np.abs(F0))
        # measured accuracy is ~far_tol^2 relative
        rel = np.abs(F1 - F0) / np.abs(F0)
        assert rel.max() < 10.0 * far_tol**2
        rel_p = np.abs(Fp1 - Fp0) / np.abs(Fp0)
        assert rel_p.max() < 100.0 * far_tol**2


# decay_exponent_many at far_tol = 3e-4, as computed by the two-term far
# field (C0/C1 weights, separate log-polar powers) before the p-term
# expansion replaced it.  The scalar path's contour derivatives, and the
# answers recorded from them, rest on these values.
_SEED_VALUES = [
    # (s, max_gen, z, F, F', aggregation bound)
    (0.5, 16, (0.3+0.4j), (1.3334989910138342-1.4106166556555468j),
     (0.4554932794824889+2.12374779143503j), 2.8570332648393574e-09),
    (0.5, 16, (0.01+0j), (19.665421958520305-1.8761017527354782j),
     (-1390.6361050392816+25.33075226505937j), 8.494679493526564e-09),
    (0.5, 16, (-0.3-0.1j), (-0.902977862993229+0.02883265112894945j),
     (-0.11204853755461433+2.4139850371149167j), 5.566382182503974e-09),
    (0.5, 16, (0.002-0.75j), (63.0298294769925-0.44817760607028867j),
     (-23146.821526201045+125.54954947600433j), 1.0584436982935377e-08),
    (0.75, 14, (0.3+0.4j), (1.2105625126373973-1.6700753132022315j),
     (0.9236935187544761+2.5647751021339955j), 1.958341997744065e-09),
    (0.75, 14, (0.01+0j), (33.45661579298706-2.1943842348361415j),
     (-2861.1934306168646+16.856272750624026j), 3.267992116258005e-09),
    (0.75, 14, (-0.3-0.1j), (-1.9321389093696029-0.3932484046944005j),
     (-1.8128833798720334+1.76360313625169j), 2.938945034416662e-09),
    (0.75, 14, (0.002-0.75j), (1.8971182956967025+3.7873514639156176j),
     (-56.51022310050002+132.67030416138707j), 3.0972973058661122e-09),
    (1.0, 12, (0.3+0.4j), (1.464614083748854-1.0287887145121066j),
     (0.06900751325924655+1.4255074684409588j), 1.6452312296270359e-09),
    (1.0, 12, (0.01+0j), (7.688931466800483-1.4600511518976438j),
     (-340.693842007661+16.5421086025943j), 2.1839631183127362e-09),
    (1.0, 12, (-0.3-0.1j), (0.3635620392075422+0.06563383078257484j),
     (1.2352339347154935+1.260024379658149j), 2.217052546021513e-09),
    (1.0, 12, (0.002-0.75j), (16.38902905752914-0.2747571281843608j),
     (-4015.184186901754+56.93872177930741j), 1.7387015063429035e-09),
]


def test_expansion_order_rule():
    for a in (0.5, 0.75, 0.79, 1.0):
        assert expansion_order(POINT_FAR_TOL, a) == 2
        orders = [expansion_order(t, a) for t in np.geomspace(1e-5, 0.9, 60)]
        assert orders == sorted(orders)
    assert expansion_order(FAR_TOL, 0.75) == 17


@pytest.mark.parametrize("s,max_gen", [(0.5, 16), (0.75, 14), (1.0, 12)])
def test_scalar_far_tol_reproduces_two_term_values(s, max_gen):
    params = SeriesParams(s=s, max_gen=max_gen)
    cs = CantorSet.build(s, max_gen)
    rows = [r for r in _SEED_VALUES if r[:2] == (s, max_gen)]
    zs = np.array([r[2] for r in rows])
    F, Fp, err = decay_exponent_many(params, cs, zs, with_deriv=True, far_tol=POINT_FAR_TOL)
    for (_, _, _, f0, fp0, e0), f, fp, e in zip(rows, F, Fp, err):
        assert abs(f - f0) <= 1e-13 * abs(f0)
        assert abs(fp - fp0) <= 1e-13 * abs(fp0)
        assert e == pytest.approx(e0, rel=1e-13)


def test_tree_descends_past_stored_depth_with_honest_bound():
    params = SeriesParams(s=0.5, max_gen=18)
    deep = CantorSet.build(0.5, 18)
    shallow = CantorSet.build(0.5, 8)
    zs = _probes(50, seed=3) + 0.2  # keep clear of the set
    F_deep, _, _ = decay_exponent_many(params, deep, zs, far_tol=None)
    F_shallow, _, err = decay_exponent_many(params, shallow, zs, far_tol=3e-4)
    assert np.all(np.abs(F_shallow - F_deep) <= err + 1e-12 * np.abs(F_deep))


def test_scalar_matches_vectorized(params_half, cs_half):
    for z in [0.3 + 0.4j, 1.2 - 0.8j, 0.05 + 0j]:
        tv = decay_exponent(params_half, cs_half, z)
        vec, _, _ = decay_exponent_many(params_half, cs_half, np.array([z]))
        assert tv.value == pytest.approx(complex(vec[0]), rel=1e-12)
        assert tv.tail_bound > 0.0


def test_tail_bound_scales_with_distance(params_half, cs_half):
    near = decay_exponent(params_half, cs_half, 0.01 + 0j)
    far = decay_exponent(params_half, cs_half, 2.0 + 0j)
    assert near.tail_bound > far.tail_bound


def test_singular_point_rejected(params_half, cs_half):
    with pytest.raises(SingularPointError):
        decay_exponent(params_half, cs_half, 0j)


def _reads_one_call(params, cs, z):
    """Each one-point function at z is the matching `evaluate_many` field of
    one call at z, bit for bit; returns that call."""
    v = evaluate_many(params, cs, z)
    F = decay_exponent(params, cs, z)
    assert (F.value, F.tail_bound) == (complex(v.F[0]), v.F_tail[0])
    reads = [(decay_factor, v.log_f, v.arg_f, v.f_tail),
             (cosine_product, v.log_G, v.arg_G, v.G_tail),
             (branched_product, v.log_g, v.arg_g, v.g_tail)]
    for fn, log_mag, arg, tail in reads:
        tv = fn(params, cs, z)
        assert (tv.value.log_mag, tv.value.arg, tv.tail_bound) == (log_mag[0], arg[0], tail[0])
    # product=False forms the same F and f
    w = evaluate_many(params, cs, z, product=False)
    for name in ("d", "F", "F_tail", "log_f", "arg_f", "f_tail"):
        assert np.array_equal(getattr(w, name), getattr(v, name))
    return v


def test_anchored_point_matches_complex(params_half, cs_half, monkeypatch):
    # at max_gen 14 one generation (16384 shifts) spans two pair blocks
    sets = [(params_half, cs_half), (SeriesParams(s=0.5, max_gen=14), CantorSet.build(0.5, 14))]
    for params, cs in sets:
        y = cs.left_endpoint(IntervalIndex(3, 5))
        z_anch = AnchoredPoint(y=y, log_r=math.log(0.05), theta=0.3)
        z_c = z_anch.to_complex()
        a = decay_exponent(params, cs, z_anch)
        c = decay_exponent(params, cs, z_c)
        assert a.value == pytest.approx(c.value, rel=1e-9)
        for fn in (cosine_product, decay_factor, branched_product):
            va = fn(params, cs, z_anch).value
            vc = fn(params, cs, z_c).value
            assert va.log_mag == pytest.approx(vc.log_mag, rel=1e-9)
            assert va.arg == pytest.approx(vc.arg, rel=1e-9, abs=1e-9)
        for z in (z_anch, z_c):
            _reads_one_call(params, cs, z)
    # the underflowed offset: d = 0, every tail infinite, f = g = 0
    z = AnchoredPoint(y=cs_half.left_endpoint(IntervalIndex(2, 2)), log_r=-800.0)
    v = _reads_one_call(params_half, cs_half, z)
    assert v.d[0] == 0.0
    assert all(math.isinf(t[0]) for t in (v.F_tail, v.f_tail, v.G_tail, v.g_tail))
    assert v.f()[0] == 0.0 and v.g()[0] == 0.0
    # a constructed zero: G = g = 0 with tail 0 (the floating cosine is not
    # 0.0 there), and `branched_product` evaluates nothing
    z = product_zero(params_half, cs_half, IntervalIndex(2, 3), 1)
    v = _reads_one_call(params_half, cs_half, z)
    assert (v.g_zero[0], v.log_G[0], v.G_tail[0]) == (True, -math.inf, 0.0)
    calls = []
    monkeypatch.setattr(series, "evaluate_many", lambda *args, **kw: calls.append(args))
    tv = branched_product(params_half, cs_half, z)
    assert (tv.value.log_mag, tv.value.arg, tv.tail_bound) == (-math.inf, 0.0, 0.0)
    assert calls == []


def test_constructed_zero_takes_no_cosine_sums(monkeypatch, params_half, cs_half):
    """At a ProductZero of generations 1-6 (m <= 3) `evaluate_many` reads
    G = g = 0 with tail 0 without G's pair sums, whose values the zero
    masked: d, F and f are product=False's, G and g the exact zero, and
    `cosine_product` reads that zero."""
    zs = [product_zero(params_half, cs_half, IntervalIndex(k, pos), m)
          for k in range(1, 7) for pos in range(1, 2**k + 1) for m in (1, 2, 3)]
    want = [evaluate_many(params_half, cs_half, z, product=False) for z in zs]
    calls = []
    monkeypatch.setattr(series, "log_cosine_product_many", lambda *args, **kw: calls.append(args))
    for z, w in zip(zs, want):
        v = evaluate_many(params_half, cs_half, z)
        for name in ("d", "F", "F_tail", "log_f", "arg_f", "f_tail"):
            assert np.array_equal(getattr(v, name), getattr(w, name))
        G = (v.g_zero, v.log_G, v.arg_G, v.G_tail, v.log_g, v.arg_g, v.g_tail)
        assert [(a.dtype.kind, a.shape) for a in G] == [("b", (1,))] + [("f", (1,))] * 6
        assert [a[0] for a in G] == [True, -math.inf, 0.0, 0.0, -math.inf, 0.0, 0.0]
        tv = cosine_product(params_half, cs_half, z)
        assert (tv.value.log_mag, tv.value.arg, tv.tail_bound) == (-math.inf, 0.0, 0.0)
    assert calls == []


def test_anchored_tail_uses_certified_distance(params_half, cs_half):
    # anchored at 0.75, the left end of interval (3, 5), but 4.7e-8 from
    # 0.796875, the left end of interval (3, 6): the tail must follow the
    # distance to the set, not the offset from the anchor
    y = cs_half.left_endpoint(IntervalIndex(3, 5))
    z = AnchoredPoint(y=y, log_r=math.log(0.046874953125), theta=-math.pi / 2)
    d = cs_half.dist_to_boundary_rays(z.to_complex())[0]
    assert 0.0 < d < 1e-7
    trigamma_13 = math.pi**2 / 6.0 - sum(1.0 / j**2 for j in range(1, 13))
    F = decay_exponent(params_half, cs_half, z)
    assert F.tail_bound >= (1.0 - 1e-12) * max(1.0, 1.0 / d) * trigamma_13
    # the complex form of the point adds only its far-field remainder
    complex_tail = decay_exponent(params_half, cs_half, z.to_complex()).tail_bound
    assert F.tail_bound == pytest.approx(complex_tail, rel=1e-9)


def test_anchored_point_survives_underflowing_offset(params_half, cs_half):
    y = cs_half.left_endpoint(IntervalIndex(2, 2))
    z = AnchoredPoint(y=y, log_r=-800.0, theta=0.0)
    assert z.to_complex() == complex(0.0, -y)  # the offset is gone as a double
    F = decay_exponent(params_half, cs_half, z)
    assert F.value.real > 1e100  # the anchored term alone is ~ e^{alpha * 800}
    f = decay_factor(params_half, cs_half, z)
    assert f.value.abs() == 0.0


def test_decay_factor_bounded_on_half_plane(params_half, cs_half, probe_grid):
    for z in probe_grid[:40]:
        f = decay_factor(params_half, cs_half, complex(z))
        assert f.value.log_mag <= 1e-12


def test_decay_factor_tail_discipline(params_half, cs_half):
    ok = decay_factor(params_half, cs_half, 1.0 + 0j)
    assert ok.tail_bound < 0.1
    shaky = decay_factor(params_half, cs_half, 1e-4 + 0.77j)
    assert math.isinf(shaky.tail_bound)


def test_cosine_product_matches_brute_force():
    params = SeriesParams(s=0.5, max_gen=5)
    cs = CantorSet.build(0.5, 5)
    z = 0.3 + 0.2j
    got = cosine_product(params, cs, z).value
    brute = 1.0 + 0j
    for k in range(1, 6):
        b = params.coeff(k)
        for y in cs.left_endpoints(k):
            brute *= cmath.cos(b * cmath.log(z + 1j * y))
    assert got.to_complex() == pytest.approx(brute, rel=1e-12)


def test_product_requires_full_depth():
    params = SeriesParams(s=0.5, max_gen=10)
    cs = CantorSet.build(0.5, 6)
    with pytest.raises(ValidationError):
        cosine_product(params, cs, 0.5 + 0.5j)


def test_product_zero_is_exact(params_half, cs_half):
    idx = IntervalIndex(4, 7)
    z = product_zero(params_half, cs_half, idx, m=3)
    assert abs(cosine_factor(params_half, cs_half, idx, z)) < 1e-12
    g = branched_product(params_half, cs_half, z)
    assert g.value.is_zero
    assert g.tail_bound == 0.0


def test_product_zero_beyond_the_truncation_is_no_exact_zero(params_half):
    # a zero of the generation-13 factor, which G truncated at max_gen 12
    # leaves out: G there is that of the same anchored point, not zero
    cs = CantorSet.build(0.5, 13)
    idx = IntervalIndex(params_half.max_gen + 1, 6)
    y = cs.left_endpoint(idx)
    log_r = -(2 * math.pi - math.pi / 2.0) / params_half.coeff(idx.gen)
    G = cosine_product(params_half, cs, ProductZero(y=y, log_r=log_r, theta=0.0, idx=idx, m=2))
    assert not G.value.is_zero
    assert math.isfinite(G.value.log_mag) and math.isfinite(G.value.arg)
    plain = cosine_product(params_half, cs, AnchoredPoint(y=y, log_r=log_r, theta=0.0))
    assert (G.value.log_mag, G.value.arg) == (plain.value.log_mag, plain.value.arg)


def test_product_zeros_accumulate_at_anchor(params_half, cs_half):
    idx = IntervalIndex(2, 3)
    offsets = [product_zero(params_half, cs_half, idx, m).log_r for m in (1, 2, 5, 20)]
    assert all(b < a for a, b in zip(offsets, offsets[1:]))
    assert offsets[-1] < -900.0  # far below any representable double offset


def test_deep_product_zeros_give_the_exact_zero_of_f(params_half, cs_half):
    """At every ProductZero of generations 1-6 (m <= 3) F, f and g carry no
    NaN.  Where the own-anchor term passes the largest double, Re F = +inf
    is the exact zero log f = -inf with tail 0 (320 of these 378 points gave
    F = nan+nanj, when that term overflowed in neg_power).  G and g are the
    exact zero at all of them, as `cosine_product` and `branched_product`
    read them (G used to read log|G| between -74 and -36, with an infinite
    tail where the offset underflows)."""
    deep = 0
    for k in range(1, 7):
        for pos in range(1, 2**k + 1):
            for m in (1, 2, 3):
                z = product_zero(params_half, cs_half, IntervalIndex(k, pos), m)
                v = evaluate_many(params_half, cs_half, z)
                fields = (v.F.real, v.F.imag, v.F_tail, v.log_f, v.arg_f, v.f_tail,
                          v.log_g, v.arg_g, v.g_tail)
                assert not any(np.isnan(a[0]) for a in fields), (k, pos, m)
                G = (v.g_zero[0], v.log_G[0], v.arg_G[0], v.G_tail[0],
                     v.log_g[0], v.arg_g[0], v.g_tail[0])
                assert G == (True, -math.inf, 0.0, 0.0, -math.inf, 0.0, 0.0), (k, pos, m)
                if v.F.real[0] == math.inf:
                    deep += 1
                    assert (v.log_f[0], v.arg_f[0], v.f_tail[0]) == (-math.inf, 0.0, 0.0)
                else:
                    assert math.isfinite(v.F.real[0]) and v.log_f[0] == -v.F.real[0]
    assert deep == 320


def test_zero_validation(params_half, cs_half):
    with pytest.raises(ValidationError):
        product_zero(params_half, cs_half, IntervalIndex(13, 1), 1)
    with pytest.raises(ValidationError):
        product_zero(params_half, cs_half, IntervalIndex(2, 1), 0)


def test_borderline_exponent_rule():
    params = SeriesParams(s=1.0, max_gen=8)
    for k in (1, 8):
        assert params.exponent(k) == pytest.approx(1.0 - 0.5 * k ** (-1.0 / 3.0))
    with pytest.raises(ValidationError):
        SeriesParams(s=0.5, alpha=0.4)  # alpha must exceed s


def test_coeff_tail_is_true_tail():
    params = SeriesParams(s=0.5, max_gen=10)
    n = 400000
    brute = sum(1.0 / j**2 for j in range(11, n)) + 1.0 / n  # 2^j coeff(j) = j^-2
    assert params.coeff_tail(10) == pytest.approx(brute, rel=1e-8)


def test_cauchy_derivatives_polynomial():
    out = cauchy_derivatives(lambda z: z**5 + 2 * z, 0.7 + 0.1j, 0.3, [0, 1, 2, 3])
    z = 0.7 + 0.1j
    assert out[0][0] == pytest.approx(z**5 + 2 * z, rel=1e-10)
    assert out[1][0] == pytest.approx(5 * z**4 + 2, rel=1e-10)
    assert out[2][0] == pytest.approx(20 * z**3, rel=1e-10)
    assert out[3][0] == pytest.approx(60 * z**2, rel=1e-10)


def test_derivative_block_closed_form():
    # a contour of radius Re z / 2, clear of the cut (-inf, 0]
    z = 0.8 + 0.3j
    alpha = 0.5

    def block(zs):
        la, ar = SmoothBlock(alpha).log_h(zs)
        return np.exp(la + 1j * ar)

    got, err = cauchy_derivatives(block, z, z.real / 2.0, [1])[1]
    want = alpha * z ** (-alpha - 1.0) * cmath.exp(-(z**-alpha))
    assert got == pytest.approx(want, rel=1e-8)
    assert err < 1e-6


def test_derivative_radius_validation(params_half, cs_half):
    with pytest.raises(ValidationError):
        derivative(params_half, cs_half, "decay_factor", 0.3 + 0j, 1, radius=10.0)


def test_boundary_decay_table(params_half, cs_half):
    probes = [0.2 + 0j, 0.1 + 0j, 0.05 + 0j]
    rows = boundary_decay_check(params_half, cs_half, 1, probes)
    gauges = [r.gauge for r in rows]
    derivs = [r.abs_decay_deriv for r in rows]
    # decay beats d^-1: the gauge grows and the derivative magnitude falls
    assert gauges[2] > gauges[0]
    assert derivs[2] < derivs[0]


def test_branched_product_zero_mask_vectorized(params_half, cs_half):
    z0 = product_zero(params_half, cs_half, IntervalIndex(3, 2), 2)
    zs = np.array([0.4 + 0.1j, z0.to_complex()])
    la, _, zero, _, _ = log_cosine_product_many(params_half, cs_half, zs)
    assert not zero[0] and np.isfinite(la[0])


def test_ring_evaluators_match_scalar_wrappers(params_half, cs_half, probe_grid):
    """One array call agrees with the one-point wrappers, on the probe grid
    and next to a constructed zero of the branched product."""
    # the rounded complex point: G ~ e^-37 there, not an exact zero
    near_zero = product_zero(params_half, cs_half, IntervalIndex(1, 2), 1).to_complex()
    zs = np.append(probe_grid, near_zero)
    scalar = {
        "decay_exponent": lambda z: decay_exponent(params_half, cs_half, z).value,
        "decay_factor": lambda z: decay_factor(params_half, cs_half, z).value.to_complex(),
        "branched_product": lambda z: branched_product(
            params_half, cs_half, z).value.to_complex(),
    }
    got = {}
    for name, one in scalar.items():
        got[name] = function_evaluator(params_half, cs_half, name)(zs)
        want = np.array([one(complex(z)) for z in zs])
        assert got[name].shape == zs.shape
        assert np.all(np.abs(got[name] - want) <= 1e-14 * np.abs(want))
    g = got["branched_product"]
    assert 0.0 < abs(g[-1]) < 1e-12 * np.median(np.abs(g[:-1]))
    # each wrapper reads one evaluate_many call, also at the constructed zero
    zero = product_zero(params_half, cs_half, IntervalIndex(1, 2), 1)
    for z in (*zs[::8], near_zero, zero):
        _reads_one_call(params_half, cs_half, z)
    # a scalar in, a complex out
    one_point = function_evaluator(params_half, cs_half, "decay_factor")(1.0 + 0.5j)
    assert isinstance(one_point, complex)


def test_cauchy_derivatives_reuse_ring_nodes():
    """The first call takes the 64 nodes of the first three rings, and each
    doubling evaluates only the new odd nodes: 64 + 64 when the estimates
    agree at 128 nodes."""
    calls = []

    def fn(zs):
        calls.append(zs.size)
        return 1.0 / (2.0 - zs)  # pole at distance 2; the ring ratio is 0.6

    out = cauchy_derivatives(fn, 0j, 1.2, [1, 2, 3])
    assert calls == [64, 64]
    for m in (1, 2, 3):
        assert out[m][0] == pytest.approx(math.factorial(m) / 2.0 ** (m + 1), rel=1e-12)


@pytest.mark.parametrize(
    "z, radius, orders",
    [(0j, math.nan, [1]), (0j, math.inf, [1]), (0j, 0.0, [1]), (0j, -0.5, [1]),
     (complex(math.nan, 0.0), 0.5, [1]), (complex(0.0, math.inf), 0.5, [1]),
     (0j, 0.5, [-1]), (0j, 0.5, [1.5]), (0j, 0.5, [1, 2.0])],
)
def test_cauchy_derivatives_reject_bad_input(z, radius, orders):
    """A non-finite centre or radius, a radius <= 0 and an order that is
    negative or not an integer raise before any evaluation (a NaN radius
    used to evaluate every doubling up to 2^14 nodes)."""
    calls = []

    def fn(zs):
        calls.append(zs.size)
        return zs

    with pytest.raises(ValidationError):
        cauchy_derivatives(fn, z, radius, orders)
    assert calls == []


@pytest.fixture
def evaluator_calls(monkeypatch):
    """Sizes of the evaluator calls made through `function_evaluator`, with
    the ring `derivative` keeps cleared."""
    calls = []
    make = series.function_evaluator

    def counted(*args, **kwargs):
        fn = make(*args, **kwargs)

        def node(zs):
            calls.append(np.size(zs))
            return fn(zs)

        return node

    monkeypatch.setattr(series, "function_evaluator", counted)
    monkeypatch.setattr(series, "_last_ring", None)
    return calls


@pytest.mark.parametrize(
    "z, m, radius",
    [(0.9 + 0.1j, -1, None), (0.9 + 0.1j, 1.5, None), (complex(math.nan, 0.1), 1, None),
     (complex(math.inf, 0.0), 1, None), (0.9 + 0.1j, 1, math.nan)],
)
def test_derivative_rejects_bad_input(params_half, cs_half, evaluator_calls, z, m, radius):
    with pytest.raises(ValidationError):
        derivative(params_half, cs_half, "decay_factor", z, m, radius=radius)
    assert evaluator_calls == []


def test_derivative_orders_share_one_ring(params_half, cs_half, evaluator_calls):
    """Orders 1-3 asked for one at a time at one point take 2 evaluator calls
    (64 nodes, then the odd half of 128), not 3 each, and each answer and
    error figure is a fresh single-order call's, bit for bit."""
    z, r = 0.9 + 0.1j, 0.6
    for name in ("decay_factor", "branched_product"):
        del evaluator_calls[:]
        got = {m: derivative(params_half, cs_half, name, z, m, radius=r) for m in (1, 2, 3)}
        assert evaluator_calls == [64, 64]
        for m in (1, 2, 3):
            fn = series.function_evaluator(params_half, cs_half, name)
            assert cauchy_derivatives(fn, z, r, [m])[m] == got[m]


def test_default_radius_derivative_makes_one_evaluator_call(params_half, cs_half,
                                                            evaluator_calls):
    """On the default radius d/2 the 16- and 32-node estimates never agree
    to 1e-9, so the first call takes the 64 nodes of the first three rings
    and none follows; the answer is that of a ring first sampled at 32
    nodes, bit for bit."""
    z = 0.9 + 0.1j
    for name in ("decay_factor", "branched_product"):
        del evaluator_calls[:]
        got = derivative(params_half, cs_half, name, z, 2)
        assert evaluator_calls == [64]
        radius = min(cs_half.dist_to_boundary_rays(z)[0], z.real) / 2.0
        ring = series._contour_ring(series.function_evaluator(params_half, cs_half, name), z,
                                    radius)
        ring.values(32)
        assert cauchy_derivatives(ring, z, radius, [2])[2] == got


def test_derivative_starts_a_new_ring_for_a_new_key(params_half, cs_half, evaluator_calls):
    """A repeat call reuses the kept ring; changing params, cs (an equal but
    distinct object), name, z or radius starts a new one."""
    base = dict(params=params_half, cs=cs_half, name="decay_factor", z=0.8 + 0.3j,
                m=1, radius=0.2)
    changes = [dict(params=SeriesParams(s=0.5, max_gen=11)), dict(cs=CantorSet.build(0.5, 12)),
               dict(name="branched_product"), dict(z=0.8 + 0.31j), dict(radius=0.21)]
    for change in changes:
        derivative(**base)
        n = len(evaluator_calls)
        derivative(**base)
        assert len(evaluator_calls) == n
        derivative(**{**base, **change})
        assert evaluator_calls[n:] == [64]


def test_derivative_ring_survives_a_raising_evaluator(params_half, cs_half, monkeypatch):
    """An evaluator that raises, on a new ring or while extending the kept
    one, leaves the kept ring as it was, and later calls still give the
    fresh calls' answers."""
    armed = []
    make = series.function_evaluator

    def flaky(*args, **kwargs):
        fn = make(*args, **kwargs)

        def node(zs):
            if armed:
                raise RuntimeError("evaluator failed")
            return fn(zs)

        return node

    monkeypatch.setattr(series, "function_evaluator", flaky)
    monkeypatch.setattr(series, "_last_ring", None)
    # order 1 converges on the first 64 nodes here, order 3 needs 128
    z, r = 0.8 + 0.3j, 0.5
    armed.append(True)
    with pytest.raises(RuntimeError):
        derivative(params_half, cs_half, "decay_factor", z, 1, radius=r)
    assert series._last_ring is None
    armed.clear()
    first = derivative(params_half, cs_half, "decay_factor", z, 1, radius=r)
    kept = series._last_ring
    held = kept[2].vals.copy()
    armed.append(True)
    with pytest.raises(RuntimeError):
        derivative(params_half, cs_half, "decay_factor", z, 3, radius=r)
    assert series._last_ring is kept and np.array_equal(kept[2].vals, held)
    armed.clear()
    fn = make(params_half, cs_half, "decay_factor")
    assert derivative(params_half, cs_half, "decay_factor", z, 3, radius=r) == (
        cauchy_derivatives(fn, z, r, [3])[3])
    assert first == cauchy_derivatives(fn, z, r, [1])[1]


def test_pair_sums_keep_to_the_block_budget():
    """The cosine product's log-derivative and the exact direct sum take
    their shifts in blocks of at most _PAIR_BLOCK pairs: on 512 points at
    max_gen 12 neither holds more than a few hundred kB at once."""
    params = SeriesParams(s=0.5, max_gen=12)
    cs = CantorSet.build(0.5, 12)
    zs = _probes(512)
    for run in (
        lambda: cosine_product_logderiv_many(params, cs, zs),
        lambda: decay_exponent_many(params, cs, zs, with_deriv=True, far_tol=None),
    ):
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def test_tree_walk_keeps_to_the_ladder_budget():
    """The walk's own arrays on a 4,000-point disk ring of the E1 ladder (10
    radial Gauss nodes in [1.9e-4, 2.9e-4] by 400 angles over the right
    half-disk, max_gen 20, with F', FAR_TOL): each generation's terms are
    added as it is walked, and only its near pairs' values pass on to the
    next.  A walk that held every generation's terms to the end peaked at
    8.4 MB on this ring; this one peaks at 4.4 MB, and the bound lies
    between the two."""
    params = SeriesParams(s=0.5, max_gen=20)
    cs = CantorSet.build(0.5, 20)
    x, _ = np.polynomial.legendre.leggauss(10)
    rho = 2.4e-4 + 0.5e-4 * x
    theta = np.pi * ((np.arange(400) + 0.5) / 400 - 0.5)
    zs = (rho[:, None] * np.exp(1j * theta[None, :])).ravel()
    decay_exponent_many(params, cs, zs, with_deriv=True, far_tol=FAR_TOL)  # tables cached
    tracemalloc.start()
    try:
        decay_exponent_many(params, cs, zs, with_deriv=True, far_tol=FAR_TOL)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6.5 * 2**20


def test_tree_walk_keeps_to_the_pair_budget():
    """F's walk at FAR_TOL on the layer bench's 2,240 seeded points in the
    R_2 half-disk (s = 0.5, max_gen 20) visits at most 9 pairs per point:
    8.04 at FAR_TOL = 0.4 (p = 17), 11.48 at 0.25 (p = 12)."""
    params = SeriesParams(s=0.5, max_gen=20)
    cs = CantorSet.build(0.5, 20)
    rng = np.random.default_rng(0)
    n = 2240
    r = gap_centered_radii(0.5, 2) * np.sqrt(rng.uniform(0.0, 1.0, n))
    zs = r * np.exp(1j * rng.uniform(-0.5 * math.pi, 0.5 * math.pi, n))
    pairs = sum(far.size for *_, far in series._tree_walk(params, cs, zs, FAR_TOL))
    assert pairs <= 9 * n


def test_large_calls_walk_their_points_in_blocks():
    """F and G on 2.5 point blocks (_POINT_BLOCK) give the answers of calls
    on a split that does not follow the blocks, bit for bit, and peak at
    about one block's memory: 20,480 points in one walk held about 2.5
    times as much."""
    params = SeriesParams(s=0.5, max_gen=8)
    cs = CantorSet.build(0.5, 8)
    zs = _probes(5 * series._POINT_BLOCK // 2, seed=1)
    one = zs[: series._POINT_BLOCK]
    for many in (
        lambda pts: decay_exponent_many(params, cs, pts, with_deriv=True, far_tol=FAR_TOL),
        lambda pts: log_cosine_product_many(params, cs, pts, with_deriv=True),
    ):
        peaks = []
        for pts in (one, zs):
            many(pts[:8])
            tracemalloc.start()
            try:
                whole = many(pts)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # the outputs of the extra 1.5 blocks add 0.3 MB to F's 4.2 MB peak
        # and 1.9 MB to G's 11.2 MB
        assert peaks[1] < 1.25 * peaks[0]
        parts = [many(zs[lo : lo + 5000]) for lo in range(0, zs.size, 5000)]
        for a, b in zip(whole, zip(*parts)):
            assert np.array_equal(a, np.concatenate(b))


def test_a_point_sums_alike_in_calls_past_the_elision_size():
    """A generation of 32,768 pairs holds arrays past NumPy's 256 KiB
    temporary-elision size, where `x * f(...)` reuses f's buffer with the
    operands swapped; F, F', G and G'/G still match 64-point calls bit for
    bit (1,143 points of F and 613 of F' did not while they used *)."""
    params = SeriesParams(s=0.5, max_gen=20)
    cs = CantorSet.build(0.5, 20)
    rng = np.random.default_rng(0)
    n = series._POINT_BLOCK
    r = gap_centered_radii(0.5, 2) * np.sqrt(rng.uniform(0.0, 1.0, n))
    zs = r * np.exp(1j * rng.uniform(-0.5 * math.pi, 0.5 * math.pi, n))
    pairs = max(far.size for *_, far in series._tree_walk(params, cs, zs, FAR_TOL))
    assert pairs * 16 >= 2**18
    for many in (
        lambda pts: decay_exponent_many(params, cs, pts, with_deriv=True, far_tol=FAR_TOL),
        lambda pts: log_cosine_product_many(params, cs, pts, with_deriv=True),
    ):
        whole = many(zs)
        parts = [many(zs[lo : lo + 64]) for lo in range(0, n, 64)]
        for a, b in zip(whole, zip(*parts)):
            assert np.array_equal(a, np.concatenate(b), equal_nan=True)


def test_trigamma_tail_is_computed_once(params_half, cs_half, probe_grid):
    """The generation tail is computed once per max_gen, not once per point
    evaluation."""
    series._trigamma.cache_clear()
    for _ in range(3):
        series.evaluate_many(params_half, cs_half, probe_grid)
    decay_factor(params_half, cs_half, 0.4 + 0.1j)
    assert series._trigamma.cache_info().misses == 1


def test_trigamma_tail_is_a_certified_bound():
    """sum_{j > k} 1/j^2 within 4 ulp of the Hurwitz zeta value, and never
    below it by more than 1 ulp."""
    with mpmath.workdps(50):
        for k in range(41):
            exact = mpmath.zeta(2, k + 1)
            ulps = float((mpmath.mpf(series._trigamma(k + 1)) - exact) / math.ulp(float(exact)))
            assert -1.0 <= ulps <= 4.0, (k, ulps)


def test_series_rejects_a_set_of_another_s():
    params = SeriesParams(s=0.5, max_gen=8)
    cs = CantorSet.build(0.75, 8)
    z = 0.3 + 0.2j
    with pytest.raises(ValidationError):
        decay_exponent(params, cs, z)  # the tree walk
    with pytest.raises(ValidationError):
        decay_exponent_many(params, cs, np.array([z]), far_tol=None)  # the direct sums
    with pytest.raises(ValidationError):
        cosine_product(params, cs, z)


@pytest.mark.parametrize("far_tol", [0.0, -0.25, math.inf, math.nan, 1.0, "0.25"])
def test_series_rejects_an_opening_ratio_outside_0_1(far_tol):
    """Rejected before any walk.  Unchecked, 0 raised ZeroDivisionError in
    the far test, a negative ratio stopped the order at p = 3 (F off by
    3e-5), inf put F off by a factor of 1e48, and NaN silently took the
    direct sums."""
    params = SeriesParams(s=0.5, max_gen=10)
    cs = CantorSet.build(0.5, 10)
    zs = np.array([0.05 + 0.01j, 0.3 - 0.2j])
    with pytest.raises(ValidationError, match="far_tol"):
        decay_exponent_many(params, cs, zs, with_deriv=True, far_tol=far_tol)


_SPLIT_POINTS = st.lists(
    st.one_of(
        # anywhere around the set, left of the axis included
        st.tuples(st.floats(-1.0, 2.0), st.floats(-1.5, 0.5)),
        # within 1e-6 of a left endpoint of generation 1-8
        st.tuples(st.integers(1, 8), st.integers(0, 255), st.floats(-1e-6, 1e-6),
                  st.floats(-1e-6, 1e-6)),
    ),
    min_size=2,
    max_size=40,
)


@settings(max_examples=30, deadline=None)
@example(  # a far pair alone in its generation's call: rounded as among others
    points=[(0.0, 0.0)] * 8 + [(0.0, 0.5), (0.25, 0.2696110836534924)],
    s=0.5, far_tol=FAR_TOL, chunks=[0] * 9 + [1] * 31,
)
@example(  # a point on the set, whose own terms of F' meet as inf - inf
    points=[(0.0, 0.0), (-6.88588512685584e-212, 0.0)],
    s=1.0, far_tol=None, chunks=[0, 1] + [0] * 38,
)
@given(
    points=_SPLIT_POINTS,
    s=st.sampled_from([0.5, 1.0]),
    far_tol=st.sampled_from([FAR_TOL, POINT_FAR_TOL, None]),
    chunks=st.lists(st.integers(0, 2), min_size=40, max_size=40),
)
def test_batching_does_not_change_results(points, s, far_tol, chunks):
    """One call on an array gives the same F, F' and bound, and the same
    log|G|, arg G, zero mask, G'/G and remainder, bit for bit, as calls on a
    split of it: each point's terms are summed in generation order,
    whichever other points share its call (constant exponent at s = 0.5,
    varying at s = 1)."""
    params = SeriesParams(s=s, max_gen=10)
    cs = CantorSet.build(s, 10)
    zs = []
    for pt in points:
        if len(pt) == 2:
            zs.append(complex(*pt))
        else:
            k, m, dx, dy = pt
            y = cs.left_endpoints(k)[m % 2**k]
            zs.append(complex(dx, dy - y))
    zs = np.array(zs)
    part = np.array(chunks[: zs.size])
    for many in (
        lambda pts: decay_exponent_many(params, cs, pts, with_deriv=True, far_tol=far_tol),
        lambda pts: log_cosine_product_many(params, cs, pts, with_deriv=True),
    ):
        whole = many(zs)
        for c in range(3):
            sel = part == c
            if not sel.any():
                continue
            for a, b in zip(whole, many(zs[sel])):
                assert np.array_equal(a[sel], b, equal_nan=True)


@pytest.mark.parametrize(
    "s,max_gen,center,r",
    [(0.5, 12, 0.0432139, 0.01294), (0.5, 12, 0.6 + 0.2j, 0.3),
     (0.75, 12, 0.05 - 0.3j, 0.02), (1.0, 10, 0.3 + 0.4j, 0.1)],
)
def test_loop_integral_of_the_derivative_vanishes(s, max_gen, center, r):
    """(1/2 pi i) of the loop integral of F' dz is 0 for the exact F' on a
    circle clear of the set: a check of F' that needs no reference value.
    Trapezoid rule on 512 nodes; the far field leaves at most 4.3e-10 (at
    FAR_TOL), the direct sum rounding only."""
    params = SeriesParams(s=s, max_gen=max_gen)
    cs = CantorSet.build(s, max_gen)
    e = np.exp(2j * np.pi * np.arange(512) / 512)
    for far_tol, tol in ((FAR_TOL, 1e-9), (POINT_FAR_TOL, 1e-9), (None, 1e-14)):
        _, Fp, _ = decay_exponent_many(params, cs, center + r * e, with_deriv=True, far_tol=far_tol)
        assert abs(r * (Fp * e).mean()) <= tol


def test_cosine_product_work_does_not_grow_with_max_gen(monkeypatch):
    """log_cos elements and (log w)^2 polynomial evaluations per point,
    counted through the kernels, are the same at max_gen 12, 14 and 16: a
    far subtree sums all its generations in one polynomial per proxy, only
    the generations past the polynomial's cap take a log cos per proxy, and
    these probes' walks open no pair below generation 12.  Both stay far
    below the 2^(K+1) - 2 shifts of the direct sum."""
    calls = {"log_cos": 0, "poly": 0}
    kernel, horner = series.log_cos, series._horner

    def counted(lr, th, b, with_deriv=False):
        calls["log_cos"] += np.broadcast(lr, th, b).size
        return kernel(lr, th, b, with_deriv)

    def counted_poly(c, q):
        if np.ndim(c) == 3:  # coefficients per pair and proxy: G's polynomial, not F's
            calls["poly"] += q.size
        return horner(c, q)

    monkeypatch.setattr(series, "log_cos", counted)
    monkeypatch.setattr(series, "_horner", counted_poly)
    zs = _probes(200)
    per_point = {}
    for K in (12, 14, 16):
        calls.update(log_cos=0, poly=0)
        log_cosine_product_many(SeriesParams(s=0.5, max_gen=K), CantorSet.build(0.5, K), zs)
        per_point[K] = {k: v / zs.size for k, v in calls.items()}
    assert per_point[12] == per_point[14] == per_point[16]
    assert per_point[12]["poly"] > 0.0
    assert sum(per_point[12].values()) < 0.01 * (2**13 - 2)
