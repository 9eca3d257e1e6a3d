import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from branchpoint_lab import CantorSet, IntervalIndex, ValidationError, interval_length
from branchpoint_lab.cantor import log2_interval_length


def test_interval_lengths_subcritical():
    for k in range(0, 10):
        assert interval_length(k, 0.5) == pytest.approx(4.0**-k, rel=1e-15)
        assert interval_length(k, 0.3) == pytest.approx(2.0 ** (-k / 0.3), rel=1e-14)


def test_interval_lengths_borderline():
    assert interval_length(0, 1.0) == 1.0
    for k in range(1, 10):
        assert interval_length(k, 1.0) == pytest.approx(
            2.0 ** (-k - k ** (2.0 / 3.0)), rel=1e-14
        )


def test_generation_sizes_and_order():
    cs = CantorSet.build(0.4, 8)
    for k in range(9):
        lefts = cs.left_endpoints(k)
        assert lefts.size == 2**k
        assert np.all(np.diff(lefts) > 0)


def test_left_child_is_bitwise_parent():
    cs = CantorSet.build(0.5, 10)
    for k in range(10):
        parent = cs.left_endpoints(k)
        child = cs.left_endpoints(k + 1)
        assert np.array_equal(child[0::2], parent)
        shift = interval_length(k, 0.5) - interval_length(k + 1, 0.5)
        np.testing.assert_allclose(child[1::2], parent + shift, rtol=1e-15)


@pytest.mark.parametrize("s", [0.3, 0.5, 1.0])
def test_views_match_the_doubling_recurrence(s):
    """Each generation's strided view of the deepest endpoints is, bit for
    bit, what doubling every generation from its parent gives."""
    cs = CantorSet.build(s, 12)
    gen = np.zeros(1)
    for k in range(13):
        if k:
            shift = interval_length(k - 1, s) - interval_length(k, s)
            gen = np.stack([gen, gen + shift], axis=1).ravel()
        assert np.array_equal(cs.left_endpoints(k), gen)
        assert not cs.left_endpoints(k).flags.writeable


def test_endpoints_are_built_on_first_read():
    tracemalloc.start()
    try:
        cs = CantorSet.build(0.5, 20)
        assert tracemalloc.get_traced_memory()[0] < 1024
        assert cs.left_endpoints(1).size == 2
        assert tracemalloc.get_traced_memory()[0] >= 8 * 2**20
    finally:
        tracemalloc.stop()


# every s in (0, 1], the borderline s = 1 included
S_ANY = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


@given(s=S_ANY, depth=st.integers(min_value=1, max_value=14))
@example(s=0.7, depth=9)
@example(s=1.0, depth=14)
@settings(max_examples=25, deadline=None)
def test_children_nest_inside_parent(s, depth):
    cs = CantorSet.build(s, depth)
    for k in range(depth):
        parent = cs.left_endpoints(k)
        child = cs.left_endpoints(k + 1).reshape(-1, 2)
        plen = interval_length(k, s)
        clen = interval_length(k + 1, s)
        assert np.all(child[:, 0] >= parent)
        assert np.all(child[:, 1] + clen <= parent + plen + 1e-15)


@given(
    s=st.sampled_from([0.3, 0.5, 0.9, 0.25, 0.75]),
    depth=st.integers(min_value=1, max_value=14),
)
@settings(max_examples=25, deadline=None)
def test_cover_sum_is_one_property(s, depth):
    cs = CantorSet.build(s, depth)
    for k in range(1, depth + 1):
        assert cs.cover_sum(k, s) == pytest.approx(1.0, rel=1e-12)


def test_cover_sum_wrong_exponent_deviates():
    cs = CantorSet.build(0.5, 10)
    assert cs.cover_sum(10, 0.6) < 0.5
    assert cs.cover_sum(10, 0.45) == pytest.approx(2.0, rel=1e-12)
    assert cs.cover_sum(10, 0.4) > 3.9


def test_validation():
    with pytest.raises(ValidationError):
        CantorSet.build(1.5, 4)
    with pytest.raises(ValidationError):
        CantorSet.build(0.0, 4)
    with pytest.raises(ValidationError):
        CantorSet.build(0.5, 0)
    with pytest.raises(ValidationError):
        CantorSet.build(0.5, 99)
    with pytest.raises(ValidationError):
        IntervalIndex(2, 5)
    cs = CantorSet.build(0.5, 4)
    with pytest.raises(ValidationError):
        cs.cover_sum(9, 0.5)


def test_dist_to_set_brackets_brute_force():
    cs = CantorSet.build(0.5, 10)
    deepest = cs.left_endpoints(10)
    length = interval_length(10, 0.5)
    rng = np.random.default_rng(7)
    for y in rng.uniform(-0.3, 1.3, 200):
        lo, hi = cs.dist_to_set(float(y))
        # distance to the union of deepest stored intervals
        inside = np.any((deepest <= y) & (y <= deepest + length))
        brute = 0.0 if inside else min(
            np.abs(deepest - y).min(), np.abs(deepest + length - y).min()
        )
        assert lo == pytest.approx(brute, abs=1e-15)
        assert hi >= lo
        assert hi - lo <= length + 1e-15


def test_dist_many_matches_scalar():
    cs = CantorSet.build(0.6, 9)
    rng = np.random.default_rng(11)
    ys = rng.uniform(-0.5, 1.5, 100)
    many = cs.dist_to_set_many(ys)
    for y, d in zip(ys, many):
        assert d == cs.dist_to_set(float(y))[0]


def test_dist_to_boundary_rays():
    cs = CantorSet.build(0.5, 8)
    # right half-plane: hypot of real part and axis distance
    z = 0.3 - 0.2j
    d_axis = cs.dist_to_set(0.2)[0]
    assert cs.dist_to_boundary_rays(z)[0] == pytest.approx(math.hypot(0.3, d_axis))
    # left half-plane: vertical distance to the rays only
    z = -5.0 - 0.2j
    assert cs.dist_to_boundary_rays(z)[0] == pytest.approx(d_axis)
    zs = np.array([0.3 - 0.2j, -5.0 - 0.2j, 1j])
    many = cs.dist_to_boundary_rays_many(zs)
    for z, d in zip(zs, many):
        assert d == cs.dist_to_boundary_rays(complex(z))[0]


def test_endpoint_on_set_has_zero_distance():
    cs = CantorSet.build(0.5, 12)
    for idx in [IntervalIndex(3, 5), IntervalIndex(12, 4096), IntervalIndex(1, 2)]:
        y = cs.left_endpoint(idx)
        assert cs.dist_to_set(y)[0] == 0.0


@given(s=S_ANY, depth=st.integers(min_value=1, max_value=14))
@example(s=0.5, depth=6)
@example(s=1.0, depth=14)
@settings(max_examples=25, deadline=None)
def test_json_round_trip(s, depth):
    cs = CantorSet.build(s, depth)
    data = json.loads(cs.to_json())
    back = CantorSet.from_json_dict(data)
    assert back.s == cs.s and back.depth == cs.depth
    for k in range(depth + 1):
        assert np.array_equal(back.left_endpoints(k), cs.left_endpoints(k))
    assert len(data["intervals"]) == 2 ** (depth + 1) - 1


def _replaced(intervals, kl, **fields):
    """The interval records with `fields` set on interval kl = (k, l)."""
    return [{**r, **fields} if (r["k"], r["l"]) == kl else r for r in intervals]


def test_json_rejects_incomplete_or_invalid_sets():
    data = CantorSet.build(0.5, 3).to_json_dict()
    intervals = data["intervals"]
    bad = [
        {**data, "intervals": intervals[:5]},  # cut to 5 of 15 intervals
        {**data, "intervals": intervals[:-1] + [intervals[0]]},  # (0, 1) twice
        {**data, "intervals": intervals[:-1] + [{**intervals[-1], "l": 9}]},
        {**data, "s": 7.0},
        {**data, "s": 0.0},
        {**data, "depth": 0},
        {**data, "intervals": intervals[:-1] + [{"k": 3, "l": 8}]},
        {"s": 0.5, "depth": 3},
        # JSON integers for depth, k and l, and numbers for s and left, none
        # of them booleans: each of these once read as a valid set
        {**data, "depth": 3.9},
        {**CantorSet.build(0.5, 1).to_json_dict(), "depth": True},
        {**data, "s": "0.5"},
        {**CantorSet.build(1.0, 3).to_json_dict(), "s": True},
        {**data, "intervals": _replaced(intervals, (1, 1), k=1.7)},
        {**data, "intervals": _replaced(intervals, (2, 1), l=True)},
        {**data, "intervals": _replaced(intervals, (0, 1), left="0.0")},
        {**data, "intervals": _replaced(intervals, (0, 1), left=False)},
        # an integer past the largest double (it raised OverflowError)
        {**data, "intervals": _replaced(intervals, (0, 1), left=10**400)},
    ]
    for case in bad:
        with pytest.raises(ValidationError):
            CantorSet.from_json_dict(case)
    # an endpoint off the construction: the walk and the direct sums disagree on it
    moved = {**data, "intervals": _replaced(intervals, (3, 4), left=0.123456)}
    with pytest.raises(ValidationError):
        CantorSet.from_json_dict(moved)
    # the same records in another order load the same set
    back = CantorSet.from_json_dict({**data, "intervals": intervals[::-1]})
    for k in range(4):
        assert np.array_equal(back.left_endpoints(k), CantorSet.build(0.5, 3).left_endpoints(k))
