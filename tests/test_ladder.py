"""Frequency ladders whose full circles share ring passes.

`frequency_curve` runs the full circles that share a first ring n0 as one
`log_line_integral` on their nested rings.  The group evaluates the nodes
each circle's own pass would, so every sample is that pass's bit for bit.
`ladder_samples.json` holds every field of these ladders as the per-sample
passes gave them, one `log_line_integral` per sample, before ladders were
grouped.
"""

import importlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from branchpoint_lab import (
    CantorSet,
    MinimizerSpec,
    Polynomial,
    QuadConfig,
    SeriesParams,
    SeriesProduct,
    SmoothBlock,
    frequency,
    frequency_curve,
)
from branchpoint_lab.errors import ConvergenceError, DegenerateMassError

_FREQ = importlib.import_module("branchpoint_lab.frequency")
_RECORDED = json.loads(Path(__file__).with_name("ladder_samples.json").read_text())
_BRANCH_POINT = 0.0432139 + 0j


def _product():
    return MinimizerSpec(h=SeriesProduct(params=SeriesParams(s=0.5, max_gen=12),
                                         cs=CantorSet.build(0.5, 12)), Q=3)


# name: (spec, centre, ascending radii[, config])
_LADDERS = {
    # anchor_quad's polynomial ladders: first rings 32-128 and 32-512
    "poly0": (lambda: MinimizerSpec(h=Polynomial(coeffs=(0.3, 1.0)), Q=2), 0j,
              np.geomspace(0.05, 0.25, 8)),
    "poly1": (lambda: MinimizerSpec(h=Polynomial(coeffs=(0.0, 0.0, -0.5, 1.0)), Q=2), 0.1 + 0j,
              np.geomspace(0.04, 0.3, 8)),
    # about the branch point z_1: five circles on one 32-node first ring,
    # and first rings 32-256 out to 0.9 of the distance to the set
    "bp5": (_product, _BRANCH_POINT, [0.01294 / 4**k for k in range(4, -1, -1)]),
    "bp7": (_product, _BRANCH_POINT,
            [0.0431 * f for f in (0.001, 0.01, 0.1, 0.3, 0.6, 0.8, 0.9)]),
    # full circles (two on 32 nodes, one on 128) and two clipped arcs
    "mixed": (lambda: MinimizerSpec(h=SmoothBlock(alpha=0.5), Q=2), 0.1 + 0j,
              [0.02, 0.05, 0.08, 0.15, 0.3]),
}
# circles of one group that stop on different levels: at rel_tol 1e-12 the
# sixth circle of poly0 and the second of mixed take a third ring
_TIGHT = QuadConfig(rel_tol=1e-12)
_LADDERS.update({f"{name}_tight": (*_LADDERS[name], _TIGHT) for name in ("poly0", "mixed")})


def _ladder(name):
    spec, center, radii, *config = _LADDERS[name]
    return spec(), center, [float(r) for r in radii], (config or [None])[0]


def _fields(fs):
    return [repr(getattr(fs, f)) for f in _RECORDED["fields"]]


@pytest.mark.parametrize("name", list(_LADDERS))
def test_ladder_is_its_per_sample_passes_bit_for_bit(name):
    """Every field of every sample (I, its error, D, H, their logs, I' and
    its error) is the recorded per-sample pass's and `frequency`'s at that
    radius, bit for bit, and the samples come in the ladder's order.  I'
    holds only where each circle's C ends on its own circle's last level."""
    spec, center, radii, config = _ladder(name)
    curve = frequency_curve(spec, center, radii, config)
    assert [fs.radius for fs in curve] == radii
    assert [_fields(fs) for fs in curve] == _RECORDED[name]
    assert [_fields(frequency(spec, center, r, config)) for r in radii] == _RECORDED[name]


@pytest.mark.parametrize("name", list(_LADDERS))
def test_one_line_integral_per_first_ring(monkeypatch, name):
    """One `log_line_integral` per distinct first ring, at the ladder's
    first radius on it, and one of its own per clipped arc (with the
    chord's)."""
    spec, center, radii, config = _ladder(name)
    n0 = [_FREQ._first_ring(spec, center, r) for r in radii]
    meshes = []
    integral = _FREQ.log_line_integral

    def counted(L, mesh, *args, **kwargs):
        meshes.append(mesh if np.ndim(mesh) == 0 else None)
        return integral(L, mesh, *args, **kwargs)

    monkeypatch.setattr(_FREQ, "log_line_integral", counted)
    frequency_curve(spec, center, radii, config)
    rings = list(dict.fromkeys(n for n in n0 if n is not None))
    assert [m for m in meshes if m is not None] == rings
    # a clipped arc's pass and its chord's
    assert meshes.count(None) == 2 * n0.count(None)


def _failing(monkeypatch, fail):
    """Patch `log_line_integral` so that circle k (by its index in the
    ladder) of each ring group gets part i replaced by `fail[k] = (i,
    part)`."""
    integral = _FREQ.log_line_integral
    seen = []

    def patched(L, mesh, cfgs, **kwargs):
        parts = integral(L, mesh, cfgs, **kwargs)
        first = len(seen)
        seen.extend([mesh] * (len(parts) // 3))
        for k, (i, part) in fail.items():
            if first <= k < len(seen):
                parts[3 * (k - first) + i] = part
        return parts

    monkeypatch.setattr(_FREQ, "log_line_integral", patched)


def test_first_failing_radius_raises_its_convergence_error(monkeypatch):
    # poly0's first six circles share the 32-node ring: circle 1's D fails
    # before circle 3's H vanishes, both in one pass
    spec, center, radii, _ = _ladder("poly0")
    _failing(monkeypatch, {1: (1, ConvergenceError("D of circle 1")),
                           3: (0, (-math.inf, 0.0))})
    with pytest.raises(ConvergenceError, match="D of circle 1"):
        frequency_curve(spec, center, radii)


def test_first_failing_radius_raises_its_degenerate_mass(monkeypatch):
    # circle 2's H vanishes in the first group's pass; circle 6, on the
    # 64-node ring, fails later in the ladder and is never reached
    spec, center, radii, _ = _ladder("poly0")
    _failing(monkeypatch, {2: (0, (-math.inf, 0.0)),
                           6: (0, ConvergenceError("H of circle 6"))})
    with pytest.raises(DegenerateMassError, match=f"r = {radii[2]}"):
        frequency_curve(spec, center, radii)
    _failing(monkeypatch, {6: (0, ConvergenceError("H of circle 6"))})
    with pytest.raises(ConvergenceError, match="H of circle 6"):
        frequency_curve(spec, center, radii)


def test_a_circle_that_fails_in_a_group_raises_its_own_error():
    # with one refinement the sixth circle of poly0's 32-node group needs a
    # third ring at rel_tol 1e-12 and fails, as does the eighth; the ladder
    # raises the sixth's ConvergenceError, that of its own sample
    spec, center, radii, _ = _ladder("poly0")
    config = QuadConfig(rel_tol=1e-12, max_refine=1)
    with pytest.raises(ConvergenceError) as got:
        frequency_curve(spec, center, radii, config)
    for r in radii[:5]:
        frequency(spec, center, r, config)
    with pytest.raises(ConvergenceError) as want:
        frequency(spec, center, radii[5], config)
    assert got.value.estimates == want.value.estimates and len(want.value.estimates) == 2


def test_almgren_check_sees_every_ladder_sample(monkeypatch):
    """The suite's monotonicity check (conftest.py) sits where every sample
    is made, so it sees the samples of a ring group too: a negative slope
    there fails it."""
    spec, center, radii, _ = _ladder("bp5")
    monkeypatch.setattr(_FREQ, "_slope", lambda *args: (-1.0, 0.0))
    with pytest.raises(AssertionError, match="I' = -1.0 < 0"):
        frequency_curve(spec, center, radii)
