#!/usr/bin/env python3
"""Layer bench of the series: F and G in µs per point, w^-a in ns per element,
contour derivatives in µs per derivative.

    python3 bench/series_layers.py                      # print the JSON entry
    python3 bench/series_layers.py --label change --out BENCH_series.json
    python3 bench/series_layers.py --src ../parent/src --label parent --out BENCH_series.json
    python3 bench/series_layers.py --quick              # a few seconds, for CI

Times `decay_exponent_many` (F) on POINTS points, seeded by SEED, in the
half-disk of radius R_2 about the boundary point 0 (the E1 ladder's first
rung, s = 0.5), for max_gen 12, 16 and 20, far_tol POINT_FAR_TOL and
FAR_TOL, with and without F', and the same rows at s = 0.75 (max_gen 16,
in that set's own R_2 half-disk); F with F' at max_gen 20 over the opening
ratios SWEEP, the trade of pairs per point against the far-field order;
`log_cosine_product_many` (the cosine product G, which shares F's walk at
its own opening ratio _COSINE_FAR_TOL) on the s = 0.5 points and max_gens,
with and without G'/G; `logcomplex.neg_power` on 8,192-element arrays; and
`derivative` of `decay_factor` and `branched_product` (s = 0.5, max_gen 8,
as in perfbench's `pointwise`) at CONTOUR_PROBES, orders 1-3 asked for one
at a time at each probe, with the evaluator calls and nodes they take.  Each time is the
best of REPEATS calls after one warm-up call, in reference seconds as in
perfbench (perfbench/speed.py: wall time scaled by the host's speed, which a
fixed probe samples while the call runs).  Beside the times it records
what does not depend on the machine: the walk's pairs per point, its far and
near pairs, and the answers (sums of F and F' or of log|G| and G'/G,
largest bound, derivatives and their error figures), so a speed-up that
moves an answer shows at once.  --out merges the entry into a JSON file
under --label, so two checkouts measured on one machine sit side by side.
--quick (max_gen 12 for the s = 0.5 rows, 200 points, 2 repeats; the
s = 0.75 rows, the sweep and the contour layer whole) only checks that the
script still runs.
"""

from __future__ import annotations

import math
import sys

import harness  # before NumPy: it pins the thread pools
import numpy as np
from speed import SpeedSampler

POINTS = 2240
SEED = 0
REPEATS = 9
MAX_GENS = (12, 16, 20)
# F rows at s = 0.75: (s, max_gen)
OTHER_S = ((0.75, 16),)
# opening ratios of the far_tol sweep (F with F', s = 0.5, max_gen SWEEP_GEN)
SWEEP = (0.25, 0.3, 0.35, 0.4, 0.45, 0.5)
SWEEP_GEN = 20
# contour centres in perfbench pointwise's probe box (Re 0.6-1.2, |Im| <= 0.4)
CONTOUR_PROBES = (0.9 + 0.1j, 0.7 - 0.3j, 1.1 + 0.35j)
CONTOUR_GEN = 8


def _points(n: int, seed: int, s: float = 0.5) -> np.ndarray:
    """n seeded points, uniform in the right half-disk of radius R_2 about 0
    (R_2 of the set with ratio parameter s)."""
    from branchpoint_lab.frequency import gap_centered_radii

    rng = np.random.default_rng(seed)
    r = gap_centered_radii(s, 2) * np.sqrt(rng.uniform(0.0, 1.0, n))
    return r * np.exp(1j * rng.uniform(-0.5 * math.pi, 0.5 * math.pi, n))


def _best(fn, repeats: int, sampler: SpeedSampler) -> float:
    """Least reference seconds of `repeats` calls, after a warm-up call."""
    fn()  # tables and caches
    return min(sampler.timed(fn)[2] for _ in range(repeats))


def _walk_counts(series, run) -> dict:
    """Far and near pairs of the tree walk during run(), summed over generations."""
    counts = {"far": 0, "near": 0}
    walk = series._tree_walk

    def counted(*args, **kwargs):
        for pairs in walk(*args, **kwargs):
            yield pairs
            far = pairs[-1]  # after the caller has opened or closed pairs
            counts["far"] += int(far.sum())
            counts["near"] += int(far.size - far.sum())

    series._tree_walk = counted
    try:
        run()
    finally:
        series._tree_walk = walk
    return counts


def _sums(*arrays) -> list:
    """Each array's sum, [re, im] if complex (None for a missing array)."""
    return [None if v is None else [float(v.sum().real), float(v.sum().imag)]
            if np.iscomplexobj(v) else float(v.sum()) for v in arrays]


def measure_contour(repeats: int, sampler: SpeedSampler) -> list:
    """`derivative` for orders 1-3 at each probe, one name at a time: µs per
    derivative, the evaluator calls and nodes of one run, and the answers."""
    from branchpoint_lab import CantorSet, SeriesParams, series

    params = SeriesParams(s=0.5, max_gen=CONTOUR_GEN)
    cs = CantorSet.build(0.5, CONTOUR_GEN)
    cases = [(z, m) for z in CONTOUR_PROBES for m in (1, 2, 3)]
    rows = []
    for name in ("decay_factor", "branched_product"):
        def run():
            return [series.derivative(params, cs, name, z, m) for z, m in cases]

        best = _best(run, repeats, sampler)
        calls = []
        make = series.function_evaluator

        def counted(*args, **kwargs):
            fn = make(*args, **kwargs)

            def node(zs):
                calls.append(np.size(zs))
                return fn(zs)

            return node

        series.function_evaluator = counted
        try:
            out = run()
        finally:
            series.function_evaluator = make
        rows.append({
            "function": name, "max_gen": CONTOUR_GEN, "derivatives": len(cases),
            "us_per_derivative": round(1e6 * best / len(cases), 2),
            "evaluator_calls": len(calls), "nodes": int(sum(calls)),
            "answers": [{"z": [z.real, z.imag], "m": m, "re": v.real, "im": v.imag, "err": e}
                        for (z, m), (v, e) in zip(cases, out)],
        })
    return rows


def measure(max_gens, n_points: int, repeats: int, sampler: SpeedSampler) -> dict:
    from branchpoint_lab import CantorSet, SeriesParams, series
    from branchpoint_lab.logcomplex import neg_power

    zs = _points(n_points, SEED)
    rows, sweep = [], []

    def row(out, zs, run, answers, **key):
        best = _best(run, repeats, sampler)
        counts = _walk_counts(series, run)
        out.append({
            **key,
            "us_per_point": round(1e6 * best / zs.size, 4),
            "pairs_per_point": round((counts["far"] + counts["near"]) / zs.size, 4),
            "far_pairs": counts["far"], "near_pairs": counts["near"],
            **answers(run()),
        })

    def f_row(out, s, max_gen, zs, tol, with_deriv, **key):
        params = SeriesParams(s=s, max_gen=max_gen)
        cs = CantorSet.build(s, max_gen)
        row(out, zs,
            lambda: series.decay_exponent_many(
                params, cs, zs, with_deriv=with_deriv, far_tol=tol),
            lambda out: dict(zip(("sum_F", "sum_Fp"), _sums(*out[:2])),
                             ferr_max=float(out[2].max())),
            function="F", s=s, max_gen=max_gen, with_deriv=with_deriv, **key)

    cases = [(0.5, max_gen, zs) for max_gen in max_gens]
    cases += [(s, max_gen, _points(n_points, SEED, s)) for s, max_gen in OTHER_S]
    for s, max_gen, pts in cases:
        for tol_name in ("POINT_FAR_TOL", "FAR_TOL"):
            for with_deriv in (False, True):
                f_row(rows, s, max_gen, pts, getattr(series, tol_name), with_deriv,
                      far_tol=tol_name)
    for max_gen in max_gens:
        params = SeriesParams(s=0.5, max_gen=max_gen)
        cs = CantorSet.build(0.5, max_gen)
        for with_deriv in (False, True):
            row(rows, zs,
                lambda: series.log_cosine_product_many(params, cs, zs, with_deriv=with_deriv),
                lambda out: dict(zip(("sum_log_abs", "sum_dlog"), _sums(out[0], out[3])),
                                 rem_max=float(out[4].max())),
                function="G", s=0.5, max_gen=max_gen, far_tol="_COSINE_FAR_TOL",
                with_deriv=with_deriv)
    for far_tol in SWEEP:
        f_row(sweep, 0.5, SWEEP_GEN, zs, far_tol, True, far_tol=far_tol,
              order=series.expansion_order(far_tol, SeriesParams(s=0.5).alpha))
    rng = np.random.default_rng(SEED)
    lr = rng.uniform(-20.0, 20.0, 8192)
    th = rng.uniform(-math.pi, math.pi, 8192)
    power = {}
    for alpha in (0.75, 1.0, 1.75):
        best = _best(lambda: neg_power(lr, th, alpha), 20 * repeats, sampler)
        power[str(alpha)] = round(1e9 * best / lr.size, 3)
    return {
        "points": zs.size, "seed": SEED, "repeats": repeats,
        "series": rows, "far_tol_sweep": sweep, "neg_power_ns_per_element": power,
        "contour": measure_contour(repeats, sampler),
    }


def run(quick: bool, sampler: SpeedSampler) -> dict:
    if quick:
        return measure((12,), 200, 2, sampler)
    return measure(MAX_GENS, POINTS, REPEATS, sampler)


if __name__ == "__main__":
    sys.exit(harness.main(__doc__, "max_gen 12 for the s = 0.5 rows, 200 points, 2 repeats",
                          run))
