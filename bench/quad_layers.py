#!/usr/bin/env python3
"""Layer bench of the quadrature: disk integrals (arc meshes in µs per
radial node, node assembly in ns per node, integrand nodes per second),
the blocks' D on half-disks and the arc samples of `frequency`.

    python3 bench/quad_layers.py                      # print the JSON entry
    python3 bench/quad_layers.py --label change --out BENCH_quad.json
    python3 bench/quad_layers.py --src ../parent/src --label parent --out BENCH_quad.json
    python3 bench/quad_layers.py --quick              # a few seconds, for CI

Times the disk integrals of the two perfbench workloads that run them:
the innermost disk of `mass_curve` (the log L2 mass of `RealPartTarget`, s
= 0.5, max_gen 18, R = 10^-1.1, `QuadConfig(rel_tol=1e-3, order=10,
max_refine=6)`, through `log_mass`) and the R_2 energy disk of
`cantor_ladder` (D of exp(-F), s = 0.5, max_gen 20, Q = 3, about 0, R_2 =
0.1458, `QuadConfig(rel_tol=0.25, order=10, max_refine=2)`, through
`log_dirichlet_energy`), with the angular-mesh callable of `polar_mesh`
and the integrand of `log_disk_integral` wrapped in timers, so the split
does not depend on how a checkout meshes its arcs:

- mesh_us_per_radial_node: time in the angular-mesh callable over the
  radial nodes whose rings the integral visits (rings x order);
- assembly_ns_per_node: the rest of the disk integral, less the integrand,
  per integrand node;
- nodes_per_s: integrand nodes over the whole disk integral.

Each figure comes from the fastest of REPEATS runs after one warm-up run,
in reference seconds as in perfbench (perfbench/speed.py: wall time scaled
by the host's speed, which a fixed probe samples while the run goes on);
the split of that run is scaled alike.  Beside the times it records what
does not depend on the machine: rings visited, radial nodes meshed,
integrand nodes, each level's integrand nodes and frozen rings (the radial
panels of the level inside its frozen block, `_quad._disk_level`'s `stop`;
0 on a checkout without the freeze) and the answers (log D or log mass and
their log-errors), so a speed-up that moves an answer shows at once.
--out merges the entry into a JSON file under --label, so two checkouts
measured on one machine sit side by side.  --quick (2 repeats) only checks that the script runs.

It times D of the `SmoothBlock(0.5)` half-disks (Q = 2, R = 0.2, 0.1,
0.05, the default config of `frequency`), as `anchor_quad` takes them,
through `log_dirichlet_energy`: by Green's identity, a line integral on the
clipped arc and one on the chord on the imaginary axis.  Each row records
the time, the integrand nodes of the line integrals, the level at which
each of them stops, the integrand nodes of any disk integral (a checkout
that still takes these D from the disk) and log D with its log-error.

It also times arc samples of `frequency`, where H and D are integrals on
the arc, full circles all, through `frequency_curve`: the two polynomial
ladders of `anchor_quad` (Q = 2, 8 rungs each), the branch-point samples
of the `SeriesProduct` (s = 0.5, max_gen 12, Q = 3, centre 0.0432139, r =
0.01294, r/4 and r/16, one sample each), the ladder of the five radii
0.01294/4^k, k = 0..4, about that point (one 32-node first ring) and the
ladder of the radii 0.0431 x (0.001, 0.01, 0.1, 0.3, 0.6, 0.8, 0.9)
(first rings 32-256).  Each row records the time, the integrand nodes and
calls of the line integrals that `frequency_curve` makes
(`log_line_integral`, wrapped where the module calls it, on rings and
panels alike; nodes are circles x angles, the circles of a ring group
sharing each call), the level at which H and D each stop (from their
one-part integrals, `log_boundary_mass` and `log_dirichlet_energy`) and
the answers: I, its error, log H and log D.
"""

from __future__ import annotations

import importlib
import sys
import time

import harness  # before NumPy: it pins the thread pools
import numpy as np
from speed import SpeedSampler

REPEATS = 7
BLOCK_RADII = (0.2, 0.1, 0.05)
MASS_RADIUS = 10.0 ** (-1.1)
# anchor_quad's polynomial ladders: (coefficients, centre, (r_min, r_max)), 8 rungs
LADDERS = [((0.3, 1.0), 0.0, (0.05, 0.25)), ((0.0, 0.0, -0.5, 1.0), 0.1, (0.04, 0.3))]
BRANCH_POINT = (0.0432139, (0.01294, 0.01294 / 4, 0.01294 / 16))
# ladders about the branch point: one first ring, and first rings 32-256
BRANCH_LADDERS = [("branch point ladder r=0.01294/4^k", [0.01294 / 4**k for k in range(4, -1, -1)]),
                  ("branch point ladder n0=32-256",
                   [0.0431 * f for f in (0.001, 0.01, 0.1, 0.3, 0.6, 0.8, 0.9)])]
# cantor_ladder's energy disk at R_2 = gap_centered_radii(0.5, 2)
LADDER_GEN, LADDER_RUNG = 20, 2


class Split:
    """Wall seconds of the disk integrals, their arc meshes and integrands,
    with the counts of rings, meshed radial nodes and integrand nodes, and
    [integrand nodes, frozen rings] per level."""

    def __init__(self):
        self.clear()

    def clear(self):
        self.disk_s = self.mesh_s = self.integrand_s = 0.0
        self.rings = self.meshed = self.nodes = 0
        self.levels = []

    def install(self, freq, van, quad):
        """Wrap `polar_mesh` and `log_disk_integral` where the modules call
        them, and `_quad._disk_level`, one call per level."""
        split = self
        polar_mesh = freq.polar_mesh
        disk = freq.log_disk_integral
        disk_level = quad._disk_level

        def counted_level(*args, **kwargs):
            split.levels.append([0, kwargs.get("stop", 0)])
            return disk_level(*args, **kwargs)

        def timed_mesh(*args, **kwargs):
            r_edges, mesh, inner = polar_mesh(*args, **kwargs)

            def arcs(rho):
                t0 = time.perf_counter()
                out = mesh(rho)
                split.mesh_s += time.perf_counter() - t0
                split.meshed += np.size(rho)
                return out

            return r_edges, arcs, inner

        def timed_disk(L_fn, *args, **kwargs):
            def L(zs):
                t0 = time.perf_counter()
                out = L_fn(zs)
                split.integrand_s += time.perf_counter() - t0
                split.rings += 1
                split.nodes += zs.size
                split.levels[-1][0] += zs.size
                return out

            t0 = time.perf_counter()
            out = disk(L, *args, **kwargs)
            split.disk_s += time.perf_counter() - t0
            return out

        for mod in (freq, van):
            mod.polar_mesh = timed_mesh
            mod.log_disk_integral = timed_disk
        quad._disk_level = counted_level


def measure_case(name, run, order, repeats, sampler, split) -> dict:
    run()  # tables and caches
    best = None
    for _ in range(repeats):
        split.clear()
        out, wall, ref = sampler.timed(run)
        if best is None or ref < best[0]:
            best = (ref, ref / wall, out, split.disk_s, split.mesh_s, split.integrand_s,
                    split.rings, split.meshed, split.nodes, split.levels)
    _, scale, (value, err), disk_s, mesh_s, integrand_s, rings, meshed, nodes, levels = best
    assembly_s = disk_s - mesh_s - integrand_s
    return {
        "case": name,
        "disk_ms": round(1e3 * scale * disk_s, 3),
        "mesh_us_per_radial_node": round(1e6 * scale * mesh_s / (rings * order), 3),
        "assembly_ns_per_node": round(1e9 * scale * assembly_s / nodes, 2),
        "nodes_per_s": round(nodes / (scale * disk_s)),
        "rings": rings, "radial_nodes_meshed": meshed, "nodes": nodes,
        "nodes_per_level": [n for n, _ in levels],
        "frozen_rings_per_level": [k for _, k in levels],
        "log_value": value, "log_err": err,
    }


class LineCount:
    """Integrand nodes and calls of the line integrals a module makes (one
    integrand call per level, on rings and panels alike), and the calls of
    each integral in `levels`.  A call's nodes are its angles times its
    circles: the parts without a config, one C per circle of a ring group,
    or one circle where there are none."""

    def __init__(self, freq):
        self.clear()
        freq.log_line_integral = self._counted(freq.log_line_integral)

    def _counted(self, integral):
        def counted(L_fn, mesh, cfg, *args, **kwargs):
            self.levels.append(0)
            cfgs = cfg if isinstance(cfg, (list, tuple)) else [cfg]
            circles = max(1, cfgs.count(None))

            def L(th):
                self.nodes += th.size * circles
                self.calls += 1
                self.levels[-1] += 1
                return L_fn(th)

            return integral(L, mesh, cfg, *args, **kwargs)

        return counted

    def clear(self):
        self.nodes = self.calls = 0
        self.levels = []


def stop_level(count, integral) -> int:
    """The level at which a one-part line integral stops."""
    integral()
    return count.levels[-1] - 1


def measure_line(name, run, repeats, sampler, count, split) -> dict:
    """A D of line integrals: its fastest run, the nodes and stop level of
    each line integral, and the nodes of any disk integral."""
    run()
    best = None
    for _ in range(repeats):
        count.clear()
        split.clear()
        out, _, ref = sampler.timed(run)
        if best is None or ref < best[0]:
            best = (ref, count.nodes, count.levels, split.nodes, out)
    ref, nodes, levels, disk_nodes, (value, err) = best
    return {
        "case": name, "ms": round(1e3 * ref, 3), "integrand_nodes": nodes,
        "stop_levels": [n - 1 for n in levels], "disk_nodes": disk_nodes,
        "log_value": value, "log_err": err,
    }


def measure_arcs(name, spec, center, radii, repeats, sampler, freq, count) -> dict:
    run = lambda: freq.frequency_curve(spec, center, radii)  # noqa: E731
    run()
    best = None
    for _ in range(repeats):
        count.clear()
        curve, _, ref = sampler.timed(run)
        if best is None or ref < best[0]:
            best = (ref, count.nodes, count.calls, curve)
    ref, nodes, calls, curve = best
    return {
        "case": name, "ms": round(1e3 * ref, 3), "samples": len(radii),
        "integrand_nodes": nodes, "integrand_calls": calls,
        "stop_level_H": [stop_level(count, lambda: freq.log_boundary_mass(spec, center, r))
                         for r in radii],
        "stop_level_D": [stop_level(count, lambda: freq.log_dirichlet_energy(spec, center, r))
                         for r in radii],
        "answers": [{"r": fs.radius, "I": fs.I, "err": fs.quadrature_error,
                     "log_H": fs.log_H, "log_D": fs.log_D} for fs in curve],
    }


def measure(quick: bool, sampler: SpeedSampler) -> dict:
    freq = importlib.import_module("branchpoint_lab.frequency")
    van = importlib.import_module("branchpoint_lab.vanishing")
    quad = importlib.import_module("branchpoint_lab._quad")
    from branchpoint_lab import CantorSet, QuadConfig, SeriesParams

    repeats = 2 if quick else REPEATS
    split = Split()
    split.install(freq, van, quad)
    params = SeriesParams(s=0.5, max_gen=18)
    target = van.RealPartTarget(params=params, cs=CantorSet.build(0.5, 18))
    mass_cfg = QuadConfig(rel_tol=1e-3, order=10, max_refine=6)
    rows = [measure_case(
        f"mass_curve innermost disk R={MASS_RADIUS:.6g}",
        lambda: van.log_mass(target, 0j, MASS_RADIUS, mass_cfg),
        mass_cfg.order, repeats, sampler, split,
    )]
    ladder = freq.MinimizerSpec(
        h=freq.SeriesFactor(params=SeriesParams(s=0.5, max_gen=LADDER_GEN),
                            cs=CantorSet.build(0.5, LADDER_GEN)), Q=3)
    ladder_cfg = QuadConfig(rel_tol=0.25, order=10, max_refine=2)
    R = freq.gap_centered_radii(0.5, LADDER_RUNG)
    rows.append(measure_case(
        f"cantor_ladder energy disk R_{LADDER_RUNG}={R:.6g}",
        lambda: freq.log_dirichlet_energy(ladder, 0j, R, ladder_cfg),
        ladder_cfg.order, repeats, sampler, split,
    ))
    count = LineCount(freq)
    block = freq.MinimizerSpec(h=freq.SmoothBlock(alpha=0.5), Q=2)
    block_cfg = QuadConfig(rel_tol=1e-6)
    lines = [
        measure_line(f"smooth_block D R={R}",
                     lambda R=R: freq.log_dirichlet_energy(block, 0j, R, block_cfg),
                     repeats, sampler, count, split)
        for R in BLOCK_RADII
    ]
    arcs = [
        measure_arcs(f"poly{j} ladder", freq.MinimizerSpec(h=freq.Polynomial(coeffs=coeffs), Q=2),
                     complex(c), [float(r) for r in np.geomspace(lo, hi, 8)],
                     repeats, sampler, freq, count)
        for j, (coeffs, c, (lo, hi)) in enumerate(LADDERS)
    ]
    product = freq.SeriesProduct(params=SeriesParams(s=0.5, max_gen=12),
                                 cs=CantorSet.build(0.5, 12))
    center, radii = BRANCH_POINT
    arcs += [measure_arcs(f"branch point r={r:.6g}", freq.MinimizerSpec(h=product, Q=3),
                          complex(center), [r], repeats, sampler, freq, count)
             for r in radii]
    arcs += [measure_arcs(name, freq.MinimizerSpec(h=product, Q=3), complex(center), ladder,
                          repeats, sampler, freq, count)
             for name, ladder in BRANCH_LADDERS]
    return {"repeats": repeats, "disks": rows, "block_D": lines, "arcs": arcs}


if __name__ == "__main__":
    sys.exit(harness.main(__doc__, "2 repeats", measure))
