"""The four benchmark workloads: inputs from a seed, passes, answer checks.

Every call goes through the package's module objects at call time, so the
tracer's replacements are the ones that run.  An operation is one checked
answer; it fails when its call raises or its answer misses a check.
"""

from __future__ import annotations

import cmath
import importlib
import itertools
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

cantor = importlib.import_module("branchpoint_lab.cantor")
series = importlib.import_module("branchpoint_lab.series")
quad = importlib.import_module("branchpoint_lab._quad")
freq = importlib.import_module("branchpoint_lab.frequency")
van = importlib.import_module("branchpoint_lab.vanishing")
cli = importlib.import_module("branchpoint_lab.cli")

DEFAULT_SEED = 0
OUT_DIR = Path(__file__).resolve().parent / "out"
ERR_FLOOR = 1e-12
# slack of the acceptance gate on consecutive vanishing-order slopes
SLOPE_SLACK = 0.1
# the contour loop's default convergence tolerance (relative)
CONTOUR_REL_TOL = 1e-9


@dataclass
class Tally:
    """Operations attempted and failed in one pass, with the reasons."""

    tracer: object = None
    attempted: int = 0
    failed: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    err: float = ERR_FLOOR  # largest reported error figure, relative

    def call(self, labels, fn):
        """Run one library call that answers the operations in `labels`."""
        labels = [labels] if isinstance(labels, str) else list(labels)
        self.attempted += len(labels)
        if self.tracer is not None:
            self.tracer.op = self.attempted
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - a raising operation is a failed one
            for label in labels:
                self.fail(label, f"raised {type(exc).__name__}: {exc}")
            self.problems.append(traceback.format_exc(limit=3))
            return None

    def fail(self, label: str, why: str) -> None:
        if label not in self.failed:
            self.failed.add(label)
            self.problems.append(f"{label}: {why}")

    def check(self, label: str, ok: bool, why: str) -> None:
        if not ok:
            self.fail(label, why)

    def error_figure(self, label: str, err: float, answer: float) -> None:
        rel = abs(err) / abs(answer) if answer != 0.0 else math.inf
        if not math.isfinite(rel):
            self.fail(label, f"error figure {err!r} on answer {answer!r} is not finite")
            return
        self.err = max(self.err, rel)


def _within(got: float, want: float, tol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= tol


def _check_recorded(tally: Tally, label: str, got: float, err: float, want: dict) -> None:
    """I within its own reported error plus the recorded answer's error."""
    tally.check(label, _within(got, want["I"], err + want["err"]),
                f"I = {got!r} vs recorded {want['I']!r}")


def _warm_quadrature(cfg) -> None:
    """Fill the Gauss-Legendre cache (and scipy's lazy imports) for `cfg`."""
    quad.log_line_integral(np.zeros_like, np.array([0.0, 1.0]), cfg)


# ---------------------------------------------------------------------------
# cantor_ladder: I(R_n) of h = exp(-F) along gap-centered radii
# ---------------------------------------------------------------------------


class CantorLadder:
    SIZES = {"full": dict(max_gen=20, order=10), "tiny": dict(max_gen=6, order=4)}
    RUNGS = (2, 3)

    def __init__(self, seed: int, size: str, ref: dict | None):
        p = self.SIZES[size]
        # 0 is the one low-generation left endpoint at which this ladder is
        # steady: 0.75 also keeps R_n, n >= 2, inside a gap but costs ~15%
        # more per rung, and deeper endpoints need n past their own gap.
        self.center = 0j
        self.params = series.SeriesParams(s=0.5, max_gen=p["max_gen"])
        self.cs = cantor.CantorSet.build(0.5, p["max_gen"])
        self.spec = freq.MinimizerSpec(h=freq.SeriesFactor(params=self.params, cs=self.cs), Q=3)
        self.cfg = quad.QuadConfig(rel_tol=0.25, order=p["order"], max_refine=2)
        self.ref = ref
        _warm_quadrature(self.cfg)

    def run_pass(self, tally: Tally) -> dict:
        rungs = []
        prev = None
        for i, n in enumerate(self.RUNGS):
            label = f"I(R_{n})"
            r = freq.gap_centered_radii(0.5, n)
            fs = tally.call(
                label, lambda: freq.frequency(self.spec, self.center, r, self.cfg, log_scale=True)
            )
            if fs is None:
                prev = None
                continue
            tally.check(label, math.isfinite(fs.I) and fs.I > 0.0, f"I = {fs.I!r}")
            tally.error_figure(label, fs.quadrature_error, fs.I)
            if prev is not None:
                tally.check(label, fs.I > prev.I, f"I = {fs.I!r} not above {prev.I!r}")
            if self.ref is not None:
                _check_recorded(tally, label, fs.I, fs.quadrature_error, self.ref["rungs"][i])
            rungs.append({"n": n, "R": r, "I": fs.I, "err": fs.quadrature_error,
                          "log_D": fs.log_D, "log_H": fs.log_H})
            prev = fs
        return {"center": [self.center.real, self.center.imag], "rungs": rungs}


# ---------------------------------------------------------------------------
# mass_curve: logMass of (Re exp(-F))^2 over shrinking half-disks
# ---------------------------------------------------------------------------


def _slope_error(radii, errs) -> float:
    """Bound on a least-squares slope's change from the log-mass errors."""
    x = np.log(radii)
    c = (x - x.mean()) / np.sum((x - x.mean()) ** 2)
    return float(np.sum(np.abs(c) * np.asarray(errs)))


class MassCurve:
    SIZES = {"full": dict(max_gen=18, order=10), "tiny": dict(max_gen=6, order=4)}
    RUNGS = 4
    WIDTH = 3

    def __init__(self, seed: int, size: str, ref: dict | None):
        p = self.SIZES[size]
        # the curve at every other low-generation endpoint bends at these
        # radii (the far half of the set), so the center is not seeded
        self.center = 0j
        self.params = series.SeriesParams(s=0.5, max_gen=p["max_gen"])
        self.cs = cantor.CantorSet.build(0.5, p["max_gen"])
        self.target = van.RealPartTarget(params=self.params, cs=self.cs)
        self.cfg = quad.QuadConfig(rel_tol=1e-3, order=p["order"], max_refine=6)
        self.radii = [10.0 ** (-0.5 - 0.2 * k) for k in range(self.RUNGS)]
        self.ref = ref
        _warm_quadrature(self.cfg)

    def run_pass(self, tally: Tally) -> dict:
        labels = [f"logMass(R_{k})" for k in range(self.RUNGS)]

        def compute():
            curve = van.mass_curve(self.target, self.center, self.radii, self.cfg)
            return curve, van.sliding_window_slopes(curve, self.WIDTH)

        out = tally.call(labels, compute)
        if out is None:
            return {}
        curve, slopes = out
        for i, label in enumerate(labels):
            lm, e = curve.log_mass[i], curve.quadrature_errors[i]
            tally.check(label, math.isfinite(lm), f"logMass = {lm!r}")
            # a log-error is the relative error of the mass itself
            tally.error_figure(label, e, 1.0)
            if self.ref is not None:
                want, want_e = self.ref["log_mass"][i], self.ref["err"][i]
                tally.check(label, _within(lm, want, e + want_e),
                            f"logMass = {lm!r} vs recorded {want!r}")
        for i in range(1, len(slopes)):
            tally.check(labels[i + self.WIDTH - 1], slopes[i] >= slopes[i - 1] - SLOPE_SLACK,
                        f"slope {slopes[i]!r} fell below {slopes[i - 1]!r}")
        if self.ref is not None:
            lo = len(self.radii) - self.WIDTH
            tol = _slope_error(self.radii[lo:], curve.quadrature_errors[lo:]) + _slope_error(
                self.radii[lo:], self.ref["err"][lo:]
            )
            want = self.ref["slopes"][-1]
            tally.check(labels[-1], slopes[-1] >= want - tol,
                        f"deepest slope {slopes[-1]!r} short of recorded {want!r}")
        return {"center": [self.center.real, self.center.imag], "radii": self.radii,
                "log_mass": list(curve.log_mass), "err": list(curve.quadrature_errors),
                "slopes": slopes}


# ---------------------------------------------------------------------------
# anchor_quad: closed-form anchors (cheap integrands, quadrature-bound)
# ---------------------------------------------------------------------------


class AnchorQuad:
    SIZES = {
        "full": dict(
            monomials=[(1, 2, 0.25), (1, 2, 0.5), (3, 2, 0.25), (3, 2, 0.5), (2, 3, 0.25),
                       (2, 3, 0.5)],
            ladders=[((0.3, 1.0), 0.0, (0.05, 0.25)), ((0.0, 0.0, -0.5, 1.0), 0.1, (0.04, 0.3))],
            ladder_rungs=8,
            block_radii=(0.2, 0.1, 0.05),
        ),
        "tiny": dict(
            monomials=[(1, 2, 0.25)],
            ladders=[((0.3, 1.0), 0.0, (0.05, 0.25))],
            ladder_rungs=3,
            block_radii=(0.2, 0.1),
        ),
    }

    def __init__(self, seed: int, size: str, ref: dict | None):
        # the anchors are closed-form cases; the seed changes nothing here
        p = self.SIZES[size]
        self.monomials = [(P, Q, r, freq.MinimizerSpec(h=freq.Monomial(P=P), Q=Q))
                          for P, Q, r in p["monomials"]]
        self.ladders = [
            (freq.MinimizerSpec(h=freq.Polynomial(coeffs=coeffs), Q=2), complex(c),
             [float(r) for r in np.geomspace(lo, hi, p["ladder_rungs"])])
            for coeffs, c, (lo, hi) in p["ladders"]
        ]
        self.block = freq.MinimizerSpec(h=freq.SmoothBlock(alpha=0.5), Q=2)
        self.block_radii = p["block_radii"]
        self.ref = ref
        _warm_quadrature(quad.QuadConfig())

    def run_pass(self, tally: Tally) -> dict:
        mono = []
        for i, (P, Q, r, spec) in enumerate(self.monomials):
            label = f"z^{P}/Q={Q} r={r}"

            def compute():
                fs = freq.frequency(spec, 0j, r)
                return fs, freq.dirichlet_energy(spec, 0j, r), freq.boundary_mass(spec, 0j, r)

            out = tally.call(label, compute)
            if out is None:
                continue
            fs, (D, eD), (H, eH) = out
            scale = r ** (2.0 * P / Q)
            tally.check(label, abs(fs.I - P / Q) <= 1e-6, f"I = {fs.I!r}, want {P / Q}")
            tally.check(label, abs(D - 2 * math.pi * P * scale) <= 1e-6 * D, f"D = {D!r}")
            tally.check(label, abs(H - 2 * math.pi * Q * scale) <= 1e-6 * H, f"H = {H!r}")
            for err, ans in ((fs.quadrature_error, fs.I), (eD, D), (eH, H)):
                tally.error_figure(label, err, ans)
            if self.ref is not None:
                _check_recorded(tally, label, fs.I, fs.quadrature_error, self.ref["monomial"][i])
            mono.append({"P": P, "Q": Q, "r": r, "I": fs.I, "err": fs.quadrature_error,
                         "D": D, "D_err": eD, "H": H, "H_err": eH})

        ladders = []
        for j, (spec, center, radii) in enumerate(self.ladders):
            labels = [f"poly{j} r={r:.4g}" for r in radii]
            curve = tally.call(labels, lambda: freq.frequency_curve(spec, center, radii))
            if curve is None:
                continue
            for label, fs in zip(labels, curve):
                tally.check(label, math.isfinite(fs.I) and fs.I > 0.0, f"I = {fs.I!r}")
                tally.error_figure(label, fs.quadrature_error, fs.I)
            for label, a, b in zip(labels[1:], curve, curve[1:]):
                tally.check(label, b.I >= a.I - (a.quadrature_error + b.quadrature_error),
                            f"I = {b.I!r} fell below {a.I!r}")
            if self.ref is not None:
                for label, fs, want in zip(labels, curve, self.ref["polynomial"][j]):
                    _check_recorded(tally, label, fs.I, fs.quadrature_error, want)
            ladders.append([{"r": fs.radius, "I": fs.I, "err": fs.quadrature_error}
                            for fs in curve])

        block = []
        prev = None
        for i, R in enumerate(self.block_radii):
            label = f"smooth_block R={R}"
            fs = tally.call(label, lambda: freq.frequency(self.block, 0j, R, log_scale=True))
            if fs is None:
                prev = None
                continue
            bound = freq.smooth_block_frequency_bound(0.5, 2, R)
            tally.check(label, fs.I >= bound, f"I = {fs.I!r} below bound {bound!r}")
            tally.error_figure(label, fs.quadrature_error, fs.I)
            if prev is not None:
                tally.check(label, fs.I > prev.I, f"I = {fs.I!r} not above {prev.I!r}")
            if self.ref is not None:
                _check_recorded(tally, label, fs.I, fs.quadrature_error,
                                self.ref["smooth_block"][i])
            block.append({"R": R, "I": fs.I, "err": fs.quadrature_error})
            prev = fs
        return {"monomial": mono, "polynomial": ladders, "smooth_block": block}


# ---------------------------------------------------------------------------
# pointwise: CLI eval grid and contour derivatives (no quadrature)
# ---------------------------------------------------------------------------


class Pointwise:
    SIZES = {
        "full": dict(grid=24, eval_gen=12, probes=6, deriv_gen=8),
        "tiny": dict(grid=4, eval_gen=12, probes=1, deriv_gen=4),
    }
    NAMES = ("decay_factor", "branched_product")
    ORDERS = (1, 2, 3)

    def __init__(self, seed: int, size: str, ref: dict | None):
        p = self.SIZES[size]
        rng = np.random.default_rng(seed)
        # Re z >= 1 keeps every grid point at distance >= 1 from the set, so
        # each row's tail bound is finite
        mid = float(rng.uniform(-0.5, 0.5))
        self.window = (1.0, 2.0, mid - 1.0, mid + 1.0)
        self.grid = p["grid"]
        self.path = OUT_DIR / "eval_grid.csv"
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.argv = [
            "eval", "--s", "0.5", "--max-gen", str(p["eval_gen"]),
            "--nx", str(self.grid), "--ny", str(self.grid),
            "--re-min", repr(self.window[0]), "--re-max", repr(self.window[1]),
            "--im-min", repr(self.window[2]), "--im-max", repr(self.window[3]),
            "--output", str(self.path),
        ]
        self.params = series.SeriesParams(s=0.5, max_gen=p["deriv_gen"])
        self.cs = cantor.CantorSet.build(0.5, p["deriv_gen"])
        # here the contour radius is d/2 (never capped at Re z / 2), so every
        # probe's contour converges at the same node count and a pass costs
        # the same on every seed
        zs = rng.uniform(0.6, 1.2, p["probes"]) + 1j * rng.uniform(-0.4, 0.4, p["probes"])
        self.probes = [complex(z) for z in zs]
        self.ref = ref

    def run_pass(self, tally: Tally) -> dict:
        n_rows = self.grid * self.grid
        labels = [f"eval row {i}" for i in range(n_rows)]
        rc = tally.call(labels, lambda: cli.main(self.argv))
        rows = []
        if rc is not None:
            if rc != 0:
                for label in labels:
                    tally.fail(label, f"eval exited {rc}")
            else:
                header, raw = cli.read_rows(str(self.path))
                rows = [[float(x) for x in row] for row in raw]
                if len(rows) != n_rows or len(header) != 8:
                    for label in labels:
                        tally.fail(label, f"eval wrote {len(rows)} rows of {len(header)} columns")
                    rows = []
        for i, (label, row) in enumerate(zip(labels, rows)):
            tally.check(label, all(math.isfinite(x) for x in row), f"row {row!r}")
            # tail_bound bounds the error of log g (and of log f): relative
            tally.error_figure(label, row[7], 1.0)
            if self.ref is not None:
                want = self.ref["rows"][i]
                tol = row[7] + want[7]
                ok = _within(row[2], want[2], tol) and _within(row[4], want[4], tol)
                ok = ok and all(
                    abs(math.remainder(row[k] - want[k], 2.0 * math.pi)) <= tol for k in (3, 5)
                )
                tally.check(label, ok, f"row {row!r} vs recorded {want!r}")

        derivs = []
        cases = itertools.product(self.NAMES, self.probes, self.ORDERS)
        for i, (name, z, m) in enumerate(cases):
            label = f"{name}^({m}) at {z}"
            out = tally.call(label, lambda: series.derivative(self.params, self.cs, name, z, m))
            if out is None:
                continue
            val, err = out
            tally.check(label, cmath.isfinite(val) and math.isfinite(err),
                        f"derivative {val!r} +- {err!r}")
            tally.error_figure(label, err, abs(val))
            if self.ref is not None:
                want = self.ref["derivs"][i]
                w = complex(want["re"], want["im"])
                tol = err + want["err"] + CONTOUR_REL_TOL * abs(w)
                tally.check(label, abs(val - w) <= tol, f"{val!r} vs recorded {w!r}")
            derivs.append({"name": name, "z": [z.real, z.imag], "m": m,
                           "re": val.real, "im": val.imag, "err": err})
        return {"window": list(self.window), "rows": rows, "derivs": derivs,
                "counters": {"cli.eval.rows": len(rows)}}


WORKLOADS = {
    "cantor_ladder": CantorLadder,
    "mass_curve": MassCurve,
    "anchor_quad": AnchorQuad,
    "pointwise": Pointwise,
}
# workloads whose inputs do not depend on the seed: references hold for all
SEED_FREE = ("cantor_ladder", "mass_curve", "anchor_quad")


def make(name: str, seed: int, size: str, references: dict | None):
    ref = None
    if references is not None and size == "full" and (name in SEED_FREE or seed == DEFAULT_SEED):
        ref = references[name]
    return WORKLOADS[name](seed, size, ref)
