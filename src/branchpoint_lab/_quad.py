"""Log-space panel quadrature for integrands spanning thousands of e-folds.

Integrals of exp(L) are assembled with Gauss-Legendre panels and a
log-sum-exp, so masses like exp(-10^4) keep their logarithm even though the
integrand underflows every double.  Panels are seeded geometrically toward
integrable singularities and exponential boundary layers (with an optional
decay-rate hint), then the whole mesh is halved until two successive
estimates agree.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, ValidationError


# The smallest geometric panel as a share of its span; the log gap below the
# running total at which inner radial panels of a disk integral count as
# negligible; the node budget of one line-integral level.
MIN_FRAC = 1e-8
DROP = 45.0
MAX_NODES = 2**16


@dataclass(frozen=True)
class QuadConfig:
    """Knobs for the log-space quadrature.

    rel_tol bounds the change of the log-integral under mesh halving (which
    approximates the relative error of the integral).
    """

    rel_tol: float = 1e-8
    order: int = 12
    max_refine: int = 8

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol < math.inf) or self.order < 2 or self.max_refine < 1:
            raise ValidationError("invalid quadrature configuration")


@functools.lru_cache(maxsize=None)
def _gl(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def _doublings(w: float, span: float) -> list[float]:
    """The offsets w, 2w, 4w, ... below span/2."""
    out = []
    while w < 0.5 * span:
        out.append(w)
        w *= 2.0
    return out


def refined_breakpoints(
    a: float,
    b: float,
    *,
    geo_a: bool = False,
    rate_a: float = 0.0,
    rate_b: float = 0.0,
    targets: Sequence[float | tuple[float, float]] = (),
) -> np.ndarray:
    """Panel edges on [a, b], geometrically clustered toward a (with geo_a,
    from MIN_FRAC of the span), toward an end with a decay rate, and toward
    interior targets (integrable singularities get an edge exactly on them).

    A target may carry its own smallest cluster width as (position, width);
    bare floats use MIN_FRAC times the span.  A target on an end of [a, b]
    is clustered toward from inside; one outside is skipped.
    """
    if not b > a:
        raise ValidationError(f"empty interval [{a}, {b}]")
    span = b - a
    edges = {a, b, 0.5 * (a + b)}
    for w in _doublings(MIN_FRAC * span, span) if geo_a else []:
        edges.add(a + w)
    # a boundary layer exp(rate * x): keep the per-panel log variation ~8
    for w in _doublings(8.0 / rate_a, span) if rate_a > 0.0 else []:
        edges.add(a + w)
    for w in _doublings(8.0 / rate_b, span) if rate_b > 0.0 else []:
        edges.add(b - w)
    for tgt in targets:
        t, w0 = tgt if isinstance(tgt, tuple) else (tgt, MIN_FRAC * span)
        if not (a <= t <= b):
            continue
        edges.add(t)
        for w in _doublings(max(w0, 1e-15 * span), span):
            if t - w > a:
                edges.add(t - w)
            if t + w < b:
                edges.add(t + w)
    out = np.array(sorted(edges))
    # merge edges indistinguishable at double precision
    keep = np.concatenate(([True], np.diff(out) > 1e-15 * span))
    return out[keep]


def halve_edges(edges: np.ndarray) -> np.ndarray:
    mids = 0.5 * (edges[:-1] + edges[1:])
    return np.sort(np.concatenate([edges, mids]))


def _gauss(
    lo: np.ndarray, hi: np.ndarray, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and log-weights of the panels [lo, hi], one row
    per panel."""
    x, w = _gl(order)
    hw = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[:, None] + hw[:, None] * x[None, :]
    logw = np.log(hw)[:, None] + np.log(w)[None, :]
    return nodes, logw


def panel_nodes(
    edges: np.ndarray, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """All Gauss-Legendre nodes and log-weights for a set of panels."""
    nodes, logw = _gauss(edges[:-1], edges[1:], order)
    return nodes.ravel(), logw.ravel()


def _lse(v: np.ndarray) -> float:
    """log(sum(exp(v))) of a 1-d array, bit for bit as
    scipy.special.logsumexp forms it: the maximal terms are taken out of the
    sum, and a non-finite maximum (+inf, -inf or NaN) is the answer."""
    top = np.maximum.reduce(v, initial=-math.inf)
    if not math.isfinite(top):
        return float(top)
    hit = v == top
    k = np.count_nonzero(hit)
    terms = np.exp(v - top)
    terms[hit] = 0.0
    return float(np.log1p(np.add.reduce(terms) / k) + np.log(k) + top)


def _refine(
    estimate: Callable[[int, np.ndarray], float],
    edges: np.ndarray,
    cfg: QuadConfig,
    kind: str,
) -> tuple[float, float]:
    """Halve the panel mesh until two successive log-estimates agree.

    `estimate(level, edges)` gives the log-integral on the level-th mesh.
    Returns (log of the integral, log-error estimate from the last halving);
    the ConvergenceError raised when they never agree carries every level's
    estimate.
    """
    estimates: list[float] = []
    for level in range(cfg.max_refine + 1):
        cur = estimate(level, edges)
        if estimates:
            prev = estimates[-1]
            if cur == -math.inf and prev == -math.inf:
                return cur, 0.0
            err = abs(cur - prev)
            if err <= cfg.rel_tol:
                return cur, err
        estimates.append(cur)
        edges = halve_edges(edges)
    raise ConvergenceError(
        f"{kind} quadrature did not converge within {cfg.max_refine} refinements",
        tuple(estimates),
    )


def log_difference(lp: float, ln: float) -> tuple[float, float]:
    """log(P - N) from lp = log P and ln = log N, with the factor
    (P + N) / (P - N) by which the difference amplifies the relative errors
    of its terms; raises ConvergenceError unless P > N or N = 0."""
    if ln == -math.inf:
        return lp, 1.0
    if not lp > ln:
        raise ConvergenceError(
            f"signed sum is not positive: log P = {lp:.17g}, log N = {ln:.17g}"
        )
    x = math.exp(ln - lp)
    return lp + math.log1p(-x), (1.0 + x) / (1.0 - x)


def log_line_integral(
    L_fn: Callable[[np.ndarray], np.ndarray],
    edges: np.ndarray,
    cfg: QuadConfig,
    *,
    signed: bool = False,
) -> tuple[float, float]:
    """Adaptive log-space integral of exp(L) over a 1-d panel mesh.

    With `signed`, L_fn returns (log|f|, f < 0) and each level sums the
    positive and the negative node terms apart, as log(P - N); the
    log-error is then never below the rounding floor 2^-52 (P + N) / (P - N).
    Returns (log of the integral, log-error estimate from the last halving).
    """
    floor = 0.0

    def estimate(level: int, edges: np.ndarray) -> float:
        nonlocal floor
        if (edges.size - 1) * cfg.order > MAX_NODES:
            raise ConvergenceError(
                f"line quadrature exceeded {MAX_NODES} nodes without "
                f"meeting rel_tol {cfg.rel_tol}"
            )
        nodes, logw = panel_nodes(edges, cfg.order)
        if not signed:
            with np.errstate(invalid="ignore"):
                return _lse(L_fn(nodes) + logw)
        la, neg = L_fn(nodes)
        with np.errstate(invalid="ignore"):
            vals = la + logw
        out, amp = log_difference(_lse(vals[~neg]), _lse(vals[neg]))
        floor = 2.0**-52 * amp if out > -math.inf else 0.0
        return out

    out, err = _refine(estimate, edges, cfg, "line")
    return out, max(err, floor)


def _disk_level(
    L_fn: Callable[[np.ndarray], np.ndarray],
    center: complex,
    r_edges: np.ndarray,
    theta_edges_fn: Callable[[float], np.ndarray],
    cfg: QuadConfig,
    level: int,
    inner_targets: Sequence[float],
) -> float:
    """One mesh level of the polar integral, outermost radial panel first,
    with early exit once inner panels are provably negligible.

    The angular panels of all radial nodes of a ring are one flat (lo, hi)
    pair, each panel split at its midpoint `level` times, so the nodes and
    weights, in their order, are those of halving each node's own mesh.
    """
    total = -math.inf
    quiet = 0
    for i in range(r_edges.size - 2, -1, -1):
        lo, hi = r_edges[i], r_edges[i + 1]
        rho, logw_r = panel_nodes(np.array([lo, hi]), cfg.order)
        meshes = [theta_edges_fn(float(rj)) for rj in rho]
        a = np.concatenate([m[:-1] for m in meshes])
        b = np.concatenate([m[1:] for m in meshes])
        for _ in range(level):
            mid = 0.5 * (a + b)
            a = np.stack([a, mid], axis=1).ravel()
            b = np.stack([mid, b], axis=1).ravel()
        th, logw_t = _gauss(a, b, cfg.order)
        per_node = np.array([m.size - 1 for m in meshes]) << level
        log_rho = np.array([math.log(rj) for rj in rho])
        logw = (logw_t + np.repeat(logw_r, per_node)[:, None]
                + np.repeat(log_rho, per_node)[:, None])
        zs = center + np.repeat(rho, per_node)[:, None] * np.exp(1j * th)
        with np.errstate(invalid="ignore"):
            vals = L_fn(zs.ravel()) + logw.ravel()
        contrib = _lse(vals)
        total = float(np.logaddexp(total, contrib))
        if contrib < total - DROP:
            quiet += 1
            if quiet >= 3 and not any(t < lo for t in inner_targets):
                break
        else:
            quiet = 0
    return total


def log_disk_integral(
    L_fn: Callable[[np.ndarray], np.ndarray],
    center: complex,
    r_edges: np.ndarray,
    theta_edges_fn: Callable[[float], np.ndarray],
    cfg: QuadConfig,
    *,
    inner_targets: Sequence[float] = (),
) -> tuple[float, float]:
    """Adaptive polar integral of exp(L) dA over panels around `center`.

    `theta_edges_fn` supplies the angular mesh at each radius (domain clips
    and singularity targets are baked in there); `inner_targets` lists radii
    of interior singularities that must never be skipped by early exit.
    Returns (log integral, log-error estimate).
    """
    return _refine(
        lambda level, edges: _disk_level(
            L_fn, center, edges, theta_edges_fn, cfg, level, inner_targets
        ),
        r_edges,
        cfg,
        "disk",
    )
