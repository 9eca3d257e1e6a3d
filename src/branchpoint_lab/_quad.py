"""Log-space quadrature for integrands spanning thousands of e-folds.

Integrals of exp(L) are assembled with a log-sum-exp, so masses like
exp(-10^4) keep their logarithm even though the integrand underflows every
double.  Lines and disks take Gauss-Legendre panels, seeded geometrically
toward integrable singularities and exponential boundary layers (with an
optional decay-rate hint); the whole mesh is halved until two successive
estimates agree, except for a disk's innermost rings once they carry under
FREEZE * rel_tol of its mass, which keep their last values.  The line
integral also takes a full circle whose integrand is analytic in a strip
about it, by the periodic trapezoid rule on nested equispaced rings,
doubling the node count until two successive rings agree.
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
# negligible; the node budget of one level of a line integral.
MIN_FRAC = 1e-8
DROP = 45.0
MAX_NODES = 2**16
# the share of rel_tol under which the innermost rings of a disk level, by
# their last-level log-sums, keep those values and are not evaluated again
FREEZE = 2.0**-20
# radial panels of a disk level whose arcs are meshed in one call: the early
# exit leaves about half of a level's panels unvisited
RING_BLOCK = 8

# the angular panels at each of an array of radii: (lo, hi, count per radius)
Arcs = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]


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


def refined_panels(
    a: np.ndarray,
    b: np.ndarray,
    *,
    rate_a: np.ndarray | float = 0.0,
    rate_b: np.ndarray | float = 0.0,
    targets: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The panels of `refined_breakpoints` on the intervals [a[n], b[n]] at
    once, row n with end rates rate_a[n] and rate_b[n] (arrays or floats).

    `targets` is (t, w), two arrays of one row per interval: row n's
    targets t[n] in the order it adds them, with their smallest cluster
    widths w[n]; a NaN target is none.  Returns (lo, hi, count): the panels
    [lo, hi] of every row, row after row, and the number of each row's.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.count_nonzero(b > a) < a.size:
        i = int(np.argmin(b > a))
        raise ValidationError(f"empty interval [{a[i]}, {b[i]}]")
    n = a.size
    span = b - a
    half = 0.5 * span
    # the smallest widths of the clusters edged up from a, down from b and
    # about the targets, in the order a row adds them (inf: the row has
    # none); a boundary layer exp(rate * x) keeps the per-panel log
    # variation ~8
    widths = [np.divide(8.0, rate, out=np.full(n, np.inf), where=np.greater(rate, 0.0))
              for rate in (rate_a, rate_b)]
    at = np.zeros((n, 0, 1))
    if targets is not None:
        t, wt = targets
        on = (a[:, None] <= t) & (t <= b[:, None])  # one outside is skipped
        at = np.where(on, t, np.nan)[..., None]
        widths += list(np.where(on, np.maximum(wt, 1e-15 * span[:, None]), np.inf).T)
    w = np.empty((n, len(widths), 1))
    for i, wi in enumerate(widths):
        w[:, i, 0] = wi
    # each cluster is edged at width, 2 width, 4 width, ... below span / 2
    most = np.fmax.reduce(half[:, None, None] / w, axis=None, initial=0.0)  # NaN: none
    k = math.frexp(most)[1] + 1 if 1.0 <= most < math.inf else 0
    w = np.ldexp(w, np.arange(k))
    w = np.where(w < half[:, None, None], w, np.nan)
    a3, b3 = a[:, None, None], b[:, None, None]
    parts = [a[:, None], b[:, None], (0.5 * (a + b))[:, None],
             (a3 + w[:, :1]).reshape(n, -1), (b3 - w[:, 1:2]).reshape(n, -1)]
    if at.shape[1]:
        # a target is an edge itself; one of its edges past an end of
        # [a, b] falls on the end, which the merge below drops
        wt = w[:, 2:]
        parts.append(np.concatenate(
            [at, np.maximum(at - wt, a3), np.minimum(at + wt, b3)], axis=2
        ).reshape(n, -1))
    x = np.concatenate(parts, axis=1)
    # sorted, NaNs last; of equal edges the first added stays, which tells
    # only for zeros, whose signs the sort may swap
    zero = x == 0.0
    first_zero = None
    if np.signbit(x[zero]).any():
        first_zero = x[np.arange(n), zero.argmax(axis=1), None]
    x.sort(axis=1)
    if first_zero is not None:
        x = np.where(x == 0.0, first_zero, x)
    # merge edges indistinguishable at double precision: each edge into the
    # last kept edge below it, so a chain of close edges keeps every edge
    # more than the merge distance past the one kept before it
    tol = 1e-15 * span[:, None]
    gap = x[:, 1:] - x[:, :-1]
    keep = np.empty(x.shape, dtype=bool)
    keep[:, 0] = True
    np.greater(gap, tol, out=keep[:, 1:])
    close = gap <= tol  # False at NaN, as keep
    if (close[:, 1:] & close[:, :-1]).any():
        cols = np.arange(x.shape[1])
        while True:
            last = np.maximum.accumulate(np.where(keep, cols, 0), axis=1)
            far = ~keep & (x - np.take_along_axis(x, last, axis=1) > tol)
            if not far.any():
                break
            # the first such edge after each kept edge is kept
            seen = np.cumsum(far, axis=1)
            keep |= far & (seen - np.take_along_axis(seen, last, axis=1) == 1)
    r = keep.nonzero()[0]
    x = x[keep]
    same = r[1:] == r[:-1]
    return x[:-1][same], x[1:][same], np.bincount(r, minlength=n) - 1


def refined_breakpoints(
    a: float,
    b: float,
    *,
    rate_a: float = 0.0,
    rate_b: float = 0.0,
    targets: Sequence[float | tuple[float, float]] = (),
) -> np.ndarray:
    """Panel edges on [a, b], geometrically clustered toward an end with a
    decay rate and toward targets (integrable singularities get an edge
    exactly on them).

    A target may carry its own smallest cluster width as (position, width);
    bare floats use MIN_FRAC times the span.  A target on an end of [a, b]
    is clustered toward from inside, geometrically from its width; one
    outside is skipped.  An edge within 1e-15 of the span of the last edge
    kept below it is merged into that one.
    """
    pairs = [t if isinstance(t, tuple) else (t, MIN_FRAC * (b - a)) for t in targets]
    t, w = np.array(pairs, dtype=float).reshape(-1, 2).T
    lo, hi, _ = refined_panels(
        np.array([a], dtype=float), np.array([b], dtype=float), rate_a=rate_a,
        rate_b=rate_b, targets=(t[None, :], w[None, :]) if t.size else None,
    )
    return np.append(lo, hi[-1])


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


def _step(est: list[float]) -> float:
    """The change of a part's last level estimate (inf after one level)."""
    if len(est) < 2:
        return math.inf
    return 0.0 if est[-1] == est[-2] == -math.inf else abs(est[-1] - est[-2])


def _refine(
    level_fn: Callable[[int, np.ndarray | None], Callable[[int], float]],
    edges: np.ndarray | None,
    cfgs: Sequence[QuadConfig | None],
    kind: str,
) -> list[tuple[float, float] | ConvergenceError]:
    """Halve the panel mesh until each part's successive log-estimates agree.

    `level_fn(level, edges)` evaluates the level-th mesh and returns
    `estimate(i)`, the log-integral of part i on it; only the parts still
    open are asked.  With edges None (the rings of `log_line_integral`)
    the level alone sets the nodes.
    cfgs[i] holds part i's rel_tol and max_refine, or is None for a part
    that drives nothing: it follows the driving parts listed before it,
    back to the last such part, is asked on every level they take and
    ends with the last of them, on its estimate there with the last change
    as its error.
    Returns one (log of the integral, log-error estimate) per part, from
    the level where it first passed, or the ConvergenceError that ended it:
    one its estimate raised, or, when it never agreed within max_refine
    halvings, one carrying every level's estimate.
    """
    runs: list[list[float]] = [[] for _ in cfgs]
    out: list = [None] * len(cfgs)
    nones = [i for i, c in enumerate(cfgs) if c is None]
    followers = list(zip(nones, [0] + [i + 1 for i in nones]))
    level = 0
    while True:
        estimate = level_fn(level, edges)
        for i in [i for i, o in enumerate(out) if o is None]:
            cfg, est = cfgs[i], runs[i]
            try:
                est.append(estimate(i))
            except ConvergenceError as exc:
                out[i] = exc
                continue
            if cfg is None:
                continue
            if _step(est) <= cfg.rel_tol:
                out[i] = (est[-1], _step(est))
            elif level == cfg.max_refine:
                out[i] = ConvergenceError(
                    f"{kind} quadrature did not converge within {cfg.max_refine} refinements",
                    tuple(est),
                )
        for i, lead in followers:
            if out[i] is None and all(o is not None for o in out[lead:i]):
                out[i] = (runs[i][-1], _step(runs[i]))
        if all(o is not None for o, c in zip(out, cfgs) if c is not None):
            break
        level += 1
        edges = None if edges is None else halve_edges(edges)
    return out


def _passed(part: tuple[float, float] | ConvergenceError) -> tuple[float, float]:
    """A part's result from `_refine`, or the ConvergenceError that ended it raised."""
    if isinstance(part, ConvergenceError):
        raise part
    return part


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


class Ring:
    """Samples of fn on nested equispaced rings, the angles 2 pi k / n.

    The angles of an n-node ring are the even-indexed angles of the 2n-node
    ring, bit for bit, so only the largest ring's samples are kept:
    `values(n)` takes every (N/n)-th of the N held and evaluates only the
    new odd-indexed half of each doubling past N.  fn maps an array of
    angles to an array whose last axis runs over them.  The held samples
    change only after fn has returned, so an fn that raises leaves them as
    they were.
    """

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray]):
        self.fn = fn
        self.vals: np.ndarray | None = None

    def _sample(self, k: np.ndarray, n: int) -> np.ndarray:
        return np.asarray(self.fn(2.0 * math.pi * k / n))

    def values(self, n: int) -> np.ndarray:
        """fn at the angles 2 pi k / n, k = 0..n-1; n is a power of two
        times the held count, or divides it."""
        vals = self._sample(np.arange(n), n) if self.vals is None else self.vals
        while vals.shape[-1] < n:
            odd = self._sample(np.arange(1, 2 * vals.shape[-1], 2), 2 * vals.shape[-1])
            ring = np.empty((*vals.shape[:-1], 2 * vals.shape[-1]), dtype=vals.dtype)
            ring[..., 0::2] = vals
            ring[..., 1::2] = odd
            vals = ring
        self.vals = vals
        return np.ascontiguousarray(vals[..., :: vals.shape[-1] // n])


def log_line_integral(
    L_fn: Callable[[np.ndarray], np.ndarray],
    mesh: np.ndarray | int,
    cfg: QuadConfig | Sequence[QuadConfig | None],
    *,
    signed: bool | Sequence[bool] = False,
) -> tuple[float, float] | list[tuple[float, float] | ConvergenceError]:
    """Adaptive log-space integral of exp(L) over a 1-d mesh.

    `mesh` is either the edges of Gauss-Legendre panels, halved each level,
    or n0, for the trapezoid rule on the period [0, 2 pi) on nested rings of
    n0, 2 n0, 4 n0, ... equispaced nodes (`Ring`), whose levels call L_fn
    on the new odd-indexed nodes only.  For an integrand analytic in the
    strip |Im theta| < a the rings converge like e^(-a n), so the last
    doubling's step overstates the error of the finer ring.

    With `signed`, L_fn returns (log|f|, f < 0) and each level sums the
    positive and the negative node terms apart, as log(P - N).  Returns
    (log v of the integral v, log-error estimate): the last level's change,
    never below the rounding floor 2^-52 amp (|log v| + log n + 4) of the
    n-node sum, amp the factor (P + N) / (P - N) by which a signed part's
    difference amplifies its terms' errors (1 unsigned), and 0 for log v =
    -inf.  A level past MAX_NODES nodes raises ConvergenceError.

    Several parts share one mesh when `cfg` is a sequence, one config per
    part (the first QuadConfig among them sets the order all parts take;
    None: a part that drives nothing, see `_refine`), and `signed` one flag per
    part: L_fn then returns one value per part, and the result is
    `_refine`'s list.  The mesh is refined until every part has passed its
    own test, and each part ends on the level where it passed, so it
    equals its one-part integral bit for bit.
    """
    one = isinstance(cfg, QuadConfig)
    cfgs = [cfg] if one else list(cfg)
    signs = [signed] if one else list(signed)
    order = next(c for c in cfgs if c is not None).order
    floors = [0.0] * len(cfgs)

    def parts(x: np.ndarray) -> Sequence:
        vals = L_fn(x)
        return (vals,) if one else vals

    ring = None
    if np.ndim(mesh) == 0:
        ring = Ring(lambda th: np.stack([row for v, s in zip(parts(th), signs)
                                         for row in (v if s else (v,))]))

    def level_fn(level: int, edges: np.ndarray | None) -> Callable[[int], float]:
        n = (edges.size - 1) * order if ring is None else mesh << level
        if n > MAX_NODES:
            def over(i: int) -> float:
                raise ConvergenceError(f"line quadrature exceeded {MAX_NODES} nodes without "
                                       f"meeting rel_tol {(cfgs[i] or cfgs[0]).rel_tol}")
            return over
        if ring is None:
            nodes, logw = panel_nodes(edges, order)
            vals = parts(nodes)
        else:
            # one row per unsigned part, two (log|f|, f < 0) per signed one
            rows = iter(ring.values(n))
            vals = [(next(rows), next(rows) != 0.0) if s else next(rows) for s in signs]
            logw = math.log(2.0 * math.pi / n)

        def estimate(i: int) -> float:
            if signs[i]:
                la, neg = vals[i]
                v = la + logw
                out, amp = log_difference(_lse(v[~neg]), _lse(v[neg]))
            else:
                out, amp = _lse(vals[i] + logw), 1.0
            floors[i] = 2.0**-52 * amp * (abs(out) + math.log(n) + 4.0) if out > -math.inf else 0.0
            return out

        return estimate

    out = [p if isinstance(p, ConvergenceError) else (p[0], max(p[1], floor)) for p, floor
           in zip(_refine(level_fn, mesh if ring is None else None, cfgs, "line"), floors)]
    return _passed(out[0]) if one else out


def _disk_level(
    L_fn: Callable[[np.ndarray], np.ndarray],
    center: complex,
    r_edges: np.ndarray,
    arcs: Arcs,
    cfg: QuadConfig,
    level: int,
    inner_targets: Sequence[float],
    *,
    stop: int,
    block: float,
    rings: np.ndarray,
) -> float:
    """One mesh level of the polar integral, outermost radial panel first,
    with early exit once inner panels are provably negligible.

    The arcs of the radial nodes of RING_BLOCK radial panels (rings) are
    meshed in one call.  The angular panels of all radial nodes of a ring
    are one flat (lo, hi) pair, each panel split at its midpoint `level`
    times, so the nodes and weights, in their order, are those of halving
    each node's own mesh.

    The innermost `stop` rings are a frozen block, not evaluated: a walk
    that reaches its outer edge adds `block`, its log-sum.  `rings` receives
    each evaluated ring's log-sum by index and, once the block is added,
    the block's in slot 0 and -inf in its other slots.
    """
    total = -math.inf
    quiet = 0
    n = cfg.order
    for top in range(r_edges.size - 1, stop, -RING_BLOCK):
        bottom = max(top - RING_BLOCK, stop)
        rho_b, logw_rb = panel_nodes(r_edges[bottom : top + 1], n)
        lo, hi, count = arcs(rho_b)
        first = np.concatenate(([0], np.cumsum(count))).tolist()
        for i in range(top - 1, bottom - 1, -1):
            nodes = slice((i - bottom) * n, (i - bottom + 1) * n)
            rho, logw_r = rho_b[nodes], logw_rb[nodes]
            a = lo[first[nodes.start] : first[nodes.stop]]
            b = hi[first[nodes.start] : first[nodes.stop]]
            for _ in range(level):
                mid = 0.5 * (a + b)
                a = np.stack([a, mid], axis=1).ravel()
                b = np.stack([mid, b], axis=1).ravel()
            th, logw_t = _gauss(a, b, n)
            per_node = count[nodes] << level
            log_rho = np.array([math.log(rj) for rj in rho])
            logw = (logw_t + np.repeat(logw_r, per_node)[:, None]
                    + np.repeat(log_rho, per_node)[:, None])
            zs = center + np.repeat(rho, per_node)[:, None] * np.exp(1j * th)
            with np.errstate(invalid="ignore"):
                vals = L_fn(zs.ravel()) + logw.ravel()
            contrib = _lse(vals)
            rings[i] = contrib
            total = float(np.logaddexp(total, contrib))
            if contrib < total - DROP:
                quiet += 1
                if quiet >= 3 and not any(t < r_edges[i] for t in inner_targets):
                    return total
            else:
                quiet = 0
    if stop:
        total = float(np.logaddexp(total, block))
        rings[:stop] = -math.inf
        rings[0] = block
    return total


def _frozen_block(
    last: dict, rel_tol: float, inner_targets: Sequence[float]
) -> tuple[int, float]:
    """The frozen block of the next level, from the last level's radial
    edges, ring log-sums (NaN where its walk did not reach) and log-integral
    in `last` (empty before level 0).

    It is the largest run of innermost reached rings whose log-sums add up
    to under FREEZE * rel_tol of the total and below whose outer edge no
    inner target lies, with the unreached rings under them, left by the
    early exit.  Returns (the next level's radial panels it spans, its
    log-sum), or (0, -inf) when it holds no reached ring.
    """
    share = FREEZE * rel_tol
    if not (last and share > 0.0 and math.isfinite(last["total"])):
        return 0, -math.inf
    rings = last["rings"]
    q = int(np.count_nonzero(np.isnan(rings)))
    cum = np.logaddexp.accumulate(rings[q:])
    # the partial sums do not fall, so those under the cut lead
    k = q + int(np.count_nonzero(cum < last["total"] + math.log(share)))
    if inner_targets:
        k = min(k, int(np.searchsorted(last["edges"], min(inner_targets), side="right")) - 1)
    # the next level's panels 2i and 2i + 1 are the halves of panel i here
    return (2 * k, float(cum[k - q - 1])) if k > q else (0, -math.inf)


def log_disk_integral(
    L_fn: Callable[[np.ndarray], np.ndarray],
    center: complex,
    r_edges: np.ndarray,
    arcs: Arcs,
    cfg: QuadConfig,
    *,
    inner_targets: Sequence[float] = (),
) -> tuple[float, float]:
    """Adaptive polar integral of exp(L) dA over panels around `center`.

    `arcs` supplies the angular panels at an array of radii, as
    `refined_panels` returns them (domain clips and singularity targets are
    baked in there); `inner_targets` lists radii of interior singularities
    that must never be skipped by early exit nor frozen.  Each level halves
    the radial and angular panels, except for the frozen block
    (`_frozen_block`): the innermost rings whose last-level log-sums add up
    to under FREEZE * rel_tol of the last level's total keep those values,
    and the walk stops at the block's outer edge.  Returns (log integral,
    log-error estimate): the last halving's change plus the mass of the
    frozen block the final level added, relative to its total, a bound on
    what the frozen rings could still have moved.
    """
    last: dict = {}  # the last level: edges, ring log-sums, total, frozen share

    def level_fn(level: int, edges: np.ndarray) -> Callable[[int], float]:
        def estimate(_: int) -> float:
            stop, block = _frozen_block(last, cfg.rel_tol, inner_targets)
            rings = np.full(edges.size - 1, math.nan)
            total = _disk_level(L_fn, center, edges, arcs, cfg, level, inner_targets,
                                stop=stop, block=block, rings=rings)
            # rings[0] holds the block once the walk added it, NaN before
            last.update(edges=edges, rings=rings, total=total,
                        share=math.exp(rings[0] - total) if stop and rings[0] > -math.inf
                        else 0.0)
            return total

        return estimate

    log_v, step = _passed(_refine(level_fn, r_edges, (cfg,), "disk")[0])
    return log_v, step + last["share"]
