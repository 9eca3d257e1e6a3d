"""Certified evaluation of the boundary-adapted series and products.

Two holomorphic objects are built over the interval family of a
:class:`~branchpoint_lab.cantor.CantorSet`: an absolutely convergent shifted
power sum (the "decay exponent") and an infinite cosine product.  From them
come the decay factor exp(-sum) and the branched product, whose zeros
accumulate at every mirrored boundary-set point.

Values are carried in log-magnitude form (:class:`LogComplex`) because the
decay factor underflows double precision catastrophically near the boundary
set.  Points extremely close to a boundary anchor are represented in
log-polar coordinates (:class:`AnchoredPoint`) so even offsets like
exp(-1e5) stay meaningful.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from ._quad import Ring
from .cantor import CantorSet, IntervalIndex, interval_length
from .errors import ConvergenceError, SingularPointError, ValidationError
from .logcomplex import LOG_TINY, LogComplex, log_cos, log_polar, neg_power

# Elements (points x shifts, or far pairs x proxies) per block of a pair
# sum: a few 64 kB arrays that stay in cache, and no more memory for a
# 64-point call than for one.
_PAIR_BLOCK = 8192
# Points per tree walk of decay_exponent_many: a walk holds every pair of a
# generation at once, so a larger call walks its points in blocks of this
# many and its peak memory stays that of one block.
_POINT_BLOCK = 8192

# Default opening ratio of F's walk in the array-valued base functions
# (SeriesFactor, SeriesProduct, RealPartTarget); the far-field order rises to
# match it (p = 17 at a = 0.75), and fewer pairs are opened than at 0.25
# (see decay_exponent_many).
FAR_TOL = 0.4
# Opening ratio of the point path (evaluate_many and the one-point wrappers
# over it); see decay_exponent_many for why it stays at the two-term setting.
POINT_FAR_TOL = 3e-4
# Bound on |C(-a, p)| far_tol^p, the far-field remainder relative to a
# subtree's weight, that sets the expansion order p.
_ORDER_TARGET = 1e-7
_MAX_ORDER = 40
# Chebyshev proxies per far subtree of the cosine product, the opening ratio
# of its walk (see log_cosine_product_many for why it is not FAR_TOL), and
# the reach of their Bernstein ellipse as a share of the distance to the
# subtree: at the far test's bound, rho = 6 + sqrt(37), the remainder per
# endpoint is below 1e-13 M (see _proxy_remainder).
_PROXIES = 13
_COSINE_FAR_TOL = 0.25
_ELLIPSE_REACH = 0.75
# A proxy sums the generations with b_k |log w| <= _POLY_CAP in one polynomial
# of _POLY_TERMS terms in (log w)^2, truncated by at most 1.5e-20 at the cap.
_POLY_TERMS = 18
_POLY_CAP = 0.45

# Contour derivatives: first ring, relative agreement of two rings, node cap.
_CONTOUR_START = 16
_CONTOUR_REL_TOL = 1e-9
_CONTOUR_MAX_NODES = 2**14

# h(pi/4) = -ln(cos(pi/4)) / (pi/4), the constant in the cosine-log estimate
_COS_LOG_CONST = -math.log(math.cos(math.pi / 4.0)) / (math.pi / 4.0)


@dataclass(frozen=True)
class SeriesParams:
    """Coefficient rules for the shifted sums and products.

    Per generation k the sum/product coefficient is 2^-k / k^2 (so the
    generation-weighted series sum_k 2^k coeff(k) = pi^2/6 is finite) and
    the power-law exponent is a fixed `alpha` for s < 1, or
    1 - k^(-1/3)/2 in the borderline case s = 1.
    """

    s: float
    alpha: float | None = None
    max_gen: int = 18

    def __post_init__(self) -> None:
        if not (0.0 < self.s <= 1.0):
            raise ValidationError(f"s must lie in (0, 1], got {self.s}")
        if self.max_gen < 1:
            raise ValidationError(f"max_gen must be >= 1, got {self.max_gen}")
        if self.s < 1.0:
            alpha = self.alpha if self.alpha is not None else (1.0 + self.s) / 2.0
            if not (self.s < alpha < 1.0):
                raise ValidationError(
                    f"alpha must lie in ({self.s}, 1), got {alpha}"
                )
            object.__setattr__(self, "alpha", alpha)

    def coeff(self, k: int) -> float:
        return 2.0 ** (-k) / k**2

    def exponent(self, k: int) -> float:
        if self.s == 1.0:
            return 1.0 - 0.5 * k ** (-1.0 / 3.0)
        return self.alpha

    def max_exponent(self) -> float:
        return 1.0 if self.s == 1.0 else self.alpha

    def coeff_tail(self, k: int) -> float:
        """sum_{j > k} 2^j coeff(j) = sum_{j > k} 1/j^2, via the trigamma function."""
        return _trigamma(k + 1)


@functools.lru_cache(maxsize=64)
def _trigamma(x: int) -> float:
    # sum_{j >= x} 1/j^2: 10^4 terms, then the remainder at m (A&S 6.4.12), whose first
    # omitted term -1/(30m^5) is negative: an upper bound up to rounding, in about 1 ms
    m = x + 10_000
    rest = 1.0 / m + 1.0 / (2 * m * m) + 1.0 / (6 * m**3)
    return math.fsum([1.0 / (j * j) for j in range(x, m)] + [rest])


@dataclass(frozen=True)
class TruncatedValue:
    """A value plus a certified bound on its truncation error.

    For the plain-complex decay exponent the bound is absolute; for
    log-magnitude results it bounds the error of the accumulated log
    (equivalently, the relative error of the value).
    """

    value: complex | LogComplex
    tail_bound: float


@dataclass(frozen=True)
class AnchoredPoint:
    """z = -i*y + exp(log_r + i*theta): log-polar offset from a boundary anchor.

    `y` must be a stored left endpoint so anchor matching can use exact
    float equality (endpoints are copied bit-for-bit between generations).
    """

    y: float
    log_r: float
    theta: float = 0.0

    def to_complex(self) -> complex:
        if self.log_r < LOG_TINY:
            off = 0j
        else:
            off = cmath.rect(math.exp(self.log_r), self.theta)
        return complex(off.real, off.imag - self.y)


@dataclass(frozen=True)
class ProductZero(AnchoredPoint):
    """A constructed zero of the branched product: the cosine factor of
    interval `idx` vanishes identically at this point."""

    idx: IntervalIndex = IntervalIndex(1, 1)
    m: int = 1


def _constructed_zero(params: SeriesParams, z: complex | AnchoredPoint) -> bool:
    """Whether z is a ProductZero of generation 1..max_gen: an exact zero of
    the cosine product, which its floating sums do not resolve."""
    return isinstance(z, ProductZero) and 1 <= z.idx.gen <= params.max_gen


def _require_s(params: SeriesParams, cs: CantorSet) -> None:
    if cs.s != params.s:
        raise ValidationError(f"CantorSet s = {cs.s} differs from the series' s = {params.s}")


def _require_depth(params: SeriesParams, cs: CantorSet) -> None:
    _require_s(params, cs)
    if cs.depth < params.max_gen:
        raise ValidationError(
            f"CantorSet depth {cs.depth} < truncation generation {params.max_gen}"
        )


# ---------------------------------------------------------------------------
# direct pair sums over the shifts
# ---------------------------------------------------------------------------


def _size(zs: np.ndarray | AnchoredPoint) -> int:
    return 1 if isinstance(zs, AnchoredPoint) else zs.size


def _pair_blocks(
    zs: np.ndarray | AnchoredPoint, ys: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(log|w|, arg w) for w = z + i*y: one row per point of zs (a complex
    array of at most 8, or one AnchoredPoint) and one column per shift of
    ys, in blocks of _PAIR_BLOCK / 8 shifts: the same blocks at any size.

    At an anchored point the shift equal to its own anchor takes the stored
    log-polar offset exactly; the rest go through the saturated complex
    offset, whose underflow error is negligible against the endpoint
    separation.
    """
    step = _PAIR_BLOCK // 8
    for j in range(0, ys.size, step):
        yb = ys[None, j : j + step]
        if not isinstance(zs, AnchoredPoint):
            yield log_polar(zs.real[:, None], zs.imag[:, None] + yb)
            continue
        off = zs.to_complex() + 1j * zs.y  # the pure radial offset
        lr, th = log_polar(off.real, off.imag + (yb - zs.y))
        own = yb == zs.y
        lr[own] = zs.log_r
        th[own] = zs.theta
        yield lr, th


def _direct_sum(
    params: SeriesParams,
    cs: CantorSet,
    zs: np.ndarray | AnchoredPoint,
    with_deriv: bool,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    n = _size(zs)
    F = np.zeros(n, dtype=complex)
    Fp = np.zeros(n, dtype=complex) if with_deriv else None
    for k in range(1, params.max_gen + 1):
        a_k = params.coeff(k)
        al = params.exponent(k)
        for lr, th in _pair_blocks(zs, cs.left_endpoints(k)):
            # a point on the set makes its own terms infinite, of any sign
            with np.errstate(invalid="ignore"):
                F += _power_sum(a_k, lr, th, al)
                if with_deriv:
                    Fp += _power_sum(-al * a_k, lr, th, al + 1.0)
    return F, Fp, np.zeros(n)


def _power_sum(c: float, lr: np.ndarray, th: np.ndarray, alpha: float) -> np.ndarray:
    """c times each row's sum of w^-alpha, w = exp(lr + i th).

    A term past the largest double (an anchored point's own term, once its
    offset lies below about e^(-709/alpha)) is taken in log space: c|w|^-alpha
    at its angle, an infinity whose zero parts stay 0 rather than inf * 0 =
    NaN, so that Re F = +inf reads as the exact zero of f.
    """
    w = neg_power(lr, th, alpha)
    big = ~np.isfinite(w)
    if not big.any():
        return c * w.sum(axis=1)
    w[big] = 0.0
    out = c * w.sum(axis=1)
    ang = -alpha * th[big]
    with np.errstate(over="ignore", invalid="ignore"):
        mag = math.copysign(1.0, c) * np.exp(math.log(abs(c)) - alpha * lr[big])
        cos, sin = np.cos(ang), np.sin(ang)
        term = np.empty(ang.size, dtype=complex)
        term.real = np.where(cos == 0.0, 0.0, mag * cos)
        term.imag = np.where(sin == 0.0, 0.0, mag * sin)
    np.add.at(out, big.nonzero()[0], term)
    return out


def _top_exponent(params: SeriesParams) -> float:
    return max(params.exponent(k) for k in range(1, params.max_gen + 1))


def expansion_order(far_tol: float, alpha: float) -> int:
    """Far-field order: the smallest p >= 2 with |C(-alpha, p)| far_tol^p
    at most the fixed target 1e-7 (capped at 40)."""
    c = 0.5 * alpha * (alpha + 1.0)  # |C(-alpha, 2)|
    p = 2
    while c * far_tol**p > _ORDER_TARGET and p < _MAX_ORDER:
        c *= (alpha + p) / (p + 1.0)
        p += 1
    return p


@dataclass(frozen=True)
class _FarTable:
    """Far-field coefficients of every subtree root generation j.

    Exponent group g (all generations when the exponent is constant, one
    generation each when it varies) contributes
    w^-alphas[g] * sum_m coef[g, j, m] (len_j / w)^m to a generation-j
    subtree seen from w = z + i*(its left endpoint), and w^-alphas[g] / w *
    sum_m dcoef[g, j, m] (len_j / w)^m to the derivative.  `groups[j]` lists
    the groups with weight under generation j.  rem[j] = C0[j] |C(-a, p)|,
    a the largest exponent, scales the truncation remainder.
    """

    alphas: np.ndarray
    groups: tuple[np.ndarray, ...]
    coef: np.ndarray
    dcoef: np.ndarray
    rem: np.ndarray


@functools.lru_cache(maxsize=32)
def _far_table(params: SeriesParams, p: int) -> _FarTable:
    """Subtree moments M_m[j] up to order p, computed exactly.

    M_m[j] = sum over endpoints of a generation-j subtree (generations
    j..max_gen) of coeff(k) * t^m, t the offset from the subtree's left
    endpoint.  A subtree is its two children, the right one shifted by
    len_j - len_(j+1), so M[j] follows from M[j+1] by the binomial theorem.
    The table stores N_m[j] = M_m[j] / len_j^m, whose recurrence has only
    ratios below 1 and so cannot overflow.  C0 = N_0 and C1 = N_1 * len_j
    are the weights of the two-term expansion.
    """
    K = params.max_gen
    varying = params.s == 1.0
    alphas = np.array([params.exponent(k) for k in range(1, K + 1)] if varying
                      else [params.alpha])
    m = np.arange(p)
    binom = np.array([[math.comb(a, b) for b in range(p)] for a in range(p)], dtype=float)
    N = np.zeros((alphas.size, K + 1, p))
    for j in range(K, -1, -1):
        if j < K:
            rho = interval_length(j + 1, params.s) / interval_length(j, params.s)
            # scaled offsets: left child t -> rho t, right child t -> rho t + 1 - rho
            shift = binom * np.power(1.0 - rho, np.maximum(m[:, None] - m[None, :], 0))
            B = (np.eye(p) + np.tril(shift)) * rho ** m[None, :]
            N[:, j] = (N[:, j + 1, None, :] * B).sum(axis=-1)
        if j >= 1:
            N[j - 1 if varying else 0, j, 0] += params.coeff(j)
    c = np.ones((alphas.size, p), dtype=complex)  # C(-alpha, m) i^m
    for i in range(1, p):
        c[:, i] = c[:, i - 1] * (-alphas - (i - 1)) / i * 1j
    coef = c[:, None, :] * N
    dcoef = coef * (-alphas[:, None, None] - m)
    am = float(alphas.max())
    rem = N[:, :, 0].sum(axis=0) * math.prod((am + i) / (i + 1.0) for i in range(p))
    for arr in (alphas, coef, dcoef, rem):
        arr.flags.writeable = False
    groups = tuple(np.flatnonzero(N[:, j, 0] > 0.0) for j in range(K + 1))
    return _FarTable(alphas, groups, coef, dcoef, rem)


def _horner(c: np.ndarray, q: np.ndarray) -> np.ndarray:
    """sum_m c[m] q^m.

    The products are not taken in place: NumPy multiplies a one-element
    complex array in place without the fused multiply-add of its vector
    loop, so a lone far pair would round otherwise than the same pair among
    others, and a point's F would depend on the points sharing its call.
    """
    acc = np.full(q.shape, c[-1])
    for cm in c[-2::-1]:
        acc = acc * q
        acc += cm
    return acc


def _tree_walk(
    params: SeriesParams, cs: CantorSet, zs: np.ndarray, far_tol: float
) -> Iterator[tuple]:
    """The Greengard-Rokhlin walk shared by the series and the cosine product.

    Starting from the root interval, yields per generation j the open
    (point, subtree) pairs as (j, len_j, idx, wr, wi, lr, th, d2, far):
    pair n joins point idx[n] to the generation-j interval whose left
    endpoint y sits at w = z + i*y = wr + i*wi = exp(lr + i*th), at squared
    distance d2 from z counting the boundary rays left of it.  far is the
    test len_j <= far_tol * dist (every pair at the stored depth, none at
    the leaves).  The caller collapses the far pairs' subtrees and sums the
    near pairs' own generation-j terms; it may change `far` in place first,
    to open a pair or to close one.  Each pair not far is then split into
    its two generation-(j+1) children: the next generation lists first the
    left children, in their parents' order, then the right ones.  A left
    child keeps its parent's left endpoint, so it inherits lr and th (and a
    caller may carry its own per-pair values the same way); only the right
    children compute theirs.
    """
    K = params.max_gen
    zr = zs.real
    zi = zs.imag
    idx = np.arange(zs.size)
    roots = np.zeros(zs.size)  # the subtrees' left endpoints
    old = [np.zeros(0)] * 2  # the left children's (lr, th)
    for j in range(K + 1):
        len_j = interval_length(j, params.s)
        wr = zr.take(idx)
        wi = zi.take(idx) + roots
        k = old[0].size
        lr, th = (np.concatenate([o, f]) for o, f in zip(old, log_polar(wr[k:], wi[k:])))
        # the gap between Im z and the interval [-y - len_j, -y]
        gap = np.maximum(np.maximum(wi, -wi - len_j), 0.0)
        d2 = np.maximum(wr, 0.0) ** 2 + gap * gap
        far = d2 >= (len_j / far_tol) ** 2
        if j == K:
            far[:] = False  # leaves: every remaining generation-K term is summed exactly
        elif j == cs.depth:
            far[:] = True
        yield j, len_j, idx, wr, wi, lr, th, d2, far
        near = (~far).nonzero()[0]
        if j == K or not near.size:
            return
        shift = len_j - interval_length(j + 1, params.s)
        old = [lr.take(near), th.take(near)]
        idx = idx.take(near)
        idx = np.concatenate([idx, idx])
        roots = roots.take(near)
        roots = np.concatenate([roots, roots + shift])


def decay_exponent_many(
    params: SeriesParams,
    cs: CantorSet,
    zs: np.ndarray | AnchoredPoint,
    *,
    with_deriv: bool = False,
    far_tol: float | None = POINT_FAR_TOL,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Truncated shifted power sum (and optionally its z-derivative) on an
    array, or at one AnchoredPoint (a one-element result).

    Returns (values, derivs or None, per-point aggregation error bounds).

    A tree walk over the interval family sums a generation term directly
    while its interval is closer than length/far_tol.  A subtree seen from
    farther away collapses to a p-term expansion about its left endpoint:
    with w = z + i*(left endpoint) and q = len_j / w, it contributes
    sum_{m<p} C(-a, m) i^m M_m[j] w^(-a-m), where M_m[j] is the
    coefficient-weighted m-th moment of the endpoint offsets in a
    generation-j subtree.  The self-similar set gives M exactly by a
    binomial recurrence over generations; the table is built once per
    (params, p) and evaluated by Horner's rule in q.  (The earlier
    two-term expansion is p = 2.)

    Each left endpoint's log-polar form (`_tree_walk`), 1/w and w^-a are
    computed once: a left child inherits its parent's, w^-a while the
    exponent is unchanged.  The terms are added per generation, so a
    point's sums run in generation order whatever other points share the
    call.

    Order: p is the smallest p >= 2 with |C(-a, p)| far_tol^p <= 1e-7, a
    the largest exponent in use.  At far_tol = 3e-4 that is p = 2 for every
    a <= 1; at the base functions' default far_tol = 0.4 (FAR_TOL) and
    a = 0.75 it is p = 17.  The opening ratio can so widen from 3e-4 to
    0.4 at the same accuracy, and the walk visits O(max_gen) pairs per
    point instead of O(max_gen / sqrt(far_tol)).  A wider ratio trades
    more terms per far pair for fewer pairs: with lengths shrinking by 1/4
    per generation, 0.25 (p = 12) opens a pair 2.5 to 4 lengths away into
    a near pair and two far children, where 0.4 keeps one far pair (12.8
    against 20.4 pairs per point on the E1 ladder).  far_tol must be None
    or lie in (0, 1); anything else raises ValidationError.

    Remainder: each collapsed subtree adds C0[j] |C(-a, p)| len_j^p
    max(1, 1/d)^(a+p) to the point's bound, d the distance to the
    subtree's interval (the Taylor remainder of (w + i t)^-a for offsets
    0 <= t <= len_j), formed as one exp of its log.  At p = 2 this is the
    two-term bound.

    The point path (`evaluate_many` and the one-point wrappers over it)
    keeps far_tol = 3e-4 (POINT_FAR_TOL): contour derivatives
    taken through it were recorded with the two-term expansion, which
    differs from exact sums by up to 3.2e-9 relative in third derivatives.

    The stored depth only limits how deep the walk can descend: beyond it
    subtrees are aggregated regardless, with the (then larger) error bound
    reported.

    A call on more than 8,192 points (_POINT_BLOCK) walks them in blocks of
    that many, so its peak memory is that of one block.  A point's sums do
    not depend on the points sharing its walk, so the blocks move no bit.

    An AnchoredPoint is summed directly, with no far field, as with
    far_tol None.
    """
    if far_tol is not None and not (isinstance(far_tol, numbers.Real) and 0.0 < far_tol < 1.0):
        raise ValidationError(f"far_tol must be None or a number in (0, 1), got {far_tol!r}")
    anchored = isinstance(zs, AnchoredPoint)
    if not anchored:
        zs = np.ascontiguousarray(np.asarray(zs, dtype=complex).ravel())
    if far_tol is None or anchored:
        _require_depth(params, cs)
        if anchored:
            return _direct_sum(params, cs, zs, with_deriv)
        return _in_point_blocks(lambda b: _direct_sum(params, cs, b, with_deriv), zs, 8)
    _require_s(params, cs)
    return _in_point_blocks(lambda b: _tree_sum(params, cs, b, with_deriv, far_tol), zs)


def _in_point_blocks(walk: Callable, zs: np.ndarray, size: int = _POINT_BLOCK) -> tuple:
    """walk on each block of at most `size` points of zs (one empty block
    for no points), its output arrays concatenated; None stays None."""
    parts = [walk(zs[lo : lo + size]) for lo in range(0, max(zs.size, 1), size)]
    return tuple(None if a[0] is None else np.concatenate(a) for a in zip(*parts))


def _tree_sum(
    params: SeriesParams, cs: CantorSet, zs: np.ndarray, with_deriv: bool, far_tol: float
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """The tree walk of `decay_exponent_many` on one block of points."""
    K = params.max_gen
    n = zs.size
    am = _top_exponent(params)
    p = expansion_order(far_tol, am)
    table = _far_table(params, p)
    F = np.zeros(n, dtype=complex)
    Fp = np.zeros(n, dtype=complex) if with_deriv else None
    ferr = np.zeros(n)
    # the near pairs' 1/w and w^-a, which their left children inherit (w^-a
    # while the exponent is unchanged)
    inv_old = wa_old = np.zeros(0, dtype=complex)
    a_old = None
    for j, len_j, idx, wr, wi, lr, th, d2, far in _tree_walk(params, cs, zs, far_tol):
        al = params.exponent(max(j, 1))
        fi = far.nonzero()[0]
        vF = np.zeros(fi.size, dtype=complex)
        vFp = np.zeros(fi.size, dtype=complex)
        k = inv_old.size
        ka = k if al == a_old else 0
        # a point on the set makes its own term infinite or NaN
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            inv = np.concatenate([inv_old, 1.0 / (wr[k:] + 1j * wi[k:])])
            wa = np.concatenate([wa_old[:ka], neg_power(lr[ka:], th[ka:], al)])
            if fi.size:
                inv_f = inv.take(fi)
                q = len_j * inv_f
                # np.multiply, not *: on a temporary right operand of 256 KiB
                # or more, * reuses its buffer with the operands swapped, and
                # a complex product with fused multiply-adds is not symmetric
                # in the last bit, so a point's F would depend on its call
                for g in table.groups[j]:
                    a_g = table.alphas[g]
                    wg = wa.take(fi) if a_g == al else neg_power(lr.take(fi), th.take(fi), a_g)
                    vF += np.multiply(wg, _horner(table.coef[g, j], q))
                    if with_deriv:
                        vFp += np.multiply(wg, _horner(table.dcoef[g, j], q))
                vFp = vFp * inv_f  # not in place, as in _horner
                # Taylor remainder of (w + i t)^-a over offsets 0 <= t <= len_j:
                # rem[j] len_j^p min(1, d)^-(a+p), formed in logs
                log_d = np.minimum(0.5 * np.log(d2.take(fi)), 0.0)
                err = table.rem[j] * np.exp(p * math.log(len_j) - (p + am) * log_d)
                np.add.at(ferr, idx.take(fi), err)
            if j == 0:
                # the root has no term of its own
                rows, v, dv = idx.take(fi), vF, vFp
            else:
                # a near pair adds its own generation-j term, a far one its subtree
                a_k = params.coeff(j)
                rows, v = idx, a_k * wa
                v[fi] = vF
                if with_deriv:
                    dv = -al * a_k * wa * inv
                    dv[fi] = vFp
            np.add.at(F, rows, v)
            if with_deriv:
                np.add.at(Fp, rows, dv)
        if j < K:
            near = (~far).nonzero()[0]
            inv_old, wa_old, a_old = inv.take(near), wa.take(near), al
    return F, Fp, ferr


# ---------------------------------------------------------------------------
# the cosine product: the same walk, Chebyshev proxies for far subtrees
# ---------------------------------------------------------------------------


def _lagrange(tau: np.ndarray, x: np.ndarray) -> np.ndarray:
    """L[m, i] = l_i(x[m]), the Lagrange basis of the nodes tau at x."""
    diff = x[:, None] - tau[None, :]
    L = np.empty((x.size, tau.size))
    for i in range(tau.size):
        others = np.arange(tau.size) != i
        L[:, i] = diff[:, others].prod(axis=1) / (tau[i] - tau[others]).prod()
    return L


@functools.lru_cache(maxsize=32)
def _proxy_table(params: SeriesParams, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(tau, W): Chebyshev proxies of every subtree root generation j.

    A generation-j subtree seen from w = z + i*(its left endpoint) has its
    proxies at w + i*tau[i]*len_j, tau the p Chebyshev points of the second
    kind on [0, 1].  Its generation-k endpoints sum as
    sum_i W[j, k, i] phi_k(tau[i] len_j), W[j, k, i] the sum of the
    Lagrange basis l_i(t / len_j) over their offsets t.

    W follows exactly from the two-child recurrence: a subtree is its two
    children, the right one shifted by len_j - len_(j+1), and a degree
    p - 1 polynomial in the parent's offset is one in each child's, so
    l_i(t / len_j) = sum_m l_i(x_m) l_m(t' / len_(j+1)) with x_m = rho tau[m]
    (left child) or rho tau[m] + 1 - rho (right child), rho = len_(j+1) /
    len_j.  A subtree's own endpoint sits at t = 0 = tau[0].
    """
    K = params.max_gen
    tau = 0.5 - 0.5 * np.cos(np.pi * np.arange(p) / (p - 1))  # tau[0] = 0, tau[-1] = 1
    W = np.zeros((K + 1, K + 1, p))
    for j in range(K, -1, -1):
        if j < K:
            rho = interval_length(j + 1, params.s) / interval_length(j, params.s)
            L = _lagrange(tau, np.concatenate([rho * tau, rho * tau + 1.0 - rho]))
            W[j] = (W[j + 1, :, :, None] * (L[:p] + L[p:])).sum(axis=1)
        if j >= 1:
            W[j, j, 0] = 1.0
    for arr in (tau, W):
        arr.flags.writeable = False
    return tau, W


@functools.lru_cache(maxsize=4)
def _log_cos_coeffs(M: int) -> np.ndarray:
    """c[0..M], log cos u = sum_m c[m] u^(2m) for |u| < pi/2 (A&S 4.3.71),
    each rounded once from its exact rational: c[m] = (-1)^m 2^(2m-1)
    (2^(2m) - 1) B_2m / (m (2m)!) < 0, B_n from sum_{i<=n} C(n+1, i) B_i = 0."""
    from fractions import Fraction  # not at import: it loads the decimal module
    B = [Fraction(1)]
    for n in range(1, 2 * M + 1):
        B.append(-sum(math.comb(n + 1, i) * B[i] for i in range(n)) / (n + 1))
    return np.array([0.0] + [float((-1) ** m * 2 ** (2 * m - 1) * (4**m - 1) * B[2 * m]
                                   / (m * math.factorial(2 * m))) for m in range(1, M + 1)])


def _log_cos_tail(M: int, r, rho: float = 1.56):
    """Bound on |log cos u - sum_{m<=M} c[m] u^(2m)| for |u| <= r < rho: the
    c[m] share one sign, so max |log cos| on |u| = rho is -log cos(rho) >= |c[m]| rho^2m."""
    q = (r / rho) ** 2
    return -math.log(math.cos(rho)) * q ** (M + 1) / (1.0 - q)


@functools.lru_cache(maxsize=32)
def _poly_table(params: SeriesParams, p: int, M: int) -> tuple[np.ndarray, ...]:
    """(T, A): proxy i of a generation-j subtree sums its generations
    k >= k0 as P(u^2) = sum_m T[j, m, k0, i] u^(2m), u = b_k0 log w_i, with
    T[j, m, k0, i] = c[m] sum_{k>=k0} W[j, k, i] (b_k / b_k0)^(2m), and d/dw
    as 2 u b_k0 / w_i P'(u^2); k0 = K + 1 is 0.
    At b_k0 max_i |log w_i| = r its truncation error is at most
    _log_cos_tail(M, r) A[j, k0], A = sum_{k>=k0, i} |W[j, k, i]| (b_k / b_k0)^(2M+2)."""
    K = params.max_gen
    _, W = _proxy_table(params, p)
    b = np.array([params.coeff(k) for k in range(1, K + 1)])
    # pw[k0 - 1, k - 1, m] = (b_k / b_k0)^(2m) for k >= k0, else 0 (1 at m = 0, c[0] = 0)
    pw = np.triu(b / b[:, None])[..., None] ** (2 * np.arange(M + 2))
    T = np.zeros((K + 1, M + 1, K + 2, p))
    T[:, :, 1:-1] = np.einsum("m,jki,akm->jmai", _log_cos_coeffs(M), W[:, 1:], pw[..., :-1])
    A = np.zeros((K + 1, K + 2))
    A[:, 1:-1] = np.einsum("jki,ak->ja", np.abs(W[:, 1:]), pw[..., -1])
    for arr in (T, A):
        arr.flags.writeable = False
    return T, A


def _proxy_remainder(
    p: int, b: np.ndarray, counts: np.ndarray, len_j: float, dist: np.ndarray, w_abs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(usable, bound) for p proxies of far subtrees of length len_j at
    distance `dist`, with |w| = w_abs at their left endpoints; b and counts
    hold the coefficient of each summed generation k and the number of its
    endpoints off t = 0 (where the interpolant is exact).

    The Bernstein ellipse of parameter rho about the subtree's interval lies
    within len_j (rho - 1/rho) / 4 of it; rho is chosen so that this reach
    is _ELLIPSE_REACH dist.  On the ellipse |w'| lies in [dist - reach,
    |w| + len_j + reach] and |arg w'| < pi, so u = b_k log w' has
    |Re u| <= b_k Lr, Lr = max |log|w'||.  A proxy is usable where b_k Lr < pi/2 for every k: then
    Re cos u > 0, the ellipse is clear of the shift and of the cosine's
    zeros, and log cos u is the principal branch.  |log cos u| is at most
    M_k = log sec(b_k |L|max) where b_k |L|max < pi/2 (log sec has positive
    Taylor coefficients), else max(log cosh(b_k pi), -log cos(b_k Lr)) +
    pi/2.  Each endpoint's interpolation error is at most 4 M_k
    rho^-(p-1) / (rho - 1) (Trefethen, Approximation Theory and
    Approximation Practice, Thm 8.2, degree p - 1).
    """
    reach = _ELLIPSE_REACH * dist
    q = 2.0 * reach / len_j  # rho - 1/rho = 2q
    rho = q + np.sqrt(q * q + 1.0)
    Lr = np.maximum(np.abs(np.log(dist - reach)), np.abs(np.log(w_abs + len_j + reach)))
    usable = b.max() * Lr < 0.5 * math.pi
    Lr, rho = Lr[usable], rho[usable]
    x = b[:, None] * Lr
    u = b[:, None] * np.hypot(Lr, math.pi)
    with np.errstate(invalid="ignore"):
        M = np.where(
            u < 0.5 * math.pi,
            -np.log(np.cos(u)),
            np.maximum(np.log(np.cosh(b * math.pi))[:, None], -np.log(np.cos(x))) + 0.5 * math.pi,
        )
    # summed generation by generation, for one far pair as for many
    bound = 4.0 * rho ** (1 - p) / (rho - 1.0) * functools.reduce(np.add, counts[:, None] * M)
    return usable, bound


def log_cosine_product_many(
    params: SeriesParams,
    cs: CantorSet,
    zs: np.ndarray | AnchoredPoint,
    *,
    with_deriv: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None, np.ndarray]:
    """The cosine product G = prod_k prod_y cos(b_k log(z + i*y)) over every
    generation k = 1..`params.max_gen`, on an array of points or at one
    AnchoredPoint (a one-element result).

    Returns (log|G|, unreduced arg G, exact-zero mask, G'/G with
    `with_deriv` else None, certified remainder).  G'/G is the sum of
    -b_k tan(b_k log w) / w over the shifts w = z + i*y.  The remainder
    bounds the proxies' error in log G (both parts), not in G'/G.

    Array input takes the tree walk of `decay_exponent_many`, in its point
    blocks, at its own opening ratio 0.25 (_COSINE_FAR_TOL), not F's
    FAR_TOL: the proxies' order is fixed, so the ratio sets the accuracy of
    G'/G, which the remainder does not bound (at 0.4 G'/G misses 1e-14 of
    the sum of its terms' magnitudes).  Near pairs add their own
    generation-j term exactly.
    A far subtree becomes p = _PROXIES Chebyshev proxies w_i on its interval
    (`_proxy_table`): its generation-k endpoints sum as
    sum_i W[j, k, i] log cos(b_k log w_i), and the same weights give arg G
    and G'/G.  The generations with b_k max_i |log w_i| <= _POLY_CAP (all
    but the first one or two) sum at each proxy as one polynomial in
    (log w_i)^2 (`_poly_table`), whose truncation bound joins the remainder,
    the others as a log cos each.  A subtree is opened instead where its
    remainder is not certified (`_proxy_remainder`), or where it has fewer
    endpoints than p times its generation count.  An AnchoredPoint keeps
    the direct pair sums, as the series does at one.
    """
    _require_depth(params, cs)
    if isinstance(zs, AnchoredPoint):
        return _cosine_sum(params, cs, zs, with_deriv)
    zs = np.ascontiguousarray(np.asarray(zs, dtype=complex).ravel())
    return _in_point_blocks(lambda b: _cosine_sum(params, cs, b, with_deriv), zs)


def _cosine_sum(
    params: SeriesParams, cs: CantorSet, zs: np.ndarray | AnchoredPoint, with_deriv: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None, np.ndarray]:
    """The direct pair sums of `log_cosine_product_many` at an AnchoredPoint,
    or its tree walk on one block of points.

    The walk writes each generation's near and far terms into per-pair
    arrays, summed per point in pair order and added once per generation:
    as with F, a point's sums do not depend on the points sharing its
    walk."""
    K = params.max_gen
    n = _size(zs)
    log_abs = np.zeros(n)
    arg = np.zeros(n)
    zero = np.zeros(n, dtype=bool)
    dlog = np.zeros(n, dtype=complex) if with_deriv else None
    rem = np.zeros(n)
    coeffs = np.array([0.0] + [params.coeff(k) for k in range(1, K + 1)] + [0.0])
    if isinstance(zs, AnchoredPoint):
        for k in range(1, K + 1):
            for lr, th in _pair_blocks(zs, cs.left_endpoints(k)):
                la, ar, zm, dl = log_cos(lr, th, coeffs[k], with_deriv)
                zero |= zm.any()
                log_abs += la.sum()
                arg += ar.sum()
                if with_deriv:
                    dlog += dl.sum()
        return log_abs, arg, zero, dlog, rem
    p = _PROXIES
    tau, W = _proxy_table(params, p)
    T, A = _poly_table(params, p, _POLY_TERMS)
    m1 = np.arange(1.0, _POLY_TERMS + 1.0)[:, None, None]  # m + 1 of P'(x)'s T[m + 1]
    for j, len_j, idx, wr, wi, lr, th, d2, far in _tree_walk(params, cs, zs, _COSINE_FAR_TOL):
        ks = np.arange(max(j, 1), K + 1)  # generations left to sum
        v_log = np.zeros(idx.size, dtype=complex)  # log cos, summed per pair
        v_dl = np.zeros(idx.size, dtype=complex) if with_deriv else None
        v_rem = np.zeros(idx.size)
        if (2.0 ** (ks - j)).sum() < p * ks.size:
            far[:] = False  # fewer endpoints than proxies: sum them directly
        elif far.any():
            b = coeffs[ks]
            usable, bound = _proxy_remainder(
                p, b, 2.0 ** (ks - j) - 1.0, len_j, np.sqrt(d2[far]), np.exp(lr[far])
            )
            far[far] = usable
            v_rem[far] = bound
        near = ~far
        if j >= 1 and near.any():
            # a point on the set makes its own term NaN
            la, ar, zm, dl = log_cos(lr[near], th[near], coeffs[j], with_deriv)
            zero[idx[near][zm]] = True
            v_log.real[near], v_log.imag[near] = la, ar
            if with_deriv:
                v_dl[near] = dl
        sel = np.flatnonzero(far)
        for lo in range(0, sel.size, _PAIR_BLOCK // p):
            rows = sel[lo : lo + _PAIR_BLOCK // p]
            lp, tp = log_polar(wr[rows, None], wi[rows, None] + tau * len_j)  # (pair, proxy)
            # a pair's generations k < k0 stay explicit: b_k max|log w| is past the cap
            L_max = np.sqrt((lp * lp + tp * tp).max(axis=1))
            k0 = ks[0] + (coeffs[ks] * L_max[:, None] > _POLY_CAP).sum(axis=1)
            for k in range(ks[0], k0.max()):
                at = k0 > k
                la, ar, _, dl = log_cos(lp[at], tp[at], coeffs[k], with_deriv)
                v_log[rows[at]] += ((la + 1j * ar) * W[j, k]).sum(axis=1)
                if with_deriv:
                    v_dl[rows[at]] += (dl * W[j, k]).sum(axis=1)
            # the rest in one polynomial, zero where k0 = K + 1 (b_k0 = 0, T = 0)
            u = np.multiply(coeffs[k0, None], lp + 1j * tp)  # as in _tree_sum
            v_log[rows] += _horner(T[j][:, k0], u * u).sum(axis=1)
            v_rem[rows] += _log_cos_tail(_POLY_TERMS, coeffs[k0] * L_max) * A[j, k0]
            if with_deriv:  # 2 u b_k0 P'(u^2) / w
                dp = _horner(T[j][1:, k0] * m1, u * u) * (2.0 * coeffs[k0, None] * u)
                v_dl[rows] += np.multiply(dp, neg_power(lp, tp, 1.0)).sum(axis=1)
        log_abs += np.bincount(idx, weights=v_log.real, minlength=n)
        arg += np.bincount(idx, weights=v_log.imag, minlength=n)
        rem += np.bincount(idx, weights=v_rem, minlength=n)
        if with_deriv:
            dlog.real += np.bincount(idx, weights=v_dl.real, minlength=n)
            dlog.imag += np.bincount(idx, weights=v_dl.imag, minlength=n)
    return log_abs, arg, zero, dlog, rem


def cosine_product_logderiv_many(
    params: SeriesParams, cs: CantorSet, zs: np.ndarray
) -> np.ndarray:
    """Logarithmic derivative G'/G of the cosine product on an array."""
    return log_cosine_product_many(params, cs, zs, with_deriv=True)[3]


# ---------------------------------------------------------------------------
# F, f = exp(-F), G and g = G exp(-F) at an array of points or one AnchoredPoint
# ---------------------------------------------------------------------------


def _singular(cs: CantorSet, z: complex) -> SingularPointError:
    return SingularPointError(
        f"certified distance to the boundary set vanishes at depth {cs.depth}: z = {z}"
    )


def _exponent_tail(params: SeriesParams, d, ferr=0.0):
    """Certified bound on the decay exponent's error at distance d: the
    generation tail max(1, 1/d) * sum_{k>K} 2^k coeff plus the far-field
    remainder `ferr`; infinite at d = 0."""
    with np.errstate(divide="ignore"):
        scale = np.maximum(1.0, 1.0 / d)
    return scale * params.coeff_tail(params.max_gen) + ferr


def _cosine_log_tail(params: SeriesParams, d):
    """Tail bound on the accumulated log of the cosine product; infinite at d = 0."""
    with np.errstate(divide="ignore"):
        ln_d = np.minimum(np.log(d), 0.0)
    return (math.pi - ln_d * (_COS_LOG_CONST + 1.0)) * params.coeff_tail(params.max_gen)


def _factor(F: np.ndarray, F_tail: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log|f|, arg f, tail) of f = exp(-F).

    First-order tail propagation: the bound on |delta F| doubles as a bound
    on the log error of f while it is small; beyond 0.1 it is reported as
    infinite.  Re F = +inf is an exact zero (log -inf, tail 0).
    """
    zero = np.isposinf(F.real)
    log_f = -F.real
    arg_f = np.where(zero, 0.0, -F.imag)
    tail = np.where(zero, 0.0, np.where(F_tail <= 0.1, F_tail, math.inf))
    return log_f, arg_f, tail


def _to_complex(log_mag: np.ndarray, arg: np.ndarray) -> np.ndarray:
    """exp(log_mag + i*arg) as plain complex, saturating to 0 below LOG_TINY."""
    live = log_mag >= LOG_TINY
    out = np.zeros(log_mag.shape, dtype=complex)
    mag = np.exp(log_mag[live])
    out.real[live] = mag * np.cos(arg[live])
    out.imag[live] = mag * np.sin(arg[live])
    return out


@dataclass(frozen=True)
class PointValues:
    """F, f = exp(-F), the cosine product G and g = G exp(-F) at an array of
    points.

    Magnitudes are logs and arguments unreduced, as in LogComplex; an exact
    zero has log -inf and argument 0.  F_tail bounds the absolute error of
    F, the other tails the log errors of f, G and g; d is the certified
    lower distance to the boundary set that they use.  The G and g fields
    are None when the product was not asked for.
    """

    d: np.ndarray
    F: np.ndarray
    F_tail: np.ndarray
    log_f: np.ndarray
    arg_f: np.ndarray
    f_tail: np.ndarray
    log_G: np.ndarray | None = None
    arg_G: np.ndarray | None = None
    G_tail: np.ndarray | None = None
    g_zero: np.ndarray | None = None  # exact zeros of the cosine product
    log_g: np.ndarray | None = None
    arg_g: np.ndarray | None = None
    g_tail: np.ndarray | None = None

    def f(self) -> np.ndarray:
        return _to_complex(self.log_f, self.arg_f)

    def g(self) -> np.ndarray:
        return _to_complex(self.log_g, self.arg_g)


def evaluate_many(
    params: SeriesParams,
    cs: CantorSet,
    zs: np.ndarray | AnchoredPoint,
    *,
    product: bool = True,
) -> PointValues:
    """The decay exponent F, the decay factor f and (with `product`) the
    cosine product G and the branched product g at every point of `zs`, or
    at one AnchoredPoint (a one-element result), with certified tails.

    F is computed once per point, at the scalar opening ratio POINT_FAR_TOL
    (an AnchoredPoint by the direct sums).  F's tail is the generation tail
    at d plus the far-field remainder; the log tail of f is F's (infinite
    past 0.1); that of G is its generation tail plus the proxy remainder
    (see `log_cosine_product_many`), and g's adds f's.  An exact zero of
    the cosine product, a constructed ProductZero among them, gives
    G = g = 0 with tail 0.  Raises SingularPointError if any complex
    point's certified distance to the boundary set vanishes.  An anchored
    point's d is at most its stored offset: one that underflowed gives
    d = 0 and infinite tails.
    """
    if product:
        _require_depth(params, cs)
    if isinstance(zs, AnchoredPoint):
        # the anchor is a point of the set, so the offset bounds the distance
        # from above, also where the complex form rounds or underflows it
        d = np.minimum(cs.dist_to_boundary_rays_many([zs.to_complex()]), math.exp(zs.log_r))
    else:
        zs = np.ascontiguousarray(np.asarray(zs, dtype=complex).ravel())
        d = cs.dist_to_boundary_rays_many(zs)
        if (d == 0.0).any():
            raise _singular(cs, complex(zs[np.argmax(d == 0.0)]))
    F, _, ferr = decay_exponent_many(params, cs, zs)
    F_tail = _exponent_tail(params, d, ferr)
    log_f, arg_f, f_tail = _factor(F, F_tail)
    if not product:
        return PointValues(d, F, F_tail, log_f, arg_f, f_tail)
    la, ar, g_zero, _, g_rem = log_cosine_product_many(params, cs, zs)
    g_zero |= _constructed_zero(params, zs)
    log_G = np.where(g_zero, -math.inf, la)
    arg_G = np.where(g_zero, 0.0, ar)
    G_tail = np.where(g_zero, 0.0, _cosine_log_tail(params, d) + g_rem)
    dead = g_zero | np.isneginf(log_f)
    with np.errstate(invalid="ignore"):
        log_g = np.where(dead, -math.inf, la + log_f)
        arg_g = np.where(dead, 0.0, ar + arg_f)
    g_tail = np.where(g_zero, 0.0, G_tail + f_tail)
    return PointValues(d, F, F_tail, log_f, arg_f, f_tail, log_G, arg_G, G_tail, g_zero,
                       log_g, arg_g, g_tail)


def _read(log_mag: np.ndarray, arg: np.ndarray, tail: np.ndarray) -> TruncatedValue:
    """A one-element result of evaluate_many as a LogComplex and its tail."""
    return TruncatedValue(LogComplex(float(log_mag[0]), float(arg[0])), float(tail[0]))


def decay_exponent(
    params: SeriesParams, cs: CantorSet, z: complex | AnchoredPoint
) -> TruncatedValue:
    """Truncated shifted power sum at one point, with a certified tail bound
    (`evaluate_many`'s F and F_tail)."""
    v = evaluate_many(params, cs, z, product=False)
    return TruncatedValue(complex(v.F[0]), float(v.F_tail[0]))


def decay_factor(
    params: SeriesParams, cs: CantorSet, z: complex | AnchoredPoint
) -> TruncatedValue:
    """exp(-decay_exponent) as a LogComplex, with the log tail of
    `evaluate_many`: F's bound while it is at most 0.1, else infinite."""
    v = evaluate_many(params, cs, z, product=False)
    return _read(v.log_f, v.arg_f, v.f_tail)


def cosine_product(
    params: SeriesParams, cs: CantorSet, z: complex | AnchoredPoint
) -> TruncatedValue:
    """Truncated cosine product as a LogComplex, tail bound on its log (the
    generation tail plus the proxy remainder of `log_cosine_product_many`).

    A ProductZero of generation 1..max_gen is an exact zero, as in
    `evaluate_many`, read without the sums.
    """
    if _constructed_zero(params, z):
        _require_depth(params, cs)
        return TruncatedValue(LogComplex.zero(), 0.0)
    v = evaluate_many(params, cs, z)
    return _read(v.log_G, v.arg_G, v.G_tail)


def branched_product(
    params: SeriesParams, cs: CantorSet, z: complex | AnchoredPoint
) -> TruncatedValue:
    """Cosine product times the decay factor; constructed zeros short-circuit."""
    if _constructed_zero(params, z):
        _require_depth(params, cs)
        return TruncatedValue(LogComplex.zero(), 0.0)
    v = evaluate_many(params, cs, z)
    return _read(v.log_g, v.arg_g, v.g_tail)


def product_zero(
    params: SeriesParams, cs: CantorSet, idx: IntervalIndex, m: int
) -> ProductZero:
    """The m-th constructed zero attached to interval `idx`:
    z = -i*y + exp(-(m*pi - pi/2) / coeff(gen))."""
    if idx.gen < 1 or idx.gen > params.max_gen:
        raise ValidationError(f"generation {idx.gen} outside [1, {params.max_gen}]")
    if m < 1:
        raise ValidationError(f"m must be >= 1, got {m}")
    b = params.coeff(idx.gen)
    return ProductZero(
        y=cs.left_endpoint(idx),
        log_r=-(m * math.pi - math.pi / 2.0) / b,
        theta=0.0,
        idx=idx,
        m=m,
    )


def cosine_factor(
    params: SeriesParams, cs: CantorSet, idx: IntervalIndex, z: complex | AnchoredPoint
) -> complex:
    """The single product factor cos(coeff(gen) * log(z + i*y_idx))."""
    b = params.coeff(idx.gen)
    y = cs.left_endpoint(idx)
    if isinstance(z, AnchoredPoint) and z.y == y:
        L = complex(z.log_r, z.theta)
    else:
        zc = z.to_complex() if isinstance(z, AnchoredPoint) else complex(z)
        L = cmath.log(zc + 1j * y)
    return cmath.cos(b * L)


# ---------------------------------------------------------------------------
# contour derivatives
# ---------------------------------------------------------------------------


def _contour_ring(fn: Callable[[np.ndarray], np.ndarray], z: complex, radius: float) -> Ring:
    """The nested rings of fn's values on the circle |w - z| = radius."""
    return Ring(lambda theta: np.asarray(fn(z + radius * np.exp(1j * theta)), dtype=complex))


def _check_contour(z: complex, radius: float | None, orders: Sequence[int]) -> None:
    if not cmath.isfinite(z):
        raise ValidationError(f"contour centre must be finite, got {z}")
    if radius is not None and not 0.0 < radius < math.inf:
        raise ValidationError(f"contour radius must be positive and finite, got {radius}")
    for m in orders:
        if not isinstance(m, (int, np.integer)) or m < 0:
            raise ValidationError(f"derivative order must be an integer >= 0, got {m!r}")


def cauchy_derivatives(
    fn: Callable[[np.ndarray], np.ndarray],
    z: complex,
    radius: float,
    orders: Sequence[int],
) -> dict[int, tuple[complex, float]]:
    """Derivatives of a holomorphic function by trapezoidal contour sums.

    `fn` maps an array of contour nodes to the array of its values.  All
    requested orders share each ring of samples.  The node count doubles
    from 16 until every order's two latest estimates agree to 1e-9 relative
    (or 1e-300 absolute), at most up to 2^14 nodes; the final
    inter-refinement difference is the error estimate.  The rings are
    nested (`_quad.Ring`): the first evaluator call takes the 32 nodes of
    the first two rings, the 16-node estimate uses their even half, and each
    later doubling evaluates only the new odd-indexed half.  `fn` may also
    be the `Ring` of `_contour_ring` about the same z and radius, whose
    samples are then reused (`derivative` passes its last one).

    A non-finite z, a radius that is not positive and finite, or an order
    that is not an integer >= 0 raises ValidationError before any
    evaluation.
    """
    orders = list(orders)
    _check_contour(z, radius, orders)
    ring = fn if isinstance(fn, Ring) else _contour_ring(fn, z, radius)
    ring.values(2 * _CONTOUR_START)  # the first two rings in one call
    prev: dict[int, complex] = {}
    n = _CONTOUR_START
    while True:
        theta = 2.0 * math.pi * np.arange(n) / n
        vals = ring.values(n)
        est = {
            m: math.factorial(m)
            / (n * radius**m)
            * complex((vals * np.exp(-1j * m * theta)).sum())
            for m in orders
        }
        if prev:
            errs = {m: abs(est[m] - prev[m]) for m in orders}
            if all(
                errs[m] <= _CONTOUR_REL_TOL * max(abs(est[m]), 1e-300) for m in orders
            ):
                return {m: (est[m], errs[m]) for m in orders}
        prev = est
        n *= 2
        if n > _CONTOUR_MAX_NODES:
            raise ConvergenceError(
                f"contour derivative did not converge within {_CONTOUR_MAX_NODES} "
                f"nodes at z = {z}"
            )


_EVALUATORS = ("decay_factor", "branched_product", "decay_exponent")


def function_evaluator(
    params: SeriesParams, cs: CantorSet, name: str
) -> Callable[[np.ndarray], np.ndarray]:
    """Plain-complex evaluator for one of the three named series functions.

    The evaluator maps an array of complex points to the array of values
    (a scalar to a complex) in one `evaluate_many` call, so F is computed
    once per point.
    """
    if name == "decay_exponent":
        values = lambda zs: evaluate_many(params, cs, zs, product=False).F
    elif name == "decay_factor":
        values = lambda zs: evaluate_many(params, cs, zs, product=False).f()
    elif name == "branched_product":
        values = lambda zs: evaluate_many(params, cs, zs).g()
    else:
        raise ValidationError(f"unknown evaluator {name!r}; expected one of {_EVALUATORS}")

    def evaluate(z):
        zs = np.asarray(z, dtype=complex)
        out = values(zs.ravel()).reshape(zs.shape)
        return complex(out) if zs.ndim == 0 else out

    return evaluate


# derivative's last ring, as (cs, the rest of its key, ring)
_last_ring: tuple[CantorSet, tuple, Ring] | None = None


def derivative(
    params: SeriesParams,
    cs: CantorSet,
    name: str,
    z: complex,
    m: int,
    radius: float | None = None,
) -> tuple[complex, float]:
    """m-th derivative of a named series function at z via a certified-radius contour.

    The ring of samples is kept from one call to the next (one ring, for the
    last params, cs, name, z and radius; cs compared by identity), so
    orders 1, 2, 3 asked for one at a time at one point evaluate each node
    once, as one `cauchy_derivatives` call for all three would: every
    answer and error figure is that of a fresh single-order call, bit for
    bit.  An evaluator that raises leaves the kept ring as it was.
    """
    global _last_ring
    z = complex(z)
    _check_contour(z, radius, [m])
    d = cs.dist_to_boundary_rays(z)[0]
    if d == 0.0:
        raise SingularPointError(f"no admissible contour radius at z = {z}")
    if radius is None:
        radius = d / 2.0
        if z.real > 0.0:
            radius = min(radius, z.real / 2.0)
    elif radius >= d:
        raise ValidationError(f"radius {radius} reaches the singular set (dist >= {d})")
    key = (params, name, z, radius)
    if _last_ring is not None and _last_ring[0] is cs and _last_ring[1] == key:
        ring = _last_ring[2]
    else:
        ring = _contour_ring(function_evaluator(params, cs, name), z, radius)
    out = cauchy_derivatives(ring, z, radius, [m])
    _last_ring = (cs, key, ring)
    return out[m]


@dataclass(frozen=True)
class DecayRow:
    """One probe of the boundary-approach table."""

    z: complex
    d_lower: float
    exponent_real: float
    gauge: float  # Re(exponent) + m * log(d): diverges iff decay beats d^-m
    abs_decay_deriv: float
    abs_branched_deriv: float


def boundary_decay_check(
    params: SeriesParams,
    cs: CantorSet,
    m: int,
    probes: Sequence[complex],
) -> list[DecayRow]:
    """Tabulate the m-th derivative magnitudes along a boundary approach."""
    rows = []
    for z in probes:
        z = complex(z)
        d = cs.dist_to_boundary_rays(z)[0]
        if d == 0.0:
            raise SingularPointError(f"probe {z} touches the boundary set")
        re_F = decay_exponent(params, cs, z).value.real
        df, _ = derivative(params, cs, "decay_factor", z, m)
        dg, _ = derivative(params, cs, "branched_product", z, m)
        rows.append(
            DecayRow(z, d, re_F, re_F + m * math.log(d), abs(df), abs(dg))
        )
    return rows
