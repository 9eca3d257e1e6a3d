"""Cantor-type subsets of [0, 1] with prescribed generation lengths.

The set is the intersection over generations k of 2^k closed intervals of
equal length: 2^(-k/s) for a dimension parameter 0 < s < 1, and
2^(-k - k^(2/3)) in the borderline case s = 1.  Each interval of generation
k-1 splits into two children sharing its left and right endpoints, so every
stored endpoint stays in the set at all deeper generations.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

MAX_DEPTH = 40


def _check_s(s: float) -> None:
    if not (0.0 < s <= 1.0):
        raise ValidationError(f"dimension parameter s must lie in (0, 1], got {s}")


def log2_interval_length(k: int, s: float) -> float:
    """Base-2 log of the generation-k interval length (exact closed form)."""
    _check_s(s)
    if k < 0 or k != int(k):
        raise ValidationError(f"generation must be a non-negative integer, got {k}")
    if k == 0:
        return 0.0
    if s == 1.0:
        return -(k + k ** (2.0 / 3.0))
    return -k / s


def interval_length(k: int, s: float) -> float:
    """Length of every generation-k interval."""
    return 2.0 ** log2_interval_length(k, s)


def _json_value(record: dict, key: str, kind: type | tuple[type, ...]):
    """record[key] if it is of `kind` and not a boolean (which JSON keeps
    apart from numbers), else TypeError."""
    value = record[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"{key} = {value!r} is not a JSON {'integer' if kind is int else 'number'}")
    return value


@dataclass(frozen=True)
class IntervalIndex:
    """Position of one construction interval: generation `gen`, slot `pos`."""

    gen: int
    pos: int

    def __post_init__(self) -> None:
        if self.gen < 0:
            raise ValidationError(f"generation must be >= 0, got {self.gen}")
        if not (1 <= self.pos <= 2 ** self.gen):
            raise ValidationError(
                f"position must lie in [1, 2^{self.gen}], got {self.pos}"
            )


class CantorSet:
    """All construction intervals up to a finite depth, fixed by (s, depth).

    The left child copies its parent's left endpoint bit-for-bit; the right
    child is placed so that it shares the parent's right endpoint.  So the
    generation-k left endpoints are every 2^(depth-k)-th of the deepest
    generation's, which alone is stored, built on first read.
    """

    def __init__(self, s: float, depth: int):
        _check_s(s)
        if depth < 1:
            raise ValidationError(f"depth must be >= 1, got {depth}")
        if depth > MAX_DEPTH:
            raise ValidationError(f"depth {depth} exceeds maximum {MAX_DEPTH}")
        self.s = s
        self.depth = depth

    @classmethod
    def build(cls, s: float, depth: int) -> "CantorSet":
        return cls(s, depth)

    @functools.cached_property
    def _lefts(self) -> np.ndarray:
        """Sorted left endpoints of the deepest generation (read-only)."""
        lefts = np.zeros(1)
        for k in range(1, self.depth + 1):
            shift = interval_length(k - 1, self.s) - interval_length(k, self.s)
            lefts = np.stack([lefts, lefts + shift], axis=1).ravel()
        lefts.flags.writeable = False
        return lefts

    def left_endpoints(self, k: int) -> np.ndarray:
        """Sorted left endpoints of generation k (read-only view)."""
        if not (0 <= k <= self.depth):
            raise ValidationError(f"generation {k} not stored (depth {self.depth})")
        return self._lefts[:: 2 ** (self.depth - k)]

    def left_endpoint(self, idx: IntervalIndex) -> float:
        return float(self.left_endpoints(idx.gen)[idx.pos - 1])

    def length(self, k: int) -> float:
        return interval_length(k, self.s)

    def cover_sum(self, k: int, sigma: float) -> float:
        """Sum of |interval|^sigma over generation k.

        Evaluated through base-2 exponents so the s < 1 identity (value 1)
        is exact to rounding of k/s rather than of the tiny lengths.
        """
        if not (1 <= k <= self.depth):
            raise ValidationError(f"generation {k} out of range [1, {self.depth}]")
        if not (0.0 < sigma <= 1.0):
            raise ValidationError(f"cover exponent must lie in (0, 1], got {sigma}")
        return 2.0 ** (k + sigma * log2_interval_length(k, self.s))

    def dist_to_set(self, y: float) -> tuple[float, float]:
        """Bracket [lower, upper] for the distance from y to the limit set.

        lower is the distance to the union of depth-K intervals (the limit
        set is inside that union); both endpoints of every stored interval
        survive to the limit set, so lower + length(K) is an upper bound.
        """
        lower = float(self.dist_to_set_many(np.array([y]))[0])
        return lower, lower + interval_length(self.depth, self.s)

    def dist_to_set_many(self, ys: np.ndarray) -> np.ndarray:
        """Vectorized lower distance bound for an array of reals."""
        lefts = self._lefts
        length = interval_length(self.depth, self.s)
        ys = np.asarray(ys, dtype=float)
        i = np.searchsorted(lefts, ys)
        below = np.clip(i - 1, 0, lefts.size - 1)
        above = np.clip(i, 0, lefts.size - 1)
        d_left = np.maximum(0.0, ys - (lefts[below] + length))
        d_left[i == 0] = np.inf
        d_right = np.maximum(0.0, lefts[above] - ys)
        d_right[i == lefts.size] = np.inf
        return np.minimum(d_left, d_right)

    def dist_to_boundary_rays(self, z: complex) -> tuple[float, float]:
        """Bracket the distance from z to the union of leftward rays rooted at
        the mirrored limit set on the imaginary axis.

        For Re(z) >= 0 this equals the distance to the mirrored set itself.
        The lower end is that of :meth:`dist_to_boundary_rays_many`.
        """
        dlo, dhi = self.dist_to_set(-z.imag)
        x = z.real
        if x >= 0.0:
            return float(np.hypot(x, dlo)), math.hypot(x, dhi)
        return dlo, dhi

    def dist_to_boundary_rays_many(self, zs: np.ndarray) -> np.ndarray:
        """Vectorized lower bound of :meth:`dist_to_boundary_rays`."""
        zs = np.asarray(zs, dtype=complex)
        d = self.dist_to_set_many(-zs.imag)
        return np.where(zs.real >= 0.0, np.hypot(zs.real, d), d)

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        intervals = []
        for k in range(self.depth + 1):
            length = interval_length(k, self.s)
            for pos, left in enumerate(self.left_endpoints(k), start=1):
                intervals.append(
                    {"k": k, "l": pos, "left": float(left), "length": length}
                )
        return {"s": self.s, "depth": self.depth, "intervals": intervals}

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_json_dict(), **kwargs)

    @classmethod
    def from_json_dict(cls, data: dict) -> "CantorSet":
        """Inverse of :meth:`to_json_dict`.

        `depth`, `k` and `l` must be JSON integers and `s` and `left` JSON
        numbers, none of them booleans.  Every interval (k, l),
        0 <= k <= depth, 1 <= l <= 2^k, must appear exactly once with the
        construction's left endpoint, bit for bit; anything else raises
        ValidationError.
        """
        try:
            s = float(_json_value(data, "s", (int, float)))
            depth = _json_value(data, "depth", int)
            records = [(_json_value(r, "k", int), _json_value(r, "l", int),
                        float(_json_value(r, "left", (int, float)))) for r in data["intervals"]]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed set data: {exc!r}") from None
        cs = cls(s, depth)
        # checked before the endpoints are built: they then cost no more than the input
        if len(records) != 2 ** (depth + 1) - 1:
            raise ValidationError(
                f"a depth-{depth} set has {2 ** (depth + 1) - 1} intervals, got {len(records)}"
            )
        seen = np.zeros(2 ** (depth + 1), dtype=bool)  # by heap index 2^k + l - 1
        for k, l, left in records:
            if not (0 <= k <= depth and 1 <= l <= 2 ** k):
                raise ValidationError(f"interval ({k}, {l}) outside a depth-{depth} set")
            if seen[2**k + l - 1]:
                raise ValidationError(f"interval ({k}, {l}) listed twice")
            seen[2**k + l - 1] = True
            if left != cs._lefts[(l - 1) << (depth - k)]:
                raise ValidationError(f"interval ({k}, {l}) has left endpoint {left!r}, "
                                      "not the construction's")
        return cs
