"""The tree-code series against an independent 50-digit direct sum.

The oracle shares no code with the package: it sums coeff(k) (z + i y)^-a_k
over every stored endpoint y in mpmath, with the coefficients and exponents
written out from their definitions.  Only the endpoints come from the
package, because the series is defined over the stored doubles: a probe
1e-6 from an endpoint would feel a rounding shift of that endpoint at the
1e-10 level.
"""

import functools

import mpmath
import numpy as np
import pytest

from branchpoint_lab import CantorSet, SeriesParams, decay_exponent_many
from branchpoint_lab.series import FAR_TOL, POINT_FAR_TOL

# (s, max_gen): the deepest generation lies below 1e-6, 1e-4 and 2.4e-4
CASES = [(0.5, 10), (0.75, 10), (1.0, 8)]


def _exponent(s: float, k: int):
    if s == 1.0:
        return 1 - mpmath.mpf(k) ** (-mpmath.mpf(1) / 3) / 2
    return (1 + mpmath.mpf(s)) / 2


def _probes(cs: CantorSet, max_gen: int) -> list[complex]:
    """Points in deep construction gaps, at distances 1e-6 to 1 from an
    endpoint, and left of the imaginary axis off the mirrored set."""
    out = []
    for k, pos in [(max_gen - 1, 3), (max_gen - 3, 6), (3, 2)]:
        y = cs.left_endpoints(k)[pos]
        # the gap between the two children of interval (k, pos)
        mid = y + 0.5 * cs.length(k)
        out += [complex(1e-6, -mid), complex(-1e-6, -mid), complex(-0.2, -mid)]
    y = cs.left_endpoints(max_gen)[5]
    out += [complex(d, -y) for d in (1e-6, 1e-4, 1e-2, 1.0)]
    out += [complex(1e-3 * np.cos(1.2), 1e-3 * np.sin(1.2) - y)]
    out += [complex(-0.3, 0.2), complex(-0.2, -1.3), complex(0.4, -0.5)]
    return out


@functools.lru_cache(maxsize=None)
def _oracle(s: float, max_gen: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    cs = CantorSet.build(s, max_gen)
    zs = np.array(_probes(cs, max_gen))
    F = np.empty(zs.size, dtype=complex)
    Fp = np.empty(zs.size, dtype=complex)
    with mpmath.workdps(50):
        for i, z in enumerate(zs):
            zz = mpmath.mpc(z.real, z.imag)
            f = fp = mpmath.mpc(0)
            for k in range(1, max_gen + 1):
                a = _exponent(s, k)
                c = mpmath.mpf(2) ** (-k) / k**2
                for y in cs.left_endpoints(k):
                    w = zz + mpmath.mpc(0, y)
                    t = c * mpmath.power(w, -a)
                    f += t
                    fp -= a * t / w
            F[i] = complex(f)
            Fp[i] = complex(fp)
    return zs, F, Fp


@pytest.mark.parametrize("s,max_gen", CASES)
@pytest.mark.parametrize("far_tol", [POINT_FAR_TOL, 1e-2, FAR_TOL])
def test_series_matches_mpmath_oracle(s, max_gen, far_tol):
    zs, F_mp, Fp_mp = _oracle(s, max_gen)
    params = SeriesParams(s=s, max_gen=max_gen)
    cs = CantorSet.build(s, max_gen)
    F, Fp, ferr = decay_exponent_many(params, cs, zs, with_deriv=True, far_tol=far_tol)
    assert np.all(np.abs(F - F_mp) <= ferr + 1e-13 * np.abs(F_mp))
    assert np.all(np.abs(Fp - Fp_mp) <= 1e-8 * np.abs(Fp_mp))
