import functools
import importlib

import numpy as np
import pytest

from branchpoint_lab import CantorSet, SeriesParams


def _monotone(sample):
    """`frequency._sample` that checks Almgren's monotonicity on every
    sample it makes: I'(r) >= -(its error) on every full circle (a sample
    with a slope).  With A, B and C the arc integrals of w, w phi and
    w |psi|^2, w = |h|^(2/Q), I' = 2(AC - B^2)/(r Q^2 A^2) >= 0 by
    Cauchy-Schwarz."""

    @functools.wraps(sample)
    def checked(*args, **kwargs):
        fs = sample(*args, **kwargs)
        assert not fs.dI_dr < -fs.dI_dr_error, f"I' = {fs.dI_dr} < 0 at {fs}"
        return fs

    return checked


# installed before the test modules run, on the one function that makes
# every frequency sample of the suite (through `frequency`, a ladder of
# `frequency_curve`, whose circles share ring passes, or the CLI)
_freq = importlib.import_module("branchpoint_lab.frequency")
_freq._sample = _monotone(_freq._sample)


@pytest.fixture(scope="session")
def cs_half():
    return CantorSet.build(0.5, 12)


@pytest.fixture(scope="session")
def params_half():
    return SeriesParams(s=0.5, max_gen=12)


@pytest.fixture(scope="session")
def probe_grid():
    """Deterministic probes in the open right half-plane, away from the set."""
    rng = np.random.default_rng(20240817)
    re = rng.uniform(0.05, 1.5, 64)
    im = rng.uniform(-1.2, 1.2, 64)
    return re + 1j * im
