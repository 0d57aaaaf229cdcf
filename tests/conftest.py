"""Shared helpers for the test suite.

Every statistical test runs a fixed seed, so the suite is deterministic;
thresholds are sized so that a re-seeded run stays comfortably inside
them (3 sigma for Monte Carlo means, 0.1%-level constants for KS).
"""
import tempfile

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from randset.ppp import RngStream

MASTER_SEED = 20260814


def pytest_configure(config):
    # Hypothesis caches the constants it reads from source files even with
    # derandomize=True and no example database; keep that cache out of the
    # checkout.  Its pytest plugin reads them right after collection, so the
    # home directory is set here, before collection.
    home = tempfile.TemporaryDirectory(prefix="randset-hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)


@pytest.fixture
def rng():
    """Fresh root stream; tests spawn labeled children off it."""
    return RngStream(MASTER_SEED)


def assert_close_sigma(estimate, target, se, k=3.0, label=""):
    """|estimate - target| <= k * se, with a readable failure message."""
    gap = abs(estimate - target)
    assert gap <= k * se, (
        f"{label or 'estimate'} {estimate:.6g} vs {target:.6g}: "
        f"gap {gap:.3g} > {k:g} * se {se:.3g}")


def binomial_se(p, n):
    """Standard error of a frequency estimate, floored away from zero."""
    return np.sqrt(max(p * (1.0 - p), 1.0 / n) / n)

