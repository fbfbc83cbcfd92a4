import os
import tracemalloc

import numpy as np
import pytest

from maxsurf.catalog import catalog
from maxsurf.rational import RationalHolomorphic
from maxsurf.weierstrass import WeierstrassData


@pytest.fixture(scope="session")
def catalog_data():
    return catalog()


@pytest.fixture(scope="session")
def plane15():
    """Plane datum wide enough to reach w = 1 (catalog radii stop at 0.9)."""
    g = RationalHolomorphic.constant(2.0, 1.5)
    dh = RationalHolomorphic.constant(1.0, 1.5)
    return WeierstrassData(g, dh, 1.5)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260815)


@pytest.fixture(params=[1, 3], ids=["one-part", "three-parts"])
def cores(request, monkeypatch):
    """Run with this many cores available, so large text tables split into
    that many parts whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)), raising=False)
    return request.param


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def traced_peak(fn, *args) -> int:
    """Peak bytes allocated during fn(*args); numpy reports its buffers to
    tracemalloc."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def disk_samples(rng, radius, n):
    """Uniform samples in the disk of the given radius (area measure, 98%)."""
    r = radius * np.sqrt(rng.uniform(0.0, 0.98, n))
    return r * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))


# One line per acceptance criterion, appended by test_acceptance and echoed
# after the run so the verdicts are visible without -s.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
