"""Shared fixtures for the test suite, and the per-test time limit."""

from __future__ import annotations

import faulthandler
import os
import sys

import pytest

from planes import PLANES
from repro.sim.engine import Simulator
from repro.sim.flow import reset_flow_ids

#: Seconds one test (set-up and teardown included) may take before it is
#: taken for a hang: faulthandler writes every thread's traceback to stderr
#: and ends the run, so a looping C container fails the suite instead of
#: stalling it.  The slowest test takes about 9 s on a 2-vCPU box; a failing
#: Hypothesis test may shrink its example for up to 300 s more, and should
#: report it rather than time out.
TEST_TIME_LIMIT_S = 600.0

_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # A copy of the terminal's stderr, taken while output is not captured:
    # the traceback of a hung test must outlive its captured output.
    fd = os.dup(sys.stderr.fileno())
    config.stash[_STDERR] = fd
    config.add_cleanup(lambda: os.close(fd))


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item):
    faulthandler.dump_traceback_later(
        TEST_TIME_LIMIT_S, exit=True, file=item.config.stash[_STDERR]
    )
    try:
        return (yield)
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture(autouse=True)
def _fresh_flow_ids():
    """Keep flow IDs deterministic within each test."""
    reset_flow_ids()
    yield
    reset_flow_ids()


@pytest.fixture
def sim() -> Simulator:
    return Simulator(seed=42)


@pytest.fixture(params=PLANES)
def plane_sim(request):
    """A simulator of each forwarding plane (modules alias it as ``sim``)."""
    return request.param(seed=42)
