"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from planes import PLANES
from repro.sim.engine import Simulator
from repro.sim.flow import reset_flow_ids


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
