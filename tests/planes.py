"""The two forwarding planes, as pytest parameters.

A simulator selects its plane: the pure engine keeps the Python plane, the
compiled engine the C one.  ``PLANES`` parametrizes a test over the
simulator class of each; the compiled one skips where the extension does
not build.  ``DRR_CLASSES`` does the same for the deficit round robin of
each plane, for tests that drive one without a simulator.
"""

from __future__ import annotations

import pytest

from repro.sim.disciplines import DeficitRoundRobin
from repro.sim.engine import PureSimulator


def _compiled_simulator():
    """The compiled engine's simulator class, or the reason there is none."""
    try:
        from repro.sim.engine_accel import AccelSimulator, unavailable_reason
    except Exception as exc:  # pragma: no cover - import itself should not fail
        return None, repr(exc)
    return (AccelSimulator if unavailable_reason is None else None), unavailable_reason


_COMPILED, _COMPILED_MISSING = _compiled_simulator()

PLANES = [
    pytest.param(PureSimulator, id="pure"),
    pytest.param(
        _COMPILED,
        id="compiled",
        marks=pytest.mark.skipif(
            _COMPILED is None, reason=f"compiled plane unavailable: {_COMPILED_MISSING}"
        ),
    ),
]

_COMPILED_MARK = pytest.mark.skipif(
    _COMPILED is None, reason=f"compiled plane unavailable: {_COMPILED_MISSING}"
)

DRR_CLASSES = [
    pytest.param(DeficitRoundRobin, id="pure"),
    pytest.param(
        None if _COMPILED is None else _COMPILED.compiled_plane.DeficitRoundRobin,
        id="compiled",
        marks=_COMPILED_MARK,
    ),
]
