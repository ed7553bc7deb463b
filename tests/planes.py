"""The two forwarding planes, as pytest parameters.

A simulator selects its plane: the pure engine keeps the Python plane, the
compiled engine the C one.  ``PLANES`` parametrizes a test over the
simulator class of each; the compiled one skips where the extension does
not build.  ``DRR_CLASSES`` does the same for the deficit round robin of
each plane, for tests that drive one without a simulator, and
``BFC_CLASSES`` for the BFC data-plane classes of each (a namespace of
``FlowEntry``, ``FlowTable``, ``PhysicalQueuePool``, ``BfcScheduler``,
``BfcEgressDiscipline`` and ``packet_vfid``), and ``DCQCN_CLASSES`` for
each plane's ``DcqcnControl`` and ``DcqcnWindowedControl``.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.congestion import dcqcn
from repro.core import discipline, queues, scheduler, vfid
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


def _bfc_classes(module_of):
    """The BFC data-plane classes, each looked up by ``module_of(its module)``."""
    return SimpleNamespace(
        FlowEntry=module_of(vfid).FlowEntry,
        FlowTable=module_of(vfid).FlowTable,
        PhysicalQueuePool=module_of(queues).PhysicalQueuePool,
        BfcScheduler=module_of(scheduler).BfcScheduler,
        BfcEgressDiscipline=module_of(discipline).BfcEgressDiscipline,
        packet_vfid=module_of(vfid).packet_vfid,
    )


BFC_CLASSES = [
    pytest.param(_bfc_classes(lambda module: module), id="pure"),
    pytest.param(
        None if _COMPILED is None else _bfc_classes(lambda module: _COMPILED.compiled_plane),
        id="compiled",
        marks=_COMPILED_MARK,
    ),
]


DCQCN_CLASSES = [
    pytest.param(
        SimpleNamespace(DcqcnControl=dcqcn.DcqcnControl,
                        DcqcnWindowedControl=dcqcn.DcqcnWindowedControl),
        id="pure",
    ),
    pytest.param(
        None if _COMPILED is None else SimpleNamespace(
            DcqcnControl=_COMPILED.compiled_plane.DcqcnControl,
            DcqcnWindowedControl=_COMPILED.compiled_plane.DcqcnWindowedControl,
        ),
        id="compiled",
        marks=_COMPILED_MARK,
    ),
]
