"""Accelerated engine backend: the engine's bookkeeping and run loop in C.

:class:`AccelSimulator` is a drop-in :class:`~repro.sim.engine.Simulator`
whose C base, ``_accelcore.EventHeap`` (see ``_accelcore.c``), holds the
event queue and all of its bookkeeping.  The public contract is identical —
same scheduling API, same :class:`~repro.sim.engine.Event` handles, same
``(time, origin, seq)`` total order — so a run under either backend
produces byte-identical results; the golden-records parity tests in
``tests/test_engine_accel.py`` pin this for every supported scheme.

Both engines keep one binary heap in the same order and fire it with the
same loop; the C one executes the pop, the clock update and the
cancellation checks outside the interpreter.  The clock, ``_seq`` and the
cancelled seqs are C fields that Python reads and writes under the pure
engine's names (``now``, ``_seq``, ``_cancelled``), and ``post``,
``schedule``, ``schedule_at``, ``schedule_boundary``'s ``_insert``,
``Event.cancel``'s ``_cancel`` and ``Simulator.run``'s ``_run`` are C
methods, so no event stores into or reads from the instance dict.

This is the default backend wherever the extension builds (see
``engine.py``'s backend selector); ``REPRO_ENGINE=pure`` forces the pure
engine, which is also the fallback, logged once, when it cannot be built.
Nodes built on an :class:`AccelSimulator` also forward through the
compiled plane (:mod:`repro.sim.plane`).
"""

from __future__ import annotations

from typing import Optional

from . import accel_build
from .engine import _COMPACT_MIN_CANCELLED, Event, SimulationError, Simulator

_accelcore = accel_build.load()

#: Why the extension is unavailable (None when it loaded fine).
unavailable_reason: Optional[str] = None if _accelcore else accel_build.last_error

if _accelcore is not None:
    _accelcore.bind_engine(Event, SimulationError, _COMPACT_MIN_CANCELLED)
    _EngineCore = _accelcore.EventHeap
else:  # pragma: no cover - guarded by the selector

    class _EngineCore:
        """Stands in for the missing C base: AccelSimulator refuses to build."""


class AccelSimulator(_EngineCore, Simulator):
    """Simulator variant backed by the C event heap, registers and run loop."""

    def __init__(self, seed: int = 1) -> None:
        if _accelcore is None:  # pragma: no cover - guarded by the selector
            raise SimulationError(
                f"accel backend unavailable: {unavailable_reason}"
            )
        super().__init__(seed)

    def _init_event_queue(self) -> None:
        """The pending entries live in the C base; there is no ``_heap``."""


if _accelcore is not None:
    # The plane wraps the extension loaded above, so it comes last.
    from . import plane

    #: Ports, switches and FIFO queues built on an AccelSimulator forward
    #: through the compiled plane.
    AccelSimulator.compiled_plane = plane
