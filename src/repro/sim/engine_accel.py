"""Accelerated engine backend: C event heap and C run loop.

:class:`AccelSimulator` is a drop-in :class:`~repro.sim.engine.Simulator`
whose event storage and dispatch loop live in the ``_accelcore`` C
extension (see ``_accelcore.c``).  The public contract is identical — same
scheduling API, same :class:`~repro.sim.engine.Event` handles, same
``(time, origin, parent, parent2, parent3, seq)`` total order — so a run
under either backend produces byte-identical results; the golden-records
parity tests in ``tests/test_engine_accel.py`` pin this for every supported
scheme.

Where the pure engine keeps a calendar queue (O(1) inserts at high density,
but every event pays interpreter-loop overhead), the accel backend keeps a
plain binary heap in C: the log-factor is dwarfed by executing the pop,
clock/ancestry updates and cancellation checks outside the interpreter.
The scheduling calls stay Python and file their entries through the heap's
``insert``; the clock, the ancestry registers and ``_seq`` stay plain
instance attributes, which the C run loop writes in the instance dict.

This is the default backend wherever the extension builds (see
``engine.py``'s backend selector); ``REPRO_ENGINE=pure`` forces the pure
engine, which is also the fallback, logged once, when it cannot be built.
Nodes built on an :class:`AccelSimulator` also forward through the
compiled plane (:mod:`repro.sim.plane`).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from . import accel_build
from .engine import (
    _COMPACT_MIN_CANCELLED,
    _NEVER,
    Event,
    SimulationError,
    Simulator,
)

_accelcore = accel_build.load()

#: Why the extension is unavailable (None when it loaded fine).
unavailable_reason: Optional[str] = None if _accelcore else accel_build.last_error


class AccelSimulator(Simulator):
    """Simulator variant backed by the C event heap and run loop."""

    def __init__(self, seed: int = 1) -> None:
        if _accelcore is None:  # pragma: no cover - guarded by the selector
            raise SimulationError(
                f"accel backend unavailable: {unavailable_reason}"
            )
        super().__init__(seed)
        self._heap = _accelcore.EventHeap()

    # -- scheduling (heap-backed) -----------------------------------------

    def schedule(
        self, delay_ns: int, callback: Callable[..., None], *args: Any
    ) -> Event:
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay_ns})")
        time_ns = self.now + int(delay_ns)
        seq = self._seq
        self._heap.insert(
            time_ns, self.now, self._cur_origin, self._cur_parent,
            self._cur_parent2, seq, callback, args,
        )
        self._seq = seq + 1
        return Event(time_ns, seq, self)

    def schedule_at(
        self, time_ns: int, callback: Callable[..., None], *args: Any
    ) -> Event:
        if time_ns < self.now:
            raise SimulationError(
                f"cannot schedule at {time_ns} ns, current time is {self.now} ns"
            )
        time_ns = int(time_ns)
        seq = self._seq
        self._heap.insert(
            time_ns, self.now, self._cur_origin, self._cur_parent,
            self._cur_parent2, seq, callback, args,
        )
        self._seq = seq + 1
        return Event(time_ns, seq, self)

    def post(self, delay_ns: int, callback: Callable[..., None], *args: Any) -> None:
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay_ns})")
        seq = self._seq
        now = self.now
        # The heap refuses a firing time past 2**63 - 1 (OverflowError), and
        # a refused post consumes no sequence number.
        self._heap.insert(
            now + int(delay_ns), now, self._cur_origin, self._cur_parent,
            self._cur_parent2, seq, callback, args,
        )
        self._seq = seq + 1

    def _insert(self, entry: tuple) -> None:
        # schedule_boundary (and the pure run loop's put-back, unused here)
        # file through this hook; the entry layout is the engine-wide one.
        self._heap.insert(*entry)

    # -- introspection -----------------------------------------------------

    def pending_events(self) -> int:
        return len(self._heap)

    def next_event_time(self) -> Optional[int]:
        return self._heap.peek_time()

    def calendar_stats(self) -> dict:
        """Backend introspection; the accel heap has no calendar geometry."""
        return {
            "backend": "accel",
            "heap_entries": len(self._heap),
            "retunes": 0,
        }

    # -- cancellation ------------------------------------------------------

    def _cancel(self, seq: int) -> None:
        cancelled = self._cancelled
        cancelled.add(seq)
        if (
            len(cancelled) >= _COMPACT_MIN_CANCELLED
            and len(cancelled) * 2 > len(self._heap)
        ):
            # Compacting also reaps seqs cancelled after their event fired,
            # exactly like the pure engine's _compact.
            self._heap.compact(cancelled)
            cancelled.clear()

    # -- execution ---------------------------------------------------------

    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> int:
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run call)")
        self._running = True
        stop_after = _NEVER if until is None else until
        cap = _NEVER if max_events is None else max_events
        heap = self._heap
        try:
            processed = heap.run(self, self._cancelled, stop_after, cap)
        finally:
            self._running = False
            # last_processed is exact even when a callback raised mid-loop.
            self._events_processed += heap.last_processed
        if (
            until is not None
            and self.now < until
            and (max_events is None or processed < max_events)
        ):
            self.now = until
        return processed


if _accelcore is not None:
    # The plane wraps the extension loaded above, so it comes last.
    from . import plane

    #: Ports, switches and FIFO queues built on an AccelSimulator forward
    #: through the compiled plane.
    AccelSimulator.compiled_plane = plane
