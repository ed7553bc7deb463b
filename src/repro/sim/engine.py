"""Discrete-event simulation engine.

The event queue is a binary min-heap (:mod:`heapq`) of plain
``(time, origin, seq, callback, args)`` tuples — the same algorithm, entry
layout and run loop as the compiled ``_accelcore.EventHeap``, so this module
is the readable reference the C code is checked against.

Events scheduled for the same instant run in strictly increasing
``(origin, seq)`` order: ``origin`` is the simulated time at which the event
was *scheduled*.  For everything scheduled through the public API the origin
is simply ``now``, which is non-decreasing over a run, so the
``(time, origin, seq)`` order is provably identical to plain ``seq`` order
and a fixed seed still produces bit-identical runs (the golden-records
fixture pins this).  The origin exists for the sharded runtime
(:mod:`repro.shard`): a boundary packet re-injected from another shard
carries its departure instant as its origin, which slots the delivery among
local same-time events where a single-process run inserts the
peer-delivery post.  One level is enough on the per-DC cut: no local event
at a gateway is scheduled with a delay equal to serialization plus gateway
propagation, so no local event ties a delivery on ``(time, origin)``
(docs/determinism.md).  ``seq`` is unique, so an ordering decision never
compares into the callback.

Cancellation is handled by the :class:`Event` handle that
:meth:`Simulator.schedule` returns: cancelled sequence numbers are recorded
in a side set and skipped when they reach the head (lazy deletion).  When
cancelled entries come to dominate the queue, the heap is compacted
(filtered and re-heapified) so that long-running simulations with heavy
cancel traffic (retransmission timers, pacing wake-ups) do not leak memory.

Typical usage::

    sim = Simulator()
    sim.schedule(units.microseconds(5), callback, arg1, arg2)
    sim.run(until=units.milliseconds(2))

This heap is the reference engine (:data:`PureSimulator`).  Where the C
extension of :mod:`repro.sim.engine_accel` builds, the module-level
``Simulator`` name resolves to that compiled backend instead — same API,
byte-identical event order; ``REPRO_ENGINE=pure`` keeps this one (see
:func:`_select_backend`).
"""

from __future__ import annotations

import logging
import random
import sys
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

#: Sentinel "time" larger than any reachable simulated instant; lets the run
#: loop use one integer comparison instead of a per-event None check.
_NEVER = sys.maxsize

#: Compact the queue only when at least this many events are cancelled *and*
#: cancelled entries outnumber live ones.  Small runs never pay for it.
_COMPACT_MIN_CANCELLED = 64


class SimulationError(RuntimeError):
    """Raised when the simulator is used incorrectly (e.g. scheduling in the past)."""


class Event:
    """Handle for one scheduled callback.

    The queue itself stores plain tuples; this handle carries just enough to
    cancel the entry (and for callers to inspect when it would fire).  The
    ``cancelled`` flag is sticky, exactly like the pre-tuple event object:
    it stays ``True`` even after the engine has discarded the queue entry.
    """

    __slots__ = ("time", "seq", "cancelled", "_sim")

    def __init__(self, time: int, seq: int, sim: "Simulator") -> None:
        self.time = time
        self.seq = seq
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Mark this event so the engine skips it."""
        if not self.cancelled:
            self.cancelled = True
            self._sim._cancel(self.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time} seq={self.seq} {state}>"


class Simulator:
    """Event loop with an integer-nanosecond clock.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned random number generator.  Components that
        need randomness (ECMP hashing salt, ECN marking, random queue picks)
        should derive their generators from :meth:`rng` so a whole experiment
        is reproducible from a single seed.

    Attributes
    ----------
    now:
        Current simulated time in nanoseconds.  A plain attribute here (not
        a property) so the per-event hot paths read it without descriptor
        overhead, and a C field of the compiled engine, which makes it an
        int at most once per clock value; treat it as read-only.
    """

    #: The compiled forwarding plane (:mod:`repro.sim.plane`) that nodes
    #: built on this simulator use, or None: the pure engine keeps the
    #: Python plane.
    compiled_plane = None

    def __init__(self, seed: int = 1) -> None:
        self.now: int = 0
        self._seq: int = 0
        self._cancelled: set = set()
        self._rng = random.Random(seed)
        self._events_processed: int = 0
        self._running = False
        self._init_event_queue()
        # -- shared per-simulation memos ----------------------------------
        self._tx_memos: dict = {}

    def _init_event_queue(self) -> None:
        #: The pending entries, a heapq heap in the engine's total order.
        self._heap: list = []

    # -- clock ------------------------------------------------------------

    @property
    def events_processed(self) -> int:
        """Total number of events fired since construction."""
        return self._events_processed

    def rng(self, salt: int = 0) -> random.Random:
        """Return a new deterministic RNG derived from the simulator seed."""
        return random.Random(self._rng.randint(0, 2**62) ^ salt)

    def tx_memo(self, rate_bps: float) -> dict:
        """The ``packet size -> serialization ns`` memo of one link rate.

        Serialization time is a pure function of size and rate, so every
        egress port of this simulation with that rate shares one memo (it
        holds one entry per packet size seen, about a thousand at most).
        """
        return self._tx_memos.setdefault(rate_bps, {})

    # -- scheduling -------------------------------------------------------

    def schedule(self, delay_ns: int, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule *callback(\\*args)* to run ``delay_ns`` from now."""
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay_ns})")
        time_ns = self.now + int(delay_ns)
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time_ns, self.now, seq, callback, args))
        return Event(time_ns, seq, self)

    def schedule_at(self, time_ns: int, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule *callback(\\*args)* at absolute time ``time_ns``."""
        if time_ns < self.now:
            raise SimulationError(
                f"cannot schedule at {time_ns} ns, current time is {self.now} ns"
            )
        time_ns = int(time_ns)
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time_ns, self.now, seq, callback, args))
        return Event(time_ns, seq, self)

    def schedule_boundary(
        self,
        time_ns: int,
        origin_ns: int,
        callback: Callable[..., None],
        *args: Any,
    ) -> None:
        """Schedule an event that another shard scheduled.

        Used only by the sharded runtime to re-inject a boundary packet
        another shard transmitted: ``origin_ns`` is the departure instant
        at which the transmitting shard committed it, the origin the
        single-process peer-delivery post carries.  Among events firing at
        the same time, this entry orders where the single-process schedule
        places that post.
        """
        if time_ns < self.now:
            raise SimulationError(
                f"cannot schedule at {time_ns} ns, current time is {self.now} ns"
            )
        if origin_ns > time_ns:
            raise SimulationError(
                f"boundary origin {origin_ns} ns must not follow its "
                f"delivery at {time_ns} ns"
            )
        seq = self._seq
        self._seq = seq + 1
        self._insert((int(time_ns), int(origin_ns), seq, callback, args))

    def post(self, delay_ns: int, callback: Callable[..., None], *args: Any) -> None:
        """Like :meth:`schedule`, but fire-and-forget: no cancellation handle.

        The per-packet layers (serialization done, propagation delivery) never
        cancel their follow-on events, so they use this entry point to skip
        the handle allocation entirely.
        """
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay_ns})")
        seq = self._seq
        self._seq = seq + 1
        now = self.now
        heappush(self._heap, (now + int(delay_ns), now, seq, callback, args))

    def _insert(self, entry: tuple) -> None:
        """File one ``(time, origin, seq, callback, args)`` entry."""
        heappush(self._heap, entry)

    def pending_events(self) -> int:
        """Number of events currently in the queue (including cancelled ones
        that have not been reaped by a pop or a compaction yet)."""
        return len(self._heap)

    def next_event_time(self) -> Optional[int]:
        """Earliest pending entry's firing time, or ``None`` when idle.

        Cancelled entries that have not been reaped yet are included, which
        can only *under*-estimate the true next firing time — safe for the
        conservative window computation of the sharded runtime (the stale
        entry is purged by the next ``run`` call, so progress is preserved).
        Deterministic: cancellation state is itself deterministic.
        """
        heap = self._heap
        return heap[0][0] if heap else None

    # -- cancellation ------------------------------------------------------

    def _cancel(self, seq: int) -> None:
        cancelled = self._cancelled
        cancelled.add(seq)
        if (
            len(cancelled) >= _COMPACT_MIN_CANCELLED
            and len(cancelled) * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries from the heap in place.

        Clearing the cancelled set also reaps sequence numbers cancelled
        after their event already fired, so neither structure grows without
        bound.
        """
        cancelled = self._cancelled
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[2] not in cancelled]
        heapify(heap)
        cancelled.clear()

    # -- execution --------------------------------------------------------

    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once the next event would fire strictly after this time.  The
            clock is advanced to ``until`` on a clean stop so periodic meters
            measure the full window.
        max_events:
            Safety valve: stop after this many events.

        Returns
        -------
        int
            The number of events processed by this call.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run call)")
        self._running = True
        stop_after = _NEVER if until is None else until
        cap = _NEVER if max_events is None else max_events
        try:
            processed = self._run(stop_after, cap)
        finally:
            self._running = False
            # last_processed is exact even when a callback raised mid-loop.
            self._events_processed += self.last_processed
        # Advance the clock to the end of the requested window unless we
        # stopped early because of the event cap (in which case the next run
        # call must resume from the stop time, not from `until`).
        if until is not None and self.now < until and processed < cap:
            self.now = until
        return processed

    def _run(self, stop_after: int, cap: int) -> int:
        """Fire events until the queue drains, the head lies beyond
        ``stop_after`` (it stays queued), or ``cap`` events have fired.

        Sets :attr:`last_processed`, also when a callback raises.  The
        compiled engine's ``EventHeap._run`` is this loop in C.
        """
        # Local bindings: every name in the loop body resolves without a dict
        # lookup.  Compaction filters the heap and clears the set in place,
        # so both stay the objects bound here.
        heap = self._heap
        cancelled = self._cancelled
        processed = 0
        try:
            while processed < cap and heap:
                time, _, seq, callback, args = heap[0]
                if cancelled and seq in cancelled:
                    cancelled.discard(seq)
                    heappop(heap)
                    continue
                if time > stop_after:
                    break
                heappop(heap)
                self.now = time
                callback(*args)
                processed += 1
        finally:
            self.last_processed = processed
        return processed

    def run_until_idle(self, max_events: Optional[int] = None) -> int:
        """Run until the event queue drains (or ``max_events`` is hit)."""
        return self.run(until=None, max_events=max_events)


#: Canonical name for the pure-Python reference engine; tests use it to mean
#: "the pure engine" even when the module-level ``Simulator`` is rebound
#: below.
PureSimulator = Simulator


def _select_backend() -> str:
    """Resolve the backend every simulation will use.

    By default the module-level :data:`Simulator` name is swapped for the
    compiled backend (:class:`repro.sim.engine_accel.AccelSimulator`)
    wherever its C extension builds; both produce byte-identical event
    orderings, so this is purely a speed choice.  When the extension cannot
    be built or loaded the pure heap is used, and one warning on the
    ``repro.sim`` logger says why (``engine_accel.unavailable_reason``).
    ``REPRO_ENGINE=pure`` forces the pure engine; any other value is
    reported on the same logger and ignored.
    """
    global Simulator
    import os

    log = logging.getLogger("repro.sim")
    choice = os.environ.get("REPRO_ENGINE", "").strip().lower()
    if choice == "pure":
        return "pure"
    if choice:
        log.warning(
            "REPRO_ENGINE=%r is not a known value (only 'pure' is); ignoring it",
            choice,
        )
    from . import engine_accel

    if engine_accel.unavailable_reason is not None:
        # One line, so a slow run says why: the fallback costs the compiled
        # event heap and the compiled forwarding plane together.
        log.warning(
            "compiled engine unavailable, using the pure-Python engine: %s",
            engine_accel.unavailable_reason,
        )
        return "pure"
    Simulator = engine_accel.AccelSimulator
    return "accel"


#: Which backend the module-level ``Simulator`` name resolves to.
ENGINE_BACKEND = _select_backend()
