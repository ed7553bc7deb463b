"""Discrete-event simulation engine.

The event queue is a *calendar queue* (Brown 1988): a power-of-two ring of
time buckets, each covering ``2**shift`` nanoseconds, holding plain
``(time, origin, parent, parent2, parent3, seq, callback, args)`` tuples in
insertion (FIFO) order.  Inserting
an event is an O(1) list append; the bucket currently being served is sorted
once (C timsort over nearly-sorted input) and then consumed by index, so the
per-event cost has no heap log-factor even at high event density.  Three side
structures complete the design:

* an **overflow heap** for events beyond the ring horizon (one full ring
  revolution ahead); entries are promoted into buckets as the serve pointer
  advances and the horizon moves past them,
* an **extra heap** for events inserted into the bucket that is currently
  being consumed (a sorted list cannot accept mid-serve inserts), and
* the bucket **width auto-tunes** from the observed event density (the ratio
  of served entries to buckets scanned is a direct measurement of the mean
  inter-event gap relative to the width): when buckets run too full or mostly
  empty the queue is rebuilt with a better width and ring size.

Events scheduled for the same instant run in strictly increasing
``(origin, parent, parent2, parent3, seq)`` order: ``origin`` is the
simulated time at which the event was *scheduled*, and the ``parent*``
fields are the origins one, two and three levels up its scheduling ancestry
(the origin of the event that scheduled it, and so on).  For everything
scheduled through the public API the origin is simply ``now`` — which is
non-decreasing over a run — and, at any one instant, events fire in ancestry
order, so the inherited ancestry prefixes are non-decreasing too: the
``(time, ancestry, seq)`` order is provably identical to plain ``seq`` order
and a fixed seed still produces bit-identical runs (the golden-records
fixture pins this).  The ancestry fields exist for the sharded runtime
(:mod:`repro.shard`): a boundary packet re-injected from another shard
carries its departure instant, serialization start and two further upstream
scheduling instants as its ancestry, which slots the delivery among local
same-time events exactly where a single-process run inserts the
peer-delivery post — four ancestry levels deep.  ``seq`` is unique, so an
ordering decision never compares into the callback.

Cancellation is handled by the :class:`Event` handle that
:meth:`Simulator.schedule` returns: cancelled sequence numbers are recorded
in a side set and skipped when popped (lazy deletion).  When cancelled
entries come to dominate the queue, it is compacted (rebuilt without the
dead entries) so that long-running simulations with heavy cancel traffic
(retransmission timers, pacing wake-ups) do not leak memory.

Typical usage::

    sim = Simulator()
    sim.schedule(units.microseconds(5), callback, arg1, arg2)
    sim.run(until=units.milliseconds(2))

This calendar queue is the reference engine (:data:`PureSimulator`).  Where
the C extension of :mod:`repro.sim.engine_accel` builds, the module-level
``Simulator`` name resolves to that compiled backend instead — same API,
byte-identical event order; ``REPRO_ENGINE=pure`` keeps this one (see
:func:`_select_backend`).
"""

from __future__ import annotations

import heapq
import logging
import random
import sys
from typing import Any, Callable, Optional

#: Sentinel "time" larger than any reachable simulated instant; lets the run
#: loop use one integer comparison instead of a per-event None check.
_NEVER = sys.maxsize

#: Compact the queue only when at least this many events are cancelled *and*
#: cancelled entries outnumber live ones.  Small runs never pay for it.
_COMPACT_MIN_CANCELLED = 64

#: Initial bucket width exponent (2**9 = 512 ns per bucket) and ring size.
#: Both are retuned from observed traffic, so the initial values only matter
#: for the first few hundred events of a run.
_INITIAL_SHIFT = 9
_INITIAL_BUCKETS = 256

#: Bounds for the auto-tuned bucket width exponent: 8 ns to ~1.1 s.
_MIN_SHIFT = 3
_MAX_SHIFT = 30

#: Bounds for the ring size (always a power of two).
_MIN_BUCKETS = 64
_MAX_BUCKETS = 8192

#: Re-examine the width/ring fit every this many *served* (non-empty)
#: buckets.
_RETUNE_INTERVAL = 256

#: Target bucket width as a multiple of the observed mean inter-event gap
#: (a few events per bucket keeps both the empty-slot scans and the
#: per-bucket sorts cheap).
_GAP_MULTIPLE = 8

#: Give up a linear empty-slot scan after this many steps and jump straight
#: to the earliest non-empty bucket instead.
_SCAN_LIMIT = 64

#: Grow/retune when the ring holds more than this many entries per bucket
#: (checked on the insert path, so a scheduling burst cannot overstuff the
#: ring before the pop-side retune notices).
_GROW_PER_BUCKET = 8


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
        #: Scheduling ancestry (origin, then the two nearest ancestor
        #: origins) of the event that is currently executing; new events inherit
        #: ``(_cur_origin, _cur_parent, _cur_parent2)`` as their
        #: ``(parent, parent2, parent3)``.  Read by the sharded runtime's
        #: boundary capture (:mod:`repro.shard.boundary`), which ships them
        #: as the ancestry of a cross-shard delivery.
        self._cur_origin: int = 0
        self._cur_parent: int = 0
        self._cur_parent2: int = 0
        self._cancelled: set = set()
        self._rng = random.Random(seed)
        self._events_processed: int = 0
        self._running = False
        # -- calendar queue state -----------------------------------------
        self._shift: int = _INITIAL_SHIFT
        self._nbuckets: int = _INITIAL_BUCKETS
        self._mask: int = _INITIAL_BUCKETS - 1
        self._buckets: list = [[] for _ in range(_INITIAL_BUCKETS)]
        #: Virtual bucket (``time >> shift``) currently being served.
        self._vb: int = 0
        #: Exclusive ring horizon: entries at/after this go to the overflow
        #: heap.  Invariant: ``_cal_limit == (_vb + _nbuckets) << _shift``.
        self._cal_limit: int = _INITIAL_BUCKETS << _INITIAL_SHIFT
        #: Entries stored in ring buckets (excludes _cur/_extra/_overflow).
        self._cal_count: int = 0
        self._grow_at: int = _INITIAL_BUCKETS * _GROW_PER_BUCKET
        #: Contents of bucket ``_vb``, sorted descending and consumed from
        #: the tail (a C-level list.pop() per event, no index bookkeeping).
        self._cur: list = []
        #: Heap of entries inserted into bucket ``_vb`` while it is served.
        self._extra: list = []
        #: Heap of entries beyond the ring horizon.
        self._overflow: list = []
        # -- width auto-tuning stats --------------------------------------
        self._serve_buckets: int = 0
        self._serve_entries: int = 0
        self._empty_scanned: int = 0
        #: Simulated time when the current measurement window opened; the
        #: mean inter-event gap over the window is (now - t0) / entries.
        self._serve_t0: int = 0
        self._retunes: int = 0
        # -- shared per-simulation memos ----------------------------------
        self._tx_memos: dict = {}

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
        self._insert(
            (time_ns, self.now, self._cur_origin, self._cur_parent,
             self._cur_parent2, seq, callback, args)
        )
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
        self._insert(
            (time_ns, self.now, self._cur_origin, self._cur_parent,
             self._cur_parent2, seq, callback, args)
        )
        return Event(time_ns, seq, self)

    def schedule_boundary(
        self,
        time_ns: int,
        ancestry: tuple,
        callback: Callable[..., None],
        *args: Any,
    ) -> None:
        """Schedule an event whose scheduling ancestry lies in another shard.

        Used only by the sharded runtime to re-inject a boundary packet
        another shard transmitted: ``ancestry`` is the 4-tuple
        ``(origin, parent, parent2, parent3)`` of the peer-delivery post the
        transmitting shard captured (departure instant, serialization start,
        and two further upstream scheduling instants).  Among events firing
        at the same time, this entry orders exactly where the single-process
        schedule places that post, down to four ancestry levels.
        """
        if time_ns < self.now:
            raise SimulationError(
                f"cannot schedule at {time_ns} ns, current time is {self.now} ns"
            )
        origin_ns, parent_ns, parent2_ns, parent3_ns = ancestry
        if not parent3_ns <= parent2_ns <= parent_ns <= origin_ns <= time_ns:
            raise SimulationError(
                f"boundary ancestry must be non-increasing and precede the "
                f"delivery time, got {ancestry} for delivery at {time_ns}"
            )
        seq = self._seq
        self._seq = seq + 1
        self._insert(
            (int(time_ns), int(origin_ns), int(parent_ns), int(parent2_ns),
             int(parent3_ns), seq, callback, args)
        )

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
        parent = self._cur_origin
        parent2 = self._cur_parent
        parent3 = self._cur_parent2
        time_ns = now + int(delay_ns)
        # _insert(), inlined: this is the hottest scheduling entry point.
        if time_ns < self._cal_limit:
            vb = time_ns >> self._shift
            if vb > self._vb:
                self._buckets[vb & self._mask].append(
                    (time_ns, now, parent, parent2, parent3, seq, callback, args)
                )
                count = self._cal_count + 1
                self._cal_count = count
                if count > self._grow_at:
                    self._retune(force=True)
            else:
                heapq.heappush(
                    self._extra,
                    (time_ns, now, parent, parent2, parent3, seq, callback, args),
                )
        else:
            heapq.heappush(
                self._overflow,
                (time_ns, now, parent, parent2, parent3, seq, callback, args),
            )

    def _insert(self, entry: tuple) -> None:
        """File one ``(time, origin, parent, parent2, parent3, seq, callback, args)`` entry."""
        time_ns = entry[0]
        if time_ns < self._cal_limit:
            vb = time_ns >> self._shift
            if vb > self._vb:
                self._buckets[vb & self._mask].append(entry)
                count = self._cal_count + 1
                self._cal_count = count
                if count > self._grow_at:
                    self._retune(force=True)
            else:
                # The bucket being served is already sorted, so its late
                # arrivals go to a side heap consulted on every pop.  Entries
                # *behind* the serve pointer (possible between epoch-stepped
                # run() calls, whose serving may peek ahead of the clock) go
                # there too: they precede every ring entry by construction,
                # and the pop path drains the side heap first.
                heapq.heappush(self._extra, entry)
        else:
            heapq.heappush(self._overflow, entry)

    def pending_events(self) -> int:
        """Number of events currently in the queue (including cancelled ones
        that have not been reaped by a pop or a compaction yet)."""
        return (
            self._cal_count
            + len(self._cur)
            + len(self._extra)
            + len(self._overflow)
        )

    def next_event_time(self) -> Optional[int]:
        """Earliest pending entry's firing time, or ``None`` when idle.

        Cancelled entries that have not been reaped yet are included, which
        can only *under*-estimate the true next firing time — safe for the
        conservative window computation of the sharded runtime (the stale
        entry is purged by the next ``run`` call, so progress is preserved).
        Deterministic: cancellation state is itself deterministic.
        """
        best: Optional[int] = None
        cur = self._cur
        if cur:
            best = cur[-1][0]  # sorted descending, served from the tail
        extra = self._extra
        if extra and (best is None or extra[0][0] < best):
            best = extra[0][0]
        if self._cal_count:
            # Every ring entry lies within one revolution ahead of the serve
            # pointer, and each slot maps to exactly one virtual bucket in
            # that window — so the first non-empty slot in serve order holds
            # the ring's earliest entries.
            buckets = self._buckets
            mask = self._mask
            vb = self._vb
            for step in range(1, self._nbuckets + 1):
                bucket = buckets[(vb + step) & mask]
                if bucket:
                    head = min(bucket)[0]
                    if best is None or head < best:
                        best = head
                    break
        overflow = self._overflow
        if overflow and (best is None or overflow[0][0] < best):
            best = overflow[0][0]
        return best

    # -- calendar internals -------------------------------------------------

    def _advance(self) -> Optional[tuple]:
        """Move the serve pointer to the next non-empty bucket and return its
        first entry (or ``None`` when the whole queue is empty).

        The returned entry has already been consumed; the rest of the bucket
        is left in ``_cur`` (sorted descending, served from the tail).
        """
        if self._serve_buckets >= _RETUNE_INTERVAL:
            self._retune()
            # A rebuild re-anchors the ring at the clock's bucket and may
            # move entries sharing it into the extra heap; they precede
            # anything still stored in ring buckets, so serve them first.
            extra = self._extra
            if extra:
                return heapq.heappop(extra)
        shift = self._shift
        nbuckets = self._nbuckets
        mask = self._mask
        buckets = self._buckets
        overflow = self._overflow
        count = self._cal_count
        scanned = 0
        if count == 0:
            if not overflow:
                return None
            # Ring empty: jump the serve pointer straight to the overflow
            # head.  The head itself lands inside the new horizon, so the
            # promotion below always files at least one entry.
            vb = overflow[0][0] >> shift
        else:
            # The ring is non-empty, and every ring entry lives within one
            # revolution of the serve pointer (the insert horizon and the
            # commit-time promotion below both guarantee it), so a forward
            # scan finds the earliest bucket without consulting overflow.
            vb = self._vb + 1
            while not buckets[vb & mask]:
                vb += 1
                scanned += 1
                if scanned > _SCAN_LIMIT:
                    # Sparse ring: stop stepping bucket by bucket and jump
                    # straight to the earliest occupied slot.
                    vb = self._min_head_vbucket()
                    break
        # Commit the serve pointer to ``vb``, then promote.  Promoting only
        # *after* the commit is what keeps the ring consistent: every entry
        # inside the new horizon has a virtual bucket in [vb, vb + nbuckets),
        # so none can land in a slot the scan already passed.  (Promoting
        # during the scan would file entries one revolution ahead into
        # just-scanned slots, where they would sit out a full revolution and
        # fire out of order.)
        if overflow:
            limit = (vb + nbuckets) << shift
            if overflow[0][0] < limit:
                count += self._promote(limit)
        bucket = buckets[vb & mask]
        # Detach the bucket for serving and open its slot for the ring slot
        # one revolution ahead (now inside the advanced horizon).
        buckets[vb & mask] = []
        self._cal_count = count - len(bucket)
        self._vb = vb
        self._cal_limit = (vb + nbuckets) << shift
        self._serve_buckets += 1
        self._serve_entries += len(bucket)
        self._empty_scanned += scanned
        bucket.sort(reverse=True)
        self._cur = bucket
        return bucket.pop()

    def _promote(self, limit: int) -> int:
        """Move overflow entries with ``time < limit`` into ring buckets."""
        overflow = self._overflow
        buckets = self._buckets
        mask = self._mask
        shift = self._shift
        heappop = heapq.heappop
        promoted = 0
        while overflow and overflow[0][0] < limit:
            entry = heappop(overflow)
            buckets[(entry[0] >> shift) & mask].append(entry)
            promoted += 1
        return promoted

    def _min_head_vbucket(self) -> int:
        """Virtual bucket of the earliest entry stored in the ring.

        Only called when the ring is known to be non-empty.  Tuple ``min``
        never compares into the callback because ``seq`` is unique.
        """
        best = None
        for bucket in self._buckets:
            if bucket:
                head = min(bucket)[0]
                if best is None or head < best:
                    best = head
        return best >> self._shift

    def _collect_entries(self) -> list:
        """Drain every live entry out of the calendar (dropping cancelled
        ones and reaping their sequence numbers)."""
        entries = []
        entries.extend(self._cur)
        entries.extend(self._extra)
        for bucket in self._buckets:
            entries.extend(bucket)
        entries.extend(self._overflow)
        cancelled = self._cancelled
        if cancelled:
            entries = [entry for entry in entries if entry[5] not in cancelled]
            cancelled.clear()
        return entries

    def _rebuild(self, shift: int, nbuckets: int) -> None:
        """Redistribute every pending entry over a fresh ring.

        Used by the width/ring retuner and by cancellation compaction (which
        rebuilds with the current geometry just to drop dead entries).
        """
        entries = self._collect_entries()
        self._shift = shift
        self._nbuckets = nbuckets
        mask = nbuckets - 1
        self._mask = mask
        self._grow_at = nbuckets * _GROW_PER_BUCKET
        buckets = [[] for _ in range(nbuckets)]
        self._buckets = buckets
        vb = self.now >> shift
        self._vb = vb
        limit = (vb + nbuckets) << shift
        self._cal_limit = limit
        self._cur = []
        extra = []
        overflow = []
        count = 0
        for entry in entries:
            time_ns = entry[0]
            if time_ns >= limit:
                overflow.append(entry)
            else:
                evb = time_ns >> shift
                if evb == vb:
                    extra.append(entry)
                else:
                    buckets[evb & mask].append(entry)
                    count += 1
        heapq.heapify(extra)
        heapq.heapify(overflow)
        self._extra = extra
        self._overflow = overflow
        self._cal_count = count
        # Once the ring is at its size cap a huge backlog could re-trigger
        # the insert-side grow check on every append; keep doubling the
        # trigger instead so rebuild cost stays amortized O(1) per insert.
        if count > self._grow_at:
            self._grow_at = count * 2
        self._serve_buckets = 0
        self._serve_entries = 0
        self._empty_scanned = 0
        self._serve_t0 = self.now

    def _retune(self, force: bool = False) -> None:
        """Re-fit the bucket width and ring size to the observed traffic.

        The width target is measured directly from the event stream: the
        serve-side statistics give the mean inter-event gap over the last
        measurement window (simulated span / entries served), and the bucket
        width aims for ``_GAP_MULTIPLE`` gaps per bucket.  The ring is sized
        to the live entry count.  ``force`` (insert-side overstuffed ring)
        rebuilds even when the width already fits, so a scheduling burst
        gets a bigger ring immediately.
        """
        entries = self._serve_entries
        shift = self._shift
        span = self.now - self._serve_t0
        if entries > 0 and span > 0:
            target_width = max(1, (span * _GAP_MULTIPLE) // entries)
            new_shift = min(_MAX_SHIFT, max(_MIN_SHIFT, target_width.bit_length() - 1))
        else:
            new_shift = shift
        live = self.pending_events() - len(self._cancelled)
        nbuckets = _MIN_BUCKETS
        while nbuckets < live and nbuckets < _MAX_BUCKETS:
            nbuckets <<= 1
        if new_shift == shift and nbuckets == self._nbuckets and not force:
            self._serve_buckets = 0
            self._serve_entries = 0
            self._empty_scanned = 0
            self._serve_t0 = self.now
            return
        self._retunes += 1
        self._rebuild(new_shift, nbuckets)

    def calendar_stats(self) -> dict:
        """Introspection snapshot of the calendar geometry (for tests/tools)."""
        return {
            "backend": "pure",
            "bucket_width_ns": 1 << self._shift,
            "shift": self._shift,
            "num_buckets": self._nbuckets,
            "ring_entries": self._cal_count,
            "current_bucket_entries": len(self._cur),
            "deferred_entries": len(self._extra),
            "overflow_entries": len(self._overflow),
            "retunes": self._retunes,
        }

    # -- cancellation ------------------------------------------------------

    def _cancel(self, seq: int) -> None:
        cancelled = self._cancelled
        cancelled.add(seq)
        if (
            len(cancelled) >= _COMPACT_MIN_CANCELLED
            and len(cancelled) * 2 > self.pending_events()
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries from the calendar in place.

        Filtering each structure (rather than rebuilding the ring) keeps the
        cost proportional to the stored entries.  Clearing the cancelled set
        also reaps sequence numbers cancelled after their event already
        fired, so neither structure grows without bound.
        """
        cancelled = self._cancelled
        cur = self._cur
        if cur:
            # Filtering preserves the descending serve order.
            cur[:] = [entry for entry in cur if entry[5] not in cancelled]
        removed_from_ring = 0
        for bucket in self._buckets:
            if bucket:
                before = len(bucket)
                bucket[:] = [entry for entry in bucket if entry[5] not in cancelled]
                removed_from_ring += before - len(bucket)
        self._cal_count -= removed_from_ring
        extra = self._extra
        if extra:
            extra[:] = [entry for entry in extra if entry[5] not in cancelled]
            heapq.heapify(extra)
        overflow = self._overflow
        if overflow:
            overflow[:] = [entry for entry in overflow if entry[5] not in cancelled]
            heapq.heapify(overflow)
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
        # Local bindings: every name in the loop body below resolves without
        # a dict lookup.  The calendar structures are re-read through self on
        # each iteration because inserts and retunes may rebind them.
        cancelled = self._cancelled
        heappop = heapq.heappop
        stop_after = _NEVER if until is None else until
        cap = _NEVER if max_events is None else max_events
        processed = 0
        try:
            while processed < cap:
                cur = self._cur
                if cur:
                    entry = cur.pop()
                    extra = self._extra
                    if extra and extra[0] < entry:
                        cur.append(entry)
                        entry = heappop(extra)
                else:
                    extra = self._extra
                    if extra:
                        entry = heappop(extra)
                    else:
                        entry = self._advance()
                        if entry is None:
                            break
                time, origin, parent, parent2, _, seq, callback, args = entry
                if cancelled and seq in cancelled:
                    cancelled.discard(seq)
                    continue
                if time > stop_after:
                    self._insert(entry)
                    break
                self.now = time
                self._cur_origin = origin
                self._cur_parent = parent
                self._cur_parent2 = parent2
                callback(*args)
                processed += 1
        finally:
            self._running = False
            self._events_processed += processed
            # Serving may have peeked ahead of the clock without firing — an
            # `until` put-back, or a queue tail made of cancelled entries.
            # That needs no repair: inserts at or behind the serve pointer's
            # bucket are filed into the side heap (see _insert), which the
            # pop path always drains first.
        # Advance the clock to the end of the requested window unless we
        # stopped early because of the event cap (in which case the next run
        # call must resume from the stop time, not from `until`).
        if (
            until is not None
            and self.now < until
            and (max_events is None or processed < max_events)
        ):
            self.now = until
        return processed

    def run_until_idle(self, max_events: Optional[int] = None) -> int:
        """Run until the event queue drains (or ``max_events`` is hit)."""
        return self.run(until=None, max_events=max_events)


#: Canonical name for the calendar-queue reference implementation; tests
#: that poke calendar geometry should use this so they keep meaning "the
#: pure engine" even when the module-level ``Simulator`` is rebound below.
PureSimulator = Simulator


def _select_backend() -> str:
    """Resolve the backend every simulation will use.

    By default the module-level :data:`Simulator` name is swapped for the
    compiled backend (:class:`repro.sim.engine_accel.AccelSimulator`)
    wherever its C extension builds; both produce byte-identical event
    orderings, so this is purely a speed choice.  When the extension cannot
    be built or loaded the pure calendar queue is used, and one warning on
    the ``repro.sim`` logger says why (``engine_accel.unavailable_reason``).
    ``REPRO_ENGINE=pure`` forces the pure engine; any other value warns and
    is ignored.
    """
    global Simulator
    import os
    import warnings

    choice = os.environ.get("REPRO_ENGINE", "").strip().lower()
    if choice == "pure":
        return "pure"
    if choice:
        warnings.warn(
            f"REPRO_ENGINE={choice!r} is not a known value (only 'pure' "
            "is); ignoring it",
            RuntimeWarning,
            stacklevel=2,
        )
    from . import engine_accel

    if engine_accel.unavailable_reason is not None:
        # One line, so a slow run says why: the fallback costs the compiled
        # event heap and the compiled forwarding plane together.
        logging.getLogger("repro.sim").warning(
            "compiled engine unavailable, using the pure-Python engine: %s",
            engine_accel.unavailable_reason,
        )
        return "pure"
    Simulator = engine_accel.AccelSimulator
    return "accel"


#: Which backend the module-level ``Simulator`` name resolves to.
ENGINE_BACKEND = _select_backend()
