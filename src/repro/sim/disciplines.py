"""Egress queueing disciplines used by the baseline schemes.

Three disciplines live here:

* :class:`FifoDiscipline` — a single FIFO queue (what DCQCN/HPCC assume).
* :class:`SfqDiscipline` — stochastic fair queueing: flows are hashed onto a
  fixed set of FIFO queues served by deficit round robin (the paper's
  DCQCN+Win+SFQ switch and the straw-proposal building block).
* :class:`IdealFqDiscipline` — idealized fair queueing: one queue per flow,
  served round robin, paired with an effectively infinite buffer.  This is the
  paper's unrealizable Ideal-FQ reference point.

BFC's discipline is the paper's core contribution and lives in
:mod:`repro.core.discipline`.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict, deque
from typing import Deque, Dict, List, Optional, Set

from .packet import Packet

#: What a :meth:`DeficitRoundRobin.select` probe returns for a queue that
#: holds packets but may not send now (e.g. paused): it keeps its deficit.
BLOCKED = -1


class DeficitRoundRobin:
    """Deficit-round-robin selection over a set of numbered queues.

    The caller owns the actual packet storage; this class only tracks the
    active list, the per-queue deficit counters and the queue currently being
    served.  ``quantum`` should be at least one MTU so a queue can always send
    at least one packet per service turn.

    The algorithm is the classic one (Shreedhar & Varghese): when the
    scheduler *arrives* at a queue it grants one quantum; the queue is then
    served packet by packet (one packet per :meth:`select` call) until its
    deficit no longer covers the head packet, it empties, or it becomes
    blocked (e.g. paused) — at which point the scheduler moves on to the
    next queue.  Empty queues lose their deficit; backlogged ones keep the
    remainder for their next turn.

    A queue whose probe answers ``None`` is *parked* until the next
    :meth:`activate` of it: it keeps its place in the round and its deficit,
    but later scans pass over it without probing it, so a round costs only
    its unparked queues.  Parked queues still count in the round — the
    cursor, the visit budget and so the pick sequence are exactly those of a
    scan that probed them and heard ``None`` again.
    """

    def __init__(self, quantum: int = 1000) -> None:
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        self.quantum = quantum
        self._deficits: Dict[int, int] = {}
        # The round: active queue ids in activation order and, beside them,
        # their activation stamps (strictly increasing, so a queue's place
        # in the round is a bisect away).
        self._active: List[int] = []
        self._stamps: List[int] = []
        self._stamp_of: Dict[int, int] = {}
        self._next_stamp = 0
        # What a scan walks: the unparked queues in round order, and their
        # stamps.  While nothing is parked these are the round's own lists.
        self._live = self._active
        self._live_stamps = self._stamps
        self._parked: Set[int] = set()
        self._cursor = 0
        self._current: Optional[int] = None

    def activate(self, queue_id: int) -> None:
        """Add a queue to the round, or unpark it if it is already there."""
        if queue_id in self._deficits:
            parked = self._parked
            if queue_id in parked:
                parked.remove(queue_id)
                if parked:
                    stamp = self._stamp_of[queue_id]
                    idx = bisect_left(self._live_stamps, stamp)
                    self._live.insert(idx, queue_id)
                    self._live_stamps.insert(idx, stamp)
                else:
                    self._live = self._active
                    self._live_stamps = self._stamps
            return
        stamp = self._next_stamp
        self._next_stamp = stamp + 1
        self._deficits[queue_id] = 0
        self._stamp_of[queue_id] = stamp
        self._active.append(queue_id)
        self._stamps.append(stamp)
        if self._parked:
            self._live.append(queue_id)
            self._live_stamps.append(stamp)

    def deactivate(self, queue_id: int) -> None:
        """Remove a queue (e.g. it became empty); its deficit is forgotten."""
        if queue_id not in self._deficits:
            return
        del self._deficits[queue_id]
        stamp = self._stamp_of.pop(queue_id)
        idx = bisect_left(self._stamps, stamp)
        del self._active[idx]
        del self._stamps[idx]
        parked = self._parked
        if parked:
            if queue_id in parked:
                parked.remove(queue_id)
                if not parked:
                    self._live = self._active
                    self._live_stamps = self._stamps
            else:
                live_idx = bisect_left(self._live_stamps, stamp)
                del self._live[live_idx]
                del self._live_stamps[live_idx]
        if idx < self._cursor:
            self._cursor -= 1
        if self._active:
            self._cursor %= len(self._active)
        else:
            self._cursor = 0
        if self._current == queue_id:
            self._current = None

    def _park(self, live_idx: int) -> None:
        if not self._parked:
            self._live = self._live[:]
            self._live_stamps = self._live_stamps[:]
        self._parked.add(self._live[live_idx])
        del self._live[live_idx]
        del self._live_stamps[live_idx]

    def active_queues(self) -> List[int]:
        """Every queue in the round (parked ones too), in round order."""
        return list(self._active)

    def unparked_queues(self) -> List[int]:
        """The queues a scan would probe, in round order (do not modify)."""
        return self._live

    def is_active(self, queue_id: int) -> bool:
        return queue_id in self._deficits

    def deficit(self, queue_id: int) -> int:
        return self._deficits.get(queue_id, 0)

    @property
    def cursor(self) -> int:
        """Where the next scan starts: an index into :meth:`active_queues`."""
        return self._cursor

    @property
    def current(self) -> Optional[int]:
        """The queue whose service turn is in progress, if any."""
        return self._current

    def select(self, probe) -> Optional[int]:
        """Pick the next queue to serve (one packet per call).

        ``probe`` maps a queue id to the size (bytes) of its head packet if
        the queue may send now, :data:`BLOCKED` if it holds packets but may
        not send now (it keeps its deficit), or ``None`` if it has nothing to
        send (the queue is parked; as the current queue it also forfeits its
        deficit).  Each visited unparked queue is probed once; within one
        call a probe must answer a queue the same way at every visit and
        must not change the active set.
        """
        # While a queue is active its deficit key is guaranteed present
        # (activate() inserts it, deactivate() clears _current), so plain
        # indexing is safe below.  The current queue is never parked: it
        # answered a size when it became current.
        deficits = self._deficits
        qid = self._current
        if qid is not None:
            size = probe(qid)
            if size is None:
                deficits[qid] = 0  # an empty queue forfeits its deficit
                self._park(bisect_left(self._live_stamps, self._stamp_of[qid]))
            elif size >= 0 and deficits[qid] >= size:
                deficits[qid] -= size
                return qid
            # Its turn is over; a blocked or backlogged queue keeps the rest.
            self._current = None
        n = len(self._active)
        if not n:
            return None
        start = self._cursor
        # The textbook scan makes 2n + 1 arrivals from the cursor: every
        # queue twice, and the one at the cursor a third time.  Parked queues
        # would answer None at theirs, so only the unparked ones are walked,
        # from the first one at or after the cursor.
        live = self._live
        m = len(live)
        if m == n:
            k = start
            at_cursor = live[k]
            remaining = 2 * n + 1
        elif m:
            live_stamps = self._live_stamps
            cursor_stamp = self._stamps[start]
            k = bisect_left(live_stamps, cursor_stamp)
            if k == m:
                k = 0
            at_cursor = live[k] if live_stamps[k] == cursor_stamp else None
            remaining = 2 * m + (at_cursor is not None)
        else:
            remaining = 0
        quantum = self.quantum
        while remaining > 0:
            if k == m:
                k = 0
            qid = live[k]
            remaining -= 1
            size = probe(qid)
            if size is None:
                # Nothing to send: park it, keep its deficit.  This was its
                # first arrival; its later ones are skipped.
                self._park(k)
                live = self._live
                m -= 1
                remaining -= 2 if qid == at_cursor else 1
                continue
            if size >= 0:  # BLOCKED (< 0) is skipped and keeps its deficit
                # Arriving at a queue that may send: grant its quantum and
                # start serving it, unless the head still does not fit.
                deficit = deficits[qid] + quantum
                if deficit >= size:
                    deficits[qid] = deficit - size
                    self._current = qid
                    if m != n:
                        k = bisect_left(self._stamps, self._live_stamps[k])
                    k += 1
                    self._cursor = k if k < n else 0
                    return qid
                deficits[qid] = deficit
            k += 1
        # Fruitless: 2n + 1 arrivals leave the cursor one step on (see idle()).
        start += 1
        self._cursor = start if start < n else 0
        return None

    def idle(self) -> None:
        """Move the state as a :meth:`select` that finds nothing sendable would.

        The current turn ends and the ``2·len(active)+1`` fruitless visits
        leave the cursor one step further round; deficits are untouched.
        """
        self._current = None
        active = self._active
        if active:
            self._cursor = (self._cursor + 1) % len(active)


class FifoDiscipline:
    """A single first-in first-out data queue."""

    def __init__(self) -> None:
        self._queue: Deque[Packet] = deque()
        self._bytes = 0

    def enqueue(self, packet: Packet, ingress: int) -> bool:
        self._queue.append(packet)
        self._bytes += packet.size
        return True

    def dequeue(self) -> Optional[Packet]:
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self._bytes -= packet.size
        return packet

    def backlog_bytes(self) -> int:
        return self._bytes

    def backlog_packets(self) -> int:
        return len(self._queue)

    def has_backlog(self) -> bool:
        return bool(self._queue)


def drr_for(sim, quantum: int) -> DeficitRoundRobin:
    """A deficit round robin for a discipline of ``sim``, of its plane.

    On the compiled plane this is the C twin of :class:`DeficitRoundRobin`
    (same methods, same state, same picks), which the compiled NIC drives
    without entering the interpreter.  ``sim`` may be ``None`` (a discipline
    built on its own): that is the Python class.
    """
    plane = getattr(sim, "compiled_plane", None)
    return DeficitRoundRobin(quantum) if plane is None else plane.DeficitRoundRobin(quantum)


def fifo_for(port) -> FifoDiscipline:
    """A FIFO queue for ``port``, of the port's forwarding plane.

    On the compiled plane this is the C twin of :class:`FifoDiscipline`
    (same methods, same behaviour), which the compiled port and switch hop
    drive without entering the interpreter.
    """
    plane = getattr(port.sim, "compiled_plane", None)
    return FifoDiscipline() if plane is None else plane.FifoDiscipline()


class SfqDiscipline:
    """Stochastic fair queueing: hash flows onto ``num_queues`` DRR queues."""

    def __init__(
        self, num_queues: int = 32, quantum: int = 1000, salt: int = 0, sim=None
    ) -> None:
        if num_queues <= 0:
            raise ValueError("num_queues must be positive")
        self.num_queues = num_queues
        self.salt = salt
        self._queues: List[Deque[Packet]] = [deque() for _ in range(num_queues)]
        self._queue_bytes: List[int] = [0] * num_queues
        self._bytes = 0
        self._packets = 0
        self._drr = drr_for(sim, quantum)

    def queue_for(self, packet: Packet) -> int:
        return (hash((packet.key, self.salt)) & 0x7FFFFFFF) % self.num_queues

    def enqueue(self, packet: Packet, ingress: int) -> bool:
        qid = self.queue_for(packet)
        self._queues[qid].append(packet)
        self._queue_bytes[qid] += packet.size
        self._bytes += packet.size
        self._packets += 1
        self._drr.activate(qid)
        return True

    def dequeue(self) -> Optional[Packet]:
        qid = self._drr.select(self._head_size)
        if qid is None:
            return None
        packet = self._queues[qid].popleft()
        self._queue_bytes[qid] -= packet.size
        self._bytes -= packet.size
        self._packets -= 1
        if not self._queues[qid]:
            self._drr.deactivate(qid)
        return packet

    def _head_size(self, qid: int) -> Optional[int]:
        queue = self._queues[qid]
        return queue[0].size if queue else None

    def backlog_bytes(self) -> int:
        return self._bytes

    def backlog_packets(self) -> int:
        return self._packets

    def has_backlog(self) -> bool:
        return self._packets > 0

    def occupied_queues(self) -> int:
        return sum(1 for q in self._queues if q)


class IdealFqDiscipline:
    """Idealized per-flow fair queueing (one queue per flow, round robin).

    The paper approximates this with SFQ over 1000 queues; giving each flow
    its own queue is equivalent (collisions become impossible) and cheaper to
    simulate.  Pair it with :meth:`repro.sim.buffer.SharedBuffer.infinite`.
    """

    def __init__(self, quantum: int = 1000, sim=None) -> None:
        self._queues: "OrderedDict[int, Deque[Packet]]" = OrderedDict()
        self._bytes = 0
        self._packets = 0
        self._drr = drr_for(sim, quantum)

    def enqueue(self, packet: Packet, ingress: int) -> bool:
        queue = self._queues.get(packet.flow_id)
        if queue is None:
            queue = deque()
            self._queues[packet.flow_id] = queue
        queue.append(packet)
        self._bytes += packet.size
        self._packets += 1
        self._drr.activate(packet.flow_id)
        return True

    def dequeue(self) -> Optional[Packet]:
        qid = self._drr.select(self._head_size)
        if qid is None:
            return None
        queue = self._queues[qid]
        packet = queue.popleft()
        self._bytes -= packet.size
        self._packets -= 1
        if not queue:
            del self._queues[qid]
            self._drr.deactivate(qid)
        return packet

    def _head_size(self, qid: int) -> Optional[int]:
        queue = self._queues.get(qid)
        if not queue:
            return None
        return queue[0].size

    def backlog_bytes(self) -> int:
        return self._bytes

    def backlog_packets(self) -> int:
        return self._packets

    def has_backlog(self) -> bool:
        return self._packets > 0

    def occupied_queues(self) -> int:
        return len(self._queues)
