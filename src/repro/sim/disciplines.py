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

from collections import OrderedDict, deque
from typing import Deque, Dict, List, Optional

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
    """

    def __init__(self, quantum: int = 1000) -> None:
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        self.quantum = quantum
        self._deficits: Dict[int, int] = {}
        self._active: List[int] = []
        self._cursor = 0
        self._current: Optional[int] = None

    def activate(self, queue_id: int) -> None:
        """Add a queue to the active list (no-op if already active)."""
        if queue_id not in self._deficits:
            self._deficits[queue_id] = 0
            self._active.append(queue_id)

    def deactivate(self, queue_id: int) -> None:
        """Remove a queue (e.g. it became empty); its deficit is forgotten."""
        if queue_id in self._deficits:
            del self._deficits[queue_id]
            idx = self._active.index(queue_id)
            self._active.pop(idx)
            if idx < self._cursor:
                self._cursor -= 1
            if self._active:
                self._cursor %= len(self._active)
            else:
                self._cursor = 0
            if self._current == queue_id:
                self._current = None

    def active_queues(self) -> List[int]:
        return list(self._active)

    def is_active(self, queue_id: int) -> bool:
        return queue_id in self._deficits

    def deficit(self, queue_id: int) -> int:
        return self._deficits.get(queue_id, 0)

    def select(self, probe) -> Optional[int]:
        """Pick the next queue to serve (one packet per call).

        ``probe`` maps a queue id to the size (bytes) of its head packet if
        the queue may send now, :data:`BLOCKED` if it holds packets but may
        not send now (it keeps its deficit), or ``None`` if it is empty (it
        forfeits its deficit).  Each visited queue is probed once; a probe
        must not change the active set.
        """
        # While a queue is active its deficit key is guaranteed present
        # (activate() inserts it, deactivate() clears _current), so plain
        # indexing is safe below.
        deficits = self._deficits
        qid = self._current
        if qid is not None:
            size = probe(qid)
            if size is None:
                deficits[qid] = 0  # an empty queue forfeits its deficit
            elif size >= 0 and deficits[qid] >= size:
                deficits[qid] -= size
                return qid
            # Its turn is over; a blocked or backlogged queue keeps the rest.
            self._current = None
        active = self._active
        n = len(active)
        if not n:
            return None
        quantum = self.quantum
        cursor = self._cursor % n
        # At most 2n + 1 arrivals; a fruitless scan thus leaves the cursor
        # one step on (see idle()).
        for _ in range(2 * n + 1):
            qid = active[cursor]
            cursor += 1
            if cursor == n:
                cursor = 0
            size = probe(qid)
            if size is None or size < 0:  # empty or BLOCKED: skip, keep deficit
                continue
            # Arriving at a queue that may send: grant its quantum and start
            # serving it, unless the head still does not fit.
            deficit = deficits[qid] + quantum
            if deficit >= size:
                deficits[qid] = deficit - size
                self._current = qid
                self._cursor = cursor
                return qid
            deficits[qid] = deficit
        self._cursor = cursor
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


class SfqDiscipline:
    """Stochastic fair queueing: hash flows onto ``num_queues`` DRR queues."""

    def __init__(self, num_queues: int = 32, quantum: int = 1000, salt: int = 0) -> None:
        if num_queues <= 0:
            raise ValueError("num_queues must be positive")
        self.num_queues = num_queues
        self.salt = salt
        self._queues: List[Deque[Packet]] = [deque() for _ in range(num_queues)]
        self._queue_bytes: List[int] = [0] * num_queues
        self._bytes = 0
        self._packets = 0
        self._drr = DeficitRoundRobin(quantum=quantum)

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

    def queue_backlog_bytes(self, qid: int) -> int:
        return self._queue_bytes[qid]

    def occupied_queues(self) -> int:
        return sum(1 for q in self._queues if q)


class IdealFqDiscipline:
    """Idealized per-flow fair queueing (one queue per flow, round robin).

    The paper approximates this with SFQ over 1000 queues; giving each flow
    its own queue is equivalent (collisions become impossible) and cheaper to
    simulate.  Pair it with :meth:`repro.sim.buffer.SharedBuffer.infinite`.
    """

    def __init__(self, quantum: int = 1000) -> None:
        self._queues: "OrderedDict[int, Deque[Packet]]" = OrderedDict()
        self._bytes = 0
        self._packets = 0
        self._drr = DeficitRoundRobin(quantum=quantum)

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
