"""The BFC egress scheduler: packet storage and service order (§3.3, §3.7).

Service order at a BFC egress port is:

1. the **high-priority queue** holding the (marked) first packet of new flows
   — strict priority, never paused;
2. **deficit round robin** over the physical queues whose head packet is not
   currently paused by the downstream Bloom filter, plus the **overflow
   queue** (packets whose flow could not get a hash-table entry), which is
   scheduled like a normal physical queue.

The scheduler stores packets, picks the next one and keeps Nactive; the
pause/resume policy lives in :mod:`repro.core.discipline`.  Whether a queue's
*head* is paused by the installed downstream filter is cached as one bit per
queue, with a count of the set bits.  A bit can only change when the queue's
head changes (a push to an empty queue, a pop) or a different filter is
installed, so the per-packet pause rule and the DRR service test are list and
integer reads.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.sim.disciplines import DeficitRoundRobin
from repro.sim.packet import Packet

from .bloom import BloomFilterCodec
from .config import BfcConfig
from .vfid import packet_vfid

#: Pseudo queue identifier for the per-egress overflow queue.
OVERFLOW_QUEUE = -2
#: Pseudo queue identifier for the high-priority queue.
HIGH_PRIORITY_QUEUE = -1


class BfcScheduler:
    """Packet storage and DRR service for one BFC egress port."""

    def __init__(self, config: BfcConfig, codec: BloomFilterCodec) -> None:
        self.config = config
        self.num_queues = config.num_physical_queues
        # Everything per-queue is a list indexed by queue id: the physical
        # queues first, then the overflow queue at [-2] and the
        # high-priority queue at [-1].
        self._queues: List[Deque[Packet]] = [deque() for _ in range(self.num_queues + 2)]
        self._queue_bytes: List[int] = [0] * (self.num_queues + 2)
        self.total_bytes = 0
        self.total_packets = 0
        # The DRR's active list is the set of non-empty physical/overflow
        # queues (the high-priority queue is served ahead of the DRR).
        self._drr = DeficitRoundRobin(quantum=config.mtu + 48)
        self._codec = codec
        self._num_vfids = config.num_vfids
        #: The most recent Bloom filter received from the next hop.
        self.downstream_filter: Optional[bytes] = None
        # _eligible[q]: q is non-empty and its head is not paused downstream.
        self._eligible: List[bool] = [False] * (self.num_queues + 2)
        #: Nactive before the floor of one: how many bits of _eligible are set.
        self.eligible_count = 0

    # -- enqueue -----------------------------------------------------------------

    def push_high_priority(self, packet: Packet) -> None:
        self._queues[HIGH_PRIORITY_QUEUE].append(packet)
        self._queue_bytes[HIGH_PRIORITY_QUEUE] += packet.size
        self.total_bytes += packet.size
        self.total_packets += 1

    def push_queue(self, qid: int, packet: Packet) -> int:
        """Append to a physical queue or ``OVERFLOW_QUEUE``; returns its bytes."""
        queue = self._queues[qid]
        if not queue:
            self._drr.activate(qid)
            if self.downstream_filter is None or not self._blocked(packet):
                self._eligible[qid] = True
                self.eligible_count += 1
        queue.append(packet)
        size = packet.size
        queue_bytes = self._queue_bytes[qid] = self._queue_bytes[qid] + size
        self.total_bytes += size
        self.total_packets += 1
        return queue_bytes

    # -- downstream pauses -----------------------------------------------------------

    def _blocked(self, head: Packet) -> bool:
        """Is the VFID of ``head`` in the installed (non-``None``) filter?"""
        return self._codec.contains(self.downstream_filter, packet_vfid(head, self._num_vfids))

    def install_filter(self, bitmap: Optional[bytes]) -> bool:
        """Install the next hop's pause filter; False if it is the one installed.

        The next hop re-broadcasts its filter every Bloom interval and most
        broadcasts repeat the previous pause set: an identical bitmap leaves
        every cached bit valid and costs one bytes compare.
        """
        if bitmap == self.downstream_filter:
            return False
        self.downstream_filter = bitmap
        eligible = self._eligible
        count = 0
        for qid in self._drr._active:
            ok = bitmap is None or not self._blocked(self._queues[qid][0])
            eligible[qid] = ok
            count += ok
        self.eligible_count = count
        return True

    # -- dequeue ------------------------------------------------------------------

    def pop(self) -> Optional[Tuple[Packet, int]]:
        """Pick the next packet to send: ``(packet, source_queue)`` or ``None``."""
        queues = self._queues
        queue = queues[HIGH_PRIORITY_QUEUE]
        if queue:
            packet = queue.popleft()
            self._queue_bytes[HIGH_PRIORITY_QUEUE] -= packet.size
            self.total_bytes -= packet.size
            self.total_packets -= 1
            return packet, HIGH_PRIORITY_QUEUE
        # DeficitRoundRobin.select with the head-size callback inlined and
        # the eligibility callback replaced by the cached bits (a set bit
        # implies a head packet).  pop runs once per transmitted packet; the
        # selection arithmetic must stay exactly equivalent to
        # ``self._drr.select(head_size, eligible)`` — the DRR state is shared
        # and must evolve identically.
        drr = self._drr
        active = drr._active
        if not self.eligible_count:
            # Nothing to serve.  select() would end the current turn and
            # visit 2 * len(active) + 1 queues in vain, which leaves the
            # cursor one step further round.
            drr._current = None
            if active:
                drr._cursor = (drr._cursor + 1) % len(active)
            return None
        eligible = self._eligible
        deficits = drr._deficits
        visited = 0
        limit = 2 * len(active) + 1
        qid = drr._current
        while True:
            if qid is None:
                if visited >= limit:
                    return None
                visited += 1
                cursor = drr._cursor % len(active)
                qid = active[cursor]
                drr._cursor = (cursor + 1) % len(active)
                if not eligible[qid]:
                    qid = None
                    continue
                # Arriving at an eligible queue: grant its quantum and start
                # serving it.
                deficits[qid] += drr.quantum
                drr._current = qid
            queue = queues[qid]
            size = queue[0].size
            if eligible[qid] and deficits[qid] >= size:
                deficits[qid] -= size
                packet = queue.popleft()
                self._queue_bytes[qid] -= size
                self.total_bytes -= size
                self.total_packets -= 1
                if not queue:
                    eligible[qid] = False
                    self.eligible_count -= 1
                    drr.deactivate(qid)
                elif self.downstream_filter is not None and self._blocked(queue[0]):
                    eligible[qid] = False
                    self.eligible_count -= 1
                return packet, qid
            # This queue's turn is over; it keeps the remaining deficit.
            drr._current = None
            qid = None

    # -- introspection ---------------------------------------------------------------

    def queue_bytes(self, qid: int) -> int:
        return self._queue_bytes[qid]

    def queue_packets(self, qid: int) -> int:
        return len(self._queues[qid])

    def nonempty_queues(self) -> List[int]:
        """Physical queues (and the overflow queue) that hold packets."""
        active = self._drr._active
        result = sorted(qid for qid in active if qid != OVERFLOW_QUEUE)
        if OVERFLOW_QUEUE in active:
            result.append(OVERFLOW_QUEUE)
        return result

    def per_queue_bytes(self) -> List[int]:
        return self._queue_bytes[: self.num_queues]
