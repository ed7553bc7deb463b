"""The BFC egress scheduler: packet storage and service order (§3.3, §3.7).

Service order at a BFC egress port is:

1. the **high-priority queue** holding the (marked) first packet of new flows
   — strict priority, never paused;
2. **deficit round robin** over the physical queues whose head packet is not
   currently paused by the downstream Bloom filter, plus the **overflow
   queue** (packets whose flow could not get a hash-table entry), which is
   scheduled like a normal physical queue.

The scheduler stores packets, picks the next one and keeps Nactive; the
pause/resume policy lives in :mod:`repro.core.discipline`.  Whether a queue
may send is cached per queue as its *ready* value: the head packet's size when
the head is not paused by the installed downstream filter, else ``BLOCKED``,
with a count of the ready queues.  A ready value can only change when the
queue's head changes (a push to an empty queue, a pop) or a different filter
is installed, so the per-packet pause rule is an integer read and the DRR's
probe is a list read.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.sim.disciplines import BLOCKED, DeficitRoundRobin
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
        # _ready[q]: the head's size if q is non-empty and its head is not
        # paused downstream, else BLOCKED.  The DRR probes it directly.
        self._ready: List[int] = [BLOCKED] * (self.num_queues + 2)
        self._probe = self._ready.__getitem__
        #: Nactive before the floor of one: how many queues are ready.
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
                self._ready[qid] = packet.size
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
        every ready value valid and costs one bytes compare.
        """
        if bitmap == self.downstream_filter:
            return False
        self.downstream_filter = bitmap
        ready = self._ready
        count = 0
        for qid in self._drr.active_queues():
            head = self._queues[qid][0]
            if bitmap is None or not self._blocked(head):
                ready[qid] = head.size
                count += 1
            else:
                ready[qid] = BLOCKED
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
        drr = self._drr
        if not self.eligible_count:
            drr.idle()  # nothing may send: skip the fruitless scan
            return None
        qid = drr.select(self._probe)
        if qid is None:
            return None
        queue = queues[qid]
        packet = queue.popleft()
        size = packet.size
        self._queue_bytes[qid] -= size
        self.total_bytes -= size
        self.total_packets -= 1
        if not queue:
            self._ready[qid] = BLOCKED
            self.eligible_count -= 1
            drr.deactivate(qid)
        else:
            head = queue[0]
            if self.downstream_filter is not None and self._blocked(head):
                self._ready[qid] = BLOCKED
                self.eligible_count -= 1
            else:
                self._ready[qid] = head.size
        return packet, qid

    # -- introspection ---------------------------------------------------------------

    def queue_bytes(self, qid: int) -> int:
        return self._queue_bytes[qid]

    def queue_packets(self, qid: int) -> int:
        return len(self._queues[qid])

    def nonempty_queues(self) -> List[int]:
        """Physical queues (and the overflow queue) that hold packets."""
        active = self._drr.active_queues()
        result = sorted(qid for qid in active if qid != OVERFLOW_QUEUE)
        if OVERFLOW_QUEUE in active:
            result.append(OVERFLOW_QUEUE)
        return result

    def per_queue_bytes(self) -> List[int]:
        return self._queue_bytes[: self.num_queues]
