"""The BFC egress-port discipline.

This class glues the BFC mechanisms together for one egress port:

* on **enqueue** it looks the packet's flow up in the switch-wide virtual-flow
  table (creating an entry and assigning a physical queue if needed), steers
  marked first packets to the high-priority queue, and applies the pause rule
  of §3.4: if the flow's physical queue now exceeds the pause threshold
  ``Th = (HRTT + tau) * mu / Nactive``, the flow is paused one hop upstream via
  the per-ingress counting Bloom filter;
* on **dequeue** it serves the high-priority queue first and then deficit
  round robin over physical queues whose head is not paused by the most recent
  downstream Bloom filter, reclaims flow-table entries and physical queues
  when a flow's last packet leaves, and applies the resume rule of §3.5
  (at most ``resumes_per_interval`` flows per queue per Bloom interval).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.sim.packet import Packet

from .config import BfcConfig
from .pause import PauseThresholds, ResumeList
from .queues import PhysicalQueuePool
from .scheduler import OVERFLOW_QUEUE, BfcScheduler
from .telemetry import ACTIVE_COUNT_KEY, QueueTelemetry
from .vfid import FlowEntry, packet_vfid


@dataclass
class BfcEgressStats:
    """Per-egress-port BFC accounting used by the evaluation figures."""

    enqueued_packets: int = 0
    dequeued_packets: int = 0
    high_priority_packets: int = 0
    overflow_packets: int = 0
    pauses_sent: int = 0
    resumes_sent: int = 0
    max_queue_bytes: int = 0
    max_occupied_queues: int = 0


class BfcEgressDiscipline:
    """Data-plane discipline for one BFC egress port (implements DataDiscipline)."""

    def __init__(
        self,
        agent,
        egress_index: int,
        link_rate_bps: float,
        link_delay_ns: int,
        rng=None,
    ) -> None:
        self.agent = agent
        self.config: BfcConfig = agent.config
        self.egress_index = egress_index
        self.scheduler = BfcScheduler(self.config, agent.codec, agent.sim)
        self.pool = PhysicalQueuePool(self.config, rng=rng)
        self.thresholds = PauseThresholds(self.config, link_rate_bps, link_delay_ns)
        self.resume_lists: Dict[int, ResumeList] = {}
        #: Flows on the resume lists; the agent's tick skips a discipline at 0.
        self.pending_resumes = 0
        self.stats = BfcEgressStats()
        # Hot-path aliases (stable for the lifetime of the discipline).
        self._flow_table = agent.flow_table
        self._num_vfids = self.config.num_vfids
        self._use_high_priority = self.config.use_high_priority_queue
        self._threshold_by_count = self.thresholds.by_count
        self._sim = agent.sim
        # BFC-Est: a stale/sampled occupancy view feeding the pause rule.
        # Only allocated when the estimator knobs are set, so ideal BFC's
        # hot path pays exactly one `is None` test and BFC-Est at
        # staleness 0 / period 0 degenerates to BFC bit for bit.
        if self.config.telemetry_staleness_ns > 0 or self.config.telemetry_sample_period_ns > 0:
            self._telemetry: Optional[QueueTelemetry] = QueueTelemetry(
                self.config.telemetry_staleness_ns,
                self.config.telemetry_sample_period_ns,
            )
        else:
            self._telemetry = None
        agent.register_discipline(self)

    # ------------------------------------------------------------------ enqueue --

    def enqueue(self, packet: Packet, ingress: int) -> bool:
        space = self._num_vfids
        vfid = packet.vfid if packet.vfid_space == space else packet_vfid(packet, space)
        entry = self._flow_table.lookup_or_insert(vfid, ingress, self.egress_index, packet.key)
        stats = self.stats
        stats.enqueued_packets += 1
        scheduler = self.scheduler
        if entry is None:
            # Neither the hash-table bucket nor the overflow cache had room:
            # divert to the per-egress overflow queue (§3.8).  Such a packet
            # carries no entry handle.
            scheduler.push_queue(OVERFLOW_QUEUE, packet)
            stats.overflow_packets += 1
            return True
        # The handle dequeue() finds the flow's state by; valid only while
        # the packet sits in this port's queues.
        packet.entry = entry
        entry.packets += 1
        entry.bytes += packet.size
        if (
            packet.first_of_flow
            and entry.packets == 1
            and not entry.paused_upstream
            and self._use_high_priority
        ):
            # §3.7: first (marked) packet of a flow, nothing else queued, not paused.
            scheduler.push_high_priority(packet)
            stats.high_priority_packets += 1
            return True
        queue = entry.queue
        if queue is None:
            queue = entry.queue = self.pool.assign(vfid)
            occupied = self.pool.occupied_queues()  # only grows in assign()
            if occupied > stats.max_occupied_queues:
                stats.max_occupied_queues = occupied
        queue_bytes = scheduler.push_queue(queue, packet)
        if queue_bytes > stats.max_queue_bytes:
            stats.max_queue_bytes = queue_bytes
        telemetry = self._telemetry
        if telemetry is not None:
            now = self._sim.now
            telemetry.record(queue, now, queue_bytes)
            telemetry.record(ACTIVE_COUNT_KEY, now, scheduler.eligible_count)
        if entry.paused_upstream:
            return True
        # §3.4: pause the arriving flow if its queue exceeds Th(Nactive).
        if telemetry is None:
            threshold = self._threshold_by_count[scheduler.eligible_count]
        else:
            # BFC-Est: the decision sees occupancy as the (stale, sampled)
            # telemetry channel reports it, not as it is right now.
            queue_bytes = telemetry.read(queue, now)
            threshold = self._threshold_by_count[telemetry.read(ACTIVE_COUNT_KEY, now)]
        if queue_bytes > threshold:
            if self.agent.pause_flow(vfid, ingress):
                stats.pauses_sent += 1
            entry.paused_upstream = True
            # A pause supersedes any pending resume for the same flow.
            if self._resume_list(queue).discard(vfid, ingress):
                self.pending_resumes -= 1
        return True

    # ------------------------------------------------------------------ dequeue --

    def dequeue(self) -> Optional[Packet]:
        scheduler = self.scheduler
        result = scheduler.pop()
        if result is None:
            return None
        packet, source_queue = result
        self.stats.dequeued_packets += 1
        telemetry = self._telemetry
        if telemetry is not None:
            # Record before the resume check reads: a sample taken exactly at
            # this instant reflects the state after this departure.
            now = self._sim.now
            if source_queue >= 0:
                telemetry.record(source_queue, now, scheduler.queue_bytes(source_queue))
            telemetry.record(ACTIVE_COUNT_KEY, now, scheduler.eligible_count)
        entry = packet.entry
        if entry is None:
            # Overflow-queue packets belong to flows without a table entry.
            return packet
        packet.entry = None
        entry.packets -= 1
        entry.bytes -= packet.size
        if entry.paused_upstream:
            self._check_resume(entry, source_queue)
        if entry.packets <= 0:
            # The flow's last packet left this switch: release its queue and
            # recycle its table entry.
            queue = entry.queue
            if entry.paused_upstream and not entry.resume_pending:
                # The pause state must not leak once the table entry is gone;
                # queue it for the (rate-limited) resume path.
                self._add_resume(queue if queue is not None else 0, entry)
            if queue is not None:
                self.pool.release(queue)
                entry.queue = None
            self._flow_table.remove(entry)
        return packet

    def _check_resume(self, entry: FlowEntry, source_queue: int) -> None:
        """§3.5: consider resuming a paused flow when its queue drains below Th."""
        telemetry = self._telemetry
        queue = entry.queue if entry.queue is not None else source_queue
        if queue < 0:
            # Only its high-priority packet was queued: no physical queue yet.
            queue_bytes = 0
            queue = 0
        elif telemetry is not None:
            queue_bytes = telemetry.read(queue, self._sim.now)
        else:
            queue_bytes = self.scheduler.queue_bytes(queue)
        if telemetry is None:
            active = self.scheduler.eligible_count
        else:
            active = telemetry.read(ACTIVE_COUNT_KEY, self._sim.now)
        if queue_bytes > self._threshold_by_count[active]:
            return
        if self.config.limit_resume_rate:
            self._add_resume(queue, entry)
            entry.resume_pending = True
        else:
            # BFC-BufferOpt ablation: resume immediately, without rate limiting.
            if self.agent.resume_flow(entry.vfid, entry.ingress):
                self.stats.resumes_sent += 1
            entry.paused_upstream = False

    # ------------------------------------------------------------------ resumes --

    def _resume_list(self, queue: int) -> ResumeList:
        lst = self.resume_lists.get(queue)
        if lst is None:
            lst = ResumeList()
            self.resume_lists[queue] = lst
        return lst

    def _add_resume(self, queue: int, entry: FlowEntry) -> None:
        if self._resume_list(queue).add(entry.vfid, entry.ingress):
            self.pending_resumes += 1

    def collect_resumes(self) -> List[Tuple[int, int]]:
        """Pop up to ``resumes_per_interval`` flows per queue to unpause now.

        Called by the BFC agent once per Bloom-filter interval (tau); the
        returned ``(vfid, ingress)`` pairs are removed from the counting Bloom
        filters, which resumes them at the upstream hop.
        """
        resumed: List[Tuple[int, int]] = []
        for lst in self.resume_lists.values():
            if not lst:
                continue  # lists persist after draining; skip the empty ones
            for _ in range(self.config.resumes_per_interval):
                item = lst.pop()
                if item is None:
                    break
                resumed.append(item)
        self.pending_resumes -= len(resumed)
        for vfid, ingress in resumed:
            entry = self._flow_table.lookup(vfid, ingress, self.egress_index)
            if entry is not None:
                entry.paused_upstream = False
                entry.resume_pending = False
            self.stats.resumes_sent += 1
        return resumed

    def pending_resume_lists(self) -> Dict[int, List[Tuple[int, int]]]:
        """``{queue: [(vfid, ingress), ...]}`` in the order the lists were made."""
        return {queue: list(lst._pending) for queue, lst in self.resume_lists.items()}

    # ------------------------------------------------------------------ queries --

    def apply_downstream_filter(self, bitmap: Optional[bytes]) -> None:
        """Install the most recent Bloom filter received from the next hop."""
        if self.scheduler.install_filter(bitmap) and self._telemetry is not None:
            # Eligibility just changed under every queue: the active count is
            # a new change point even though no packet moved.
            self._telemetry.record(
                ACTIVE_COUNT_KEY, self._sim.now, self.scheduler.eligible_count
            )

    def occupied_physical_queues(self) -> int:
        return self.pool.occupied_queues()

    def per_queue_bytes(self) -> List[int]:
        return self.scheduler.per_queue_bytes()

    # -- DataDiscipline interface ----------------------------------------------------

    def backlog_bytes(self) -> int:
        return self.scheduler.total_bytes

    def backlog_packets(self) -> int:
        return self.scheduler.total_packets

    def has_backlog(self) -> bool:
        return self.scheduler.total_packets > 0
