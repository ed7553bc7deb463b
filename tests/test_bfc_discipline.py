"""Unit tests for the BFC egress discipline (enqueue/dequeue/pause/resume)."""

from repro.core.config import BfcConfig
from repro.core.discipline import BfcEgressDiscipline
from repro.core.switchlogic import BfcAgent
from repro.sim import units
from repro.sim.engine import Simulator
from repro.sim.packet import FlowKey, Packet, PacketKind


LINK_RATE = units.gbps(10)


def make_packet(src=1, dst=2, sport=10, seq=0, size=1_000, first=False, ingress=0):
    packet = Packet(
        kind=PacketKind.DATA,
        flow_id=sport,
        key=FlowKey(src=src, dst=dst, src_port=sport, dst_port=4791),
        size=size,
        seq=seq,
        first_of_flow=first,
    )
    packet.cur_ingress = ingress
    return packet


def build_discipline(config=None, sim=None):
    sim = sim or Simulator(seed=1)
    config = config or BfcConfig(hop_rtt_ns=2_000)
    agent = BfcAgent(sim, config)
    discipline = BfcEgressDiscipline(
        agent, egress_index=0, link_rate_bps=LINK_RATE, link_delay_ns=1_000,
        rng=sim.rng(7),
    )
    return discipline, agent


class TestEnqueueDequeue:
    def test_roundtrip_single_flow(self):
        discipline, agent = build_discipline()
        packets = [make_packet(sport=1, seq=i) for i in range(3)]
        for packet in packets:
            assert discipline.enqueue(packet, ingress=0)
        assert discipline.backlog_packets() == 3
        out = [discipline.dequeue() for _ in range(3)]
        assert out == packets
        assert discipline.backlog_packets() == 0

    def test_flow_entry_created_and_reclaimed(self):
        discipline, agent = build_discipline()
        packet = make_packet(sport=1)
        discipline.enqueue(packet, ingress=0)
        assert agent.flow_table.active_entries() == 1
        discipline.dequeue()
        assert agent.flow_table.active_entries() == 0

    def test_physical_queue_reclaimed(self):
        discipline, agent = build_discipline()
        discipline.enqueue(make_packet(sport=1), ingress=0)
        assert discipline.occupied_physical_queues() == 1
        discipline.dequeue()
        assert discipline.occupied_physical_queues() == 0

    def test_distinct_flows_get_distinct_queues(self):
        discipline, agent = build_discipline()
        for sport in range(10):
            discipline.enqueue(make_packet(sport=sport, src=sport), ingress=0)
        assert discipline.occupied_physical_queues() == 10
        assert discipline.pool.stats.collisions == 0

    def test_collision_when_queues_exhausted(self):
        config = BfcConfig(num_physical_queues=4, hop_rtt_ns=2_000)
        discipline, agent = build_discipline(config)
        for sport in range(6):
            discipline.enqueue(make_packet(sport=sport, src=sport), ingress=0)
        assert discipline.pool.stats.collisions == 2

    def test_same_flow_packets_share_a_queue_in_order(self):
        discipline, agent = build_discipline()
        a = [make_packet(sport=1, seq=i) for i in range(3)]
        b = [make_packet(sport=2, src=5, seq=i) for i in range(3)]
        for pa, pb in zip(a, b):
            discipline.enqueue(pa, 0)
            discipline.enqueue(pb, 0)
        seqs = {1: [], 2: []}
        for _ in range(6):
            packet = discipline.dequeue()
            seqs[packet.flow_id].append(packet.seq)
        assert seqs[1] == [0, 1, 2]
        assert seqs[2] == [0, 1, 2]


class TestHighPriorityQueue:
    def test_marked_first_packet_uses_high_priority(self):
        discipline, agent = build_discipline()
        # A backlog of another flow, then a marked single-packet flow arrives.
        for i in range(5):
            discipline.enqueue(make_packet(sport=1, seq=i), 0)
        single = make_packet(sport=2, src=7, first=True)
        discipline.enqueue(single, 0)
        assert discipline.dequeue() is single
        assert discipline.stats.high_priority_packets == 1

    def test_unmarked_first_packet_goes_to_physical_queue(self):
        discipline, agent = build_discipline()
        for i in range(5):
            discipline.enqueue(make_packet(sport=1, seq=i), 0)
        single = make_packet(sport=2, src=7, first=False)
        discipline.enqueue(single, 0)
        assert discipline.dequeue() is not single

    def test_high_priority_disabled_by_config(self):
        config = BfcConfig(use_high_priority_queue=False, hop_rtt_ns=2_000)
        discipline, agent = build_discipline(config)
        for i in range(5):
            discipline.enqueue(make_packet(sport=1, seq=i), 0)
        single = make_packet(sport=2, src=7, first=True)
        discipline.enqueue(single, 0)
        assert discipline.dequeue() is not single
        assert discipline.stats.high_priority_packets == 0

    def test_second_packet_of_flow_not_high_priority(self):
        discipline, agent = build_discipline()
        first = make_packet(sport=1, seq=0, first=True)
        discipline.enqueue(first, 0)
        second = make_packet(sport=1, seq=1)
        discipline.enqueue(second, 0)
        # Queue another flow to check relative order: the second packet of
        # flow 1 competes in DRR rather than jumping ahead.
        assert discipline.scheduler.queue_bytes(-1) == first.size  # HP queue holds only the first


class TestPauseBehaviour:
    def test_flow_paused_when_queue_exceeds_threshold(self):
        discipline, agent = build_discipline()
        threshold = discipline.thresholds.by_count[1]
        packets_needed = int(threshold // 1_000) + 2
        vfid = None
        for i in range(packets_needed):
            packet = make_packet(sport=1, seq=i)
            discipline.enqueue(packet, ingress=3)
            vfid = packet.vfid
        assert agent.is_paused(vfid, ingress=3)
        assert discipline.stats.pauses_sent == 1

    def test_no_pause_below_threshold(self):
        discipline, agent = build_discipline()
        discipline.enqueue(make_packet(sport=1), ingress=3)
        assert agent.paused_flow_count() == 0

    def test_pause_applies_to_arriving_flow_only(self):
        config = BfcConfig(num_physical_queues=1, hop_rtt_ns=2_000)
        discipline, agent = build_discipline(config)
        threshold = discipline.thresholds.by_count[1]
        # Flow 1 fills the (only) queue beyond the threshold.
        n = int(threshold // 1_000) + 2
        for i in range(n):
            discipline.enqueue(make_packet(sport=1, seq=i), ingress=0)
        # Flow 2 shares the same queue (collision); its arrival pauses flow 2 as well.
        p2 = make_packet(sport=2, src=9, ingress=1)
        discipline.enqueue(p2, ingress=1)
        assert agent.is_paused(p2.vfid, ingress=1)

    def test_resume_queued_when_queue_drains(self):
        discipline, agent = build_discipline()
        threshold = discipline.thresholds.by_count[1]
        n = int(threshold // 1_000) + 2
        packets = [make_packet(sport=1, seq=i, ingress=2) for i in range(n)]
        for packet in packets:
            discipline.enqueue(packet, ingress=2)
        vfid = packets[0].vfid
        assert agent.is_paused(vfid, 2)
        # Drain everything: the flow must end up on a resume list (still
        # paused until the agent's periodic tick applies it).
        for _ in range(n):
            discipline.dequeue()
        assert agent.is_paused(vfid, 2)
        resumes = discipline.collect_resumes()
        assert (vfid, 2) in resumes

    def test_buffer_opt_ablation_resumes_immediately(self):
        config = BfcConfig(limit_resume_rate=False, hop_rtt_ns=2_000)
        discipline, agent = build_discipline(config)
        threshold = discipline.thresholds.by_count[1]
        n = int(threshold // 1_000) + 2
        packets = [make_packet(sport=1, seq=i, ingress=2) for i in range(n)]
        for packet in packets:
            discipline.enqueue(packet, ingress=2)
        vfid = packets[0].vfid
        assert agent.is_paused(vfid, 2)
        for _ in range(n):
            discipline.dequeue()
        # Without the rate limit the pause is cleared as soon as the queue drains.
        assert not agent.is_paused(vfid, 2)

    def test_downstream_filter_pauses_queue(self):
        discipline, agent = build_discipline()
        packet = make_packet(sport=1)
        discipline.enqueue(packet, 0)
        bitmap = agent.codec.encode([packet.vfid])
        discipline.apply_downstream_filter(bitmap)
        assert discipline.dequeue() is None
        discipline.apply_downstream_filter(agent.codec.empty_bitmap())
        assert discipline.dequeue() is packet

    def test_downstream_filter_only_blocks_matching_flows(self):
        discipline, agent = build_discipline()
        a = make_packet(sport=1)
        b = make_packet(sport=2, src=9)
        discipline.enqueue(a, 0)
        discipline.enqueue(b, 0)
        discipline.apply_downstream_filter(agent.codec.encode([a.vfid]))
        popped = discipline.dequeue()
        assert popped is b
        assert discipline.dequeue() is None

    def test_nactive_excludes_paused_queues(self):
        discipline, agent = build_discipline()
        a = make_packet(sport=1)
        b = make_packet(sport=2, src=9)
        discipline.enqueue(a, 0)
        discipline.enqueue(b, 0)
        assert discipline.scheduler.eligible_count == 2
        discipline.apply_downstream_filter(agent.codec.encode([a.vfid]))
        assert discipline.scheduler.eligible_count == 1

    def test_static_assignment_ablation(self):
        config = BfcConfig(
            num_physical_queues=4, static_queue_assignment=True, hop_rtt_ns=2_000
        )
        discipline, agent = build_discipline(config)
        packet = make_packet(sport=1)
        discipline.enqueue(packet, 0)
        entry = agent.flow_table.lookup(packet.vfid, 0, 0)
        assert entry.queue == packet.vfid % 4


class TestEntryHandle:
    """``packet.entry`` is set exactly while the packet sits in a BFC queue."""

    def test_handle_is_the_table_entry_while_queued_and_none_after(self):
        discipline, agent = build_discipline()
        first = make_packet(sport=1, seq=0, first=True, ingress=2)  # high-priority queue
        second = make_packet(sport=1, seq=1, ingress=2)             # a physical queue
        assert first.entry is None
        discipline.enqueue(first, ingress=2)
        discipline.enqueue(second, ingress=2)
        entry = agent.flow_table.lookup(first.vfid, 2, 0)
        assert entry is not None and entry.packets == 2
        assert first.entry is entry and second.entry is entry
        assert discipline.dequeue() is first
        assert first.entry is None and second.entry is entry
        assert discipline.dequeue() is second
        assert second.entry is None
        assert agent.flow_table.active_entries() == 0

    def test_departure_follows_the_handle_not_the_packet_fields(self):
        # dequeue() must not depend on cur_ingress still naming the ingress
        # the packet was filed under.
        discipline, agent = build_discipline()
        packet = make_packet(sport=1, ingress=0)
        discipline.enqueue(packet, ingress=3)
        discipline.dequeue()
        assert agent.flow_table.active_entries() == 0
        assert discipline.occupied_physical_queues() == 0

    def test_retransmit_clone_carries_no_handle(self):
        discipline, agent = build_discipline()
        packet = make_packet(sport=1)
        discipline.enqueue(packet, ingress=0)
        assert packet.entry is not None
        assert packet.clone_for_retransmit().entry is None

    def test_overflow_queue_packets_carry_no_handle(self):
        config = BfcConfig(table_bucket_size=1, overflow_cache_entries=0, hop_rtt_ns=2_000)
        discipline, agent = build_discipline(config)
        packets = []
        for ingress in range(2):
            packet = make_packet(sport=5, src=5, ingress=ingress)
            discipline.enqueue(packet, ingress=ingress)
            packets.append(packet)
        assert discipline.stats.overflow_packets == 1
        assert packets[0].entry is not None and packets[1].entry is None
        assert {id(discipline.dequeue()) for _ in range(2)} == {id(p) for p in packets}
        assert all(p.entry is None for p in packets)
        assert agent.flow_table.active_entries() == 0


class TestOverflowQueue:
    def test_overflow_packets_still_delivered(self):
        config = BfcConfig(
            table_bucket_size=1, overflow_cache_entries=1, hop_rtt_ns=2_000
        )
        discipline, agent = build_discipline(config)
        # Three flows with the same VFID but different ingress ports: the first
        # gets the bucket, the second the cache, the third the overflow queue.
        vfid_target = 77
        packets = []
        for ingress in range(3):
            packet = make_packet(sport=5, src=5, ingress=ingress)
            packet.vfid = vfid_target
            packet.vfid_space = config.num_vfids
            discipline.enqueue(packet, ingress=ingress)
            packets.append(packet)
        assert discipline.stats.overflow_packets == 1
        out = [discipline.dequeue() for _ in range(3)]
        assert set(id(p) for p in out) == set(id(p) for p in packets)
        assert discipline.backlog_packets() == 0
