"""Unit tests for the BFC egress scheduler (high-priority queue + DRR)."""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bloom import BloomFilterCodec
from repro.core.config import BfcConfig
from repro.core.scheduler import HIGH_PRIORITY_QUEUE, OVERFLOW_QUEUE, BfcScheduler
from repro.sim.disciplines import BLOCKED, DeficitRoundRobin
from repro.sim.packet import FlowKey, Packet, PacketKind


def make_packet(flow_id=1, size=1_000, first=False):
    return Packet(
        kind=PacketKind.DATA,
        flow_id=flow_id,
        key=FlowKey(src=flow_id, dst=99, src_port=flow_id, dst_port=4791),
        size=size,
        first_of_flow=first,
    )


def make_scheduler(config=None):
    config = config or BfcConfig()
    codec = BloomFilterCodec(
        size_bytes=config.bloom_filter_bytes, num_hashes=config.bloom_hash_functions
    )
    return BfcScheduler(config, codec)


def blocking(sched, *packets):
    """Install a downstream filter that pauses exactly the given packets' flows."""
    space = sched.config.num_vfids
    sched.install_filter(sched._codec.encode([p.key.vfid(space) for p in packets]))


class TestStorage:
    def test_push_and_pop_single_queue(self):
        sched = make_scheduler()
        packet = make_packet()
        sched.push_queue(3, packet)
        assert sched.queue_bytes(3) == 1_000
        assert sched.total_packets == 1
        popped, source = sched.pop()
        assert popped is packet
        assert source == 3
        assert sched.total_packets == 0
        assert sched.queue_bytes(3) == 0

    def test_pop_empty_returns_none(self):
        sched = make_scheduler()
        assert sched.pop() is None

    def test_only_the_head_packet_decides_eligibility(self):
        sched = make_scheduler()
        first = make_packet(flow_id=1)
        second = make_packet(flow_id=2)
        sched.push_queue(0, first)
        sched.push_queue(0, second)
        blocking(sched, second)
        assert sched.eligible_count == 1  # the paused flow is not at the head
        assert sched.pop() == (first, 0)
        assert sched.eligible_count == 0  # now it is
        assert sched.pop() is None
        blocking(sched)
        assert sched.pop() == (second, 0)

    def test_per_queue_bytes_snapshot(self):
        sched = make_scheduler(BfcConfig(num_physical_queues=4))
        sched.push_queue(1, make_packet(size=500))
        sched.push_queue(2, make_packet(size=700))
        assert sched.per_queue_bytes() == [0, 500, 700, 0]

    def test_nonempty_queue_listing(self):
        sched = make_scheduler(BfcConfig(num_physical_queues=4))
        sched.push_queue(2, make_packet())
        sched.push_queue(OVERFLOW_QUEUE, make_packet())
        assert set(sched.nonempty_queues()) == {2, OVERFLOW_QUEUE}


class TestPriorities:
    def test_high_priority_served_first(self):
        sched = make_scheduler()
        regular = make_packet(flow_id=1)
        priority = make_packet(flow_id=2, first=True)
        sched.push_queue(0, regular)
        sched.push_high_priority(priority)
        popped, source = sched.pop()
        assert popped is priority
        assert source == HIGH_PRIORITY_QUEUE

    def test_high_priority_ignores_eligibility(self):
        sched = make_scheduler()
        packet = make_packet(first=True)
        sched.push_high_priority(packet)
        blocking(sched, packet)
        popped, source = sched.pop()
        assert source == HIGH_PRIORITY_QUEUE

    def test_overflow_queue_scheduled_like_normal_queue(self):
        sched = make_scheduler()
        sched.push_queue(OVERFLOW_QUEUE, make_packet(flow_id=1))
        sched.push_queue(0, make_packet(flow_id=2))
        sources = {sched.pop()[1] for _ in range(2)}
        assert sources == {OVERFLOW_QUEUE, 0}

    def test_paused_queue_skipped(self):
        sched = make_scheduler()
        paused = make_packet(flow_id=1)
        sched.push_queue(0, paused)
        sched.push_queue(1, make_packet(flow_id=2))
        blocking(sched, paused)
        popped, source = sched.pop()
        assert source == 1
        assert sched.pop() is None

    def test_round_robin_across_queues(self):
        sched = make_scheduler()
        for _ in range(3):
            sched.push_queue(0, make_packet(flow_id=1))
            sched.push_queue(1, make_packet(flow_id=2))
        order = [sched.pop()[1] for _ in range(6)]
        assert order.count(0) == 3 and order.count(1) == 3
        assert order[:4] != [0, 0, 0, 1]  # interleaved, not strict

    def test_accounting_across_queue_types(self):
        sched = make_scheduler()
        sched.push_high_priority(make_packet(size=100, first=True))
        sched.push_queue(0, make_packet(size=200))
        sched.push_queue(OVERFLOW_QUEUE, make_packet(size=300))
        assert sched.total_bytes == 600
        assert sched.total_packets == 3
        assert sched.queue_bytes(HIGH_PRIORITY_QUEUE) == 100
        assert sched.queue_bytes(OVERFLOW_QUEUE) == 300
        while sched.pop() is not None:
            pass
        assert sched.total_bytes == 0


# ---------------------------------------------------------------------------
# Incremental state against a brute-force reference
# ---------------------------------------------------------------------------


class ReferenceScheduler:
    """The callback-driven scheduler the incremental one replaced.

    Packets are mirrored queue by queue; eligibility is recomputed from the
    head packet on every question and service goes through
    :meth:`DeficitRoundRobin.select` with a probe that does the same, never
    taking the ``eligible_count == 0`` shortcut.
    """

    def __init__(self, config, codec):
        self.codec = codec
        self.space = config.num_vfids
        self.queues = {}
        self.high_priority = deque()
        self.filter = None
        self.drr = DeficitRoundRobin(quantum=config.mtu + 48)

    def push(self, qid, packet):
        self.queues.setdefault(qid, deque()).append(packet)
        self.drr.activate(qid)

    def probe(self, qid):
        queue = self.queues.get(qid)
        if not queue:
            return None
        return queue[0].size if self.eligible(qid) else BLOCKED

    def eligible(self, qid):
        vfid = self.queues[qid][0].key.vfid(self.space)
        return self.filter is None or not self.codec.contains(self.filter, vfid)

    def active_count(self):
        return sum(self.eligible(qid) for qid, queue in self.queues.items() if queue)

    def pop(self):
        if self.high_priority:
            return self.high_priority.popleft(), HIGH_PRIORITY_QUEUE
        qid = self.drr.select(self.probe)
        if qid is None:
            return None
        packet = self.queues[qid].popleft()
        if not self.queues[qid]:
            self.drr.deactivate(qid)
        return packet, qid


FLOWS = 6
QUEUES = 4

scheduler_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"),
            st.sampled_from(list(range(QUEUES)) + [OVERFLOW_QUEUE, HIGH_PRIORITY_QUEUE]),
            st.integers(min_value=0, max_value=FLOWS - 1),
            # Up to three quanta, so that a head can outlast the DRR's scan.
            st.sampled_from([64, 700, 1_048, 2_500, 3_300]),
        ),
        st.tuples(st.just("pop")),
        st.tuples(st.just("filter"), st.sets(st.integers(min_value=0, max_value=FLOWS - 1))),
        st.tuples(st.just("refilter")),
    ),
    max_size=80,
)


@given(ops=scheduler_ops)
@settings(max_examples=150, deadline=None)
def test_incremental_state_matches_recount_and_generic_drr(ops):
    config = BfcConfig(num_physical_queues=QUEUES)
    sched = make_scheduler(config)
    ref = ReferenceScheduler(config, sched._codec)
    vfids = [make_packet(flow_id=f).key.vfid(config.num_vfids) for f in range(FLOWS)]
    for op in ops:
        if op[0] == "push":
            _, qid, flow, size = op
            packet = make_packet(flow_id=flow, size=size)
            if qid == HIGH_PRIORITY_QUEUE:
                sched.push_high_priority(packet)
                ref.high_priority.append(packet)
            else:
                sched.push_queue(qid, packet)
                ref.push(qid, packet)
        elif op[0] == "pop":
            assert sched.pop() == ref.pop()
        elif op[0] == "filter":
            ref.filter = sched._codec.encode([vfids[f] for f in op[1]])
            sched.install_filter(ref.filter)
        else:
            # The next hop's periodic re-broadcast: equal bytes, new object.
            same = None if ref.filter is None else bytes(bytearray(ref.filter))
            assert sched.install_filter(same) is False
        assert sched.eligible_count == ref.active_count()
        assert sched.nonempty_queues() == sorted(
            (q for q, queue in ref.queues.items() if queue), key=lambda q: (q < 0, q)
        )
    # Drain under no filter: every packet comes out, in the reference order
    # (a pop may come back empty-handed while an oversized head saves up).
    sched.install_filter(None)
    ref.filter = None
    while sched.total_packets:
        assert sched.pop() == ref.pop()
    assert sched.pop() is None and ref.pop() is None
    assert sched.eligible_count == 0
