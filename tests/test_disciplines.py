"""Unit tests for the baseline queueing disciplines and the DRR scheduler."""

import itertools
from collections import deque

import pytest

from planes import DRR_CLASSES
from repro.sim.disciplines import (
    BLOCKED,
    FifoDiscipline,
    IdealFqDiscipline,
    SfqDiscipline,
)
from repro.sim.packet import FlowKey, Packet, PacketKind


def make_packet(flow_id: int, size: int = 1048, src: int = 1) -> Packet:
    return Packet(
        kind=PacketKind.DATA,
        flow_id=flow_id,
        key=FlowKey(src=src, dst=99, src_port=flow_id, dst_port=4791),
        size=size,
        flow_size=size,
    )


@pytest.mark.parametrize("drr_class", DRR_CLASSES)
class TestDeficitRoundRobin:
    def test_single_queue_served_repeatedly(self, drr_class):
        drr = drr_class(quantum=1000)
        drr.activate(0)
        sizes = {0: 500}
        for _ in range(5):
            assert drr.select(lambda q: sizes[q]) == 0

    def test_two_queues_alternate(self, drr_class):
        """The regression that motivated the DRR rewrite: equal-demand queues
        must be interleaved rather than one queue monopolising the scheduler."""
        drr = drr_class(quantum=1000)
        drr.activate(0)
        drr.activate(1)
        sizes = {0: 1000, 1: 1000}
        served = [drr.select(lambda q: sizes[q]) for _ in range(10)]
        assert served.count(0) == 5
        assert served.count(1) == 5
        # ... and no long monopolising runs.
        longest_run = max(len(list(group)) for _, group in itertools.groupby(served))
        assert longest_run <= 2

    def test_byte_fairness_with_unequal_packet_sizes(self, drr_class):
        drr = drr_class(quantum=1000)
        drr.activate(0)  # sends 1000-byte packets
        drr.activate(1)  # sends 250-byte packets
        sizes = {0: 1000, 1: 250}
        bytes_served = {0: 0, 1: 0}
        for _ in range(200):
            q = drr.select(lambda q: sizes[q])
            bytes_served[q] += sizes[q]
        ratio = bytes_served[0] / bytes_served[1]
        assert 0.8 <= ratio <= 1.25

    def test_empty_queue_skipped(self, drr_class):
        drr = drr_class(quantum=1000)
        drr.activate(0)
        drr.activate(1)
        sizes = {0: None, 1: 500}
        assert drr.select(lambda q: sizes[q]) == 1

    def test_blocked_queue_skipped(self, drr_class):
        drr = drr_class(quantum=1000)
        drr.activate(0)
        drr.activate(1)
        sizes = {0: BLOCKED, 1: 500}
        served = [drr.select(lambda q: sizes[q]) for _ in range(4)]
        assert served == [1, 1, 1, 1]

    def test_all_blocked_returns_none(self, drr_class):
        drr = drr_class(quantum=1000)
        drr.activate(0)
        assert drr.select(lambda q: BLOCKED) is None
        assert drr.select(lambda q: None) is None

    def test_blocked_queue_keeps_deficit_and_empty_queue_forfeits_it(self, drr_class):
        drr = drr_class(quantum=1000)
        drr.activate(0)
        assert drr.select(lambda q: 300) == 0
        assert drr.deficit(0) == 700
        assert drr.select(lambda q: BLOCKED) is None
        assert drr.deficit(0) == 700
        assert drr.select(lambda q: 300) == 0
        assert drr.deficit(0) == 1_400
        assert drr.select(lambda q: None) is None
        assert drr.deficit(0) == 0

    def test_idle_ends_the_turn_and_steps_the_cursor(self, drr_class):
        drr = drr_class(quantum=1000)
        for q in range(3):
            drr.activate(q)
        assert drr.select(lambda q: 400) == 0
        drr.idle()
        # Queue 0's turn is over; the cursor stepped past queue 1.
        assert drr.select(lambda q: 400) == 2
        assert drr.deficit(0) == 600

    def test_no_active_queues(self, drr_class):
        drr = drr_class()
        assert drr.select(lambda q: 100) is None

    def test_deactivate_removes_queue(self, drr_class):
        drr = drr_class(quantum=1000)
        drr.activate(0)
        drr.activate(1)
        drr.deactivate(0)
        assert drr.active_queues() == [1]
        assert drr.select(lambda q: 100) == 1

    def test_deactivate_current_queue_is_safe(self, drr_class):
        drr = drr_class(quantum=1000)
        drr.activate(0)
        drr.activate(1)
        first = drr.select(lambda q: 1000)
        drr.deactivate(first)
        other = 1 - first
        assert drr.select(lambda q: 1000) == other

    def test_reactivation_after_deactivate(self, drr_class):
        drr = drr_class(quantum=1000)
        drr.activate(5)
        drr.deactivate(5)
        drr.activate(5)
        assert drr.select(lambda q: 100) == 5

    def test_quantum_must_be_positive(self, drr_class):
        with pytest.raises(ValueError):
            drr_class(quantum=0)

    def test_three_queues_round_robin_order(self, drr_class):
        drr = drr_class(quantum=1000)
        for q in range(3):
            drr.activate(q)
        served = [drr.select(lambda q: 1000) for _ in range(9)]
        assert served.count(0) == served.count(1) == served.count(2) == 3


@pytest.fixture
def fifo_class(plane_sim):
    """The FIFO of each forwarding plane."""
    plane = plane_sim.compiled_plane
    return FifoDiscipline if plane is None else plane.FifoDiscipline


class TestFifoDiscipline:
    def test_fifo_order(self, fifo_class):
        fifo = fifo_class()
        packets = [make_packet(i) for i in range(5)]
        for p in packets:
            fifo.enqueue(p, ingress=0)
        out = [fifo.dequeue() for _ in range(5)]
        assert out == packets

    def test_backlog_accounting(self, fifo_class):
        fifo = fifo_class()
        fifo.enqueue(make_packet(1, size=100), 0)
        fifo.enqueue(make_packet(2, size=200), 0)
        assert fifo.backlog_bytes() == 300
        assert fifo.backlog_packets() == 2
        fifo.dequeue()
        assert fifo.backlog_bytes() == 200

    def test_dequeue_empty(self, fifo_class):
        assert fifo_class().dequeue() is None

    def test_order_and_backlog_hold_as_the_ring_wraps_and_grows(self, fifo_class):
        # Five in, three out per round: the head walks round the ring, and
        # the ring grows while its packets wrap past the end.
        fifo, model = fifo_class(), deque()
        for round_ in range(40):
            for i in range(5):
                packet = make_packet(5 * round_ + i, size=100 + 5 * round_ + i)
                fifo.enqueue(packet, 0)
                model.append(packet)
            for _ in range(3):
                assert fifo.dequeue() is model.popleft()
            assert fifo.backlog_packets() == len(model)
            assert fifo.backlog_bytes() == sum(packet.size for packet in model)
        while model:
            assert fifo.dequeue() is model.popleft()
        assert fifo.dequeue() is None and fifo.backlog_bytes() == 0


class TestSfqDiscipline:
    def test_same_flow_same_queue(self):
        sfq = SfqDiscipline(num_queues=8)
        a = make_packet(1)
        b = make_packet(1)
        assert sfq.queue_for(a) == sfq.queue_for(b)

    def test_flows_spread_across_queues(self):
        sfq = SfqDiscipline(num_queues=32)
        queues = {sfq.queue_for(make_packet(i, src=i)) for i in range(200)}
        assert len(queues) > 16

    def test_round_robin_between_flows(self):
        sfq = SfqDiscipline(num_queues=32)
        # Find two flows that hash to different queues.
        flow_a, flow_b = 1, 2
        while sfq.queue_for(make_packet(flow_a)) == sfq.queue_for(make_packet(flow_b)):
            flow_b += 1
        for _ in range(3):
            sfq.enqueue(make_packet(flow_a), 0)
        for _ in range(3):
            sfq.enqueue(make_packet(flow_b), 0)
        served = [sfq.dequeue().flow_id for _ in range(6)]
        # Interleaved service, not 3 then 3.
        assert served != [flow_a] * 3 + [flow_b] * 3

    def test_backlog_and_occupied_queues(self):
        sfq = SfqDiscipline(num_queues=8)
        sfq.enqueue(make_packet(1, size=100), 0)
        sfq.enqueue(make_packet(2, size=100, src=7), 0)
        assert sfq.backlog_bytes() == 200
        assert sfq.backlog_packets() == 2
        assert 1 <= sfq.occupied_queues() <= 2
        while sfq.dequeue() is not None:
            pass
        assert sfq.backlog_bytes() == 0
        assert sfq.occupied_queues() == 0

    def test_rejects_bad_queue_count(self):
        with pytest.raises(ValueError):
            SfqDiscipline(num_queues=0)


class TestIdealFqDiscipline:
    def test_per_flow_queues(self):
        fq = IdealFqDiscipline()
        for flow in range(10):
            fq.enqueue(make_packet(flow, src=flow), 0)
        assert fq.occupied_queues() == 10

    def test_fair_interleaving(self):
        fq = IdealFqDiscipline()
        for _ in range(5):
            fq.enqueue(make_packet(1), 0)
        for _ in range(5):
            fq.enqueue(make_packet(2, src=2), 0)
        served = [fq.dequeue().flow_id for _ in range(10)]
        # Perfectly alternating service between the two flows.
        assert served[:6] in ([1, 2, 1, 2, 1, 2], [2, 1, 2, 1, 2, 1])

    def test_queue_reclaimed_when_empty(self):
        fq = IdealFqDiscipline()
        fq.enqueue(make_packet(1), 0)
        fq.dequeue()
        assert fq.occupied_queues() == 0
        assert fq.dequeue() is None

    def test_backlog_accounting(self):
        fq = IdealFqDiscipline()
        fq.enqueue(make_packet(1, size=700), 0)
        fq.enqueue(make_packet(2, size=300, src=2), 0)
        assert fq.backlog_bytes() == 1_000
        assert fq.backlog_packets() == 2
