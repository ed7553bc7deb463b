"""Unit tests for interfaces, egress ports, link wiring and PFC handling.

Every test runs on both forwarding planes (the ``sim`` fixture is
parametrized over the pure and the compiled simulator).
"""

import pytest

from repro.sim import units
from repro.sim.disciplines import fifo_for
from repro.sim.node import Node
from repro.sim.packet import FlowKey, Packet, PacketKind, PFC_FRAME_SIZE
from repro.sim.port import connect


class RecordingNode(Node):
    """A node that records everything it receives, PFC frames aside."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def handle_packet(self, packet, iface_index):
        if packet.kind is PacketKind.PFC:
            super().handle_packet(packet, iface_index)
            return
        self.received.append((self.sim.now, packet, iface_index))


def make_data_packet(flow_id=1, size=1000):
    return Packet(
        kind=PacketKind.DATA,
        flow_id=flow_id,
        key=FlowKey(src=1, dst=2, src_port=flow_id, dst_port=4791),
        size=size,
        flow_size=size,
    )


def make_pfc(pause: bool) -> Packet:
    return Packet(
        kind=PacketKind.PFC,
        flow_id=0,
        key=FlowKey(src=-1, dst=-1, src_port=0, dst_port=0),
        size=PFC_FRAME_SIZE,
        pause=pause,
    )


@pytest.fixture
def sim(plane_sim):
    return plane_sim


@pytest.fixture
def pair(sim):
    a = RecordingNode(sim, "a")
    b = RecordingNode(sim, "b")
    iface_a, iface_b = connect(a, b, rate_bps=units.gbps(10), delay_ns=1_000)
    iface_a.tx.discipline = fifo_for(iface_a.tx)
    iface_b.tx.discipline = fifo_for(iface_b.tx)
    return a, b, iface_a, iface_b


class TestWiring:
    def test_connect_creates_peered_interfaces(self, pair):
        a, b, iface_a, iface_b = pair
        assert iface_a.peer_node is b
        assert iface_b.peer_node is a
        assert iface_a.tx.connected and iface_b.tx.connected

    def test_interface_to(self, pair):
        a, b, iface_a, iface_b = pair
        assert a.interface_to(b) is iface_a
        assert b.interface_to(a) is iface_b

    def test_interface_to_unknown_node(self, sim, pair):
        a, _, _, _ = pair
        stranger = RecordingNode(sim, "stranger")
        assert a.interface_to(stranger) is None

    def test_link_parameter_validation(self, sim):
        a = RecordingNode(sim, "a")
        with pytest.raises(ValueError):
            a.add_interface(rate_bps=0, delay_ns=100)
        with pytest.raises(ValueError):
            a.add_interface(rate_bps=units.gbps(1), delay_ns=-5)


class TestTransmission:
    def test_data_packet_delivered_after_tx_plus_propagation(self, sim, pair):
        a, b, iface_a, _ = pair
        packet = make_data_packet(size=1_250)  # 1 us at 10 Gbps
        iface_a.tx.discipline.enqueue(packet, 0)
        iface_a.tx.notify()
        sim.run_until_idle()
        assert len(b.received) == 1
        arrival, received, iface_index = b.received[0]
        assert received is packet
        assert arrival == 1_000 + 1_000  # serialization + propagation
        assert iface_index == 0

    def test_packets_serialize_back_to_back(self, sim, pair):
        a, b, iface_a, _ = pair
        for i in range(3):
            iface_a.tx.discipline.enqueue(make_data_packet(flow_id=i, size=1_250), 0)
        iface_a.tx.notify()
        sim.run_until_idle()
        arrivals = [t for t, _, _ in b.received]
        assert arrivals == [2_000, 3_000, 4_000]

    def test_control_packets_preempt_data(self, sim, pair):
        a, b, iface_a, _ = pair
        iface_a.tx.discipline.enqueue(make_data_packet(flow_id=1, size=1_250), 0)
        iface_a.tx.discipline.enqueue(make_data_packet(flow_id=2, size=1_250), 0)
        ack = Packet(
            kind=PacketKind.ACK,
            flow_id=9,
            key=FlowKey(src=2, dst=1, src_port=1, dst_port=1),
            size=64,
        )
        iface_a.tx.notify()
        sim.schedule(100, iface_a.tx.send_control, ack)
        sim.run_until_idle()
        kinds = [p.kind for _, p, _ in b.received]
        # The ACK was queued while the first data packet was on the wire, so it
        # goes out before the second data packet.
        assert kinds == [PacketKind.DATA, PacketKind.ACK, PacketKind.DATA]

    def test_byte_meter_counts_data_and_control(self, sim, pair):
        a, b, iface_a, _ = pair
        iface_a.tx.discipline.enqueue(make_data_packet(size=1_000), 0)
        iface_a.tx.notify()
        iface_a.tx.send_control(
            Packet(kind=PacketKind.ACK, flow_id=1, key=FlowKey(1, 2, 3, 4), size=64)
        )
        sim.run_until_idle()
        assert iface_a.tx.bytes.data_bytes == 1_000
        assert iface_a.tx.bytes.control_bytes == 64

    @pytest.mark.parametrize("rate_bps", [1.0, 123_456.0, 2.5e9, 7.3e9, 400e9])
    @pytest.mark.parametrize("size", [1, 64, 999, 1048, 9000])
    def test_serialization_delay_matches_units_formula(self, sim, rate_bps, size):
        """The tx-time arithmetic inlined in EgressPort.kick must track
        units.transmission_time_ns exactly (same rounding, same >=1 clamp) —
        any drift between the two changes event timing and breaks the
        golden-records guarantee."""
        a = RecordingNode(sim, "a")
        b = RecordingNode(sim, "b")
        iface_a, _ = connect(a, b, rate_bps=rate_bps, delay_ns=0)
        iface_a.tx.discipline = fifo_for(iface_a.tx)
        iface_a.tx.discipline.enqueue(make_data_packet(size=size), 0)
        iface_a.tx.notify()
        sim.run_until_idle()
        (received_at, _, _), = b.received
        assert received_at == units.transmission_time_ns(size, rate_bps)

    def test_on_data_dequeue_hook_runs(self, sim, pair):
        a, b, iface_a, _ = pair
        seen = []
        iface_a.tx.on_data_dequeue = lambda pkt, iface_index: seen.append(pkt)
        packet = make_data_packet()
        iface_a.tx.discipline.enqueue(packet, 0)
        iface_a.tx.notify()
        sim.run_until_idle()
        assert seen == [packet]

    def test_utilization_measurement(self, sim, pair):
        a, b, iface_a, _ = pair
        # 2500 bytes over 2 us at 10 Gbps = 100% utilisation.
        iface_a.tx.discipline.enqueue(make_data_packet(size=1_250), 0)
        iface_a.tx.discipline.enqueue(make_data_packet(flow_id=2, size=1_250), 0)
        iface_a.tx.notify()
        sim.run_until_idle()
        assert iface_a.tx.utilization(units.microseconds(2)) == pytest.approx(1.0, rel=0.01)


class TestPfcAtPortLevel:
    def test_pfc_frame_pauses_data_class(self, sim, pair):
        a, b, iface_a, iface_b = pair
        # b tells a to pause: the frame arrives at a on iface 0 and pauses a's tx.
        iface_a.tx.discipline.enqueue(make_data_packet(), 0)
        a.handle_packet(make_pfc(pause=True), 0)
        iface_a.tx.notify()
        sim.run(until=10_000)
        assert b.received == []
        a.handle_packet(make_pfc(pause=False), 0)
        sim.run_until_idle()
        assert len(b.received) == 1

    def test_control_traffic_unaffected_by_pfc(self, sim, pair):
        a, b, iface_a, _ = pair
        a.handle_packet(make_pfc(pause=True), 0)
        iface_a.tx.send_control(
            Packet(kind=PacketKind.ACK, flow_id=1, key=FlowKey(1, 2, 3, 4), size=64)
        )
        sim.run_until_idle()
        assert len(b.received) == 1
        assert b.received[0][1].kind is PacketKind.ACK

    def test_pause_meter_tracks_pfc_time(self, sim, pair):
        a, _, iface_a, _ = pair
        a.handle_packet(make_pfc(pause=True), 0)
        sim.schedule(500, a.handle_packet, make_pfc(pause=False), 0)
        sim.run_until_idle()
        assert iface_a.tx.pfc_meter.paused_time(sim.now) == 500

    def test_resume_kicks_transmission(self, sim, pair):
        a, b, iface_a, _ = pair
        iface_a.tx.discipline.enqueue(make_data_packet(size=1_250), 0)
        a.handle_packet(make_pfc(pause=True), 0)
        sim.schedule(5_000, a.handle_packet, make_pfc(pause=False), 0)
        sim.run_until_idle()
        assert len(b.received) == 1
        assert b.received[0][0] == 5_000 + 1_000 + 1_000
