"""Unit tests for the base switch: routing, buffering, ECN, PFC, INT.

Every test runs on both forwarding planes (the ``sim`` fixture is
parametrized over the pure and the compiled simulator).
"""

import dataclasses

import pytest

from repro.sim import units
from repro.sim.buffer import PfcPolicy
from repro.sim.disciplines import fifo_for
from repro.sim.host import HostConfig
from repro.sim.node import Node
from repro.sim.packet import FlowKey, Packet, PacketKind
from repro.sim.port import connect
from repro.sim.switch import EcnConfig, Switch


class SinkNode(Node):
    """Records what it receives; PFC frames pause its port as on any node."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def handle_packet(self, packet, iface_index):
        if packet.kind is PacketKind.PFC:
            super().handle_packet(packet, iface_index)
            return
        self.received.append((self.sim.now, packet))


def data_packet(src, dst, flow_id=1, size=1_000, seq=0, int_enabled=False):
    return Packet(
        kind=PacketKind.DATA,
        flow_id=flow_id,
        key=FlowKey(src=src, dst=dst, src_port=flow_id, dst_port=4791),
        size=size,
        seq=seq,
        flow_size=size,
        int_enabled=int_enabled,
    )


@pytest.fixture
def sim(plane_sim):
    return plane_sim


@pytest.fixture
def star(sim):
    """One switch with three attached sink nodes (0, 1, 2)."""
    switch = Switch(
        sim,
        "sw",
        buffer_bytes=100_000,
        discipline_factory=lambda iface: fifo_for(iface.tx),
        pfc=PfcPolicy(enabled=True, threshold_fraction=0.11),
    )
    nodes = []
    for i in range(3):
        node = SinkNode(sim, f"n{i}")
        connect(node, switch, rate_bps=units.gbps(10), delay_ns=1_000)
        node.interfaces[0].tx.discipline = fifo_for(node.interfaces[0].tx)
        nodes.append(node)
    switch.set_routes({i: [switch.interface_to(nodes[i]).index] for i in range(3)})
    return switch, nodes


class TestForwarding:
    def test_data_forwarded_to_destination(self, sim, star):
        switch, nodes = star
        packet = data_packet(src=0, dst=2)
        switch.handle_packet(packet, nodes[0].interfaces[0].tx.peer_iface)
        sim.run_until_idle()
        assert len(nodes[2].received) == 1
        assert nodes[1].received == []

    def test_control_forwarded_without_buffering(self, sim, star):
        switch, nodes = star
        ack = Packet(
            kind=PacketKind.ACK,
            flow_id=1,
            key=FlowKey(src=2, dst=0, src_port=1, dst_port=1),
            size=64,
        )
        switch.handle_packet(ack, 2)
        sim.run_until_idle()
        assert len(nodes[0].received) == 1
        assert switch.buffer.occupancy() == 0

    def test_unknown_destination_raises(self, sim, star):
        switch, _ = star
        with pytest.raises(KeyError):
            switch.handle_packet(data_packet(src=0, dst=99), 0)

    def test_ecmp_is_deterministic_per_flow(self, sim, star):
        switch, nodes = star
        switch.add_route(2, [0, 1, 2])
        picks = {switch.egress_for(data_packet(src=0, dst=2, flow_id=7)) for _ in range(10)}
        assert len(picks) == 1

    def test_ecmp_spreads_different_flows(self, sim, star):
        switch, _ = star
        switch.add_route(2, [0, 1, 2])
        picks = {
            switch.egress_for(data_packet(src=0, dst=2, flow_id=i)) for i in range(60)
        }
        assert len(picks) >= 2

    def test_hop_count_incremented(self, sim, star):
        switch, nodes = star
        packet = data_packet(src=0, dst=1)
        switch.handle_packet(packet, 0)
        sim.run_until_idle()
        assert packet.hops == 1


class TestBuffering:
    def test_buffer_released_on_departure(self, sim, star):
        switch, nodes = star
        # The first packet starts transmitting immediately (and leaves the
        # buffer); the second must wait and therefore occupies buffer space.
        switch.handle_packet(data_packet(src=0, dst=1, seq=0), 0)
        switch.handle_packet(data_packet(src=0, dst=1, seq=1), 0)
        assert switch.buffer.occupancy() == 1_000
        sim.run_until_idle()
        assert switch.buffer.occupancy() == 0

    def test_drop_when_buffer_full(self, sim, star):
        switch, nodes = star
        for i in range(150):  # 150 KB offered into a 100 KB buffer
            switch.handle_packet(data_packet(src=0, dst=1, flow_id=i, seq=i), 0)
        assert switch.dropped_packets() > 0
        assert switch.buffer.occupancy() <= switch.buffer.capacity

    def test_dropped_packets_never_delivered(self, sim, star):
        switch, nodes = star
        for i in range(150):
            switch.handle_packet(data_packet(src=0, dst=1, flow_id=1, seq=i), 0)
        sim.run_until_idle()
        delivered = len(nodes[1].received)
        assert delivered + switch.dropped_packets() == 150


class TestEcnMarking:
    def test_marks_above_kmax(self, sim, star):
        switch, nodes = star
        switch.ecn = EcnConfig(enabled=True, kmin=2_000, kmax=5_000, pmax=1.0)
        for i in range(20):
            switch.handle_packet(data_packet(src=0, dst=1, flow_id=1, seq=i), 0)
        sim.run_until_idle()
        marked = sum(1 for _, p in nodes[1].received if p.ecn_marked)
        assert marked > 0

    def test_never_marks_below_kmin(self, sim, star):
        switch, nodes = star
        switch.ecn = EcnConfig(enabled=True, kmin=50_000, kmax=90_000, pmax=1.0)
        for i in range(10):
            switch.handle_packet(data_packet(src=0, dst=1, flow_id=1, seq=i), 0)
        sim.run_until_idle()
        assert all(not p.ecn_marked for _, p in nodes[1].received)

    def test_disabled_ecn_never_marks(self, sim, star):
        switch, nodes = star
        switch.ecn = EcnConfig(enabled=False)
        for i in range(50):
            switch.handle_packet(data_packet(src=0, dst=1, flow_id=1, seq=i), 0)
        sim.run_until_idle()
        assert all(not p.ecn_marked for _, p in nodes[1].received)

    def test_marking_probability_ramp(self):
        ecn = EcnConfig(enabled=True, kmin=100, kmax=200, pmax=0.5)
        assert ecn.marking_probability(100) == 0.0
        assert ecn.marking_probability(150) == pytest.approx(0.25)
        assert ecn.marking_probability(250) == 1.0


class TestPfcGeneration:
    def test_pause_frame_sent_when_ingress_over_threshold(self, sim, star):
        switch, nodes = star
        # Flood from node 0 toward node 1 without letting the simulator drain.
        for i in range(30):
            switch.handle_packet(data_packet(src=0, dst=1, flow_id=1, seq=i), 0)
        assert switch.counters.get("pfc_pause_frames") >= 1

    def test_resume_frame_sent_after_drain(self, sim, star):
        switch, nodes = star
        for i in range(30):
            switch.handle_packet(data_packet(src=0, dst=1, flow_id=1, seq=i), 0)
        sim.run_until_idle()
        assert switch.counters.get("pfc_resume_frames") >= 1

    def test_upstream_node_pauses_on_pfc(self, sim, star):
        switch, nodes = star
        for i in range(30):
            switch.handle_packet(data_packet(src=0, dst=1, flow_id=1, seq=i), 0)
        sim.run(until=3_000)
        # Node 0's uplink should have been paused at some point.
        assert nodes[0].interfaces[0].tx.pfc_meter.pause_events >= 1

    def test_no_pfc_when_disabled(self, sim, star):
        switch, nodes = star
        switch.pfc = PfcPolicy(enabled=False)
        for i in range(30):
            switch.handle_packet(data_packet(src=0, dst=1, flow_id=1, seq=i), 0)
        sim.run_until_idle()
        assert switch.counters.get("pfc_pause_frames") == 0


@pytest.mark.parametrize("policy", [PfcPolicy(), EcnConfig(), HostConfig()],
                         ids=["PfcPolicy", "EcnConfig", "HostConfig"])
def test_a_policy_cannot_change_in_place(policy):
    """The compiled hop and NIC keep copies of these: a change is a rebinding."""
    for field in dataclasses.fields(policy):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(policy, field.name, getattr(policy, field.name))


class TestIntStamping:
    def test_int_hop_appended_on_dequeue(self, sim, star):
        switch, nodes = star
        switch.int_enabled = True
        packet = data_packet(src=0, dst=1, int_enabled=True)
        switch.handle_packet(packet, 0)
        sim.run_until_idle()
        assert len(packet.int_stack) == 1
        hop = packet.int_stack[0]
        assert hop.node == "sw"
        assert hop.rate_bps == units.gbps(10)

    def test_no_stamping_when_switch_int_disabled(self, sim, star):
        switch, nodes = star
        packet = data_packet(src=0, dst=1, int_enabled=True)
        switch.handle_packet(packet, 0)
        sim.run_until_idle()
        assert packet.int_stack == []

    def test_no_stamping_for_non_int_packets(self, sim, star):
        switch, nodes = star
        switch.int_enabled = True
        packet = data_packet(src=0, dst=1, int_enabled=False)
        switch.handle_packet(packet, 0)
        sim.run_until_idle()
        assert packet.int_stack == []
