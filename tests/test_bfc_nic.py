"""Unit tests for the BFC host NIC (Bloom-filter pause handling)."""

from repro.core.bloom import BloomFilterCodec
from repro.core.config import BfcConfig
from repro.core.nic import BfcNicScheduler, bfc_nic_class
from repro.sim import units
from repro.sim.flow import Flow
from repro.sim.host import Host, HostConfig
from repro.sim.node import Node
from repro.sim.packet import FlowKey, Packet, PacketKind
from repro.sim.port import connect


class SinkNode(Node):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def handle_packet(self, packet, iface_index):
        self.received.append((self.sim.now, packet))


def make_host(sim, config=None, host_config=None):
    config = config or BfcConfig()
    host = Host(
        sim,
        "h0",
        host_id=0,
        config=host_config or HostConfig(mtu=1000, mark_first_packet=True),
        nic_class=bfc_nic_class(config),
    )
    sink = SinkNode(sim, "sink")
    connect(host, sink, rate_bps=units.gbps(10), delay_ns=1_000)
    return host, sink, config


def bloom_frame(codec: BloomFilterCodec, vfids) -> Packet:
    return Packet(
        kind=PacketKind.BLOOM,
        flow_id=0,
        key=FlowKey(-2, -2, 0, 0),
        size=codec.size_bytes + 18,
        bloom_bits=codec.encode(vfids),
    )


class TestBfcNic:
    def test_nic_class_binds_config(self):
        config = BfcConfig(num_vfids=1_024, bloom_filter_bytes=32)
        cls = bfc_nic_class(config)
        assert issubclass(cls, BfcNicScheduler)
        assert cls.CONFIG is config

    def test_unpaused_flow_sends(self, sim):
        host, sink, _ = make_host(sim)
        flow = Flow(src=0, dst=5, size=3_000, start_ns=0)
        host.start_flow(flow)
        sim.run(until=units.microseconds(50))
        data = [p for _, p in sink.received if p.kind is PacketKind.DATA]
        assert len(data) == 3

    def test_first_packet_is_marked(self, sim):
        host, sink, _ = make_host(sim)
        flow = Flow(src=0, dst=5, size=3_000, start_ns=0)
        host.start_flow(flow)
        sim.run(until=units.microseconds(50))
        data = sorted(
            (p for _, p in sink.received if p.kind is PacketKind.DATA),
            key=lambda p: p.seq,
        )
        assert data[0].first_of_flow
        assert not any(p.first_of_flow for p in data[1:])

    def test_paused_flow_stops_sending(self, sim):
        host, sink, config = make_host(sim)
        flow = Flow(src=0, dst=5, size=50_000, start_ns=0)
        state = host.start_flow(flow)
        codec = host.nic.codec
        vfid = flow.key().vfid(config.num_vfids)
        # Let a few packets out, then pause the flow.
        sim.run(until=units.microseconds(5))
        sent_before = len(sink.received)
        host.receive(bloom_frame(codec, [vfid]), 0)
        sim.run(until=units.microseconds(100))
        sent_after = len(sink.received)
        # Only packets already serialized or propagating when the pause
        # arrived may still show up (one on the wire, one in flight).
        assert sent_after - sent_before <= 2
        assert host.nic.paused_flow_count() == 1

    def test_other_flows_keep_sending_while_one_is_paused(self, sim):
        host, sink, config = make_host(sim)
        paused_flow = Flow(src=0, dst=5, size=50_000, start_ns=0, src_port=1)
        other_flow = Flow(src=0, dst=6, size=50_000, start_ns=0, src_port=2)
        host.start_flow(paused_flow)
        host.start_flow(other_flow)
        codec = host.nic.codec
        vfid = paused_flow.key().vfid(config.num_vfids)
        host.receive(bloom_frame(codec, [vfid]), 0)
        sim.run(until=units.microseconds(100))
        sent = [p for _, p in sink.received if p.kind is PacketKind.DATA]
        paused_sent = [p for p in sent if p.flow_id == paused_flow.flow_id]
        other_sent = [p for p in sent if p.flow_id == other_flow.flow_id]
        assert len(other_sent) > 20
        assert len(paused_sent) <= 1

    def test_resume_restarts_transmission(self, sim):
        host, sink, config = make_host(sim)
        flow = Flow(src=0, dst=5, size=20_000, start_ns=0)
        host.start_flow(flow)
        codec = host.nic.codec
        vfid = flow.key().vfid(config.num_vfids)
        host.receive(bloom_frame(codec, [vfid]), 0)
        sim.run(until=units.microseconds(50))
        sent_paused = len([p for _, p in sink.received if p.kind is PacketKind.DATA])
        host.receive(bloom_frame(codec, []), 0)  # all-clear
        sim.run(until=units.microseconds(200))
        sent_final = len([p for _, p in sink.received if p.kind is PacketKind.DATA])
        assert sent_final == 20
        assert sent_final > sent_paused

    def test_bloom_frame_counted(self, sim):
        host, sink, config = make_host(sim)
        codec = BloomFilterCodec(config.bloom_filter_bytes, config.bloom_hash_functions)
        host.receive(bloom_frame(codec, [1, 2, 3]), 0)
        assert host.nic.bloom_frames_received == 1

    def test_false_positive_pauses_unrelated_flow(self, sim):
        """A deliberately tiny filter makes false positives likely; the NIC
        treats them as pauses exactly as the paper describes."""
        config = BfcConfig(bloom_filter_bytes=1, bloom_hash_functions=1)
        host, sink, _ = make_host(sim, config=config)
        codec = host.nic.codec
        flow = Flow(src=0, dst=5, size=10_000, start_ns=0)
        host.start_flow(flow)
        vfid = flow.key().vfid(config.num_vfids)
        # Find a different VFID that collides with this flow's bits.
        other = next(
            v
            for v in range(20_000)
            if v != vfid
            and set(codec.bit_positions(v)) >= set(codec.bit_positions(vfid))
        )
        host.receive(bloom_frame(codec, [other]), 0)
        assert host.nic.paused_flow_count() == 1


class TestBloomRebroadcast:
    """The ToR re-sends its filter every interval; repeats must change nothing."""

    def test_identical_rebroadcast_is_counted_and_keeps_the_pause(self, sim):
        host, sink, config = make_host(sim)
        flow = Flow(src=0, dst=5, size=20_000, start_ns=0)
        host.start_flow(flow)
        codec = host.nic.codec
        vfid = flow.key().vfid(config.num_vfids)
        host.receive(bloom_frame(codec, [vfid]), 0)
        host.receive(bloom_frame(codec, [vfid]), 0)
        assert host.nic.bloom_frames_received == 2
        assert host.nic.paused_flow_count() == 1
        sim.run(until=units.microseconds(50))
        data = [p for _, p in sink.received if p.kind is PacketKind.DATA]
        assert len(data) <= 1  # only the packet already committed at start

    def test_flow_started_under_an_installed_filter_is_paused(self, sim):
        """The identical-bitmap shortcut skips re-evaluation, so a flow that
        registers after the filter arrived must be checked on registration."""
        host, sink, config = make_host(sim)
        flow = Flow(src=0, dst=5, size=20_000, start_ns=0)
        codec = host.nic.codec
        vfid = flow.key().vfid(config.num_vfids)
        host.receive(bloom_frame(codec, [vfid]), 0)
        host.start_flow(flow)
        assert host.nic.paused_flow_count() == 1
        host.receive(bloom_frame(codec, [vfid]), 0)  # repeat: still paused
        sim.run(until=units.microseconds(50))
        assert not [p for _, p in sink.received if p.kind is PacketKind.DATA]
        host.receive(bloom_frame(codec, []), 0)
        sim.run(until=units.microseconds(200))
        data = [p for _, p in sink.received if p.kind is PacketKind.DATA]
        assert len(data) == 20

    def test_changed_bitmap_reevaluates_every_flow(self, sim):
        host, sink, config = make_host(sim)
        first = Flow(src=0, dst=5, size=20_000, start_ns=0, src_port=1)
        second = Flow(src=0, dst=6, size=20_000, start_ns=0, src_port=2)
        first_state = host.start_flow(first)
        second_state = host.start_flow(second)
        codec = host.nic.codec
        first_vfid = first.key().vfid(config.num_vfids)
        second_vfid = second.key().vfid(config.num_vfids)
        assert first_vfid != second_vfid
        host.receive(bloom_frame(codec, [first_vfid]), 0)
        assert first_state.paused and not second_state.paused
        host.receive(bloom_frame(codec, [second_vfid]), 0)
        assert not first_state.paused and second_state.paused
