"""Unit tests for boundary channels, the packet wire codec and the engine's
boundary scheduling hook."""

from dataclasses import replace

import pytest

from repro.experiments.runner import build_simulation
from repro.experiments.scenarios import fig5a_configs, fig9_configs
from repro.shard.boundary import (
    BoundaryChannel,
    InjectionQueue,
    _make_boundary_post,
    attach_boundaries,
    packet_from_wire,
    packet_to_wire,
)
from repro.shard.coordinator import (
    ShardCoordinator,
    ShardError,
    _worker_timeout_s,
    run_sharded_experiment,
)
from repro.shard.partition import partition_topology
from repro.sim.engine import SimulationError, Simulator
from repro.sim.packet import FlowKey, IntHop, Packet, PacketKind


def make_data_packet(**overrides):
    kwargs = dict(
        kind=PacketKind.DATA,
        flow_id=7,
        key=FlowKey(src=1, dst=2, src_port=1007, dst_port=4791),
        size=1048,
        seq=3,
        flow_size=9000,
        created_ns=123,
        ecn_capable=True,
        ecn_marked=True,
        int_enabled=True,
        int_stack=[IntHop("tor0", 100, 5000, 200, 1e10)],
        first_of_flow=True,
        last_of_flow=False,
        hops=2,
        cur_ingress=4,
        vfid=99,
        vfid_space=4096,
    )
    kwargs.update(overrides)
    return Packet(**kwargs)


class TestPacketWireCodec:
    def test_data_packet_round_trip(self):
        packet = make_data_packet()
        clone = packet_from_wire(packet_to_wire(packet), {})
        for slot in Packet.__slots__:
            if slot in ("key", "int_stack"):
                continue
            assert getattr(clone, slot) == getattr(packet, slot), slot
        assert clone.key == packet.key
        assert clone.key.vfid(4096) == packet.key.vfid(4096)
        assert [
            (h.node, h.timestamp_ns, h.tx_bytes, h.queue_bytes, h.rate_bps)
            for h in clone.int_stack
        ] == [("tor0", 100, 5000, 200, 1e10)]

    def test_entry_handle_does_not_cross_the_boundary(self):
        # The BFC flow-table handle is per-switch state: a packet leaves its
        # egress queue (and the shard) without it, and the wire form could
        # not carry one anyway.
        packet = make_data_packet()
        packet.entry = object()
        wire = packet_to_wire(packet)
        assert all(item is not packet.entry for item in wire)
        assert packet_from_wire(wire, {}).entry is None

    def test_bloom_frame_round_trip(self):
        packet = Packet(
            kind=PacketKind.BLOOM,
            flow_id=0,
            key=FlowKey(src=-2, dst=-2, src_port=0, dst_port=0),
            size=50,
            bloom_bits=b"\x01\x02\xff",
        )
        clone = packet_from_wire(packet_to_wire(packet), {})
        assert clone.kind is PacketKind.BLOOM
        assert clone.bloom_bits == b"\x01\x02\xff"
        assert clone.is_control

    def test_flow_keys_are_interned_per_flow(self):
        cache = {}
        a = packet_from_wire(packet_to_wire(make_data_packet(seq=0)), cache)
        b = packet_from_wire(packet_to_wire(make_data_packet(seq=1)), cache)
        assert a.key is b.key  # one FlowKey per flow, like the sender side


class TestScheduleBoundary:
    def test_orders_like_the_serial_insertion_point(self):
        # A local event scheduled at instant 60 for time 100 must yield to a
        # boundary event whose origin says it was scheduled earlier (50) —
        # and must precede one whose origin says later (80) — even though
        # both boundary events are injected afterwards.
        sim = Simulator()
        fired = []
        sim.schedule_at(60, lambda: sim.schedule_at(100, fired.append, "local-60"))
        sim.run(until=90)  # conservative epoch boundary before the deliveries
        sim.schedule_boundary(100, 80, fired.append, "boundary-80")
        sim.schedule_boundary(100, 50, fired.append, "boundary-50")
        sim.run()
        assert fired == ["boundary-50", "local-60", "boundary-80"]

    def test_equal_origin_fires_in_injection_order(self):
        sim = Simulator()
        fired = []
        sim.schedule_boundary(10, 5, fired.append, "first")
        sim.schedule_boundary(10, 5, fired.append, "second")
        sim.run()
        assert fired == ["first", "second"]

    def test_rejects_past_delivery_and_late_origin(self):
        sim = Simulator()
        sim.schedule(5, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_boundary(1, 0, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_boundary(100, 101, lambda: None)

    def test_serial_schedule_ignores_boundary_fields(self):
        # Public-API scheduling must keep firing in plain seq order.
        sim = Simulator()
        fired = []
        for tag in range(5):
            sim.schedule(10, fired.append, tag)
        sim.run()
        assert fired == [0, 1, 2, 3, 4]


class TestBoundaryChannel:
    def test_capture_records_departure_and_arrival(self):
        sim = Simulator()
        outbox = []
        channel = BoundaryChannel(
            sim, dest_shard=1, dest_node="tor1", dest_iface=4, outbox=outbox
        )
        packet = make_data_packet()
        # The capture receives the delivery post's own delay (serialization
        # 800 + propagation 1000) and computes arrival from it.
        sim.schedule(70, channel.receive, 800 + 1000, packet, 4)
        sim.run()
        ((dest, arrival, departure, node, iface, wire),) = outbox
        assert (dest, node, iface) == (1, "tor1", 4)
        assert arrival == 70 + 800 + 1000
        assert departure == 70  # commit (serialization start) instant
        assert packet_from_wire(wire, {}).flow_id == packet.flow_id

    def test_attach_boundaries_rewires_only_local_cut_ports(self):
        config = fig9_configs("tiny", schemes=("DCQCN",), seed=1)["DCQCN"]
        sim, env, topo, _ = build_simulation(config)
        spec = partition_topology(topo, 2)
        outbox, rewired = attach_boundaries(sim, topo, spec, 0)
        local_cut_ends = sum(
            1
            for cut in spec.cuts
            for end, other in ((cut.a, cut.shard_a), (cut.b, cut.shard_b))
            if other == 0
        )
        assert rewired == local_cut_ends == 1  # gw0's end of the gateway link
        assert outbox == []
        # Rewired ports deliver into their channel instead of the peer node.
        for node in topo.switches.values():
            if spec.shard_of[node.name] != 0:
                continue
            for iface in node.interfaces:
                peer = iface.tx.peer_node
                if peer is not None and spec.shard_of[peer.name] != 0:
                    assert iface.tx._peer_receive.__self__.__class__.__name__ == (
                        "BoundaryChannel"
                    )
                    assert iface.tx._post is not sim.post

    def test_boundary_post_short_circuits_only_the_capture(self):
        sim = Simulator()
        captured, fired = [], []

        def capture(delay_ns, packet, iface_index):
            captured.append((sim.now, delay_ns, packet, iface_index))

        post = _make_boundary_post(sim.post, capture)
        post(1_800, capture, "packet", 4)
        post(300, lambda tag: fired.append((sim.now, tag)), "wake")
        # The capture runs inline, with the delivery post's own delay ...
        assert captured == [(0, 1_800, "packet", 4)]
        assert sim.pending_events() == 1
        # ... while every other post is an ordinary engine event.
        sim.run()
        assert fired == [(300, "wake")]
        assert len(captured) == 1

    def test_injection_queue_resolves_nodes_and_orders(self):
        config = fig5a_configs("tiny", schemes=["DCQCN"], seed=1)["DCQCN"]
        sim, env, topo, _ = build_simulation(config)
        injector = InjectionQueue(sim, topo)
        seen = []
        target = topo.tor_switch_of(0)
        target.handle_packet = lambda packet, iface: seen.append(packet.seq)
        wire_a = packet_to_wire(make_data_packet(seq=11))
        wire_b = packet_to_wire(make_data_packet(seq=22))
        injector.inject(
            [
                (500, 100, target.name, 0, wire_a),
                (500, 100, target.name, 0, wire_b),
            ]
        )
        sim.run()
        assert seen == [11, 22]


class TestShardEntryPoint:
    def test_max_events_is_rejected(self):
        config = fig5a_configs("tiny", schemes=["DCQCN"], seed=1)["DCQCN"]
        config = replace(config, shards=2, max_events=10)
        with pytest.raises(ShardError):
            run_sharded_experiment(config)

    def test_open_loop_traffic_is_rejected(self):
        from test_openloop import openloop_experiment_config

        config = replace(openloop_experiment_config(), shards=2)
        with pytest.raises(ShardError, match="open-loop"):
            run_sharded_experiment(config)


class TestWorkerTimeout:
    """``REPRO_SHARD_TIMEOUT_S``: seconds a live worker may stay silent."""

    @pytest.mark.parametrize("value", ["nan", "-5", "-0.1", "abc"])
    def test_bad_values_are_refused(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SHARD_TIMEOUT_S", value)
        with pytest.raises(ShardError, match="REPRO_SHARD_TIMEOUT_S"):
            _worker_timeout_s()

    @pytest.mark.parametrize("value,seconds", [("0", 0.0), ("2.5", 2.5)])
    def test_good_values_are_accepted(self, monkeypatch, value, seconds):
        monkeypatch.setenv("REPRO_SHARD_TIMEOUT_S", value)
        assert _worker_timeout_s() == seconds

    def test_bad_value_fails_before_any_worker_starts(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_TIMEOUT_S", "nan")
        monkeypatch.setattr(
            ShardCoordinator, "_spawn", lambda self: pytest.fail("workers started")
        )
        config = fig9_configs("tiny", schemes=("DCQCN",), seed=1)["DCQCN"]
        with pytest.raises(ShardError, match="REPRO_SHARD_TIMEOUT_S"):
            run_sharded_experiment(replace(config, shards=2))
