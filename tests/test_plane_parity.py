"""The compiled forwarding plane against the Python one.

Each scenario is built twice, once on each plane (the simulator selects
it), and driven identically.  The planes must agree on every delivery and,
after every step, on the events they posted (sequence counter, pending
count, next firing time, events fired) and on the state they keep: the
shared buffer, the switch counters and PFC flags, every port's registers
and meters.  Each scenario also checks that it exercised what it is named
after, so a parity pass cannot come from a scenario that does nothing.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planes import PLANES
from repro.sim import units
from repro.sim.buffer import PfcPolicy
from repro.sim.disciplines import fifo_for
from repro.sim.flow import Flow
from repro.sim.host import Host, HostConfig
from repro.sim.node import Node
from repro.sim.packet import FlowKey, Packet, PacketKind, PFC_FRAME_SIZE
from repro.sim.port import connect
from repro.sim.switch import EcnConfig, Switch

pytestmark = pytest.mark.skipif(
    any(param.values[0] is None for param in PLANES), reason="compiled plane unavailable"
)

PURE, COMPILED = (param.values[0] for param in PLANES)
SINKS = 3


class Sink(Node):
    """Records every delivery; PFC frames pause its port as on any node."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def handle_packet(self, packet, iface_index):
        if packet.kind is PacketKind.PFC:
            self.received.append((self.sim.now, "pfc", packet.pause))
            super().handle_packet(packet, iface_index)
            return
        self.received.append(
            (self.sim.now, packet.kind.value, packet.flow_id, packet.seq,
             packet.ecn_marked, packet.hops, iface_index)
        )


def data(src, dst, flow_id, seq=0, size=1_000):
    return Packet(
        kind=PacketKind.DATA,
        flow_id=flow_id,
        key=FlowKey(src=src, dst=dst, src_port=flow_id, dst_port=4791),
        size=size,
        seq=seq,
        flow_size=size,
    )


def ack(src, dst, flow_id):
    return Packet(
        kind=PacketKind.ACK,
        flow_id=flow_id,
        key=FlowKey(src=src, dst=dst, src_port=4791, dst_port=flow_id),
        size=64,
    )


def pfc(pause):
    return Packet(
        kind=PacketKind.PFC,
        flow_id=0,
        key=FlowKey(src=-1, dst=-1, src_port=0, dst_port=0),
        size=PFC_FRAME_SIZE,
        pause=pause,
    )


class World:
    """One switch with ``SINKS`` sink nodes, on one plane."""

    def __init__(self, sim_class, buffer_bytes=20_000, ecn=True, fraction=0.11):
        self.sim = sim = sim_class(seed=7)
        self.switch = Switch(
            sim,
            "sw",
            buffer_bytes=buffer_bytes,
            discipline_factory=lambda iface: fifo_for(iface.tx),
            pfc=PfcPolicy(enabled=True, threshold_fraction=fraction),
            ecn=EcnConfig(enabled=ecn, kmin=2_000, kmax=6_000, pmax=0.5),
        )
        self.sinks = []
        for i in range(SINKS):
            node = Sink(sim, f"n{i}")
            connect(node, self.switch, rate_bps=units.gbps(10), delay_ns=500)
            node.interfaces[0].tx.discipline = fifo_for(node.interfaces[0].tx)
            self.sinks.append(node)
        self.switch.set_routes(
            {i: [self.switch.interface_to(self.sinks[i]).index] for i in range(SINKS)}
        )

    def ports(self):
        return [iface.tx for iface in self.switch.interfaces] + [
            node.interfaces[0].tx for node in self.sinks
        ]

    def snapshot(self):
        sim, switch = self.sim, self.switch
        buffer = switch.buffer
        stats = buffer.stats
        return {
            "engine": (sim.now, sim._seq, sim.pending_events(), sim.next_event_time(),
                       sim.events_processed),
            "buffer": (buffer.used, dict(buffer.per_ingress), stats.dropped_packets,
                       stats.dropped_bytes, stats.max_occupancy, stats.admitted_packets,
                       stats.admitted_bytes),
            "switch": (dict(switch.counters.values), dict(switch._pfc_sent)),
            "ports": [
                (port.busy, port._busy_until, port._wake_at, port.tx_data_bytes_total,
                 port.bytes.data_bytes, port.bytes.data_packets, port.bytes.control_bytes,
                 port.bytes.control_packets, port.pfc_meter.paused,
                 port.pfc_meter.pause_events, len(port.control_queue),
                 port.discipline.backlog_bytes(), port.discipline.backlog_packets())
                for port in self.ports()
            ],
            "received": [list(node.received) for node in self.sinks],
        }


def step(world, op):
    kind = op[0]
    if kind == "data":  # a data packet arrives at the switch from sink `src`
        _, src, dst, flow_id, size = op
        world.switch.handle_packet(data(src, dst, flow_id, size=size), src)
    elif kind == "send":  # sink `src` queues a data packet toward the switch
        _, src, dst, flow_id, size = op
        port = world.sinks[src].interfaces[0].tx
        port.discipline.enqueue(data(src, dst, flow_id, size=size), 0)
        port.notify()
    elif kind == "ack":
        _, src, dst, flow_id = op
        world.switch.handle_packet(ack(src, dst, flow_id), src)
    elif kind == "pfc":  # sink `iface` pauses or resumes the switch's port
        _, iface, pause = op
        world.switch.handle_packet(pfc(pause), iface)
    elif kind == "run":
        world.sim.run(until=world.sim.now + op[1])
    else:  # pragma: no cover - the strategy only draws the kinds above
        raise ValueError(kind)


def run_both(ops, **world_args):
    worlds = [World(PURE, **world_args), World(COMPILED, **world_args)]
    for op in ops:
        for world in worlds:
            step(world, op)
        pure, compiled = (world.snapshot() for world in worlds)
        assert compiled == pure, op
    for world in worlds:
        world.sim.run_until_idle()
    pure, compiled = (world.snapshot() for world in worlds)
    assert compiled == pure
    return pure


hosts = st.integers(min_value=0, max_value=SINKS - 1)
flows = st.integers(min_value=1, max_value=6)
sizes = st.sampled_from([64, 500, 1_000, 1_500, 4_000])
operations = st.one_of(
    st.tuples(st.just("data"), hosts, hosts, flows, sizes),
    st.tuples(st.just("send"), hosts, hosts, flows, sizes),
    st.tuples(st.just("ack"), hosts, hosts, flows),
    st.tuples(st.just("pfc"), hosts, st.booleans()),
    st.tuples(st.just("run"), st.integers(min_value=0, max_value=3_000)),
)


@given(
    ops=st.lists(operations, max_size=60),
    buffer_bytes=st.sampled_from([4_000, 12_000, 200_000]),
    ecn=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_random_arrivals_and_dequeues_post_the_same_events(ops, buffer_bytes, ecn):
    run_both(ops, buffer_bytes=buffer_bytes, ecn=ecn)


def burst(src, dst, count, size=1_000, flow_id=1):
    return [("data", src, dst, flow_id, size)] * count


def test_pfc_hysteresis():
    # Ingress 0 fills the buffer toward a paused egress: a pause frame goes
    # upstream; once the egress drains, the resume waits for the ingress to
    # fall to resume_ratio of the threshold.
    ops = [("pfc", 1, True)] + burst(0, 1, 12) + [("run", 1_000), ("pfc", 1, False)]
    final = run_both(ops, buffer_bytes=100_000)
    upstream = [entry for entry in final["received"][0] if entry[1] == "pfc"]
    # Departures start at 1 000 ns, one per 800 ns.  The resume leaves with
    # the seventh (5 000 B <= 0.5 x 0.11 x 95 000 B), not with the third,
    # where the pause threshold alone would already be met again.
    assert upstream == [(551, "pfc", True), (5_800 + 51 + 500, "pfc", False)]
    counters = final["switch"][0]
    assert counters["pfc_pause_frames"] == counters["pfc_resume_frames"] == 1


def test_overflow_drops_are_counted():
    final = run_both([("pfc", 2, True)] + burst(0, 2, 10, size=1_500), buffer_bytes=6_000)
    counters = final["switch"][0]
    buffer = final["buffer"]
    assert counters["dropped_packets"] == buffer[2] == 6
    assert counters["dropped_bytes"] == buffer[3] == 9_000


@pytest.mark.parametrize("sim_class", PLANES)
def test_over_release_raises(sim_class):
    buffer = World(sim_class).switch.buffer
    buffer.admit(1_000, 0)
    buffer.admit(1_000, 1)
    with pytest.raises(ValueError, match="releasing 2000 bytes from ingress 0 but only 1000"):
        buffer.release(2_000, 0)
    with pytest.raises(ValueError, match="releasing 5000 bytes but only 2000 are in use"):
        buffer.release(5_000, 1)
    assert buffer.used == 2_000


def test_control_goes_before_queued_data():
    ops = burst(0, 1, 3) + [("ack", 0, 1, 9), ("run", 10_000)]
    final = run_both(ops)
    kinds = [entry[1] for entry in final["received"][1]]
    assert kinds == ["data", "ack", "data", "data"]


@pytest.mark.parametrize("sim_class", PLANES)
def test_a_replaced_peer_receive_sees_every_delivery(sim_class):
    world = World(sim_class)
    port = world.switch.interface_to(world.sinks[1]).tx
    seen = []
    deliver = port._peer_receive

    def tap(packet, iface_index):
        seen.append((world.sim.now, packet.flow_id))
        deliver(packet, iface_index)

    port._peer_receive = tap
    for op in burst(0, 1, 3) + [("ack", 2, 1, 4), ("run", 10_000)]:
        step(world, op)
    assert seen == [(entry[0], entry[2]) for entry in world.sinks[1].received]
    assert len(seen) == 4


@pytest.mark.parametrize("sim_class", PLANES)
def test_host_kick_skips_a_committed_port_with_an_armed_wake(sim_class):
    sim = sim_class(seed=3)
    switch = Switch(sim, "sw", buffer_bytes=100_000,
                    discipline_factory=lambda iface: fifo_for(iface.tx))
    host = Host(sim, "h0", host_id=0, config=HostConfig(), flow_registry={})
    peer = Host(sim, "h1", host_id=1, config=HostConfig(), flow_registry=host.flow_registry)
    for node in (host, peer):
        connect(node, switch, rate_bps=units.gbps(10), delay_ns=1_000)
    switch.set_routes({0: [0], 1: [1]})
    port = host.interfaces[0].tx
    host.start_flow(Flow(src=0, dst=1, size=20_000, start_ns=0))
    assert port.busy and port._wake_at == port._busy_until > sim.now
    kicks = []
    port.kick = lambda: kicks.append(sim.now)
    host.kick()
    assert kicks == []
    port._wake_at = -1
    host.kick()
    assert kicks == [sim.now]
