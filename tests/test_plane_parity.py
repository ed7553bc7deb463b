"""The compiled forwarding plane against the Python one.

Each scenario is built twice, once on each plane (the simulator selects
it), and driven identically.  The planes must agree on every delivery and,
after every step, on the engine's registers and the events they posted
(clock, sequence counter, pending count, next firing time, events fired) and on the state they keep: the shared buffer, the
switch counters and PFC flags, every port's registers and meters, and for
the host leg the senders' and receivers' flow state, the host counters,
the NIC's pacing wake-up and its DRR.  Each scenario
also checks that it exercised what it is named after, so a parity pass
cannot come from a scenario that does nothing.
"""

from __future__ import annotations

import dataclasses
import random
import sys
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planes import PLANES
from repro.congestion.dcqcn import DcqcnConfig, DcqcnControl, _DcqcnFlow
from repro.core.bloom import BloomFilterCodec
from repro.core.config import BfcConfig
from repro.core.nic import BfcNicScheduler
from repro.sim import units
from repro.sim.buffer import PfcPolicy
from repro.sim.disciplines import BLOCKED, DeficitRoundRobin, fifo_for
from repro.sim.flow import Flow
from repro.sim.host import (
    CongestionControl,
    Host,
    HostConfig,
    NicScheduler,
    WindowedCongestionControl,
)
from repro.sim.node import Node
from repro.sim.packet import DATA_HEADER_SIZE, FlowKey, Packet, PacketKind, PFC_FRAME_SIZE
from repro.sim.port import connect
from repro.sim.switch import EcnConfig, Switch

pytestmark = pytest.mark.skipif(
    any(param.values[0] is None for param in PLANES), reason="compiled plane unavailable"
)

PURE, COMPILED = (param.values[0] for param in PLANES)
plane = getattr(COMPILED, "compiled_plane", None)
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

    def __init__(self, sim_class, buffer_bytes=20_000, ecn=True, fraction=0.11,
                 switch_class=Switch):
        self.sim = sim = sim_class(seed=7)
        self.switch = switch_class(
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
            "switch": (dict(switch.counters.values), dict(switch._pfc_sent),
                       switch._rng.getstate()),
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


def test_the_python_faces_of_the_hop_agree():
    # The methods only Python calls on the compiled plane -- the dequeue
    # hook, can_admit, has_backlog -- against the Python plane's, on a
    # queue PFC holds back.
    worlds = [World(PURE, buffer_bytes=100_000), World(COMPILED, buffer_bytes=100_000)]
    answers = []
    for world in worlds:
        for op in [("pfc", 1, True)] + burst(0, 1, 6) + [("run", 1_000)]:
            step(world, op)
        port = world.switch.interface_to(world.sinks[1]).tx
        seen = [port.discipline.has_backlog(),
                [world.switch.buffer.can_admit(size) for size in (1, 94_000, 95_000, 96_000)]]
        packet = port.discipline.dequeue()
        port.on_data_dequeue(packet, port.iface_index)
        seen.append((packet.cur_ingress, world.switch.buffer.used))
        answers.append(seen)
    assert answers[1] == answers[0]
    assert answers[0][0] is True and answers[0][1] == [True, True, False, False]
    assert worlds[1].snapshot() == worlds[0].snapshot()


class SpyPfcSwitch(Switch):
    """Overrides both PFC checks, calling the base, and records each call."""

    def __init__(self, *args, **kwargs):
        self.checks = []
        super().__init__(*args, **kwargs)

    def _check_pfc_pause(self, ingress):
        self.checks.append(("pause", ingress))
        super()._check_pfc_pause(ingress)

    def _check_pfc_resume(self, ingress):
        self.checks.append(("resume", ingress))
        super()._check_pfc_resume(ingress)


def inject_admit(switch):
    """Replace the switch's ``_admit_data`` on the instance with a wrapper of
    the class's, as a test that injects drops does."""
    admit = type(switch)._admit_data.__get__(switch)
    switch._admit_data = lambda packet, in_index, out_iface: admit(packet, in_index, out_iface)


PFC_CYCLE = [("pfc", 1, True)] + burst(0, 1, 12) + [("run", 1_000), ("pfc", 1, False),
                                                     ("run", 20_000)]


def test_a_switch_that_overrides_a_pfc_check_keeps_the_python_hop():
    # The override writes _pfc_sent itself, so the hop must not keep the
    # flags anywhere else: the pause it sends is followed by its resume.
    worlds = [World(sim_class, buffer_bytes=100_000, switch_class=SpyPfcSwitch)
              for sim_class in (PURE, COMPILED)]
    assert worlds[1].switch._plane is None
    for world in worlds:
        inject_admit(world.switch)
        for op in PFC_CYCLE:
            step(world, op)
    pure, compiled = (world.snapshot() for world in worlds)
    assert compiled == pure
    assert worlds[1].switch.checks == worlds[0].switch.checks
    assert ("pause", 0) in worlds[0].switch.checks
    assert ("resume", 0) in worlds[0].switch.checks
    counters = pure["switch"][0]
    assert counters["pfc_pause_frames"] == counters["pfc_resume_frames"] == 1


def test_a_pfc_check_replaced_on_the_instance_is_followed_by_the_hop():
    # An instance whose replaced _admit_data runs the Python pause check
    # (which sets _pfc_sent in place): the compiled hop takes the flag from
    # the dict, so its resume check on dequeue finds the pause.
    worlds = [World(sim_class, buffer_bytes=100_000) for sim_class in (PURE, COMPILED)]
    for world in worlds:
        switch = world.switch
        switch._check_pfc_pause = Switch._check_pfc_pause.__get__(switch)
        inject_admit(switch)
        for op in PFC_CYCLE:
            step(world, op)
    pure, compiled = (world.snapshot() for world in worlds)
    assert compiled == pure
    counters = pure["switch"][0]
    assert counters["pfc_pause_frames"] == counters["pfc_resume_frames"] == 1
    assert pure["switch"][1] == {0: False}


def test_the_compiled_snapshots_refuse_writes():
    # control_queue and per_ingress are copies of C state on the compiled
    # plane: a write to one must raise, not vanish.
    world = World(COMPILED, buffer_bytes=100_000)
    for op in burst(0, 1, 3) + [("ack", 0, 1, 9)]:
        step(world, op)
    port = world.switch.interface_to(world.sinks[1]).tx
    buffer = world.switch.buffer
    before = world.snapshot()
    assert len(port.control_queue) == 1 and buffer.per_ingress[0] > 0
    with pytest.raises(AttributeError):
        port.control_queue.append(ack(0, 1, 10))
    with pytest.raises(TypeError):
        buffer.per_ingress[0] = 0
    assert world.snapshot() == before


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


def test_ecn_marks_draw_alike():
    # A paused egress fills past kmin and then past kmax: the marking
    # probability takes values in (0, 1) and 1, and each switch draws from
    # its random.Random only while it is positive.
    ops = [("pfc", 1, True)] + burst(0, 1, 10) + [("pfc", 1, False), ("run", 20_000)]
    final = run_both(ops, buffer_bytes=200_000)
    marks = [entry[4] for entry in final["received"][1]]
    counters = final["switch"][0]
    assert len(marks) == 10 and counters["ecn_marked"] == sum(marks)
    assert 0 < sum(marks) < 8  # packets 4-6 drew (p = 0.125..0.375), 7-10 marked
    assert marks[6:] == [True] * 4
    fresh = World(PURE).switch._rng.getstate()
    assert final["switch"][2] != fresh  # the draws moved the generator


def test_the_red_probability_between_kmin_and_kmax_is_the_python_one():
    # kmax - kmin = 2 B: a backlog of 2 001 B marks with p = 1/2, and a
    # probability one byte off would give 1/3.  One draw per world, forty
    # generators: the marks must fall alike on both planes.
    marks = []
    for seed in range(40):
        worlds = [World(PURE), World(COMPILED)]
        for world in worlds:
            world.switch.ecn = EcnConfig(enabled=True, kmin=2_000, kmax=2_002, pmax=1.0)
            world.switch._rng = random.Random(seed)
            for op in [("pfc", 1, True), ("data", 0, 1, 1, 1_000), ("data", 0, 1, 1, 1_001),
                       ("data", 0, 1, 1, 500), ("pfc", 1, False), ("run", 10_000)]:
                step(world, op)
        pure, compiled = (world.snapshot() for world in worlds)
        assert compiled == pure, seed
        marks.append(pure["switch"][0].get("ecn_marked", 0))
    assert 0 < sum(marks) < 40


class CountingPicks(Switch):
    """Replaces the ECMP pick and the ECN draw: both stay Python calls."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.picks, self.marks = [], []

    def _ecmp_pick(self, key):
        self.picks.append(key.dst)
        return super()._ecmp_pick(key)

    def _maybe_mark_ecn(self, packet, tx):
        self.marks.append(packet.flow_id)
        super()._maybe_mark_ecn(packet, tx)


@pytest.mark.parametrize("sim_class", PLANES)
def test_a_switch_that_replaces_the_pick_or_the_draw_keeps_it(sim_class):
    sim = sim_class(seed=7)
    switch = CountingPicks(sim, "sw", buffer_bytes=200_000,
                           discipline_factory=lambda iface: fifo_for(iface.tx),
                           ecn=EcnConfig(enabled=True, kmin=2_000, kmax=6_000, pmax=0.5))
    sinks = [Sink(sim, f"n{i}") for i in range(2)]
    for node in sinks:
        connect(node, switch, rate_bps=units.gbps(10), delay_ns=500)
    switch.set_routes({0: [0], 1: [1]})
    for flow_id in range(6):
        switch.handle_packet(data(0, 1, flow_id), 0)
    assert switch.picks == [1] * 6  # one pick per new key
    # The first packet leaves at once; the queue passes kmin before the fifth.
    assert switch.marks == [4, 5]
    calls = []
    switch._ecmp_pick = lambda key: calls.append(key) or 0
    switch.handle_packet(data(1, 0, 9), 1)
    assert len(calls) == 1


def ecmp_world(sim_class, routes, salt, ports):
    sim = sim_class(seed=1)
    switch = Switch(sim, "sw", buffer_bytes=0,
                    discipline_factory=lambda iface: fifo_for(iface.tx))
    sinks = [Sink(sim, f"n{i}") for i in range(ports)]
    for node in sinks:
        connect(node, switch, rate_bps=units.gbps(10), delay_ns=500)
    switch._name_salt = salt
    switch.set_routes(routes)
    return sim, switch, sinks


flow_keys = st.builds(
    FlowKey,
    src=st.integers(-2**40, 2**40),
    dst=st.integers(0, 3),
    src_port=st.integers(0, 2**16),
    dst_port=st.integers(0, 2**16),
    protocol=st.sampled_from([6, 17]),
)


@given(
    routes=st.fixed_dictionaries(
        {dst: st.lists(st.integers(0, 4), min_size=1, max_size=7) for dst in range(4)}
    ),
    salt=st.integers(0, 2**32 - 1),
    keys=st.lists(flow_keys, min_size=1, max_size=12),
)
@settings(max_examples=100, deadline=None)
def test_the_compiled_ecmp_pick_is_the_python_one(routes, salt, keys):
    sim, switch, sinks = ecmp_world(COMPILED, routes, salt, ports=5)
    expected = []
    for key in keys:
        expected.append(Switch._ecmp_pick(switch, key))
        switch.handle_packet(Packet(kind=PacketKind.ACK, flow_id=1, key=key, size=64), 0)
        sim.run_until_idle()
    delivered = sorted((entry[0], index) for index, node in enumerate(sinks)
                       for entry in node.received)
    assert [index for _, index in delivered] == expected


def test_a_missing_route_raises_on_both_planes():
    for sim_class in (PURE, COMPILED):
        _, switch, _ = ecmp_world(sim_class, {0: [0]}, 5, ports=1)
        with pytest.raises(KeyError, match="sw: no route to host 3"):
            switch.handle_packet(data(0, 3, 1), 0)


# -- The host NIC ----------------------------------------------------------------
#
# Two hosts, each wired to a sink that records every frame its NIC puts on the
# wire.  Packets are handed to the hosts' handle_packet as if the network had
# delivered them: DATA of flows the other host started (or of flows no host
# started), ACK/NACK/CNP of the host's own flows, Bloom pause frames.

CODEC_CONFIG = BfcConfig(num_vfids=64, bloom_filter_bytes=8)
CODEC = BloomFilterCodec(*CODEC_CONFIG.bloom_geometry)
#: Flows no host started: flow id -> size.
STRANGERS = {101: 1_000, 102: 3_000, 103: 5_500}

class AckLoggingControl(CongestionControl):
    """Overrides ``on_ack`` alone: its other hooks are CongestionControl's."""

    def __init__(self, line_rate_bps):
        super().__init__(line_rate_bps)
        self.acks = []

    def on_ack(self, fstate, packet, now_ns):
        self.acks.append((fstate.flow.flow_id, packet.ack_seq, now_ns))


CC_FACTORIES = {
    "line-rate": None,
    "dcqcn": lambda rate: DcqcnControl(rate),
    "windowed": lambda rate: WindowedCongestionControl(rate, window_bytes=4_000),
    "ack-logging": AckLoggingControl,
}


class WireSink(Node):
    """Records every field of every frame it receives."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def handle_packet(self, packet, iface_index):
        key = packet.key
        self.received.append(
            (self.sim.now, packet.kind.value, packet.flow_id,
             (key.src, key.dst, key.src_port, key.dst_port), packet.size, packet.seq,
             packet.ack_seq, packet.flow_size, packet.created_ns, packet.is_control,
             packet.ecn_capable, packet.ecn_marked, packet.ecn_echo, packet.int_enabled,
             len(packet.int_stack), packet.first_of_flow, packet.last_of_flow,
             packet.pause, packet.hops, packet.cur_ingress, packet.vfid, packet.entry)
        )


class HostWorld:
    """Two hosts and their sinks, on one plane."""

    def __init__(self, sim_class, cc, config, bfc, host_class=Host, nic_class=None):
        self.sim = sim = sim_class(seed=7)
        self.registry = {}
        self.completed = []
        if bfc:
            nic_class = partial(BfcNicScheduler, config=CODEC_CONFIG, codec=CODEC)
        self.hosts, self.sinks, self.started = [], [], [[], []]
        for i in range(2):
            host = host_class(sim, f"h{i}", host_id=i, config=config,
                        cc_factory=CC_FACTORIES[cc], flow_registry=self.registry,
                        nic_class=nic_class)
            host.on_flow_complete = lambda flow, now: self.completed.append((flow.flow_id, now))
            sink = WireSink(sim, f"s{i}")
            connect(host, sink, rate_bps=units.gbps(10), delay_ns=500)
            self.hosts.append(host)
            self.sinks.append(sink)
        self.next_flow_id = 1

    def sent_flow(self, host, pick):
        """A flow ``host`` started, or an id it never used."""
        started = self.started[host]
        return started[pick % len(started)] if started else Flow(
            src=host, dst=1 - host, size=1_000, start_ns=0, flow_id=99)

    def data(self, host, pick, seq, ecn, int_enabled):
        """A data packet toward ``host``, of a flow the other host started or a stranger."""
        started = self.started[1 - host]
        if pick < len(started):
            flow_id, size = started[pick].flow_id, started[pick].size
        else:
            flow_id = 101 + pick % len(STRANGERS)
            size = STRANGERS[flow_id]
        packet = Packet(kind=PacketKind.DATA, flow_id=flow_id,
                        key=FlowKey(src=1 - host, dst=host, src_port=flow_id, dst_port=4791),
                        size=1_000 + DATA_HEADER_SIZE, seq=seq, flow_size=size,
                        ecn_marked=ecn, int_enabled=int_enabled)
        if int_enabled:
            packet.int_stack.append("hop")
        return packet

    def control(self, kind, host, pick, ack_seq=0):
        flow = self.sent_flow(host, pick)
        return Packet(kind=kind, flow_id=flow.flow_id,
                      key=FlowKey(src=1 - host, dst=host, src_port=4791, dst_port=flow.flow_id),
                      size=64, ack_seq=ack_seq)

    def snapshot(self):
        sim = self.sim
        state = {
            "engine": (sim.now, sim._seq, sim.pending_events(), sim.next_event_time(),
                       sim.events_processed),
            "flows": {fid: (f.first_tx_ns, f.finish_ns, f.bytes_delivered,
                            f.retransmitted_packets, f.num_packets)
                      for fid, f in self.registry.items()},
            "completed": list(self.completed),
        }
        for host, sink in zip(self.hosts, self.sinks):
            nic, port = host.nic, host._uplink_port
            drr = nic._drr
            active = drr.active_queues()
            event = nic._wakeup_event
            state[host.name] = {
                "senders": {fid: (f.next_seq, f.una, f.next_allowed_ns, f.paused,
                                  f.last_progress_ns, f.completed, list(f.retransmit_queue),
                                  f.vfid, f.rto_event and (f.rto_event.time, f.rto_event.cancelled),
                                  cc_state(f))
                            for fid, f in nic._flows.items()},
                "receivers": {fid: r if type(r) is int else
                              (r.expected_seq, r.bytes_received, r.last_cnp_ns, r.last_nack_seq,
                               r.completed, dict(r.out_of_order), r.num_packets, r.src)
                              for fid, r in host.receivers.items()},
                "counters": dict(host.counters.values),
                "nic": (nic._now, nic._wake_at, event and (event.time, event.cancelled)),
                "drr": (active, drr.unparked_queues(), drr.cursor, drr.current,
                        [drr.deficit(q) for q in active]),
                "host": (list(host._pending_control), host._needs_kick),
                "port": (port.busy, port._busy_until, port._wake_at, port.tx_data_bytes_total,
                         port.bytes.data_packets, port.bytes.control_packets,
                         len(port.control_queue)),
                "wire": list(sink.received),
            }
        return state


def cc_state(fstate):
    # The compiled DCQCN keeps a C DcqcnFlow with _DcqcnFlow's fields.
    return {name: tuple(getattr(value, field) for field in _DcqcnFlow.__slots__)
            for name, value in fstate.cc_state.items()}


def host_step(world, op):
    kind = op[0]
    if kind == "start":
        _, host, size = op
        flow = Flow(src=host, dst=1 - host, size=size, start_ns=world.sim.now,
                    flow_id=world.next_flow_id, src_port=world.next_flow_id)
        world.next_flow_id += 1
        world.started[host].append(flow)
        world.hosts[host].start_flow(flow)
    elif kind == "data":
        _, host, pick, seq, ecn, int_enabled = op
        world.hosts[host].handle_packet(world.data(host, pick, seq, ecn, int_enabled), 0)
    elif kind in ("ack", "nack"):
        _, host, pick, ack_seq = op
        packet_kind = PacketKind.ACK if kind == "ack" else PacketKind.NACK
        world.hosts[host].handle_packet(world.control(packet_kind, host, pick, ack_seq), 0)
    elif kind == "cnp":
        _, host, pick = op
        world.hosts[host].handle_packet(world.control(PacketKind.CNP, host, pick), 0)
    elif kind == "bloom":
        _, host, vfids = op
        frame = Packet(kind=PacketKind.BLOOM, flow_id=0, key=FlowKey(-2, -2, 0, 0),
                       size=CODEC.size_bytes + 18, bloom_bits=CODEC.encode(vfids))
        world.hosts[host].handle_packet(frame, 0)
    elif kind == "release":
        _, host, pick = op
        world.hosts[host].release_receiver_state(101 + pick % len(STRANGERS))
    elif kind == "run":
        world.sim.run(until=world.sim.now + op[1])
    else:  # pragma: no cover - the strategy only draws the kinds above
        raise ValueError(kind)


def run_hosts_both(ops, cc="line-rate", bfc=False, **config):
    config = HostConfig(**config)
    worlds = [HostWorld(PURE, cc, config, bfc), HostWorld(COMPILED, cc, config, bfc)]
    assert not plane.is_compiled_nic(worlds[0].hosts[0].nic)
    assert plane.is_compiled_nic(worlds[1].hosts[0].nic)
    for op in ops:
        for world in worlds:
            host_step(world, op)
        pure, compiled = (world.snapshot() for world in worlds)
        assert compiled == pure, op
    for world in worlds:
        world.sim.run(until=world.sim.now + 200_000)
    pure, compiled = (world.snapshot() for world in worlds)
    assert compiled == pure
    return pure


sides = st.integers(min_value=0, max_value=1)
picks = st.integers(min_value=0, max_value=5)
seqs = st.integers(min_value=0, max_value=8)
starts = st.tuples(st.just("start"), sides, st.sampled_from([500, 1_000, 2_500, 6_000, 9_000]))
datas = st.tuples(st.just("data"), sides, picks, seqs, st.booleans(), st.booleans())
acks = st.tuples(st.just("ack"), sides, picks, seqs)
runs = st.tuples(st.just("run"), st.integers(min_value=0, max_value=4_000))
# Starts, data, ACKs and runs are drawn twice as often as the rest: most
# host state changes need a flow, time passing and its feedback.
host_operations = st.one_of(
    starts, starts, datas, datas, acks, acks, runs, runs,
    st.tuples(st.just("nack"), sides, picks, seqs),
    st.tuples(st.just("cnp"), sides, picks),
    st.tuples(st.just("bloom"), sides, st.sets(st.integers(0, 63), max_size=6)),
    st.tuples(st.just("release"), sides, picks),
)


@given(
    ops=st.lists(host_operations, max_size=50),
    cc=st.sampled_from(sorted(CC_FACTORIES)),
    bfc=st.booleans(),
    window_cap=st.sampled_from([None, 3_000]),
    mark_first=st.booleans(),
    loss_recovery=st.sampled_from(["go-back-n", "selective-repeat"]),
    int_enabled=st.booleans(),
    rto_ns=st.sampled_from([0, 30_000]),
)
@settings(max_examples=300, deadline=None)
def test_random_host_traffic_keeps_both_nics_in_step(
    ops, cc, bfc, window_cap, mark_first, loss_recovery, int_enabled, rto_ns
):
    run_hosts_both(ops, cc=cc, bfc=bfc, window_cap_bytes=window_cap,
                   mark_first_packet=mark_first, loss_recovery=loss_recovery,
                   int_enabled=int_enabled, rto_ns=rto_ns)


def test_the_host_scenario_takes_every_fast_path():
    # Host 0 starts two flows; host 1 receives a stranger in order, with a
    # gap, a duplicate and an ECN mark; host 0 gets a NACK, ACKs (one
    # completing a flow), a Bloom frame that pauses a flow, and a CNP that
    # slows a DCQCN flow into pacing.
    vfid = FlowKey(src=0, dst=1, src_port=1, dst_port=0).vfid(CODEC_CONFIG.num_vfids)
    ops = [
        ("start", 0, 2_500), ("start", 0, 1_000), ("run", 5_000),
        ("data", 1, 4, 0, False, False), ("data", 1, 4, 2, False, False),
        ("data", 1, 4, 0, True, True), ("data", 1, 4, 1, False, False),
        ("data", 1, 4, 2, False, False),
        ("nack", 0, 0, 1), ("ack", 0, 1, 1), ("ack", 0, 0, 2), ("cnp", 0, 0),
        ("run", 3_000), ("bloom", 0, {vfid}), ("start", 0, 4_000), ("run", 6_000),
        ("bloom", 0, set()), ("run", 30_000),
        ("start", 0, 9_000), ("run", 500), ("cnp", 0, 3), ("run", 20_000),
    ]
    final = run_hosts_both(ops, cc="dcqcn", bfc=True, mark_first_packet=True)
    receiver, sender = final["h1"]["counters"], final["h0"]["counters"]
    assert receiver["data_packets_received"] == 5
    assert receiver["out_of_order_packets"] == receiver["nacks_sent"] == 1
    assert receiver["duplicate_packets"] == 1
    assert receiver["acks_sent"] == 4 and receiver["cnps_sent"] == 1
    assert receiver["flows_completed"] == 1
    assert sender["go_back_n_rewinds"] == 1 and sender["cnps_received"] == 2
    assert final["h0"]["nic"][2] is not None  # a pacing wake-up was armed
    assert sender["data_packets_sent"] > 7


#: Two flows from host 0, then ACKs for both.
ACK_OPS = [("start", 0, 6_000), ("start", 0, 2_500), ("run", 5_000),
           ("ack", 0, 0, 2), ("ack", 0, 1, 1), ("ack", 0, 0, 4), ("run", 20_000)]
#: The hooks CongestionControl leaves as no-ops (rate_bps: the line rate).
NO_OP_HOOKS = {getattr(CongestionControl, name).__code__: name
               for name in ("on_ack", "on_packet_sent", "rate_bps")}


def run_counting_no_ops(sim_class, cc, ops):
    """Drive one host world; count the Python entries into each no-op hook."""
    world = HostWorld(sim_class, cc, HostConfig(), bfc=False)
    entered = dict.fromkeys(NO_OP_HOOKS.values(), 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in NO_OP_HOOKS:
            entered[NO_OP_HOOKS[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        for op in ops:
            host_step(world, op)
    finally:
        sys.setprofile(None)
    return world, entered


@pytest.mark.parametrize("cc, skipped", [
    ("dcqcn", ["on_ack"]),
    ("windowed", ["on_ack", "on_packet_sent", "rate_bps"]),
    ("ack-logging", ["on_packet_sent", "rate_bps"]),
])
def test_the_compiled_nic_skips_the_hooks_a_module_inherits_as_no_ops(cc, skipped):
    pure, pure_entered = run_counting_no_ops(PURE, cc, ACK_OPS)
    compiled, compiled_entered = run_counting_no_ops(COMPILED, cc, ACK_OPS)
    assert compiled.snapshot() == pure.snapshot()
    for name in skipped:
        assert pure_entered[name] > 0 and compiled_entered[name] == 0, name
    if cc == "ack-logging":  # the override itself still runs on every ACK
        assert compiled.hosts[0].cc.acks == pure.hosts[0].cc.acks
        assert len(pure.hosts[0].cc.acks) == 3


def test_a_hook_assigned_on_the_instance_is_called():
    logs, snapshots = [], []
    for sim_class in (PURE, COMPILED):
        world = HostWorld(sim_class, "dcqcn", HostConfig(), bfc=False)
        log = []
        world.hosts[0].cc.on_ack = lambda fstate, packet, now_ns: log.append(
            (fstate.flow.flow_id, packet.ack_seq, now_ns))
        for op in ACK_OPS:
            host_step(world, op)
        logs.append(log)
        snapshots.append(world.snapshot())
    assert logs[1] == logs[0] and len(logs[0]) == 3
    assert snapshots[1] == snapshots[0]


#: Host 0 starts a flow; host 1 gets marked data of it (and of a stranger)
#: closer and farther apart than CNP_INTERVAL_NS; host 0 gets CNPs.
CNP_OPS = [
    ("start", 0, 9_000), ("data", 1, 0, 0, True, False), ("run", 20_000),
    ("data", 1, 0, 1, True, False), ("data", 1, 4, 0, True, False), ("run", 31_000),
    ("data", 1, 0, 2, True, False), ("data", 1, 4, 1, True, False), ("run", 100),
    ("data", 1, 0, 3, False, False), ("cnp", 0, 0), ("run", 2_000), ("cnp", 0, 0),
    ("cnp", 0, 5), ("run", 30_000),
]


def test_cnps_are_rate_limited_and_slow_the_sender_alike():
    final = run_hosts_both(CNP_OPS, cc="dcqcn")
    receiver, sender = final["h1"]["counters"], final["h0"]["counters"]
    # Flow 1: marks at 0 and 51 us send, the one at 20 us does not; the
    # stranger's first mark sends, its second (31 us later) does not.
    assert receiver["cnps_sent"] == 3
    cnps = [frame for frame in final["h1"]["wire"] if frame[1] == "cnp"]
    assert [frame[8] for frame in cnps] == [0, 20_000, 51_000]  # created_ns
    assert final["h1"]["receivers"][1][2] == 51_000  # last_cnp_ns
    assert sender["cnps_received"] == 3
    (state,) = final["h0"]["senders"][1][-1].values()
    assert state[0] < units.gbps(10)  # the rate fell


class CnpLoggingHost(Host):
    """Replaces both CNP methods: the compiled NIC calls them."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = []

    def _maybe_send_cnp(self, packet, rstate):
        self.log.append(("send", self.sim.now, packet.flow_id))
        super()._maybe_send_cnp(packet, rstate)

    def _handle_cnp(self, packet):
        self.log.append(("handle", self.sim.now, packet.flow_id))
        super()._handle_cnp(packet)


def test_a_host_or_module_that_replaces_a_cnp_or_rate_method_keeps_it():
    logs, snapshots = [], []
    for sim_class in (PURE, COMPILED):
        world = HostWorld(sim_class, "dcqcn", HostConfig(), bfc=False,
                          host_class=CnpLoggingHost)
        rates = []

        def slow_rate(fstate, rates=rates):
            rates.append(fstate.flow.flow_id)
            return units.gbps(1)

        world.hosts[0].cc.rate_bps = slow_rate
        for op in CNP_OPS:
            host_step(world, op)
        logs.append((world.hosts[0].log, world.hosts[1].log, rates))
        snapshots.append(world.snapshot())
    assert logs[1] == logs[0]
    assert len(logs[0][0]) == 3 and len(logs[0][1]) == 5 and logs[0][2]
    assert snapshots[1] == snapshots[0]


def test_the_python_faces_of_the_nic_agree():
    # has_work_at (the port's wake check, entered C to C on the compiled
    # plane) and the NIC's host, called from Python on both planes.
    answers, snapshots = [], []
    for sim_class in (PURE, COMPILED):
        world = HostWorld(sim_class, "dcqcn", HostConfig(), bfc=False)
        for op in [("start", 0, 9_000), ("run", 1_000), ("cnp", 0, 0), ("run", 100)]:
            host_step(world, op)
        host = world.hosts[0]
        now = world.sim.now
        answers.append(([host.nic.has_work_at(now + dt) for dt in (0, 1_000, 100_000)],
                        host.nic.host is host))
        snapshots.append(world.snapshot())
    assert answers[1] == answers[0]
    assert answers[0][1] and answers[0][0][-1] is True
    assert snapshots[1] == snapshots[0]


class FlowStateSpy(NicScheduler):
    """Overrides ``flow_state`` (and calls the Python one): the NIC stays
    Python on both planes, and the host's ACK and CNP paths go through it."""

    def __init__(self, host):
        super().__init__(host)
        self.lookups = []

    def flow_state(self, flow_id):
        self.lookups.append(flow_id)
        return super().flow_state(flow_id)


def test_a_nic_that_overrides_flow_state_keeps_the_python_nic():
    logs, snapshots = [], []
    for sim_class in (PURE, COMPILED):
        world = HostWorld(sim_class, "dcqcn", HostConfig(), bfc=False, nic_class=FlowStateSpy)
        assert not plane.is_compiled_nic(world.hosts[0].nic)
        for op in CNP_OPS + ACK_OPS:
            host_step(world, op)
        logs.append(list(world.hosts[0].nic.lookups))
        snapshots.append(world.snapshot())
    assert logs[1] == logs[0] and logs[0]
    assert snapshots[1] == snapshots[0]


#: Each host attribute the compiled NIC binds, with a fresh value of it.  The
#: counts Host makes through its ``_cv`` alias stay with the first counters.
NIC_SETTINGS = {
    "config": lambda host: dataclasses.replace(host.config, mark_first_packet=True),
    "cc": lambda host: CC_FACTORIES["windowed"](host._uplink_rate),
    "receivers": lambda host: dict(host.receivers),
    "counters": lambda host: type(host.counters)(),
    "_cv": lambda host: host.counters.values,
    "_pending_control": lambda host: [],
    "_selective": lambda host: True,
    "_no_window": lambda host: False,
    "_uplink_port": lambda host: host._uplink_port,
    "_uplink_rate": lambda host: host._uplink_rate / 2,
}


@pytest.mark.parametrize("name", sorted(NIC_SETTINGS))
def test_a_host_setting_assigned_after_binding_is_followed(name):
    # Half the traffic runs with the setting as the host built it, the rest
    # after it was assigned a new value: both planes follow the assignment.
    half = len(CNP_OPS) // 2
    snapshots = []
    for sim_class in (PURE, COMPILED):
        world = HostWorld(sim_class, "dcqcn", HostConfig(), bfc=False)
        for op in ACK_OPS + CNP_OPS[:half]:
            host_step(world, op)
        for host in world.hosts:
            setattr(host, name, NIC_SETTINGS[name](host))
        for op in CNP_OPS[half:] + [("start", 0, 6_000), ("run", 40_000)]:
            host_step(world, op)
        snapshots.append(world.snapshot())
    assert snapshots[1] == snapshots[0]


def increase_logging(base):
    """A subclass of ``base`` whose rate-increase step logs its stage."""

    class IncreaseLogging(base):
        def _apply_increase(self, state):
            self.log.append((state.bc_events_applied, state.timer_events_applied))
            super()._apply_increase(state)

    return IncreaseLogging


def test_a_twin_subclass_that_overrides_a_step_keeps_the_python_rate_machine():
    # The override is a step the C base inlines, not a method the NIC calls.
    logs, snapshots = [], []
    for sim_class, base in ((PURE, DcqcnControl), (COMPILED, plane.DcqcnControl)):
        world = HostWorld(sim_class, "dcqcn", HostConfig(), bfc=False)
        cc = increase_logging(base)(units.gbps(10), DcqcnConfig(increase_timer_ns=1_000))
        cc.log = []
        world.hosts[0].cc = cc
        for op in CNP_OPS:
            host_step(world, op)
        world.sim.run(until=world.sim.now + 200_000)
        logs.append(cc.log)
        snapshots.append(world.snapshot())
        assert type(world.hosts[0].nic._flows[1].cc_state["dcqcn"]) is _DcqcnFlow
    assert logs[1] == logs[0] and logs[0]
    assert snapshots[1] == snapshots[0]


# ---------------------------------------------------------------------------
# The BFC leg: one switch's egress disciplines sharing its flow table
# ---------------------------------------------------------------------------

#: The four BFC schemes that run compiled, by the knobs that tell them apart.
BFC_KNOBS = {
    "BFC": {},
    "BFC-VFID": {"static_queue_assignment": True},
    "BFC-HighPriorityQ": {"use_high_priority_queue": False},
    "BFC-BufferOpt": {"limit_resume_rate": False},
}
#: One egress port per rate: Th(1) is 375 B at 1 Gb/s, so pauses are common.
BFC_RATES = (units.gbps(1), units.gbps(10))
BFC_FLOWS = 8
#: A VFID an enqueue may force onto its packet: flows and ingresses pile up
#: on one bucket, fill it and the overflow cache, and collide in the table.
FORCED_VFID = 5


class LoggingAgent:
    """Wraps a BfcAgent's pause_flow / resume_flow to log every call."""

    def __init__(self, agent):
        self.calls = []
        self.agent = agent
        pause, resume = agent.pause_flow, agent.resume_flow

        def pause_flow(vfid, ingress):
            new = pause(vfid, ingress)
            self.calls.append(("pause", vfid, ingress, new))
            return new

        def resume_flow(vfid, ingress):
            was = resume(vfid, ingress)
            self.calls.append(("resume", vfid, ingress, was))
            return was

        agent.pause_flow, agent.resume_flow = pause_flow, resume_flow


class BfcWorld:
    def __init__(self, sim_class, knobs):
        from repro.core.switchlogic import BfcAgent

        self.sim = sim_class(seed=3)
        self.config = BfcConfig(
            num_physical_queues=2, num_vfids=64, table_bucket_size=1,
            overflow_cache_entries=1, hop_rtt_ns=2_000, **knobs,
        )
        self.agent = BfcAgent(self.sim, self.config)
        self.log = LoggingAgent(self.agent)
        self.ports = [
            self.agent.make_discipline(egress, rate, 500, rng=random.Random(egress))
            for egress, rate in enumerate(BFC_RATES)
        ]
        self.keys = [FlowKey(src=f, dst=9, src_port=100 + f, dst_port=4791) for f in range(BFC_FLOWS)]
        self.made = 0

    def packet(self, flow, size, first, forced):
        self.made += 1
        packet = Packet(
            kind=PacketKind.DATA, flow_id=flow, key=self.keys[flow], size=size,
            seq=self.made, first_of_flow=first,
        )
        if forced:
            packet.vfid, packet.vfid_space = FORCED_VFID, self.config.num_vfids
        return packet


def packet_tag(packet):
    entry = packet.entry
    return (
        packet.flow_id, packet.seq, packet.vfid, packet.vfid_space,
        None if entry is None else entry.identity(),
    )


def bfc_step(world, op):
    """Apply one op; what it returns must match across planes."""
    port = world.ports[op[1]]
    if op[0] == "enq":
        _, _, ingress, flow, size, first, forced = op
        return port.enqueue(world.packet(flow, size, first, forced), ingress)
    if op[0] == "pop":
        packet = port.dequeue()
        return None if packet is None else packet_tag(packet)
    if op[0] == "filter":
        vfids = [world.keys[flow].vfid(world.config.num_vfids) for flow in sorted(op[2])]
        if op[3]:
            vfids.append(FORCED_VFID)
        port.apply_downstream_filter(world.agent.codec.encode(vfids))
        return port.scheduler.downstream_filter
    if op[0] == "refilter":
        # The next hop's periodic re-broadcast: equal bytes, a new object.
        current = port.scheduler.downstream_filter
        port.apply_downstream_filter(None if current is None else bytes(bytearray(current)))
        return port.scheduler.eligible_count
    if op[0] == "clear":
        port.apply_downstream_filter(None)
        return port.scheduler.eligible_count
    resumed = port.collect_resumes()  # "collect": what the agent's tick does
    for vfid, ingress in resumed:
        world.agent.resume_flow(vfid, ingress)
    return resumed


def key_tag(key):
    return None if key is None else (key.src, key.dst, key.src_port, key.dst_port)


def bfc_state(world):
    table = world.agent.flow_table
    state = {
        "entries": sorted(
            (e.vfid, e.ingress, e.egress, e.queue, e.packets, e.bytes, e.paused_upstream,
             e.resume_pending, e.in_overflow_cache, key_tag(e.current_key))
            for e in table.entries()
        ),
        "buckets": (table.bucket_counts(), table._cached),
        "table_stats": dataclasses.astuple(table.stats),
        "calls": list(world.log.calls),
        "paused": sorted((i, sorted(v)) for i, v in world.agent._paused_vfids.items()),
    }
    for port in world.ports:
        sched, pool, drr = port.scheduler, port.pool, port.scheduler._drr
        qids = list(range(world.config.num_physical_queues)) + [-2, -1]
        active = drr.active_queues()
        state[port.egress_index] = {
            "queues": [[packet_tag(p) for p in sched.queued(q)] for q in qids],
            "bytes": [sched.queue_bytes(q) for q in qids],
            "totals": (sched.total_bytes, sched.total_packets, port.backlog_bytes(),
                       port.has_backlog()),
            "eligible": sched.eligible_count,
            "ready": list(sched._ready),
            "drr": (active, drr.unparked_queues(), drr.cursor, drr.current,
                    [drr.deficit(q) for q in active]),
            "resumes": (port.pending_resume_lists(), port.pending_resumes),
            "pool": (list(pool._free), list(pool._assigned_flows), pool.occupied_queues(),
                     dataclasses.astuple(pool.stats)),
            "stats": dataclasses.astuple(port.stats),
        }
    return state


def run_bfc_both(ops, knobs):
    worlds = [BfcWorld(sim_class, knobs) for sim_class in (PURE, COMPILED)]
    assert not isinstance(worlds[0].ports[0], plane.BfcEgressDiscipline)
    assert all(isinstance(p, plane.BfcEgressDiscipline) for p in worlds[1].ports)
    for index, op in enumerate(ops):
        seen = [bfc_step(world, op) for world in worlds]
        assert seen[0] == seen[1], (index, op)
        assert bfc_state(worlds[0]) == bfc_state(worlds[1]), (index, op)
    return worlds


bfc_enqueue = st.tuples(
    st.just("enq"),
    st.integers(0, len(BFC_RATES) - 1),
    st.integers(0, 3),
    st.integers(0, BFC_FLOWS - 1),
    st.sampled_from([64, 500, 1_048]),
    st.booleans(),
    st.booleans(),
)
bfc_ops = st.lists(
    st.one_of(
        # Arrivals outnumber departures, so queues build and are shared.
        bfc_enqueue,
        bfc_enqueue,
        bfc_enqueue,
        st.tuples(st.just("pop"), st.integers(0, len(BFC_RATES) - 1)),
        st.tuples(
            st.just("filter"), st.integers(0, len(BFC_RATES) - 1),
            st.frozensets(st.integers(0, BFC_FLOWS - 1)), st.booleans(),
        ),
        st.tuples(st.sampled_from(["refilter", "clear", "collect"]),
                  st.integers(0, len(BFC_RATES) - 1)),
    ),
    min_size=20,
    max_size=120,
)


@pytest.mark.parametrize("scheme", sorted(BFC_KNOBS))
@given(ops=bfc_ops)
@settings(max_examples=80, deadline=None)
def test_random_bfc_traffic_keeps_both_switches_in_step(scheme, ops):
    run_bfc_both(ops, BFC_KNOBS[scheme])


def reblocks_a_head(ops, knobs):
    """Does a pop on the pure plane leave a queue whose new head is paused?"""
    world = BfcWorld(PURE, knobs)
    count = world.config.num_physical_queues
    for op in ops:
        sched = world.ports[op[1]].scheduler
        before = list(sched._ready)
        bfc_step(world, op)
        if op[0] == "pop":
            for index, (was, now) in enumerate(zip(before, sched._ready)):
                qid = index if index < count else index - count - 2
                if was >= 0 and now < 0 and sched.queued(qid):
                    return True
    return False


@pytest.mark.parametrize("scheme", sorted(BFC_KNOBS))
def test_the_bfc_scenario_takes_every_path(scheme):
    enq = [("enq", e, i, f, 1_048, f % 3 == 0, i == 2) for f in range(BFC_FLOWS)
           for e in range(len(BFC_RATES)) for i in range(4)]
    drain = [("pop", e) for e in range(len(BFC_RATES))] * 40
    # Three flows on two physical queues share one; the filter then pauses
    # the flow queued behind another, so a pop uncovers a paused head.
    shared = (
        [("enq", 0, 0, f, 1_048, False, False) for f in (0, 1, 2, 0, 1, 2)]
        + [("filter", 0, frozenset({2}), False)]
        + [("pop", 0)] * 6
        + [("clear", 0)]
    )
    assert reblocks_a_head(shared, BFC_KNOBS[scheme])
    ops = (
        shared
        + drain
        + enq[:40]
        + [("filter", 1, frozenset(range(4)), True), ("refilter", 1), ("pop", 1), ("pop", 0)]
        + enq[40:]
        + [("clear", 1)]
        + drain
        + [("collect", e) for e in range(len(BFC_RATES))] * 6
        + enq[:20] + drain
    )
    pure, _ = run_bfc_both(ops, BFC_KNOBS[scheme])
    stats = pure.agent.flow_table.stats
    assert stats.vfid_collisions and stats.bucket_overflows and stats.cache_overflows
    assert sum(port.stats.overflow_packets for port in pure.ports)
    assert sum(port.pool.stats.collisions for port in pure.ports)
    assert {call[0] for call in pure.log.calls} == {"pause", "resume"}
    assert all(not port.has_backlog() for port in pure.ports)
    assert pure.agent.flow_table.active_entries() == 0
    if scheme != "BFC-HighPriorityQ":
        assert sum(port.stats.high_priority_packets for port in pure.ports)


def test_a_bfc_discipline_that_overrides_a_hot_method_keeps_it():
    from repro.core.switchlogic import BfcAgent

    class CountingDiscipline(plane.BfcEgressDiscipline):
        dequeues = 0

        def dequeue(self):
            CountingDiscipline.dequeues += 1
            return super().dequeue()

    sim = COMPILED(seed=7)
    agent = BfcAgent(sim, BfcConfig(hop_rtt_ns=2_000))
    switch = Switch(
        sim, "sw", buffer_bytes=200_000,
        discipline_factory=lambda iface: CountingDiscipline(
            agent, iface.index, iface.rate_bps, iface.delay_ns
        ),
    )
    sinks = [Sink(sim, f"n{i}") for i in range(2)]
    for node in sinks:
        connect(node, switch, rate_bps=units.gbps(10), delay_ns=500)
        node.interfaces[0].tx.discipline = fifo_for(node.interfaces[0].tx)
    switch.set_routes({i: [switch.interface_to(sinks[i]).index] for i in range(2)})
    for seq in range(3):
        switch.handle_packet(data(0, 1, 1, seq=seq), 0)
    sim.run_until_idle()
    assert [delivery[3] for delivery in sinks[1].received] == [0, 1, 2]
    assert CountingDiscipline.dequeues >= 3  # the port called the override


# ---------------------------------------------------------------------------
# The DRR's record table under churn


def drr_view(drr, ids):
    """The round, cursor, turn and deficits, and which of ``ids`` are in the round."""
    active = drr.active_queues()
    return (
        active, drr.unparked_queues(), drr.cursor, drr.current,
        [drr.deficit(qid) for qid in active], [drr.is_active(qid) for qid in ids],
    )


def test_drr_churn_over_sparse_ids_keeps_both_planes_in_step():
    """Thousands of activations, removals and selects over large sparse queue ids.

    The ids are spread over 2**48 like a NIC's flow ids.  The round grows to
    hundreds of queues and drains back to a few, three times, so the
    compiled DRR's id-to-record map grows, shrinks and shifts probe runs
    back on removal, and each removal moves the last record into the hole.
    After every call both planes show the same round, cursor, turn and
    deficits, and agree on which ids are in the round.
    """
    rng = random.Random(44)
    ids = [rng.randrange(2**48) for _ in range(500)]
    heads = {qid: rng.choice([None, BLOCKED, 64, 700, 1_048, 2_500]) for qid in ids}
    pure, compiled = DeficitRoundRobin(quantum=1_048), plane.DeficitRoundRobin(quantum=1_048)
    peak = 0
    for phase in range(6):
        grow = phase % 2 == 0
        for _ in range(1_000):
            roll, active = rng.random(), pure.active_queues()
            if roll < (0.6 if grow else 0.2):
                qid = rng.choice(ids)
                pure.activate(qid)
                compiled.activate(qid)
            elif roll < 0.8:
                qid = rng.choice(active) if active and rng.random() < 0.9 else rng.choice(ids)
                pure.deactivate(qid)
                compiled.deactivate(qid)
            elif roll < 0.97:
                assert compiled.select(heads.get) == pure.select(heads.get)
            else:
                compiled.idle()
                pure.idle()
            assert drr_view(compiled, ids[:8]) == drr_view(pure, ids[:8])
            peak = max(peak, len(active))
    assert peak > 200 and len(pure.active_queues()) < 20
