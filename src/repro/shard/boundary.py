"""Boundary channels: cut links as latency-preserving cross-process pipes.

Every cut link of a partition is replaced, on the transmitting side, by a
:class:`BoundaryChannel`.  The egress port still serializes the packet at the
link rate (so contention, pausing and byte meters behave exactly as in a
single-process run); only the *delivery* changes: instead of posting a local
``peer.receive`` event in the future, the port hands the packet to the
channel **at commit time** (the fused engine commits a transmission at
dequeue), which serializes it to a plain-tuple wire format and buffers it in
the shard's outbox.  At the next conservative barrier the coordinator routes
every buffered packet to the shard owning the destination node, where it is
re-injected as a ``node.receive`` event at the original arrival time
``commit + serialization + delay_ns``.

The adapter plugs into :class:`~repro.sim.port.EgressPort` without touching
its hot path: the port's ``_post`` alias is wrapped so the delivery post the
port issues at commit runs the capture *inline* (no engine event), with the
post's own delay forwarded, while every other post goes through unchanged.
Running inside the kick event means ``sim.now`` and the current ancestry
registers are exactly the origin chain the single-process peer-delivery post
would carry.

Wire format: packets cross the process boundary as tuples of primitives (no
pickled simulator objects), and each worker interns :class:`FlowKey` objects
so that, like the sender side, all packets of one flow share a single key.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.sim.packet import FlowKey, IntHop, Packet, PacketKind

from .partition import PartitionSpec

#: A captured boundary transmission, ready for the coordinator:
#: (dest_shard, arrival_ns, ancestry, dest_node, dest_iface, wire_packet),
#: where ``ancestry`` is the 4-tuple of scheduling origins the single-process
#: peer-delivery post would carry: (departure, serialization start, and two
#: further upstream scheduling instants) — the engine's ordering key.
Export = Tuple[int, int, tuple, str, int, tuple]


def packet_to_wire(packet: Packet) -> tuple:
    """Flatten a packet into a tuple of primitives (order matters)."""
    key = packet.key
    return (
        packet.kind.value,
        packet.flow_id,
        (key.src, key.dst, key.src_port, key.dst_port, key.protocol),
        packet.size,
        packet.seq,
        packet.ack_seq,
        packet.flow_size,
        packet.created_ns,
        packet.ecn_capable,
        packet.ecn_marked,
        packet.ecn_echo,
        packet.int_enabled,
        tuple(
            (hop.node, hop.timestamp_ns, hop.tx_bytes, hop.queue_bytes, hop.rate_bps)
            for hop in packet.int_stack
        ),
        packet.first_of_flow,
        packet.last_of_flow,
        packet.pause,
        packet.pause_class,
        packet.bloom_bits,
        packet.hops,
        packet.cur_ingress,
        packet.vfid,
        packet.vfid_space,
    )


def packet_from_wire(
    wire: tuple, key_cache: Dict[tuple, FlowKey]
) -> Packet:
    """Rebuild a packet from its wire tuple, interning the flow key."""
    key_tuple = wire[2]
    key = key_cache.get(key_tuple)
    if key is None:
        key = FlowKey(*key_tuple)
        key_cache[key_tuple] = key
    return Packet(
        kind=PacketKind(wire[0]),
        flow_id=wire[1],
        key=key,
        size=wire[3],
        seq=wire[4],
        ack_seq=wire[5],
        flow_size=wire[6],
        created_ns=wire[7],
        ecn_capable=wire[8],
        ecn_marked=wire[9],
        ecn_echo=wire[10],
        int_enabled=wire[11],
        int_stack=[IntHop(*hop) for hop in wire[12]],
        first_of_flow=wire[13],
        last_of_flow=wire[14],
        pause=wire[15],
        pause_class=wire[16],
        bloom_bits=wire[17],
        hops=wire[18],
        cur_ingress=wire[19],
        vfid=wire[20],
        vfid_space=wire[21],
    )


class BoundaryChannel:
    """Transmit-side adapter for one cut egress port."""

    __slots__ = ("sim", "delay_ns", "dest_shard", "dest_node", "dest_iface", "outbox")

    def __init__(
        self,
        sim,
        delay_ns: int,
        dest_shard: int,
        dest_node: str,
        dest_iface: int,
        outbox: List[Export],
    ) -> None:
        self.sim = sim
        self.delay_ns = delay_ns
        self.dest_shard = dest_shard
        self.dest_node = dest_node
        self.dest_iface = dest_iface
        self.outbox = outbox

    def receive(self, delay_ns: int, packet: Packet, iface_index: int) -> None:
        """Capture one transmitted packet (called at its commit instant).

        Runs inline during the port's kick event (the fused engine commits a
        transmission — meters, hooks and the delivery post — at dequeue
        time), so ``sim.now`` is the serialization start and ``delay_ns`` is
        the delivery post's own delay (serialization + propagation): the
        arrival is ``now + delay_ns``, and ``(now, cur ancestry)`` is exactly
        the origin chain the single-process peer-delivery post would carry.
        """
        sim = self.sim
        now = sim.now
        self.outbox.append(
            (
                self.dest_shard,
                now + delay_ns,
                (now, sim._cur_origin, sim._cur_parent, sim._cur_parent2),
                self.dest_node,
                self.dest_iface,
                packet_to_wire(packet),
            )
        )


def attach_boundaries(
    sim, topo, spec: PartitionSpec, shard_id: int
) -> Tuple[List[Export], int]:
    """Rewire every local cut egress port through a :class:`BoundaryChannel`.

    Returns the shared outbox list and the number of ports rewired.  Iterates
    actual interfaces (not the link records) so parallel links between the
    same node pair are each handled.
    """
    outbox: List[Export] = []
    shard_of = spec.shard_of
    rewired = 0
    nodes = list(topo.hosts.values()) + list(topo.switches.values())
    for node in nodes:
        if shard_of[node.name] != shard_id:
            continue
        for iface in node.interfaces:
            peer = iface.tx.peer_node
            if peer is None or shard_of[peer.name] == shard_id:
                continue
            port = iface.tx
            channel = BoundaryChannel(
                sim,
                delay_ns=port.delay_ns,
                dest_shard=shard_of[peer.name],
                dest_node=peer.name,
                dest_iface=port.peer_iface,
                outbox=outbox,
            )
            # The fused delivery post in EgressPort.kick runs the capture
            # inline (no engine event); its delay — serialization plus
            # propagation — is forwarded so the capture computes the true
            # arrival time.  Every other post passes through untouched.  One
            # shared bound method: the wrapper recognizes the capture by
            # identity.
            capture = channel.receive
            port._peer_receive = capture
            port._post = _make_boundary_post(sim.post, capture)
            rewired += 1
    return outbox, rewired


def _make_boundary_post(sim_post, capture) -> Callable:
    """A ``sim.post`` stand-in that short-circuits the delivery post."""

    def boundary_post(delay_ns, callback, *args):
        if callback is capture:
            capture(delay_ns, *args)
        else:
            sim_post(delay_ns, callback, *args)

    return boundary_post


class InjectionQueue:
    """Receive-side injector: schedules boundary packets into the local sim."""

    def __init__(self, sim, topo) -> None:
        self.sim = sim
        self._key_cache: Dict[tuple, FlowKey] = {}
        self._node_of: Dict[str, object] = {}
        for host in topo.hosts.values():
            self._node_of[host.name] = host
        for name, switch in topo.switches.items():
            self._node_of[name] = switch
        self.injected = 0

    def inject(self, batch) -> None:
        """Schedule one barrier's worth of deliveries.

        ``batch`` is already globally sorted by the coordinator — equal
        arrival times are scheduled in sorted order, so the engine's sequence
        numbers reproduce the same tie-break on every run.
        """
        sim = self.sim
        key_cache = self._key_cache
        node_of = self._node_of
        for arrival, ancestry, node_name, iface_index, wire in batch:
            packet = packet_from_wire(wire, key_cache)
            node = node_of[node_name]
            sim.schedule_boundary(arrival, ancestry, node.receive, packet, iface_index)
            self.injected += 1
