"""Packet and flow-key types shared by every layer of the simulator.

These types are on the per-packet hot path of every experiment, so they are
hand-written ``__slots__`` classes rather than dataclasses: attribute access
skips the instance dict, construction is a plain sequence of slot stores, and
the quantities every layer asks for repeatedly (the flow-key hash, the VFID
digest, whether a packet is control traffic) are computed once and stored.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass
from typing import List, Optional


class PacketKind(enum.Enum):
    """The role a packet plays.

    ``DATA`` packets are subject to buffering, congestion control, ECN
    marking, PFC and BFC pausing.  All other kinds are *control* packets:
    they travel on a strict-priority, unpausable, undroppable class (but they
    still consume link serialization time).
    """

    DATA = "data"
    ACK = "ack"
    NACK = "nack"
    CNP = "cnp"           # DCQCN congestion notification packet
    PFC = "pfc"           # priority flow control pause/resume frame
    BLOOM = "bloom"       # BFC Bloom-filter pause frame


# Control frame sizes (bytes).  These follow typical Ethernet frame sizes:
# 64-byte minimum frames for ACK/NACK/CNP/PFC, and the configured Bloom
# filter size (plus a small header) for BFC pause frames.
ACK_SIZE = 64
NACK_SIZE = 64
CNP_SIZE = 64
PFC_FRAME_SIZE = 64
DATA_HEADER_SIZE = 48


class FlowKey:
    """The classic 5-tuple identifying a flow.

    In this simulator the source/destination are host identifiers rather than
    IP addresses; ports distinguish concurrent flows between the same pair of
    hosts.

    Immutable by convention (one key object is shared by every packet of a
    flow); the hash and the VFID digest are precomputed at construction.
    ``__hash__``/``__eq__`` reproduce exactly what the earlier frozen
    dataclass generated — the ECMP and SFQ hashes (and therefore recorded
    results) depend on it.
    """

    __slots__ = ("src", "dst", "src_port", "dst_port", "protocol", "_digest", "_hash", "_reversed")

    def __init__(
        self,
        src: int,
        dst: int,
        src_port: int,
        dst_port: int,
        protocol: int = 17,
    ) -> None:
        self.src = src
        self.dst = dst
        self.src_port = src_port
        self.dst_port = dst_port
        self.protocol = protocol
        # The VFID digest: CRC32 over the decimal-rendered tuple.  The byte
        # layout is frozen — it must keep matching the seed kernel so that
        # recorded experiments (and the golden-records fixture) stay stable
        # across kernel refactors.
        self._digest = zlib.crc32(
            b"%d|%d|%d|%d|%d" % (src, dst, src_port, dst_port, protocol)
        )
        self._hash = hash((src, dst, src_port, dst_port, protocol))
        self._reversed: Optional["FlowKey"] = None

    def vfid(self, space: int) -> int:
        """Hash this key into a virtual flow ID in ``[0, space)``.

        Every switch in the network uses the same function (as required by
        BFC so that pauses communicated upstream refer to the same VFID).
        """
        return self._digest % space

    def reversed(self) -> "FlowKey":
        """The key of the reverse direction (used for ACK routing)."""
        rev = self._reversed
        if rev is None:
            rev = FlowKey(
                src=self.dst,
                dst=self.src,
                src_port=self.dst_port,
                dst_port=self.src_port,
                protocol=self.protocol,
            )
            rev._reversed = self
            self._reversed = rev
        return rev

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not FlowKey:
            return NotImplemented
        return (
            self.src == other.src
            and self.dst == other.dst
            and self.src_port == other.src_port
            and self.dst_port == other.dst_port
            and self.protocol == other.protocol
        )

    def __repr__(self) -> str:
        return (
            f"FlowKey(src={self.src}, dst={self.dst}, src_port={self.src_port}, "
            f"dst_port={self.dst_port}, protocol={self.protocol})"
        )


@dataclass
class IntHop:
    """One hop's worth of in-band network telemetry (HPCC).

    Attributes mirror the INT fields HPCC relies on: the egress timestamp,
    the cumulative bytes transmitted by the egress port, the instantaneous
    queue length, and the port speed.
    """

    __slots__ = ("node", "timestamp_ns", "tx_bytes", "queue_bytes", "rate_bps")

    node: str
    timestamp_ns: int
    tx_bytes: int
    queue_bytes: int
    rate_bps: float


class Packet:
    """A simulated packet.

    ``size`` is the wire size in bytes (payload + header for DATA packets).
    ``seq`` is the packet index within its flow (0-based), used by the
    Go-Back-N receiver.  ``ack_seq`` is the cumulative acknowledgement carried
    by ACK/NACK packets (the next expected packet index).

    ``is_control`` is a plain stored flag (true for every kind except DATA),
    set from ``kind`` at construction so the forwarding hot paths never pay
    for an enum comparison.
    """

    __slots__ = (
        "kind",
        "is_control",
        "flow_id",
        "key",
        "size",
        "seq",
        "ack_seq",
        "flow_size",
        "created_ns",
        # Congestion signalling
        "ecn_capable",
        "ecn_marked",
        "ecn_echo",
        "int_enabled",
        "int_stack",
        # BFC
        "first_of_flow",
        "last_of_flow",
        # PFC / BLOOM payloads
        "pause",
        "pause_class",
        "bloom_bits",
        # Path bookkeeping
        "hops",
        "cur_ingress",
        "entry",
        "vfid",
        "vfid_space",
    )

    def __init__(
        self,
        kind: PacketKind,
        flow_id: int,
        key: FlowKey,
        size: int,
        seq: int = 0,
        ack_seq: int = 0,
        flow_size: int = 0,
        created_ns: int = 0,
        ecn_capable: bool = True,
        ecn_marked: bool = False,
        ecn_echo: bool = False,
        int_enabled: bool = False,
        int_stack: Optional[List[IntHop]] = None,
        first_of_flow: bool = False,
        last_of_flow: bool = False,
        pause: bool = False,
        pause_class: int = 0,
        bloom_bits: Optional[bytes] = None,
        hops: int = 0,
        cur_ingress: int = -1,
        vfid: int = -1,
        vfid_space: int = 0,
    ) -> None:
        self.kind = kind
        self.is_control = kind is not PacketKind.DATA
        self.flow_id = flow_id
        self.key = key
        self.size = size
        self.seq = seq
        self.ack_seq = ack_seq
        self.flow_size = flow_size
        self.created_ns = created_ns
        self.ecn_capable = ecn_capable
        self.ecn_marked = ecn_marked
        self.ecn_echo = ecn_echo
        self.int_enabled = int_enabled
        self.int_stack = [] if int_stack is None else int_stack
        self.first_of_flow = first_of_flow
        self.last_of_flow = last_of_flow
        self.pause = pause
        self.pause_class = pause_class
        self.bloom_bits = bloom_bits
        # Path bookkeeping: ``cur_ingress`` is transient per-switch state (the
        # ingress interface index the packet used to enter the switch
        # currently buffering it; ns-3 tags play this role), and so is
        # ``entry`` (the flow-table entry a BFC egress discipline filed the
        # packet under; ``None`` outside that discipline's queues).  ``vfid``
        # is the cached virtual-flow ID, valid only when ``vfid_space``
        # matches the asker's VFID space (see repro.core.vfid.packet_vfid).
        self.hops = hops
        self.cur_ingress = cur_ingress
        self.entry = None
        self.vfid = vfid
        self.vfid_space = vfid_space

    def payload_bytes(self) -> int:
        """Payload carried by a DATA packet (0 for control packets)."""
        if self.is_control:
            return 0
        return max(0, self.size - DATA_HEADER_SIZE)

    def clone_for_retransmit(self) -> "Packet":
        """A fresh copy used by Go-Back-N retransmission."""
        return Packet(
            kind=self.kind,
            flow_id=self.flow_id,
            key=self.key,
            size=self.size,
            seq=self.seq,
            flow_size=self.flow_size,
            created_ns=self.created_ns,
            ecn_capable=self.ecn_capable,
            int_enabled=self.int_enabled,
            first_of_flow=self.first_of_flow,
            last_of_flow=self.last_of_flow,
        )

    def __repr__(self) -> str:
        return (
            f"Packet(kind={self.kind}, flow_id={self.flow_id}, seq={self.seq}, "
            f"size={self.size})"
        )
