"""Hosts and their RDMA-style NICs.

The sending side models an RDMA NIC the way the paper (and the DCQCN / HPCC
simulators it builds on) does:

* each flow is transmitted as a sequence of MTU-sized packets,
* flows are paced at the rate chosen by the congestion-control module and can
  additionally be capped by a window (DCQCN+Win, HPCC, Ideal-FQ),
* loss recovery is Go-Back-N: the receiver NACKs on the first gap and the
  sender rewinds to the cumulative acknowledgement,
* a per-flow retransmission timeout acts as the last-resort recovery when the
  tail of a flow is lost.

The NIC exposes itself to the egress port as a data discipline: the port asks
for the next packet whenever the line goes idle, and the NIC picks among
eligible flows in deficit-round-robin order (each flow has its own "queue" at
the NIC, which is also what BFC assumes of end hosts).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

from .disciplines import BLOCKED, DeficitRoundRobin
from .flow import Flow
from .node import Node
from .packet import (
    ACK_SIZE,
    CNP_SIZE,
    DATA_HEADER_SIZE,
    NACK_SIZE,
    Packet,
    PacketKind,
)
from .stats import Counters

#: Minimum spacing between DCQCN congestion-notification packets for the
#: same flow (50 us in the DCQCN paper).
CNP_INTERVAL_NS = 50_000


@dataclass
class HostConfig:
    """Per-host NIC configuration.

    Attributes
    ----------
    mtu:
        Payload bytes per packet (the paper uses 1 KB packets).
    window_cap_bytes:
        Optional hard cap on per-flow inflight bytes (the "+Win" variants use
        one end-to-end bandwidth-delay product).  ``None`` disables the cap.
    int_enabled:
        Stamp outgoing data packets for in-band telemetry (HPCC).
    rto_ns:
        Retransmission timeout used when the tail of a flow is lost.
    mark_first_packet:
        Mark the first packet of every flow (BFC's high-priority-queue hint).
    loss_recovery:
        ``"go-back-n"`` (default, what RDMA NICs implement and what the paper
        assumes) or ``"selective-repeat"`` — an IRN-style receiver that
        buffers out-of-order packets and asks the sender to retransmit only
        the missing ones (Mittal et al., SIGCOMM 2018, discussed in §5 of the
        BFC paper).
    """

    mtu: int = 1000
    window_cap_bytes: Optional[int] = None
    int_enabled: bool = False
    rto_ns: int = 2_000_000
    mark_first_packet: bool = False
    loss_recovery: str = "go-back-n"

    def __post_init__(self) -> None:
        if self.loss_recovery not in ("go-back-n", "selective-repeat"):
            raise ValueError(
                "loss_recovery must be 'go-back-n' or 'selective-repeat', "
                f"got {self.loss_recovery!r}"
            )


class SenderFlowState:
    """Sender-side bookkeeping for one flow."""

    __slots__ = (
        "flow",
        "key",
        "num_packets",
        "next_seq",
        "una",
        "next_allowed_ns",
        "cc_state",
        "paused",
        "last_progress_ns",
        "rto_event",
        "completed",
        "mtu",
        "retransmit_queue",
        "vfid",
    )

    def __init__(self, flow: Flow, mtu: int) -> None:
        self.flow = flow
        # One FlowKey per flow, shared by every packet the flow emits (the
        # key caches its hash and VFID digest, so sharing it matters).
        self.key = flow.key()
        self.mtu = mtu
        self.num_packets = max(1, math.ceil(flow.size / mtu))
        flow.num_packets = self.num_packets
        self.next_seq = 0
        self.una = 0
        self.next_allowed_ns = 0
        self.cc_state: Dict[str, float] = {}
        self.paused = False
        self.last_progress_ns = 0
        self.rto_event = None
        self.completed = False
        # Selective-repeat only: sequence numbers queued for retransmission.
        self.retransmit_queue: Deque[int] = deque()
        # The flow's virtual-flow ID in its NIC's VFID space (BFC NICs only).
        self.vfid = -1

    # -- derived quantities ---------------------------------------------------

    def inflight_packets(self) -> int:
        return self.next_seq - self.una

    def inflight_bytes(self) -> int:
        return self.inflight_packets() * (self.mtu + DATA_HEADER_SIZE)

    def remaining_packets(self) -> int:
        return self.num_packets - self.next_seq

    def fully_acked(self) -> bool:
        return self.una >= self.num_packets

    def packet_payload(self, seq: int) -> int:
        if seq < self.num_packets - 1:
            return self.mtu
        last = self.flow.size - self.mtu * (self.num_packets - 1)
        return last if last > 0 else self.mtu


class ReceiverFlowState:
    """Receiver-side bookkeeping for one flow (Go-Back-N semantics)."""

    __slots__ = (
        "flow_id",
        "expected_seq",
        "num_packets",
        "bytes_received",
        "flow_size",
        "last_cnp_ns",
        "last_nack_seq",
        "completed",
        "src",
        "out_of_order",
    )

    def __init__(self, flow_id: int, flow_size: int, mtu: int, src: int) -> None:
        self.flow_id = flow_id
        self.flow_size = flow_size
        self.num_packets = max(1, math.ceil(flow_size / mtu))
        self.expected_seq = 0
        self.bytes_received = 0
        self.last_cnp_ns = -(10**9)
        self.last_nack_seq = -1
        self.completed = False
        self.src = src
        # Selective-repeat only: payload bytes of packets received ahead of
        # the cumulative pointer, keyed by sequence number.
        self.out_of_order: Dict[int, int] = {}


class CongestionControl:
    """Base congestion-control module (line-rate sender, no window).

    Subclasses override the event hooks and the :meth:`rate_bps` /
    :meth:`window_bytes` queries.  Per-flow state lives in
    ``SenderFlowState.cc_state`` so one module instance can serve a whole NIC.
    """

    name = "line-rate"

    #: Class-level hint for the NIC fast path: ``False`` promises that
    #: :meth:`window_bytes` always returns ``None``, letting the per-dequeue
    #: eligibility check skip the call entirely.  The promise is only
    #: honoured when the class that defines the active ``window_bytes``
    #: override (or one of its subclasses) declares it — a subclass that
    #: overrides ``window_bytes`` without restating ``has_window`` is
    #: conservatively treated as windowed (see ``_cc_is_windowless``).
    has_window = False

    def __init__(self, line_rate_bps: float) -> None:
        self.line_rate_bps = line_rate_bps

    def on_flow_start(self, fstate: SenderFlowState, now_ns: int) -> None:
        pass

    def on_ack(self, fstate: SenderFlowState, packet: Packet, now_ns: int) -> None:
        pass

    def on_nack(self, fstate: SenderFlowState, packet: Packet, now_ns: int) -> None:
        pass

    def on_cnp(self, fstate: SenderFlowState, now_ns: int) -> None:
        pass

    def on_packet_sent(self, fstate: SenderFlowState, packet: Packet, now_ns: int) -> None:
        pass

    def rate_bps(self, fstate: SenderFlowState) -> float:
        return self.line_rate_bps

    def window_bytes(self, fstate: SenderFlowState) -> Optional[int]:
        return None


class WindowedCongestionControl(CongestionControl):
    """Line-rate sender with a fixed window cap (one end-to-end BDP).

    Used on its own by Ideal-FQ and SFQ+InfBuffer, and as the base class of
    the "+Win" DCQCN variant.
    """

    name = "windowed"
    has_window = True

    def __init__(self, line_rate_bps: float, window_bytes: int) -> None:
        super().__init__(line_rate_bps)
        self._window = int(window_bytes)

    def window_bytes(self, fstate: SenderFlowState) -> Optional[int]:
        return self._window


def _cc_is_windowless(cc: CongestionControl) -> bool:
    """True only when ``cc`` provably never returns a congestion window.

    ``has_window = False`` is trusted only when it was declared by the class
    that defines the active ``window_bytes`` override or by one of its
    subclasses (or explicitly on the instance).  A subclass that overrides
    ``window_bytes`` while inheriting ``has_window = False`` from a parent
    has made no promise about its own override, so it takes the safe
    (windowed) path instead of silently losing window enforcement.
    """
    if "has_window" in getattr(cc, "__dict__", {}):
        return not cc.has_window
    cc_type = type(cc)
    declared = definer = None
    for klass in cc_type.__mro__:
        if declared is None and "has_window" in vars(klass):
            declared = klass
        if definer is None and "window_bytes" in vars(klass):
            definer = klass
        if declared is not None and definer is not None:
            break
    if declared is None or definer is None or cc_type.has_window:
        return False
    return issubclass(declared, definer)


class NicScheduler:
    """The NIC's transmit scheduler, exposed to the egress port as a discipline.

    Flows are served deficit-round-robin among those that are *eligible*:
    they still have data, are within their congestion window, are not paused
    (BFC), and their pacing timer has expired.
    """

    def __init__(self, host: "Host") -> None:
        self.host = host
        self._drr = DeficitRoundRobin(quantum=host.config.mtu + DATA_HEADER_SIZE)
        self._flows: Dict[int, SenderFlowState] = {}
        self._wakeup_event = None
        # Per-dequeue state of the probe: the time it tests pacing against,
        # and the earliest pacing timer among the flows blocked only by
        # pacing.  The probe is bound once: dequeue runs after every ACK and
        # every transmission.
        self._now = 0
        self._wake_at: Optional[int] = None
        self._probe = self._probe_flow

    # -- flow management ------------------------------------------------------

    def add_flow(self, fstate: SenderFlowState) -> None:
        self._flows[fstate.flow.flow_id] = fstate
        self._drr.activate(fstate.flow.flow_id)

    def remove_flow(self, flow_id: int) -> None:
        if flow_id in self._flows:
            del self._flows[flow_id]
            self._drr.deactivate(flow_id)

    def flow_state(self, flow_id: int) -> Optional[SenderFlowState]:
        return self._flows.get(flow_id)

    def active_flow_count(self) -> int:
        return len(self._flows)

    # -- DataDiscipline interface ---------------------------------------------------

    def enqueue(self, packet: Packet, ingress: int) -> bool:  # pragma: no cover
        raise RuntimeError("the NIC scheduler generates its own packets")

    def dequeue(self) -> Optional[Packet]:
        """Pick the next flow (deficit round robin) and build its packet.

        When no flow may send, arm the pacing wake-up at the earliest timer
        of the flows blocked only by pacing (the probe gathers it during the
        scan, so a failed dequeue needs no second pass over the flows).
        """
        host = self.host
        self._now = host.sim.now
        self._wake_at = None
        flow_id = self._drr.select(self._probe)
        if flow_id is None:
            if self._wake_at is not None:
                self._arm_wakeup(self._wake_at)
            return None
        return host.build_data_packet(self._flows[flow_id])

    def _probe_flow(self, flow_id: int) -> Optional[int]:
        """The DRR probe: a flow's next packet size if it may send now.

        ``None`` when the flow has nothing left to send; ``BLOCKED`` when it
        is paused, out of window or paced beyond now.  The size is worked
        out last, only for a flow that can send.
        """
        fstate = self._flows[flow_id]
        retransmit = fstate.retransmit_queue
        seq = retransmit[0] if retransmit else fstate.next_seq
        if not retransmit and seq >= fstate.num_packets:
            return None
        if fstate.paused:
            return BLOCKED
        host = self.host
        # Retransmissions do not grow the in-flight window.
        if not (retransmit or host._no_window):
            window = host.effective_window(fstate)
            if window is not None and fstate.inflight_bytes() + host.config.mtu > window:
                return BLOCKED
        allowed = fstate.next_allowed_ns
        if allowed > self._now:
            wake_at = self._wake_at
            if wake_at is None or allowed < wake_at:
                self._wake_at = allowed
            return BLOCKED
        return fstate.packet_payload(seq) + DATA_HEADER_SIZE

    def backlog_bytes(self) -> int:
        total = 0
        for fstate in self._flows.values():
            total += fstate.remaining_packets() * (self.host.config.mtu + DATA_HEADER_SIZE)
        return total

    def backlog_packets(self) -> int:
        return sum(f.remaining_packets() for f in self._flows.values())

    def has_backlog(self) -> bool:
        # Any registered flow counts (even paused/window-blocked ones).
        return bool(self._flows)

    def has_work_at(self, horizon_ns: int) -> bool:
        """Could a wake-up at the commit horizon find transmittable work?

        Horizon-aware replacement for :meth:`has_backlog` on the fused
        port's chain-wake path.  Exact on pause and pacing; window blocking
        still over-reports (one no-op dequeue, never a stall).  When every
        unpaused flow with data is paced beyond the horizon, a horizon wake
        would only fail its dequeue and arm the pacing wake-up — so arm it
        here directly at the earliest pacing timer instead, saving one
        engine event per paced gap.  Pacing timers only move at sends, so
        the timer read now equals what the horizon-time dequeue would have
        read.
        """
        earliest: Optional[int] = None
        for f in self._flows.values():
            if not f.retransmit_queue and f.next_seq >= f.num_packets:
                continue
            if f.paused:
                continue
            na = f.next_allowed_ns
            if na <= horizon_ns:
                return True
            if earliest is None or na < earliest:
                earliest = na
        if earliest is not None:
            self._arm_wakeup(earliest)
        return False

    # -- pacing wake-ups ------------------------------------------------------------

    def _arm_wakeup(self, earliest: int) -> None:
        """Arm (or tighten) the pacing wake-up kick at ``earliest``."""
        sim = self.host.sim
        event = self._wakeup_event
        # A handle whose time has passed belongs to an already-fired event
        # (Event.cancelled stays False after firing): treat it as dead, or a
        # port that went idle right after the old wake-up would never get a
        # new one and a lone paced flow could stall forever.
        if event is not None and not event.cancelled and event.time > sim.now:
            if event.time <= earliest:
                return
            event.cancel()
        self._wakeup_event = sim.schedule_at(earliest, self.host.kick)


class Host(Node):
    """A server with one network interface and an RDMA-style NIC."""

    def __init__(
        self,
        sim,
        name: str,
        host_id: int,
        config: Optional[HostConfig] = None,
        cc_factory: Optional[Callable[[float], CongestionControl]] = None,
        flow_registry: Optional[Dict[int, Flow]] = None,
        nic_class: Optional[type] = None,
    ) -> None:
        super().__init__(sim, name)
        self.host_id = host_id
        self.config = config or HostConfig()
        self._cc_factory = cc_factory
        self.cc: Optional[CongestionControl] = None
        self.flow_registry = flow_registry if flow_registry is not None else {}
        self.nic: NicScheduler = (nic_class or NicScheduler)(self)
        self.receivers: Dict[int, ReceiverFlowState] = {}
        self.counters = Counters()
        # Direct alias of the counter dict for the per-packet increments.
        self._cv = self.counters.values
        # Batched control fan-out: control frames generated while handling
        # one received packet are coalesced here and emitted in generation
        # (seq) order by a single flush at the end of handle_packet().
        self._pending_control: List[Packet] = []
        self._needs_kick = False
        # Per-packet receive-path constant, hoisted out of the handlers.
        self._selective = self.config.loss_recovery == "selective-repeat"
        self._no_window = False  # recomputed once the cc module exists
        self.on_flow_complete: Optional[Callable[[Flow, int], None]] = None
        # Cached uplink port/rate (set by the first add_interface); the
        # per-packet send path goes through these instead of the
        # interfaces[0].tx property chain.
        self._uplink_port = None
        self._uplink_rate = 0.0

    # -- wiring ------------------------------------------------------------------

    def add_interface(self, rate_bps: float, delay_ns: int, link_class: str = "link"):
        iface = super().add_interface(rate_bps, delay_ns, link_class)
        iface.tx.discipline = self.nic
        if self._uplink_port is None:
            self._uplink_port = iface.tx
            self._uplink_rate = rate_bps
        if self.cc is None:
            factory = self._cc_factory or (lambda rate: CongestionControl(rate))
            self.cc = factory(rate_bps)
        # effective_window() is constant None when neither the cc module nor
        # the static cap can produce a window; the dequeue fast path keys off
        # this.  Unknown cc implementations conservatively count as windowed.
        self._no_window = self.config.window_cap_bytes is None and _cc_is_windowless(
            self.cc
        )
        iface.tx._wake_check = self.nic.has_work_at
        return iface

    @property
    def uplink(self):
        """The host's single interface toward its ToR."""
        return self.interfaces[0]

    def kick(self) -> None:
        """Ask the egress port to re-evaluate whether it can transmit."""
        port = self._uplink_port
        if port is None:
            return
        # Cheap skip: while the line is committed with a wake-up already
        # armed at the commit horizon, port.kick() would be a no-op (new
        # work cannot start before the horizon; the wake re-scans there).
        if (
            port.busy
            and port._wake_at == port._busy_until
            and self.sim.now < port._busy_until
        ):
            return
        port.kick()

    def effective_window(self, fstate: SenderFlowState) -> Optional[int]:
        """The binding window for a flow (CC window and static cap combined)."""
        cc = self.cc
        cc_window = cc.window_bytes(fstate) if cc else None
        cap = self.config.window_cap_bytes
        if cap is None:
            return cc_window
        if cc_window is None:
            return cap
        return cap if cap < cc_window else cc_window

    # -- sending ------------------------------------------------------------------

    def start_flow(self, flow: Flow) -> SenderFlowState:
        """Register a flow for transmission (called at the flow's start time)."""
        if flow.src != self.host_id:
            raise ValueError(
                f"flow {flow.flow_id} has src {flow.src}, host is {self.host_id}"
            )
        self.flow_registry[flow.flow_id] = flow
        fstate = SenderFlowState(flow, self.config.mtu)
        fstate.last_progress_ns = self.sim.now
        self.nic.add_flow(fstate)
        if self.cc:
            self.cc.on_flow_start(fstate, self.sim.now)
        flow.first_tx_ns = None
        self._arm_rto(fstate)
        self.counters.incr("flows_started")
        self.kick()
        return fstate

    def build_data_packet(self, fstate: SenderFlowState) -> Packet:
        """Construct the next data packet of a flow and advance sender state.

        With selective-repeat loss recovery, queued retransmissions take
        precedence over new data and do not advance the send pointer.
        """
        flow = fstate.flow
        now = self.sim.now
        config = self.config
        retransmission = bool(fstate.retransmit_queue)
        if retransmission:
            seq = fstate.retransmit_queue.popleft()
        else:
            seq = fstate.next_seq
        payload = fstate.packet_payload(seq)
        packet = Packet(
            kind=PacketKind.DATA,
            flow_id=flow.flow_id,
            key=fstate.key,
            size=payload + DATA_HEADER_SIZE,
            seq=seq,
            flow_size=flow.size,
            created_ns=now,
            int_enabled=config.int_enabled,
            first_of_flow=(seq == 0 and config.mark_first_packet),
            last_of_flow=(seq == fstate.num_packets - 1),
        )
        if retransmission:
            flow.retransmitted_packets += 1
            self.counters.incr("selective_retransmissions")
        else:
            fstate.next_seq = seq + 1
        if flow.first_tx_ns is None:
            flow.first_tx_ns = now
        cc = self.cc
        uplink_rate = self._uplink_rate
        rate = cc.rate_bps(fstate) if cc else uplink_rate
        rate = max(1.0, min(rate, uplink_rate))
        # Pacing delay; must stay arithmetically identical to
        # units.transmission_time_ns (integer product, then float divide).
        pace_ns = int(round(packet.size * 8 * 1_000_000_000 / rate))
        if pace_ns < 1:
            pace_ns = 1
        allowed = fstate.next_allowed_ns
        fstate.next_allowed_ns = (allowed if allowed > now else now) + pace_ns
        if cc:
            cc.on_packet_sent(fstate, packet, now)
        cv = self._cv
        cv["data_packets_sent"] += 1
        return packet

    # -- receive path ----------------------------------------------------------------

    def handle_packet(self, packet: Packet, iface_index: int) -> None:
        kind = packet.kind
        if kind is PacketKind.DATA:
            self._handle_data(packet)
        elif kind is PacketKind.ACK:
            self._handle_ack(packet)
        elif kind is PacketKind.NACK:
            self._handle_nack(packet)
        elif kind is PacketKind.CNP:
            self._handle_cnp(packet)
        elif kind is PacketKind.BLOOM:
            self._handle_bloom(packet, iface_index)
        else:  # pragma: no cover - PFC handled by Node
            self.counters.incr("unexpected_packets")
            return
        # Batched control fan-out: emit every control frame generated while
        # handling this packet (ACK + CNP for a marked data packet, etc.) in
        # one burst, in generation (= engine seq) order, with at most one
        # port kick.  While the port is already draining even the kick is
        # skipped — _transmission_done picks the frames up.
        pending = self._pending_control
        if pending:
            port = self._uplink_port
            port.control_queue.extend(pending)
            pending.clear()
            self._needs_kick = False
            port.kick()
        elif self._needs_kick:
            self._needs_kick = False
            self._uplink_port.kick()

    def _handle_bloom(self, packet: Packet, iface_index: int) -> None:
        handler = getattr(self.nic, "on_bloom", None)
        if handler is not None:
            handler(packet)
            self._needs_kick = True
        else:
            self.counters.incr("bloom_ignored")

    # .. receiver side ...........................................................

    def _handle_data(self, packet: Packet) -> None:
        cv = self._cv
        cv["data_packets_received"] += 1
        rstate = self.receivers.get(packet.flow_id)
        if rstate is None:
            rstate = ReceiverFlowState(
                packet.flow_id, packet.flow_size, self.config.mtu, packet.key.src
            )
            self.receivers[packet.flow_id] = rstate
        elif type(rstate) is int:
            # Completed flow whose receiver state was released (streaming
            # open-loop harvest, see release_receiver_state).  Any data packet
            # arriving now is by definition a duplicate of an already-delivered
            # sequence number, so reproduce the duplicate-data path: count it
            # and re-ACK the final cumulative sequence number (the tombstone).
            # The CNP rate-limit clock went away with the released state, so
            # no CNP is sent for marked duplicates — see docs/results.md.
            self.counters.incr("duplicate_packets")
            self._send_release_ack(packet, rstate)
            return
        if packet.ecn_marked:
            self._maybe_send_cnp(packet, rstate)
        selective = self._selective
        if packet.seq == rstate.expected_seq:
            rstate.expected_seq += 1
            rstate.bytes_received += packet.payload_bytes()
            rstate.last_nack_seq = -1
            if selective:
                # Drain any buffered out-of-order packets that are now in order.
                while rstate.expected_seq in rstate.out_of_order:
                    rstate.bytes_received += rstate.out_of_order.pop(rstate.expected_seq)
                    rstate.expected_seq += 1
            if rstate.expected_seq >= rstate.num_packets and not rstate.completed:
                rstate.completed = True
                self._record_completion(packet, rstate)
            self._send_ack(packet, rstate)
        elif packet.seq > rstate.expected_seq:
            self.counters.incr("out_of_order_packets")
            if selective and packet.seq not in rstate.out_of_order:
                rstate.out_of_order[packet.seq] = packet.payload_bytes()
            self._send_nack(packet, rstate)
        else:
            self.counters.incr("duplicate_packets")
            self._send_ack(packet, rstate)

    def _record_completion(self, packet: Packet, rstate: ReceiverFlowState) -> None:
        flow = self.flow_registry.get(packet.flow_id)
        now = self.sim.now
        if flow is not None:
            flow.finish_ns = now
            flow.bytes_delivered = rstate.bytes_received
            if self.on_flow_complete:
                self.on_flow_complete(flow, now)
        self.counters.incr("flows_completed")

    def release_receiver_state(self, flow_id: int) -> None:
        """Drop a completed flow's :class:`ReceiverFlowState`, leaving a tombstone.

        Streaming open-loop runs call this once the flow's record has been
        harvested, so receiver memory does not grow with total flow count.
        The state is replaced by a bare ``int`` (the flow's packet count ==
        the final cumulative ACK sequence): straggling duplicates still get
        the exact duplicate-ACK response a completed state would have given,
        without retaining the full object.  Tombstones are reclaimed later by
        the runner's generational reaper (see ``repro.experiments.runner``).
        """
        rstate = self.receivers.get(flow_id)
        if rstate is not None and type(rstate) is not int:
            self.receivers[flow_id] = rstate.num_packets

    def _send_release_ack(self, packet: Packet, final_seq: int) -> None:
        # Mirrors _send_ack for a tombstoned flow (same size, echo and INT
        # handling); ack_seq is the tombstone == the final cumulative seq.
        ack = Packet(
            kind=PacketKind.ACK,
            flow_id=packet.flow_id,
            key=packet.key.reversed(),
            size=ACK_SIZE,
            ack_seq=final_seq,
            created_ns=self.sim.now,
            ecn_echo=packet.ecn_marked,
        )
        if packet.int_enabled:
            ack.int_enabled = False
            ack.int_stack = list(packet.int_stack)
        self._pending_control.append(ack)
        cv = self._cv
        cv["acks_sent"] += 1

    def _send_ack(self, packet: Packet, rstate: ReceiverFlowState) -> None:
        ack = Packet(
            kind=PacketKind.ACK,
            flow_id=packet.flow_id,
            key=packet.key.reversed(),
            size=ACK_SIZE,
            ack_seq=rstate.expected_seq,
            created_ns=self.sim.now,
            ecn_echo=packet.ecn_marked,
        )
        if packet.int_enabled:
            ack.int_enabled = False
            ack.int_stack = list(packet.int_stack)
        self._pending_control.append(ack)
        cv = self._cv
        cv["acks_sent"] += 1

    def _send_nack(self, packet: Packet, rstate: ReceiverFlowState) -> None:
        if rstate.last_nack_seq == rstate.expected_seq:
            return  # already asked for this packet; avoid a NACK storm
        rstate.last_nack_seq = rstate.expected_seq
        nack = Packet(
            kind=PacketKind.NACK,
            flow_id=packet.flow_id,
            key=packet.key.reversed(),
            size=NACK_SIZE,
            ack_seq=rstate.expected_seq,
            created_ns=self.sim.now,
        )
        self._pending_control.append(nack)
        self.counters.incr("nacks_sent")

    def _maybe_send_cnp(self, packet: Packet, rstate: ReceiverFlowState) -> None:
        now = self.sim.now
        if now - rstate.last_cnp_ns < CNP_INTERVAL_NS:
            return
        rstate.last_cnp_ns = now
        cnp = Packet(
            kind=PacketKind.CNP,
            flow_id=packet.flow_id,
            key=packet.key.reversed(),
            size=CNP_SIZE,
            created_ns=now,
        )
        self._pending_control.append(cnp)
        self.counters.incr("cnps_sent")

    # .. sender side ...............................................................

    def _handle_ack(self, packet: Packet) -> None:
        fstate = self.nic.flow_state(packet.flow_id)
        if fstate is None:
            return
        if packet.ack_seq > fstate.una:
            fstate.una = packet.ack_seq
            fstate.last_progress_ns = self.sim.now
            if fstate.retransmit_queue:
                # Drop queued retransmissions the cumulative ACK already covers.
                fstate.retransmit_queue = deque(
                    seq for seq in fstate.retransmit_queue if seq >= fstate.una
                )
        if self.cc:
            self.cc.on_ack(fstate, packet, self.sim.now)
        if fstate.fully_acked() and not fstate.completed:
            fstate.completed = True
            self._finish_sender(fstate)
        self._needs_kick = True

    def _handle_nack(self, packet: Packet) -> None:
        fstate = self.nic.flow_state(packet.flow_id)
        if fstate is None:
            return
        if packet.ack_seq > fstate.una:
            fstate.una = packet.ack_seq
        if self._selective:
            # Retransmit only the packet the receiver is missing.
            missing = packet.ack_seq
            if (
                missing < fstate.num_packets
                and missing >= fstate.una
                and missing not in fstate.retransmit_queue
            ):
                fstate.retransmit_queue.append(missing)
        elif fstate.next_seq > fstate.una:
            fstate.flow.retransmitted_packets += fstate.next_seq - fstate.una
            self.counters.incr("go_back_n_rewinds")
            fstate.next_seq = fstate.una
        fstate.last_progress_ns = self.sim.now
        if self.cc:
            self.cc.on_nack(fstate, packet, self.sim.now)
        self._needs_kick = True

    def _handle_cnp(self, packet: Packet) -> None:
        fstate = self.nic.flow_state(packet.flow_id)
        if fstate is None:
            return
        if self.cc:
            self.cc.on_cnp(fstate, self.sim.now)
        self.counters.incr("cnps_received")

    def _finish_sender(self, fstate: SenderFlowState) -> None:
        if fstate.rto_event is not None:
            fstate.rto_event.cancel()
            fstate.rto_event = None
        self.nic.remove_flow(fstate.flow.flow_id)

    # -- retransmission timeout ------------------------------------------------------

    def _arm_rto(self, fstate: SenderFlowState) -> None:
        if self.config.rto_ns <= 0:
            return
        fstate.rto_event = self.sim.schedule(
            self.config.rto_ns, self._rto_expired, fstate
        )

    def _rto_expired(self, fstate: SenderFlowState) -> None:
        fstate.rto_event = None
        if fstate.completed:
            return
        idle_ns = self.sim.now - fstate.last_progress_ns
        if idle_ns >= self.config.rto_ns and fstate.inflight_packets() > 0:
            # The tail of the flow was lost and no later packet will trigger a
            # NACK: recover via rewind (Go-Back-N) or a targeted retransmit.
            if self._selective:
                if fstate.una not in fstate.retransmit_queue:
                    fstate.retransmit_queue.append(fstate.una)
            else:
                fstate.flow.retransmitted_packets += fstate.next_seq - fstate.una
                fstate.next_seq = fstate.una
            fstate.last_progress_ns = self.sim.now
            self.counters.incr("rto_rewinds")
            self.kick()
        self._arm_rto(fstate)
