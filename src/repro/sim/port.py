"""Network interfaces, egress ports and link wiring.

A *link* in this simulator is a pair of unidirectional channels.  Each end of
a link is an :class:`Interface` owned by a node; the interface's
:class:`EgressPort` serializes packets onto the outgoing channel (at the link
rate) and delivers them to the peer node after the propagation delay.

Every egress port has two classes of traffic:

* a strict-priority **control queue** (ACK/NACK/CNP/PFC/Bloom frames) that is
  never paused and never dropped, and
* a pluggable **data discipline** (FIFO, SFQ, Ideal-FQ, BFC, or a host NIC
  scheduler) that can be paused as a whole by PFC.

This mirrors how RoCE deployments carry congestion-notification and pause
traffic on a separate priority class.

``kick`` runs once per transmitted packet and is the hottest function in the
whole simulator.  Since the event-fusion rework it also *completes* the
transmission it starts: the byte meters are updated and the peer delivery is
posted (with delay ``tx + propagation``) at dequeue time, so an uncontended
packet costs a single engine event instead of the former
kick → transmission-done → delivery triplet.  ``busy`` is a lazy flag backed
by ``_busy_until``: the line is committed until that instant, and any caller
that finds the port committed arms (at most) one wake-up event at the commit
horizon instead of relying on a transmission-done event to re-kick.

Every event enters its handler directly, with no trampoline frame: a wake-up
is a posted ``kick`` and a delivery is a posted ``handle_packet`` of the peer
node, bound once by :meth:`EgressPort.connect`.  Whoever wants to observe or
redirect deliveries replaces the port's ``_peer_receive`` after wiring (as
the shard boundary and :func:`repro.sim.tracing.tap_deliveries` do);
replacing the node's ``handle_packet`` then has no effect.

:class:`EgressPort` is the pure engine's port and the reference for the
compiled one (:class:`repro.sim.plane.EgressPort`, a subclass whose
transmit path runs in C); an :class:`Interface` builds the one of its
simulator's plane.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Optional, Protocol

from .packet import Packet
from .stats import ByteMeter, PauseMeter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .node import Node


class DataDiscipline(Protocol):
    """The interface every data queueing discipline implements."""

    def enqueue(self, packet: Packet, ingress: int) -> bool:
        """Queue a packet; return False if the discipline rejected it."""

    def dequeue(self) -> Optional[Packet]:
        """Return the next packet to transmit, or None if nothing is eligible."""

    def backlog_bytes(self) -> int:
        """Total bytes currently queued."""

    def backlog_packets(self) -> int:
        """Total packets currently queued."""

    def has_backlog(self) -> bool:
        """O(1) check: is anything queued at all (eligible or not)?

        Used by the fused egress port to decide whether to arm a wake-up at
        the end of the committed transmission; it must be cheap and may
        over-report (a paused/ineligible backlog still counts).
        """


class EgressPort:
    """Serializes packets from one node onto one outgoing channel."""

    def __init__(
        self,
        sim,
        owner: "Node",
        iface_index: int,
        rate_bps: float,
        delay_ns: int,
        name: str = "",
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        if delay_ns < 0:
            raise ValueError("propagation delay cannot be negative")
        self.sim = sim
        self.owner = owner
        self.iface_index = iface_index
        self.rate_bps = rate_bps
        self.delay_ns = int(delay_ns)
        self.name = name or f"{owner.name}.if{iface_index}"
        # Peer wiring (set by connect()).
        self.peer_node: Optional["Node"] = None
        self.peer_iface: int = -1
        # Hot-path aliases: the delivery post is issued through pre-bound
        # callables so the per-transmission cost is free of attribute-chain
        # lookups.
        self._post = sim.post
        self._peer_receive: Optional[Callable[[Packet, int], None]] = None
        # Serialization times memoized per packet size (the port's rate is
        # fixed for its lifetime, and traffic uses a handful of sizes), in
        # the memo every port of this rate shares.
        self._tx_memo: dict = sim.tx_memo(rate_bps)
        # Queues.
        self.control_queue: deque[Packet] = deque()
        self.discipline: Optional[DataDiscipline] = None
        # State.  ``busy`` is lazy: it stays True after the committed
        # transmission ends until the next kick() observes now >= _busy_until
        # and clears it.  Callers must treat busy as "possibly stale" and go
        # through kick()/notify(), never read it to decide whether to kick.
        self.busy = False
        self._busy_until = 0
        # Dedupe marker for armed wake-up events: the absolute time of the
        # latest wake this port has posted.  Comparing against the target
        # time (not a boolean) keeps same-instant races between a pending
        # wake and a notify-driven kick from double-arming or under-arming.
        self._wake_at = -1
        self.pfc_meter = PauseMeter()
        self.bytes = ByteMeter()
        self.tx_data_bytes_total = 0  # cumulative, used for HPCC INT
        # Horizon-aware wake predicate (host NICs only, installed by
        # Host.add_interface): called with the commit horizon, may arm its
        # own pacing wake-up and return False instead of demanding a
        # horizon wake.  Falls back to discipline.has_backlog() when unset.
        self._wake_check: Optional[Callable[[int], bool]] = None
        # Hooks the owning node may install; called as hook(packet,
        # iface_index) when a data packet leaves the discipline / is
        # committed to the line.
        self.on_data_dequeue: Optional[Callable[[Packet, int], None]] = None
        self.on_data_transmitted: Optional[Callable[[Packet, int], None]] = None

    # -- wiring --------------------------------------------------------------

    def connect(self, peer_node: "Node", peer_iface: int) -> None:
        self.peer_node = peer_node
        self.peer_iface = peer_iface
        self._peer_receive = peer_node.handle_packet

    @property
    def connected(self) -> bool:
        return self.peer_node is not None

    # -- PFC -------------------------------------------------------------------

    def set_pfc_paused(self, paused: bool) -> None:
        """Pause/resume the data class of this port (control still flows)."""
        self.pfc_meter.set_paused(paused, self.sim.now)
        if not paused:
            self.kick()

    # -- transmit path ----------------------------------------------------------

    def send_control(self, packet: Packet) -> None:
        """Queue a control packet for transmission at strict priority."""
        if not packet.is_control:
            raise ValueError("send_control() is only for control packets")
        self.control_queue.append(packet)
        self.kick()

    def queue_control(self, packets) -> None:
        """Append control packets to the control queue without a kick (the
        caller kicks once for the whole burst)."""
        self.control_queue.extend(packets)

    def notify(self) -> None:
        """Tell the port that the data discipline may have become non-empty."""
        self.kick()

    def kick(self) -> None:
        """Transmit the next eligible packet, or arm a wake-up if committed.

        One call does everything the unfused engine spread over three events:
        dequeue, completion bookkeeping (meters, hooks) and the peer-delivery
        post.  If the line is still committed, at most one wake-up event is
        armed at the commit horizon (``_busy_until``).
        """
        sim = self.sim
        if self.busy:
            now = sim.now
            until = self._busy_until
            if now < until:
                if self._wake_at != until:
                    self._wake_at = until
                    self._post(until - now, self.kick)
                return
            self.busy = False
        if self.peer_node is None:
            return
        if self.control_queue:
            packet = self.control_queue.popleft()
            is_data = False
        else:
            discipline = self.discipline
            if self.pfc_meter.paused or discipline is None:
                return
            packet = discipline.dequeue()
            if packet is None:
                return
            hook = self.on_data_dequeue
            if hook is not None:
                hook(packet, self.iface_index)
            is_data = True
        self.busy = True
        now = sim.now
        size = packet.size
        memo = self._tx_memo
        tx_ns = memo.get(size)
        if tx_ns is None:
            # Serialization delay; must stay arithmetically identical to
            # units.transmission_time_ns (integer product, then float divide).
            tx_ns = int(round(size * 8 * 1_000_000_000 / self.rate_bps))
            if tx_ns <= 0:
                tx_ns = 1
            memo[size] = tx_ns
        meter = self.bytes
        if is_data:
            meter.data_bytes += size
            meter.data_packets += 1
            self.tx_data_bytes_total += size
            hook = self.on_data_transmitted
            if hook is not None:
                hook(packet, self.iface_index)
        else:
            meter.control_bytes += size
            meter.control_packets += 1
        # The fused delivery: one event at arrival = now + tx + propagation.
        self._post(tx_ns + self.delay_ns, self._peer_receive, packet, self.peer_iface)
        end = now + tx_ns
        self._busy_until = end
        # Chain wake-up: with transmission-done events fused away, a port
        # with more (potential) work must wake itself at the commit horizon.
        # Control frames always need it; a paused data class never does.
        if not self.control_queue:
            if self.pfc_meter.paused:
                return
            check = self._wake_check
            if check is not None:
                if not check(end):
                    return
            else:
                discipline = self.discipline
                if discipline is None or not discipline.has_backlog():
                    return
        if self._wake_at != end:
            self._wake_at = end
            self._post(tx_ns, self.kick)

    # -- introspection ------------------------------------------------------------

    def utilization(self, duration_ns: int, include_control: bool = False) -> float:
        return self.bytes.utilization(self.rate_bps, duration_ns, include_control)


class Interface:
    """One attachment point of a node to a link."""

    def __init__(
        self,
        sim,
        owner: "Node",
        index: int,
        rate_bps: float,
        delay_ns: int,
        link_class: str = "link",
    ) -> None:
        self.index = index
        self.owner = owner
        self.link_class = link_class
        plane = getattr(sim, "compiled_plane", None)
        port_class = EgressPort if plane is None else plane.EgressPort
        self.tx = port_class(sim, owner, index, rate_bps, delay_ns)

    @property
    def peer_node(self) -> Optional["Node"]:
        return self.tx.peer_node

    @property
    def rate_bps(self) -> float:
        return self.tx.rate_bps

    @property
    def delay_ns(self) -> int:
        return self.tx.delay_ns


def connect(
    node_a: "Node",
    node_b: "Node",
    rate_bps: float,
    delay_ns: int,
    link_class_ab: str = "link",
    link_class_ba: str = "link",
) -> tuple[Interface, Interface]:
    """Create a full-duplex link between two nodes.

    Returns the pair of interfaces (on ``node_a`` and ``node_b``).  Both
    directions share the same rate and propagation delay, which matches every
    topology in the paper.
    """
    iface_a = node_a.add_interface(rate_bps, delay_ns, link_class_ab)
    iface_b = node_b.add_interface(rate_bps, delay_ns, link_class_ba)
    iface_a.tx.connect(node_b, iface_b.index)
    iface_b.tx.connect(node_a, iface_a.index)
    return iface_a, iface_b
