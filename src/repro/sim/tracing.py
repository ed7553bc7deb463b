"""Optional event tracing.

The simulator itself keeps no per-packet history; when debugging a scheme or
analysing a single flow it is useful to record a timeline of packet events
(NIC dequeue, switch enqueue/dequeue, delivery, drops, pauses).  The
:class:`EventTrace` collector below is deliberately decoupled from the data
path: components call :meth:`EventTrace.record` only when a trace object has
been installed, so the default (untraced) simulation pays nothing.

The :func:`attach_flow_probe` helper instruments a host pair to capture one
flow's life cycle without modifying library code — it is also an example of
how users can hook the simulator for their own measurements.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from .host import Host
from .packet import Packet, PacketKind


@dataclass
class TraceEvent:
    """One recorded event."""

    time_ns: int
    category: str          # e.g. "nic.tx", "switch.enqueue", "host.deliver"
    node: str
    flow_id: int
    seq: int
    kind: str
    detail: str = ""

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


class EventTrace:
    """An append-only list of :class:`TraceEvent` with query helpers."""

    def __init__(self, capacity: Optional[int] = None) -> None:
        self.capacity = capacity
        self.events: List[TraceEvent] = []
        self.truncated = False

    def record(
        self,
        time_ns: int,
        category: str,
        node: str,
        packet: Optional[Packet] = None,
        detail: str = "",
    ) -> None:
        if self.capacity is not None and len(self.events) >= self.capacity:
            self.truncated = True
            return
        self.events.append(
            TraceEvent(
                time_ns=time_ns,
                category=category,
                node=node,
                flow_id=packet.flow_id if packet else -1,
                seq=packet.seq if packet else -1,
                kind=packet.kind.value if packet else "-",
                detail=detail,
            )
        )

    def __len__(self) -> int:
        return len(self.events)

    # -- queries ---------------------------------------------------------------

    def for_flow(self, flow_id: int) -> List[TraceEvent]:
        return [e for e in self.events if e.flow_id == flow_id]

    def by_category(self, category: str) -> List[TraceEvent]:
        return [e for e in self.events if e.category == category]

    def categories(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.category] = counts.get(event.category, 0) + 1
        return counts

    def first(self, predicate: Callable[[TraceEvent], bool]) -> Optional[TraceEvent]:
        for event in self.events:
            if predicate(event):
                return event
        return None

    # -- export ------------------------------------------------------------------

    def to_json(self) -> str:
        """Serialize the trace including its collector state.

        The envelope carries ``capacity`` and ``truncated`` so that a
        save/load round-trip restores the collector exactly (a loaded trace
        keeps truncating at the same capacity).
        """
        return json.dumps(
            {
                "capacity": self.capacity,
                "truncated": self.truncated,
                "events": [e.as_dict() for e in self.events],
            }
        )

    def save(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "EventTrace":
        with open(path, "r", encoding="ascii") as handle:
            payload = json.loads(handle.read())
        if isinstance(payload, list):
            # Legacy format: a bare event list with no collector state.
            capacity, truncated, events = None, False, payload
        else:
            capacity = payload.get("capacity")
            truncated = bool(payload.get("truncated", False))
            events = payload.get("events", [])
        trace = cls(capacity=capacity)
        trace.truncated = truncated
        for record in events:
            trace.events.append(TraceEvent(**record))
        return trace


@dataclass
class FlowTimeline:
    """A per-flow summary derived from an :class:`EventTrace`."""

    flow_id: int
    first_tx_ns: Optional[int] = None
    last_delivery_ns: Optional[int] = None
    packets_sent: int = 0
    packets_delivered: int = 0
    events: List[TraceEvent] = field(default_factory=list)

    def network_time_ns(self) -> Optional[int]:
        if self.first_tx_ns is None or self.last_delivery_ns is None:
            return None
        return self.last_delivery_ns - self.first_tx_ns


def build_flow_timelines(trace: EventTrace) -> Dict[int, FlowTimeline]:
    """Summarise a trace into per-flow timelines."""
    timelines: Dict[int, FlowTimeline] = {}
    for event in trace.events:
        if event.flow_id < 0:
            continue
        timeline = timelines.setdefault(event.flow_id, FlowTimeline(event.flow_id))
        timeline.events.append(event)
        if event.category == "nic.tx":
            timeline.packets_sent += 1
            if timeline.first_tx_ns is None:
                timeline.first_tx_ns = event.time_ns
        elif event.category == "host.deliver":
            timeline.packets_delivered += 1
            timeline.last_delivery_ns = event.time_ns
    return timelines


def attach_flow_probe(
    sender: Host,
    receiver: Host,
    trace: EventTrace,
    flow_ids: Optional[Iterable[int]] = None,
) -> None:
    """Instrument a sender/receiver pair to record a flow's life cycle.

    Wraps ``sender.build_data_packet`` (every packet the NIC hands to the
    wire becomes a ``nic.tx`` event) and ``receiver.handle_packet`` (every
    DATA packet that reaches the receiver becomes a ``host.deliver`` event).
    Restricting to ``flow_ids`` keeps traces small on busy hosts.
    """
    watched = set(flow_ids) if flow_ids is not None else None

    original_build = sender.build_data_packet

    def traced_build(fstate):
        packet = original_build(fstate)
        if watched is None or packet.flow_id in watched:
            trace.record(sender.sim.now, "nic.tx", sender.name, packet)
        return packet

    sender.build_data_packet = traced_build  # type: ignore[method-assign]

    original_handle = receiver.handle_packet

    def traced_handle(packet, iface_index):
        if packet.kind is PacketKind.DATA and (
            watched is None or packet.flow_id in watched
        ):
            trace.record(receiver.sim.now, "host.deliver", receiver.name, packet)
        return original_handle(packet, iface_index)

    receiver.handle_packet = traced_handle  # type: ignore[method-assign]
