"""A from-scratch packet-level discrete-event network simulator.

This package is the substrate the BFC reproduction runs on: it plays the role
ns-3 plays in the paper.  See DESIGN.md for the modelling decisions.
"""

from . import units
from .buffer import PfcPolicy, SharedBuffer
from .disciplines import (
    DeficitRoundRobin,
    FifoDiscipline,
    IdealFqDiscipline,
    SfqDiscipline,
)
from .engine import Event, SimulationError, Simulator
from .flow import Flow, reset_flow_ids
from .host import (
    CongestionControl,
    Host,
    HostConfig,
    NicScheduler,
    ReceiverFlowState,
    SenderFlowState,
    WindowedCongestionControl,
)
from .node import Node
from .packet import FlowKey, IntHop, Packet, PacketKind
from .port import EgressPort, Interface, connect
from .stats import (
    BufferSampler,
    ByteMeter,
    Counters,
    FlowRecord,
    FlowStats,
    PauseMeter,
    QueueSampler,
    percentile,
)
from .switch import EcnConfig, Switch
from .tracing import (
    EventTrace,
    FlowTimeline,
    attach_flow_probe,
    build_flow_timelines,
    tap_deliveries,
)

__all__ = [
    "EventTrace",
    "FlowTimeline",
    "attach_flow_probe",
    "build_flow_timelines",
    "tap_deliveries",
    "units",
    "Simulator",
    "SimulationError",
    "Event",
    "Flow",
    "reset_flow_ids",
    "FlowKey",
    "Packet",
    "PacketKind",
    "IntHop",
    "Node",
    "Host",
    "HostConfig",
    "NicScheduler",
    "SenderFlowState",
    "ReceiverFlowState",
    "CongestionControl",
    "WindowedCongestionControl",
    "Switch",
    "EcnConfig",
    "SharedBuffer",
    "PfcPolicy",
    "EgressPort",
    "Interface",
    "connect",
    "FifoDiscipline",
    "SfqDiscipline",
    "IdealFqDiscipline",
    "DeficitRoundRobin",
    "Counters",
    "ByteMeter",
    "PauseMeter",
    "BufferSampler",
    "QueueSampler",
    "FlowStats",
    "FlowRecord",
    "percentile",
]
