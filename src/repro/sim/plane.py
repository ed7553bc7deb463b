"""The compiled forwarding plane.

Every simulation on the compiled engine (:class:`repro.sim.engine_accel.
AccelSimulator`) also forwards through C: its egress ports, its switches'
data hop, their shared buffers, their FIFO queues, their BFC disciplines,
every deficit round robin, and its hosts' NICs are the ``_accelcore`` types
below.  Each is a subclass of the Python class it replaces, whose C base
overrides the hot methods and stores the hot state; the Python classes in
:mod:`repro.sim.port`, :mod:`repro.sim.switch`, :mod:`repro.sim.buffer`,
:mod:`repro.sim.disciplines`, :mod:`repro.sim.host` and :mod:`repro.core`
remain the pure engine's plane and the reference the compiled one is
tested against.  Both post the same events with the same keys, so records
are byte-identical either way.  They read the clock from the simulator's C
fields and post into its heap directly (see :mod:`repro.sim.engine_accel`).

The host NIC's C base runs the transmit side (``dequeue``, the DRR probe,
``has_work_at``, the pacing wake-up), ``Host.build_data_packet`` and the
go-back-N receive path of ``Host.handle_packet`` (DATA in order, duplicate
or past a gap; ACK), with the batched control flush into the port.

The module is loaded with the compiled engine, which hands it to every
simulator it makes (``AccelSimulator.compiled_plane``); the pure engine
never loads it.

The BFC switch's data plane is here too: its egress discipline, the
scheduler (high-priority queue and DRR over the queues the downstream Bloom
filter does not pause), the switch-wide virtual-flow table, physical-queue
assignment and ``packet_vfid``.  :func:`repro.core.switchlogic.bfc_plane`
picks them for a BFC switch on this plane; a configuration with a BFC-Est
telemetry knob or a capacity weight keeps the Python classes.

What stays in Python on the compiled plane: the SFQ and Ideal-FQ
disciplines, BFC's pause-rate work (the agent's ``pause_flow`` and
``resume_flow``, its tick, the pause frames it sends and the filters it
receives), the congestion-control hooks a host's module overrides (one it
inherits as a no-op from ``CongestionControl`` is skipped), the window of a
windowed host, flow start and completion, selective repeat, CNPs, Bloom and
PFC frames, the port hooks a node installs, and the cold paths of the
switch (a route memo miss, ECN marking draws, INT stamps).
"""

from __future__ import annotations

from collections import deque
from functools import partial

from . import buffer, disciplines, host, port, stats
from .engine_accel import _accelcore
from .packet import ACK_SIZE, DATA_HEADER_SIZE, NACK_SIZE, Packet, PacketKind

#: The data hop of one switch; :class:`repro.sim.switch.Switch` builds it.
SwitchPlane = _accelcore.SwitchPlane


class FifoDiscipline(_accelcore.FifoDiscipline, disciplines.FifoDiscipline):
    """:class:`repro.sim.disciplines.FifoDiscipline` as a C ring of packets."""


class SharedBuffer(_accelcore.SharedBuffer, buffer.SharedBuffer):
    """:class:`repro.sim.buffer.SharedBuffer` with its byte counts in C."""


class ByteMeter(_accelcore.ByteCounts, stats.ByteMeter):
    """:class:`repro.sim.stats.ByteMeter` with its counters stored in C."""


class PauseMeter(_accelcore.PauseState, stats.PauseMeter):
    """:class:`repro.sim.stats.PauseMeter` with its state stored in C."""


class DeficitRoundRobin(_accelcore.DeficitRoundRobin, disciplines.DeficitRoundRobin):
    """:class:`repro.sim.disciplines.DeficitRoundRobin` in C, picking alike."""


class EgressPort(_accelcore.EgressPort, port.EgressPort):
    """:class:`repro.sim.port.EgressPort` with ``kick``, ``notify``,
    ``send_control`` and ``set_pfc_paused`` in C, and the same attributes,
    readable and writable; it builds its queue and meters itself."""


_accelcore.bind(Packet, PacketKind.PFC, PacketKind.BLOOM, deque, PauseMeter, ByteMeter)


#: What the C base of a compiled NIC replaces; a NicScheduler subclass that
#: overrides any of these keeps the Python transmit path.
_COMPILED_NIC_METHODS = ("dequeue", "_probe_flow", "has_work_at", "_arm_wakeup")
_nic_twins: dict = {}


def nic_factory(factory):
    """The compiled twin of a NIC factory a :class:`repro.sim.host.Host` takes.

    A :class:`repro.sim.host.NicScheduler` class (or a ``functools.partial``
    of one, as the BFC scheme binds its NIC) becomes a subclass with the C
    base ``_accelcore.NicScheduler`` in front: the Python class still runs
    ``__init__`` and everything it adds (BFC's ``on_bloom``), the C base
    runs the transmit path.  Any other factory is returned as it is.
    """
    if isinstance(factory, partial):
        return partial(nic_factory(factory.func), *factory.args, **factory.keywords)
    if (
        not isinstance(factory, type)
        or not issubclass(factory, host.NicScheduler)
        or issubclass(factory, _accelcore.NicScheduler)
        or any(
            getattr(factory, name) is not getattr(host.NicScheduler, name)
            for name in _COMPILED_NIC_METHODS
        )
    ):
        return factory
    twin = _nic_twins.get(factory)
    if twin is None:
        twin = _nic_twins[factory] = type(
            factory.__name__,
            (_accelcore.NicScheduler, factory),
            {"__module__": __name__, "__doc__": factory.__doc__},
        )
    return twin


#: The NIC of the Python plane's own Host.
NicScheduler = nic_factory(host.NicScheduler)


def is_compiled_nic(nic) -> bool:
    """Does ``nic`` run the compiled transmit and receive paths?"""
    return isinstance(nic, _accelcore.NicScheduler)


# -- The BFC data plane ----------------------------------------------------------
#
# Imported here, not at the top: repro.core builds on the sim modules above.
from repro.core import discipline as bfc_discipline  # noqa: E402
from repro.core import queues as bfc_queues  # noqa: E402
from repro.core import scheduler as bfc_scheduler  # noqa: E402
from repro.core import vfid as bfc_vfid  # noqa: E402
from repro.core.pause import PauseThresholds  # noqa: E402


class FlowTableStats(_accelcore.FlowTableStats, bfc_vfid.FlowTableStats):
    """:class:`repro.core.vfid.FlowTableStats` with its counters in C."""


class QueueAssignmentStats(_accelcore.QueueAssignmentStats, bfc_queues.QueueAssignmentStats):
    """:class:`repro.core.queues.QueueAssignmentStats` with its counters in C."""


class BfcEgressStats(_accelcore.BfcEgressStats, bfc_discipline.BfcEgressStats):
    """:class:`repro.core.discipline.BfcEgressStats` with its counters in C."""


_accelcore.bind_bfc(FlowTableStats, QueueAssignmentStats, BfcEgressStats)

#: :class:`repro.core.vfid.FlowEntry` as a C struct; the compiled table
#: recycles them as the Python one does.
FlowEntry = _accelcore.FlowEntry
#: :func:`repro.core.vfid.packet_vfid` in C.
packet_vfid = _accelcore.packet_vfid


class FlowTable(_accelcore.FlowTable, bfc_vfid.FlowTable):
    """:class:`repro.core.vfid.FlowTable` as two C hash maps (entries by
    ``(vfid, ingress, egress)``, bucket counts by VFID) sized to the live
    entries, and a free list."""


class PhysicalQueuePool(_accelcore.PhysicalQueuePool, bfc_queues.PhysicalQueuePool):
    """:class:`repro.core.queues.PhysicalQueuePool` in C; a collision still
    draws from its ``random.Random``."""


class BfcScheduler(_accelcore.BfcScheduler, bfc_scheduler.BfcScheduler):
    """:class:`repro.core.scheduler.BfcScheduler` in C: packet rings made
    with a queue's first packet, the ready values the C deficit round robin
    probes, and filter tests through the codec's int masks."""


class BfcEgressDiscipline(_accelcore.BfcEgressDiscipline, bfc_discipline.BfcEgressDiscipline):
    """:class:`repro.core.discipline.BfcEgressDiscipline` in C, driven C to C
    by the compiled port and switch hop.  Pauses and unlimited resumes call
    the agent's ``pause_flow`` / ``resume_flow``; the BFC-Est telemetry shim
    has no C twin (see :func:`repro.core.switchlogic.bfc_plane`)."""

    def __init__(self, agent, egress_index, link_rate_bps, link_delay_ns, rng=None) -> None:
        config = agent.config
        super().__init__(
            agent,
            egress_index,
            BfcScheduler(config, agent.codec),
            PhysicalQueuePool(config, rng),
            PauseThresholds(config, link_rate_bps, link_delay_ns),
        )
        agent.register_discipline(self)


_accelcore.bind_host(
    host.SenderFlowState,
    host.ReceiverFlowState,
    host.CongestionControl,
    PacketKind.DATA,
    PacketKind.ACK,
    PacketKind.NACK,
    DATA_HEADER_SIZE,
    ACK_SIZE,
    NACK_SIZE,
)
