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

DCQCN's control loop is here as well.  A host's ``DcqcnControl`` or
``DcqcnWindowedControl`` becomes its C twin (:func:`congestion_control`),
whose rate machine and per-flow state the NIC drives C to C; the switch hop
computes the RED marking probability and draws from the switch's
``random.Random`` itself, and picks a new flow's ECMP route itself; the NIC
builds the rate-limited CNP of a marked packet and hands an arriving CNP to
the sender's module.

What stays in Python on the compiled plane: the SFQ and Ideal-FQ
disciplines, BFC's pause-rate work (the agent's ``pause_flow`` and
``resume_flow``, its tick, the pause frames it sends and the filters it
receives), HPCC and the congestion-control hooks any other module overrides
(one it inherits as a no-op from ``CongestionControl`` is skipped), the
window of a windowed host, flow start and completion, selective repeat,
Bloom and PFC frames, INT stamps, the port hooks a node installs, and every
hot method a subclass or an instance replaces.
"""

from __future__ import annotations

from functools import partial

from . import buffer, disciplines, host, packet, port, stats
from .engine_accel import _accelcore
from .packet import FlowKey, Packet, PacketKind

#: The data hop of one switch; :class:`repro.sim.switch.Switch` builds it.
SwitchPlane = _accelcore.SwitchPlane


class FifoDiscipline(_accelcore.FifoDiscipline, disciplines.FifoDiscipline):
    """:class:`repro.sim.disciplines.FifoDiscipline` as a C ring of packets."""


class SharedBuffer(_accelcore.SharedBuffer, buffer.SharedBuffer):
    """:class:`repro.sim.buffer.SharedBuffer` with its byte counts in C
    (``per_ingress`` reads as a read-only snapshot)."""


class Counters(_accelcore.Counters, stats.Counters):
    """:class:`repro.sim.stats.Counters` whose hot counts (the switch hop's and
    the NIC's) are C fields, folded into ``values`` before any read."""


class ByteMeter(_accelcore.ByteCounts, stats.ByteMeter):
    """:class:`repro.sim.stats.ByteMeter` with its counters stored in C."""


class PauseMeter(_accelcore.PauseState, stats.PauseMeter):
    """:class:`repro.sim.stats.PauseMeter` with its state stored in C."""


class DeficitRoundRobin(_accelcore.DeficitRoundRobin, disciplines.DeficitRoundRobin):
    """:class:`repro.sim.disciplines.DeficitRoundRobin` in C, picking alike."""


class EgressPort(_accelcore.EgressPort, port.EgressPort):
    """:class:`repro.sim.port.EgressPort` with ``kick``, ``notify``,
    ``send_control``, ``queue_control`` and ``set_pfc_paused`` in C, and the
    same attributes, readable and writable, but for ``control_queue``: the
    control queue is a C ring, read as a snapshot tuple.  It builds its queue
    and meters itself."""


_accelcore.bind(Packet, FlowKey, PacketKind.PFC, PacketKind.BLOOM, PauseMeter, ByteMeter)


#: What the C base of a compiled NIC replaces or reads past (the receive
#: path finds a flow in ``_flows`` where the Python one calls ``flow_state``);
#: a NicScheduler subclass that overrides any of these keeps the Python NIC.
_COMPILED_NIC_METHODS = ("dequeue", "_probe_flow", "has_work_at", "_arm_wakeup", "flow_state")
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


_accelcore.bind_host(host, packet)


# -- DCQCN's sender --------------------------------------------------------------
from repro.congestion import dcqcn  # noqa: E402

#: What the C base of a compiled DCQCN replaces (and the Python steps it
#: inlines); a DcqcnControl subclass that overrides any of these keeps the
#: Python rate machine.
_COMPILED_DCQCN_METHODS = (
    "on_flow_start", "on_packet_sent", "on_cnp", "rate_bps", "_state", "_advance",
    "_apply_increase",
)
#: DcqcnConfig fields the C base reads as ints; the rest it reads as floats.
_DCQCN_INT_FIELDS = (
    "alpha_timer_ns", "increase_timer_ns", "byte_counter_bytes", "fast_recovery_rounds",
)
_dcqcn_twins: dict = {}


def _twin_method(name):
    """What a twin finds for a compiled name: the C base's method, or the
    Python step the C base inlines."""
    return getattr(_accelcore.DcqcnControl, name, None) or getattr(dcqcn.DcqcnControl, name)


class _DcqcnTwin:
    """Mixed into every compiled twin, behind its C base.

    A subclass of a twin that overrides a compiled method runs the whole
    rate machine in Python: each C method it would inherit gives way to the
    Python one.  The compiled NIC goes C to C only where ``rate_bps``,
    ``on_packet_sent`` and ``on_cnp`` find the C methods, so it follows the
    override as the Python queries do.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        inherited = [
            name for name in _COMPILED_DCQCN_METHODS if getattr(cls, name) is _twin_method(name)
        ]
        if len(inherited) < len(_COMPILED_DCQCN_METHODS):
            for name in inherited:
                setattr(cls, name, getattr(dcqcn.DcqcnControl, name))


def _dcqcn_twin(cls):
    """The compiled twin of a congestion-control class, or ``None`` for one
    that is no :class:`repro.congestion.dcqcn.DcqcnControl`, is a twin
    already or overrides a compiled method."""
    if cls in _dcqcn_twins:
        return _dcqcn_twins[cls]
    twin = None
    if (
        issubclass(cls, dcqcn.DcqcnControl)
        and not issubclass(cls, _accelcore.DcqcnControl)
        and all(
            getattr(cls, name) is getattr(dcqcn.DcqcnControl, name)
            for name in _COMPILED_DCQCN_METHODS
        )
    ):
        twin = type(
            cls.__name__,
            (_accelcore.DcqcnControl, _DcqcnTwin, cls),
            {"__module__": __name__, "__doc__": cls.__doc__},
        )
    _dcqcn_twins[cls] = twin
    return twin


#: The compiled twins of :class:`repro.congestion.dcqcn.DcqcnControl` and
#: :class:`repro.congestion.dcqcn.DcqcnWindowedControl`: the rate machine
#: and its per-flow state (``_accelcore.DcqcnFlow``) in C.
DcqcnControl = _dcqcn_twin(dcqcn.DcqcnControl)
DcqcnWindowedControl = _dcqcn_twin(dcqcn.DcqcnWindowedControl)


def congestion_control(cc):
    """The compiled twin of a host's congestion-control module.

    A :class:`repro.congestion.dcqcn.DcqcnControl` (or a subclass that keeps
    its hot methods) becomes an instance of its twin, with the C base
    ``_accelcore.DcqcnControl`` in front and the same attributes: the
    compiled NIC then drives its rate machine C to C.  Any other module, and
    one whose config holds a timer that is not an int, is returned as it is.
    """
    twin_class = _dcqcn_twin(type(cc))
    if twin_class is None:
        return cc
    config = cc.config
    if any(type(getattr(config, name)) is not int for name in _DCQCN_INT_FIELDS) or any(
        type(getattr(config, name)) not in (int, float) for name in ("g", "initial_alpha")
    ):
        return cc
    twin = twin_class.__new__(twin_class)
    for name, value in vars(cc).items():
        setattr(twin, name, value)
    return twin
