"""The compiled forwarding plane.

Every simulation on the compiled engine (:class:`repro.sim.engine_accel.
AccelSimulator`) also forwards through C: its egress ports, its switches'
data hop, their shared buffers, their FIFO queues, every deficit round
robin, and its hosts' NICs are the ``_accelcore`` types below.  Each is a
subclass of the Python class it replaces, whose C base overrides the hot
methods and stores the hot state; the Python classes in
:mod:`repro.sim.port`, :mod:`repro.sim.switch`, :mod:`repro.sim.buffer`,
:mod:`repro.sim.disciplines` and :mod:`repro.sim.host` remain the pure
engine's plane and the reference the compiled one is tested against.  Both
post the same events with the same keys, so records are byte-identical
either way.  They read the clock from the simulator's C fields and post
into its heap directly (see :mod:`repro.sim.engine_accel`).

The host NIC's C base runs the transmit side (``dequeue``, the DRR probe,
``has_work_at``, the pacing wake-up), ``Host.build_data_packet`` and the
go-back-N receive path of ``Host.handle_packet`` (DATA in order, duplicate
or past a gap; ACK), with the batched control flush into the port.

The module is loaded with the compiled engine, which hands it to every
simulator it makes (``AccelSimulator.compiled_plane``); the pure engine
never loads it.  What stays in Python on the compiled plane: the non-FIFO
disciplines' own logic (BFC, SFQ, Ideal-FQ), the congestion-control hooks
a host's module overrides (one it inherits as a no-op from
``CongestionControl`` is skipped), the window of a windowed host,
flow start and completion, selective repeat, CNPs, Bloom and PFC frames,
the port hooks a node installs, and the cold paths of the switch (a route
memo miss, ECN marking draws, INT stamps).
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
