"""The compiled forwarding plane.

Every simulation on the compiled engine (:class:`repro.sim.engine_accel.
AccelSimulator`) also forwards through C: its egress ports, its switches'
data hop, their shared buffers and their FIFO queues are the ``_accelcore``
types below.  Each is a subclass of the Python class it replaces, whose C
base overrides the hot methods and stores the hot state; the Python classes
in :mod:`repro.sim.port`, :mod:`repro.sim.switch`, :mod:`repro.sim.buffer`
and :mod:`repro.sim.disciplines` remain the pure engine's plane and the
reference the compiled one is tested against.  Both post the same events
with the same keys, so records are byte-identical either way.

The module is loaded with the compiled engine, which hands it to every
simulator it makes (``AccelSimulator.compiled_plane``); the pure engine
never loads it.  What stays in Python on the compiled plane: non-FIFO
disciplines (BFC, SFQ, Ideal-FQ), host NICs and congestion control, the
port hooks a node installs, and the cold paths of the switch (a route memo
miss, PFC and Bloom frames, ECN marking draws, INT stamps).
"""

from __future__ import annotations

from collections import deque

from . import buffer, disciplines, port, stats
from .engine_accel import _accelcore
from .packet import Packet, PacketKind

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


class EgressPort(_accelcore.EgressPort, port.EgressPort):
    """:class:`repro.sim.port.EgressPort` with ``kick``, ``notify``,
    ``send_control`` and ``set_pfc_paused`` in C, and the same attributes,
    readable and writable; it builds its queue and meters itself."""


_accelcore.bind(Packet, PacketKind.PFC, PacketKind.BLOOM, deque, PauseMeter, ByteMeter)
