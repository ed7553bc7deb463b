"""Base node type shared by hosts and switches."""

from __future__ import annotations

import itertools
from typing import List, Optional

from .packet import Packet, PacketKind
from .port import Interface

_node_ids = itertools.count(1)


class Node:
    """A device attached to the network (host or switch).

    Nodes own a list of :class:`~repro.sim.port.Interface` objects and receive
    packets via :meth:`handle_packet`, which a neighbour's egress port calls
    directly.  PFC pause frames are handled here because their semantics are
    identical for every node type: a PFC frame arriving on interface *i*
    pauses (or resumes) the data class of the egress port on the same
    interface.  Subclasses pass PFC frames to :meth:`_handle_pfc` from the
    control branch of their own ``handle_packet``.
    """

    def __init__(self, sim, name: str) -> None:
        self.sim = sim
        self.name = name
        self.node_id = next(_node_ids)
        self.interfaces: List[Interface] = []

    # -- wiring ---------------------------------------------------------------

    def add_interface(self, rate_bps: float, delay_ns: int, link_class: str = "link") -> Interface:
        iface = Interface(
            self.sim,
            owner=self,
            index=len(self.interfaces),
            rate_bps=rate_bps,
            delay_ns=delay_ns,
            link_class=link_class,
        )
        self.interfaces.append(iface)
        return iface

    def interface_to(self, other: "Node") -> Optional[Interface]:
        """The first interface whose peer is ``other`` (None if not adjacent)."""
        for iface in self.interfaces:
            if iface.peer_node is other:
                return iface
        return None

    # -- receive path ------------------------------------------------------------

    def handle_packet(self, packet: Packet, iface_index: int) -> None:
        """Entry point for packets delivered by a neighbour.

        The base node understands PFC only; subclasses implement their
        forwarding / protocol logic here.
        """
        if packet.kind is not PacketKind.PFC:  # pragma: no cover
            raise NotImplementedError
        self._handle_pfc(packet, iface_index)

    def _handle_pfc(self, packet: Packet, iface_index: int) -> None:
        self.interfaces[iface_index].tx.set_pfc_paused(packet.pause)

    # -- convenience ----------------------------------------------------------------

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"
