"""The BFC-aware host NIC.

The paper assumes the NIC "has sufficient hardware to maintain a physical
queue per VFID" (§3.6), so a host never suffers head-of-line blocking from
BFC pauses: a Bloom-filter pause frame from the top-of-rack switch pauses
exactly the flows whose VFID matches, while every other flow keeps sending.
The NIC also marks the first packet of every flow so the ToR can steer it to
the high-priority queue (§3.7).

:class:`BfcNicScheduler` extends the base NIC scheduler
(:class:`repro.sim.host.NicScheduler`): flows are served deficit round robin
at line rate, and a flow is paused while its VFID is present in the most
recently received pause filter.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.host import Host, NicScheduler, SenderFlowState
from repro.sim.packet import Packet

from .bloom import BloomFilterCodec
from .config import BfcConfig


class BfcNicScheduler(NicScheduler):
    """Per-flow-queue NIC scheduler that honours BFC pause frames.

    ``config`` supplies the Bloom-filter geometry and VFID space; ``codec``
    is the simulation's shared Bloom codec for that geometry (a private one
    is built when none is given).  Bind both with :func:`functools.partial`
    to get the ``nic_class`` a :class:`~repro.sim.host.Host` takes.
    """

    def __init__(
        self,
        host: Host,
        config: Optional[BfcConfig] = None,
        codec: Optional[BloomFilterCodec] = None,
    ) -> None:
        super().__init__(host)
        self.config = config = config or BfcConfig()
        self.codec = codec or BloomFilterCodec(*config.bloom_geometry)
        self.pause_filter: Optional[bytes] = None
        # The same filter as an int (0 while none is installed).
        self._pause_bits = 0
        self.bloom_frames_received = 0

    # -- pause frames -------------------------------------------------------------
    #
    # Whether the installed filter pauses a flow is a pure function of
    # (filter, VFID), so it is worked out when either changes — a flow is
    # added, a *different* filter arrives — and kept in ``fstate.paused``,
    # which the base scheduler's scans read directly.

    def add_flow(self, fstate: SenderFlowState) -> None:
        fstate.vfid = fstate.key.vfid(self.config.num_vfids)
        bits = self._pause_bits
        # No filter pauses nothing; skipping the test keeps the VFID out of
        # the shared memo.
        fstate.paused = bits != 0 and self.codec.contains_bits(bits, fstate.vfid)
        super().add_flow(fstate)

    def on_bloom(self, packet: Packet) -> None:
        """Install the pause filter shipped by the ToR switch.

        The ToR re-broadcasts its filter every Bloom interval and most
        broadcasts repeat the previous pause set, so an identical bitmap
        skips the per-flow re-evaluation.
        """
        self.bloom_frames_received += 1
        bitmap = packet.bloom_bits
        if bitmap == self.pause_filter:
            return
        self.pause_filter = bitmap
        bits = self._pause_bits = self.codec.bits(bitmap)
        contains_bits = self.codec.contains_bits
        for fstate in self._flows.values():
            fstate.paused = contains_bits(bits, fstate.vfid)

    def paused_flow_count(self) -> int:
        """Flows currently blocked by the pause filter (for tests/analysis)."""
        return sum(fstate.paused for fstate in self._flows.values())

