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

    The class attribute :attr:`CONFIG` supplies the Bloom-filter geometry and
    VFID space; use :func:`bfc_nic_class` to bind a specific configuration.
    """

    CONFIG: BfcConfig = BfcConfig()

    def __init__(self, host: Host) -> None:
        super().__init__(host)
        self.config = self.CONFIG
        self.codec = BloomFilterCodec(
            size_bytes=self.config.bloom_filter_bytes,
            num_hashes=self.config.bloom_hash_functions,
        )
        self.pause_filter: Optional[bytes] = None
        self.bloom_frames_received = 0

    # -- pause frames -------------------------------------------------------------
    #
    # Whether the installed filter pauses a flow is a pure function of
    # (filter, VFID), so it is worked out when either changes — a flow is
    # added, a *different* filter arrives — and kept in ``fstate.paused``,
    # which the base scheduler's scans read directly.

    def add_flow(self, fstate: SenderFlowState) -> None:
        fstate.vfid = fstate.key.vfid(self.config.num_vfids)
        fstate.paused = self.codec.contains(self.pause_filter, fstate.vfid)
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
        contains = self.codec.contains
        for fstate in self._flows.values():
            fstate.paused = contains(bitmap, fstate.vfid)

    def paused_flow_count(self) -> int:
        """Flows currently blocked by the pause filter (for tests/analysis)."""
        return sum(fstate.paused for fstate in self._flows.values())


def bfc_nic_class(config: BfcConfig) -> type:
    """A :class:`BfcNicScheduler` subclass bound to a specific configuration."""

    class _ConfiguredBfcNic(BfcNicScheduler):
        CONFIG = config

    _ConfiguredBfcNic.__name__ = "BfcNicScheduler"
    _ConfiguredBfcNic.__qualname__ = "BfcNicScheduler"
    return _ConfiguredBfcNic
