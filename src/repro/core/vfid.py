"""Virtual flow IDs and the per-switch virtual-flow hash table.

BFC identifies flows by a hash of the 5-tuple (the *VFID*, §3.3) and keeps
state only for flows that currently have packets queued at the switch.  The
state lives in a bucketised hash table indexed by the VFID itself (§3.8): the
number of buckets equals the VFID space so the key does not need to be
stored, each bucket holds up to four entries, and an entry additionally
records the flow's ingress and egress so that different flows colliding on
the same VFID can usually be disambiguated.  When a bucket fills up, a small
associative overflow cache ("overflow TCAM") absorbs the extra flows; if that
also fills, packets are diverted to a per-egress overflow queue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.sim.packet import FlowKey, Packet

from .config import BfcConfig


def packet_vfid(packet: Packet, space: int) -> int:
    """The VFID of a packet, cached on the packet for the given VFID space."""
    if packet.vfid >= 0 and packet.vfid_space == space:
        return packet.vfid
    # Equivalent to packet.key.vfid(space); reads the key's precomputed
    # digest directly to keep this (very hot) helper to two attribute loads.
    vfid = packet.key._digest % space
    packet.vfid = vfid
    packet.vfid_space = space
    return vfid


class FlowEntry:
    """Per-active-flow switch state (§3.3: queue, pause flag, packet count).

    Entries are recycled through the table's free list, so a handle is valid
    only while the flow has packets queued at the switch: the discipline
    drops every packet's handle at dequeue and reclaims the entry with the
    last one.
    """

    __slots__ = (
        "vfid", "ingress", "egress", "queue", "packets", "bytes",
        "paused_upstream", "resume_pending", "in_overflow_cache", "current_key",
    )

    def __init__(
        self, vfid: int, ingress: int, egress: int, current_key: Optional[FlowKey] = None
    ) -> None:
        self.vfid = vfid
        self.ingress = ingress
        self.egress = egress
        self.queue: Optional[int] = None
        self.packets = 0
        self.bytes = 0
        self.paused_upstream = False
        self.resume_pending = False
        self.in_overflow_cache = False
        self.current_key = current_key

    def is_idle(self) -> bool:
        return self.packets == 0

    def identity(self) -> Tuple[int, int, int]:
        return (self.vfid, self.ingress, self.egress)


@dataclass
class FlowTableStats:
    """Occupancy / collision / overflow accounting for §4.4 (Fig. 13)."""

    inserts: int = 0
    vfid_collisions: int = 0
    bucket_overflows: int = 0
    cache_overflows: int = 0
    max_active_entries: int = 0


class FlowTable:
    """The virtual-flow hash table plus the overflow cache.

    One dict keyed by the packed ``(vfid, ingress, egress)`` (interface
    indices are below 2**16) holds every entry.  A bucket is the set of
    entries sharing a VFID; the hardware's fixed bucket of
    ``config.table_bucket_size`` slots and its overflow cache are modelled by
    *counts* (entries per VFID outside the cache, entries in the cache), which
    is all the insert rule of §3.8 reads.  Entries are created on the first
    packet of a flow, reclaimed when the flow's last packet leaves the switch,
    and recycled through a free list.
    """

    def __init__(self, config: BfcConfig) -> None:
        self.config = config
        self._entries: Dict[int, FlowEntry] = {}
        self._bucket_counts: Dict[int, int] = {}
        self._cached = 0
        self._free: List[FlowEntry] = []
        self.stats = FlowTableStats()

    # -- lookup / insert -----------------------------------------------------------

    def lookup(self, vfid: int, ingress: int, egress: int) -> Optional[FlowEntry]:
        """Find the entry for (vfid, ingress, egress), if any."""
        return self._entries.get((vfid << 32) + (ingress << 16) + egress)

    def lookup_or_insert(
        self, vfid: int, ingress: int, egress: int, key: Optional[FlowKey] = None
    ) -> Optional[FlowEntry]:
        """Return the entry for a packet, creating one if needed.

        Returns ``None`` when neither the bucket nor the overflow cache has
        room, in which case the caller must divert the packet to the overflow
        queue (§3.8).
        """
        packed = (vfid << 32) + (ingress << 16) + egress
        entries = self._entries
        entry = entries.get(packed)
        if entry is not None:
            if key is not None:
                current = entry.current_key
                if key is not current:
                    if current is not None and entry.packets > 0 and key != current:
                        # A different real flow hashed onto the same live entry.
                        self.stats.vfid_collisions += 1
                    entry.current_key = key
            return entry
        stats = self.stats
        stats.inserts += 1
        counts = self._bucket_counts
        in_bucket = counts.get(vfid, 0)
        cached = in_bucket >= self.config.table_bucket_size
        if cached:
            stats.bucket_overflows += 1
            if self._cached >= self.config.overflow_cache_entries:
                stats.cache_overflows += 1
                return None
            self._cached += 1
        else:
            counts[vfid] = in_bucket + 1
        if self._free:
            # Recycled: every field is reset, whatever state the entry's
            # previous flow left behind.
            entry = self._free.pop()
            entry.vfid = vfid
            entry.ingress = ingress
            entry.egress = egress
            entry.queue = None
            entry.packets = entry.bytes = 0
            entry.paused_upstream = entry.resume_pending = False
            entry.current_key = key
        else:
            entry = FlowEntry(vfid, ingress, egress, key)
        entry.in_overflow_cache = cached
        entries[packed] = entry
        if len(entries) > stats.max_active_entries:
            stats.max_active_entries = len(entries)
        return entry

    # -- removal -------------------------------------------------------------------

    def remove(self, entry: FlowEntry) -> None:
        """Reclaim an entry (the flow's last packet left the switch)."""
        vfid = entry.vfid
        packed = (vfid << 32) + (entry.ingress << 16) + entry.egress
        if self._entries.get(packed) is not entry:
            # Fail loudly: a second remove would put the entry on the free
            # list twice and hand one object to two flows.
            raise KeyError(f"flow entry {entry.identity()} is not in the table")
        del self._entries[packed]
        if entry.in_overflow_cache:
            self._cached -= 1
        else:
            left = self._bucket_counts[vfid] - 1
            if left:
                self._bucket_counts[vfid] = left
            else:
                del self._bucket_counts[vfid]
        self._free.append(entry)

    # -- introspection ------------------------------------------------------------------

    def active_entries(self) -> int:
        return len(self._entries)

    def entries(self) -> List[FlowEntry]:
        return list(self._entries.values())

    def memory_bytes(self, entry_bytes: int = 16) -> int:
        """Rough hardware memory footprint (the paper's table is 256 KB)."""
        return self.config.num_vfids * self.config.table_bucket_size * entry_bytes
