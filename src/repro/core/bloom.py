"""Multistage Bloom filters for BFC pause signalling.

BFC communicates the set of paused virtual flows on an ingress link by
periodically shipping a small Bloom filter upstream (§3.6).  The congested
(downstream) switch maintains a *counting* Bloom filter so that two paused
VFIDs mapping to the same bit can be removed independently; what travels on
the wire is the plain bitmap derived from it.

Both ends must hash identically, so the hash functions are CRC32 based (never
Python's randomised ``hash``).  Membership tests run once per queue-service
decision on every BFC egress port, so the codec memoizes each VFID as one
int bit mask (bit ``i`` of the little-endian bitmap is filter bit ``i``): a
reader converts a filter to an int once, when a different filter arrives,
and a test is then ``bits & mask == mask``.  The memo is a pure function of
the filter geometry, so one codec serves every switch and NIC of a
simulation (the scheme wiring owns it) and holds at most one entry per VFID.
Adding, removing and encoding run at pause rate and recompute the bit
positions; the counting filter keeps its wire bitmap up to date
incrementally instead of rescanning the counters.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, List, Optional, Tuple


class BloomFilterCodec:
    """Hashing and membership logic shared by both ends of a link.

    Parameters
    ----------
    size_bytes:
        Wire size of the filter (the paper's default is 128 bytes).
    num_hashes:
        Number of hash functions (4 in the paper).
    salt:
        Optional distinguishing salt.  Both ends of a link must use the same
        salt; experiments use 0 everywhere.
    """

    def __init__(self, size_bytes: int = 128, num_hashes: int = 4, salt: int = 0) -> None:
        if size_bytes < 1:
            raise ValueError("size_bytes must be >= 1")
        if num_hashes < 1:
            raise ValueError("num_hashes must be >= 1")
        self.size_bytes = size_bytes
        self.num_bits = size_bytes * 8
        self.num_hashes = num_hashes
        self.salt = salt
        # VFID -> int bit mask of its positions.  Keys are the VFIDs actually
        # tested; the VFID space is fixed per experiment (16K default), so
        # the memo is bounded and every entry is reused thousands of times.
        self._masks: Dict[int, int] = {}

    def bit_positions(self, vfid: int) -> Tuple[int, ...]:
        """The bit positions a VFID maps to (deterministic across processes)."""
        num_bits = self.num_bits
        return tuple(
            zlib.crc32(b"%d:%d:%d" % (self.salt, i, vfid)) % num_bits
            for i in range(self.num_hashes)
        )

    def mask(self, vfid: int) -> int:
        """The VFID's bit positions as one int (memoized)."""
        mask = self._masks.get(vfid)
        if mask is None:
            mask = 0
            for pos in self.bit_positions(vfid):
                mask |= 1 << pos
            self._masks[vfid] = mask
        return mask

    def empty_bitmap(self) -> bytes:
        return bytes(self.size_bytes)

    @staticmethod
    def bits(bitmap: Optional[bytes]) -> int:
        """A wire bitmap as the int :meth:`mask` tests against (``None`` is 0)."""
        return 0 if bitmap is None else int.from_bytes(bitmap, "little")

    def contains(self, bitmap: Optional[bytes], vfid: int) -> bool:
        """Membership test against a wire bitmap (false positives possible).

        ``None`` and the bits a short bitmap lacks read as zero.
        """
        return self.contains_bits(self.bits(bitmap), vfid)

    def contains_bits(self, bits: int, vfid: int) -> bool:
        """:meth:`contains` against a filter already converted by :meth:`bits`."""
        mask = self._masks.get(vfid)
        if mask is None:
            mask = self.mask(vfid)
        return bits & mask == mask

    def encode(self, vfids: Iterable[int]) -> bytes:
        """Build a wire bitmap directly from a collection of VFIDs."""
        bits = bytearray(self.size_bytes)
        for vfid in vfids:
            for pos in self.bit_positions(vfid):
                bits[pos >> 3] |= 1 << (pos & 7)
        return bytes(bits)


class CountingBloomFilter:
    """The downstream switch's per-ingress pause filter.

    Each bit of the wire filter is backed by a small counter so that removing
    one VFID does not accidentally unpause another VFID sharing a bit
    position (§3.6: "If two paused VFIDs map to the same bloom filter bit
    position, the count will be two ...").

    The wire bitmap is maintained incrementally: a bit flips exactly when its
    counter crosses zero, so :meth:`to_bitmap` is a buffer copy rather than a
    scan of every counter.
    """

    def __init__(self, codec: BloomFilterCodec) -> None:
        self.codec = codec
        self._counts: List[int] = [0] * codec.num_bits
        self._bits = bytearray(codec.size_bytes)
        self._members = 0

    def __len__(self) -> int:
        """Number of add() calls currently outstanding (not distinct VFIDs)."""
        return self._members

    def add(self, vfid: int) -> None:
        counts = self._counts
        bits = self._bits
        for pos in self.codec.bit_positions(vfid):
            count = counts[pos]
            if count == 0:
                bits[pos >> 3] |= 1 << (pos & 7)
            counts[pos] = count + 1
        self._members += 1

    def remove(self, vfid: int) -> None:
        counts = self._counts
        positions = self.codec.bit_positions(vfid)
        for pos in positions:
            if counts[pos] <= 0:
                raise ValueError(f"removing VFID {vfid} that was never added")
        bits = self._bits
        for pos in positions:
            count = counts[pos] - 1
            counts[pos] = count
            if count == 0:
                bits[pos >> 3] &= ~(1 << (pos & 7))
        self._members -= 1

    def contains(self, vfid: int) -> bool:
        counts = self._counts
        for pos in self.codec.bit_positions(vfid):
            if counts[pos] <= 0:
                return False
        return True

    def is_empty(self) -> bool:
        return self._members == 0

    def to_bitmap(self) -> bytes:
        """The wire representation sent upstream (1 bit per non-zero counter)."""
        return bytes(self._bits)

    def max_counter(self) -> int:
        return max(self._counts) if self._counts else 0
