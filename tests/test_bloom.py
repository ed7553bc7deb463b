"""Unit tests for the BFC Bloom filters."""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bloom import BloomFilterCodec, CountingBloomFilter


class TestCodec:
    def test_positions_deterministic(self):
        codec = BloomFilterCodec(size_bytes=128, num_hashes=4)
        assert codec.bit_positions(1234) == codec.bit_positions(1234)

    def test_positions_in_range(self):
        codec = BloomFilterCodec(size_bytes=16, num_hashes=4)
        for vfid in range(500):
            assert all(0 <= p < 128 for p in codec.bit_positions(vfid))

    def test_number_of_positions(self):
        codec = BloomFilterCodec(size_bytes=128, num_hashes=7)
        assert len(codec.bit_positions(42)) == 7

    def test_identical_codecs_agree_across_instances(self):
        # The two ends of a link build their codecs independently.
        downstream = BloomFilterCodec(size_bytes=128, num_hashes=4)
        upstream = BloomFilterCodec(size_bytes=128, num_hashes=4)
        bitmap = downstream.encode([1, 2, 3])
        assert upstream.contains(bitmap, 1)
        assert upstream.contains(bitmap, 2)

    def test_empty_bitmap_contains_nothing(self):
        codec = BloomFilterCodec()
        bitmap = codec.empty_bitmap()
        assert all(not codec.contains(bitmap, v) for v in range(100))

    def test_contains_none_bitmap(self):
        codec = BloomFilterCodec()
        assert not codec.contains(None, 5)

    def test_encode_no_false_negatives(self):
        codec = BloomFilterCodec(size_bytes=128, num_hashes=4)
        members = list(range(0, 320, 7))
        bitmap = codec.encode(members)
        assert all(codec.contains(bitmap, m) for m in members)

    def test_false_positive_rate_is_low_for_sparse_filters(self):
        # Paper: with at most 32 paused flows per ingress and 4 hashes the
        # false positive probability is tiny.
        codec = BloomFilterCodec(size_bytes=128, num_hashes=4)
        members = list(range(32))
        bitmap = codec.encode(members)
        false_positives = sum(
            1 for v in range(1_000, 11_000) if codec.contains(bitmap, v)
        )
        assert false_positives <= 2

    def test_small_filter_has_more_false_positives(self):
        small = BloomFilterCodec(size_bytes=16, num_hashes=4)
        large = BloomFilterCodec(size_bytes=128, num_hashes=4)
        members = list(range(64))
        probes = range(10_000, 20_000)
        fp_small = sum(1 for v in probes if small.contains(small.encode(members), v))
        fp_large = sum(1 for v in probes if large.contains(large.encode(members), v))
        assert fp_small > fp_large

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BloomFilterCodec(size_bytes=0)
        with pytest.raises(ValueError):
            BloomFilterCodec(num_hashes=0)


class TestCountingBloomFilter:
    def test_add_then_contains(self):
        filt = CountingBloomFilter(BloomFilterCodec())
        filt.add(77)
        assert filt.contains(77)
        assert len(filt) == 1

    def test_remove_clears_membership(self):
        filt = CountingBloomFilter(BloomFilterCodec())
        filt.add(77)
        filt.remove(77)
        assert not filt.contains(77)
        assert filt.is_empty()

    def test_shared_bits_survive_removal(self):
        """The paper's motivating case: two VFIDs sharing a bit position must
        not unpause each other when one is removed."""
        codec = BloomFilterCodec(size_bytes=2, num_hashes=2)  # force collisions
        filt = CountingBloomFilter(codec)
        # Find two VFIDs sharing at least one bit position.
        a = 1
        b = next(
            v
            for v in range(2, 10_000)
            if set(codec.bit_positions(v)) & set(codec.bit_positions(a))
        )
        filt.add(a)
        filt.add(b)
        filt.remove(a)
        assert filt.contains(b)

    def test_remove_unknown_vfid_rejected(self):
        filt = CountingBloomFilter(BloomFilterCodec())
        with pytest.raises(ValueError):
            filt.remove(123)

    def test_remove_twice_rejected(self):
        filt = CountingBloomFilter(BloomFilterCodec())
        filt.add(5)
        filt.remove(5)
        with pytest.raises(ValueError):
            filt.remove(5)

    def test_bitmap_roundtrip_to_codec(self):
        codec = BloomFilterCodec(size_bytes=64, num_hashes=4)
        filt = CountingBloomFilter(codec)
        for vfid in (3, 1_000, 9_999):
            filt.add(vfid)
        bitmap = filt.to_bitmap()
        assert len(bitmap) == 64
        assert all(codec.contains(bitmap, v) for v in (3, 1_000, 9_999))

    def test_bitmap_of_empty_filter_is_zero(self):
        filt = CountingBloomFilter(BloomFilterCodec(size_bytes=32))
        assert filt.to_bitmap() == bytes(32)

    def test_max_counter_tracks_overlap(self):
        codec = BloomFilterCodec(size_bytes=1, num_hashes=1)
        filt = CountingBloomFilter(codec)
        # With 8 bits and one hash, 20 adds force some counter above 1.
        for vfid in range(20):
            filt.add(vfid)
        assert filt.max_counter() >= 2

    def test_double_add_requires_double_remove(self):
        filt = CountingBloomFilter(BloomFilterCodec())
        filt.add(7)
        filt.add(7)
        filt.remove(7)
        assert filt.contains(7)
        filt.remove(7)
        assert not filt.contains(7)


# ---------------------------------------------------------------------------
# Oracle: the int-mask codec against the byte-wise implementation it replaced
# ---------------------------------------------------------------------------


class _ReferenceCodec:
    """Memoized bit positions and a byte-wise membership loop."""

    def __init__(self, size_bytes, num_hashes, salt):
        self.num_bits = size_bytes * 8
        self.num_hashes = num_hashes
        self.salt = salt
        self._positions = {}

    def bit_positions(self, vfid):
        positions = self._positions.get(vfid)
        if positions is None:
            positions = tuple(
                zlib.crc32(b"%d:%d:%d" % (self.salt, i, vfid)) % self.num_bits
                for i in range(self.num_hashes)
            )
            self._positions[vfid] = positions
        return positions

    def contains(self, bitmap, vfid):
        if bitmap is None:
            return False
        for pos in self.bit_positions(vfid):
            byte_index, mask = pos >> 3, 1 << (pos & 7)
            if byte_index >= len(bitmap) or not bitmap[byte_index] & mask:
                return False
        return True


class _ReferenceCountingFilter:
    def __init__(self, codec):
        self.codec = codec
        self.counts = [0] * codec.num_bits

    def add(self, vfid):
        for pos in self.codec.bit_positions(vfid):
            self.counts[pos] += 1

    def remove(self, vfid):
        positions = self.codec.bit_positions(vfid)
        if any(self.counts[pos] <= 0 for pos in positions):
            raise ValueError(vfid)
        for pos in positions:
            self.counts[pos] -= 1

    def to_bitmap(self):
        bits = bytearray(len(self.counts) // 8)
        for pos, count in enumerate(self.counts):
            if count:
                bits[pos >> 3] |= 1 << (pos & 7)
        return bytes(bits)


_geometries = st.tuples(
    st.integers(min_value=1, max_value=32),  # size_bytes
    st.integers(min_value=1, max_value=6),  # num_hashes
    st.integers(min_value=0, max_value=3),  # salt
)
_vfids = st.integers(min_value=0, max_value=1 << 16)


@settings(max_examples=200, deadline=None)
@given(
    geometry=_geometries,
    members=st.lists(_vfids, max_size=24),
    probes=st.lists(_vfids, min_size=1, max_size=24),
    bitmap_kind=st.sampled_from(["encoded", "truncated", "extended", "random", "none"]),
    cut=st.integers(min_value=0, max_value=40),
    noise=st.binary(max_size=40),
)
def test_contains_matches_the_bytewise_reference(
    geometry, members, probes, bitmap_kind, cut, noise
):
    codec = BloomFilterCodec(*geometry)
    reference = _ReferenceCodec(*geometry)
    bitmap = codec.encode(members)
    if bitmap_kind == "truncated":
        bitmap = bitmap[:cut]
    elif bitmap_kind == "extended":
        bitmap = bitmap + noise
    elif bitmap_kind == "random":
        bitmap = noise
    elif bitmap_kind == "none":
        bitmap = None
    for vfid in members + probes:
        expected = reference.contains(bitmap, vfid)
        assert codec.contains(bitmap, vfid) == expected
        assert codec.contains_bits(codec.bits(bitmap), vfid) == expected
    assert len(codec._masks) <= len(set(members + probes))


@settings(max_examples=200, deadline=None)
@given(
    geometry=_geometries,
    ops=st.lists(st.tuples(st.booleans(), st.integers(min_value=0, max_value=40)), max_size=60),
)
def test_counting_filter_matches_the_memoized_positions_reference(geometry, ops):
    codec = BloomFilterCodec(*geometry)
    reference_codec = _ReferenceCodec(*geometry)
    filt = CountingBloomFilter(codec)
    reference = _ReferenceCountingFilter(reference_codec)
    outstanding = 0
    for is_add, vfid in ops:
        if is_add:
            filt.add(vfid)
            reference.add(vfid)
            outstanding += 1
        else:
            try:
                reference.remove(vfid)
            except ValueError:
                with pytest.raises(ValueError):
                    filt.remove(vfid)
            else:
                filt.remove(vfid)
                outstanding -= 1
        assert len(filt) == outstanding
        assert filt.max_counter() == max(reference.counts)
        assert filt.to_bitmap() == reference.to_bitmap()
    for vfid in range(41):
        expected = all(reference.counts[p] > 0 for p in reference_codec.bit_positions(vfid))
        assert filt.contains(vfid) == expected
