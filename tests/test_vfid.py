"""Unit tests for VFID hashing and the virtual-flow hash table, on both planes."""

import pytest

from planes import BFC_CLASSES
from repro.core.config import BfcConfig
from repro.sim.packet import FlowKey, Packet, PacketKind

pytestmark = pytest.mark.parametrize("bfc", BFC_CLASSES)


def make_packet(src=1, dst=2, sport=10):
    return Packet(
        kind=PacketKind.DATA,
        flow_id=1,
        key=FlowKey(src=src, dst=dst, src_port=sport, dst_port=4791),
        size=1_000,
    )


class TestPacketVfid:
    def test_matches_key_vfid(self, bfc):
        packet = make_packet()
        assert bfc.packet_vfid(packet, 16_384) == packet.key.vfid(16_384)

    def test_cached_value_reused(self, bfc):
        packet = make_packet()
        first = bfc.packet_vfid(packet, 16_384)
        packet.key = FlowKey(src=9, dst=9, src_port=9, dst_port=9)  # cache should win
        assert bfc.packet_vfid(packet, 16_384) == first

    def test_cache_invalidated_for_different_space(self, bfc):
        packet = make_packet()
        a = bfc.packet_vfid(packet, 16_384)
        b = bfc.packet_vfid(packet, 1_024)
        assert b == packet.key.vfid(1_024)
        assert 0 <= b < 1_024


class TestFlowTable:
    def make_table(self, bfc, **overrides):
        config = BfcConfig(**overrides) if overrides else BfcConfig()
        return bfc.FlowTable(config)

    def test_insert_and_lookup(self, bfc):
        table = self.make_table(bfc)
        entry = table.lookup_or_insert(5, ingress=1, egress=2)
        assert isinstance(entry, bfc.FlowEntry)
        assert table.lookup(5, 1, 2) is entry
        assert table.active_entries() == 1

    def test_lookup_missing_returns_none(self, bfc):
        table = self.make_table(bfc)
        assert table.lookup(5, 1, 2) is None

    def test_same_vfid_different_ports_distinct_entries(self, bfc):
        table = self.make_table(bfc)
        a = table.lookup_or_insert(5, ingress=1, egress=2)
        b = table.lookup_or_insert(5, ingress=3, egress=2)
        c = table.lookup_or_insert(5, ingress=1, egress=4)
        assert a is not b and a is not c and b is not c
        assert table.active_entries() == 3

    def test_same_identity_returns_same_entry(self, bfc):
        table = self.make_table(bfc)
        a = table.lookup_or_insert(5, 1, 2)
        b = table.lookup_or_insert(5, 1, 2)
        assert a is b
        assert table.stats.inserts == 1

    def test_remove_reclaims_entry(self, bfc):
        table = self.make_table(bfc)
        entry = table.lookup_or_insert(5, 1, 2)
        table.remove(entry)
        assert table.lookup(5, 1, 2) is None
        assert table.active_entries() == 0

    def test_removed_entry_is_recycled_clean(self, bfc):
        table = self.make_table(bfc)
        entry = table.lookup_or_insert(5, 1, 2, key=FlowKey(1, 2, 3, 4))
        entry.packets, entry.bytes, entry.queue = 2, 2_000, 9
        entry.paused_upstream = entry.resume_pending = True
        table.remove(entry)
        again = table.lookup_or_insert(6, 3, 4)
        assert again is entry  # the same object serves the next flow
        assert again.identity() == (6, 3, 4)
        assert (again.packets, again.bytes, again.queue, again.current_key) == (0, 0, None, None)
        assert not again.paused_upstream and not again.resume_pending
        assert not again.in_overflow_cache

    def test_double_remove_raises(self, bfc):
        table = self.make_table(bfc)
        entry = table.lookup_or_insert(5, 1, 2)
        table.remove(entry)
        with pytest.raises(KeyError):
            table.remove(entry)
        assert table.active_entries() == 0

    def test_bucket_overflow_goes_to_cache(self, bfc):
        table = self.make_table(bfc, table_bucket_size=2)
        entries = [table.lookup_or_insert(5, ingress=i, egress=0) for i in range(4)]
        assert all(e is not None for e in entries)
        assert table.stats.bucket_overflows == 2
        assert sum(1 for e in entries if e.in_overflow_cache) == 2

    def test_cache_overflow_returns_none(self, bfc):
        table = self.make_table(bfc, table_bucket_size=1, overflow_cache_entries=2)
        results = [table.lookup_or_insert(5, ingress=i, egress=0) for i in range(5)]
        assert results[0] is not None            # bucket
        assert results[1] is not None and results[2] is not None  # cache
        assert results[3] is None and results[4] is None          # overflow queue
        assert table.stats.cache_overflows == 2

    def test_cache_entry_lookup_and_remove(self, bfc):
        table = self.make_table(bfc, table_bucket_size=1)
        first = table.lookup_or_insert(5, ingress=0, egress=0)
        cached = table.lookup_or_insert(5, ingress=1, egress=0)
        assert cached.in_overflow_cache
        assert table.lookup(5, 1, 0) is cached
        table.remove(cached)
        assert table.lookup(5, 1, 0) is None
        assert table.lookup(5, 0, 0) is first

    def test_vfid_collision_counted(self, bfc):
        table = self.make_table(bfc)
        key_a = FlowKey(src=1, dst=2, src_port=1, dst_port=1)
        key_b = FlowKey(src=3, dst=4, src_port=9, dst_port=9)
        entry = table.lookup_or_insert(5, 1, 2, key=key_a)
        entry.packets = 3  # the first flow still has packets queued
        table.lookup_or_insert(5, 1, 2, key=key_b)
        assert table.stats.vfid_collisions == 1

    def test_no_collision_when_entry_idle(self, bfc):
        table = self.make_table(bfc)
        key_a = FlowKey(src=1, dst=2, src_port=1, dst_port=1)
        key_b = FlowKey(src=3, dst=4, src_port=9, dst_port=9)
        table.lookup_or_insert(5, 1, 2, key=key_a)
        table.lookup_or_insert(5, 1, 2, key=key_b)  # previous flow has no packets
        assert table.stats.vfid_collisions == 0

    def test_max_active_entries_tracked(self, bfc):
        table = self.make_table(bfc)
        entries = [table.lookup_or_insert(v, 0, 0) for v in range(10)]
        for entry in entries:
            table.remove(entry)
        assert table.stats.max_active_entries == 10
        assert table.active_entries() == 0

    def test_entries_listing(self, bfc):
        table = self.make_table(bfc, table_bucket_size=1)
        table.lookup_or_insert(1, 0, 0)
        table.lookup_or_insert(1, 1, 0)  # lands in the cache
        assert len(table.entries()) == 2

    def test_memory_budget_matches_paper(self, bfc):
        # 16K VFIDs x 4-entry buckets x 4 bytes/entry = 256 KB (paper §3.8).
        table = self.make_table(bfc)
        assert table.memory_bytes(entry_bytes=4) == 256 * 1024


class TestFlowEntry:
    def test_identity_tuple(self, bfc):
        entry = bfc.FlowEntry(vfid=7, ingress=1, egress=2)
        assert entry.identity() == (7, 1, 2)

    def test_is_idle(self, bfc):
        entry = bfc.FlowEntry(vfid=7, ingress=1, egress=2)
        assert entry.is_idle()
        entry.packets = 1
        assert not entry.is_idle()
