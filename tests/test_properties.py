"""Property-based tests (hypothesis) for the core data structures.

These check structural invariants under randomly generated operation
sequences: Bloom filters never produce false negatives, counting filters
support removal, DRR conserves work, is approximately fair and idles exactly
as a fruitless scan would, the flow table
and the shared buffer never lose track of their contents, and the empirical
distributions behave like CDFs.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planes import BFC_CLASSES, DRR_CLASSES
from repro.core.bloom import BloomFilterCodec, CountingBloomFilter
from repro.core.config import BfcConfig
from repro.core.queues import PhysicalQueuePool
from repro.sim.buffer import SharedBuffer
from repro.sim.disciplines import BLOCKED
from repro.sim.packet import FlowKey
from repro.sim.stats import percentile
from repro.workloads.distributions import GOOGLE, WEBSEARCH


# ---------------------------------------------------------------------------
# Bloom filters
# ---------------------------------------------------------------------------


@given(vfids=st.lists(st.integers(min_value=0, max_value=1 << 20), max_size=64))
def test_bloom_encode_has_no_false_negatives(vfids):
    codec = BloomFilterCodec(size_bytes=128, num_hashes=4)
    bitmap = codec.encode(vfids)
    assert all(codec.contains(bitmap, v) for v in vfids)


@given(
    members=st.sets(st.integers(min_value=0, max_value=1 << 16), max_size=40),
    removed_count=st.integers(min_value=0, max_value=40),
)
def test_counting_bloom_membership_after_removals(members, removed_count):
    codec = BloomFilterCodec(size_bytes=64, num_hashes=4)
    filt = CountingBloomFilter(codec)
    members = list(members)
    for vfid in members:
        filt.add(vfid)
    removed = members[:removed_count]
    kept = members[removed_count:]
    for vfid in removed:
        filt.remove(vfid)
    # No false negatives for the members that remain.
    assert all(filt.contains(v) for v in kept)
    if not kept:
        assert filt.is_empty()


@given(
    members=st.sets(st.integers(min_value=0, max_value=1 << 16), min_size=0, max_size=32)
)
def test_counting_bloom_bitmap_agrees_with_codec_encode(members):
    codec = BloomFilterCodec(size_bytes=32, num_hashes=4)
    filt = CountingBloomFilter(codec)
    for vfid in members:
        filt.add(vfid)
    assert filt.to_bitmap() == codec.encode(members)


# ---------------------------------------------------------------------------
# Deficit round robin
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("drr_class", DRR_CLASSES)
@given(
    backlogs=st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=8),
    packet_size=st.integers(min_value=64, max_value=1_048),
)
@settings(max_examples=50)
def test_drr_is_work_conserving(drr_class, backlogs, packet_size):
    """Every queued packet is eventually served, and no extra selections happen."""
    drr = drr_class(quantum=1_048)
    remaining = {qid: count for qid, count in enumerate(backlogs)}
    for qid in remaining:
        drr.activate(qid)

    def head_size(qid):
        return packet_size if remaining.get(qid, 0) > 0 else None

    total = sum(backlogs)
    served = []
    for _ in range(total):
        qid = drr.select(head_size)
        assert qid is not None
        remaining[qid] -= 1
        assert remaining[qid] >= 0
        served.append(qid)
    assert drr.select(head_size) is None
    assert sum(remaining.values()) == 0


@pytest.mark.parametrize("drr_class", DRR_CLASSES)
@given(num_queues=st.integers(min_value=2, max_value=8))
@settings(max_examples=30)
def test_drr_fairness_for_backlogged_queues(drr_class, num_queues):
    """Continuously-backlogged queues with equal packet sizes get equal service."""
    drr = drr_class(quantum=1_000)
    for qid in range(num_queues):
        drr.activate(qid)
    counts = {qid: 0 for qid in range(num_queues)}
    rounds = 40 * num_queues
    for _ in range(rounds):
        qid = drr.select(lambda q: 1_000)
        counts[qid] += 1
    expected = rounds / num_queues
    assert all(abs(c - expected) <= 1 for c in counts.values())


class TextbookDrr:
    """Shreedhar & Varghese's loop, one queue visit per step: the oracle.

    Every visit probes its queue, parked or not; a queue with nothing to send
    answers ``None`` at each of them.
    """

    def __init__(self, quantum):
        self.quantum = quantum
        self.active = []
        self.deficits = {}
        self.cursor = 0
        self.current = None

    def activate(self, qid):
        if qid not in self.deficits:
            self.deficits[qid] = 0
            self.active.append(qid)

    def deactivate(self, qid):
        if qid not in self.deficits:
            return
        del self.deficits[qid]
        idx = self.active.index(qid)
        self.active.pop(idx)
        if idx < self.cursor:
            self.cursor -= 1
        self.cursor = self.cursor % len(self.active) if self.active else 0
        if self.current == qid:
            self.current = None

    def select(self, probe):
        active, deficits = self.active, self.deficits
        visited = 0
        while True:
            qid = self.current
            if qid is not None:
                size = probe(qid)
                if size is not None and size != BLOCKED and deficits[qid] >= size:
                    deficits[qid] -= size
                    return qid
                if size is None:
                    deficits[qid] = 0
                self.current = None
                continue
            if visited >= 2 * len(active) + 1 or not active:
                return None
            visited += 1
            qid = active[self.cursor]
            self.cursor = (self.cursor + 1) % len(active)
            size = probe(qid)
            if size is None or size == BLOCKED:
                continue
            deficits[qid] += self.quantum
            self.current = qid

    def state(self):
        return list(self.active), self.cursor, self.current, dict(self.deficits)


def drr_state(drr):
    """What a caller can see of a ``DeficitRoundRobin``: round, cursor, turn, deficits."""
    active = drr.active_queues()
    return active, drr.cursor, drr.current, {qid: drr.deficit(qid) for qid in active}


QUEUE_IDS = st.integers(min_value=0, max_value=5)
HEADS = st.one_of(st.just(BLOCKED), st.sampled_from([64, 700, 1_048, 2_500]))
DRR_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("activate"), QUEUE_IDS),
        st.tuples(st.just("deactivate"), QUEUE_IDS),
        st.tuples(st.just("drain"), QUEUE_IDS),
        st.tuples(st.just("select"), st.dictionaries(QUEUE_IDS, HEADS)),
        st.tuples(st.just("idle")),
    ),
    max_size=60,
)


class DrainingQueues:
    """The queues' side of a DRR run, shared by the scheduler under test and the oracle.

    A drained queue has nothing to send, so its probe answers ``None`` until
    the next ``activate`` of it (new data: the revive).  The scheduler under
    test must never probe a queue it parked — one that answered it ``None``
    since its last ``activate``.
    """

    def __init__(self):
        self.drained = set()
        self.parked = set()

    def apply(self, op, drr, ref):
        """Run ``op`` on both; returns the two picks of a select, else None."""
        if op[0] == "drain":
            self.drained.add(op[1])
            return None
        if op[0] == "select":
            heads = op[1]

            def head(qid):
                return None if qid in self.drained else heads.get(qid, 1_000)

            def probe(qid):
                assert qid not in self.parked, f"probed parked queue {qid}"
                size = head(qid)
                if size is None:
                    self.parked.add(qid)
                return size

            return drr.select(probe), ref.select(head)
        if op[0] == "idle":
            drr.idle()
            assert ref.select(lambda qid: BLOCKED) is None
            return None
        self.drained.discard(op[1])
        self.parked.discard(op[1])
        getattr(drr, op[0])(op[1])
        getattr(ref, op[0])(op[1])
        return None


@pytest.mark.parametrize("drr_class", DRR_CLASSES)
@given(ops=DRR_OPS)
@example(
    ops=[
        ("activate", 0), ("activate", 1), ("activate", 2), ("drain", 1),
        ("select", {}), ("select", {}), ("select", {}), ("activate", 1),
        ("select", {}), ("select", {}),
    ]
)
@example(  # a queue unparked behind later ones keeps its place in the round
    ops=[
        ("activate", 2), ("drain", 2), ("activate", 0), ("select", {}),
        ("activate", 2), ("deactivate", 0),
    ]
)
@settings(max_examples=300, deadline=None)
def test_drr_select_matches_the_textbook_loop(drr_class, ops):
    """Same choice and same observable state after every step.

    Drained queues answer ``None`` (and are parked) until re-activated; a
    queue missing from a select's mapping has a 1,000-byte head.
    """
    drr = drr_class(quantum=1_048)
    ref = TextbookDrr(quantum=1_048)
    queues = DrainingQueues()
    for op in ops:
        picks = queues.apply(op, drr, ref)
        if picks is not None:
            assert picks[0] == picks[1]
        assert drr_state(drr) == ref.state()


@pytest.mark.parametrize("drr_class", DRR_CLASSES)
@given(ops=DRR_OPS)
@settings(max_examples=150, deadline=None)
def test_drr_idle_matches_a_select_that_finds_every_queue_blocked(drr_class, ops):
    """``idle()`` is the state change of a fruitless ``select``, without the scan.

    The state is reached by the same random operations (parked queues
    included) on two schedulers; the fruitless select probes no parked queue.
    """

    def drr_in_state():
        drr, ref = drr_class(quantum=1_048), TextbookDrr(quantum=1_048)
        queues = DrainingQueues()
        for op in ops:
            queues.apply(op, drr, ref)
        return drr, queues

    (idled, _), (scanned, queues) = drr_in_state(), drr_in_state()
    idled.idle()

    def blocked(qid):
        assert qid not in queues.parked
        return BLOCKED

    assert scanned.select(blocked) is None
    assert drr_state(idled) == drr_state(scanned)


# ---------------------------------------------------------------------------
# Physical queue pool
# ---------------------------------------------------------------------------


@given(
    vfids=st.lists(st.integers(min_value=0, max_value=16_383), min_size=1, max_size=64),
    num_queues=st.integers(min_value=1, max_value=32),
)
@settings(max_examples=50)
def test_queue_pool_assign_release_invariants(vfids, num_queues):
    pool = PhysicalQueuePool(BfcConfig(num_physical_queues=num_queues))
    assigned = []
    for vfid in vfids:
        queue = pool.assign(vfid)
        assert 0 <= queue < num_queues
        assigned.append(queue)
    assert pool.occupied_queues() <= num_queues
    assert pool.occupied_queues() <= len(vfids)
    # Collisions happen exactly when demand exceeds the queue count.
    if len(vfids) <= num_queues:
        assert pool.stats.collisions == 0
    for queue in assigned:
        pool.release(queue)
    assert pool.occupied_queues() == 0
    assert pool.free_queues() == num_queues


# ---------------------------------------------------------------------------
# Flow table
# ---------------------------------------------------------------------------


@given(
    operations=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=63),   # vfid
            st.integers(min_value=0, max_value=3),    # ingress
            st.integers(min_value=0, max_value=3),    # egress
        ),
        max_size=120,
    )
)
@settings(max_examples=50)
@pytest.mark.parametrize("bfc", BFC_CLASSES)
def test_flow_table_insert_remove_invariants(bfc, operations):
    table = bfc.FlowTable(BfcConfig(num_vfids=64, table_bucket_size=2, overflow_cache_entries=8))
    live = {}
    overflowed = 0
    for vfid, ingress, egress in operations:
        entry = table.lookup_or_insert(vfid, ingress, egress)
        if entry is None:
            overflowed += 1
            continue
        live.setdefault((vfid, ingress, egress), entry)
        assert table.lookup(vfid, ingress, egress) is live[(vfid, ingress, egress)]
    assert table.active_entries() == len(live)
    for key, entry in live.items():
        table.remove(entry)
        assert table.lookup(*key) is None
    assert table.active_entries() == 0
    assert table.stats.cache_overflows == overflowed


class BucketListTable:
    """Reference flow table: a list per VFID bucket plus an overflow-cache dict.

    This is the structure :class:`FlowTable` modelled the hardware with before
    it became one dict with bucket *counts*; entries here are plain dicts.
    """

    def __init__(self, bucket_size, cache_entries):
        self.bucket_size = bucket_size
        self.cache_entries = cache_entries
        self.buckets = {}
        self.cache = {}
        self.stats = dict.fromkeys(
            ("inserts", "vfid_collisions", "bucket_overflows", "cache_overflows",
             "max_active_entries"), 0
        )

    def lookup(self, vfid, ingress, egress):
        for entry in self.buckets.get(vfid, ()):
            if (entry["ingress"], entry["egress"]) == (ingress, egress):
                return entry
        return self.cache.get((vfid, ingress, egress))

    def active(self):
        return sum(len(b) for b in self.buckets.values()) + len(self.cache)

    def lookup_or_insert(self, vfid, ingress, egress, key):
        entry = self.lookup(vfid, ingress, egress)
        if entry is not None:
            if entry["key"] is not None and entry["packets"] > 0 and key != entry["key"]:
                self.stats["vfid_collisions"] += 1
            entry["key"] = key
            return entry
        self.stats["inserts"] += 1
        entry = {"vfid": vfid, "ingress": ingress, "egress": egress, "key": key,
                 "packets": 0, "cached": False}
        bucket = self.buckets.setdefault(vfid, [])
        if len(bucket) < self.bucket_size:
            bucket.append(entry)
        else:
            self.stats["bucket_overflows"] += 1
            if len(self.cache) >= self.cache_entries:
                self.stats["cache_overflows"] += 1
                return None
            entry["cached"] = True
            self.cache[(vfid, ingress, egress)] = entry
        self.stats["max_active_entries"] = max(self.stats["max_active_entries"], self.active())
        return entry

    def remove(self, entry):
        if entry["cached"]:
            del self.cache[(entry["vfid"], entry["ingress"], entry["egress"])]
        else:
            self.buckets[entry["vfid"]].remove(entry)


@given(
    operations=st.lists(
        st.one_of(
            st.tuples(
                st.just("packet"),
                st.integers(min_value=0, max_value=2),    # vfid: few, so buckets fill
                st.integers(min_value=0, max_value=3),    # ingress
                st.integers(min_value=0, max_value=1),    # egress
                st.integers(min_value=0, max_value=2),    # which real flow (key)
            ),
            st.tuples(st.just("depart"), st.integers(min_value=0)),
        ),
        max_size=150,
    )
)
@settings(max_examples=150, deadline=None)
@pytest.mark.parametrize("bfc", BFC_CLASSES)
def test_flow_table_matches_bucket_list_model(bfc, operations):
    """Counts in place of bucket lists, and recycled entries, change nothing."""
    table = bfc.FlowTable(BfcConfig(num_vfids=64, table_bucket_size=4, overflow_cache_entries=2))
    model = BucketListTable(bucket_size=4, cache_entries=2)
    keys = [FlowKey(src=i, dst=9, src_port=i, dst_port=1) for i in range(3)]
    live = []  # (entry, model entry) pairs with packets queued
    for op in operations:
        if op[0] == "packet":
            _, vfid, ingress, egress, flow = op
            entry = table.lookup_or_insert(vfid, ingress, egress, key=keys[flow])
            mirror = model.lookup_or_insert(vfid, ingress, egress, keys[flow])
            assert (entry is None) == (mirror is None)
            if entry is None:
                continue
            if mirror["packets"] == 0:
                # A new entry, possibly a recycled object: nothing of its
                # previous flow may show through.
                assert (entry.queue, entry.packets, entry.bytes) == (None, 0, 0)
                assert not entry.paused_upstream and not entry.resume_pending
                live.append((entry, mirror))
            assert entry.identity() == (vfid, ingress, egress)
            assert entry.in_overflow_cache == mirror["cached"]
            assert entry.current_key is keys[flow]
            entry.packets += 1
            mirror["packets"] += 1
        elif live:
            entry, mirror = live[op[1] % len(live)]
            entry.packets -= 1
            mirror["packets"] -= 1
            if entry.packets == 0:
                live.remove((entry, mirror))
                # Leave the state a paused, queued flow would: reuse must reset it.
                entry.queue, entry.paused_upstream, entry.resume_pending = 7, True, True
                entry.bytes = 1_000
                table.remove(entry)
                model.remove(mirror)
                with pytest.raises(KeyError):
                    table.remove(entry)
        assert dataclasses.asdict(table.stats) == model.stats
        assert table.active_entries() == model.active() == len(live)
        for entry, mirror in live:
            assert table.lookup(*entry.identity()) is entry
            assert model.lookup(*entry.identity()) is mirror
        assert len({id(entry) for entry, _ in live}) == len(live)  # one object, one flow


# ---------------------------------------------------------------------------
# Shared buffer
# ---------------------------------------------------------------------------


@given(
    operations=st.lists(
        st.tuples(st.integers(min_value=1, max_value=2_000), st.integers(min_value=0, max_value=4)),
        max_size=100,
    )
)
@settings(max_examples=50)
def test_shared_buffer_conservation(operations):
    buffer = SharedBuffer(capacity_bytes=10_000)
    admitted = []
    for size, ingress in operations:
        if buffer.admit(size, ingress):
            admitted.append((size, ingress))
        assert 0 <= buffer.used <= buffer.capacity
        assert buffer.used == sum(buffer.per_ingress.values())
    for size, ingress in admitted:
        buffer.release(size, ingress)
    assert buffer.used == 0
    assert all(v == 0 for v in buffer.per_ingress.values())


# ---------------------------------------------------------------------------
# Distributions and percentiles
# ---------------------------------------------------------------------------


@given(u=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_distribution_quantile_within_support(u):
    for dist in (GOOGLE, WEBSEARCH):
        size = dist.quantile(u)
        assert 1 <= size <= dist.max_size()


@given(
    a=st.floats(min_value=0, max_value=1, allow_nan=False),
    b=st.floats(min_value=0, max_value=1, allow_nan=False),
)
def test_distribution_quantile_monotone(a, b):
    lo, hi = min(a, b), max(a, b)
    assert GOOGLE.quantile(lo) <= GOOGLE.quantile(hi)


@given(
    values=st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=200),
    q=st.floats(min_value=0, max_value=100, allow_nan=False),
)
def test_percentile_bounded_by_extremes(values, q):
    result = percentile(values, q)
    assert min(values) <= result <= max(values)
    assert not math.isnan(result)


@given(vfid_space=st.integers(min_value=1, max_value=1 << 20))
def test_flow_key_vfid_always_in_range(vfid_space):
    key = FlowKey(src=1, dst=2, src_port=3, dst_port=4)
    assert 0 <= key.vfid(vfid_space) < vfid_space
