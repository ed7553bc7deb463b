"""Unit tests for physical-queue assignment and pause thresholds / resume lists."""

import random

import pytest

from repro.core.config import BfcConfig
from repro.core.pause import PauseThresholds, ResumeList
from repro.core.queues import PhysicalQueuePool
from repro.sim import units


class TestPhysicalQueuePool:
    def test_distinct_queues_until_exhausted(self):
        pool = PhysicalQueuePool(BfcConfig(num_physical_queues=8))
        queues = [pool.assign(vfid=i) for i in range(8)]
        assert sorted(queues) == list(range(8))
        assert pool.stats.collisions == 0
        assert pool.occupied_queues() == 8
        assert pool.free_queues() == 0

    def test_collision_when_all_queues_taken(self):
        pool = PhysicalQueuePool(BfcConfig(num_physical_queues=4))
        for i in range(4):
            pool.assign(i)
        extra = pool.assign(99)
        assert 0 <= extra < 4
        assert pool.stats.collisions == 1
        assert pool.assigned_flows(extra) == 2

    def test_release_returns_queue_to_free_pool(self):
        pool = PhysicalQueuePool(BfcConfig(num_physical_queues=2))
        q0 = pool.assign(0)
        q1 = pool.assign(1)
        pool.release(q0)
        assert pool.free_queues() == 1
        q2 = pool.assign(2)
        assert q2 == q0
        assert pool.stats.collisions == 0

    def test_release_without_assignment_rejected(self):
        pool = PhysicalQueuePool(BfcConfig(num_physical_queues=2))
        with pytest.raises(ValueError):
            pool.release(0)

    def test_shared_queue_released_only_when_last_flow_leaves(self):
        pool = PhysicalQueuePool(BfcConfig(num_physical_queues=1))
        q = pool.assign(0)
        q2 = pool.assign(1)  # collision, same queue
        assert q == q2
        pool.release(q)
        assert pool.occupied_queues() == 1
        pool.release(q)
        assert pool.occupied_queues() == 0

    def test_static_assignment_uses_vfid_hash(self):
        config = BfcConfig(num_physical_queues=8, static_queue_assignment=True)
        pool = PhysicalQueuePool(config)
        assert pool.assign(vfid=13) == 13 % 8
        assert pool.assign(vfid=21) == 21 % 8
        # Same hash bucket counts as a collision if already occupied.
        pool2 = PhysicalQueuePool(config)
        pool2.assign(vfid=3)
        pool2.assign(vfid=3 + 8)
        assert pool2.stats.collisions == 1

    def test_static_assignment_collides_more_than_dynamic(self):
        rng = random.Random(0)
        vfids = [rng.randrange(16_384) for _ in range(24)]
        dynamic = PhysicalQueuePool(BfcConfig(num_physical_queues=32))
        static = PhysicalQueuePool(
            BfcConfig(num_physical_queues=32, static_queue_assignment=True)
        )
        for v in vfids:
            dynamic.assign(v)
            static.assign(v)
        assert dynamic.stats.collisions == 0
        assert static.stats.collisions > 0

    def test_collision_fraction(self):
        pool = PhysicalQueuePool(BfcConfig(num_physical_queues=1))
        pool.assign(0)
        pool.assign(1)
        assert pool.stats.collision_fraction() == pytest.approx(0.5)


class TestPauseThresholds:
    def test_threshold_formula(self):
        """Th = (HRTT + tau) * mu / Nactive with tau = HRTT/2."""
        config = BfcConfig(hop_rtt_ns=2_000, mtu=1000)
        thresholds = PauseThresholds(config, units.gbps(100), link_delay_ns=1_000)
        assert thresholds.hop_rtt_ns == 2_000
        assert thresholds.pause_interval_ns == 1_000
        # (2 us + 1 us) * 12.5 GB/s = 37.5 KB for one active queue.
        assert thresholds.by_count[1] == pytest.approx(37_500, rel=0.01)
        assert thresholds.by_count[10] == pytest.approx(3_750, rel=0.01)

    def test_nactive_floor_of_one(self):
        config = BfcConfig(hop_rtt_ns=2_000)
        thresholds = PauseThresholds(config, units.gbps(10), 1_000)
        assert thresholds.by_count[0] == thresholds.by_count[1]

    def test_table_covers_every_count_the_discipline_can_index(self):
        config = BfcConfig(num_physical_queues=8, pause_threshold_factor=1.7)
        thresholds = PauseThresholds(config, units.gbps(25), link_delay_ns=700)
        # 0..9 active: 8 physical queues + the overflow queue.
        one_queue = 1.7 * thresholds.feedback_delay_ns() * units.gbps(25) / 8e9
        assert thresholds.by_count == pytest.approx(
            [one_queue / max(1, n) for n in range(10)], rel=1e-12
        )

    def test_derived_hop_rtt_includes_serialization(self):
        config = BfcConfig(mtu=1000)
        thresholds = PauseThresholds(config, units.gbps(10), link_delay_ns=1_000)
        # 2 * (1 us propagation + ~0.84 us serialization) ~ 3.7 us.
        assert 3_000 < thresholds.hop_rtt_ns < 4_500
        assert thresholds.pause_interval_ns == thresholds.hop_rtt_ns // 2

    def test_threshold_factor_scales(self):
        base = PauseThresholds(BfcConfig(hop_rtt_ns=2_000), units.gbps(10), 1_000)
        double = PauseThresholds(
            BfcConfig(hop_rtt_ns=2_000, pause_threshold_factor=2.0), units.gbps(10), 1_000
        )
        assert double.by_count[4] == pytest.approx(2 * base.by_count[4])

    def test_feedback_delay(self):
        thresholds = PauseThresholds(BfcConfig(hop_rtt_ns=2_000), units.gbps(10), 1_000)
        assert thresholds.feedback_delay_ns() == 3_000


class TestResumeList:
    def test_fifo_order(self):
        lst = ResumeList()
        lst.add(1, 0)
        lst.add(2, 0)
        lst.add(3, 1)
        assert lst.pop() == (1, 0)
        assert lst.pop() == (2, 0)
        assert lst.pop() == (3, 1)
        assert lst.pop() is None

    def test_duplicate_add_rejected(self):
        lst = ResumeList()
        assert lst.add(1, 0)
        assert not lst.add(1, 0)
        assert len(lst) == 1

    def test_same_vfid_different_ingress_are_distinct(self):
        lst = ResumeList()
        assert lst.add(1, 0)
        assert lst.add(1, 1)
        assert len(lst) == 2

    def test_discard(self):
        lst = ResumeList()
        lst.add(1, 0)
        lst.add(2, 0)
        lst.discard(1, 0)
        assert not lst.contains(1, 0)
        assert lst.pop() == (2, 0)

    def test_discard_missing_is_noop(self):
        lst = ResumeList()
        lst.discard(9, 9)
        assert len(lst) == 0

    def test_readd_after_pop(self):
        lst = ResumeList()
        lst.add(1, 0)
        lst.pop()
        assert lst.add(1, 0)
