"""Unit tests for the shared switch buffer and PFC policy.

Every test runs on the buffer of both forwarding planes.
"""

import pytest

from repro.sim.buffer import PfcPolicy, SharedBuffer


@pytest.fixture
def make_buffer(plane_sim):
    """The SharedBuffer class of each plane (what its switches build)."""
    plane = plane_sim.compiled_plane
    return SharedBuffer if plane is None else plane.SharedBuffer


class TestSharedBuffer:
    def test_admit_updates_occupancy(self, make_buffer):
        buf = make_buffer(10_000)
        assert buf.admit(4_000, ingress=0)
        assert buf.occupancy() == 4_000
        assert buf.ingress_occupancy(0) == 4_000
        assert buf.free == 6_000

    def test_admit_rejects_overflow(self, make_buffer):
        buf = make_buffer(5_000)
        assert buf.admit(3_000, ingress=0)
        assert not buf.admit(3_000, ingress=1)
        assert buf.stats.dropped_packets == 1
        assert buf.stats.dropped_bytes == 3_000
        assert buf.occupancy() == 3_000

    def test_admit_exactly_full(self, make_buffer):
        buf = make_buffer(1_000)
        assert buf.admit(1_000, ingress=0)
        assert buf.free == 0

    def test_release_returns_memory(self, make_buffer):
        buf = make_buffer(10_000)
        buf.admit(4_000, ingress=2)
        buf.release(4_000, ingress=2)
        assert buf.occupancy() == 0
        assert buf.ingress_occupancy(2) == 0

    def test_release_more_than_used_rejected(self, make_buffer):
        buf = make_buffer(10_000)
        buf.admit(1_000, ingress=0)
        with pytest.raises(ValueError):
            buf.release(2_000, ingress=0)

    def test_release_wrong_ingress_rejected(self, make_buffer):
        buf = make_buffer(10_000)
        buf.admit(1_000, ingress=0)
        buf.admit(1_000, ingress=1)
        with pytest.raises(ValueError):
            buf.release(2_000, ingress=0)

    def test_per_ingress_accounting_is_independent(self, make_buffer):
        buf = make_buffer(10_000)
        buf.admit(1_000, ingress=0)
        buf.admit(2_000, ingress=1)
        assert buf.ingress_occupancy(0) == 1_000
        assert buf.ingress_occupancy(1) == 2_000

    def test_max_occupancy_statistic(self, make_buffer):
        buf = make_buffer(10_000)
        buf.admit(6_000, ingress=0)
        buf.release(6_000, ingress=0)
        buf.admit(2_000, ingress=0)
        assert buf.stats.max_occupancy == 6_000

    def test_infinite_buffer_never_drops(self, make_buffer):
        buf = make_buffer.infinite()
        for _ in range(1_000):
            assert buf.admit(1_000_000, ingress=0)
        assert buf.stats.dropped_packets == 0

    def test_zero_capacity_rejected(self, make_buffer):
        with pytest.raises(ValueError):
            make_buffer(0)

    def test_negative_size_rejected(self, make_buffer):
        buf = make_buffer(1_000)
        with pytest.raises(ValueError):
            buf.admit(-1, ingress=0)
        with pytest.raises(ValueError):
            buf.release(-1, ingress=0)


class TestPfcPolicy:
    def test_pause_threshold_is_fraction_of_free(self, make_buffer):
        buf = make_buffer(100_000)
        policy = PfcPolicy(threshold_fraction=0.11)
        assert policy.pause_threshold(buf) == pytest.approx(11_000)
        buf.admit(50_000, ingress=0)
        assert policy.pause_threshold(buf) == pytest.approx(5_500)

    def test_should_pause_when_ingress_exceeds_threshold(self, make_buffer):
        buf = make_buffer(100_000)
        policy = PfcPolicy(threshold_fraction=0.11)
        buf.admit(5_000, ingress=3)
        assert not policy.should_pause(buf, 3)
        buf.admit(10_000, ingress=3)
        assert policy.should_pause(buf, 3)

    def test_resume_uses_hysteresis(self, make_buffer):
        buf = make_buffer(100_000)
        policy = PfcPolicy(threshold_fraction=0.11, resume_ratio=0.5)
        buf.admit(12_000, ingress=0)
        assert policy.should_pause(buf, 0)
        assert not policy.should_resume(buf, 0)
        buf.release(9_000, ingress=0)
        assert policy.should_resume(buf, 0)

    def test_disabled_policy_never_pauses(self, make_buffer):
        buf = make_buffer(1_000)
        policy = PfcPolicy(enabled=False)
        buf.admit(1_000, ingress=0)
        assert not policy.should_pause(buf, 0)
        assert policy.should_resume(buf, 0)

    def test_invalid_fractions_rejected(self, make_buffer):
        with pytest.raises(ValueError):
            PfcPolicy(threshold_fraction=0.0)
        with pytest.raises(ValueError):
            PfcPolicy(threshold_fraction=1.5)
        with pytest.raises(ValueError):
            PfcPolicy(resume_ratio=0.0)
