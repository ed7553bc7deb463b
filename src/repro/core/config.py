"""BFC configuration.

One :class:`BfcConfig` instance describes every BFC tunable the paper
discusses, including the ablation switches used in §4.3 (BFC-VFID,
BFC-HighPriorityQ, BFC-BufferOpt) and the resource knobs swept in §4.4
(number of physical queues, VFID space, Bloom-filter size).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple


@dataclass
class BfcConfig:
    """All BFC parameters.

    Attributes
    ----------
    num_physical_queues:
        FIFO queues per egress port that the scheduler can pause/unpause
        independently (32 in the paper's main experiments).
    num_vfids:
        Size of the virtual-flow-ID space; also the number of buckets in the
        virtual-flow hash table (16 K in the paper).
    table_bucket_size:
        Entries per hash-table bucket (4 in the paper).
    overflow_cache_entries:
        Size of the associative overflow cache ("overflow TCAM", 100 entries).
    bloom_filter_bytes:
        Wire size of the multistage Bloom filter pause frame (128 B).
    bloom_hash_functions:
        Hash functions per Bloom-filter lookup (4).
    hop_rtt_ns:
        The one-hop round-trip time HRTT used in the pause threshold.  When
        ``None`` it is derived per egress port from the link's propagation
        delay and MTU serialization time.
    pause_frame_interval_ns:
        tau — how often Bloom-filter pause frames are (re)sent; the paper uses
        half of HRTT.  ``None`` derives it as ``hop_rtt_ns / 2``.
    resumes_per_interval:
        Flows taken off each physical queue's to-be-resumed list per pause
        frame interval (1 per tau = 2 per HRTT in the paper).
    pause_threshold_factor:
        Multiplier applied to the computed threshold Th; 1.0 reproduces the
        paper's rule Th = (HRTT + tau) * mu / Nactive.
    mtu:
        Packet payload size used when deriving serialization delays.
    use_high_priority_queue:
        Ablation switch for §4.3 "High priority queue" (BFC-HighPriorityQ
        disables it).
    limit_resume_rate:
        Ablation switch for §4.3 "Buffer occupancy management"
        (BFC-BufferOpt disables the two-resumes-per-RTT limit).
    static_queue_assignment:
        Ablation switch for §4.2 "Physical queue assignment": the straw
        proposal (BFC-VFID) statically hashes VFIDs onto physical queues
        instead of dynamically assigning free queues.
    telemetry_staleness_ns:
        BFC-Est: pause/resume decisions observe queue occupancy as it was
        this long ago (stale INT-style telemetry).  0 = ideal per-hop state;
        together with ``telemetry_sample_period_ns == 0`` this is exactly
        the paper's BFC (the estimator shim is not even allocated).
    telemetry_sample_period_ns:
        BFC-Est: occupancy is observed only on this periodic grid; decisions
        see the value at the most recent grid instant (after the staleness
        shift).  0 = continuous observation.
    capacity_weight_reference_bps:
        BFC-Est-Cap: when set, each egress port's pause threshold is scaled
        by ``link_rate_bps / capacity_weight_reference_bps`` (capacity-aware
        backpressure weighting, arXiv:1309.6484), so faster links tolerate
        proportionally more buffering before pausing upstream.  ``None``
        (the default) keeps the paper's unweighted threshold.
    """

    num_physical_queues: int = 32
    num_vfids: int = 16_384
    table_bucket_size: int = 4
    overflow_cache_entries: int = 100
    bloom_filter_bytes: int = 128
    bloom_hash_functions: int = 4
    hop_rtt_ns: Optional[int] = None
    pause_frame_interval_ns: Optional[int] = None
    resumes_per_interval: int = 1
    pause_threshold_factor: float = 1.0
    mtu: int = 1000
    use_high_priority_queue: bool = True
    limit_resume_rate: bool = True
    static_queue_assignment: bool = False
    telemetry_staleness_ns: int = 0
    telemetry_sample_period_ns: int = 0
    capacity_weight_reference_bps: Optional[float] = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.num_physical_queues < 1:
            raise ValueError("need at least one physical queue per port")
        if self.num_vfids < self.num_physical_queues:
            raise ValueError("VFID space must be at least the number of physical queues")
        if self.table_bucket_size < 1:
            raise ValueError("table bucket size must be >= 1")
        if self.bloom_filter_bytes < 1:
            raise ValueError("bloom filter must be at least one byte")
        if self.bloom_hash_functions < 1:
            raise ValueError("need at least one bloom hash function")
        if self.resumes_per_interval < 1:
            raise ValueError("resumes_per_interval must be >= 1")
        if self.pause_threshold_factor <= 0:
            raise ValueError("pause_threshold_factor must be positive")
        if self.mtu <= 0:
            raise ValueError("mtu must be positive")
        if self.telemetry_staleness_ns < 0:
            raise ValueError("telemetry_staleness_ns must be >= 0")
        if self.telemetry_sample_period_ns < 0:
            raise ValueError("telemetry_sample_period_ns must be >= 0")
        if (
            self.capacity_weight_reference_bps is not None
            and self.capacity_weight_reference_bps <= 0
        ):
            raise ValueError("capacity_weight_reference_bps must be positive when set")

    # -- derived quantities -----------------------------------------------------

    @property
    def bloom_geometry(self) -> Tuple[int, int]:
        """``(size_bytes, num_hashes)`` of the pause filter, as a codec takes them."""
        return self.bloom_filter_bytes, self.bloom_hash_functions

    def derive_hop_rtt_ns(self, link_rate_bps: float, link_delay_ns: int) -> int:
        """HRTT for a link: two propagation delays plus two MTU serializations."""
        if self.hop_rtt_ns is not None:
            return self.hop_rtt_ns
        serialization_ns = (self.mtu + 48) * 8 * 1e9 / link_rate_bps
        return int(2 * (link_delay_ns + serialization_ns))

    def derive_pause_interval_ns(self, hop_rtt_ns: int) -> int:
        """tau: the Bloom-filter (re)transmission period (HRTT / 2)."""
        if self.pause_frame_interval_ns is not None:
            return self.pause_frame_interval_ns
        return max(1, hop_rtt_ns // 2)

    def with_overrides(self, **kwargs) -> "BfcConfig":
        """A copy of this configuration with the given fields replaced."""
        return replace(self, **kwargs)


# Named ablation configurations from the paper's §4.2/§4.3.


def bfc_vfid_config(base: Optional[BfcConfig] = None) -> BfcConfig:
    """The straw proposal: static hash assignment of flows to physical queues."""
    return (base or BfcConfig()).with_overrides(static_queue_assignment=True)


def bfc_no_high_priority_config(base: Optional[BfcConfig] = None) -> BfcConfig:
    """BFC without the high-priority queue for single-packet flows."""
    return (base or BfcConfig()).with_overrides(use_high_priority_queue=False)


def bfc_no_buffer_opt_config(base: Optional[BfcConfig] = None) -> BfcConfig:
    """BFC without the two-resumes-per-RTT limit (BFC-BufferOpt)."""
    return (base or BfcConfig()).with_overrides(limit_resume_rate=False)
