"""Pause thresholds and the rate-limited resume list (§3.4, §3.5).

The pause threshold answers "how much buffering does this physical queue need
so that it does not run dry while a pause/resume round-trips to the upstream
hop?".  With deficit-round-robin scheduling the queue drains at roughly
``mu / Nactive`` (the egress rate shared among active queues), and the
feedback loop takes ``HRTT + tau``, so

    Th = (HRTT + tau) * mu / Nactive.

Resumes are rate-limited to avoid the buffer blow-up analysed in §3.5: when a
physical queue is shared by many paused flows, at most ``resumes_per_interval``
of them (one per Bloom-filter interval, i.e. two per HRTT) are cleared from
the pause filter per interval.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Set, Tuple

from .config import BfcConfig


class PauseThresholds:
    """Computes the pause/resume threshold for one egress port."""

    def __init__(self, config: BfcConfig, link_rate_bps: float, link_delay_ns: int) -> None:
        self.config = config
        self.link_rate_bps = link_rate_bps
        self.hop_rtt_ns = config.derive_hop_rtt_ns(link_rate_bps, link_delay_ns)
        self.pause_interval_ns = config.derive_pause_interval_ns(self.hop_rtt_ns)
        # Bytes the link drains during one feedback delay (HRTT + tau).
        feedback_bytes = (self.hop_rtt_ns + self.pause_interval_ns) * link_rate_bps / (8 * 1e9)
        # BFC-Est-Cap: capacity-aware weighting (arXiv:1309.6484) scales the
        # threshold by this port's rate relative to a reference rate, so a
        # faster link tolerates proportionally more buffering before pausing.
        # On a homogeneous fabric with reference == link rate the weight is
        # exactly 1.0 and the threshold is byte-identical to plain BFC.
        if config.capacity_weight_reference_bps is not None:
            feedback_bytes *= link_rate_bps / config.capacity_weight_reference_bps
        # Th by the number of active queues, floored at one.  It is read once
        # per enqueued/dequeued packet and only ever for a count in
        # [0, num_physical_queues + 1] (the overflow queue counts): the
        # discipline indexes this table directly.
        scaled = config.pause_threshold_factor * feedback_bytes
        self.by_count: List[float] = [scaled] + [
            scaled / n for n in range(1, config.num_physical_queues + 2)
        ]

    def feedback_delay_ns(self) -> int:
        return self.hop_rtt_ns + self.pause_interval_ns


class ResumeList:
    """The per-physical-queue "to-be-resumed" list (§3.5).

    Flows are identified by ``(vfid, ingress)`` because that is the key of the
    pause state kept in the per-ingress counting Bloom filter; the flow-table
    entry may already have been reclaimed by the time the resume is applied.
    """

    def __init__(self) -> None:
        self._pending: Deque[Tuple[int, int]] = deque()
        self._members: Set[Tuple[int, int]] = set()

    def __len__(self) -> int:
        return len(self._pending)

    def add(self, vfid: int, ingress: int) -> bool:
        """Queue a flow for resumption; returns False if it was already queued."""
        key = (vfid, ingress)
        if key in self._members:
            return False
        self._members.add(key)
        self._pending.append(key)
        return True

    def pop(self) -> Optional[Tuple[int, int]]:
        """Take the next flow to resume (FIFO order), or None when empty."""
        if not self._pending:
            return None
        key = self._pending.popleft()
        self._members.discard(key)
        return key

    def discard(self, vfid: int, ingress: int) -> bool:
        """Drop a pending resume (e.g. the flow was paused again)."""
        key = (vfid, ingress)
        if key not in self._members:
            return False
        self._members.discard(key)
        self._pending.remove(key)
        return True

    def contains(self, vfid: int, ingress: int) -> bool:
        return (vfid, ingress) in self._members
