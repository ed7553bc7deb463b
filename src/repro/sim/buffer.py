"""Shared switch buffer model.

Modern data-center switches (the Broadcom StrataXGS family the paper cites)
use a *shared* packet buffer: every egress queue allocates from a common pool
of memory.  PFC thresholds are expressed against the occupancy attributed to
each *ingress* port relative to the remaining free pool, which is exactly the
accounting this class provides.

The model tracks bytes only (not cells); admission either succeeds entirely
or the packet is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class BufferStats:
    """Drop and high-water-mark accounting for a shared buffer."""

    dropped_packets: int = 0
    dropped_bytes: int = 0
    max_occupancy: int = 0
    admitted_packets: int = 0
    admitted_bytes: int = 0


class SharedBuffer:
    """A byte-counted shared memory pool with per-ingress accounting.

    Parameters
    ----------
    capacity_bytes:
        Total buffer memory.  Use ``float('inf')``-like very large values for
        idealised (infinite buffer) switches via :meth:`infinite`.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("buffer capacity must be positive")
        self.capacity = int(capacity_bytes)
        self.used = 0
        self.per_ingress: Dict[int, int] = {}
        self.stats = BufferStats()

    # -- construction helpers ----------------------------------------------

    @classmethod
    def infinite(cls) -> "SharedBuffer":
        """A buffer so large it never fills (used by Ideal-FQ)."""
        return cls(capacity_bytes=1 << 60)

    # -- admission -----------------------------------------------------------

    @property
    def free(self) -> int:
        return max(0, self.capacity - self.used)

    def occupancy(self) -> int:
        return self.used

    def ingress_occupancy(self, ingress: int) -> int:
        return self.per_ingress.get(ingress, 0)

    def can_admit(self, size: int) -> bool:
        return self.used + size <= self.capacity

    def admit(self, size: int, ingress: int) -> bool:
        """Try to admit ``size`` bytes arriving from ``ingress``.

        Returns ``True`` and updates the accounting on success; returns
        ``False`` (and counts a drop) when the pool would overflow.
        """
        if size < 0:
            raise ValueError("packet size must be non-negative")
        stats = self.stats
        used = self.used + size
        if used > self.capacity:
            stats.dropped_packets += 1
            stats.dropped_bytes += size
            return False
        self.used = used
        per_ingress = self.per_ingress
        per_ingress[ingress] = per_ingress.get(ingress, 0) + size
        stats.admitted_packets += 1
        stats.admitted_bytes += size
        if used > stats.max_occupancy:
            stats.max_occupancy = used
        return True

    def release(self, size: int, ingress: int) -> None:
        """Return ``size`` bytes to the pool when a packet departs."""
        if size < 0:
            raise ValueError("packet size must be non-negative")
        if size > self.used:
            raise ValueError(
                f"releasing {size} bytes but only {self.used} are in use"
            )
        current = self.per_ingress.get(ingress, 0)
        if size > current:
            raise ValueError(
                f"releasing {size} bytes from ingress {ingress} "
                f"but only {current} are attributed to it"
            )
        self.used -= size
        self.per_ingress[ingress] = current - size


@dataclass(frozen=True)
class PfcPolicy:
    """PFC pause/resume thresholds against a :class:`SharedBuffer`.

    The paper configures PFC to trigger "when traffic from an input port
    occupies more than 11% of the free buffer".  Resume happens with
    hysteresis when the ingress occupancy drops below ``resume_ratio`` of the
    pause threshold.

    Frozen: the compiled switch hop keeps a copy of the thresholds, so a
    change of policy is a new object bound to ``Switch.pfc``.
    """

    enabled: bool = True
    threshold_fraction: float = 0.11
    resume_ratio: float = 0.5

    def __post_init__(self) -> None:
        if not 0 < self.threshold_fraction <= 1:
            raise ValueError("threshold_fraction must be in (0, 1]")
        if not 0 < self.resume_ratio <= 1:
            raise ValueError("resume_ratio must be in (0, 1]")

    def pause_threshold(self, buffer: SharedBuffer) -> float:
        """Current per-ingress pause threshold in bytes."""
        return self.threshold_fraction * buffer.free

    def should_pause(self, buffer: SharedBuffer, ingress: int) -> bool:
        if not self.enabled:
            return False
        return buffer.ingress_occupancy(ingress) > self.pause_threshold(buffer)

    def should_resume(self, buffer: SharedBuffer, ingress: int) -> bool:
        if not self.enabled:
            return True
        threshold = self.pause_threshold(buffer) * self.resume_ratio
        return buffer.ingress_occupancy(ingress) <= threshold
