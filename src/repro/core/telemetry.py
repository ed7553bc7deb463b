"""Stale/sampled queue-occupancy telemetry for estimated-queue BFC.

The paper's BFC pauses on *ideal* per-hop state: every enqueue and dequeue
sees the exact physical-queue byte count and the exact active-queue count at
the instant of the decision.  The ``BFC-Est`` scheme family instead drives
the pause rule from an INT-style telemetry channel that is **delayed** and
**sampled** (mirroring backpressure-with-estimated-queues in road networks,
Li & Jabari arXiv:2006.15549):

* ``staleness_ns`` — the value the decision sees is the one that was true
  ``staleness_ns`` ago (collection + export + propagation delay of the
  telemetry path, lumped);
* ``sample_period_ns`` — the signal is only observed on a periodic grid, so
  the decision sees the value at the most recent grid instant (after the
  staleness shift).

Implementation: :class:`QueueTelemetry` keeps, per signal key, the history of
*change points* ``(time, value)``.  Because the producer records on **every**
occupancy change, the change-point history *is* the exact continuous signal,
and a read at sample instant ``s`` returns precisely what an ideal sampler
would have seen at ``s`` — no simulator events, no extra nondeterminism.
Simulation time is monotone at every record/read site, so histories are
pruned with a deque as the sample instant advances; memory stays bounded by
the number of changes inside one staleness window.

At ``staleness_ns == 0 and sample_period_ns == 0`` the consumer
(:class:`repro.core.discipline.BfcEgressDiscipline`) does not allocate a
telemetry view at all, so ideal BFC keeps its exact hot path and ``BFC-Est``
degenerates to ``BFC`` bit for bit.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Hashable, Tuple

#: Signal key for the active-queue count (physical queue ids are their own
#: keys; they are non-negative, so any negative sentinel is collision-free).
ACTIVE_COUNT_KEY = -101


class QueueTelemetry:
    """A delayed/sampled view over piecewise-constant occupancy signals."""

    __slots__ = ("staleness_ns", "sample_period_ns", "_histories")

    def __init__(self, staleness_ns: int = 0, sample_period_ns: int = 0) -> None:
        if staleness_ns < 0:
            raise ValueError("staleness_ns must be >= 0")
        if sample_period_ns < 0:
            raise ValueError("sample_period_ns must be >= 0")
        self.staleness_ns = staleness_ns
        self.sample_period_ns = sample_period_ns
        self._histories: Dict[Hashable, Deque[Tuple[int, int]]] = {}

    def sample_instant(self, now_ns: int) -> int:
        """The instant whose value a read at ``now_ns`` observes."""
        instant = now_ns - self.staleness_ns
        period = self.sample_period_ns
        if period > 0:
            instant = (instant // period) * period
        return instant if instant > 0 else 0

    def record(self, key: Hashable, time_ns: int, value: int) -> None:
        """Record that ``key``'s signal takes ``value`` from ``time_ns`` on.

        Must be called on every change of the underlying signal (and may be
        called when the value is unchanged — duplicates are dropped), with
        nondecreasing ``time_ns`` per key.  Several records at the same
        instant collapse to the last one, matching a sampler that observes
        the state *after* all updates of that instant.
        """
        history = self._histories.get(key)
        if history is None:
            history = deque()
            self._histories[key] = history
        if history:
            last_time, last_value = history[-1]
            if last_value == value:
                return
            if last_time == time_ns:
                history[-1] = (time_ns, value)
                self._prune(history, self.sample_instant(time_ns))
                return
        history.append((time_ns, value))
        self._prune(history, self.sample_instant(time_ns))

    def read(self, key: Hashable, now_ns: int, default: int = 0) -> int:
        """The value of ``key`` as an estimator reading at ``now_ns`` sees it."""
        history = self._histories.get(key)
        if not history:
            return default
        instant = self.sample_instant(now_ns)
        self._prune(history, instant)
        time_ns, value = history[0]
        if time_ns > instant:
            return default
        return value

    @staticmethod
    def _prune(history: Deque[Tuple[int, int]], instant: int) -> None:
        # Drop change points strictly superseded at the sample instant; the
        # instant is nondecreasing across calls, so dropped entries can never
        # be needed again.
        while len(history) > 1 and history[1][0] <= instant:
            history.popleft()
