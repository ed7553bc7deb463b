"""Dynamic assignment of flows to physical queues (§3.3).

Each egress port has a small pool of physical FIFO queues.  BFC assigns a
newly-active flow to a currently-unallocated queue, falling back to a random
occupied queue (a *collision*) when every queue is taken, and reclaims the
queue when the flow's last packet leaves.  The straw proposal (BFC-VFID,
§3.2/§4.2) instead statically hashes the VFID onto a queue.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from .config import BfcConfig


@dataclass
class QueueAssignmentStats:
    """Collision accounting for Figs. 7b and 12a."""

    assignments: int = 0
    collisions: int = 0

    def collision_fraction(self) -> float:
        if self.assignments == 0:
            return 0.0
        return self.collisions / self.assignments


class PhysicalQueuePool:
    """Tracks which physical queues are free and how many flows use each."""

    def __init__(self, config: BfcConfig, rng: Optional[random.Random] = None) -> None:
        self.config = config
        self.num_queues = config.num_physical_queues
        self._rng = rng or random.Random(0)
        self._assigned_flows: List[int] = [0] * self.num_queues
        # Unallocated queues, most recently released last.  The order is
        # load-bearing: it decides which queue the next flow gets, and with
        # it the DRR service order.  A queue is on the list exactly while no
        # flow is assigned to it, so neither side needs a membership scan;
        # static assignment (BFC-VFID) never consults the list.
        self._static = config.static_queue_assignment
        self._free: List[int] = [] if self._static else list(range(self.num_queues))
        # Maintained incrementally: occupied_queues() feeds the per-packet
        # pause-threshold computation, so it must not scan the queue array.
        self._occupied = 0
        self.stats = QueueAssignmentStats()

    # -- assignment --------------------------------------------------------------

    def assign(self, vfid: int) -> int:
        """Pick a physical queue for a newly-active flow."""
        self.stats.assignments += 1
        if self._static:
            queue = vfid % self.num_queues
            if self._assigned_flows[queue] > 0:
                self.stats.collisions += 1
            else:
                self._occupied += 1
            self._assigned_flows[queue] += 1
            return queue
        if self._free:
            queue = self._free.pop()
            self._occupied += 1
            self._assigned_flows[queue] = 1
            return queue
        # Every queue is occupied: unavoidable head-of-line blocking.  The
        # paper assigns a random queue in this case (§3.3).
        queue = self._rng.randrange(self.num_queues)
        self.stats.collisions += 1
        self._assigned_flows[queue] += 1
        return queue

    def release(self, queue: int) -> None:
        """A flow assigned to ``queue`` went idle."""
        if self._assigned_flows[queue] <= 0:
            raise ValueError(f"queue {queue} has no assigned flows to release")
        self._assigned_flows[queue] -= 1
        if self._assigned_flows[queue] == 0:
            self._occupied -= 1
            if not self._static:
                self._free.append(queue)

    # -- introspection ---------------------------------------------------------------

    def assigned_flows(self, queue: int) -> int:
        return self._assigned_flows[queue]

    def occupied_queues(self) -> int:
        return self._occupied

    def free_queues(self) -> int:
        return self.num_queues - self.occupied_queues()
