"""Flow descriptors and completion bookkeeping.

A :class:`Flow` is the unit of work handed to a sending host: *"transfer
``size`` bytes from ``src`` to ``dst`` starting at ``start_ns``"*.  The same
object records completion so the analysis layer can compute flow completion
times (FCT) and slowdowns exactly as the paper defines them: the measured FCT
divided by the FCT the same flow would achieve alone on an idle network.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

from .packet import FlowKey

_flow_ids = itertools.count(1)


def reset_flow_ids(taken: Iterable[int] = ()) -> None:
    """Restart the global flow-id counter at 1, skipping the ``taken`` ids.

    A build passes the ids its explicit flows already hold, so no generated
    flow can share an id with one of them (hosts key flow state by id).
    Where no taken id falls in the generated range, every id is unchanged.
    """
    global _flow_ids
    skip = frozenset(taken)
    if skip:
        _flow_ids = (i for i in itertools.count(1) if i not in skip)
    else:
        _flow_ids = itertools.count(1)


@dataclass
class Flow:
    """A single flow (message) to transfer.

    Attributes
    ----------
    src, dst:
        Host identifiers.
    size:
        Application bytes to transfer.
    start_ns:
        Arrival time of the flow at the sending NIC.
    is_incast:
        Marks flows generated by the incast generator.  The paper reports FCT
        statistics for the *normal* (non-incast) traffic only, so analysis
        code filters on this flag.
    tag:
        Free-form label ("normal", "incast", "longlived", "inter-dc", ...).
    depends_on:
        Dependency-driven launch (collective/RPC workloads): flow ids that
        must complete before this flow starts.  ``None`` (the default) is a
        plain time-triggered flow.  Every prerequisite must terminate at this
        flow's source host (``dep.dst == self.src``), so the launching host
        observes all completions locally — this is what keeps dependency
        launches byte-identical under sharding.  ``start_ns`` is the earliest
        allowed start; the actual start is stamped at launch time.
    """

    src: int
    dst: int
    size: int
    start_ns: int
    flow_id: int = field(default_factory=lambda: next(_flow_ids))
    src_port: int = 0
    dst_port: int = 0
    is_incast: bool = False
    tag: str = "normal"
    depends_on: Optional[tuple] = None
    # Filled in while the simulation runs -----------------------------------
    num_packets: int = 0
    first_tx_ns: Optional[int] = None
    finish_ns: Optional[int] = None
    bytes_delivered: int = 0
    retransmitted_packets: int = 0

    def fresh(self) -> "Flow":
        """A copy of this flow's definition with none of a run's progress."""
        return replace(
            self, num_packets=0, first_tx_ns=None, finish_ns=None,
            bytes_delivered=0, retransmitted_packets=0,
        )

    def key(self) -> FlowKey:
        """The 5-tuple for this flow (protocol fixed to UDP-like 17)."""
        return FlowKey(
            src=self.src,
            dst=self.dst,
            src_port=self.src_port or (self.flow_id % 60_000) + 1_000,
            dst_port=self.dst_port or 4_791,  # RoCEv2 UDP port
        )

    # -- completion ---------------------------------------------------------

    @property
    def completed(self) -> bool:
        """True once the receiver has every byte."""
        return self.finish_ns is not None

    def fct_ns(self) -> Optional[int]:
        """Flow completion time (arrival at sender to last byte at receiver)."""
        if self.finish_ns is None:
            return None
        return self.finish_ns - self.start_ns

    def ideal_fct_ns(self, line_rate_bps: float, base_delay_ns: float, mtu: int = 1000) -> float:
        """FCT of this flow alone on an idle network.

        The flow is serialized packet by packet at the host line rate and the
        last packet then propagates over ``base_delay_ns`` (the one-way
        propagation plus per-hop store-and-forward latency of the path).  This
        matches the paper's definition of the denominator of *FCT slowdown*:
        the best possible completion time for a flow of the same size running
        at link rate.
        """
        packets = max(1, math.ceil(self.size / mtu))
        wire_bytes = self.size + packets * 48  # per-packet header overhead
        serialization = wire_bytes * 8 * 1e9 / line_rate_bps
        return serialization + base_delay_ns

    def slowdown(self, line_rate_bps: float, base_delay_ns: float, mtu: int = 1000) -> Optional[float]:
        """FCT slowdown (measured FCT / ideal FCT); ``None`` if not finished."""
        fct = self.fct_ns()
        if fct is None:
            return None
        ideal = self.ideal_fct_ns(line_rate_bps, base_delay_ns, mtu)
        if ideal <= 0:
            return None
        return max(1.0, fct / ideal)
