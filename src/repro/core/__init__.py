"""Backpressure Flow Control (BFC) — the paper's core contribution.

The package implements the switch- and NIC-side mechanisms of BFC:

* :mod:`repro.core.config` — all tunables (physical queues per port, VFID
  space, Bloom-filter geometry, pause-threshold factors, ablation switches).
* :mod:`repro.core.bloom` — the multistage Bloom filter used to signal pauses
  upstream and the counting Bloom filter kept at the congested switch.
* :mod:`repro.core.vfid` — VFID hashing, the bucketised virtual-flow hash
  table and the overflow cache.
* :mod:`repro.core.queues` — dynamic assignment of flows to physical queues.
* :mod:`repro.core.pause` — pause-threshold computation and the rate-limited
  to-be-resumed list.
* :mod:`repro.core.scheduler` — the egress scheduler (high-priority queue +
  deficit round robin over unpaused physical queues).
* :mod:`repro.core.discipline` — the egress-port discipline tying it together.
* :mod:`repro.core.switchlogic` — the per-switch BFC agent and the
  :class:`BfcSwitch` node type.
* :mod:`repro.core.nic` — the BFC-aware host NIC scheduler.
"""

from .config import (
    BfcConfig,
    bfc_no_buffer_opt_config,
    bfc_no_high_priority_config,
    bfc_vfid_config,
)
from .bloom import BloomFilterCodec, CountingBloomFilter
from .vfid import FlowEntry, FlowTable, packet_vfid
from .queues import PhysicalQueuePool
from .pause import PauseThresholds, ResumeList
from .scheduler import BfcScheduler, HIGH_PRIORITY_QUEUE, OVERFLOW_QUEUE
from .discipline import BfcEgressDiscipline
from .switchlogic import BfcAgent, BfcSwitch
from .nic import BfcNicScheduler

__all__ = [
    "BfcConfig",
    "bfc_vfid_config",
    "bfc_no_high_priority_config",
    "bfc_no_buffer_opt_config",
    "BloomFilterCodec",
    "CountingBloomFilter",
    "FlowEntry",
    "FlowTable",
    "packet_vfid",
    "PhysicalQueuePool",
    "PauseThresholds",
    "ResumeList",
    "BfcScheduler",
    "HIGH_PRIORITY_QUEUE",
    "OVERFLOW_QUEUE",
    "BfcEgressDiscipline",
    "BfcAgent",
    "BfcSwitch",
    "BfcNicScheduler",
]
