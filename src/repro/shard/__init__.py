"""Space-parallel sharded simulation with conservative time windows.

One multi-DC topology is cut into one shard per data center
(:mod:`repro.shard.partition`), every cut inter-DC link becomes a
latency-preserving cross-process boundary channel
(:mod:`repro.shard.boundary`), and a coordinator advances all shard
simulators in conservative epochs bounded by the smallest cut-link delay
(:mod:`repro.shard.coordinator`).

The public entry points are ``ExperimentConfig(shards=N)`` — which
:func:`repro.experiments.runner.run_experiment` routes through the
coordinator transparently — and the pieces below for direct use.
"""

from .boundary import BoundaryChannel, packet_from_wire, packet_to_wire
from .coordinator import ShardCoordinator, ShardError, run_sharded_experiment
from .partition import CutLink, PartitionError, PartitionSpec, partition_topology

__all__ = [
    "BoundaryChannel",
    "CutLink",
    "PartitionError",
    "PartitionSpec",
    "ShardCoordinator",
    "ShardError",
    "partition_topology",
    "packet_from_wire",
    "packet_to_wire",
    "run_sharded_experiment",
]
