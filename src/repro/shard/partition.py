"""Topology partitioning for space-parallel sharded simulation.

A *partition* assigns every node (hosts and switches) of a built
:class:`~repro.topology.topology.Topology` to one of ``num_shards`` shards.
Links whose endpoints land in different shards become *cut links*: each cut
link is replaced, at run time, by a cross-process boundary channel whose
latency is the link's real propagation delay.  That delay is exactly the
*lookahead* a conservative parallel discrete-event simulation needs, so the
safe synchronization window of a partition is::

    window_ns = min(delay_ns of every cut link)

Backpressure decisions in BFC (and the schemes it is compared against) are
per-hop local, which is what makes a spatial cut of the fabric semantically
clean: no component ever reads another node's state directly — everything
crosses a link as a packet.

There is one cut: shard *i* is data center *i* (gateways stay with their
DC), so the only cut links are the long-delay inter-DC links, which give the
largest possible window.  ``num_shards`` must therefore be 1 (no cut) or the
topology's DC count; any other value is a :class:`PartitionError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.topology.topology import Topology


class PartitionError(ValueError):
    """Raised when a topology cannot be partitioned as requested."""


@dataclass(frozen=True)
class CutLink:
    """One link whose endpoints live in different shards."""

    a: str
    b: str
    shard_a: int
    shard_b: int
    delay_ns: int
    rate_bps: float
    link_class: str


@dataclass
class PartitionSpec:
    """The result of partitioning one topology into shards.

    ``shard_of`` maps every node name (hosts and switches) to its shard
    index; ``cuts`` lists the links whose endpoints landed in different
    shards.  The smallest cut-link delay is the partition's conservative
    synchronization window (:attr:`window_ns`): the coordinator may let all
    shards advance that far past the globally earliest event without any
    shard outrunning a packet another shard still owes it.

    A spec is pure data — produced by :func:`partition_topology`, consumed
    by the coordinator (epoch windows), the boundary layer (which links to
    replace with channels), the CLI (``repro topology info``) and the
    campaign scheduler's documentation of a trial's process footprint.
    """

    num_shards: int
    shard_of: Dict[str, int]  # node name -> shard index
    cuts: List[CutLink] = field(default_factory=list)

    @property
    def window_ns(self) -> Optional[int]:
        """Conservative synchronization window: the smallest cut-link delay."""
        if not self.cuts:
            return None
        return min(cut.delay_ns for cut in self.cuts)

    def stats(self, topo: Topology) -> Dict[str, object]:
        """Shard sizes and cut-link statistics (for the CLI and benchmarks)."""
        host_names = {host.name for host in topo.hosts.values()}
        per_shard: Dict[int, Dict[str, int]] = {}
        for name, shard in self.shard_of.items():
            entry = per_shard.setdefault(shard, {"hosts": 0, "switches": 0})
            entry["hosts" if name in host_names else "switches"] += 1
        cuts_by_class: Dict[str, int] = {}
        for cut in self.cuts:
            cuts_by_class[cut.link_class] = cuts_by_class.get(cut.link_class, 0) + 1
        return {
            "num_shards": self.num_shards,
            "shards": {str(s): per_shard[s] for s in sorted(per_shard)},
            "cut_links": len(self.cuts),
            "cut_links_by_class": dict(sorted(cuts_by_class.items())),
            "window_ns": self.window_ns,
        }


# ---------------------------------------------------------------------------
# Topology inspection helpers
# ---------------------------------------------------------------------------


def _dc_of_switches(topo: Topology) -> Dict[str, int]:
    """Map every switch to a data center.

    ToRs inherit the DC of their hosts; every other switch gets the DC of its
    nearest ToR via a breadth-first sweep over the link graph (deterministic:
    neighbours are visited in sorted-name order, and a node keeps the first
    DC that reaches it).  Gateways sit one hop above their own DC's spines
    but several hops from the remote DC's ToRs, so they resolve correctly.
    """
    adjacency: Dict[str, List[str]] = {}
    for link in topo.links:
        adjacency.setdefault(link.a_name, []).append(link.b_name)
        adjacency.setdefault(link.b_name, []).append(link.a_name)
    for neighbours in adjacency.values():
        neighbours.sort()

    dc_of: Dict[str, int] = {}
    frontier: List[str] = []
    for host_id in topo.host_ids():
        tor_name = topo.tor_of_host[host_id]
        if tor_name not in dc_of:
            dc_of[tor_name] = topo.dc_of_host.get(host_id, 0)
            frontier.append(tor_name)
    frontier.sort()
    while frontier:
        next_frontier: List[str] = []
        for name in frontier:
            for neighbour in adjacency.get(name, ()):
                if neighbour in topo.switches and neighbour not in dc_of:
                    dc_of[neighbour] = dc_of[name]
                    next_frontier.append(neighbour)
        next_frontier.sort()
        frontier = next_frontier
    for switch in topo.switches:
        dc_of.setdefault(switch, 0)
    return dc_of


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def partition_topology(topo: Topology, num_shards: int) -> PartitionSpec:
    """Partition a built topology into one shard per data center.

    ``num_shards`` is 1 (everything on shard 0, no cut) or the topology's
    DC count (shard *i* is DC *i*).  The assignment is a pure function of
    the topology, so every worker process computes an identical partition
    independently.
    """
    dc_of = _dc_of_switches(topo)
    dcs = sorted(set(dc_of.values()))
    if num_shards not in (1, len(dcs)):
        allowed = "1" if len(dcs) == 1 else f"1 or {len(dcs)}"
        raise PartitionError(
            f"cannot cut a {len(dcs)}-DC topology into {num_shards} shards: "
            "sharding cuts only the inter-DC links (one shard per DC), so "
            f"shards must be {allowed}"
        )
    shard_of_dc = {dc: index if num_shards > 1 else 0 for index, dc in enumerate(dcs)}
    shard_of: Dict[str, int] = {}
    for host_id, host in topo.hosts.items():
        shard_of[host.name] = shard_of_dc[topo.dc_of_host.get(host_id, 0)]
    for name in topo.switches:
        shard_of[name] = shard_of_dc[dc_of[name]]

    cuts: List[CutLink] = []
    for link in topo.links:
        shard_a = shard_of[link.a_name]
        shard_b = shard_of[link.b_name]
        if shard_a != shard_b:
            cuts.append(
                CutLink(
                    a=link.a_name,
                    b=link.b_name,
                    shard_a=shard_a,
                    shard_b=shard_b,
                    delay_ns=link.delay_ns,
                    rate_bps=link.rate_bps,
                    link_class=link.link_class,
                )
            )

    spec = PartitionSpec(num_shards, shard_of, cuts)
    _validate(topo, spec)
    return spec


def _validate(topo: Topology, spec: PartitionSpec) -> None:
    for host_id in topo.host_ids():
        host_name = topo.hosts[host_id].name
        tor_name = topo.tor_of_host[host_id]
        if spec.shard_of[host_name] != spec.shard_of[tor_name]:
            raise PartitionError(
                f"host {host_name} split from its ToR {tor_name}: "
                "hosts must stay with their ToR"
            )
    if spec.cuts and spec.window_ns is not None and spec.window_ns <= 0:
        raise PartitionError("cut links must have positive propagation delay")
