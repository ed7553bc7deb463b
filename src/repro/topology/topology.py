"""Topology container: hosts, switches, links and path-delay queries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.sim.flow import Flow
from repro.sim.host import Host
from repro.sim.switch import Switch


@dataclass
class LinkRecord:
    """Book-keeping about one full-duplex link (for reporting/utilization)."""

    a_name: str
    b_name: str
    rate_bps: float
    delay_ns: int
    link_class: str


class Topology:
    """Holds every node of an experiment and answers path questions.

    The builder functions in :mod:`repro.topology.clos` and
    :mod:`repro.topology.crossdc` populate the container; the experiment
    runner and the analysis layer only interact with this API.
    """

    def __init__(self, sim, host_link_rate_bps: float, link_delay_ns: int) -> None:
        self.sim = sim
        self.host_link_rate_bps = host_link_rate_bps
        self.link_delay_ns = link_delay_ns
        self.hosts: Dict[int, Host] = {}
        self.switches: Dict[str, Switch] = {}
        self.links: List[LinkRecord] = []
        self.tor_of_host: Dict[int, str] = {}
        self.dc_of_host: Dict[int, int] = {}
        self.flow_registry: Dict[int, Flow] = {}
        # The builder installs a path-delay function: (src_host, dst_host) -> ns.
        self._delay_fn: Optional[Callable[[int, int], int]] = None

    # -- population -----------------------------------------------------------------

    def add_host(self, host: Host, tor_name: str, dc: int = 0) -> None:
        self.hosts[host.host_id] = host
        self.tor_of_host[host.host_id] = tor_name
        self.dc_of_host[host.host_id] = dc

    def add_switch(self, switch: Switch, tier: str) -> None:
        switch.tier = tier
        self.switches[switch.name] = switch

    def record_link(self, record: LinkRecord) -> None:
        self.links.append(record)

    def set_delay_function(self, fn: Callable[[int, int], int]) -> None:
        self._delay_fn = fn

    # -- queries ----------------------------------------------------------------------

    def host(self, host_id: int) -> Host:
        return self.hosts[host_id]

    def host_ids(self) -> List[int]:
        return sorted(self.hosts)

    def all_switches(self) -> List[Switch]:
        return list(self.switches.values())

    def switches_in_tier(self, tier: str) -> List[Switch]:
        return [s for s in self.switches.values() if getattr(s, "tier", None) == tier]

    def tor_switch_of(self, host_id: int) -> Switch:
        return self.switches[self.tor_of_host[host_id]]

    def same_rack(self, a: int, b: int) -> bool:
        return self.tor_of_host.get(a) == self.tor_of_host.get(b)

    def same_dc(self, a: int, b: int) -> bool:
        return self.dc_of_host.get(a, 0) == self.dc_of_host.get(b, 0)

    def one_way_delay_ns(self, src: int, dst: int) -> int:
        """Propagation delay of the up-down path between two hosts."""
        if self._delay_fn is None:
            raise RuntimeError("topology builder did not install a delay function")
        return self._delay_fn(src, dst)

    def base_rtt_ns(self, src: int, dst: int) -> int:
        return 2 * self.one_way_delay_ns(src, dst)

    # -- flow helpers -------------------------------------------------------------------

    def start_flow(self, flow: Flow) -> None:
        """Schedule a flow to start at its ``start_ns`` on the source host.

        Flows with ``depends_on`` are registered but *not* scheduled: a
        :class:`repro.workloads.flowgraph.FlowGraphLauncher` launches them
        when their prerequisite flows complete.  The registration keeps the
        flow visible to completion bookkeeping and the results harvest.
        """
        self.flow_registry[flow.flow_id] = flow
        if flow.depends_on:
            return
        host = self.host(flow.src)
        self.sim.schedule_at(max(self.sim.now, flow.start_ns), host.start_flow, flow)

    def start_flows(self, flows) -> None:
        for flow in flows:
            self.start_flow(flow)

    def total_buffer_occupancy(self) -> int:
        return sum(s.buffer_occupancy() for s in self.switches.values())

    def max_buffer_occupancy(self) -> int:
        occupancies = [s.buffer_occupancy() for s in self.switches.values()]
        return max(occupancies) if occupancies else 0

    def total_dropped_packets(self) -> int:
        return sum(s.dropped_packets() for s in self.switches.values())
