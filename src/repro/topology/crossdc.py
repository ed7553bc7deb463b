"""Cross-data-center topology (§4.2 "Cross datacenter environments").

Two leaf-spine data centers are joined by a pair of gateway switches
connected over a high-bandwidth, long-delay link (the paper uses a 100 Gbps
link with 200 us one-way delay and a 60 MB gateway buffer).  Each gateway
attaches to every spine switch of its own data center.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.sim import units
from repro.sim.port import connect
from repro.sim.switch import Switch

from .clos import ClosParams, HostFactory, SwitchFactory, build_leaf_spine
from .topology import LinkRecord, Topology


@dataclass
class CrossDcParams:
    """Parameters of the two-data-center topology."""

    dc_params: ClosParams
    gateway_link_rate_bps: float = units.gbps(100)
    gateway_delay_ns: int = 200_000  # 200 us one-way
    gateway_uplink_delay_ns: int = 1_000

    def inter_dc_one_way_delay_ns(self) -> int:
        """One-way propagation delay between hosts in different data centers."""
        return (
            4 * self.dc_params.link_delay_ns
            + 2 * self.gateway_uplink_delay_ns
            + self.gateway_delay_ns
        )


def build_cross_dc(
    sim,
    params: CrossDcParams,
    switch_factory: SwitchFactory,
    host_factory: HostFactory,
    gateway_factory: Callable[[str, str], Switch] | None = None,
) -> Topology:
    """Build two leaf-spine DCs joined by gateway switches.

    ``gateway_factory`` defaults to ``switch_factory`` (tier "gateway"); pass
    a separate factory to give gateways a larger buffer as the paper does.
    """
    dc_params = params.dc_params
    gateway_factory = gateway_factory or switch_factory

    topo = Topology(sim, dc_params.link_rate_bps, dc_params.link_delay_ns)

    dc0_params = ClosParams(**{**dc_params.__dict__, "name_prefix": "dc0-"})
    dc1_params = ClosParams(**{**dc_params.__dict__, "name_prefix": "dc1-"})
    build_leaf_spine(sim, dc0_params, switch_factory, host_factory, topology=topo, host_id_offset=0, dc=0)
    build_leaf_spine(
        sim,
        dc1_params,
        switch_factory,
        host_factory,
        topology=topo,
        host_id_offset=dc_params.num_hosts,
        dc=1,
    )

    gateways: List[Switch] = []
    for dc in (0, 1):
        gateway = gateway_factory(f"gw{dc}", "gateway")
        topo.add_switch(gateway, "gateway")
        gateways.append(gateway)

    # Gateway <-> spine links (within each DC).
    gw_downlinks: Dict[int, Dict[str, int]] = {0: {}, 1: {}}
    spine_to_gw_iface: Dict[str, int] = {}
    for dc, gateway in enumerate(gateways):
        prefix = f"dc{dc}-"
        spines = [s for s in topo.switches_in_tier("spine") if s.name.startswith(prefix)]
        for spine in spines:
            iface_spine, iface_gw = connect(
                spine,
                gateway,
                rate_bps=dc_params.link_rate_bps,
                delay_ns=params.gateway_uplink_delay_ns,
                link_class_ab="spine->gateway",
                link_class_ba="gateway->spine",
            )
            topo.record_link(
                LinkRecord(
                    spine.name,
                    gateway.name,
                    dc_params.link_rate_bps,
                    params.gateway_uplink_delay_ns,
                    "spine-gateway",
                )
            )
            spine_to_gw_iface[spine.name] = iface_spine.index
            gw_downlinks[dc][spine.name] = iface_gw.index

    # The inter-DC link.
    iface_gw0, iface_gw1 = connect(
        gateways[0],
        gateways[1],
        rate_bps=params.gateway_link_rate_bps,
        delay_ns=params.gateway_delay_ns,
        link_class_ab="gateway->gateway",
        link_class_ba="gateway->gateway",
    )
    topo.record_link(
        LinkRecord(
            gateways[0].name,
            gateways[1].name,
            params.gateway_link_rate_bps,
            params.gateway_delay_ns,
            "inter-dc",
        )
    )
    gw_peer_iface = {0: iface_gw0.index, 1: iface_gw1.index}

    # Routing for remote traffic.
    num_hosts = dc_params.num_hosts
    all_hosts = topo.host_ids()
    for dc, gateway in enumerate(gateways):
        routes: Dict[int, List[int]] = {}
        local_spines = list(gw_downlinks[dc].values())
        for hid in all_hosts:
            host_dc = topo.dc_of_host[hid]
            if host_dc == dc:
                routes[hid] = list(local_spines)
            else:
                routes[hid] = [gw_peer_iface[dc]]
        gateway.set_routes(routes)

    for dc in (0, 1):
        prefix = f"dc{dc}-"
        remote_hosts = [hid for hid in all_hosts if topo.dc_of_host[hid] != dc]
        for spine in topo.switches_in_tier("spine"):
            if not spine.name.startswith(prefix):
                continue
            for hid in remote_hosts:
                spine.add_route(hid, [spine_to_gw_iface[spine.name]])
        local_spines = {
            s.name for s in topo.switches_in_tier("spine") if s.name.startswith(prefix)
        }
        for tor in topo.switches_in_tier("tor"):
            if not tor.name.startswith(prefix):
                continue
            # Remote traffic uses the same ECMP uplink set as any non-local
            # intra-DC destination: every interface toward a local spine.
            uplinks = [
                iface.index
                for iface in tor.interfaces
                if iface.peer_node is not None and iface.peer_node.name in local_spines
            ]
            for hid in remote_hosts:
                tor.add_route(hid, list(uplinks))

    _install_delay_function(topo, params)
    return topo


def _install_delay_function(topo: Topology, params: CrossDcParams) -> None:
    delay = params.dc_params.link_delay_ns
    gw_up = params.gateway_uplink_delay_ns
    gw = params.gateway_delay_ns

    def one_way(src: int, dst: int) -> int:
        if src == dst:
            return 0
        if topo.same_dc(src, dst):
            if topo.same_rack(src, dst):
                return 2 * delay
            return 4 * delay
        # host -> ToR -> spine -> gateway -> gateway -> spine -> ToR -> host
        return 4 * delay + 2 * gw_up + gw

    topo.set_delay_function(one_way)
