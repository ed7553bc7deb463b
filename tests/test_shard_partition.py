"""Unit tests for the topology partitioner (:mod:`repro.shard.partition`)."""

from dataclasses import replace

import pytest

from repro.experiments.runner import build_simulation
from repro.experiments.scenarios import fig5a_configs, fig9_configs
from repro.shard.partition import (
    PartitionError,
    PartitionSpec,
    partition_topology,
)
from repro.topology.crossdc import CrossDcParams


@pytest.fixture(scope="module")
def leaf_spine_topo():
    config = fig5a_configs("tiny", schemes=["DCQCN"], seed=1)["DCQCN"]
    _, _, topo, _ = build_simulation(config)
    return topo


def _two_dcs(num_tors, hosts_per_tor, gateway_delay_ns):
    """fig5a's fabric at ``num_tors`` x ``hosts_per_tor``, twice, one gateway link apart."""
    config = fig5a_configs("tiny", schemes=["DCQCN"], seed=1)["DCQCN"]
    clos = replace(config.clos, num_tors=num_tors, hosts_per_tor=hosts_per_tor)
    return replace(
        config,
        clos=clos,
        cross_dc=CrossDcParams(
            dc_params=clos,
            gateway_link_rate_bps=clos.link_rate_bps,
            gateway_delay_ns=gateway_delay_ns,
        ),
    )


#: Cross-DC fabrics the per-DC cut is checked on: the paper's fig9 scenario,
#: and two copies of fig5a's fabric at two sizes and gateway delays.  Each
#: maps to its config and the (hosts, switches) of one DC, gateway included.
CROSS_DC_FABRICS = {
    "fig9": (
        lambda: fig9_configs("tiny", schemes=("DCQCN",), seed=1)["DCQCN"],
        (8, 5),
    ),
    "two-pod": (lambda: _two_dcs(2, 4, 50_000), (8, 5)),
    "four-pod": (lambda: _two_dcs(4, 4, 100_000), (16, 7)),
}


@pytest.fixture(scope="module", params=list(CROSS_DC_FABRICS))
def cross_dc_fabric(request):
    """``(topology, (hosts, switches) per DC)`` of one cross-DC fabric."""
    make_config, per_dc = CROSS_DC_FABRICS[request.param]
    _, _, topo, _ = build_simulation(make_config())
    return topo, per_dc


@pytest.fixture
def cross_dc_topo(cross_dc_fabric):
    return cross_dc_fabric[0]


class TestLeafSpinePartition:
    """One DC: the only valid partition is the whole fabric on one shard."""

    def test_single_shard_has_no_cuts(self, leaf_spine_topo):
        spec = partition_topology(leaf_spine_topo, 1)
        assert spec.cuts == []
        assert spec.window_ns is None
        assert set(spec.shard_of.values()) == {0}

    @pytest.mark.parametrize("shards", [0, 2, 3, 4])
    def test_any_other_shard_count_is_refused(self, leaf_spine_topo, shards):
        with pytest.raises(PartitionError, match=f"1-DC topology into {shards} shards"):
            partition_topology(leaf_spine_topo, shards)

    def test_stats_shape(self, leaf_spine_topo):
        spec = partition_topology(leaf_spine_topo, 1)
        stats = spec.stats(leaf_spine_topo)
        assert stats == {
            "num_shards": 1,
            "shards": {"0": {"hosts": 8, "switches": 4}},
            "cut_links": 0,
            "cut_links_by_class": {},
            "window_ns": None,
        }


class TestCrossDcPartition:
    """Shard i is DC i; the inter-DC link is the only cut and the lookahead."""

    def test_cuts_only_the_gateway_link(self, cross_dc_topo):
        spec = partition_topology(cross_dc_topo, 2)
        assert [cut.link_class for cut in spec.cuts] == ["inter-dc"]
        assert {cut.a for cut in spec.cuts} | {cut.b for cut in spec.cuts} == {
            "gw0",
            "gw1",
        }

    def test_lookahead_equals_cross_dc_delay(self, cross_dc_topo):
        spec = partition_topology(cross_dc_topo, 2)
        (cut,) = spec.cuts
        assert spec.window_ns == cut.delay_ns
        gateway_link = next(
            link for link in cross_dc_topo.links if link.link_class == "inter-dc"
        )
        assert spec.window_ns == gateway_link.delay_ns

    def test_shard_i_is_dc_i(self, cross_dc_topo):
        spec = partition_topology(cross_dc_topo, 2)
        for host_id, host in cross_dc_topo.hosts.items():
            assert spec.shard_of[host.name] == cross_dc_topo.dc_of_host[host_id]
        # Hosts stay with their ToR, gateways with their DC.
        for host_id, tor_name in cross_dc_topo.tor_of_host.items():
            assert spec.shard_of[tor_name] == cross_dc_topo.dc_of_host[host_id]
        assert spec.shard_of["gw0"] == spec.shard_of["dc0-tor0"] == 0
        assert spec.shard_of["gw1"] == spec.shard_of["dc1-tor0"] == 1

    def test_one_shard_keeps_both_dcs_together(self, cross_dc_topo):
        spec = partition_topology(cross_dc_topo, 1)
        assert spec.cuts == []
        assert set(spec.shard_of.values()) == {0}

    @pytest.mark.parametrize("shards", [0, 3, 4, 6])
    def test_any_other_shard_count_is_refused(self, cross_dc_topo, shards):
        with pytest.raises(PartitionError, match="shards must be 1 or 2"):
            partition_topology(cross_dc_topo, shards)

    def test_partition_is_deterministic(self, cross_dc_topo):
        a = partition_topology(cross_dc_topo, 2)
        b = partition_topology(cross_dc_topo, 2)
        assert a.shard_of == b.shard_of
        assert a.cuts == b.cuts

    def test_stats_shape(self, cross_dc_fabric):
        cross_dc_topo, (hosts, switches) = cross_dc_fabric
        spec = partition_topology(cross_dc_topo, 2)
        stats = spec.stats(cross_dc_topo)
        assert stats["num_shards"] == 2
        assert stats["shards"] == {
            "0": {"hosts": hosts, "switches": switches},
            "1": {"hosts": hosts, "switches": switches},
        }
        assert stats["cut_links_by_class"] == {"inter-dc": 1}
        assert stats["window_ns"] == spec.window_ns


class TestPartitionSpecHelpers:
    def test_window_none_without_cuts(self):
        spec = PartitionSpec(1, {"a": 0}, [])
        assert spec.window_ns is None
