"""Unit tests for runner building blocks and multi-hop BFC pause propagation."""

from functools import partial

from repro.core.config import BfcConfig
from repro.core.nic import BfcNicScheduler
from repro.core.switchlogic import BfcSwitch
from repro.experiments.runner import ExperimentConfig, TrafficSpec
from repro.experiments.scenarios import get_scale
from repro.sim import units
from repro.sim.flow import Flow
from repro.sim.host import CongestionControl, Host, HostConfig
from repro.sim.port import connect
from repro.topology.clos import ClosParams
from repro.workloads.distributions import GOOGLE
from repro.workloads.generator import WorkloadSpec
from repro.workloads.longlived import many_to_one_flows
from repro.workloads.trace import FlowTrace


class TestTrafficSpec:
    HOSTS = list(range(8))
    RATE = units.gbps(10)

    def test_workload_only(self):
        spec = TrafficSpec(
            workload=WorkloadSpec(
                distribution=GOOGLE, target_load=0.4, duration_ns=units.microseconds(500)
            )
        )
        trace = spec.build(self.HOSTS, self.RATE, units.microseconds(500))
        assert len(trace) > 0
        assert all(not f.is_incast for f in trace)

    def test_incast_only(self):
        spec = TrafficSpec(incast_load=0.05, incast_fan_in=4, incast_aggregate_bytes=40_000)
        trace = spec.build(self.HOSTS, self.RATE, units.microseconds(500))
        assert len(trace) > 0
        assert all(f.is_incast for f in trace)

    def test_explicit_flows_merged_with_workload(self):
        explicit = FlowTrace([Flow(src=0, dst=1, size=5_000, start_ns=0, tag="pinned")])
        spec = TrafficSpec(
            workload=WorkloadSpec(
                distribution=GOOGLE, target_load=0.3, duration_ns=units.microseconds(300)
            ),
            explicit_flows=explicit,
        )
        trace = spec.build(self.HOSTS, self.RATE, units.microseconds(300))
        assert any(f.tag == "pinned" for f in trace)
        assert any(f.tag == "normal" for f in trace)

    def test_explicit_flows_start_fresh_on_every_build(self):
        # A run writes its progress into its flows; the next run of the same
        # config must not inherit it (retransmission counts would add up).
        explicit = FlowTrace([Flow(src=0, dst=1, size=5_000, start_ns=0)])
        spec = TrafficSpec(explicit_flows=explicit)
        (first,) = spec.build(self.HOSTS, self.RATE, units.microseconds(300))
        first.retransmitted_packets, first.finish_ns = 3, 1_000
        (second,) = spec.build(self.HOSTS, self.RATE, units.microseconds(300))
        assert second is not first
        assert second.flow_id == first.flow_id
        assert (second.retransmitted_packets, second.finish_ns) == (0, None)

    def test_incast_period_override(self):
        spec = TrafficSpec(
            incast_period_ns=units.microseconds(100),
            incast_fan_in=3,
            incast_aggregate_bytes=9_000,
            incast_receiver=0,
        )
        trace = spec.build(self.HOSTS, self.RATE, units.microseconds(350))
        events = sorted({f.start_ns for f in trace})
        # Events every 100 us starting at half a period (50 us).
        assert events[0] == units.microseconds(50)
        assert len(events) == 4
        assert all(f.dst == 0 for f in trace)

    def test_empty_spec_builds_empty_trace(self):
        trace = TrafficSpec().build(self.HOSTS, self.RATE, units.microseconds(100))
        assert len(trace) == 0


class TestExperimentConfigHelpers:
    def _config(self, **overrides):
        defaults = dict(
            name="unit",
            scheme="BFC",
            clos=ClosParams(num_tors=2, hosts_per_tor=2, num_spines=2),
            traffic=TrafficSpec(),
            buffer_bytes=100_000,
            duration_ns=units.microseconds(400),
        )
        defaults.update(overrides)
        return ExperimentConfig(**defaults)

    def test_total_duration_defaults_to_one_and_a_half(self):
        config = self._config()
        assert config.total_duration_ns() == units.microseconds(600)

    def test_explicit_drain(self):
        config = self._config(drain_ns=units.microseconds(100))
        assert config.total_duration_ns() == units.microseconds(500)

    def test_sample_interval_default_and_override(self):
        config = self._config()
        assert config.effective_sample_interval_ns() >= 1_000
        config = self._config(sample_interval_ns=12_345)
        assert config.effective_sample_interval_ns() == 12_345

    def test_scale_buffer_sizing_formula(self):
        scale = get_scale("tiny")
        ports = scale.clos.hosts_per_tor + scale.clos.num_spines
        expected = int(ports * scale.clos.link_rate_bps * scale.buffer_time_us * 1e-6 / 8)
        assert scale.buffer_bytes() == expected


def build_two_tier_bfc(sim, config=None):
    """h0, h1 -- sw_up -- sw_down -- h2.

    The receiver's access link is slower (2.5 Gbps) than the inter-switch
    link, so the congestion point is sw_down's egress to h2 and backpressure
    must propagate sw_down -> sw_up -> hosts.
    """
    config = config or BfcConfig(mtu=1000)
    registry = {}
    sw_up = BfcSwitch(sim, "sw_up", buffer_bytes=2_000_000, bfc_config=config)
    sw_down = BfcSwitch(sim, "sw_down", buffer_bytes=2_000_000, bfc_config=config)
    hosts = []
    for i in range(3):
        host = Host(
            sim,
            f"h{i}",
            host_id=i,
            config=HostConfig(mtu=1000, mark_first_packet=True),
            cc_factory=lambda rate: CongestionControl(rate),
            flow_registry=registry,
            nic_class=partial(BfcNicScheduler, config=config),
        )
        hosts.append(host)
    connect(hosts[0], sw_up, rate_bps=units.gbps(10), delay_ns=1_000)
    connect(hosts[1], sw_up, rate_bps=units.gbps(10), delay_ns=1_000)
    connect(sw_up, sw_down, rate_bps=units.gbps(10), delay_ns=1_000)
    connect(hosts[2], sw_down, rate_bps=units.gbps(2.5), delay_ns=1_000)
    sw_up.set_routes({
        0: [sw_up.interface_to(hosts[0]).index],
        1: [sw_up.interface_to(hosts[1]).index],
        2: [sw_up.interface_to(sw_down).index],
    })
    sw_down.set_routes({
        0: [sw_down.interface_to(sw_up).index],
        1: [sw_down.interface_to(sw_up).index],
        2: [sw_down.interface_to(hosts[2]).index],
    })
    return hosts, sw_up, sw_down, registry


class TestMultiHopPausePropagation:
    """The §3.4 rule: a congested downstream switch pauses flows one hop up;
    once the upstream switch's own queues exceed their threshold it pauses the
    senders in turn — and everything is resumed once congestion clears."""

    def test_pause_propagates_from_bottleneck_to_sources(self, sim):
        hosts, sw_up, sw_down, _ = build_two_tier_bfc(sim)
        flows = [
            Flow(src=0, dst=2, size=300_000, start_ns=0, src_port=1),
            Flow(src=1, dst=2, size=300_000, start_ns=0, src_port=2),
        ]
        for flow in flows:
            hosts[flow.src].start_flow(flow)
        sim.run(until=units.microseconds(400))
        # The bottleneck (sw_down, 2:1 into h2) paused flows toward sw_up ...
        assert sw_down.agent.counters.get("pauses") > 0
        assert sw_down.agent.counters.get("bloom_frames_sent") > 0
        # ... and the backlog that built at sw_up made it pause the hosts.
        assert sw_up.agent.counters.get("pauses") > 0
        assert hosts[0].nic.bloom_frames_received + hosts[1].nic.bloom_frames_received > 0

    def test_flows_complete_and_pauses_clear_after_congestion(self, sim):
        hosts, sw_up, sw_down, _ = build_two_tier_bfc(sim)
        flows = [
            Flow(src=0, dst=2, size=120_000, start_ns=0, src_port=1),
            Flow(src=1, dst=2, size=120_000, start_ns=0, src_port=2),
        ]
        for flow in flows:
            hosts[flow.src].start_flow(flow)
        sim.run(until=units.milliseconds(2))
        assert all(f.completed for f in flows)
        assert sw_up.agent.paused_flow_count() == 0
        assert sw_down.agent.paused_flow_count() == 0
        assert sw_up.dropped_packets() == 0 and sw_down.dropped_packets() == 0

    def test_bfc_preserves_in_order_delivery(self, sim):
        """§3.1 design constraint: packets of a flow leave each switch in
        arrival order, so without drops the receiver never sees reordering."""
        hosts, sw_up, sw_down, _ = build_two_tier_bfc(sim)
        flows = [
            Flow(src=0, dst=2, size=200_000, start_ns=0, src_port=1),
            Flow(src=1, dst=2, size=200_000, start_ns=0, src_port=2),
        ]
        for flow in flows:
            hosts[flow.src].start_flow(flow)
        sim.run(until=units.milliseconds(2))
        assert all(f.completed for f in flows)
        assert hosts[2].counters.get("out_of_order_packets") == 0
        assert hosts[2].counters.get("duplicate_packets") == 0

    def test_many_to_one_helper_on_two_tier(self, sim):
        hosts, sw_up, sw_down, _ = build_two_tier_bfc(sim)
        trace = many_to_one_flows([0, 1, 2], receiver=2, num_flows=4, size_bytes=40_000)
        for flow in trace:
            hosts[flow.src].start_flow(flow)
        sim.run(until=units.milliseconds(2))
        assert all(f.completed for f in trace)
