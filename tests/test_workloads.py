"""Tests for workload synthesis: distributions, generators, incast, traces."""

import random

import pytest

from repro.sim import units
from repro.workloads.distributions import (
    FB_HADOOP,
    GOOGLE,
    WEBSEARCH,
    WORKLOADS,
    EmpiricalSizeDistribution,
    byte_weighted_cdf,
)
from repro.workloads.generator import WorkloadSpec, generate_workload, load_to_arrival_rate
from repro.workloads.incast import IncastSpec, generate_incast_series, incast_period_for_load
from repro.workloads.longlived import long_lived_flows, many_to_one_flows
from repro.workloads.trace import FlowTrace


class TestDistributions:
    def test_registry_contains_the_three_workloads(self):
        assert set(WORKLOADS) == {"google", "fb_hadoop", "websearch"}

    @pytest.mark.parametrize("dist", [GOOGLE, FB_HADOOP, WEBSEARCH])
    def test_samples_within_support(self, dist):
        rng = random.Random(1)
        for _ in range(300):
            size = dist.sample(rng)
            assert 1 <= size <= dist.max_size()

    def test_google_is_dominated_by_small_flows(self):
        # Paper: in the Google workload more than 80% of flows are < 1 KB.
        assert GOOGLE.cdf(1_000) >= 0.8

    def test_websearch_flows_are_much_larger(self):
        assert WEBSEARCH.cdf(1_000) < 0.1
        assert WEBSEARCH.mean() > 10 * GOOGLE.mean()

    def test_quantile_monotone(self):
        qs = [GOOGLE.quantile(u / 20) for u in range(21)]
        assert qs == sorted(qs)

    def test_quantile_extremes(self):
        assert GOOGLE.quantile(0.0) >= 1
        assert GOOGLE.quantile(1.0) == GOOGLE.max_size()

    def test_cdf_monotone(self):
        sizes = [10, 100, 1_000, 10_000, 100_000, 1_000_000]
        values = [GOOGLE.cdf(s) for s in sizes]
        assert values == sorted(values)
        assert values[-1] <= 1.0

    def test_sampling_matches_cdf_roughly(self):
        rng = random.Random(7)
        samples = GOOGLE.sample_many(rng, 4_000)
        empirical = sum(1 for s in samples if s <= 1_000) / len(samples)
        assert empirical == pytest.approx(GOOGLE.cdf(1_000), abs=0.05)

    def test_mean_is_positive_and_below_max(self):
        for dist in (GOOGLE, FB_HADOOP, WEBSEARCH):
            assert 0 < dist.mean() < dist.max_size()

    def test_invalid_distributions_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalSizeDistribution("bad", [(100, 0.5)])
        with pytest.raises(ValueError):
            EmpiricalSizeDistribution("bad", [(100, 0.5), (50, 1.0)])
        with pytest.raises(ValueError):
            EmpiricalSizeDistribution("bad", [(100, 0.7), (200, 0.5)])
        with pytest.raises(ValueError):
            EmpiricalSizeDistribution("bad", [(100, 0.5), (200, 0.9)])

    def test_byte_weighted_cdf_shape(self):
        points = byte_weighted_cdf(GOOGLE)
        fractions = [f for _, f in points]
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)
        # Byte-weighting shifts mass to larger flows: at 1 KB the byte CDF is
        # far below the flow-count CDF (0.82).
        at_1kb = next(f for size, f in points if size >= 1_000)
        assert at_1kb < GOOGLE.cdf(1_000)

    def test_google_carries_most_bytes_within_one_bdp(self):
        # Fig. 4: most Google bytes are in flows that fit in one end-to-end
        # BDP (~100 KB at 100 Gbps / 8 us); WebSearch carries a smaller share.
        def bytes_at_or_below(distribution, size_limit):
            return max(
                [f for size, f in byte_weighted_cdf(distribution) if size <= size_limit],
                default=0.0,
            )

        bdp = 100_000
        google = bytes_at_or_below(GOOGLE, bdp)
        assert google > 0.5
        assert bytes_at_or_below(WEBSEARCH, bdp) < google


class TestGenerator:
    def test_arrival_rate_formula(self):
        rate = load_to_arrival_rate(0.5, num_hosts=10, host_link_rate_bps=units.gbps(10),
                                    mean_flow_size_bytes=10_000)
        # 0.5 * 10 * 1.25 GB/s / 10 KB = 625k flows/s
        assert rate == pytest.approx(625_000, rel=0.01)

    def test_generated_load_close_to_target(self):
        spec = WorkloadSpec(
            distribution=GOOGLE,
            target_load=0.6,
            duration_ns=units.milliseconds(5),
            sigma=0.0,
            max_flow_size=None,
        )
        hosts = list(range(16))
        trace = generate_workload(spec, hosts, units.gbps(10), seed=3)
        load = trace.offered_load(16, units.gbps(10), spec.duration_ns)
        assert load == pytest.approx(0.6, rel=0.35)

    def test_flows_within_duration_and_hosts(self):
        spec = WorkloadSpec(distribution=GOOGLE, target_load=0.4,
                            duration_ns=units.milliseconds(1))
        hosts = [3, 5, 7, 11]
        trace = generate_workload(spec, hosts, units.gbps(10), seed=1)
        assert len(trace) > 0
        for flow in trace:
            assert 0 <= flow.start_ns < spec.duration_ns
            assert flow.src in hosts and flow.dst in hosts
            assert flow.src != flow.dst

    def test_max_flow_size_cap(self):
        spec = WorkloadSpec(distribution=WEBSEARCH, target_load=0.5,
                            duration_ns=units.milliseconds(1), max_flow_size=50_000)
        trace = generate_workload(spec, list(range(8)), units.gbps(10), seed=2)
        assert all(f.size <= 50_000 for f in trace)

    def test_seed_determinism(self):
        spec = WorkloadSpec(distribution=GOOGLE, target_load=0.5,
                            duration_ns=units.milliseconds(1))
        a = generate_workload(spec, list(range(8)), units.gbps(10), seed=5)
        b = generate_workload(spec, list(range(8)), units.gbps(10), seed=5)
        assert [(f.src, f.dst, f.size, f.start_ns) for f in a] == [
            (f.src, f.dst, f.size, f.start_ns) for f in b
        ]

    def test_different_seeds_differ(self):
        spec = WorkloadSpec(distribution=GOOGLE, target_load=0.5,
                            duration_ns=units.milliseconds(1))
        a = generate_workload(spec, list(range(8)), units.gbps(10), seed=5)
        b = generate_workload(spec, list(range(8)), units.gbps(10), seed=6)
        assert [(f.size, f.start_ns) for f in a] != [(f.size, f.start_ns) for f in b]

    def test_restricted_src_dst_sets(self):
        spec = WorkloadSpec(distribution=GOOGLE, target_load=0.5,
                            duration_ns=units.milliseconds(1))
        srcs, dsts = [0, 1], [6, 7]
        trace = generate_workload(
            spec, list(range(8)), units.gbps(10), seed=1, src_hosts=srcs, dst_hosts=dsts
        )
        assert all(f.src in srcs and f.dst in dsts for f in trace)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(distribution=GOOGLE, target_load=0.0, duration_ns=1_000).validate()
        with pytest.raises(ValueError):
            WorkloadSpec(distribution=GOOGLE, target_load=0.5, duration_ns=0).validate()
        with pytest.raises(ValueError):
            generate_workload(
                WorkloadSpec(distribution=GOOGLE, target_load=0.5, duration_ns=1_000),
                [1],
                units.gbps(10),
            )


class TestIncast:
    def test_period_for_load(self):
        period = incast_period_for_load(0.05, 20_000_000, 64, units.gbps(100))
        # 20 MB / (0.05 * 64 * 12.5 GB/s) = 500 us.
        assert period == pytest.approx(units.microseconds(500), rel=0.01)

    def test_event_structure(self):
        spec = IncastSpec(fan_in=5, aggregate_bytes=50_000, period_ns=100_000,
                          duration_ns=300_000)
        trace = generate_incast_series(spec, list(range(10)), seed=1)
        events = {}
        for flow in trace:
            events.setdefault(flow.start_ns, []).append(flow)
        assert len(events) == 3
        for flows in events.values():
            assert len(flows) == 5
            dsts = {f.dst for f in flows}
            assert len(dsts) == 1
            assert all(f.src != f.dst for f in flows)
            assert all(f.is_incast for f in flows)
            assert sum(f.size for f in flows) == pytest.approx(50_000, abs=5)

    def test_fixed_receiver(self):
        spec = IncastSpec(fan_in=3, aggregate_bytes=30_000, period_ns=100_000,
                          duration_ns=200_000)
        trace = generate_incast_series(spec, list(range(6)), seed=1, receiver=4)
        assert all(f.dst == 4 for f in trace)

    def test_fan_in_clamped_to_available_senders(self):
        spec = IncastSpec(fan_in=100, aggregate_bytes=10_000, period_ns=100_000,
                          duration_ns=100_000)
        trace = generate_incast_series(spec, list(range(5)), seed=1)
        events = {}
        for flow in trace:
            events.setdefault(flow.start_ns, []).append(flow)
        assert all(len(flows) == 4 for flows in events.values())

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            IncastSpec(fan_in=0, aggregate_bytes=1, period_ns=1, duration_ns=1).validate()
        with pytest.raises(ValueError):
            incast_period_for_load(0.0, 1_000, 8, units.gbps(10))


class TestLongLived:
    def test_long_lived_flows_per_receiver(self):
        trace = long_lived_flows(list(range(8)), flows_per_receiver=4, size_bytes=1_000_000)
        assert len(trace) == 32
        per_dst = {}
        for flow in trace:
            per_dst.setdefault(flow.dst, []).append(flow)
            assert flow.src != flow.dst
        assert all(len(flows) == 4 for flows in per_dst.values())
        # Senders of one receiver are distinct.
        for flows in per_dst.values():
            assert len({f.src for f in flows}) == 4

    def test_many_to_one(self):
        trace = many_to_one_flows(list(range(10)), receiver=0, num_flows=6, size_bytes=10_000)
        assert len(trace) == 6
        assert all(f.dst == 0 and f.src != 0 for f in trace)
        assert len({f.src for f in trace}) == 6

    def test_many_to_one_more_flows_than_hosts(self):
        trace = many_to_one_flows(list(range(4)), receiver=0, num_flows=9, size_bytes=10_000)
        assert len(trace) == 9
        assert all(f.dst == 0 and f.src != 0 for f in trace)

    def test_invalid_receiver(self):
        with pytest.raises(ValueError):
            many_to_one_flows([0, 1], receiver=5, num_flows=2, size_bytes=100)


class TestFlowTrace:
    def test_sorted_by_start_time(self):
        from repro.sim.flow import Flow

        trace = FlowTrace([
            Flow(src=0, dst=1, size=10, start_ns=500),
            Flow(src=0, dst=1, size=10, start_ns=100),
        ])
        assert [f.start_ns for f in trace] == [100, 500]

    def test_merge_and_filter(self):
        from repro.sim.flow import Flow

        a = FlowTrace([Flow(src=0, dst=1, size=10, start_ns=0)])
        b = FlowTrace([Flow(src=1, dst=0, size=10, start_ns=5, is_incast=True)])
        merged = a.merge(b)
        assert len(merged) == 2
        assert len(merged.incast_flows()) == 1
        assert len(merged.normal_flows()) == 1

    def test_total_bytes_and_load(self):
        from repro.sim.flow import Flow

        trace = FlowTrace([Flow(src=0, dst=1, size=1_250, start_ns=0)])
        assert trace.total_bytes() == 1_250
        load = trace.offered_load(1, units.gbps(10), units.microseconds(10))
        assert load == pytest.approx(0.1, rel=0.01)

    def test_json_roundtrip(self, tmp_path):
        from repro.sim.flow import Flow

        trace = FlowTrace([
            Flow(src=0, dst=1, size=10, start_ns=0, tag="x", is_incast=True, src_port=5),
            Flow(src=2, dst=3, size=99, start_ns=7),
        ])
        path = tmp_path / "trace.json"
        trace.save(str(path))
        loaded = FlowTrace.load(str(path))
        assert len(loaded) == 2
        assert [(f.src, f.dst, f.size, f.start_ns, f.is_incast, f.tag) for f in loaded] == [
            (f.src, f.dst, f.size, f.start_ns, f.is_incast, f.tag) for f in trace
        ]
