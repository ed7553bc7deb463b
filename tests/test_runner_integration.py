"""Integration tests: full experiments through the runner at micro scale.

These are the closest thing to the paper's end-to-end claims that can run in a
test suite: every scheme completes a small trace, BFC avoids drops and PFC,
Ideal-FQ and BFC have better tails than plain DCQCN, the cross-DC and incast
scenarios run, and results are deterministic for a fixed seed.
"""


import pytest

from repro.experiments.runner import ExperimentConfig, TrafficSpec, run_experiment
from repro.experiments.scenarios import (
    HEADLINE_SCHEMES,
    fig5a_configs,
    fig8_configs,
    fig9_configs,
    fig10_configs,
    fig12_configs,
    get_scale,
)
from repro.sim import units
from repro.topology.clos import ClosParams
from repro.workloads.distributions import GOOGLE
from repro.workloads.generator import WorkloadSpec


def micro_config(scheme: str, seed: int = 1, load: float = 0.5, incast: float | None = 0.05):
    """A very small configuration that still exercises congestion."""
    clos = ClosParams(
        num_tors=2, hosts_per_tor=3, num_spines=2,
        link_rate_bps=units.gbps(5), link_delay_ns=1_000,
    )
    duration = units.microseconds(300)
    traffic = TrafficSpec(
        workload=WorkloadSpec(
            distribution=GOOGLE,
            target_load=load,
            duration_ns=duration,
            max_flow_size=50_000,
        ),
        incast_load=incast,
        incast_fan_in=5,
        incast_aggregate_bytes=30_000,
        seed=seed,
    )
    return ExperimentConfig(
        name=f"micro/{scheme}",
        scheme=scheme,
        clos=clos,
        traffic=traffic,
        buffer_bytes=200_000,
        duration_ns=duration,
        drain_ns=duration,
        seed=seed,
    )


@pytest.mark.parametrize("scheme", HEADLINE_SCHEMES + ["BFC-VFID", "SFQ+InfBuffer"])
def test_every_scheme_completes_most_flows(scheme):
    result = run_experiment(micro_config(scheme))
    assert result.flows_offered > 20
    assert result.completion_rate() > 0.9
    assert result.p99_slowdown() >= 1.0


class TestBfcBehaviour:
    def test_bfc_has_no_drops_and_no_pfc(self):
        result = run_experiment(micro_config("BFC"))
        assert result.dropped_packets == 0
        pauses = result.pause_fraction_by_class()
        assert all(v < 0.01 for v in pauses.values())
        assert result.vfid_stats["pauses"] >= 0
        assert result.collision_fraction is not None

    def test_bfc_tail_no_worse_than_dcqcn(self):
        bfc = run_experiment(micro_config("BFC"))
        dcqcn = run_experiment(micro_config("DCQCN"))
        assert bfc.p99_slowdown() <= dcqcn.p99_slowdown() * 1.2

    def test_bfc_close_to_ideal_fq(self):
        bfc = run_experiment(micro_config("BFC"))
        ideal = run_experiment(micro_config("Ideal-FQ"))
        # "BFC closely tracks the ideal behaviour" — allow generous slack at
        # this micro scale.
        assert bfc.p99_slowdown() <= 3.0 * max(1.0, ideal.p99_slowdown())

    def test_bfc_paused_and_resumed_flows_balance(self):
        result = run_experiment(micro_config("BFC"))
        assert result.vfid_stats["resumes"] <= result.vfid_stats["pauses"]


class TestDeterminism:
    def test_same_seed_same_result(self):
        a = run_experiment(micro_config("BFC", seed=3))
        b = run_experiment(micro_config("BFC", seed=3))
        assert a.flows_offered == b.flows_offered
        assert a.p99_slowdown() == pytest.approx(b.p99_slowdown())
        assert a.dropped_packets == b.dropped_packets
        assert a.events_processed == b.events_processed

    def test_different_seed_different_trace(self):
        a = run_experiment(micro_config("DCQCN+Win", seed=3))
        b = run_experiment(micro_config("DCQCN+Win", seed=4))
        assert a.flows_offered != b.flows_offered or a.events_processed != b.events_processed


class TestResultAccounting:
    def test_flow_records_match_offered_flows(self):
        result = run_experiment(micro_config("DCQCN+Win"))
        assert len(result.flow_stats.records) == result.flows_offered

    def test_buffer_sampler_collected_samples(self):
        result = run_experiment(micro_config("DCQCN"))
        assert len(result.buffer_sampler.samples) > 10

    def test_utilization_dict_covers_hosts(self):
        result = run_experiment(micro_config("BFC"))
        assert len(result.utilization_per_receiver) == 6
        assert all(0.0 <= u <= 1.0 for u in result.utilization_per_receiver.values())

    def test_slowdown_series_produced(self):
        result = run_experiment(micro_config("DCQCN+Win"))
        series = result.slowdown_series()
        assert len(series) == 8
        assert any(count > 0 for _, _, count in series)

    def test_run_without_incast(self):
        result = run_experiment(micro_config("BFC", incast=None))
        assert result.completion_rate() > 0.9


class TestScenarioFactories:
    def test_fig5a_configs_have_all_schemes(self):
        configs = fig5a_configs("tiny")
        assert set(configs) == set(HEADLINE_SCHEMES)
        for scheme, config in configs.items():
            assert config.scheme == scheme
            assert config.duration_ns > 0

    def test_scale_presets(self):
        tiny = get_scale("tiny")
        small = get_scale("small")
        paper = get_scale("paper")
        assert tiny.clos.num_hosts < small.clos.num_hosts < paper.clos.num_hosts
        assert paper.clos.link_rate_bps == units.gbps(100)
        assert paper.buffer_bytes() > small.buffer_bytes() > tiny.buffer_bytes()
        with pytest.raises(KeyError):
            get_scale("huge")

    def test_fig12_varies_queue_count(self):
        configs = fig12_configs("tiny", queue_counts=(8, 32))
        assert configs["8q"].bfc_config.num_physical_queues == 8
        assert configs["32q"].bfc_config.num_physical_queues == 32
        assert configs["Ideal-FQ"].scheme == "Ideal-FQ"

    def test_fig8_sweep_structure(self):
        configs = fig8_configs("tiny", schemes=("BFC",), fan_ins=(3, 5))
        assert set(configs) == {"BFC"}
        assert set(configs["BFC"]) == {3, 5}

    def test_fig9_builds_cross_dc_configs(self):
        configs = fig9_configs("tiny", schemes=("BFC",))
        config = configs["BFC"]
        assert config.cross_dc is not None
        assert config.traffic.explicit_flows is not None
        tags = {f.tag for f in config.traffic.explicit_flows}
        assert "inter-dc" in tags and "intra-dc" in tags


class TestScenarioRuns:
    def test_fig8_point_runs_and_reports_utilization(self):
        configs = fig8_configs("tiny", schemes=("BFC",), fan_ins=(4,))
        result = run_experiment(configs["BFC"][4])
        assert 0.2 < result.mean_utilization() <= 1.0
        assert result.buffer_sampler.percentile(99) >= 0

    def test_fig9_cross_dc_runs(self):
        configs = fig9_configs("tiny", schemes=("BFC",))
        result = run_experiment(configs["BFC"])
        intra = [r for r in result.flow_stats.records if r.tag == "intra-dc"]
        inter = [r for r in result.flow_stats.records if r.tag == "inter-dc"]
        assert intra and inter
        assert result.completion_rate() > 0.8

    def test_fig10_queue_sampling(self):
        configs = fig10_configs("tiny", schemes=("BFC",), flow_counts=(8,))
        result = run_experiment(configs["BFC"][8])
        assert len(result.queue_sampler.queue_bytes) > 0
        assert result.queue_sampler.queue_percentile(99) > 0
