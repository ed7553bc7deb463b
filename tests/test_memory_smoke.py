"""Bounded-memory smoke test for the streaming results path.

The tentpole claim is that a spilled open-loop run's peak memory does not
scale with the number of flows offered.  At pytest scale two effects still
grow with early flow count and then saturate: the quantile sketches buffer
raw values until ``exact_cap``, and each switch's ECMP route cache fills to
its (monkeypatched-small) limit before clearing.  So the assertion here is
*strong sub-linearity* across a 4x flow-count spread — the full flat-at-scale
check (1e5 vs 1e6 flows, where everything is saturated) lives in
``benchmarks/bench_streaming_scale.py --assert-flat`` and the CI
``memory-smoke`` job.
"""

import gc
import tracemalloc
from dataclasses import replace

import pytest

import repro.sim.switch as switch_mod
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import fig5a_configs
from repro.sim import units
from repro.workloads import GOOGLE, OpenLoopSpec


def _openloop_config(duration_us, results_dir, scheme="DCQCN"):
    base = fig5a_configs("tiny", schemes=[scheme], seed=7)[scheme]
    duration = units.microseconds(duration_us)
    spec = OpenLoopSpec(
        distribution=GOOGLE,
        duration_ns=duration,
        target_load=0.4,
        max_flow_size=20_000,
    )
    return replace(
        base,
        name="memsmoke",
        duration_ns=duration,
        drain_ns=duration // 2,
        traffic=replace(base.traffic, workload=None, incast_load=None, open_loop=spec),
        results_dir=results_dir,
    )


def _peak_bytes(config):
    gc.collect()
    tracemalloc.start()
    try:
        result = run_experiment(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result.flows_offered, peak


@pytest.fixture
def small_route_cache(monkeypatch):
    # The per-switch ECMP route cache legitimately holds up to
    # _ROUTE_CACHE_LIMIT FlowKey entries before clearing; at production scale
    # it saturates and is flat, but at pytest scale it would dominate the
    # measurement.  Shrink it so it saturates within the test window too.
    monkeypatch.setattr(switch_mod, "_ROUTE_CACHE_LIMIT", 1024)


class TestBoundedMemory:
    @pytest.mark.parametrize("scheme", ["DCQCN", "BFC"])
    def test_spill_peak_is_sublinear_in_flow_count(self, tmp_path, small_route_cache, scheme):
        flows_small, peak_small = _peak_bytes(
            _openloop_config(1000, str(tmp_path / "small"), scheme)
        )
        flows_big, peak_big = _peak_bytes(
            _openloop_config(4000, str(tmp_path / "big"), scheme)
        )
        flow_ratio = flows_big / flows_small
        peak_ratio = peak_big / peak_small
        assert flow_ratio > 3.0, "test did not scale the workload as intended"
        # Measured ~2.3x peak for 4.0x flows (sketch/reservoir/route-cache
        # warm-up); linear growth would track the flow ratio.  Fail well
        # before linear.
        assert peak_ratio < 0.75 * flow_ratio, (
            f"peak grew {peak_ratio:.2f}x for {flow_ratio:.2f}x flows "
            f"({peak_small / 1e6:.2f}MB -> {peak_big / 1e6:.2f}MB)"
        )
        # Absolute backstop: thousands of flows in a few MB.
        assert peak_big < 20e6, f"peak {peak_big / 1e6:.1f}MB exceeds 20MB budget"

    def test_spill_artifacts_exist_and_are_complete(self, tmp_path, small_route_cache):
        config = _openloop_config(500, str(tmp_path / "check"))
        result = run_experiment(config)
        from repro.results import ResultsAnalyzer

        analyzer = ResultsAnalyzer(result.results_ref)
        assert analyzer.flow_count() == result.flows_offered
