"""Per-figure experiment scenarios.

Every figure of the paper's evaluation has a factory here that returns the
set of :class:`~repro.experiments.runner.ExperimentConfig` objects needed to
regenerate it, at one of three scales:

* ``tiny``  — default for benchmarks and CI: a 8-host, 2-ToR, 2-spine fabric
  at 5 Gbps with sub-millisecond traces.  Runs in seconds per scheme.
* ``small`` — a 16-host, 2-ToR, 4-spine fabric at 10 Gbps, millisecond traces.
* ``paper`` — the published parameters (T1/T2 at 100 Gbps, 12 MB buffers).
  Provided for completeness; a pure-Python run at this scale takes hours.

The factories only build configurations.  :data:`repro.experiments.figures.FIGURES`
pairs each figure's factory with its table and the paper's claims, and runs
it as a campaign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.config import BfcConfig
from repro.sim import units
from repro.topology.clos import ClosParams, paper_t1_params, scaled_params
from repro.topology.crossdc import CrossDcParams
from repro.workloads.collectives import CollectiveSpec
from repro.workloads.distributions import FB_HADOOP, GOOGLE, EmpiricalSizeDistribution
from repro.workloads.generator import WorkloadSpec, generate_workload
from repro.workloads.longlived import long_lived_flows, many_to_one_flows
from repro.workloads.openloop import OpenLoopSpec
from repro.workloads.rpc import RpcFanoutSpec

from .runner import ExperimentConfig, TrafficSpec

#: Schemes shown in the paper's headline comparison (Fig. 5).
HEADLINE_SCHEMES: List[str] = [
    "BFC",
    "Ideal-FQ",
    "DCQCN",
    "DCQCN+Win",
    "HPCC",
    "DCQCN+Win+SFQ",
]


@dataclass
class ScenarioScale:
    """Topology / trace sizing for one scale preset."""

    name: str
    clos: ClosParams
    buffer_time_us: float
    duration_ns: int
    max_flow_size: Optional[int]
    incast_aggregate_bytes: int
    incast_fan_in: int
    mtu: int = 1000

    def switch_capacity_bps(self) -> float:
        ports = self.clos.hosts_per_tor + self.clos.num_spines
        return ports * self.clos.link_rate_bps

    def buffer_bytes(self) -> int:
        """Buffer sized to ``buffer_time_us`` of ToR switch capacity.

        The paper's 12 MB buffer on a 2.4 Tbps ToR corresponds to ~40 us of
        switch capacity (its Fig. 1 metric); scaled topologies keep that ratio.
        """
        return int(self.switch_capacity_bps() * self.buffer_time_us * 1e-6 / 8)

    def clamp_fan_in(self) -> int:
        return min(self.incast_fan_in, self.clos.num_hosts - 1)


def get_scale(name: str = "tiny") -> ScenarioScale:
    """Return one of the scale presets ("tiny", "small", "paper")."""
    # Note on buffer sizing: the paper's switches hold ~40 us of switch
    # capacity (Fig. 1).  At scaled-down link rates the BFC feedback overshoot
    # ((HRTT + tau) * mu per paused flow) is dominated by MTU serialization
    # time, which does not shrink with the buffer, so the scaled presets use a
    # proportionally larger buffer-time to keep the buffer/overshoot ratio in
    # the paper's regime (see DESIGN.md and EXPERIMENTS.md).
    if name == "tiny":
        return ScenarioScale(
            name="tiny",
            clos=scaled_params(
                num_tors=2, hosts_per_tor=4, num_spines=2, link_rate_bps=units.gbps(10)
            ),
            buffer_time_us=120.0,
            duration_ns=units.microseconds(600),
            max_flow_size=100_000,
            incast_aggregate_bytes=100_000,
            incast_fan_in=7,
        )
    if name == "small":
        return ScenarioScale(
            name="small",
            clos=scaled_params(
                num_tors=2, hosts_per_tor=8, num_spines=4, link_rate_bps=units.gbps(25)
            ),
            buffer_time_us=80.0,
            duration_ns=units.milliseconds(1),
            max_flow_size=1_000_000,
            incast_aggregate_bytes=1_000_000,
            incast_fan_in=15,
        )
    if name == "paper":
        return ScenarioScale(
            name="paper",
            clos=paper_t1_params(),
            buffer_time_us=40.0,
            duration_ns=units.milliseconds(10),
            max_flow_size=None,
            incast_aggregate_bytes=20_000_000,
            incast_fan_in=100,
        )
    raise KeyError(f"unknown scale {name!r}; use 'tiny', 'small' or 'paper'")


def _base_config(
    name: str,
    scheme: str,
    scale: ScenarioScale,
    traffic: TrafficSpec,
    seed: int = 1,
    **overrides,
) -> ExperimentConfig:
    kwargs = dict(
        name=name,
        scheme=scheme,
        clos=scale.clos,
        traffic=traffic,
        buffer_bytes=scale.buffer_bytes(),
        duration_ns=scale.duration_ns,
        seed=seed,
        mtu=scale.mtu,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def _background_traffic(
    scale: ScenarioScale,
    distribution: EmpiricalSizeDistribution,
    load: float,
    incast_load: Optional[float] = None,
    seed: int = 1,
) -> TrafficSpec:
    workload = WorkloadSpec(
        distribution=distribution,
        target_load=load,
        duration_ns=scale.duration_ns,
        max_flow_size=scale.max_flow_size,
    )
    return TrafficSpec(
        workload=workload,
        incast_load=incast_load,
        incast_fan_in=scale.clamp_fan_in(),
        incast_aggregate_bytes=scale.incast_aggregate_bytes,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Fig. 2 — DCQCN buffer occupancy vs link speed (PFC disabled)
# ---------------------------------------------------------------------------


def fig2_configs(scale_name: str = "tiny", seed: int = 1) -> Dict[str, ExperimentConfig]:
    """DCQCN buffer-occupancy CDF at three link speeds, Google 75% + 5% incast."""
    scale = get_scale(scale_name)
    base_rate = scale.clos.link_rate_bps
    speed_factors = {"1x": 1.0, "2x": 2.0, "4x": 4.0}
    configs: Dict[str, ExperimentConfig] = {}
    for label, factor in speed_factors.items():
        clos = ClosParams(
            num_tors=scale.clos.num_tors,
            hosts_per_tor=scale.clos.hosts_per_tor,
            num_spines=scale.clos.num_spines,
            link_rate_bps=base_rate * factor,
            link_delay_ns=scale.clos.link_delay_ns,
        )
        speed_scale = ScenarioScale(**{**scale.__dict__, "clos": clos})
        traffic = _background_traffic(speed_scale, GOOGLE, 0.70, incast_load=0.05, seed=seed)
        configs[label] = _base_config(
            f"fig2/{label}", "DCQCN", speed_scale, traffic, seed=seed, pfc_enabled=False
        )
    return configs


# ---------------------------------------------------------------------------
# Fig. 3 — DCQCN tail FCT vs switch buffer/capacity ratio
# ---------------------------------------------------------------------------


def fig3_configs(scale_name: str = "tiny", seed: int = 1) -> Dict[str, ExperimentConfig]:
    """DCQCN p99 FCT slowdown for buffer sizes worth 10/20/30 us of capacity."""
    scale = get_scale(scale_name)
    configs: Dict[str, ExperimentConfig] = {}
    for buffer_us in (10.0, 20.0, 30.0):
        sized = ScenarioScale(**{**scale.__dict__, "buffer_time_us": buffer_us})
        traffic = _background_traffic(sized, GOOGLE, 0.70, incast_load=0.05, seed=seed)
        configs[f"{buffer_us:g}us"] = _base_config(
            f"fig3/{buffer_us:g}us", "DCQCN", sized, traffic, seed=seed
        )
    return configs


# ---------------------------------------------------------------------------
# Fig. 5 — headline tail-latency comparison
# ---------------------------------------------------------------------------


def fig5a_configs(
    scale_name: str = "tiny",
    schemes: Optional[Sequence[str]] = None,
    seed: int = 1,
) -> Dict[str, ExperimentConfig]:
    """Google distribution, 60% background + 5% incast, all schemes."""
    scale = get_scale(scale_name)
    traffic = _background_traffic(scale, GOOGLE, 0.60, incast_load=0.05, seed=seed)
    return {
        scheme: _base_config(f"fig5a/{scheme}", scheme, scale, traffic, seed=seed)
        for scheme in (schemes or HEADLINE_SCHEMES)
    }


def fig5b_configs(
    scale_name: str = "tiny",
    schemes: Optional[Sequence[str]] = None,
    seed: int = 1,
) -> Dict[str, ExperimentConfig]:
    """FB_Hadoop distribution, 60% background + 5% incast, all schemes."""
    scale = get_scale(scale_name)
    traffic = _background_traffic(scale, FB_HADOOP, 0.60, incast_load=0.05, seed=seed)
    return {
        scheme: _base_config(f"fig5b/{scheme}", scheme, scale, traffic, seed=seed)
        for scheme in (schemes or HEADLINE_SCHEMES)
    }


def fig5c_configs(
    scale_name: str = "tiny",
    schemes: Optional[Sequence[str]] = None,
    seed: int = 1,
) -> Dict[str, ExperimentConfig]:
    """Google distribution, 65% load, no incast, all schemes."""
    scale = get_scale(scale_name)
    traffic = _background_traffic(scale, GOOGLE, 0.65, incast_load=None, seed=seed)
    return {
        scheme: _base_config(f"fig5c/{scheme}", scheme, scale, traffic, seed=seed)
        for scheme in (schemes or HEADLINE_SCHEMES)
    }


# Fig. 6 reuses the Fig. 5a runs: buffer occupancy CDF and PFC pause shares.
fig6_configs = fig5a_configs


# ---------------------------------------------------------------------------
# Fig. 7 — dynamic vs static physical queue assignment
# ---------------------------------------------------------------------------


def fig7_configs(scale_name: str = "tiny", seed: int = 1) -> Dict[str, ExperimentConfig]:
    """BFC vs the BFC-VFID straw proposal vs SFQ+InfBuffer on the Fig. 5a workload."""
    return fig5a_configs(
        scale_name, schemes=["BFC", "BFC-VFID", "SFQ+InfBuffer"], seed=seed
    )


# ---------------------------------------------------------------------------
# Fig. 8 — incast fan-in sweep (utilization and tail buffer occupancy)
# ---------------------------------------------------------------------------


def fig8_configs(
    scale_name: str = "tiny",
    schemes: Sequence[str] = ("BFC", "DCQCN+Win"),
    fan_ins: Optional[Sequence[int]] = None,
    seed: int = 1,
) -> Dict[str, Dict[int, ExperimentConfig]]:
    """Long-lived flows to every receiver plus a periodic incast of growing fan-in."""
    scale = get_scale(scale_name)
    host_ids = list(range(scale.clos.num_hosts))
    if fan_ins is None:
        max_fan_in = scale.clos.num_hosts - 1
        fan_ins = sorted({max(2, max_fan_in // 4), max(3, max_fan_in // 2), max_fan_in})
    # Long-lived background: 4 flows per receiver, each big enough to span the run.
    longlived_bytes = int(
        scale.clos.link_rate_bps * scale.duration_ns / (8 * 1e9) / 2
    )
    background = long_lived_flows(host_ids, flows_per_receiver=4, size_bytes=max(10_000, longlived_bytes), seed=seed)
    period_ns = max(scale.duration_ns // 4, 1)
    configs: Dict[str, Dict[int, ExperimentConfig]] = {}
    for scheme in schemes:
        configs[scheme] = {}
        for fan_in in fan_ins:
            traffic = TrafficSpec(
                explicit_flows=background,
                incast_period_ns=period_ns,
                incast_fan_in=fan_in,
                incast_aggregate_bytes=scale.incast_aggregate_bytes,
                incast_receiver=host_ids[0],
                seed=seed,
            )
            configs[scheme][fan_in] = _base_config(
                f"fig8/{scheme}/fanin{fan_in}", scheme, scale, traffic, seed=seed
            )
    return configs


# ---------------------------------------------------------------------------
# Fig. 9 — cross-data-center experiment
# ---------------------------------------------------------------------------


def fig9_configs(
    scale_name: str = "tiny",
    schemes: Sequence[str] = ("BFC", "DCQCN+Win"),
    seed: int = 1,
) -> Dict[str, ExperimentConfig]:
    """Two data centers joined by a long-delay gateway link; 20% inter-DC flows."""
    scale = get_scale(scale_name)
    dc_params = scale.clos
    cross = CrossDcParams(
        dc_params=dc_params,
        gateway_link_rate_bps=dc_params.link_rate_bps,
        gateway_delay_ns=20_000 if scale_name != "paper" else 200_000,
    )
    num_hosts = dc_params.num_hosts
    dc0 = list(range(num_hosts))
    dc1 = list(range(num_hosts, 2 * num_hosts))
    all_hosts = dc0 + dc1
    load = 0.65
    intra_spec = WorkloadSpec(
        distribution=FB_HADOOP,
        target_load=load * 0.8,
        duration_ns=scale.duration_ns,
        max_flow_size=scale.max_flow_size,
        tag="intra-dc",
    )
    inter_spec = WorkloadSpec(
        distribution=FB_HADOOP,
        target_load=load * 0.2,
        duration_ns=scale.duration_ns,
        max_flow_size=scale.max_flow_size,
        tag="inter-dc",
    )
    intra0 = generate_workload(intra_spec, dc0, dc_params.link_rate_bps, seed=seed)
    intra1 = generate_workload(intra_spec, dc1, dc_params.link_rate_bps, seed=seed + 1)
    inter = generate_workload(
        inter_spec, all_hosts, dc_params.link_rate_bps, seed=seed + 2,
        src_hosts=dc0, dst_hosts=dc1,
    )
    flows = intra0.merge(intra1).merge(inter)
    traffic = TrafficSpec(explicit_flows=flows, seed=seed)
    configs: Dict[str, ExperimentConfig] = {}
    for scheme in schemes:
        configs[scheme] = _base_config(
            f"fig9/{scheme}",
            scheme,
            scale,
            traffic,
            seed=seed,
            cross_dc=cross,
            gateway_buffer_bytes=5 * scale.buffer_bytes(),
            drain_ns=scale.duration_ns,
        )
    return configs


# ---------------------------------------------------------------------------
# Open-loop cross-DC — the streaming-results headline scenario
# ---------------------------------------------------------------------------


def openloop_crossdc_config(
    scale_name: str = "tiny",
    scheme: str = "BFC",
    seed: int = 1,
    *,
    users: int = 1_000_000,
    target_flows: int = 100_000,
    target_load: float = 0.5,
    max_flow_size: Optional[int] = 20_000,
    results_dir: Optional[str] = None,
) -> ExperimentConfig:
    """Open-loop Poisson sessions over the fig9 cross-DC fabric.

    Models a population of ``users`` independent users whose superposed flow
    arrivals hit ``target_load`` of the fabric, and sizes the run window so
    that ``target_flows`` arrivals occur (``max_flows`` caps the count
    exactly; the window has 10% slack so the cap, not the clock, ends the
    arrival process).  Unlike the trace-based fig9 scenario no flow list is
    ever materialized, so ``target_flows`` can be millions; pair with
    ``results_dir`` to also keep the harvested records off the heap
    (see ``docs/results.md``).
    """
    scale = get_scale(scale_name)
    dc_params = scale.clos
    cross = CrossDcParams(
        dc_params=dc_params,
        gateway_link_rate_bps=dc_params.link_rate_bps,
        gateway_delay_ns=20_000 if scale_name != "paper" else 200_000,
    )
    num_hosts = 2 * dc_params.num_hosts
    # Calibrate the aggregate rate from the load target, then divide it over
    # the user population (superposition: N users at r flows/s == rate N*r).
    probe = OpenLoopSpec(
        distribution=GOOGLE,
        duration_ns=1,
        target_load=target_load,
        max_flow_size=max_flow_size,
    )
    rate_per_s = probe.aggregate_rate_per_s(num_hosts, dc_params.link_rate_bps)
    duration_ns = int(target_flows / rate_per_s * 1e9 * 1.1) + 1
    spec = OpenLoopSpec(
        distribution=GOOGLE,
        duration_ns=duration_ns,
        users=users,
        flows_per_user_per_s=rate_per_s / users,
        max_flow_size=max_flow_size,
        max_flows=target_flows,
    )
    traffic = TrafficSpec(open_loop=spec, seed=seed)
    return _base_config(
        f"openloop-crossdc/{scheme}",
        scheme,
        scale,
        traffic,
        seed=seed,
        cross_dc=cross,
        gateway_buffer_bytes=5 * scale.buffer_bytes(),
        duration_ns=duration_ns,
        drain_ns=scale.duration_ns,
        results_dir=results_dir,
    )


# ---------------------------------------------------------------------------
# Fig. 10 — physical queue size vs number of concurrent flows
# ---------------------------------------------------------------------------


def fig10_configs(
    scale_name: str = "tiny",
    schemes: Sequence[str] = ("BFC", "BFC-BufferOpt"),
    flow_counts: Sequence[int] = (8, 32, 128),
    seed: int = 1,
) -> Dict[str, Dict[int, ExperimentConfig]]:
    """Concurrent long-lived flows to one receiver; per-physical-queue backlog."""
    scale = get_scale(scale_name)
    host_ids = list(range(scale.clos.num_hosts))
    receiver = host_ids[0]
    size_bytes = int(scale.clos.link_rate_bps * scale.duration_ns / (8 * 1e9))
    configs: Dict[str, Dict[int, ExperimentConfig]] = {}
    for scheme in schemes:
        configs[scheme] = {}
        for count in flow_counts:
            flows = many_to_one_flows(
                host_ids, receiver, num_flows=count, size_bytes=max(20_000, size_bytes), seed=seed
            )
            traffic = TrafficSpec(explicit_flows=flows, seed=seed)
            configs[scheme][count] = _base_config(
                f"fig10/{scheme}/{count}flows", scheme, scale, traffic, seed=seed
            )
    return configs


# ---------------------------------------------------------------------------
# Fig. 11 — high-priority-queue ablation at high load
# ---------------------------------------------------------------------------


def fig11_configs(scale_name: str = "tiny", seed: int = 1) -> Dict[str, ExperimentConfig]:
    """Google 85% + 5% incast: BFC with and without the high-priority queue."""
    scale = get_scale(scale_name)
    traffic = _background_traffic(scale, GOOGLE, 0.85, incast_load=0.05, seed=seed)
    return {
        scheme: _base_config(f"fig11/{scheme}", scheme, scale, traffic, seed=seed)
        for scheme in ("BFC", "BFC-HighPriorityQ")
    }


# ---------------------------------------------------------------------------
# Fig. 12 — sensitivity to the number of physical queues
# ---------------------------------------------------------------------------


def fig12_configs(
    scale_name: str = "tiny",
    queue_counts: Sequence[int] = (4, 8, 32),
    seed: int = 1,
) -> Dict[str, ExperimentConfig]:
    """BFC with 4-32 physical queues per port, plus Ideal-FQ, on the Fig. 5a workload."""
    scale = get_scale(scale_name)
    traffic = _background_traffic(scale, GOOGLE, 0.60, incast_load=0.05, seed=seed)
    configs: Dict[str, ExperimentConfig] = {}
    for count in queue_counts:
        configs[f"{count}q"] = _base_config(
            f"fig12/{count}q",
            "BFC",
            scale,
            traffic,
            seed=seed,
            bfc_config=BfcConfig(num_physical_queues=count, mtu=scale.mtu),
        )
    configs["Ideal-FQ"] = _base_config("fig12/Ideal-FQ", "Ideal-FQ", scale, traffic, seed=seed)
    return configs


# ---------------------------------------------------------------------------
# Fig. 13 — sensitivity to the VFID space
# ---------------------------------------------------------------------------


def fig13_configs(
    scale_name: str = "tiny",
    vfid_counts: Sequence[int] = (256, 1_024, 16_384),
    seed: int = 1,
) -> Dict[str, ExperimentConfig]:
    """BFC with varying virtual-flow hash table sizes on the Fig. 5a workload."""
    scale = get_scale(scale_name)
    traffic = _background_traffic(scale, GOOGLE, 0.60, incast_load=0.05, seed=seed)
    return {
        f"{count}": _base_config(
            f"fig13/{count}vfids",
            "BFC",
            scale,
            traffic,
            seed=seed,
            bfc_config=BfcConfig(num_vfids=count, mtu=scale.mtu),
        )
        for count in vfid_counts
    }


# ---------------------------------------------------------------------------
# Fig. 14 — sensitivity to the Bloom-filter size
# ---------------------------------------------------------------------------


def fig14_configs(
    scale_name: str = "tiny",
    bloom_sizes: Sequence[int] = (4, 16, 128),
    seed: int = 1,
) -> Dict[str, ExperimentConfig]:
    """BFC with 4-128 byte pause-frame Bloom filters on the Fig. 5a workload."""
    scale = get_scale(scale_name)
    traffic = _background_traffic(scale, GOOGLE, 0.60, incast_load=0.05, seed=seed)
    return {
        f"{size}B": _base_config(
            f"fig14/{size}B",
            "BFC",
            scale,
            traffic,
            seed=seed,
            bfc_config=BfcConfig(bloom_filter_bytes=size, mtu=scale.mtu),
        )
        for size in bloom_sizes
    }


# ---------------------------------------------------------------------------
# fig_est — BFC-Est telemetry-staleness sensitivity (beyond the paper)
# ---------------------------------------------------------------------------


def fig_est_configs(
    scale_name: str = "tiny",
    staleness_points_ns: Sequence[int] = (0, 2_000, 4_000, 8_000, 16_000),
    include_capacity_weighted: bool = True,
    sample_period_ns: int = 0,
    seed: int = 1,
) -> Dict[str, ExperimentConfig]:
    """How much pause-decision quality does BFC lose on stale occupancy?

    The paper's BFC reads exact queue occupancy at enqueue time.  ``BFC-Est``
    instead reads delayed/sampled telemetry (INT-style), and this sweep
    measures the degradation: an exact-BFC baseline plus ``BFC-Est`` at each
    staleness point (``0`` is the degenerate point, byte-identical to BFC)
    on the Fig. 5a workload.  With ``include_capacity_weighted`` the
    capacity-weighted variant (``BFC-Est-Cap``) rides along at every point.
    """
    scale = get_scale(scale_name)
    traffic = _background_traffic(scale, GOOGLE, 0.60, incast_load=0.05, seed=seed)
    configs: Dict[str, ExperimentConfig] = {
        "BFC": _base_config("fig_est/BFC", "BFC", scale, traffic, seed=seed)
    }
    schemes = ["BFC-Est"] + (["BFC-Est-Cap"] if include_capacity_weighted else [])
    for scheme in schemes:
        for staleness in staleness_points_ns:
            label = f"{scheme}/{staleness}ns"
            configs[label] = _base_config(
                f"fig_est/{label}",
                scheme,
                scale,
                traffic,
                seed=seed,
                bfc_config=BfcConfig(
                    mtu=scale.mtu,
                    telemetry_staleness_ns=staleness,
                    telemetry_sample_period_ns=sample_period_ns,
                ),
            )
    return configs


# ---------------------------------------------------------------------------
# fig_collective — ML-training collectives (beyond the paper)
# ---------------------------------------------------------------------------


def collective_configs(
    scale_name: str = "tiny",
    kinds: Sequence[str] = ("ring-allreduce", "tree-allreduce", "all-to-all"),
    schemes: Sequence[str] = ("BFC", "BFC-Est", "DCQCN", "HPCC"),
    iterations: int = 3,
    est_staleness_ns: int = 4_000,
    seed: int = 1,
) -> Dict[str, ExperimentConfig]:
    """Self-clocked collectives: per-iteration time under each scheme.

    Every host is a worker; each iteration moves one chunk per worker per
    step with a model-compute gap between iterations.  Because step ``s+1``
    cannot start until step ``s``'s chunk arrived, any queueing delay a
    scheme lets build up stalls the whole ring/tree — the figure reports the
    completion time of the final iteration (collective makespan).
    """
    scale = get_scale(scale_name)
    # One chunk is ~20 us of host line rate: long enough to congest shared
    # links, short enough that tiny-scale runs stay in the golden-run regime.
    chunk_bytes = max(20_000, int(scale.clos.link_rate_bps * 20e-6 / 8))
    configs: Dict[str, ExperimentConfig] = {}
    for kind in kinds:
        spec = CollectiveSpec(
            kind=kind,
            chunk_bytes=chunk_bytes,
            iterations=iterations,
            compute_delay_ns=10_000,
        )
        traffic = TrafficSpec(flow_graph=spec, seed=seed)
        for scheme in schemes:
            label = f"{kind}/{scheme}"
            overrides = {}
            if scheme.startswith("BFC-Est"):
                # Give the estimator variants a non-trivial signal delay —
                # at staleness 0 they are byte-identical to exact BFC.
                overrides["bfc_config"] = BfcConfig(
                    mtu=scale.mtu, telemetry_staleness_ns=est_staleness_ns
                )
            configs[label] = _base_config(
                f"fig_collective/{label}", scheme, scale, traffic, seed=seed,
                duration_ns=2 * scale.duration_ns, **overrides,
            )
    return configs


# ---------------------------------------------------------------------------
# fig_rpc — RPC fan-out/fan-in request trees (beyond the paper)
# ---------------------------------------------------------------------------


def rpc_fanout_configs(
    scale_name: str = "tiny",
    schemes: Sequence[str] = ("BFC", "BFC-Est", "DCQCN", "HPCC"),
    fan_out: int = 3,
    depth: int = 2,
    background_load: float = 0.40,
    est_staleness_ns: int = 4_000,
    seed: int = 1,
) -> Dict[str, ExperimentConfig]:
    """Scatter-gather request trees over background traffic: fan-in tails.

    A stream of fan-out/fan-in RPC trees (responses drawn from the Google
    CDF) runs over a Google-workload background load.  The front-end cannot
    answer before the slowest leaf, so the figure's metric — per-flow
    slowdown of the ``rpc``-tagged flows — captures exactly the paper's
    short-flow-tail story under a fan-in pattern it never evaluated.
    """
    scale = get_scale(scale_name)
    num_requests = max(4, scale.clos.num_hosts // 2)
    spec = RpcFanoutSpec(
        num_requests=num_requests,
        fan_out=fan_out,
        depth=depth,
        mean_interarrival_ns=max(10_000, scale.duration_ns // (2 * num_requests)),
        compute_delay_ns=2_000,
    )
    workload = WorkloadSpec(
        distribution=GOOGLE,
        target_load=background_load,
        duration_ns=scale.duration_ns,
        max_flow_size=scale.max_flow_size,
    )
    traffic = TrafficSpec(workload=workload, flow_graph=spec, seed=seed)
    configs: Dict[str, ExperimentConfig] = {}
    for scheme in schemes:
        overrides = {}
        if scheme.startswith("BFC-Est"):
            overrides["bfc_config"] = BfcConfig(
                mtu=scale.mtu, telemetry_staleness_ns=est_staleness_ns
            )
        configs[scheme] = _base_config(
            f"fig_rpc/{scheme}", scheme, scale, traffic, seed=seed,
            duration_ns=2 * scale.duration_ns, **overrides,
        )
    return configs


# ---------------------------------------------------------------------------
# Every figure's campaign is FIGURES[name].campaign; fig5a's keeps this name
# too, for the observatory's campaign_grid workload.
# ---------------------------------------------------------------------------

from .figures import FIGURES  # noqa: E402

fig5a_campaign = FIGURES["fig5a"].campaign
