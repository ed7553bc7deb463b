"""Experiment runner: build a topology, attach a scheme, replay a trace, measure.

This is the low-level single-run primitive.  A call to :func:`run_experiment`
performs one simulation run and returns an :class:`ExperimentResult` with the
flow records, buffer samples, pause-time shares and scheme-specific
statistics needed to regenerate the paper's figures.

Grids of runs — several schemes, parameter sweeps, repeats, parallel
execution — are the job of :class:`repro.campaign.Campaign`, which drives
this runner one trial at a time.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.config import BfcConfig
from repro.core.switchlogic import BfcSwitch
from repro.congestion.dcqcn import DcqcnConfig
from repro.congestion.hpcc import HpccConfig
from repro.results.sinks import InMemorySink, ResultSink, SpillSink
from repro.sim.engine import Simulator
from repro.sim.flow import Flow, reset_flow_ids
from repro.sim.stats import (
    BufferSampler,
    FlowRecord,
    FlowStats,
    QueueSampler,
)
from repro.topology.clos import ClosParams, build_leaf_spine
from repro.topology.crossdc import CrossDcParams, build_cross_dc
from repro.topology.topology import Topology
from repro.workloads.flowgraph import FlowGraph, FlowGraphLauncher
from repro.workloads.generator import WorkloadSpec, generate_workload
from repro.workloads.incast import IncastSpec, generate_incast_series, incast_period_for_load
from repro.workloads.openloop import OpenLoopSource, OpenLoopSpec
from repro.workloads.trace import FlowTrace

from .schemes import SchemeEnvironment, get_scheme


@dataclass
class TrafficSpec:
    """Describes the traffic of one experiment.

    Any combination of a background workload, a periodic incast process and an
    explicit flow list can be supplied; they are merged into a single trace.

    ``open_loop`` is different in kind: it is *not* materialized into the
    trace.  An :class:`~repro.workloads.openloop.OpenLoopSpec` is driven
    lazily at run time (one arrival event per flow), its records are
    harvested the moment each flow completes, and — by default — the flow's
    simulation state is released right after, so memory stays independent of
    how many flows the process offers.  It composes with the trace-based
    kinds (the trace part is harvested at the end of the run as always) but
    not with sharding (``shards > 1`` rejects it).

    ``flow_graph`` holds dependency-driven workloads: any spec (or sequence
    of specs) exposing ``generate(host_ids, seed) -> FlowGraph``, e.g.
    :class:`~repro.workloads.collectives.CollectiveSpec` or
    :class:`~repro.workloads.rpc.RpcFanoutSpec`.  Graph flows *are*
    materialized into the trace (so ``flows_offered`` and the final harvest
    account for them), but dependents launch at run time when their
    prerequisites complete; the graph is generated *after* the trace-based
    kinds so flow-id allocation stays deterministic.  Flow graphs compose
    with sharding and with ``open_loop``.
    """

    workload: Optional[WorkloadSpec] = None
    incast_load: Optional[float] = None
    incast_fan_in: int = 100
    incast_aggregate_bytes: int = 20_000_000
    incast_period_ns: Optional[int] = None
    incast_receiver: Optional[int] = None
    explicit_flows: Optional[FlowTrace] = None
    open_loop: Optional[OpenLoopSpec] = None
    flow_graph: Optional[object] = None
    seed: int = 1

    def build(
        self,
        host_ids: Sequence[int],
        host_link_rate_bps: float,
        duration_ns: int,
        src_hosts: Optional[Sequence[int]] = None,
        dst_hosts: Optional[Sequence[int]] = None,
    ) -> FlowTrace:
        trace = FlowTrace([])
        if self.workload is not None:
            trace = trace.merge(
                generate_workload(
                    self.workload,
                    host_ids,
                    host_link_rate_bps,
                    seed=self.seed,
                    src_hosts=src_hosts,
                    dst_hosts=dst_hosts,
                )
            )
        if self.incast_load is not None or self.incast_period_ns is not None:
            period = self.incast_period_ns
            if period is None:
                period = incast_period_for_load(
                    self.incast_load,
                    self.incast_aggregate_bytes,
                    len(host_ids),
                    host_link_rate_bps,
                )
            spec = IncastSpec(
                fan_in=self.incast_fan_in,
                aggregate_bytes=self.incast_aggregate_bytes,
                period_ns=period,
                duration_ns=duration_ns,
                start_ns=period // 2,
            )
            trace = trace.merge(
                generate_incast_series(
                    spec, host_ids, seed=self.seed + 1, receiver=self.incast_receiver
                )
            )
        if self.explicit_flows is not None:
            trace = trace.merge(self.explicit_flows)
        return trace

    def build_graph(self, host_ids: Sequence[int]) -> Optional[FlowGraph]:
        """Generate the dependency flow graph, if any (after :meth:`build`).

        Must be called *after* :meth:`build` so graph flow ids come after the
        trace-based ones — this keeps flow-id allocation deterministic across
        single-process, parallel and sharded runs.
        """
        if self.flow_graph is None:
            return None
        specs = (
            self.flow_graph
            if isinstance(self.flow_graph, (list, tuple))
            else (self.flow_graph,)
        )
        graph = FlowGraph()
        for offset, spec in enumerate(specs):
            graph = graph.merge(spec.generate(host_ids, seed=self.seed + 2 + offset))
        return graph.validate()


@dataclass
class ExperimentConfig:
    """One simulation run: topology + scheme + traffic + measurement knobs.

    The config (plus ``seed``) fully determines the simulation: the same
    config always produces the same :class:`ExperimentResult`, which is what
    makes campaign resume, parallel execution and sharding
    measurement-invisible (see ``docs/determinism.md``).

    Field groups:

    * **Identity** — ``name`` (labels records and result maps), ``scheme``
      (a registered scheme name, see ``repro.experiments.schemes``),
      ``seed`` (drives every RNG: trace generation and component state).
    * **Topology** — ``clos`` sizes the leaf-spine fabric; ``cross_dc``
      (when set) builds two such fabrics joined by gateways, with
      ``gateway_buffer_bytes`` overriding the gateways' shared buffer.
    * **Traffic** — ``traffic`` (workload + incast + explicit flows),
      ``duration_ns`` of offered traffic, plus ``drain_ns`` of drain time
      (defaults to ``duration_ns // 2``); ``mtu`` applies fabric-wide.
    * **Scheme knobs** — ``buffer_bytes`` (shared switch buffer),
      ``pfc_enabled``, and the per-scheme ``bfc_config`` / ``dcqcn_config``
      / ``hpcc_config`` overrides (``None`` = scheme defaults).
    * **Measurement** — ``sample_interval_ns`` (``None`` = ~200 samples per
      run), ``max_events`` as a safety cap (rejected under sharding);
      ``results_dir`` switches the harvest from the default in-memory
      collectors to the streaming spill pipeline (:mod:`repro.results`):
      records stream to ``<results_dir>/<name>-s<seed>/`` and the returned
      result holds fixed-size aggregates plus a ``results_ref`` pointing at
      the artifacts.  The sink is a pure observer — it never changes what
      is simulated.
    * **Execution** — ``shards``/``shard_strategy``: ``shards > 1`` runs
      this one experiment space-parallel across OS processes with records
      identical to the single-process run.  In a campaign, prefer
      ``Campaign.run(cores=...)`` so sharded trials are scheduled onto the
      machine instead of oversubscribing it (``docs/campaigns.md``).
    """

    name: str
    scheme: str
    clos: ClosParams
    traffic: TrafficSpec
    buffer_bytes: int
    duration_ns: int
    drain_ns: int = 0
    seed: int = 1
    mtu: int = 1000
    sample_interval_ns: Optional[int] = None
    pfc_enabled: bool = True
    bfc_config: Optional[BfcConfig] = None
    dcqcn_config: Optional[DcqcnConfig] = None
    hpcc_config: Optional[HpccConfig] = None
    cross_dc: Optional[CrossDcParams] = None
    gateway_buffer_bytes: Optional[int] = None
    max_events: Optional[int] = None
    #: Spill results to disk under this directory instead of holding them in
    #: RAM (``None`` = in-memory harvest, byte-identical to the pre-spill
    #: pipeline).  See ``docs/results.md``.
    results_dir: Optional[str] = None
    #: Space-parallel sharding: >1 runs this one experiment across several
    #: OS processes via :mod:`repro.shard` (one topology, conservatively
    #: synchronized time windows).  1 is the ordinary single-process run.
    shards: int = 1
    shard_strategy: str = "auto"

    def total_duration_ns(self) -> int:
        drain = self.drain_ns if self.drain_ns > 0 else self.duration_ns // 2
        return self.duration_ns + drain

    def effective_sample_interval_ns(self) -> int:
        if self.sample_interval_ns is not None:
            return self.sample_interval_ns
        return max(1_000, self.duration_ns // 200)


@dataclass
class ExperimentResult:
    """Everything measured in one run.

    ``flow_stats`` / ``buffer_sampler`` / ``queue_sampler`` are the in-memory
    collectors for the default harvest, or their fixed-size streaming
    stand-ins (:class:`repro.results.StreamingFlowStats` etc.) when the run
    spilled to disk — both satisfy the same metric API, and the convenience
    methods below only use that shared surface.  ``results_ref`` names the
    spilled artifact directory when one exists.
    """

    config: ExperimentConfig
    scheme: str
    flow_stats: FlowStats
    buffer_sampler: BufferSampler
    queue_sampler: QueueSampler
    pause_fractions: Dict[str, List[float]]
    utilization_per_receiver: Dict[int, float]
    dropped_packets: int
    switch_counters: Dict[str, int]
    collision_fraction: Optional[float]
    vfid_stats: Dict[str, int]
    flows_offered: int
    events_processed: int
    wall_seconds: float
    #: Filled by the sharded runtime only: partition/cut/window/barrier
    #: statistics of the run (None for single-process runs).
    shard_stats: Optional[Dict[str, object]] = None
    #: Spilled-artifact directory (``repro.results`` format) when the run
    #: streamed its records to disk; ``None`` for the in-memory harvest.
    results_ref: Optional[str] = None
    #: NIC-level counters summed across all hosts (flows_started,
    #: selective_retransmissions, out_of_order_packets, ...).
    host_counters: Dict[str, int] = field(default_factory=dict)

    # -- convenience ------------------------------------------------------------

    def completion_rate(self) -> float:
        return self.flow_stats.completion_rate()

    def p99_slowdown(self, include_incast: bool = False) -> float:
        return self.flow_stats.slowdown_percentile(99.0, include_incast)

    def mean_slowdown(self, include_incast: bool = False) -> float:
        return self.flow_stats.mean_slowdown(include_incast)

    def slowdown_series(self, quantile: float = 99.0, bins=None):
        from repro.analysis.fct import slowdown_series

        return slowdown_series(
            self.flow_stats.iter_records(), quantile=quantile, bins=bins
        )

    def mean_utilization(self, active_only: bool = True) -> float:
        values = [
            u
            for u in self.utilization_per_receiver.values()
            if not active_only or u > 1e-6
        ]
        return sum(values) / len(values) if values else 0.0

    def pause_fraction_by_class(self) -> Dict[str, float]:
        return {
            link_class: (sum(values) / len(values) if values else 0.0)
            for link_class, values in self.pause_fractions.items()
        }


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


def _build_environment(config: ExperimentConfig, sim: Simulator) -> SchemeEnvironment:
    clos = config.clos
    base_rtt = clos.base_rtt_ns()
    return SchemeEnvironment(
        sim=sim,
        link_rate_bps=clos.link_rate_bps,
        link_delay_ns=clos.link_delay_ns,
        base_rtt_ns=base_rtt,
        bdp_bytes=clos.bdp_bytes(),
        buffer_bytes=config.buffer_bytes,
        gateway_buffer_bytes=config.gateway_buffer_bytes,
        mtu=config.mtu,
        pfc_enabled=config.pfc_enabled,
        seed=config.seed,
        bfc_config=config.bfc_config or BfcConfig(mtu=config.mtu),
        dcqcn_config=config.dcqcn_config,
        hpcc_config=config.hpcc_config,
    )


def _build_topology(config: ExperimentConfig, env: SchemeEnvironment) -> Topology:
    scheme = get_scheme(config.scheme)
    switch_factory = scheme.switch_factory(env)
    host_factory = scheme.host_factory(env)
    if config.cross_dc is not None:
        topo = build_cross_dc(env.sim, config.cross_dc, switch_factory, host_factory)
    else:
        topo = build_leaf_spine(env.sim, config.clos, switch_factory, host_factory)
    # Hosts and the environment share one flow registry so receivers can mark
    # flows complete.
    for host in topo.hosts.values():
        host.flow_registry = env.flow_registry
    topo.flow_registry = env.flow_registry
    return topo


def _schedule_sampling(
    sim: Simulator,
    topo: Topology,
    interval_ns: int,
    until_ns: int,
    sink: ResultSink,
) -> None:
    # NOTE: the sharded runtime's _ShardSampler mirrors this per-tick loop;
    # keep the two in sync (same switch order, same record calls per tick).
    def sample() -> None:
        for switch in topo.all_switches():
            sink.on_buffer_sample(switch.name, switch.buffer_occupancy())
            if isinstance(switch, BfcSwitch):
                occupied = 0
                for discipline in switch.bfc_disciplines():
                    occupied += discipline.occupied_physical_queues()
                    for backlog in discipline.per_queue_bytes():
                        if backlog > 0:
                            sink.on_queue_sample(backlog)
                sink.on_occupied_sample(occupied)
        if sim.now + interval_ns <= until_ns:
            sim.schedule(interval_ns, sample)

    sim.schedule(interval_ns, sample)


class FlowRecorder:
    """Turns finished (or unfinished) flows into :class:`FlowRecord` entries.

    The one-way-delay lookup is memoized per ``(src, dst)`` pair — the
    streaming path builds one record per completion event, and recomputing
    the path delay a million times would dominate the harvest cost.
    """

    def __init__(self, topo: Topology, mtu: int) -> None:
        self._topo = topo
        self._mtu = mtu
        self._line_rate = topo.host_link_rate_bps
        self._delay_cache: Dict[Tuple[int, int], int] = {}

    def _delay_ns(self, src: int, dst: int) -> int:
        key = (src, dst)
        delay = self._delay_cache.get(key)
        if delay is None:
            topo = self._topo
            try:
                delay = topo.one_way_delay_ns(src, dst)
            except (ValueError, RuntimeError, KeyError):
                delay = 2 * topo.link_delay_ns
            self._delay_cache[key] = delay
        return delay

    def record(self, flow: Flow) -> FlowRecord:
        return FlowRecord(
            flow_id=flow.flow_id,
            src=flow.src,
            dst=flow.dst,
            size=flow.size,
            start_ns=flow.start_ns,
            finish_ns=flow.finish_ns,
            slowdown=flow.slowdown(
                self._line_rate, self._delay_ns(flow.src, flow.dst), self._mtu
            ),
            is_incast=flow.is_incast,
            tag=flow.tag,
            retransmissions=flow.retransmitted_packets,
        )


def _harvest_flow_records(
    topo: Topology, flows: Sequence[Flow], mtu: int
) -> FlowStats:
    stats = FlowStats()
    recorder = FlowRecorder(topo, mtu)
    for flow in flows:
        stats.add(recorder.record(flow))
    return stats


def _harvest_pause_fractions(topo: Topology, now_ns: int) -> Dict[str, List[float]]:
    result: Dict[str, List[float]] = {}
    for switch in topo.all_switches():
        for iface in switch.interfaces:
            fraction = iface.tx.pfc_meter.paused_fraction(now_ns)
            result.setdefault(iface.link_class, []).append(fraction)
    for host in topo.hosts.values():
        for iface in host.interfaces:
            fraction = iface.tx.pfc_meter.paused_fraction(now_ns)
            result.setdefault(iface.link_class, []).append(fraction)
    return result


def _harvest_utilization(topo: Topology, duration_ns: int) -> Dict[int, float]:
    """Utilization of each receiver's downlink (ToR -> host)."""
    result: Dict[int, float] = {}
    for host_id, host in topo.hosts.items():
        tor = topo.tor_switch_of(host_id)
        iface = tor.interface_to(host)
        if iface is None:
            continue
        result[host_id] = iface.tx.utilization(duration_ns)
    return result


def _collect_bfc_stats(switches) -> Optional[Tuple[int, int, Dict[str, int]]]:
    """Raw BFC statistics over an iterable of switches, or ``None``.

    Returns ``(assignments, collisions, vfid_stats)`` so callers can combine
    several partial collections before dividing (the sharded runtime sums
    per-shard numerators and denominators; :func:`_harvest_bfc_stats` divides
    directly).
    """
    bfc_switches = [s for s in switches if isinstance(s, BfcSwitch)]
    if not bfc_switches:
        return None
    assignments = 0
    collisions = 0
    vfid_stats = {
        "vfid_collisions": 0,
        "bucket_overflows": 0,
        "cache_overflows": 0,
        "table_inserts": 0,
        "max_active_entries": 0,
        "pauses": 0,
        "resumes": 0,
        "bloom_frames_sent": 0,
    }
    for switch in bfc_switches:
        for discipline in switch.bfc_disciplines():
            assignments += discipline.pool.stats.assignments
            collisions += discipline.pool.stats.collisions
        table = switch.agent.flow_table.stats
        vfid_stats["vfid_collisions"] += table.vfid_collisions
        vfid_stats["bucket_overflows"] += table.bucket_overflows
        vfid_stats["cache_overflows"] += table.cache_overflows
        vfid_stats["table_inserts"] += table.inserts
        vfid_stats["max_active_entries"] = max(
            vfid_stats["max_active_entries"], table.max_active_entries
        )
        vfid_stats["pauses"] += switch.agent.counters.get("pauses")
        vfid_stats["resumes"] += switch.agent.counters.get("resumes")
        vfid_stats["bloom_frames_sent"] += switch.agent.counters.get("bloom_frames_sent")
    return assignments, collisions, vfid_stats


def _harvest_bfc_stats(topo: Topology) -> Tuple[Optional[float], Dict[str, int]]:
    collected = _collect_bfc_stats(topo.all_switches())
    if collected is None:
        return None, {}
    assignments, collisions, vfid_stats = collected
    collision_fraction = collisions / assignments if assignments else 0.0
    return collision_fraction, vfid_stats


def _aggregate_switch_counters(topo: Topology, switches=None) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for switch in topo.all_switches() if switches is None else switches:
        for name, value in switch.counters.as_dict().items():
            totals[name] = totals.get(name, 0) + value
    return totals


def _aggregate_host_counters(topo: Topology, hosts=None) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for host in topo.hosts.values() if hosts is None else hosts:
        for name, value in host.counters.as_dict().items():
            totals[name] = totals.get(name, 0) + value
    return totals


def build_simulation(
    config: ExperimentConfig,
) -> Tuple[Simulator, SchemeEnvironment, Topology, FlowTrace]:
    """Deterministically build the full simulation state of one experiment.

    Everything up to (but excluding) starting the flows: the simulator, the
    scheme environment, the wired topology and the generated flow trace.
    This is the shared front half of :func:`run_experiment`; the sharded
    runtime (:mod:`repro.shard`) calls it in every worker process so each
    shard reproduces the exact same component RNG states and flow ids as a
    single-process run.
    """
    reset_flow_ids()
    sim = Simulator(seed=config.seed)
    env = _build_environment(config, sim)
    topo = _build_topology(config, env)
    trace = config.traffic.build(
        topo.host_ids(), topo.host_link_rate_bps, config.duration_ns
    )
    graph = config.traffic.build_graph(topo.host_ids())
    if graph is not None:
        # Graph flows are part of the trace (accounting, harvest); the
        # launcher schedules the dependency-gated ones as prerequisites
        # complete.  Installing here covers the single-process runner and
        # every shard world alike (both start flows via topo.start_flow,
        # which registers-but-does-not-schedule flows with depends_on).
        trace = trace.merge(graph.trace())
        FlowGraphLauncher(graph, topo).install()
    return sim, env, topo, trace


def build_topology_only(config: ExperimentConfig) -> Topology:
    """Build just the wired topology of one experiment — no traffic trace.

    For cheap topology/partition inspection (the ``repro topology`` CLI):
    paper-scale trace generation costs far more than the fabric build.
    """
    sim = Simulator(seed=config.seed)
    env = _build_environment(config, sim)
    return _build_topology(config, env)


def make_sink(config: ExperimentConfig) -> ResultSink:
    """The sink ``run_experiment`` uses when none is passed explicitly.

    ``config.results_dir`` set: a :class:`SpillSink` writing to
    ``<results_dir>/<name>-s<seed>/``; otherwise the in-memory default.
    """
    if config.results_dir is None:
        return InMemorySink()
    safe_name = (
        config.name.replace("/", "-").replace(" ", "_").replace("\\", "-") or "run"
    )
    run_dir = os.path.join(config.results_dir, f"{safe_name}-s{config.seed}")
    return SpillSink(run_dir, seed=config.seed)


def _schedule_tombstone_reaper(
    sim: Simulator, topo: Topology, horizon_ns: int, until_ns: int
) -> None:
    """Periodically delete receiver-state tombstones older than one horizon.

    Two-generation scheme: a sweep first deletes the tombstones it marked on
    the previous sweep, then marks the current ones.  A tombstone therefore
    lives between one and two horizons — long enough for any straggling
    duplicate of a completed flow to still hit the duplicate-ACK path — and
    tombstone memory is bounded by the completion rate times the horizon,
    not by the total flow count.
    """
    marked: Dict[int, Set[int]] = {}

    def reap() -> None:
        for host_id, host in topo.hosts.items():
            receivers = host.receivers
            previous = marked.get(host_id)
            if previous:
                for flow_id in previous:
                    if type(receivers.get(flow_id)) is int:
                        del receivers[flow_id]
            marked[host_id] = {
                flow_id
                for flow_id, state in receivers.items()
                if type(state) is int
            }
        if sim.now + horizon_ns <= until_ns:
            sim.schedule(horizon_ns, reap)

    sim.schedule(horizon_ns, reap)


def run_experiment(
    config: ExperimentConfig,
    slot_budget: Optional[int] = None,
    sink: Optional[ResultSink] = None,
) -> ExperimentResult:
    """Run one experiment end to end and return its measurements.

    With ``config.shards > 1`` the run is delegated to the sharded runtime,
    which executes the same topology across several OS processes and merges
    the shard measurements back into one :class:`ExperimentResult`.

    ``slot_budget`` is the CPU-slot reservation handed down by the campaign
    scheduling layer (:mod:`repro.campaign.scheduling`): the number of
    simulator processes this run may assume it owns.  It is purely
    advisory — it never changes what is simulated or measured — but a
    sharded run's coordinator records it (and whether the shard count
    oversubscribes it) in ``ExperimentResult.shard_stats``, so plans and
    reality can be audited against each other.

    ``sink`` overrides where measurement records go (default: chosen by
    :func:`make_sink` from ``config.results_dir``).  The sink is a pure
    observer; it never changes what is simulated.
    """
    if slot_budget is not None and slot_budget < 1:
        raise ValueError(f"slot_budget must be >= 1, got {slot_budget}")
    if config.shards > 1:
        from repro.shard.coordinator import run_sharded_experiment

        return run_sharded_experiment(config, slot_budget=slot_budget, sink=sink)
    started = time.monotonic()
    sim, env, topo, trace = build_simulation(config)
    topo.start_flows(trace)

    if sink is None:
        sink = make_sink(config)
    recorder = FlowRecorder(topo, config.mtu)

    # Open-loop traffic: arrivals are generated lazily by simulator events,
    # records are harvested (and simulation state released) per completion.
    open_spec = config.traffic.open_loop
    source: Optional[OpenLoopSource] = None
    if open_spec is not None:
        source = OpenLoopSource(open_spec, sim, topo, seed=config.seed)
        release = open_spec.release_flow_state
        flow_registry = topo.flow_registry

        def _on_complete(flow: Flow, now_ns: int) -> None:
            if not source.notify_complete(flow):
                return  # trace-based flow: harvested at the end, as always
            sink.on_flow_record(recorder.record(flow))
            if release:
                topo.hosts[flow.dst].release_receiver_state(flow.flow_id)
                flow_registry.pop(flow.flow_id, None)

        for host in topo.hosts.values():
            previous = host.on_flow_complete
            if previous is None:
                host.on_flow_complete = _on_complete
            else:
                # Chain behind an installed FlowGraphLauncher hook.
                def _chained(flow: Flow, now_ns: int, _previous=previous) -> None:
                    _previous(flow, now_ns)
                    _on_complete(flow, now_ns)

                host.on_flow_complete = _chained
        source.start()
        if release:
            horizon_ns = max(4 * env.host_rto_ns(), 8 * env.base_rtt_ns)
            _schedule_tombstone_reaper(
                sim, topo, horizon_ns, config.total_duration_ns()
            )

    _schedule_sampling(
        sim,
        topo,
        config.effective_sample_interval_ns(),
        config.total_duration_ns(),
        sink,
    )

    sim.run(until=config.total_duration_ns(), max_events=config.max_events)

    for flow in trace:
        sink.on_flow_record(recorder.record(flow))
    if source is not None:
        for flow in source.unfinished_flows():
            sink.on_flow_record(recorder.record(flow))

    pause_fractions = _harvest_pause_fractions(topo, sim.now)
    utilization = _harvest_utilization(topo, config.duration_ns)
    collision_fraction, vfid_stats = _harvest_bfc_stats(topo)
    counters = _aggregate_switch_counters(topo)
    host_counters = _aggregate_host_counters(topo)
    flows_offered = len(trace) + (source.flows_started if source is not None else 0)
    events_processed = sim.events_processed

    extras = {
        "name": config.name,
        "scheme": config.scheme,
        "seed": config.seed,
        "flows_offered": flows_offered,
        "events_processed": events_processed,
        "dropped_packets": topo.total_dropped_packets(),
        "switch_counters": dict(sorted(counters.items())),
        "host_counters": dict(sorted(host_counters.items())),
        "collision_fraction": collision_fraction,
        "vfid_stats": dict(sorted(vfid_stats.items())),
        "utilization_per_receiver": {
            str(host_id): value for host_id, value in sorted(utilization.items())
        },
        "pause_fractions": {
            cls: values for cls, values in sorted(pause_fractions.items())
        },
    }
    flow_stats, buffer_sampler, queue_sampler = sink.finalize(extras)

    return ExperimentResult(
        config=config,
        scheme=config.scheme,
        flow_stats=flow_stats,
        buffer_sampler=buffer_sampler,
        queue_sampler=queue_sampler,
        pause_fractions=pause_fractions,
        utilization_per_receiver=utilization,
        dropped_packets=topo.total_dropped_packets(),
        switch_counters=counters,
        collision_fraction=collision_fraction,
        vfid_stats=vfid_stats,
        flows_offered=flows_offered,
        events_processed=events_processed,
        wall_seconds=time.monotonic() - started,
        results_ref=sink.results_ref,
        host_counters=host_counters,
    )

