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
from repro.sim.host import Host
from repro.sim.stats import (
    BufferSampler,
    FlowRecord,
    FlowStats,
    QueueSampler,
)
from repro.sim.switch import Switch
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
            # Fresh copies: a run writes its progress (finish time,
            # retransmissions) into its flows, and a config's flows are
            # shared by every run of it and by a figure's schemes.
            trace = trace.merge(FlowTrace(f.fresh() for f in self.explicit_flows))
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
    * **Execution** — ``shards``: ``shards > 1`` runs this one cross-DC
      experiment space-parallel, one OS process per data center, with
      records identical to the single-process run.  In a campaign, prefer
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
    #: Space-parallel sharding: 1 is the ordinary single-process run; the
    #: topology's DC count runs one OS process per data center via
    #: :mod:`repro.shard` (cut at the inter-DC links, conservatively
    #: synchronized time windows).  Any other value is a PartitionError.
    shards: int = 1

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
    switches: Sequence[Switch],
    interval_ns: int,
    until_ns: int,
    sink: ResultSink,
) -> None:
    """Sample ``switches`` into ``sink`` every ``interval_ns`` until ``until_ns``.

    Per tick and per switch, in list order: one ``on_buffer_sample``, then
    for a BFC switch one ``on_queue_sample`` per backlogged physical queue
    and one ``on_occupied_sample``.  A serial run passes every switch and
    its own sink; a shard worker passes its local switches and a recorder
    whose calls the coordinator replays in topology order.
    """

    def sample() -> None:
        for switch in switches:
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


def _add_counts(totals: Dict[str, int], counts: Dict[str, int]) -> None:
    for name, value in counts.items():
        totals[name] = totals.get(name, 0) + value


def _add_vfid_stats(totals: Dict[str, int], stats: Dict[str, int]) -> None:
    """Add BFC table/agent statistics; the table high-water takes the maximum."""
    for name, value in stats.items():
        if name == "max_active_entries":
            totals[name] = max(totals.get(name, 0), value)
        else:
            totals[name] = totals.get(name, 0) + value


def harvest(
    sim: Simulator,
    topo: Topology,
    switches: Sequence[Switch],
    hosts: Sequence[Host],
    duration_ns: int,
) -> Dict[str, object]:
    """End-of-run measurements of ``switches`` and ``hosts``, keyed by node.

    Counters and drops are summed over the given nodes, and ``bfc`` holds
    the raw ``(assignments, collisions, vfid_stats)`` of their BFC switches
    (``None`` without one).  ``pause`` is keyed ``(node name, iface
    index)`` and ``utilization`` (of each host's ToR downlink) by host id,
    so :func:`assemble_result` can fold the parts of several shards in
    topology order.  A serial run is the one part over every node.
    """
    counters: Dict[str, int] = {}
    for switch in switches:
        _add_counts(counters, switch.counters.as_dict())
    host_counters: Dict[str, int] = {}
    for host in hosts:
        _add_counts(host_counters, host.counters.as_dict())

    bfc = None
    bfc_switches = [s for s in switches if isinstance(s, BfcSwitch)]
    if bfc_switches:
        assignments = collisions = 0
        vfid_stats: Dict[str, int] = {}
        for switch in bfc_switches:
            for discipline in switch.bfc_disciplines():
                assignments += discipline.pool.stats.assignments
                collisions += discipline.pool.stats.collisions
            table = switch.agent.flow_table.stats
            agent_counters = switch.agent.counters
            _add_vfid_stats(
                vfid_stats,
                {
                    "vfid_collisions": table.vfid_collisions,
                    "bucket_overflows": table.bucket_overflows,
                    "cache_overflows": table.cache_overflows,
                    "table_inserts": table.inserts,
                    "max_active_entries": table.max_active_entries,
                    "pauses": agent_counters.get("pauses"),
                    "resumes": agent_counters.get("resumes"),
                    "bloom_frames_sent": agent_counters.get("bloom_frames_sent"),
                },
            )
        bfc = (assignments, collisions, vfid_stats)

    now = sim.now
    pause = {
        (node.name, iface.index): iface.tx.pfc_meter.paused_fraction(now)
        for node in (*switches, *hosts)
        for iface in node.interfaces
    }
    utilization: Dict[int, float] = {}
    for host in hosts:
        iface = topo.tor_switch_of(host.host_id).interface_to(host)
        if iface is not None:
            utilization[host.host_id] = iface.tx.utilization(duration_ns)
    return {
        "counters": counters,
        "host_counters": host_counters,
        "dropped": sum(s.dropped_packets() for s in switches),
        "bfc": bfc,
        "pause": pause,
        "utilization": utilization,
        "events": sim.events_processed,
    }


def assemble_result(
    config: ExperimentConfig,
    topo: Topology,
    parts: Sequence[Dict[str, object]],
    sink: ResultSink,
    flows_offered: int,
    started: float,
    shard_stats: Optional[Dict[str, object]] = None,
) -> ExperimentResult:
    """Fold :func:`harvest` parts into one :class:`ExperimentResult`.

    Counters, drops, events and the BFC statistics are summed (the table
    high-water ``max_active_entries`` takes the maximum); pause fractions
    and utilization are read back in topology order, so the folded result
    does not depend on how the nodes were split into parts.  Calls
    ``sink.finalize`` once, after every record and sample reached it.
    """
    switch_counters: Dict[str, int] = {}
    host_counters: Dict[str, int] = {}
    pause_by_iface: Dict[Tuple[str, int], float] = {}
    by_host: Dict[int, float] = {}
    for part in parts:
        _add_counts(switch_counters, part["counters"])
        _add_counts(host_counters, part["host_counters"])
        pause_by_iface.update(part["pause"])
        by_host.update(part["utilization"])
    dropped = sum(part["dropped"] for part in parts)
    events_processed = sum(part["events"] for part in parts)

    collision_fraction: Optional[float] = None
    vfid_stats: Dict[str, int] = {}
    bfc_parts = [part["bfc"] for part in parts if part["bfc"] is not None]
    if bfc_parts:
        assignments = sum(bfc[0] for bfc in bfc_parts)
        collisions = sum(bfc[1] for bfc in bfc_parts)
        collision_fraction = collisions / assignments if assignments else 0.0
        for _, _, part_stats in bfc_parts:
            _add_vfid_stats(vfid_stats, part_stats)

    pause_fractions: Dict[str, List[float]] = {}
    for node in (*topo.all_switches(), *topo.hosts.values()):
        for iface in node.interfaces:
            pause_fractions.setdefault(iface.link_class, []).append(
                pause_by_iface[(node.name, iface.index)]
            )
    utilization = {h: by_host[h] for h in topo.hosts if h in by_host}

    extras = {
        "name": config.name,
        "scheme": config.scheme,
        "seed": config.seed,
        "flows_offered": flows_offered,
        "events_processed": events_processed,
        "dropped_packets": dropped,
        "switch_counters": dict(sorted(switch_counters.items())),
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
        dropped_packets=dropped,
        switch_counters=switch_counters,
        collision_fraction=collision_fraction,
        vfid_stats=vfid_stats,
        flows_offered=flows_offered,
        events_processed=events_processed,
        wall_seconds=time.monotonic() - started,
        shard_stats=shard_stats,
        results_ref=sink.results_ref,
        host_counters=host_counters,
    )


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
    reset_flow_ids(f.flow_id for f in config.traffic.explicit_flows or ())
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
    which executes the same topology as one OS process per data center and
    merges the shard measurements back into one :class:`ExperimentResult`.

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
        topo.all_switches(),
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

    part = harvest(
        sim, topo, topo.all_switches(), list(topo.hosts.values()), config.duration_ns
    )
    flows_offered = len(trace) + (source.flows_started if source is not None else 0)
    return assemble_result(config, topo, [part], sink, flows_offered, started)
