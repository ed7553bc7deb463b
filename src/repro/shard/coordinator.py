"""Conservative space-parallel execution of one experiment across processes.

One :class:`ShardCoordinator` drives N worker processes, each simulating one
shard of the partitioned topology.  Workers advance in *conservative epochs*:
at every barrier the coordinator computes the earliest event anywhere
(``M``), lets every shard run ``until = min(total, M + window - 1)`` — where
``window`` is the smallest cut-link delay — and exchanges the boundary
packets transmitted during the epoch.  A packet transmitted at departure
time ``d`` arrives at ``d + delay >= M + window > until``, so no shard ever
executes past an event another shard still owes it.

Determinism
-----------

* Every worker rebuilds the **full** topology (deterministic construction
  order), so every component's RNG state is identical to a single-process
  run; only the nodes of its own shard ever see traffic.
* Boundary packets are injected in a single globally sorted order —
  ``(arrival_time, departure_time, ancestry origins, src_shard, seq)`` with
  ``seq`` the per-shard capture order — so the injection sequence (and
  therefore the engine tie-break) is bit-identical run to run.
* Injected deliveries carry their departure instant as the engine ordering
  *origin* (see :meth:`repro.sim.engine.Simulator.schedule_boundary`), which
  places them among local same-time events exactly where the single-process
  schedule inserts the peer-delivery post.

The merged :class:`~repro.experiments.runner.ExperimentResult` reconstructs
flow records, counters, samplers and pause/utilization tables in the same
iteration order as the single-process harvest, so the canonical record
reduction of a sharded run is directly comparable (and, on the golden-style
scenario, byte-identical — see ``tests/test_shard_determinism.py``).
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from dataclasses import replace
from typing import Dict, List, Optional

from repro.core.switchlogic import BfcSwitch

from .boundary import InjectionQueue, attach_boundaries
from .partition import PartitionSpec, partition_topology

#: Default seconds the coordinator waits for a worker message before giving
#: up.  Worker death is detected separately (and immediately) via
#: ``Process.is_alive``, so this only catches a live-but-hung worker; it must
#: comfortably exceed the longest single epoch a shard could legitimately
#: compute (paper-scale epochs on an oversubscribed box can run long).
#: Override with ``REPRO_SHARD_TIMEOUT_S``; 0 disables the timeout entirely.
_WORKER_TIMEOUT_S = 3600.0


def _worker_timeout_s() -> float:
    value = os.environ.get("REPRO_SHARD_TIMEOUT_S", "").strip()
    if not value:
        return _WORKER_TIMEOUT_S
    try:
        return float(value)
    except ValueError:
        raise ShardError(
            f"REPRO_SHARD_TIMEOUT_S must be a number of seconds, got {value!r}"
        ) from None


class ShardError(RuntimeError):
    """A shard worker failed or the coordinator lost contact with one."""


def _noop() -> None:
    """Replacement tick for idle remote BFC agents (ends the tick chain)."""


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


class _ShardSampler:
    """Per-shard replica of the runner's periodic switch sampling.

    Mirrors :func:`repro.experiments.runner._schedule_sampling` switch for
    switch, but records per-switch *per-tick* series so the coordinator can
    re-interleave the shards into the exact flat sample lists a
    single-process run produces.  ``tests/test_shard_determinism.py`` pins
    the two implementations to each other — a change to the runner's
    sampling loop must be reflected here.
    """

    def __init__(self, switches: list) -> None:
        self.switches = switches
        self.buffer_ticks: Dict[str, List[int]] = {s.name: [] for s in switches}
        self.queue_ticks: Dict[str, List[List[int]]] = {
            s.name: [] for s in switches if isinstance(s, BfcSwitch)
        }
        self.occupied_ticks: Dict[str, List[int]] = {
            s.name: [] for s in switches if isinstance(s, BfcSwitch)
        }

    def sample(self) -> None:
        for switch in self.switches:
            self.buffer_ticks[switch.name].append(switch.buffer_occupancy())
            if isinstance(switch, BfcSwitch):
                occupied = 0
                backlogs: List[int] = []
                for discipline in switch.bfc_disciplines():
                    occupied += discipline.occupied_physical_queues()
                    for backlog in discipline.per_queue_bytes():
                        if backlog > 0:
                            backlogs.append(backlog)
                self.queue_ticks[switch.name].append(backlogs)
                self.occupied_ticks[switch.name].append(occupied)


def _shard_worker(conn, config, shard_id: int, num_shards: int, strategy: str) -> None:
    """Entry point of one shard process."""
    try:
        from repro.experiments.runner import build_simulation

        sim, env, topo, trace = build_simulation(config)
        # The partition is a pure function of the deterministically built
        # topology, so the worker and the coordinator agree on it.
        spec = partition_topology(topo, num_shards, strategy)
        shard_of = spec.shard_of

        # Start flows whose sender is local; register every other flow so
        # local receivers can record completions for remote senders.
        for flow in trace:
            if shard_of[topo.hosts[flow.src].name] == shard_id:
                topo.start_flow(flow)
            else:
                env.flow_registry[flow.flow_id] = flow

        outbox, boundary_ports = attach_boundaries(sim, topo, spec, shard_id)
        injector = InjectionQueue(sim, topo)

        local_switches = [
            s for s in topo.all_switches() if shard_of[s.name] == shard_id
        ]
        # Remote switches are idle replicas that exist only so the build-time
        # RNG draws match the single-process run; their periodic BFC agent
        # ticks would never send a frame (no state ever changes), so cut the
        # tick chains to keep the idle replicas event-free.
        for switch in topo.all_switches():
            if shard_of[switch.name] != shard_id and isinstance(switch, BfcSwitch):
                switch.agent._tick = _noop
        sampler = _ShardSampler(local_switches)
        total_ns = config.total_duration_ns()
        interval_ns = config.effective_sample_interval_ns()

        def sample_tick() -> None:
            sampler.sample()
            if sim.now + interval_ns <= total_ns:
                sim.schedule(interval_ns, sample_tick)

        sim.schedule(interval_ns, sample_tick)

        conn.send(("state", [], sim.next_event_time()))
        while True:
            message = conn.recv()
            if message[0] == "finish":
                break
            _, until, batch = message
            if batch:
                injector.inject(batch)
            sim.run(until=until)
            exports = list(outbox)
            outbox.clear()
            conn.send(("state", exports, sim.next_event_time()))

        conn.send(
            (
                "result",
                _harvest_shard(
                    config, sim, topo, trace, spec, shard_id, sampler,
                    boundary_ports, injector.injected,
                ),
            )
        )
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:  # pragma: no cover - pipe already gone
            pass
    finally:
        conn.close()


def _harvest_shard(
    config, sim, topo, trace, spec: PartitionSpec, shard_id: int,
    sampler: _ShardSampler, boundary_ports: int, injected: int,
) -> Dict[str, object]:
    """Collect this shard's share of the experiment measurements."""
    shard_of = spec.shard_of
    sender_flows: Dict[int, tuple] = {}
    receiver_flows: Dict[int, tuple] = {}
    for flow in trace:
        if shard_of[topo.hosts[flow.src].name] == shard_id:
            # start_ns rides along because dependency-launched flows (flow
            # graphs) stamp their actual start at launch time on this shard.
            sender_flows[flow.flow_id] = (
                flow.num_packets, flow.first_tx_ns,
                flow.retransmitted_packets, flow.start_ns,
            )
        if shard_of[topo.hosts[flow.dst].name] == shard_id:
            receiver_flows[flow.flow_id] = (flow.finish_ns, flow.bytes_delivered)

    from repro.experiments.runner import (
        _aggregate_host_counters,
        _aggregate_switch_counters,
        _collect_bfc_stats,
    )

    local_switches = [s for s in topo.all_switches() if shard_of[s.name] == shard_id]
    counters = _aggregate_switch_counters(topo, local_switches)
    local_hosts = [h for h in topo.hosts.values() if shard_of[h.name] == shard_id]
    host_counters = _aggregate_host_counters(topo, local_hosts)
    dropped = sum(s.dropped_packets() for s in local_switches)

    # Same collectors as the single-process harvest, restricted to the local
    # switches; the coordinator recombines the raw sums across shards.
    collected = _collect_bfc_stats(local_switches)
    bfc = None
    if collected is not None:
        assignments, collisions, vfid_stats = collected
        bfc = {
            "assignments": assignments,
            "collisions": collisions,
            "vfid_stats": vfid_stats,
        }

    now = sim.now
    pause: Dict[tuple, float] = {}
    for switch in local_switches:
        for iface in switch.interfaces:
            pause[(switch.name, iface.index)] = iface.tx.pfc_meter.paused_fraction(now)
    utilization: Dict[int, float] = {}
    for host_id, host in topo.hosts.items():
        if shard_of[host.name] != shard_id:
            continue
        for iface in host.interfaces:
            pause[(host.name, iface.index)] = iface.tx.pfc_meter.paused_fraction(now)
        tor = topo.tor_switch_of(host_id)
        iface = tor.interface_to(host)
        if iface is not None:
            utilization[host_id] = iface.tx.utilization(config.duration_ns)

    return {
        "shard": shard_id,
        "sender_flows": sender_flows,
        "receiver_flows": receiver_flows,
        "counters": counters,
        "host_counters": host_counters,
        "dropped": dropped,
        "bfc": bfc,
        "pause": pause,
        "utilization": utilization,
        "buffer_ticks": sampler.buffer_ticks,
        "queue_ticks": sampler.queue_ticks,
        "occupied_ticks": sampler.occupied_ticks,
        "events": sim.events_processed,
        "boundary_ports": boundary_ports,
        "packets_injected": injected,
    }


# ---------------------------------------------------------------------------
# Coordinator side
# ---------------------------------------------------------------------------


class ShardCoordinator:
    """Drives the shard workers through conservative epochs and merges results."""

    def __init__(
        self,
        config,
        spec: PartitionSpec,
        shard_ids: List[int],
        slot_budget: Optional[int] = None,
    ) -> None:
        self.config = config
        self.spec = spec
        self.shard_ids = shard_ids
        #: CPU slots the campaign scheduling layer reserved for this run
        #: (None when launched outside a planned campaign).  The handshake is
        #: advisory: every shard process must advance for the conservative
        #: epochs to make progress, so the coordinator cannot run fewer
        #: workers than shards — but it can *report* that it was given less
        #: than it needs, and the planner's tests hold it to that report.
        self.slot_budget = slot_budget
        self.barriers = 0
        self.boundary_packets = 0
        self._procs: Dict[int, multiprocessing.Process] = {}
        self._conns: Dict[int, object] = {}

    # -- process management -------------------------------------------------

    def _spawn(self) -> None:
        if "fork" in multiprocessing.get_all_start_methods():
            ctx = multiprocessing.get_context("fork")
        else:  # pragma: no cover - non-POSIX fallback
            ctx = multiprocessing.get_context()
        for shard_id in self.shard_ids:
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_shard_worker,
                args=(
                    child_conn,
                    self.config,
                    shard_id,
                    self.spec.num_shards,
                    self.spec.strategy,
                ),
                daemon=False,
                name=f"repro-shard-{shard_id}",
            )
            proc.start()
            child_conn.close()
            self._procs[shard_id] = proc
            self._conns[shard_id] = parent_conn

    def _recv(self, shard_id: int):
        conn = self._conns[shard_id]
        proc = self._procs[shard_id]
        timeout = _worker_timeout_s()
        deadline = time.monotonic() + timeout if timeout > 0 else None
        while not conn.poll(1.0):
            if not proc.is_alive():
                raise ShardError(
                    f"shard {shard_id} worker died (exit code {proc.exitcode})"
                )
            if deadline is not None and time.monotonic() > deadline:
                raise ShardError(
                    f"shard {shard_id} worker sent nothing for {timeout:.0f}s "
                    "(raise or disable with REPRO_SHARD_TIMEOUT_S)"
                )
        message = conn.recv()
        if message[0] == "error":
            raise ShardError(f"shard {shard_id} worker failed:\n{message[1]}")
        return message

    def _shutdown(self) -> None:
        for conn in self._conns.values():
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        for proc in self._procs.values():
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - hard-kill path
                proc.terminate()
                proc.join(timeout=5.0)

    # -- the epoch loop -----------------------------------------------------

    def run(self) -> List[Dict[str, object]]:
        """Run the conservative epoch loop; returns the shard payloads."""
        total_ns = self.config.total_duration_ns()
        window_ns = self.spec.window_ns
        if window_ns is None or window_ns <= 0:
            raise ShardError(
                "partition has no cut links (or a zero-delay cut), so there "
                "is no conservative window to coordinate; run single-process "
                "instead"
            )
        try:
            self._spawn()
            next_times: Dict[int, Optional[int]] = {}
            export_seq = {shard: 0 for shard in self.shard_ids}
            #: Batches awaiting delivery, keyed by destination shard.  Each
            #: entry is ((arrival, departure, src_shard, seq), injection).
            pending: Dict[int, List[tuple]] = {s: [] for s in self.shard_ids}
            for shard_id in self.shard_ids:
                _, _, next_time = self._recv(shard_id)
                next_times[shard_id] = next_time

            horizon = -1
            while True:
                candidates = [t for t in next_times.values() if t is not None]
                for batches in pending.values():
                    candidates.extend(key[0] for key, _ in batches)
                earliest = min(candidates) if candidates else None
                if earliest is None or earliest > total_ns:
                    if horizon >= total_ns:
                        break
                    until = total_ns
                else:
                    until = min(total_ns, earliest + window_ns - 1)
                for shard_id in self.shard_ids:
                    batch = pending[shard_id]
                    batch.sort(key=lambda item: item[0])
                    pending[shard_id] = []
                    self._conns[shard_id].send(
                        ("step", until, [injection for _, injection in batch])
                    )
                self.barriers += 1
                for shard_id in self.shard_ids:
                    _, exports, next_time = self._recv(shard_id)
                    next_times[shard_id] = next_time
                    seq = export_seq[shard_id]
                    for dest, arrival, ancestry, node, iface, wire in exports:
                        pending[dest].append(
                            (
                                (arrival, ancestry, shard_id, seq),
                                (arrival, ancestry, node, iface, wire),
                            )
                        )
                        seq += 1
                    export_seq[shard_id] = seq
                self.boundary_packets = sum(export_seq.values())
                horizon = until

            payloads = []
            for shard_id in self.shard_ids:
                self._conns[shard_id].send(("finish",))
            for shard_id in self.shard_ids:
                payloads.append(self._recv(shard_id)[1])
            return payloads
        finally:
            self._shutdown()


# ---------------------------------------------------------------------------
# Result merge
# ---------------------------------------------------------------------------


def _merge_results(
    config, topo, trace, spec, payloads, wall_started, coordinator, sink=None
):
    """Fold the shard payloads into one single-process-shaped ExperimentResult.

    The merge streams through the same :class:`~repro.results.ResultSink`
    seam as the single-process runner: flow records and re-interleaved
    sampler ticks are pushed one at a time, so a spilling sink keeps the
    merge memory bounded instead of materializing full in-RAM collectors.
    """
    barriers = coordinator.barriers
    boundary_packets = coordinator.boundary_packets
    from repro.experiments.runner import (
        ExperimentResult,
        FlowRecorder,
        make_sink,
    )

    if sink is None:
        sink = make_sink(config)
    by_shard = {payload["shard"]: payload for payload in payloads}

    # Flow records: apply each side's fields to the coordinator's own trace
    # copy (sender shard owns tx-side fields, receiver shard completion).
    sender_fields: Dict[int, tuple] = {}
    receiver_fields: Dict[int, tuple] = {}
    for payload in payloads:
        sender_fields.update(payload["sender_flows"])
        receiver_fields.update(payload["receiver_flows"])
    recorder = FlowRecorder(topo, config.mtu)
    for flow in trace:
        sent = sender_fields.get(flow.flow_id)
        if sent is not None:
            (flow.num_packets, flow.first_tx_ns,
             flow.retransmitted_packets, flow.start_ns) = sent
        received = receiver_fields.get(flow.flow_id)
        if received is not None:
            flow.finish_ns, flow.bytes_delivered = received
        sink.on_flow_record(recorder.record(flow))

    # Counters / drops / BFC stats: plain sums (max for the table high-water).
    switch_counters: Dict[str, int] = {}
    host_counters: Dict[str, int] = {}
    dropped = 0
    assignments = collisions = 0
    vfid_stats: Dict[str, int] = {}
    any_bfc = False
    for payload in payloads:
        for name, value in payload["counters"].items():
            switch_counters[name] = switch_counters.get(name, 0) + value
        for name, value in payload.get("host_counters", {}).items():
            host_counters[name] = host_counters.get(name, 0) + value
        dropped += payload["dropped"]
        bfc = payload["bfc"]
        if bfc is not None:
            any_bfc = True
            assignments += bfc["assignments"]
            collisions += bfc["collisions"]
            for name, value in bfc["vfid_stats"].items():
                if name == "max_active_entries":
                    vfid_stats[name] = max(vfid_stats.get(name, 0), value)
                else:
                    vfid_stats[name] = vfid_stats.get(name, 0) + value
    if any_bfc:
        collision_fraction = collisions / assignments if assignments else 0.0
    else:
        collision_fraction, vfid_stats = None, {}

    # Pause fractions and utilization: walk the coordinator's topology in the
    # exact single-process harvest order, pulling each value from the shard
    # that owns the node.
    pause_by_iface: Dict[tuple, float] = {}
    for payload in payloads:
        pause_by_iface.update(payload["pause"])
    pause_fractions: Dict[str, List[float]] = {}
    for switch in topo.all_switches():
        for iface in switch.interfaces:
            pause_fractions.setdefault(iface.link_class, []).append(
                pause_by_iface[(switch.name, iface.index)]
            )
    for host in topo.hosts.values():
        for iface in host.interfaces:
            pause_fractions.setdefault(iface.link_class, []).append(
                pause_by_iface[(host.name, iface.index)]
            )
    utilization: Dict[int, float] = {}
    merged_util: Dict[int, float] = {}
    for payload in payloads:
        merged_util.update(payload["utilization"])
    for host_id in topo.hosts:
        if host_id in merged_util:
            utilization[host_id] = merged_util[host_id]

    # Samplers: re-interleave the per-switch per-tick series in single-process
    # order (per tick, switches in topology order).
    buffer_ticks: Dict[str, List[int]] = {}
    queue_ticks: Dict[str, List[List[int]]] = {}
    occupied_ticks: Dict[str, List[int]] = {}
    for payload in payloads:
        buffer_ticks.update(payload["buffer_ticks"])
        queue_ticks.update(payload["queue_ticks"])
        occupied_ticks.update(payload["occupied_ticks"])
    tick_counts = {len(series) for series in buffer_ticks.values()}
    if len(tick_counts) > 1:
        raise ShardError(f"shards disagree on sampling tick count: {tick_counts}")
    ticks = tick_counts.pop() if tick_counts else 0
    for tick in range(ticks):
        for switch in topo.all_switches():
            name = switch.name
            sink.on_buffer_sample(name, buffer_ticks[name][tick])
            if name in queue_ticks:
                for backlog in queue_ticks[name][tick]:
                    sink.on_queue_sample(backlog)
                sink.on_occupied_sample(occupied_ticks[name][tick])

    events_processed = sum(payload["events"] for payload in payloads)
    shard_stats = spec.stats(topo)
    if coordinator.slot_budget is not None:
        shard_stats["slot_budget"] = coordinator.slot_budget
        shard_stats["oversubscribed"] = len(coordinator.shard_ids) > coordinator.slot_budget
    shard_stats.update(
        {
            "barriers": barriers,
            "boundary_packets": boundary_packets,
            "events_per_shard": {
                str(shard): by_shard[shard]["events"] for shard in sorted(by_shard)
            },
            "boundary_ports_per_shard": {
                str(shard): by_shard[shard]["boundary_ports"]
                for shard in sorted(by_shard)
            },
        }
    )

    extras = {
        "name": config.name,
        "scheme": config.scheme,
        "seed": config.seed,
        "flows_offered": len(trace),
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
        flows_offered=len(trace),
        events_processed=events_processed,
        wall_seconds=time.monotonic() - wall_started,
        shard_stats=shard_stats,
        results_ref=sink.results_ref,
        host_counters=host_counters,
    )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_sharded_experiment(
    config, slot_budget: Optional[int] = None, sink=None
) -> "object":
    """Run ``config`` across ``config.shards`` processes and merge the result.

    Falls back to the ordinary single-process runner when the partition
    degenerates (one populated shard or no cut links), so ``shards=N`` is
    always safe to request.

    ``slot_budget`` is the campaign scheduler's CPU-slot reservation for this
    run (see :func:`repro.experiments.runner.run_experiment`); it is recorded
    in ``shard_stats`` and never changes the simulation.

    ``sink`` is the result sink the merge streams into (default: chosen from
    ``config.results_dir``); per-shard measurements are merged through it
    record by record instead of materializing in-RAM collectors first.
    """
    from repro.experiments.runner import build_simulation, run_experiment

    if config.traffic.open_loop is not None and config.shards > 1:
        raise ShardError(
            "open-loop traffic is not supported with shards > 1 (arrivals are "
            "generated at run time on the coordinator's clock, which has no "
            "per-shard equivalent yet); run with shards=1"
        )
    if config.shards < 2:
        return run_experiment(replace(config, shards=1), sink=sink)
    if config.max_events is not None:
        raise ShardError(
            "max_events is not supported with shards > 1 (the event cap is a "
            "global count, which has no faithful per-shard equivalent)"
        )

    started = time.monotonic()
    sim, env, topo, trace = build_simulation(config)
    spec = partition_topology(topo, config.shards, config.shard_strategy)
    shard_ids = spec.nonempty_shards()
    if len(shard_ids) < 2 or not spec.cuts:
        result = run_experiment(replace(config, shards=1), sink=sink)
        result.shard_stats = spec.stats(topo)
        result.shard_stats["degenerate"] = True
        if slot_budget is not None:
            result.shard_stats["slot_budget"] = slot_budget
            # A degenerate partition runs single-process: one slot, which
            # any validated budget (>= 1) covers.
            result.shard_stats["oversubscribed"] = False
        return result

    coordinator = ShardCoordinator(config, spec, shard_ids, slot_budget=slot_budget)
    payloads = coordinator.run()
    return _merge_results(
        config, topo, trace, spec, payloads, started, coordinator, sink=sink
    )
