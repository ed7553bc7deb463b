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
  ``(arrival_time, departure_time, src_shard, seq)`` with ``seq`` the
  per-shard capture order — so the injection sequence (and therefore the
  engine tie-break) is bit-identical run to run.
* Injected deliveries carry their departure instant as the engine ordering
  *origin* (see :meth:`repro.sim.engine.Simulator.schedule_boundary`), which
  places them among local same-time events exactly where the single-process
  schedule inserts the peer-delivery post.

Each worker harvests its own nodes with the runner's own collector
(:func:`~repro.experiments.runner.harvest`) and records its sampling ticks
per switch; the coordinator replays the ticks in topology order and folds
the parts with the runner's :func:`~repro.experiments.runner.assemble_result`,
so a serial run is the one-shard case of the same harvest and the
canonical records of both are byte-identical (see
``tests/test_shard_determinism.py``).
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
import traceback
from dataclasses import replace
from typing import Dict, List, Optional

from repro.core.switchlogic import BfcSwitch
from repro.results.sinks import ResultSink

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
        timeout = float(value)
    except ValueError:
        timeout = math.nan
    if not timeout >= 0:  # also refuses NaN, which compares false to anything
        raise ShardError(
            "REPRO_SHARD_TIMEOUT_S must be a non-negative number of seconds "
            f"(0 disables the timeout), got {value!r}"
        )
    return timeout


class ShardError(RuntimeError):
    """A shard worker failed or the coordinator lost contact with one."""


def _noop() -> None:
    """Replacement tick for idle remote BFC agents (ends the tick chain)."""


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


class _TickRecorder(ResultSink):
    """A shard's sampling sink: files each sampling call under its switch and tick.

    The sampling loop opens each switch's share of a tick with
    ``on_buffer_sample``; the queue and occupancy calls that follow belong
    to that switch.  The coordinator replays the filed calls into the real
    sink tick by tick, switches in topology order.
    """

    def __init__(self) -> None:
        self.ticks: Dict[str, List[list]] = {}
        self._calls: list = []

    def on_buffer_sample(self, switch_name: str, occupancy_bytes: int) -> None:
        self._calls = [("on_buffer_sample", switch_name, occupancy_bytes)]
        self.ticks.setdefault(switch_name, []).append(self._calls)

    def on_queue_sample(self, backlog_bytes: int) -> None:
        self._calls.append(("on_queue_sample", backlog_bytes))

    def on_occupied_sample(self, count: int) -> None:
        self._calls.append(("on_occupied_sample", count))


def _shard_worker(conn, config, shard_id: int, num_shards: int) -> None:
    """Entry point of one shard process."""
    try:
        from repro.experiments.runner import _schedule_sampling, build_simulation

        sim, env, topo, trace = build_simulation(config)
        # The partition is a pure function of the deterministically built
        # topology, so the worker and the coordinator agree on it.
        spec = partition_topology(topo, num_shards)
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
        local_hosts = [h for h in topo.hosts.values() if shard_of[h.name] == shard_id]
        # Remote switches are idle replicas that exist only so the build-time
        # RNG draws match the single-process run; their periodic BFC agent
        # ticks would never send a frame (no state ever changes), so cut the
        # tick chains to keep the idle replicas event-free.
        for switch in topo.all_switches():
            if shard_of[switch.name] != shard_id and isinstance(switch, BfcSwitch):
                switch.agent._tick = _noop
        recorder = _TickRecorder()
        _schedule_sampling(
            sim,
            local_switches,
            config.effective_sample_interval_ns(),
            config.total_duration_ns(),
            recorder,
        )

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

        payload = _harvest_shard(
            config, sim, topo, trace, shard_of, shard_id, local_switches, local_hosts
        )
        payload.update(shard=shard_id, ticks=recorder.ticks, boundary_ports=boundary_ports)
        conn.send(("result", payload))
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:  # pragma: no cover - pipe already gone
            pass
    finally:
        conn.close()


def _harvest_shard(
    config, sim, topo, trace, shard_of, shard_id: int, local_switches, local_hosts
) -> Dict[str, object]:
    """The runner's harvest of this shard's nodes, plus its side of every flow."""
    from repro.experiments.runner import harvest

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
    payload = harvest(sim, topo, local_switches, local_hosts, config.duration_ns)
    payload.update(sender_flows=sender_flows, receiver_flows=receiver_flows)
    return payload


# ---------------------------------------------------------------------------
# Coordinator side
# ---------------------------------------------------------------------------


class ShardCoordinator:
    """Drives the shard workers through conservative epochs and merges results."""

    def __init__(
        self,
        config,
        spec: PartitionSpec,
        slot_budget: Optional[int] = None,
    ) -> None:
        self.config = config
        self.spec = spec
        self.shard_ids = list(range(spec.num_shards))
        #: CPU slots the campaign scheduling layer reserved for this run
        #: (None when launched outside a planned campaign).  The handshake is
        #: advisory: every shard process must advance for the conservative
        #: epochs to make progress, so the coordinator cannot run fewer
        #: workers than shards — but it can *report* that it was given less
        #: than it needs, and the planner's tests hold it to that report.
        self.slot_budget = slot_budget
        #: Read once, so a bad REPRO_SHARD_TIMEOUT_S fails before any spawn.
        self.timeout_s = _worker_timeout_s()
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
                args=(child_conn, self.config, shard_id, self.spec.num_shards),
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
        timeout = self.timeout_s
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
                for queued in pending.values():
                    candidates.extend(key[0] for key, _ in queued)
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
                    for dest, arrival, departure, node, iface, wire in exports:
                        pending[dest].append(
                            (
                                (arrival, departure, shard_id, seq),
                                (arrival, departure, node, iface, wire),
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

    The flow records and the replayed sampling ticks stream through the
    same :class:`~repro.results.ResultSink` seam as the single-process
    runner, so a spilling sink keeps the merge memory bounded; the runner's
    :func:`~repro.experiments.runner.assemble_result` folds the rest.
    """
    from repro.experiments.runner import FlowRecorder, assemble_result, make_sink

    if sink is None:
        sink = make_sink(config)

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

    # Sampling ticks: per tick, each switch's filed calls in topology order,
    # the order a single-process run makes them in.
    ticks: Dict[str, List[list]] = {}
    for payload in payloads:
        ticks.update(payload["ticks"])
    tick_counts = {len(series) for series in ticks.values()}
    if len(tick_counts) > 1:
        raise ShardError(f"shards disagree on sampling tick count: {tick_counts}")
    for tick in range(tick_counts.pop() if tick_counts else 0):
        for switch in topo.all_switches():
            for method, *args in ticks[switch.name][tick]:
                getattr(sink, method)(*args)

    shard_stats = spec.stats(topo)
    if coordinator.slot_budget is not None:
        shard_stats["slot_budget"] = coordinator.slot_budget
        shard_stats["oversubscribed"] = len(coordinator.shard_ids) > coordinator.slot_budget
    shard_stats.update(
        {
            "barriers": coordinator.barriers,
            "boundary_packets": coordinator.boundary_packets,
            # The payloads arrive in shard order.
            "events_per_shard": {str(p["shard"]): p["events"] for p in payloads},
            "boundary_ports_per_shard": {
                str(p["shard"]): p["boundary_ports"] for p in payloads
            },
        }
    )
    return assemble_result(
        config, topo, payloads, sink, len(trace), wall_started, shard_stats
    )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_sharded_experiment(
    config, slot_budget: Optional[int] = None, sink=None
) -> "object":
    """Run ``config`` across ``config.shards`` processes and merge the result.

    ``config.shards`` must be 1 or the topology's data-center count (one
    shard per DC, cut at the inter-DC links); any other value raises
    :class:`~repro.shard.partition.PartitionError` before a worker starts.

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
    spec = partition_topology(topo, config.shards)
    coordinator = ShardCoordinator(config, spec, slot_budget=slot_budget)
    payloads = coordinator.run()
    return _merge_results(
        config, topo, trace, spec, payloads, started, coordinator, sink=sink
    )
