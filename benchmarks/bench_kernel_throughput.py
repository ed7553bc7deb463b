"""Kernel throughput microbenchmark: events/sec and packets/sec.

Unlike the ``bench_fig*`` harnesses (which reproduce the paper's figures),
this benchmark measures the simulation kernel itself: how many events and
packets per wall-clock second the engine pushes through a fixed fig5a-style
slice.  It is the baseline every kernel-performance PR is judged against.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel_throughput.py
    PYTHONPATH=src python benchmarks/bench_kernel_throughput.py \
        --duration-us 100 --repeats 1 --json /tmp/bench.json

The default writes ``BENCH_kernel_throughput.json`` at the repository root so
the number has a tracked trajectory across PRs.  Only the event loop is
timed — topology construction, trace generation and result harvesting are
excluded — and the scenario is deterministic, so run-to-run variance is
wall-clock noise only (use ``--repeats`` to take the best of N).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict

from repro import __version__
from repro.experiments.runner import (
    ExperimentConfig,
    _build_environment,
    _build_topology,
    _schedule_sampling,
)
from repro.experiments.scenarios import fig5a_configs, fig_est_configs
from repro.sim import units
from repro.sim.engine import ENGINE_BACKEND, Simulator
from repro.sim.flow import reset_flow_ids
from repro.results import InMemorySink

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_JSON = REPO_ROOT / "BENCH_kernel_throughput.json"

#: Schemes timed by the benchmark: the BFC kernel (VFID table, Bloom pauses,
#: physical queues) and the DCQCN kernel (single FIFO + ECN marking) bracket
#: the per-packet cost range of the supported schemes; BFC-Est rides along
#: with stale telemetry engaged so the estimator's change-point history
#: (recording on every occupancy change, binary search on every pause
#: decision) is gated on packets/sec like any other kernel path.
BENCH_SCHEMES = ["BFC", "DCQCN", "BFC-Est"]

BENCH_SEED = 11

#: Telemetry delay of the BFC-Est entry (staleness 0 would measure exact BFC
#: twice — the estimator read path only runs when the signal is delayed).
BENCH_EST_STALENESS_NS = 4_000


def _bench_configs(duration_us: int, scale: str = "tiny") -> Dict[str, ExperimentConfig]:
    configs = fig5a_configs(
        scale, schemes=[s for s in BENCH_SCHEMES if s != "BFC-Est"], seed=BENCH_SEED
    )
    if "BFC-Est" in BENCH_SCHEMES:
        # The fig_est slice at one engaged-staleness point.
        configs["BFC-Est"] = fig_est_configs(
            scale,
            staleness_points_ns=(BENCH_EST_STALENESS_NS,),
            include_capacity_weighted=False,
            seed=BENCH_SEED,
        )[f"BFC-Est/{BENCH_EST_STALENESS_NS}ns"]
    return {
        scheme: replace(config, duration_ns=units.microseconds(duration_us))
        for scheme, config in configs.items()
    }


def _count_packets(topo) -> int:
    """Total packets transmitted by every egress port (data + control)."""
    total = 0
    for node in list(topo.all_switches()) + list(topo.hosts.values()):
        for iface in node.interfaces:
            meter = iface.tx.bytes
            total += meter.data_packets + meter.control_packets
    return total


#: Number of pending-event-depth probes spread over a run.  Each probe is one
#: extra engine event (~0.05% of a run), so events/sec stays comparable with
#: earlier baselines.
_DEPTH_PROBES = 128


def run_one(config: ExperimentConfig) -> Dict[str, float]:
    """Time one scenario's event loop (mirrors run_experiment's setup)."""
    reset_flow_ids()
    sim = Simulator(seed=config.seed)
    env = _build_environment(config, sim)
    topo = _build_topology(config, env)
    trace = config.traffic.build(
        topo.host_ids(), topo.host_link_rate_bps, config.duration_ns
    )
    topo.start_flows(trace)
    _schedule_sampling(
        sim,
        topo,
        config.effective_sample_interval_ns(),
        config.total_duration_ns(),
        InMemorySink(),
    )
    # Probe the queue depth periodically: the ROADMAP question "does the
    # calendar queue pay off at higher event density?" needs the pending
    # depth on record next to the events/sec it produced.
    total_ns = config.total_duration_ns()
    probe_interval = max(1, total_ns // _DEPTH_PROBES)
    depth_samples = []

    def probe() -> None:
        depth_samples.append(sim.pending_events())
        if sim.now + probe_interval <= total_ns:
            sim.schedule(probe_interval, probe)

    sim.schedule(probe_interval, probe)

    started = time.perf_counter()
    sim.run(until=total_ns)
    wall = time.perf_counter() - started

    events = sim.events_processed
    packets = _count_packets(topo)
    return {
        "events": events,
        "packets": packets,
        "wall_seconds": wall,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "packets_per_sec": packets / wall if wall > 0 else 0.0,
        # Events per delivered packet is the event-reduction scorecard: it is
        # machine-independent (pure simulation counts), so it *is* comparable
        # across baselines — unlike events/sec, which additionally moves
        # whenever this ratio moves (see docs/benchmarking.md).
        "events_per_packet": events / packets if packets else 0.0,
        "mean_pending_events": (
            sum(depth_samples) / len(depth_samples) if depth_samples else 0.0
        ),
        "max_pending_events": max(depth_samples) if depth_samples else 0,
        "calendar_stats": sim.calendar_stats(),
    }


def run_benchmark(duration_us: int, repeats: int, scale: str = "tiny") -> Dict[str, object]:
    per_scheme: Dict[str, Dict[str, float]] = {}
    for scheme, config in _bench_configs(duration_us, scale).items():
        best = None
        for _ in range(repeats):
            sample = run_one(config)
            if best is None or sample["wall_seconds"] < best["wall_seconds"]:
                best = sample
        per_scheme[scheme] = best

    total_events = sum(s["events"] for s in per_scheme.values())
    total_packets = sum(s["packets"] for s in per_scheme.values())
    total_wall = sum(s["wall_seconds"] for s in per_scheme.values())
    return {
        "benchmark": "kernel_throughput",
        "scenario": f"fig5a-{scale}/{duration_us}us seed={BENCH_SEED}",
        "schemes": per_scheme,
        "events_per_sec": total_events / total_wall if total_wall > 0 else 0.0,
        "packets_per_sec": total_packets / total_wall if total_wall > 0 else 0.0,
        "total_events": total_events,
        "total_packets": total_packets,
        "total_wall_seconds": total_wall,
        "repeats": repeats,
        "python": platform.python_version(),
        # Machine identity: events/sec is only comparable within one machine,
        # so the CI regression gate (benchmarks/check_regression.py) uses
        # these fields to decide whether to normalize across machines.
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "repro_version": __version__,
        "engine_backend": ENGINE_BACKEND,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--duration-us",
        type=int,
        default=600,
        help="traffic window per scheme in simulated microseconds (default 600)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="take the best of N runs (default 3)"
    )
    parser.add_argument(
        "--scale",
        default="tiny",
        choices=["tiny", "small"],
        help="fig5a scale preset; the tiny default keeps the committed "
        "baseline (and check_regression.py) comparable across PRs, while "
        "'small' answers how the calendar queue behaves at ~4x the event "
        "density",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=DEFAULT_JSON,
        help=f"output JSON path (default {DEFAULT_JSON})",
    )
    args = parser.parse_args(argv)

    report = run_benchmark(args.duration_us, args.repeats, args.scale)

    for scheme, sample in report["schemes"].items():
        print(
            f"{scheme:>8}: {sample['events']:>9,} events in "
            f"{sample['wall_seconds']:.3f}s -> {sample['events_per_sec']:>12,.0f} ev/s, "
            f"{sample['packets_per_sec']:>11,.0f} pkt/s, "
            f"{sample['events_per_packet']:.3f} ev/pkt "
            f"(mean pending {sample['mean_pending_events']:,.0f})"
        )
    print(
        f"{'TOTAL':>8}: {report['total_events']:>9,} events in "
        f"{report['total_wall_seconds']:.3f}s -> {report['events_per_sec']:>12,.0f} ev/s, "
        f"{report['packets_per_sec']:>11,.0f} pkt/s "
        f"[engine backend: {report['engine_backend']}]"
    )

    args.json.parent.mkdir(parents=True, exist_ok=True)
    with open(args.json, "w", encoding="ascii") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
