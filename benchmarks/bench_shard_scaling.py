"""Sharded-simulation scaling benchmark: wall clock and events/sec vs shards.

Measures :mod:`repro.shard` on two representative partitions of the
``small`` scenarios, each run for the scale's own duration:

* ``cross-dc`` — the fig9 two-data-center topology split per DC.  The
  20x-longer inter-DC delay is the conservative window, so barriers are
  rare; this is the headline sharding configuration.
* ``pod`` — the fig5a leaf-spine fabric split per pod.  The window is one
  intra-fabric link delay (1 us), so this stresses the barrier path.

At ``tiny`` scale a run is too short to amortise process start-up, the
per-worker topology build and the barriers, so sharding never pays there.

Each shard is one OS process, so a point only has the CPUs it needs when
``cpu_count`` (recorded in the JSON) is at least its shard count; with fewer,
``overhead_vs_serial`` is the synchronization cost plus CPU contention.
Records are byte-identical to the single-process run at every shard count
(``tests/test_shard_determinism.py``).

Usage::

    PYTHONPATH=src python benchmarks/bench_shard_scaling.py
    PYTHONPATH=src python benchmarks/bench_shard_scaling.py \
        --repeats 1 --json /tmp/shard.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List

from repro import __version__
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import fig5a_configs, fig9_configs

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_JSON = REPO_ROOT / "BENCH_shard_scaling.json"

BENCH_SEED = 11
BENCH_SCALE = "small"


def _scenarios() -> Dict[str, Dict[str, object]]:
    fig9 = fig9_configs(BENCH_SCALE, schemes=("BFC",), seed=BENCH_SEED)["BFC"]
    fig5a = fig5a_configs(BENCH_SCALE, schemes=["BFC"], seed=BENCH_SEED)["BFC"]
    return {
        "cross-dc": {"config": fig9, "shard_counts": [1, 2]},
        "pod": {"config": fig5a, "shard_counts": [1, 2, 4]},
    }


def _measure(config, shards: int) -> Dict[str, object]:
    started = time.monotonic()
    result = run_experiment(replace(config, shards=shards))
    wall = time.monotonic() - started
    point = {
        "shards": shards,
        "wall_seconds": wall,
        "events": result.events_processed,
        "events_per_sec": result.events_processed / wall if wall > 0 else 0.0,
    }
    stats = result.shard_stats
    if stats is not None:
        point.update(
            {
                "shards_populated": len(stats["events_per_shard"]),
                "strategy": stats["strategy"],
                "window_ns": stats["window_ns"],
                "cut_links": stats["cut_links"],
                "barriers": stats["barriers"],
                "boundary_packets": stats["boundary_packets"],
            }
        )
    return point


def run_benchmark(repeats: int) -> Dict[str, object]:
    scenarios: Dict[str, object] = {}
    for name, spec in _scenarios().items():
        shard_counts = spec["shard_counts"]
        # Round-robin the repeats over the shard counts so each point's
        # best-of-N samples the same wall-clock windows: the machine's CPU
        # throttling drifts over minutes, and only same-window ratios mean
        # anything.
        best: Dict[int, Dict[str, object]] = {}
        for _ in range(repeats):
            for shards in shard_counts:
                point = _measure(spec["config"], shards)
                if (
                    shards not in best
                    or point["wall_seconds"] < best[shards]["wall_seconds"]
                ):
                    best[shards] = point
        points: List[Dict[str, object]] = [best[shards] for shards in shard_counts]
        for point in points:
            line = (
                f"{name:>9} shards={point['shards']}: "
                f"{point['wall_seconds']:.2f}s, "
                f"{point['events_per_sec']:,.0f} ev/s"
            )
            if "barriers" in point:
                line += f", {point['barriers']} barriers, window {point['window_ns']} ns"
            print(line)
        serial_wall = points[0]["wall_seconds"]
        for point in points[1:]:
            point["speedup_vs_serial"] = serial_wall / point["wall_seconds"]
            point["overhead_vs_serial"] = point["wall_seconds"] / serial_wall - 1.0
        scenarios[name] = {
            "scheme": "BFC",
            "duration_us": spec["config"].duration_ns // 1000,
            "points": points,
        }
    return {
        "benchmark": "shard_scaling",
        "seed": BENCH_SEED,
        "scale": BENCH_SCALE,
        "scenarios": scenarios,
        "repeats": repeats,
        "note": (
            "Conservative windows; speedup_vs_serial is best-of-repeats wall "
            "clock against the single-process run.  A point has a CPU per "
            "shard only when cpu_count >= shards; otherwise it also measures "
            "CPU contention.  Records are byte-identical to the "
            "single-process run at every shard count "
            "(tests/test_shard_determinism.py)."
        ),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "repro_version": __version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repeats", type=int, default=2, help="take the best of N runs (default 2)"
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=DEFAULT_JSON,
        help=f"output JSON path (default {DEFAULT_JSON})",
    )
    args = parser.parse_args(argv)

    report = run_benchmark(args.repeats)
    for name, scenario in report["scenarios"].items():
        for point in scenario["points"]:
            if "overhead_vs_serial" in point:
                print(
                    f"{name:>9} shards={point['shards']}: "
                    f"speedup x{point['speedup_vs_serial']:.2f} "
                    f"(overhead {100 * point['overhead_vs_serial']:+.1f}% vs serial)"
                )

    args.json.parent.mkdir(parents=True, exist_ok=True)
    with open(args.json, "w", encoding="ascii") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
