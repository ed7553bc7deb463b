"""Campaign-scheduling benchmark: serial vs naive pool vs planned execution.

Runs one mixed campaign — unsharded and sharded (``shards=2``, one process
per data center) trials of the ``tiny`` fig9 cross-DC scenario — three
ways:

* ``serial`` — :class:`~repro.campaign.SerialExecutor`, the reference;
* ``naive`` — :func:`~repro.campaign.executors.run_local` fed the trials in
  input order at one slot each on a pool of ``slots`` workers: it counts
  *trials* and therefore lets ``workers x shards`` simulator processes
  coexist (the over-subscription the planner exists to prevent);
* ``planned`` — :class:`~repro.campaign.ScheduledExecutor` with the same
  number of CPU slots, where a sharded trial is charged ``shards`` slots, so
  live simulator processes never exceed the budget.

Every mode must produce identical records (asserted here; wall clock aside),
so the benchmark measures pure scheduling quality.  Honesty notes: on a
single-CPU container (``cpu_count`` field) no parallel mode can beat serial
— the meaningful numbers there are the live-process ceilings and the
overhead each mode pays for its process management; the wall-clock *benefit*
of planning needs >= 2 real cores, where the naive pool's time-slicing of
``workers x shards`` processes degrades cache locality that the planner
preserves.

Usage::

    PYTHONPATH=src python benchmarks/bench_campaign_scheduling.py
    PYTHONPATH=src python benchmarks/bench_campaign_scheduling.py \
        --repeats 1 --json /tmp/sched.json
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
from repro.campaign import (
    Campaign,
    ResultSet,
    ScheduledExecutor,
    SerialExecutor,
)
from repro.campaign.executors import run_local
from repro.experiments.scenarios import fig9_configs

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_JSON = REPO_ROOT / "BENCH_campaign_scheduling.json"

BENCH_SEED = 11


def _cross_dc_trial(campaign, scheme, params, seed, name):
    """Config builder: the tiny fig9 run, which shards one process per DC."""
    config = fig9_configs("tiny", schemes=(scheme,), seed=seed)[scheme]
    return replace(config, name=name, **params)


def _campaign() -> Campaign:
    """The mixed grid: {BFC, DCQCN} x {shards=1, shards=2} on fig9."""
    return (
        Campaign("sched-bench")
        .schemes("BFC", "DCQCN")
        .sweep(shards=[1, 2])
        .config_builder(_cross_dc_trial)
        .seeds(base=BENCH_SEED)
    )


def _live_process_ceiling(mode: str, campaign: Campaign, slots: int) -> int:
    """Worst-case simultaneously-live simulator processes per mode."""
    trials = campaign.trials()
    max_shards = max(max(1, t.config.shards) for t in trials)
    if mode == "serial":
        return max_shards
    if mode == "naive":
        return slots * max_shards
    return _budget_bound(trials, slots)


def _budget_bound(trials, slots: int) -> int:
    """Live-process bound of the planned stream: the budget, or more only
    for an oversubscribed trial, which runs alone with its own shards."""
    plan = ScheduledExecutor(cores=slots).plan(trials)
    return max([slots] + [e.requested_slots for e in plan.oversubscribed()])


def _measure(mode: str, campaign: Campaign, slots: int):
    started = time.monotonic()
    if mode == "naive":
        pairs = run_local(campaign.trials(), slots, True)
        result_set = ResultSet([record for record, _ in pairs], campaign=campaign.name)
    else:
        executor = (
            SerialExecutor(records_only=True)
            if mode == "serial"
            else ScheduledExecutor(cores=slots, records_only=True)
        )
        result_set = campaign.run(executor=executor)
    wall = time.monotonic() - started
    return wall, result_set


def run_benchmark(repeats: int, slots: int) -> Dict[str, object]:
    campaign = _campaign()
    trials = campaign.trials()

    modes = ["serial", "naive", "planned"]
    best: Dict[str, float] = {}
    reference = None
    # Round-robin the repeats over the modes so each mode's best-of-N samples
    # the same wall-clock windows (the container's CPU throttling drifts over
    # minutes, so only same-window ratios are meaningful).
    for _ in range(repeats):
        for mode in modes:
            wall, result_set = _measure(mode, campaign, slots)
            if mode not in best or wall < best[mode]:
                best[mode] = wall
            if reference is None:
                reference = result_set
            elif result_set != reference:
                raise AssertionError(
                    f"{mode} records differ from the reference run — "
                    "scheduling must be measurement-invisible"
                )

    points: List[Dict[str, object]] = []
    for mode in modes:
        points.append(
            {
                "mode": mode,
                "wall_seconds": best[mode],
                "vs_serial": best[mode] / best["serial"],
                "live_process_ceiling": _live_process_ceiling(mode, campaign, slots),
            }
        )
        print(
            f"{mode:>8}: {best[mode]:.2f}s "
            f"(x{best[mode] / best['serial']:.2f} vs serial, "
            f"<= {points[-1]['live_process_ceiling']} live sim processes)"
        )

    return {
        "benchmark": "campaign_scheduling",
        "seed": BENCH_SEED,
        "scenario": "fig9 tiny",
        "repeats": repeats,
        "slots": slots,
        "trials": len(trials),
        "sharded_trials": sum(1 for t in trials if t.config.shards > 1),
        "budget_bound": _budget_bound(trials, slots),
        "records_identical_across_modes": True,
        "points": points,
        "note": (
            "records are asserted identical across all three modes, so this "
            "measures scheduling only.  On a 1-CPU container no mode can beat "
            "serial; the planner's value there is the live-process ceiling "
            "(naive = workers x shards, planned <= slots).  Wall-clock wins "
            "need >= 2 real cores."
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
        "--slots",
        type=int,
        default=2,
        help="CPU-slot budget for the naive and planned modes (default 2)",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=DEFAULT_JSON,
        help=f"output JSON path (default {DEFAULT_JSON})",
    )
    args = parser.parse_args(argv)

    report = run_benchmark(args.repeats, args.slots)
    args.json.parent.mkdir(parents=True, exist_ok=True)
    with open(args.json, "w", encoding="ascii") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
