"""The observatory's five whole-run workloads.

Each workload is what a user of the library would launch, driven through the
public entry points only (``run_experiment``, ``Campaign.run``,
``ResultsAnalyzer``).  A workload gives the configs of its trials (for the
standalone set-up timing) and a body that runs them and returns the trials'
:class:`ExperimentResult` objects plus any host times it measured itself.

A body runs at one trace seed; the runner cycles a run's repeats through the
few trace seeds a benchmark seed stands for (:func:`trace_seeds`), because how
much work a trace holds, and how much of it is incast, moves the per-packet
cost by ten percent and more from one trace to the next.

``quick`` shrinks every workload to ``tiny`` scale for the tier-1 test; the
numbers it yields are for checking names and invariants, never for claims.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.experiments.runner import ExperimentConfig, ExperimentResult, run_experiment
from repro.experiments.scenarios import (
    collective_configs,
    fig5a_campaign,
    fig5a_configs,
    openloop_crossdc_config,
)
from repro.results import ResultsAnalyzer

QUICK_CAMPAIGN_SCHEMES = ["BFC", "DCQCN"]


@dataclass
class Run:
    """What one execution of a workload body produced."""

    #: Trial results in trial order; the first is the primary trial unless
    #: ``primary`` says otherwise.
    results: List[ExperimentResult]
    primary: int = 0
    #: Processes the trials were spread over.
    slots: int = 1
    #: ``results.read_s`` (host time of the read-back) and
    #: ``results.spill_bytes`` (exact), where the body has them.
    extras: Dict[str, float] = field(default_factory=dict)
    #: Check failures found inside the body (empty when all passed).
    problems: List[str] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    #: ``configs(seed, quick, workdir)`` -> the trial configs, in trial order.
    configs: Callable[[int, bool, str], List[ExperimentConfig]]
    #: ``body(seed, quick, workdir, in_process)`` -> :class:`Run`.
    #: ``in_process`` asks for every trial to run in the calling process,
    #: which is what a profiler can see.
    body: Callable[[int, bool, str, bool], Run]


#: Trace seeds one benchmark seed stands for.
TRACES_PER_SEED = 3


def trace_seeds(seed: int) -> List[int]:
    """The trace seeds a run at benchmark seed ``seed`` cycles through."""
    # Strides of 10 keep the campaign's own repeats (seed, seed+1, seed+2)
    # from overlapping between two trace seeds.
    return [seed * 1000 + 10 * k for k in range(TRACES_PER_SEED)]


def _scale(quick: bool) -> str:
    return "tiny" if quick else "small"


def _single_runs(configs):
    """The body of a workload that is its configs run one after the other."""

    def body(seed: int, quick: bool, workdir: str, in_process: bool) -> Run:
        return Run([run_experiment(c) for c in configs(seed, quick, workdir)])

    return configs, body


def _incast_configs(scheme: str):
    def configs(seed: int, quick: bool, workdir: str) -> List[ExperimentConfig]:
        return [fig5a_configs(_scale(quick), [scheme], seed=seed)[scheme]]

    return configs


def _ring_configs(seed: int, quick: bool, workdir: str) -> List[ExperimentConfig]:
    made = collective_configs(
        _scale(quick),
        kinds=("ring-allreduce",),
        schemes=("BFC",),
        iterations=1 if quick else 3,
        seed=seed,
    )
    return [made["ring-allreduce/BFC"]]


def _openloop_configs(seed: int, quick: bool, workdir: str) -> List[ExperimentConfig]:
    return [
        openloop_crossdc_config(
            "tiny",
            "BFC",
            seed=seed,
            target_flows=600 if quick else 15_000,
            target_load=0.3,
            results_dir=workdir,
        )
    ]


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _dirs, names in os.walk(path)
        for name in names
    )


def _openloop_body(seed: int, quick: bool, workdir: str, in_process: bool) -> Run:
    (config,) = _openloop_configs(seed, quick, workdir)
    result = run_experiment(config)
    started = time.perf_counter()
    analyzer = ResultsAnalyzer(result.results_ref)
    p99 = analyzer.slowdown_percentile(99)
    records = sum(1 for _ in analyzer.iter_flow_records())
    read_s = time.perf_counter() - started
    problems = []
    if p99 != result.p99_slowdown():
        problems.append(
            f"analyzer p99 {p99!r} differs from the in-run value {result.p99_slowdown()!r}"
        )
    if records != result.flows_offered:
        problems.append(
            f"analyzer read {records} records back, {result.flows_offered} flows were offered"
        )
    extras = {
        "results.read_s": read_s,
        "results.spill_bytes": _dir_bytes(result.results_ref),
    }
    return Run([result], extras=extras, problems=problems)


def campaign_cores() -> int:
    return min(2, os.cpu_count() or 1)


def _campaign(seed: int, quick: bool):
    if quick:
        return fig5a_campaign("tiny", schemes=QUICK_CAMPAIGN_SCHEMES, seed=seed, repeats=1)
    return fig5a_campaign("tiny", seed=seed, repeats=3)


def _campaign_configs(seed: int, quick: bool, workdir: str) -> List[ExperimentConfig]:
    return [trial.config for trial in _campaign(seed, quick).trials()]


def _campaign_body(seed: int, quick: bool, workdir: str, in_process: bool) -> Run:
    cores = 1 if in_process else campaign_cores()
    # keep_results=True: the delivered-packet count behind packets_per_s
    # lives in ExperimentResult.host_counters, not in the tidy records.
    result_set = _campaign(seed, quick).run(
        cores=cores, save=os.path.join(workdir, "campaign.jsonl"), keep_results=True
    )
    records = list(result_set)
    results = [result_set.experiment_result(record.name) for record in records]
    primary = next(i for i, record in enumerate(records) if record.scheme == "BFC")
    return Run(results, primary=primary, slots=cores)


#: Why each workload was chosen is recorded once, in BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("incast_bfc", *_single_runs(_incast_configs("BFC"))),
        Workload("incast_dcqcn", *_single_runs(_incast_configs("DCQCN"))),
        Workload("collective_ring", *_single_runs(_ring_configs)),
        Workload("openloop_spill", _openloop_configs, _openloop_body),
        Workload("campaign_grid", _campaign_configs, _campaign_body),
    )
}
