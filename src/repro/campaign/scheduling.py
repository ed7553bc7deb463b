"""Resource-aware campaign scheduling: order trials for a core budget.

A sharded trial (``ExperimentConfig(shards=N)``) occupies *N* simulator
processes while it runs.  A pool that counted every trial as one unit of
work would put up to ``W x N`` simulator processes on ``W`` CPUs, and the
resulting time-slicing wastes exactly the cache locality the shard
runtime's conservative windows depend on.

This module plans instead of guessing:

* every :class:`~repro.campaign.core.Trial` is introspected for its
  **resource footprint** — ``slots`` (the number of simultaneously live
  simulator processes it needs, i.e. ``max(1, config.shards)``) and an
  **estimated cost** (topology size x simulated duration);
* :func:`plan_trials` orders the trials longest-processing-time first:
  the :class:`ExecutionPlan`, whose order is what every executor
  dispatches and what ``--dry-run`` previews;
* :class:`ScheduledExecutor` streams that order through one local process
  pool (:func:`~repro.campaign.executors.run_local`): a trial starts as
  soon as its slots are free, and records stay bit-identical to a serial
  run.

A trial whose ``shards`` exceed the whole budget cannot share the machine;
it is *degraded gracefully*: it runs alone (nothing else concurrent) with
its full shard count, and the plan marks it ``oversubscribed``.  Rewriting
``shards=N`` to ``shards=1`` would also be record-preserving for the
*canonical* records, but it changes the ``events_processed`` metric of the
trial record, so the planner never does it silently.

Every local campaign run goes through :class:`ScheduledExecutor`; one core
(the default) runs the trials in this process, longest first.  Entry
points: ``Campaign.run(cores=...)``, ``Campaign.plan(cores=...)``, and the
CLI's ``--cores`` / ``--dry-run`` flags.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from .executors import Executor, OnDone, Pair, PlannedTrial, run_local
from .results import CampaignError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import ExperimentConfig

    from .core import Trial

#: Environment variable consulted by ``cores="auto"``.
CORES_ENV = "REPRO_CORES"


def detect_cores() -> int:
    """The core budget: ``REPRO_CORES`` if set, else the usable CPU count.

    The usable CPUs are the process's affinity set where the platform has
    one (``taskset``, cpusets), else ``os.cpu_count()``.  ``REPRO_CORES``
    exists for containers whose CPU quota is smaller than either, and for
    CI runners that want a pinned, reproducible plan.
    """
    value = os.environ.get(CORES_ENV, "").strip()
    if value:
        try:
            cores = int(value)
        except ValueError:
            raise CampaignError(
                f"{CORES_ENV} must be an integer, got {value!r}"
            ) from None
        if cores < 1:
            raise CampaignError(f"{CORES_ENV} must be >= 1, got {cores}")
        return cores
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def resolve_cores(cores: Union[int, str, None]) -> int:
    """Normalize a ``cores`` argument (``"auto"``/``None``/int) to an int."""
    if cores is None or cores == "auto":
        return detect_cores()
    try:
        cores = int(cores)
    except (TypeError, ValueError):
        raise CampaignError(
            f"cores must be an integer or 'auto', got {cores!r}"
        ) from None
    if cores < 1:
        raise CampaignError(f"cores must be >= 1, got {cores}")
    return cores


# ---------------------------------------------------------------------------
# Resource footprint introspection
# ---------------------------------------------------------------------------


def trial_slots(trial: "Trial") -> int:
    """Simulator processes a trial keeps alive: ``max(1, config.shards)``.

    The coordinator process of a sharded run only builds the topology and
    then blocks on barriers, so it is not counted as a slot.
    """
    config = trial.config
    return max(1, getattr(config, "shards", 1) or 1)


def estimate_cost(config: "ExperimentConfig") -> float:
    """Relative cost estimate of one run: topology size x simulated time.

    Event volume scales roughly with the number of traffic sources times the
    simulated duration (drain included), which is all that is knowable
    without running the trial.  The estimate is *relative* — good enough to
    order trials longest first.
    """
    if config.cross_dc is not None:
        hosts = 2 * config.cross_dc.dc_params.num_hosts
    else:
        hosts = config.clos.num_hosts
    return float(hosts) * float(config.total_duration_ns())


# ---------------------------------------------------------------------------
# The plan
# ---------------------------------------------------------------------------


@dataclass
class ExecutionPlan:
    """The longest-first dispatch :attr:`order` of some trials on ``cores``.

    Executors start the trials in this order as slots free up, so at no
    instant do more than ``cores`` simulator processes exist, except for an
    explicitly ``oversubscribed`` trial whose own shard count exceeds the
    budget; it runs alone.
    """

    cores: int
    #: Every entry, longest first (stable on input position).
    order: List[PlannedTrial]

    def oversubscribed(self) -> List[PlannedTrial]:
        return [entry for entry in self.order if entry.oversubscribed]

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready rendering of the plan (the CLI's ``--dry-run --json``)."""
        return {
            "cores": self.cores,
            "order": [
                {
                    "name": entry.name,
                    "slots": entry.requested_slots,
                    "cost": entry.cost,
                    "oversubscribed": entry.oversubscribed,
                }
                for entry in self.order
            ],
        }

    def describe(self) -> str:
        """Human-readable plan preview (the CLI's ``--dry-run`` output)."""
        lines = [
            f"plan: {len(self.order)} trial(s) on {self.cores} core(s), "
            "longest first"
        ]
        for number, entry in enumerate(self.order, start=1):
            detail = f"slots={entry.requested_slots}  cost~{entry.cost:.3g}"
            if entry.oversubscribed:
                detail += (
                    f"  [oversubscribed: {entry.requested_slots} shard "
                    f"processes > {self.cores} core(s); runs alone]"
                )
            lines.append(f"  {number:>3}. {entry.name:<44s} {detail}")
        return "\n".join(lines)


def plan_trials(
    trials: Sequence["Trial"], cores: Union[int, str, None] = "auto"
) -> ExecutionPlan:
    """Order trials longest first under a core budget.

    Deterministic: equal-cost ties break on the trial's position in the
    input list, so the same trial list always yields the same plan
    (asserted by ``tests/test_campaign_scheduling.py``).
    """
    budget = resolve_cores(cores)
    entries = []
    for index, trial in enumerate(trials):
        requested = trial_slots(trial)
        entries.append(
            PlannedTrial(
                index=index,
                name=trial.name,
                slots=min(requested, budget),
                requested_slots=requested,
                cost=estimate_cost(trial.config),
                oversubscribed=requested > budget,
            )
        )
    order = sorted(entries, key=lambda e: (-e.cost, e.index))
    return ExecutionPlan(cores=budget, order=order)


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


class ScheduledExecutor(Executor):
    """Stream trials through one local pool in the plan's longest-first order.

    Guarantees of the planned path:

    * at most ``cores`` simulator processes are ever alive at once (a
      sharded trial counts as ``shards`` of them), except for a trial whose
      own shard count exceeds the budget, which runs alone;
    * each sharded trial's coordinator is told its slot budget
      (``ExperimentResult.shard_stats["slot_budget"]``);
    * results are returned in input order and every record is bit-identical
      to a :class:`~repro.campaign.executors.SerialExecutor` run — planning
      only reorders *when* trials run, never what they compute.

    At one core there is no pool: the trials run in this process.  The
    pool prefers the ``fork`` start method so that schemes registered at
    run time with ``@register_scheme`` reach its workers; on spawn-only
    platforms (Windows) plug-in schemes must be registered at import time
    in a module the workers import too.
    """

    def __init__(
        self, cores: Union[int, str, None] = "auto", records_only: bool = False
    ) -> None:
        self.cores = resolve_cores(cores)
        self.records_only = records_only

    def plan(self, trials: Sequence["Trial"]) -> ExecutionPlan:
        return plan_trials(trials, self.cores)

    def run(
        self, trials: Sequence["Trial"], on_done: Optional[OnDone] = None
    ) -> List[Pair]:
        return run_local(
            trials, self.cores, self.records_only, on_done,
            queue=self.plan(trials).order,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScheduledExecutor(cores={self.cores})"
