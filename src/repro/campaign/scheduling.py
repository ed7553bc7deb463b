"""Resource-aware campaign scheduling: pack trials onto a core budget.

A sharded trial (``ExperimentConfig(shards=N)``) occupies *N* simulator
processes while it runs.  A pool that counted every trial as one unit of
work would put up to ``W x N`` simulator processes on ``W`` CPUs, and the
resulting time-slicing wastes exactly the cache locality the shard
runtime's conservative windows depend on.

This module plans instead of guessing:

* every :class:`~repro.campaign.core.Trial` is introspected for its
  **resource footprint** — ``slots`` (the number of simultaneously live
  simulator processes it needs, i.e. ``max(1, config.shards)``) and an
  **estimated cost** (topology size x simulated duration, optionally
  replaced by a measured wall-clock cost cached from a previous run);
* :func:`plan_trials` orders the trials longest-processing-time first and
  packs them into *waves* whose slot total never exceeds the budget: the
  :class:`ExecutionPlan`, whose waves are the concurrency bound and the
  ``--dry-run`` preview;
* :class:`ScheduledExecutor` streams that order through one local process
  pool (:func:`~repro.campaign.executors.run_local`): a trial starts as
  soon as its slots are free, with no wave barrier, and records stay
  bit-identical to a serial run.

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

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from .executors import Executor, OnDone, Pair, PlannedTrial, run_local
from .results import CampaignError, atomic_writer

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
    order trials for LPT packing; :class:`CostCache` replaces it with
    measured wall-clock seconds once a trial has run at least once.
    """
    if config.cross_dc is not None:
        hosts = 2 * config.cross_dc.dc_params.num_hosts
    else:
        hosts = config.clos.num_hosts
    return float(hosts) * float(config.total_duration_ns())


def trial_key(trial: "Trial") -> str:
    """Stable identity of a trial for the measured-cost cache.

    Matches the resume identity of :meth:`Campaign.run` — name, seed and the
    full params dict (config fingerprints included) — so a cached cost is
    never applied to a trial whose config has changed under the same name.
    """
    return json.dumps(
        [trial.name, trial.seed, dict(trial.params)], sort_keys=True, default=str
    )


class CostCache:
    """Measured wall-clock costs of past trials, persisted as JSON.

    Lives next to the campaign's JSONL results file
    (``demo.jsonl`` -> ``demo.costs.json``) and is consulted by
    :func:`plan_trials`: a trial with a recorded cost is packed by its real
    wall-clock seconds instead of the topology-size estimate.  The cache is
    advisory — a corrupt or missing file simply means estimated costs.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self.path = Path(path) if path is not None else None
        self._costs: Dict[str, float] = {}
        if self.path is not None and self.path.exists():
            try:
                payload = json.loads(self.path.read_text(encoding="utf-8"))
                costs = payload.get("costs", {}) if isinstance(payload, dict) else {}
                if not isinstance(costs, dict):
                    costs = {}
                self._costs = {
                    str(k): float(v)
                    for k, v in costs.items()
                    if isinstance(v, (int, float)) and v >= 0
                }
            except (OSError, ValueError):
                self._costs = {}

    @classmethod
    def for_results_file(cls, results_path: Union[str, Path]) -> "CostCache":
        """The cache that rides along a campaign JSONL file."""
        results_path = Path(results_path)
        return cls(results_path.with_name(results_path.stem + ".costs.json"))

    def __len__(self) -> int:
        return len(self._costs)

    def lookup(self, trial: "Trial") -> Optional[float]:
        return self._costs.get(trial_key(trial))

    def record(self, trial: "Trial", wall_seconds: float) -> None:
        if wall_seconds >= 0:
            self._costs[trial_key(trial)] = float(wall_seconds)

    def save(self) -> Optional[Path]:
        if self.path is None:
            return None
        payload = {"kind": "repro.campaign.costcache", "version": 1, "costs": self._costs}
        with atomic_writer(self.path) as fh:
            fh.write(json.dumps(payload, sort_keys=True, indent=1) + "\n")
        return self.path


# ---------------------------------------------------------------------------
# The plan
# ---------------------------------------------------------------------------


@dataclass
class ExecutionPlan:
    """A longest-first dispatch :attr:`order` and its packing into waves.

    Each wave's slot total stays within ``cores``: at no instant do more
    than ``cores`` simulator processes exist, except for an explicitly
    ``oversubscribed`` trial whose own shard count exceeds the budget; it
    runs alone.  Local runs stream :attr:`order` through one pool; only
    distributed runs put a barrier after each wave.
    """

    cores: int
    waves: List[List[PlannedTrial]] = field(default_factory=list)
    cost_unit: str = "rel"  #: "s" when costs are measured/calibrated seconds
    #: Every entry, longest first (stable on input position).
    order: List[PlannedTrial] = field(default_factory=list)

    @property
    def num_trials(self) -> int:
        return sum(len(wave) for wave in self.waves)

    def wave_slots(self, wave: Sequence[PlannedTrial]) -> int:
        return sum(entry.slots for entry in wave)

    def oversubscribed(self) -> List[PlannedTrial]:
        return [e for wave in self.waves for e in wave if e.oversubscribed]

    def max_live_processes(self) -> int:
        """Peak simultaneously-live simulator processes under this plan."""
        peak = 0
        for wave in self.waves:
            peak = max(peak, sum(entry.requested_slots for entry in wave))
        return peak

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready rendering of the plan (the CLI's ``--dry-run --json``)."""
        return {
            "cores": self.cores,
            "cost_unit": self.cost_unit,
            "num_trials": self.num_trials,
            "max_live_processes": self.max_live_processes(),
            "waves": [
                {
                    "slots": self.wave_slots(wave),
                    "trials": [
                        {
                            "name": entry.name,
                            "slots": entry.requested_slots,
                            "cost": entry.cost,
                            "measured": entry.measured,
                            "oversubscribed": entry.oversubscribed,
                        }
                        for entry in wave
                    ],
                }
                for wave in self.waves
            ],
        }

    def describe(self) -> str:
        """Human-readable plan preview (the CLI's ``--dry-run`` output)."""
        unit = "s" if self.cost_unit == "s" else ""
        lines = [
            f"plan: {self.num_trials} trial(s) on {self.cores} core(s), "
            f"{len(self.waves)} wave(s)"
        ]
        for number, wave in enumerate(self.waves, start=1):
            lines.append(
                f"  wave {number} ({self.wave_slots(wave)}/{self.cores} slots):"
            )
            for entry in wave:
                mark = "*" if entry.measured else "~"
                detail = f"slots={entry.requested_slots}  cost{mark}{entry.cost:.3g}{unit}"
                if entry.oversubscribed:
                    detail += (
                        f"  [oversubscribed: {entry.requested_slots} shard "
                        f"processes > {self.cores} core(s); runs alone]"
                    )
                lines.append(f"    {entry.name:<44s} {detail}")
        if any(e.measured for wave in self.waves for e in wave):
            lines.append("  (* = measured cost from cache, ~ = estimate)")
        return "\n".join(lines)


def _calibrated_costs(
    trials: Sequence["Trial"], cost_cache: Optional[CostCache]
) -> Tuple[List[float], List[bool], str]:
    """Per-trial packing costs, mixing measured seconds with estimates.

    Measured wall-clock seconds and topology-size estimates live on
    different scales; when both appear in one campaign the estimates are
    rescaled by the mean measured/estimated ratio of the trials that have
    both, so LPT compares comparable numbers.  With no measurements the raw
    estimates are used (ordering is all LPT needs).
    """
    estimates = [max(1.0, estimate_cost(t.config)) for t in trials]
    measured: List[Optional[float]] = [
        cost_cache.lookup(t) if cost_cache is not None else None for t in trials
    ]
    ratios = [m / e for m, e in zip(measured, estimates) if m is not None and m > 0]
    if not ratios:
        return estimates, [m is not None for m in measured], (
            "s" if any(m is not None for m in measured) else "rel"
        )
    scale = sum(ratios) / len(ratios)
    costs = [
        m if m is not None else e * scale for m, e in zip(measured, estimates)
    ]
    return costs, [m is not None for m in measured], "s"


def plan_trials(
    trials: Sequence["Trial"],
    cores: Union[int, str, None] = "auto",
    cost_cache: Optional[CostCache] = None,
) -> ExecutionPlan:
    """Pack trials into waves under a core budget (LPT + first-fit-decreasing).

    Deterministic: equal-cost ties break on the trial's position in the
    input list, and the entries inside each wave are ordered by that position
    too, so the same trial list always yields the same plan (asserted by
    ``tests/test_campaign_scheduling.py``).
    """
    budget = resolve_cores(cores)
    costs, measured, cost_unit = _calibrated_costs(trials, cost_cache)
    entries = []
    for index, trial in enumerate(trials):
        requested = trial_slots(trial)
        entries.append(
            PlannedTrial(
                index=index,
                name=trial.name,
                slots=min(requested, budget),
                requested_slots=requested,
                cost=costs[index],
                measured=measured[index],
                oversubscribed=requested > budget,
            )
        )
    # Longest processing time first; stable tie-break on input position.
    order = sorted(entries, key=lambda e: (-e.cost, e.index))
    waves: List[List[PlannedTrial]] = []
    free: List[int] = []  # free slots per wave, parallel to `waves`
    for entry in order:
        if entry.oversubscribed:
            # Cannot fit anywhere: exclusive wave, nothing else concurrent.
            waves.append([entry])
            free.append(0)
            continue
        for wave_index, slots_free in enumerate(free):
            if slots_free >= entry.slots:
                waves[wave_index].append(entry)
                free[wave_index] -= entry.slots
                break
        else:
            waves.append([entry])
            free.append(budget - entry.slots)
    for wave in waves:
        wave.sort(key=lambda e: e.index)
    return ExecutionPlan(cores=budget, waves=waves, cost_unit=cost_unit, order=order)


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
      only reorders *when* trials run, never what they compute;
    * when a :class:`CostCache` is attached, each finished trial's wall
      clock is recorded so the *next* run of the campaign packs by measured
      cost.

    At one core there is no pool: the trials run in this process.  The
    pool prefers the ``fork`` start method so that schemes registered at
    run time with ``@register_scheme`` reach its workers; on spawn-only
    platforms (Windows) plug-in schemes must be registered at import time
    in a module the workers import too.
    """

    def __init__(
        self,
        cores: Union[int, str, None] = "auto",
        records_only: bool = False,
        cost_cache: Optional[CostCache] = None,
    ) -> None:
        self.cores = resolve_cores(cores)
        self.records_only = records_only
        self.cost_cache = cost_cache

    def plan(self, trials: Sequence["Trial"]) -> ExecutionPlan:
        return plan_trials(trials, self.cores, self.cost_cache)

    def run(
        self, trials: Sequence["Trial"], on_done: Optional[OnDone] = None
    ) -> List[Pair]:
        cache = self.cost_cache
        if cache is None:
            finished = on_done
        else:
            by_name = {trial.name: trial for trial in trials}

            def finished(pair: Pair) -> None:
                cache.record(by_name[pair[0].name], pair[0].wall_seconds)
                if on_done is not None:
                    on_done(pair)

        try:
            return run_local(
                trials, self.cores, self.records_only, finished,
                queue=self.plan(trials).order,
            )
        finally:
            if cache is not None and trials:
                cache.save()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScheduledExecutor(cores={self.cores})"
