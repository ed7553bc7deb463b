"""Resource-aware campaign scheduling: pack trials onto a core budget.

``ParallelExecutor(workers=W)`` treats every trial as one unit of work, but a
sharded trial (``ExperimentConfig(shards=N)``) occupies *N* simulator
processes while it runs.  Naively fanning a mixed campaign out over ``W``
workers therefore puts up to ``W x N`` simulator processes on ``C`` CPUs,
and the resulting time-slicing wastes exactly the cache locality the shard
runtime's conservative windows depend on.

This module plans instead of guessing:

* every :class:`~repro.campaign.core.Trial` is introspected for its
  **resource footprint** — ``slots`` (the number of simultaneously live
  simulator processes it needs, i.e. ``max(1, config.shards)``) and an
  **estimated cost** (topology size x simulated duration, optionally
  replaced by a measured wall-clock cost cached from a previous run);
* :func:`plan_trials` packs the trials onto a core budget with
  longest-processing-time-first ordering, producing an
  :class:`ExecutionPlan` of *waves*: groups of trials that run
  concurrently, with the guarantee that the sum of slots in a wave never
  exceeds the budget;
* :class:`ScheduledExecutor` executes the plan wave by wave through the same
  process-pool machinery as :class:`~repro.campaign.executors.ParallelExecutor`,
  so records stay bit-identical to a serial run.

A trial whose ``shards`` exceed the whole budget cannot fit any wave; it is
*degraded gracefully*: it runs alone in an exclusive wave (nothing else
concurrent) with its full shard count, and the plan marks it
``oversubscribed``.  Rewriting ``shards=N`` to ``shards=1`` would also be
record-preserving for the *canonical* records, but it changes the
``events_processed`` metric of the trial record, so the planner never does
it silently.

Entry points: ``Campaign.run(cores=...)``, ``Campaign.plan(cores=...)``, and
the CLI's ``--cores`` / ``--dry-run`` flags.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from .executors import (
    Executor,
    _run_pool,
    execute_trial,
    execute_trial_record_only,
)
from .results import CampaignError, TrialRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import ExperimentConfig, ExperimentResult

    from .core import Trial

#: Environment variable consulted by ``cores="auto"``.
CORES_ENV = "REPRO_CORES"


def detect_cores() -> int:
    """The machine's core budget: ``REPRO_CORES`` if set, else the CPU count.

    ``REPRO_CORES`` exists for containers whose ``os.cpu_count()`` reports
    the host's cores rather than the container's quota, and for CI runners
    that want a pinned, reproducible plan.
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
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"kind": "repro.campaign.costcache", "version": 1, "costs": self._costs}
        self.path.write_text(
            json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8"
        )
        return self.path


# ---------------------------------------------------------------------------
# The plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlannedTrial:
    """One trial's placement in an :class:`ExecutionPlan`."""

    index: int  #: position in the planned trial list
    name: str
    slots: int  #: concurrent slots charged against the budget (capped at cores)
    requested_slots: int  #: the trial's true footprint (``max(1, shards)``)
    cost: float  #: packing cost (seconds when measured/calibrated, else relative)
    measured: bool  #: True when the cost came from the :class:`CostCache`
    oversubscribed: bool  #: ``requested_slots > cores``: runs alone, time-sliced


@dataclass
class ExecutionPlan:
    """Waves of concurrently-runnable trials under a core budget.

    Waves execute one after the other with a barrier in between (which is
    also where an interrupted campaign persists its finished records); within
    a wave every trial runs concurrently, and the wave's slot total never
    exceeds ``cores`` — so at no instant do more than ``cores`` simulator
    processes exist, except for an explicitly ``oversubscribed`` trial whose
    own shard count is larger than the whole budget.
    """

    cores: int
    waves: List[List[PlannedTrial]] = field(default_factory=list)
    cost_unit: str = "rel"  #: "s" when costs are measured/calibrated seconds

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
    return ExecutionPlan(cores=budget, waves=waves, cost_unit=cost_unit)


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


def _execute_planned(item) -> Tuple[TrialRecord, Optional["ExperimentResult"]]:
    """Run one planned trial (module-level so process pools can pickle it)."""
    trial, slot_budget, records_only = item
    fn = execute_trial_record_only if records_only else execute_trial
    return fn(trial, slot_budget=slot_budget)


class ScheduledExecutor(Executor):
    """Run trials wave by wave according to a resource-aware plan.

    Guarantees of the planned path, relative to
    :class:`~repro.campaign.executors.ParallelExecutor`:

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
    """

    def __init__(
        self,
        cores: Union[int, str, None] = "auto",
        records_only: bool = False,
        cost_cache: Optional[CostCache] = None,
    ) -> None:
        self.cores = resolve_cores(cores)
        self.workers = self.cores
        self.records_only = records_only
        self.cost_cache = cost_cache
        #: Wave entries keyed by ``id()`` of the batch lists :meth:`batches`
        #: handed out, so :meth:`run` executes a planned wave as-is instead
        #: of re-planning it (identity of the trials is re-verified before
        #: use, so a recycled list id cannot misfire).
        self._planned_batches: Dict[int, List[Tuple["Trial", Optional[int]]]] = {}

    def plan(self, trials: Sequence["Trial"]) -> ExecutionPlan:
        return plan_trials(trials, self.cores, self.cost_cache)

    @staticmethod
    def _wave_entries(trials, wave) -> List[Tuple["Trial", Optional[int]]]:
        # The slot budget is only meaningful to a sharded trial's
        # coordinator; plain trials always occupy exactly one slot.
        return [
            (trials[e.index], e.slots if e.requested_slots > 1 else None)
            for e in wave
        ]

    def batches(self, trials: Sequence["Trial"]) -> List[List["Trial"]]:
        """Persistence batches = plan waves (see :meth:`Executor.batches`).

        The wave structure is remembered, so feeding a returned batch back
        into :meth:`run` (as ``Campaign.run`` does) executes exactly that
        wave — one pool, no re-planning.
        """
        self._planned_batches.clear()
        out: List[List["Trial"]] = []
        for wave in self.plan(trials).waves:
            batch = [trials[entry.index] for entry in wave]
            out.append(batch)
            self._planned_batches[id(batch)] = self._wave_entries(trials, wave)
        return out

    def _execute_wave(
        self, entries: List[Tuple["Trial", Optional[int]]]
    ) -> List[Tuple[TrialRecord, Optional["ExperimentResult"]]]:
        items = [
            (trial, budget, self.records_only) for trial, budget in entries
        ]
        if len(items) == 1:
            pairs = [_execute_planned(items[0])]
        else:
            pairs = _run_pool(_execute_planned, items, len(items))
        if self.cost_cache is not None:
            for (trial, _), pair in zip(entries, pairs):
                self.cost_cache.record(trial, pair[0].wall_seconds)
            self.cost_cache.save()
        return pairs

    def run(
        self, trials: Sequence["Trial"]
    ) -> List[Tuple[TrialRecord, Optional["ExperimentResult"]]]:
        cached = self._planned_batches.pop(id(trials), None)
        if (
            cached is not None
            and len(cached) == len(trials)
            and all(entry[0] is trial for entry, trial in zip(cached, trials))
        ):
            return self._execute_wave(cached)
        plan = self.plan(trials)
        results: List[Optional[Tuple[TrialRecord, Optional["ExperimentResult"]]]] = [
            None
        ] * len(trials)
        for wave in plan.waves:
            pairs = self._execute_wave(self._wave_entries(trials, wave))
            for entry, pair in zip(wave, pairs):
                results[entry.index] = pair
        return results  # type: ignore[return-value]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScheduledExecutor(cores={self.cores})"
