"""Declarative experiment campaigns: grids of runs, executors, tidy results.

This is the public high-level API of the reproduction.  A campaign expands a
{scheme x sweep x repeats} grid into named trials, runs them through a
pluggable executor — serial, a process pool, the resource-aware scheduler,
or a fault-tolerant distributed coordinator dispatching to remote
:class:`WorkerAgent` services — and returns a :class:`ResultSet` of tidy
per-trial records with aggregation helpers and JSONL persistence.  A run can
land in a :class:`Workspace`: one timestamped folder with the JSONL, cost
cache, collected artifacts, a provenance manifest and a Markdown report.
See :mod:`repro.campaign.core` for examples, ``docs/campaigns.md`` and
``docs/distributed.md`` for the guides.
"""

from .core import Campaign, Trial
from .distributed import (
    DistributedError,
    DistributedExecutor,
    WorkerAgent,
    WorkerClient,
    load_workers_file,
)
from .executors import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    WORKERS_ENV,
    default_workers,
    execute_trial,
    execute_trial_record_only,
    make_executor,
)
from .results import CampaignError, ResultSet, TrialRecord, summarize_result
from .scheduling import (
    CORES_ENV,
    CostCache,
    ExecutionPlan,
    PlannedTrial,
    ScheduledExecutor,
    detect_cores,
    estimate_cost,
    plan_trials,
    resolve_cores,
    trial_slots,
)
from .workspace import Workspace, render_report

__all__ = [
    "Campaign",
    "CampaignError",
    "Trial",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "ScheduledExecutor",
    "DistributedExecutor",
    "DistributedError",
    "WorkerAgent",
    "WorkerClient",
    "load_workers_file",
    "Workspace",
    "render_report",
    "WORKERS_ENV",
    "CORES_ENV",
    "default_workers",
    "detect_cores",
    "resolve_cores",
    "execute_trial",
    "execute_trial_record_only",
    "make_executor",
    "CostCache",
    "ExecutionPlan",
    "PlannedTrial",
    "plan_trials",
    "estimate_cost",
    "trial_slots",
    "ResultSet",
    "TrialRecord",
    "summarize_result",
]
