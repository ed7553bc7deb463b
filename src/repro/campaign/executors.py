"""Trial executors: run a list of trials serially or across processes.

The trials of a campaign are independent (each builds its own
:class:`Simulator` from its own seed), so a campaign is embarrassingly
parallel.  Local execution lives in one place, :func:`run_local`: one
fork-preferred :class:`concurrent.futures.ProcessPoolExecutor` per call,
trials submitted as CPU slots free up, and a callback per finished trial.
``SerialExecutor`` is its budget of one in input order (no pool), and the
resource-aware :class:`~repro.campaign.scheduling.ScheduledExecutor`
(``Campaign.run(cores=...)``, serial by default) feeds it the planner's
longest-first queue with a sharded trial charged ``shards`` slots.
:class:`~repro.campaign.distributed.DistributedExecutor` streams the same
order across machines with fault-tolerant dispatch to worker agents.
All three run trials through :func:`execute_trial`, and every trial is
deterministic in its config and seed, which is what makes their records
interchangeable.
"""

from __future__ import annotations

import copy
import multiprocessing
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from .results import CampaignError, TrialRecord, summarize_result

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import ExperimentResult

    from .core import Trial

#: What an executor hands back per trial: its record and full result
#: (``None`` in records-only mode).
Pair = Tuple[TrialRecord, Optional["ExperimentResult"]]
#: Per-trial completion callback of :meth:`Executor.run`.
OnDone = Callable[[Pair], None]

def execute_trial(
    trial: "Trial", slot_budget: Optional[int] = None
) -> Tuple[TrialRecord, "ExperimentResult"]:
    """Run one trial and summarize it (module-level so process pools can pickle it).

    ``slot_budget`` is the number of CPU slots the scheduling layer reserved
    for this trial (see :mod:`repro.campaign.scheduling`); it is forwarded to
    :func:`~repro.experiments.runner.run_experiment`, where a sharded run's
    coordinator records it.  It never changes what is simulated.
    """
    from repro.experiments.runner import run_experiment

    started = time.monotonic()
    result = run_experiment(trial.config, slot_budget=slot_budget)
    record = TrialRecord(
        name=trial.name,
        label=trial.label,
        scheme=trial.scheme,
        params=dict(trial.params),
        repeat=trial.repeat,
        seed=trial.seed,
        metrics=summarize_result(result),
        wall_seconds=time.monotonic() - started,
        artifacts=(
            {"results_dir": result.results_ref} if result.results_ref else {}
        ),
    )
    return record, result


def execute_trial_record_only(
    trial: "Trial", slot_budget: Optional[int] = None
) -> Tuple[TrialRecord, None]:
    """Like :func:`execute_trial` but drop the full result inside the worker.

    The complete :class:`ExperimentResult` (per-flow records, sampler arrays)
    can dwarf the tidy record; for record-only consumers this keeps it out of
    the process-pool pipe and out of resident memory.
    """
    record, _ = execute_trial(trial, slot_budget=slot_budget)
    return record, None


@dataclass(frozen=True)
class PlannedTrial:
    """One trial's place in a dispatch queue."""

    index: int  #: position in the planned trial list
    name: str
    slots: int  #: concurrent slots charged against the budget (capped at cores)
    requested_slots: int  #: the trial's true footprint (``max(1, shards)``)
    cost: float  #: relative cost estimate (the longest-first sort key)
    oversubscribed: bool  #: ``requested_slots > cores``: runs alone, time-sliced


def slot_budget(entry: PlannedTrial) -> Optional[int]:
    """The CPU slots a planned trial runs with, as every executor hands them.

    Only a sharded trial's coordinator has a use for its budget, so a
    one-slot trial gets ``None``.
    """
    return entry.slots if entry.requested_slots > 1 else None


def next_dispatch(
    queue: Sequence[PlannedTrial], free: int, running: bool
) -> Optional[int]:
    """Position in ``queue`` of the trial to start next, or None to wait.

    The first queued trial that fits the ``free`` slots starts, so the queue
    order (longest first, from the planner) holds among the trials that fit.
    An oversubscribed trial fits only when nothing is ``running``; it holds
    the whole budget while it runs, so nothing joins it.
    """
    for position, entry in enumerate(queue):
        if entry.oversubscribed:
            if not running:
                return position
        elif entry.slots <= free:
            return position
    return None


def run_local(
    trials: Sequence["Trial"],
    budget: int,
    records_only: bool = False,
    on_done: Optional[OnDone] = None,
    queue: Optional[Sequence[PlannedTrial]] = None,
) -> List[Pair]:
    """Run ``trials`` on at most ``budget`` local CPU slots.

    ``queue`` is the dispatch order, one :class:`PlannedTrial` per trial
    (default: input order, one slot each).  With a budget of one, or a
    single trial, everything runs in this process with no pool.  Otherwise
    one fork-preferred process pool serves the whole call: whenever slots
    free up, :func:`next_dispatch` picks the next trial to submit, so the
    slots of the running trials never sum past ``budget``.  ``on_done(pair)``
    is called in this process as each trial finishes; the returned list is
    in input order.
    """
    if queue is None:
        queue = [
            PlannedTrial(i, t.name, 1, 1, 0.0, False)
            for i, t in enumerate(trials)
        ]
    fn = execute_trial_record_only if records_only else execute_trial
    results: List[Optional[Pair]] = [None] * len(trials)

    def finish(entry: PlannedTrial, pair: Pair) -> None:
        results[entry.index] = pair
        if on_done is not None:
            on_done(pair)

    if budget <= 1 or len(queue) <= 1:
        for entry in queue:
            finish(entry, fn(trials[entry.index], slot_budget=slot_budget(entry)))
        return results  # type: ignore[return-value]
    waiting = list(queue)
    running: Dict[Future, PlannedTrial] = {}
    free = budget
    error: Optional[BaseException] = None
    fork = "fork" in multiprocessing.get_all_start_methods()
    with ProcessPoolExecutor(
        max_workers=min(budget, len(queue)),
        # fork, so schemes registered at run time reach the workers.
        mp_context=multiprocessing.get_context("fork") if fork else None,
    ) as pool:
        while running or (waiting and error is None):
            # After a trial fails nothing new starts, but the trials still
            # running are finished (and reported) before the error surfaces.
            position = None
            if error is None:
                position = next_dispatch(waiting, free, bool(running))
            while position is not None:
                entry = waiting.pop(position)
                free -= entry.slots
                future = pool.submit(
                    fn, trials[entry.index], slot_budget=slot_budget(entry)
                )
                running[future] = entry
                position = next_dispatch(waiting, free, True)
            finished, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in finished:
                entry = running.pop(future)
                free += entry.slots
                if future.exception() is not None:
                    error = error or future.exception()
                else:
                    finish(entry, future.result())
    if error is not None:
        raise error
    return results  # type: ignore[return-value]


class Executor:
    """Strategy for running the trials of a campaign.

    Subclasses implement ``run(trials, on_done=None)`` and must preserve
    trial order and determinism: the returned list is parallel to the input
    and contains, for each trial, its record and full experiment result
    (``None`` with ``records_only``, which skips materializing the result
    past the worker).  ``on_done(pair)`` is called in the calling thread as
    each trial finishes, which is where ``Campaign.run`` persists.
    """

    records_only: bool = False

    def run(
        self, trials: Sequence["Trial"], on_done: Optional[OnDone] = None
    ) -> List[Pair]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class SerialExecutor(Executor):
    """Run trials one after the other in this process."""

    def __init__(self, records_only: bool = False) -> None:
        self.records_only = records_only

    def run(
        self, trials: Sequence["Trial"], on_done: Optional[OnDone] = None
    ) -> List[Pair]:
        return run_local(trials, 1, self.records_only, on_done)


def make_executor(
    executor: Optional[Executor] = None,
    cores=None,
    records_only: bool = False,
) -> Executor:
    """Resolve the executor for ``Campaign.run(executor=..., cores=...)``.

    An explicit ``executor`` is used as given; otherwise the resource-aware
    :class:`~repro.campaign.scheduling.ScheduledExecutor` runs the trials on
    ``cores`` CPU slots (an int or ``"auto"``; ``None`` means one, in this
    process).  Passing both is ambiguous and rejected.
    """
    if executor is not None and cores is not None:
        raise CampaignError("pass executor=... or cores=..., not both")
    if executor is not None:
        if records_only and not executor.records_only:
            # Honor keep_results=False without mutating the caller's executor.
            executor = copy.copy(executor)
            executor.records_only = True
        return executor
    from .scheduling import ScheduledExecutor

    return ScheduledExecutor(
        1 if cores is None else cores, records_only=records_only
    )
