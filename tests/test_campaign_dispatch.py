"""Tests for local trial dispatch (repro.campaign.executors.run_local).

Local execution streams a campaign's trials through one process pool: a
trial starts as soon as enough CPU slots are free, and ``on_done`` fires in
the parent as each one finishes.  The load-bearing properties:

* the dispatch decision (:func:`next_dispatch`) never lets the running
  slots exceed the budget, runs an oversubscribed trial alone, dispatches
  every trial exactly once, and keeps the queue (longest-first) order among
  the trials that fit — checked against random queues and completion orders;
* one pool per call, none at a budget of one;
* a failure after the first completion leaves every finished trial on
  disk, the ones still running when it happened included;
* the persisted JSONL is byte-identical (wall clock aside) whether a
  campaign runs on the :class:`SerialExecutor` (input order), on the
  default single core (longest first, in process) or on ``cores=2``.
"""

import json
import multiprocessing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.campaign.executors as executors
from repro.campaign import (
    Campaign,
    PlannedTrial,
    ResultSet,
    ScheduledExecutor,
    SerialExecutor,
)
from repro.campaign.executors import next_dispatch, run_local

#: Short-but-real simulated duration (see tests/test_campaign_scheduling.py).
FAST_NS = 150_000

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="patched functions reach pool workers only through fork",
)


def _entry(index, requested, budget):
    return PlannedTrial(
        index=index,
        name=f"t{index}",
        slots=min(requested, budget),
        requested_slots=requested,
        cost=0.0,
        oversubscribed=requested > budget,
    )


def _fits(entry, free, running):
    if entry.oversubscribed:
        return not running
    return entry.slots <= free


# ---------------------------------------------------------------------------
# The dispatch decision
# ---------------------------------------------------------------------------


class TestNextDispatch:
    def test_first_fitting_entry_wins(self):
        queue = [_entry(0, 3, 4), _entry(1, 1, 4), _entry(2, 2, 4)]
        assert next_dispatch(queue, free=4, running=False) == 0
        assert next_dispatch(queue, free=2, running=True) == 1
        assert next_dispatch(queue, free=0, running=True) is None

    def test_oversubscribed_entry_waits_for_an_idle_machine(self):
        queue = [_entry(0, 5, 2), _entry(1, 1, 2)]
        assert queue[0].oversubscribed and queue[0].slots == 2
        # Something is running: skip the oversubscribed trial, backfill.
        assert next_dispatch(queue, free=1, running=True) == 1
        assert next_dispatch(queue[:1], free=1, running=True) is None
        assert next_dispatch(queue, free=2, running=False) == 0

    def test_empty_queue(self):
        assert next_dispatch([], free=3, running=False) is None

    @settings(max_examples=300, deadline=None)
    @given(
        budget=st.integers(1, 6),
        requested=st.lists(st.integers(1, 9), max_size=14),
        rng=st.randoms(use_true_random=False),
    )
    def test_random_queues_and_completion_orders(self, budget, requested, rng):
        queue = [_entry(i, r, budget) for i, r in enumerate(requested)]
        rng.shuffle(queue)  # any planner order
        waiting, running, dispatched = list(queue), [], []
        free = budget
        while waiting or running:
            position = next_dispatch(waiting, free, bool(running))
            while position is not None:
                # Queue order holds among the trials that fit: everything
                # ahead of the chosen entry had to wait.
                for earlier in waiting[:position]:
                    assert not _fits(earlier, free, bool(running))
                entry = waiting.pop(position)
                assert _fits(entry, free, bool(running))
                running.append(entry)
                dispatched.append(entry.index)
                free -= entry.slots
                assert sum(e.slots for e in running) <= budget
                if any(e.oversubscribed for e in running):
                    assert len(running) == 1
                position = next_dispatch(waiting, free, True)
            # None means nothing that is waiting fits right now ...
            assert not any(_fits(e, free, bool(running)) for e in waiting)
            # ... which can only happen while something runs (no deadlock).
            assert running
            done = running.pop(rng.randrange(len(running)))
            free += done.slots
        assert free == budget
        assert sorted(dispatched) == list(range(len(queue)))


# ---------------------------------------------------------------------------
# Pools and callbacks
# ---------------------------------------------------------------------------


def small_campaign(name="d", schemes=("BFC", "DCQCN", "HPCC")):
    return Campaign(name).schemes(*schemes).fixed(duration_ns=FAST_NS)


@pytest.fixture
def pool_count(monkeypatch):
    """Count the process pools run_local creates."""
    created = []

    class CountingPool(executors.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            created.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(executors, "ProcessPoolExecutor", CountingPool)
    return created


class TestPools:
    def test_one_pool_per_cores_2_run(self, tmp_path, pool_count):
        result = small_campaign().run(cores=2, save=tmp_path / "c.jsonl")
        assert len(result) == 3
        assert pool_count == [2]

    def test_no_pool_at_budget_one(self, tmp_path, pool_count):
        small_campaign().run(cores=1, save=tmp_path / "c.jsonl")
        small_campaign().run()
        assert pool_count == []

    def test_no_pool_for_a_single_trial(self, pool_count):
        small_campaign(schemes=("BFC",)).run(cores=2)
        assert pool_count == []

    def test_on_done_fires_in_the_parent_once_per_trial(self, pool_count):
        trials = small_campaign().trials()
        seen = []
        pairs = ScheduledExecutor(cores=2, records_only=True).run(
            trials, on_done=lambda pair: seen.append(pair[0].name)
        )
        assert pool_count == [2]
        assert sorted(seen) == sorted(t.name for t in trials)
        # The returned list is in input order whatever the finish order.
        assert [rec.name for rec, _ in pairs] == [t.name for t in trials]
        assert all(result is None for _, result in pairs)

    def test_serial_on_done_follows_the_queue(self):
        trials = small_campaign().trials()
        seen = []
        queue = [_entry(i, 1, 1) for i in (2, 0, 1)]
        pairs = run_local(
            trials, 1, records_only=True,
            on_done=lambda pair: seen.append(pair[0].name), queue=queue,
        )
        assert seen == [trials[i].name for i in (2, 0, 1)]
        assert [rec.name for rec, _ in pairs] == [t.name for t in trials]


def _fail_hpcc(original):
    def run_experiment(config, **kwargs):
        if config.scheme == "HPCC":
            raise RuntimeError("injected trial failure")
        return original(config, **kwargs)

    return run_experiment


@needs_fork
class TestFailureAfterFirstCompletion:
    def test_jsonl_holds_the_finished_records(self, tmp_path, monkeypatch):
        import repro.experiments.runner as runner

        # Equal costs keep input order: BFC and DCQCN start, HPCC only once
        # one of them has finished (and been persisted), then fails.  The
        # other one was still running: it is finished and persisted too
        # before the error surfaces.
        monkeypatch.setattr(
            runner, "run_experiment", _fail_hpcc(runner.run_experiment)
        )
        path = tmp_path / "c.jsonl"
        with pytest.raises(RuntimeError, match="injected trial failure"):
            small_campaign().run(cores=2, save=path)
        assert sorted(ResultSet.load(path).names()) == ["d/BFC", "d/DCQCN"]
        monkeypatch.undo()

        # The resume runs only what the interrupted run did not finish.
        resumed = small_campaign().run(cores=2, resume=path)
        assert len(resumed) == 3
        assert not list(tmp_path.glob(".*.tmp"))


# ---------------------------------------------------------------------------
# Byte identity across the local executors
# ---------------------------------------------------------------------------


def _canonical_lines(path):
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        payload = json.loads(line)
        payload.pop("wall_seconds", None)
        lines.append(json.dumps(payload, sort_keys=True))
    return lines


def test_jsonl_identical_across_serial_default_and_cores(tmp_path):
    """Eight trials of two lengths: the default run (one core) and the
    cores=2 queue run them longest first, and each pool worker runs several
    in sequence, yet the file is the input-order serial one, byte for byte,
    wall clock aside."""
    def campaign():
        return (
            Campaign("ident")
            .schemes("BFC", "DCQCN")
            .sweep(duration_ns=[FAST_NS, 2 * FAST_NS])
            .repeats(2)
        )

    trials = campaign().trials()
    assert len(trials) == 8
    paths = {
        "serial": tmp_path / "serial.jsonl",
        "default": tmp_path / "default.jsonl",
        "cores": tmp_path / "cores.jsonl",
    }
    campaign().run(executor=SerialExecutor(), save=paths["serial"])
    campaign().run(save=paths["default"])
    campaign().run(cores=2, save=paths["cores"])
    serial = _canonical_lines(paths["serial"])
    assert len(serial) == 9
    assert _canonical_lines(paths["default"]) == serial
    assert _canonical_lines(paths["cores"]) == serial

