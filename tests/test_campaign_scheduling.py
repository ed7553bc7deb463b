"""Tests for the resource-aware campaign scheduler (repro.campaign.scheduling).

The load-bearing properties:

* a plan never admits more concurrent slots than the core budget, and the
  executed campaign never has more live simulator processes than that
  (asserted with a fork-shared concurrency counter patched into
  ``Simulator.run``);
* planned execution is *measurement-invisible*: records are identical to a
  serial run of the same campaign, and the persisted JSONL is byte-identical
  up to wall-clock times;
* plans are deterministic, order longest-first, and degrade clearly when
  one trial's shards exceed the budget.
"""

import json
import multiprocessing
import time
from dataclasses import replace

import pytest

from repro.campaign import (
    Campaign,
    CampaignError,
    ScheduledExecutor,
    SerialExecutor,
    make_executor,
    plan_trials,
    resolve_cores,
    trial_slots,
)
import repro.campaign.scheduling as scheduling
from repro.campaign.scheduling import detect_cores, estimate_cost
from repro.experiments.scenarios import fig9_configs

#: Short-but-real simulated duration: a tiny-scale trial at 150 us runs in a
#: fraction of a second while still exercising the full pipeline.
FAST_NS = 150_000


def cross_dc_trial(campaign, scheme, params, seed, name):
    """Config builder: the tiny fig9 cross-DC run, which shards one per DC."""
    config = fig9_configs("tiny", schemes=(scheme,), seed=seed)[scheme]
    return replace(config, name=name, **params)


def mixed_campaign(name="mix"):
    """Per scheme, one unsharded and one sharded (shards=2) cross-DC trial."""
    return (
        Campaign(name)
        .schemes("BFC", "DCQCN")
        .sweep(shards=[1, 2])
        .config_builder(cross_dc_trial)
    )


def grid_trials(durations, shards=None, schemes=("BFC",)):
    """Trials whose relative cost is controlled via duration_ns.

    Trials are scheme-major; schemes sharing a duration share its cost.
    """
    campaign = Campaign("grid").schemes(*schemes).sweep(duration_ns=list(durations))
    trials = campaign.trials()
    if shards:
        import dataclasses

        trials = [
            dataclasses.replace(t, config=dataclasses.replace(t.config, shards=n))
            for t, n in zip(trials, shards)
        ]
    return trials


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


class TestPlanning:
    def test_cores_resolution(self, monkeypatch):
        assert resolve_cores(3) == 3
        monkeypatch.setenv("REPRO_CORES", "5")
        assert resolve_cores("auto") == 5
        assert resolve_cores(None) == 5
        assert detect_cores() == 5
        monkeypatch.setenv("REPRO_CORES", "zero")
        with pytest.raises(CampaignError, match="REPRO_CORES"):
            detect_cores()
        monkeypatch.delenv("REPRO_CORES")
        assert detect_cores() >= 1
        with pytest.raises(CampaignError):
            resolve_cores(0)
        with pytest.raises(CampaignError):
            resolve_cores("many")

    def test_auto_cores_follow_the_affinity_set(self, monkeypatch):
        monkeypatch.delenv("REPRO_CORES", raising=False)
        monkeypatch.setattr(scheduling.os, "cpu_count", lambda: 8)
        # Pinned to one CPU (taskset -c 0) on an 8-CPU machine.
        monkeypatch.setattr(
            scheduling.os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        assert detect_cores() == 1
        assert resolve_cores("auto") == 1
        monkeypatch.setenv("REPRO_CORES", "3")
        assert detect_cores() == 3  # the override still wins
        monkeypatch.delenv("REPRO_CORES")
        # Platforms without an affinity call fall back to the CPU count.
        monkeypatch.delattr(scheduling.os, "sched_getaffinity")
        assert detect_cores() == 8

    def test_slots_follow_shards(self):
        trials = grid_trials([FAST_NS, FAST_NS + 1], shards=[1, 4])
        assert [trial_slots(t) for t in trials] == [1, 4]

    def test_estimate_scales_with_topology_and_duration(self):
        small, big = grid_trials([100_000, 400_000])
        assert estimate_cost(big.config) == 4 * estimate_cost(small.config)

    def test_shards_reserve_slots_without_changing_the_estimate(self):
        (single,) = grid_trials([FAST_NS])
        (sharded,) = grid_trials([FAST_NS], shards=[4])
        assert (trial_slots(single), trial_slots(sharded)) == (1, 4)
        assert estimate_cost(sharded.config) == estimate_cost(single.config)

    def test_order_is_longest_first(self):
        trials = grid_trials([100_000, 400_000, 200_000, 300_000, 250_000])
        plan = plan_trials(trials, 2)
        assert [e.index for e in plan.order] == [1, 3, 4, 2, 0]
        assert [e.name for e in plan.order][:2] == [
            "grid/BFC/duration_ns=400000", "grid/BFC/duration_ns=300000",
        ]

    def test_sharded_trial_counts_as_n_slots(self):
        trials = grid_trials([FAST_NS, FAST_NS + 1, FAST_NS + 2], shards=[2, 1, 1])
        plan = plan_trials(trials, 2)
        by_index = {e.index: e for e in plan.order}
        assert [by_index[i].slots for i in range(3)] == [2, 1, 1]
        assert not plan.oversubscribed()

    def test_budget_of_one_core_orders_every_trial(self):
        trials = grid_trials([1, 2, 3, 4])
        plan = plan_trials(trials, 1)
        assert [e.index for e in plan.order] == [3, 2, 1, 0]
        assert all(e.slots == 1 for e in plan.order)

    def test_shards_beyond_budget_are_marked_oversubscribed(self):
        trials = grid_trials([FAST_NS, FAST_NS + 1], shards=[4, 1])
        plan = plan_trials(trials, 2)
        (entry,) = plan.oversubscribed()
        assert entry.requested_slots == 4
        assert entry.slots == 2  # charged at the whole budget
        assert "oversubscribed" in plan.describe()

    def test_equal_costs_keep_input_order(self):
        trials = grid_trials([FAST_NS], schemes=("BFC", "DCQCN", "HPCC", "PFC"))
        plan = plan_trials(trials, 2)
        assert len({e.cost for e in plan.order}) == 1
        assert [e.index for e in plan.order] == [0, 1, 2, 3]
        assert [e.name for e in plan.order] == [t.name for t in trials]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_order_is_a_longest_first_permutation(self, seed):
        # Random grids with ties, sharded trials and too-wide trials: every
        # trial appears once, sorted by (-cost, input position), charged
        # min(shards, cores) slots and marked oversubscribed iff too wide.
        import random

        rng = random.Random(seed)
        durations = rng.sample(range(100_000, 400_000, 10_000), rng.randint(2, 5))
        count = 2 * len(durations)  # two schemes: every cost is tied once
        shards = [rng.choice([1, 1, 2, 4]) for _ in range(count)]
        trials = grid_trials(durations, shards=shards, schemes=("BFC", "DCQCN"))
        cores = rng.randint(1, 3)
        plan = plan_trials(trials, cores)
        assert sorted(e.index for e in plan.order) == list(range(count))
        keys = [(-e.cost, e.index) for e in plan.order]
        assert keys == sorted(keys)
        for entry in plan.order:
            assert entry.name == trials[entry.index].name
            assert entry.requested_slots == shards[entry.index]
            assert entry.slots == min(shards[entry.index], cores)
            assert entry.oversubscribed == (shards[entry.index] > cores)

    def test_describe_and_to_dict_list_the_same_order(self):
        trials = grid_trials([100_000, 300_000, 200_000])
        plan = plan_trials(trials, 1)
        text = plan.describe()
        assert text.splitlines()[0] == (
            "plan: 3 trial(s) on 1 core(s), longest first"
        )
        numbered = [line.split()[1] for line in text.splitlines()[1:]]
        assert numbered == [t["name"] for t in plan.to_dict()["order"]]
        assert numbered == [e.name for e in plan.order]

    def test_plan_is_deterministic(self):
        # Same plan twice, including a mixed sharded/unsharded grid.
        trials = grid_trials(
            [500, 501, 502, 100, 101, 900], shards=[1, 2, 1, 1, 1, 2]
        )
        a = plan_trials(trials, 3)
        b = plan_trials(trials, 3)
        assert a.describe() == b.describe()
        assert a.order == b.order

    def test_campaign_plan_skips_resumed_trials(self, tmp_path):
        target = tmp_path / "camp.jsonl"
        campaign = Campaign("camp").schemes("BFC", "DCQCN").fixed(duration_ns=FAST_NS)
        preview = campaign.plan()
        assert preview.cores == 1  # the same default as run()
        assert len(preview.order) == 2
        campaign.run(save=target)
        replay = Campaign("camp").schemes("BFC", "DCQCN").fixed(duration_ns=FAST_NS)
        plan = replay.plan(cores=2, resume=target)
        assert plan.order == []


# ---------------------------------------------------------------------------
# Executor resolution
# ---------------------------------------------------------------------------


class TestExecutorResolution:
    def test_cores_selects_scheduled_executor(self):
        executor = make_executor(cores=2)
        assert isinstance(executor, ScheduledExecutor)
        assert executor.cores == 2

    def test_executor_and_cores_conflict(self):
        with pytest.raises(CampaignError, match="not both"):
            make_executor(executor=SerialExecutor(), cores=2)

    def test_campaign_run_rejects_executor_plus_cores(self):
        campaign = Campaign("c").schemes("BFC")
        with pytest.raises(CampaignError, match="not both"):
            campaign.run(executor=SerialExecutor(), cores=2)

    def test_plan_to_dict_round_trips_through_json(self):
        trials = grid_trials([200_000, 100_000], shards=[2, 1])
        plan = plan_trials(trials, 2)
        payload = json.loads(json.dumps(plan.to_dict()))
        assert payload["cores"] == 2
        assert [t["name"] for t in payload["order"]] == [t.name for t in trials]
        assert [t["slots"] for t in payload["order"]] == [2, 1]
        assert not any(t["oversubscribed"] for t in payload["order"])


# ---------------------------------------------------------------------------
# Execution: identity with serial runs, and the live-process cap
# ---------------------------------------------------------------------------


def _canonical_records(result_set):
    """Record dicts with wall-clock removed: the byte-identity currency."""
    rows = []
    for record in sorted(result_set, key=lambda r: r.name):
        payload = record.to_dict()
        payload.pop("wall_seconds")
        rows.append(json.dumps(payload, sort_keys=True, default=str))
    return rows


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the concurrency probe relies on fork-inherited shared memory",
)
class TestScheduledExecution:
    def test_mixed_campaign_caps_live_processes_and_matches_serial(
        self, tmp_path, monkeypatch
    ):
        """The acceptance property: a campaign mixing sharded (N=2) and
        unsharded trials under cores=2 never has more than 2 live simulator
        processes, and its records equal the serial run's byte for byte.
        """
        from repro.sim.engine import Simulator

        ctx = multiprocessing.get_context("fork")
        lock = ctx.Lock()
        current = ctx.Value("i", 0, lock=False)
        peak = ctx.Value("i", 0, lock=False)
        held = ctx.Value("i", 0, lock=False)
        original_run = Simulator.run

        def counting_run(self, *args, **kwargs):
            with lock:
                current.value += 1
                if current.value > peak.value:
                    peak.value = current.value
                hold = not held.value
                held.value = 1
            # The first live run waits (bounded) for a second one to start,
            # so two concurrent simulator processes are seen however briefly
            # each one runs.
            if hold:
                deadline = time.monotonic() + 30.0
                while peak.value < 2 and time.monotonic() < deadline:
                    time.sleep(0.001)
            try:
                return original_run(self, *args, **kwargs)
            finally:
                with lock:
                    current.value -= 1

        monkeypatch.setattr(Simulator, "run", counting_run)
        scheduled = mixed_campaign().run(
            cores=2, save=tmp_path / "scheduled.jsonl"
        )
        monkeypatch.setattr(Simulator, "run", original_run)
        assert peak.value >= 2  # the probe actually saw concurrency
        assert peak.value <= 2  # ... and never more than the budget

        serial = mixed_campaign().run(
            executor=SerialExecutor(), save=tmp_path / "serial.jsonl"
        )
        assert _canonical_records(scheduled) == _canonical_records(serial)
        # The persisted JSONL files are line-for-line identical too, wall
        # clock aside: planning reorders when trials run, not what they
        # compute nor how the results are written.
        def canonical_lines(path):
            lines = []
            for line in path.read_text(encoding="utf-8").splitlines():
                payload = json.loads(line)
                payload.pop("wall_seconds", None)
                lines.append(json.dumps(payload, sort_keys=True))
            return lines

        assert canonical_lines(tmp_path / "scheduled.jsonl") == canonical_lines(
            tmp_path / "serial.jsonl"
        )

    def test_sharded_coordinator_reports_its_slot_budget(self):
        result_set = mixed_campaign("handshake").run(cores=2)
        sharded = result_set.experiment_result("handshake/DCQCN/shards=2")
        assert sharded.shard_stats["slot_budget"] == 2
        assert sharded.shard_stats["oversubscribed"] is False
        unsharded = result_set.experiment_result("handshake/DCQCN/shards=1")
        assert unsharded.shard_stats is None

    def test_oversubscribed_trial_still_runs_and_says_so(self):
        from repro.experiments.runner import run_experiment

        campaign = (
            Campaign("tight").schemes("BFC").fixed(shards=2)
            .config_builder(cross_dc_trial)
        )
        (trial,) = campaign.trials()
        result = run_experiment(trial.config, slot_budget=1)
        assert result.shard_stats["slot_budget"] == 1
        assert result.shard_stats["oversubscribed"] is True

    def test_one_core_runs_the_plan_order_in_process(self):
        trials = grid_trials([100_000, 300_000, 200_000])
        executor = ScheduledExecutor(cores=1)
        done = []
        pairs = executor.run(trials, lambda pair: done.append(pair[0].name))
        assert done == [e.name for e in executor.plan(trials).order]
        assert [record.name for record, _ in pairs] == [t.name for t in trials]
        assert all(result is not None for _, result in pairs)

    def test_records_only_mode_keeps_results_out(self):
        result_set = mixed_campaign("lean").run(cores=2, keep_results=False)
        assert len(result_set) == 4
        assert not result_set.has_experiment_results()

    def test_resume_after_interrupt_shaped_file(self, tmp_path):
        # A file holding only some of the records (as an interrupted run
        # would leave) resumes to the full campaign.
        target = tmp_path / "partial.jsonl"
        full = mixed_campaign("resume").run(cores=2, save=target)
        lines = target.read_text(encoding="utf-8").splitlines()
        target.write_text("\n".join(lines[:3]) + "\n", encoding="utf-8")
        resumed = mixed_campaign("resume").run(cores=2, resume=target)
        assert resumed == full
        assert len(resumed) == 4
