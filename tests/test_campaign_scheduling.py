"""Tests for the resource-aware campaign scheduler (repro.campaign.scheduling).

The load-bearing properties:

* a plan never admits more concurrent slots than the core budget, and the
  executed campaign never has more live simulator processes than that
  (asserted with a fork-shared concurrency counter patched into
  ``Simulator.run``);
* planned execution is *measurement-invisible*: records are identical to a
  serial run of the same campaign, and the persisted JSONL is byte-identical
  up to wall-clock times;
* plans are deterministic, pack longest-first, honor measured costs from the
  cache, and degrade clearly when one trial's shards exceed the budget.
"""

import json
import multiprocessing
import time
from dataclasses import replace

import pytest

from repro.campaign import (
    Campaign,
    CampaignError,
    CostCache,
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


def grid_trials(durations, shards=None):
    """Unsharded trials whose relative cost is controlled via duration_ns."""
    campaign = Campaign("grid").schemes("BFC").sweep(duration_ns=list(durations))
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

    def test_wave_slots_never_exceed_budget(self):
        trials = grid_trials(
            [301, 101, 201, 202, 102, 302], shards=[1, 2, 1, 2, 1, 1]
        )
        for cores in (2, 3, 4):
            plan = plan_trials(trials, cores)
            assert plan.num_trials == len(trials)
            for wave in plan.waves:
                assert plan.wave_slots(wave) <= cores
            assert plan.max_live_processes() <= cores

    def test_lpt_packs_longest_first(self):
        # Costs are proportional to duration; FFD at 2 slots pairs the two
        # largest in wave 1 and the two smallest in wave 2.
        trials = grid_trials([400_000, 100_000, 300_000, 200_000])
        plan = plan_trials(trials, 2)
        names = [[e.name for e in wave] for wave in plan.waves]
        assert names == [
            ["grid/BFC/duration_ns=400000", "grid/BFC/duration_ns=300000"],
            ["grid/BFC/duration_ns=100000", "grid/BFC/duration_ns=200000"],
        ]

    def test_sharded_trial_counts_as_n_slots(self):
        # One shards=2 trial + two unsharded trials at 2 cores: the sharded
        # trial can never share a wave.
        trials = grid_trials([FAST_NS, FAST_NS + 1, FAST_NS + 2], shards=[2, 1, 1])
        plan = plan_trials(trials, 2)
        for wave in plan.waves:
            if any(e.requested_slots == 2 for e in wave):
                assert len(wave) == 1

    def test_budget_of_one_core_serializes_everything(self):
        trials = grid_trials([1, 2, 3, 4])
        plan = plan_trials(trials, 1)
        assert len(plan.waves) == len(trials)
        assert all(len(wave) == 1 for wave in plan.waves)

    def test_shards_beyond_budget_degrade_to_exclusive_wave(self):
        trials = grid_trials([FAST_NS, FAST_NS + 1], shards=[4, 1])
        plan = plan_trials(trials, 2)
        (entry,) = [e for wave in plan.waves for e in wave if e.requested_slots == 4]
        assert entry.oversubscribed
        assert entry.slots == 2  # charged at the whole budget
        (wave,) = [w for w in plan.waves if entry in w]
        assert len(wave) == 1  # nothing else runs beside it
        assert "oversubscribed" in plan.describe()

    def test_order_is_longest_first_over_every_wave(self):
        trials = grid_trials([100_000, 400_000, 200_000, 300_000, 250_000])
        plan = plan_trials(trials, 2)
        assert [e.index for e in plan.order] == [1, 3, 4, 2, 0]
        assert sorted(e.index for e in plan.order) == sorted(
            e.index for wave in plan.waves for e in wave
        )

    def test_plan_is_deterministic(self):
        # Same plan twice, including a mixed sharded/unsharded grid.
        trials = grid_trials(
            [500, 501, 502, 100, 101, 900], shards=[1, 2, 1, 1, 1, 2]
        )
        a = plan_trials(trials, 3)
        b = plan_trials(trials, 3)
        assert a.describe() == b.describe()
        assert [[e.index for e in w] for w in a.waves] == [
            [e.index for e in w] for w in b.waves
        ]

    def test_campaign_plan_skips_resumed_trials(self, tmp_path):
        target = tmp_path / "camp.jsonl"
        campaign = Campaign("camp").schemes("BFC", "DCQCN").fixed(duration_ns=FAST_NS)
        preview = campaign.plan(save=target)
        assert preview.cores == 1  # the same default as run()
        assert preview.num_trials == 2
        campaign.run(save=target)
        replay = Campaign("camp").schemes("BFC", "DCQCN").fixed(duration_ns=FAST_NS)
        plan = replay.plan(cores=2, resume=target)
        assert plan.num_trials == 0
        assert plan.waves == []
        # The default run measured both trials for the next plan.
        assert all(entry.measured for entry in replay.plan(save=target).order)


# ---------------------------------------------------------------------------
# The measured-cost cache
# ---------------------------------------------------------------------------


class TestCostCache:
    def test_round_trip(self, tmp_path):
        trials = grid_trials([100_000, 200_000])
        cache = CostCache(tmp_path / "costs.json")
        cache.record(trials[0], 1.25)
        cache.record(trials[1], 0.5)
        cache.save()
        reloaded = CostCache(tmp_path / "costs.json")
        assert len(reloaded) == 2
        assert reloaded.lookup(trials[0]) == 1.25
        assert reloaded.lookup(trials[1]) == 0.5

    def test_failed_save_keeps_the_previous_file(self, tmp_path, monkeypatch):
        import repro.campaign.scheduling as scheduling

        trials = grid_trials([100_000, 200_000])
        cache = CostCache(tmp_path / "c.costs.json")
        cache.record(trials[0], 1.5)
        cache.save()

        def explode(*args, **kwargs):
            raise OSError("disk full")

        cache.record(trials[1], 2.5)
        monkeypatch.setattr(scheduling.json, "dumps", explode)
        with pytest.raises(OSError, match="disk full"):
            cache.save()
        monkeypatch.undo()
        reloaded = CostCache(tmp_path / "c.costs.json")
        assert len(reloaded) == 1
        assert reloaded.lookup(trials[0]) == 1.5
        assert [p.name for p in tmp_path.iterdir()] == ["c.costs.json"]

    def test_identity_includes_params_and_seed(self, tmp_path):
        (a,) = grid_trials([100_000])
        cache = CostCache(tmp_path / "costs.json")
        cache.record(a, 2.0)
        import dataclasses

        reseeded = dataclasses.replace(a, seed=a.seed + 1)
        assert cache.lookup(reseeded) is None

    @pytest.mark.parametrize(
        "content",
        [
            "{not json",                      # unparsable
            '{"costs": []}',                  # wrong structure
            '{"costs": "x"}',                 # wrong structure
            '[1, 2, 3]',                      # wrong top-level type
            '{"costs": {"k": "fast"}}',       # non-numeric value dropped
        ],
    )
    def test_corrupt_cache_degrades_to_estimates(self, tmp_path, content):
        path = tmp_path / "costs.json"
        path.write_text(content, encoding="utf-8")
        cache = CostCache(path)
        assert len(cache) == 0
        (a,) = grid_trials([100_000])
        assert cache.lookup(a) is None

    def test_measured_costs_override_estimate_order(self, tmp_path):
        # By estimate, the 400k-ns trial is the longest.  Measurements say
        # the 100k one actually dominates; LPT must follow the measurements.
        trials = grid_trials([400_000, 100_000, 200_000])
        cache = CostCache(tmp_path / "costs.json")
        cache.record(trials[0], 0.1)
        cache.record(trials[1], 9.0)
        cache.record(trials[2], 1.0)
        plan = plan_trials(trials, 1, cache)
        assert plan.cost_unit == "s"
        assert [wave[0].name for wave in plan.waves] == [
            trials[1].name, trials[2].name, trials[0].name,
        ]
        assert all(wave[0].measured for wave in plan.waves)

    def test_unmeasured_estimates_are_calibrated_into_seconds(self, tmp_path):
        trials = grid_trials([100_000, 200_000])
        cache = CostCache(tmp_path / "costs.json")
        cache.record(trials[0], 2.0)  # measured/estimate ratio known
        plan = plan_trials(trials, 2, cache)
        by_name = {e.name: e for wave in plan.waves for e in wave}
        measured = by_name[trials[0].name]
        estimated = by_name[trials[1].name]
        assert measured.measured and not estimated.measured
        # The 200k trial costs 2x the measured 100k trial after calibration.
        assert estimated.cost == pytest.approx(2 * measured.cost)

    def test_run_with_cores_and_save_populates_cache(self, tmp_path):
        target = tmp_path / "camp.jsonl"
        campaign = Campaign("camp").schemes("BFC").fixed(duration_ns=FAST_NS)
        campaign.run(cores=1, save=target)
        cache = CostCache.for_results_file(target)
        assert cache.path == tmp_path / "camp.costs.json"
        assert len(cache) == 1
        (trial,) = Campaign("camp").schemes("BFC").fixed(duration_ns=FAST_NS).trials()
        assert cache.lookup(trial) is not None
        assert cache.lookup(trial) > 0


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
        assert payload["num_trials"] == 2
        names = [t["name"] for w in payload["waves"] for t in w["trials"]]
        assert sorted(names) == sorted(t.name for t in trials)
        sharded = [
            t for w in payload["waves"] for t in w["trials"] if t["slots"] == 2
        ]
        assert len(sharded) == 1 and not sharded[0]["oversubscribed"]


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

    def test_records_only_mode_keeps_results_out(self):
        result_set = mixed_campaign("lean").run(cores=2, keep_results=False)
        assert len(result_set) == 4
        assert not result_set.has_experiment_results()

    def test_resume_after_interrupt_shaped_file(self, tmp_path):
        # A file holding only the first wave's records (as an interrupted
        # run would leave) resumes to the full campaign.
        target = tmp_path / "partial.jsonl"
        full = mixed_campaign("resume").run(cores=2, save=target)
        lines = target.read_text(encoding="utf-8").splitlines()
        target.write_text("\n".join(lines[:3]) + "\n", encoding="utf-8")
        resumed = mixed_campaign("resume").run(cores=2, resume=target)
        assert resumed == full
        assert len(resumed) == 4
