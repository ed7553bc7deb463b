"""Tests for the campaign layer: grid expansion, executors, results, registry."""

import json

import pytest

from repro.campaign import (
    Campaign,
    ResultSet,
    ScheduledExecutor,
    SerialExecutor,
    TrialRecord,
    make_executor,
)
from repro.campaign.executors import Executor
from repro.experiments.runner import ExperimentConfig
from repro.experiments.schemes import (
    SCHEMES,
    DuplicateSchemeError,
    UnknownSchemeError,
    get_scheme,
    register_scheme,
    unregister_scheme,
)
from repro.experiments.scenarios import fig5a_configs, fig8_configs


# ---------------------------------------------------------------------------
# Grid expansion
# ---------------------------------------------------------------------------


class TestCampaignExpansion:
    def test_grid_is_schemes_x_sweep_x_repeats(self):
        campaign = (
            Campaign("grid")
            .schemes("BFC", "DCQCN")
            .sweep(load=[0.6, 0.8])
            .repeats(3)
        )
        trials = campaign.trials()
        assert len(trials) == 2 * 2 * 3
        assert len({t.name for t in trials}) == len(trials)

    def test_trial_names_encode_scheme_sweep_and_repeat(self):
        trials = (
            Campaign("fig5a")
            .schemes("BFC")
            .sweep(load=[0.6])
            .repeats(2)
            .trials()
        )
        assert [t.name for t in trials] == [
            "fig5a/BFC/load=0.6/rep0",
            "fig5a/BFC/load=0.6/rep1",
        ]

    def test_single_repeat_omits_rep_suffix(self):
        (trial,) = Campaign("c").schemes("BFC").sweep(load=[0.6]).trials()
        assert trial.name == "c/BFC/load=0.6"

    def test_seeds_derived_per_repeat_shared_across_schemes(self):
        # Schemes of the same repeat must see the same seed (same workload),
        # while repeats differ.
        trials = (
            Campaign("c").schemes("BFC", "DCQCN").repeats(2).seeds(base=7).trials()
        )
        by_repeat = {}
        for trial in trials:
            by_repeat.setdefault(trial.repeat, set()).add(trial.seed)
        assert by_repeat == {0: {7}, 1: {8}}

    def test_explicit_seed_list_pins_repeats(self):
        trials = Campaign("c").schemes("BFC").seeds(11, 12, 13).trials()
        assert [t.seed for t in trials] == [11, 12, 13]
        assert [t.repeat for t in trials] == [0, 1, 2]

    def test_seeds_rejects_both_forms(self):
        with pytest.raises(ValueError):
            Campaign("c").seeds(1, 2, base=5)

    def test_seed_list_shorter_than_repeats_is_a_clear_error(self):
        # seeds() pins the repeat count to the list ...
        assert len(Campaign("c").schemes("BFC").repeats(3).seeds(11).trials()) == 1
        # ... and a later repeats() call that outgrows the list fails loudly.
        campaign = Campaign("c").schemes("BFC").seeds(11, 12).repeats(5)
        with pytest.raises(ValueError, match="explicit seed"):
            campaign.trials()

    def test_params_reach_the_config(self):
        (trial,) = (
            Campaign("c", workload="fb_hadoop")
            .schemes("DCQCN")
            .sweep(load=[0.8])
            .fixed(incast=0.0, pfc_enabled=False)
            .trials()
        )
        config = trial.config
        assert isinstance(config, ExperimentConfig)
        assert config.scheme == "DCQCN"
        assert config.traffic.workload.target_load == 0.8
        assert config.traffic.incast_load is None  # incast=0 disables it
        assert not config.pfc_enabled
        assert config.seed == trial.seed == config.traffic.seed

    def test_unknown_parameter_is_rejected(self):
        campaign = Campaign("c").schemes("BFC").sweep(frobnicate=[1, 2])
        with pytest.raises(ValueError, match="frobnicate"):
            campaign.trials()

    def test_duplicate_sweep_values_are_rejected(self):
        campaign = Campaign("c").schemes("BFC").sweep(load=[0.3, 0.3])
        with pytest.raises(ValueError, match="duplicate trial name"):
            campaign.trials()

    def test_custom_builder_configs_are_fingerprinted(self):
        from repro.experiments.scenarios import _background_traffic, _base_config, get_scale
        from repro.workloads.distributions import WORKLOADS

        def builder(campaign, scheme, params, seed, name):
            scale = get_scale(params["scale_name"])
            traffic = _background_traffic(scale, WORKLOADS["google"], 0.3, seed=seed)
            return _base_config(name, scheme, scale, traffic, seed=seed)

        def build(scale_name):
            return (
                Campaign("cb")
                .schemes("BFC")
                .fixed(scale_name=scale_name)
                .config_builder(builder)
                .trials()
            )

        (tiny,) = build("tiny")
        (small,) = build("small")
        # Same name/seed; the fingerprint must expose the different configs
        # so resume does not replay one scale's records as the other's.
        assert tiny.name == small.name
        assert tiny.params["config"] != small.params["config"]

    def test_builder_defaults_are_recorded_in_trial_params(self):
        # scale/workload become part of every record's identity, so resuming
        # a save file under a different scale or workload re-runs the trials.
        (trial,) = Campaign("c", scale="tiny", workload="fb_hadoop").schemes("BFC").trials()
        assert trial.params["scale"] == "tiny"
        assert trial.params["workload"] == "fb_hadoop"

    def test_campaign_managed_fields_are_rejected_as_params(self):
        with pytest.raises(ValueError, match="managed by the campaign"):
            Campaign("c").schemes("BFC").fixed(seed=7).trials()

    def test_any_remaining_config_field_is_overridable(self):
        (trial,) = (
            Campaign("c").schemes("BFC").fixed(incast=0.0, buffer_bytes=12_345).trials()
        )
        assert trial.config.buffer_bytes == 12_345

    def test_unknown_scheme_fails_fast(self):
        with pytest.raises(KeyError, match="available"):
            Campaign("c").schemes("NotAScheme")

    def test_no_schemes_is_an_error(self):
        with pytest.raises(ValueError, match="schemes"):
            Campaign("c").trials()

    def test_empty_sweep_axis_is_an_error(self):
        with pytest.raises(ValueError, match="no values"):
            Campaign("c").schemes("BFC").sweep(load=[])

    def test_from_configs_keeps_labels_and_configs(self):
        configs = fig5a_configs("tiny", schemes=["BFC", "DCQCN"])
        trials = Campaign.from_configs("fig5a", configs).trials()
        assert [t.label for t in trials] == ["BFC", "DCQCN"]
        assert [t.name for t in trials] == ["fig5a/BFC", "fig5a/DCQCN"]
        # Default seeding runs the configs verbatim (only the name is stamped).
        assert trials[0].config.traffic is configs["BFC"].traffic
        assert trials[0].seed == configs["BFC"].seed

    def test_from_configs_fingerprints_the_configs_for_resume_identity(self):
        tiny = Campaign.from_configs("f", fig5a_configs("tiny", schemes=["BFC"]))
        small = Campaign.from_configs("f", fig5a_configs("small", schemes=["BFC"]))
        (t_tiny,) = tiny.trials()
        (t_small,) = small.trials()
        # Same name/seed, different wrapped config: identity must differ ...
        assert t_tiny.name == t_small.name
        assert t_tiny.params["config"] != t_small.params["config"]
        # ... and be stable across re-expansion (it feeds resume skipping).
        (t_tiny2,) = Campaign.from_configs(
            "f", fig5a_configs("tiny", schemes=["BFC"])
        ).trials()
        assert t_tiny.params["config"] == t_tiny2.params["config"]

    def test_grid_methods_on_prebuilt_configs_fail_loudly(self):
        configs = fig5a_configs("tiny", schemes=["BFC"])
        campaign = Campaign.from_configs("fig5a", configs).sweep(load=[0.6, 0.8])
        with pytest.raises(ValueError, match="prebuilt configs"):
            campaign.trials()
        # Builder knobs are equally inert on prebuilt configs and must not
        # silently pretend to change the scale or workload.
        scaled = Campaign.from_configs("fig5a", configs).scale("paper")
        with pytest.raises(ValueError, match="prebuilt configs"):
            scaled.trials()

    def test_from_configs_flattens_nested_maps(self):
        configs = fig8_configs("tiny", schemes=("BFC",))
        trials = Campaign.from_configs("fig8", configs).trials()
        assert all(t.label.startswith("BFC/") for t in trials)
        assert len(trials) == len(configs["BFC"])

    def test_from_configs_base_seed_reseeds_even_at_one_repeat(self):
        configs = fig5a_configs("tiny", schemes=["BFC"])
        (trial,) = Campaign.from_configs("fig5a", configs).seeds(base=99).trials()
        assert trial.seed == 99
        assert trial.config.seed == 99
        assert trial.config.traffic.seed == 99

    def test_from_configs_repeats_reseed_the_traffic(self):
        configs = fig5a_configs("tiny", schemes=["BFC"])
        trials = Campaign.from_configs("fig5a", configs).repeats(2).seeds(base=5).trials()
        assert [t.name for t in trials] == ["fig5a/BFC/rep0", "fig5a/BFC/rep1"]
        assert [t.seed for t in trials] == [5, 6]
        for trial in trials:
            assert trial.config.seed == trial.seed
            assert trial.config.traffic.seed == trial.seed

    def test_figure_repeats_honor_the_caller_seed(self):
        from repro.experiments.scenarios import fig5a_campaign

        trials = fig5a_campaign("tiny", schemes=["BFC"], seed=7, repeats=2).trials()
        assert [t.seed for t in trials] == [7, 8]
        assert all(t.config.traffic.seed == t.seed for t in trials)

    def test_figure_repeats_resample_explicit_flows(self):
        # fig9 bakes pre-generated flow lists into its configs; the factory
        # form must rebuild them per repeat, not replay one trace.
        from repro.experiments.figures import FIGURES

        trials = FIGURES["fig9"].campaign("tiny", schemes=("BFC",), repeats=2).trials()
        rep0, rep1 = (t.config.traffic.explicit_flows for t in trials)
        assert [(f.size, f.start_ns) for f in rep0] != [
            (f.size, f.start_ns) for f in rep1
        ]


# ---------------------------------------------------------------------------
# ResultSet: round-trip, aggregation, resume
# ---------------------------------------------------------------------------


def _record(name, scheme, load, repeat=0, seed=1, p99=2.0, wall=1.0):
    return TrialRecord(
        name=name,
        label=name.split("/", 1)[1],
        scheme=scheme,
        # Mirror what a real grid campaign records: swept params plus the
        # baked-in builder defaults (part of resume identity).
        params={"load": load, "scale": "tiny", "workload": "google"},
        repeat=repeat,
        seed=seed,
        metrics={"p99_slowdown": p99, "completion_rate": 1.0},
        wall_seconds=wall,
    )


class TestResultSet:
    def test_save_handles_non_json_params(self, tmp_path):
        from repro.core.config import BfcConfig

        rec = _record("c/BFC/load=0.6", "BFC", 0.6)
        rec.params["bfc_config"] = BfcConfig(mtu=1000)
        path = ResultSet([rec], campaign="c").save(tmp_path / "c.jsonl")
        (reloaded,) = ResultSet.load(path).records
        assert reloaded.params["bfc_config"].startswith("BfcConfig(")

    def test_jsonl_round_trip(self, tmp_path):
        original = ResultSet(
            [
                _record("c/BFC/load=0.6", "BFC", 0.6, p99=2.5),
                _record("c/DCQCN/load=0.6", "DCQCN", 0.6, p99=9.0),
            ],
            campaign="c",
        )
        path = original.save(tmp_path / "campaign.jsonl")
        reloaded = ResultSet.load(path)
        assert reloaded == original
        assert reloaded.campaign == "c"
        assert not reloaded.has_experiment_results()

    def test_jsonl_is_one_record_per_line(self, tmp_path):
        rs = ResultSet([_record("c/BFC/load=0.6", "BFC", 0.6)], campaign="c")
        path = rs.save(tmp_path / "out.jsonl")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2  # header + one record
        assert json.loads(lines[0])["campaign"] == "c"
        assert json.loads(lines[1])["name"] == "c/BFC/load=0.6"

    def test_failed_save_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "c.jsonl"
        before = ResultSet(
            [_record("c/x", "BFC", 0.6), _record("c/y", "BFC", 0.8)], campaign="c"
        )
        before.save(path)

        def explode(self):
            raise OSError("disk full")

        # The header is written, then the first record fails to serialize.
        monkeypatch.setattr(TrialRecord, "to_dict", explode)
        with pytest.raises(OSError, match="disk full"):
            ResultSet([_record("c/z", "BFC", 0.9)], campaign="c").save(path)
        monkeypatch.undo()
        assert ResultSet.load(path) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl"]

    def test_equality_ignores_wall_clock_and_order(self):
        a = ResultSet([_record("c/x", "BFC", 0.6, wall=1.0), _record("c/y", "BFC", 0.8, wall=2.0)])
        b = ResultSet([_record("c/y", "BFC", 0.8, wall=9.0), _record("c/x", "BFC", 0.6, wall=5.0)])
        assert a == b

    def test_aggregate_by_scheme_and_param(self):
        rs = ResultSet(
            [
                _record("c/BFC/load=0.6/rep0", "BFC", 0.6, repeat=0, p99=2.0),
                _record("c/BFC/load=0.6/rep1", "BFC", 0.6, repeat=1, p99=4.0),
                _record("c/DCQCN/load=0.6/rep0", "DCQCN", 0.6, repeat=0, p99=10.0),
            ]
        )
        assert rs.p99_slowdown_by("scheme", "load") == {
            ("BFC", 0.6): 3.0,
            ("DCQCN", 0.6): 10.0,
        }
        assert rs.p99_slowdown_by("scheme") == {"BFC": 3.0, "DCQCN": 10.0}

    def test_filter_and_record_lookup(self):
        rs = ResultSet(
            [
                _record("c/BFC/load=0.6", "BFC", 0.6),
                _record("c/BFC/load=0.8", "BFC", 0.8),
            ]
        )
        assert rs.filter(load=0.8).names() == ["c/BFC/load=0.8"]
        assert rs.record("c/BFC/load=0.6").params["load"] == 0.6
        assert rs.records[0].get("wall_seconds") == 1.0
        with pytest.raises(KeyError):
            rs.record("c/nope")
        with pytest.raises(KeyError, match="metric"):
            rs.records[0].get("nonexistent")

    def test_results_by_label_rejects_duplicate_labels(self):
        a = _record("A/BFC/load=0.6", "BFC", 0.6)
        b = _record("B/BFC/load=0.6", "BFC", 0.6)
        rs = ResultSet([a, b], results={a.name: object(), b.name: object()})
        with pytest.raises(KeyError, match="not unique"):
            rs.experiment_results_by_label()
        assert len(rs.experiment_results()) == 2  # name-keyed access still works

    def test_merge_prefers_newer_records(self):
        old = ResultSet([_record("c/x", "BFC", 0.6, p99=1.0)])
        new = ResultSet([_record("c/x", "BFC", 0.6, p99=2.0), _record("c/y", "BFC", 0.8)])
        merged = old.merge(new)
        assert len(merged) == 2
        assert merged.record("c/x").metrics["p99_slowdown"] == 2.0


def _fake_pair(trial):
    record = TrialRecord(
        name=trial.name, label=trial.label, scheme=trial.scheme,
        params=dict(trial.params), repeat=trial.repeat, seed=trial.seed,
        metrics={"p99_slowdown": 1.0},
    )
    return record, None


class _RecordingExecutor(Executor):
    """Executes nothing; remembers which trials it was asked to run."""

    def __init__(self):
        self.seen = []

    def run(self, trials, on_done=None):
        self.seen.extend(trials)
        pairs = []
        for trial in trials:
            pairs.append(_fake_pair(trial))
            if on_done is not None:
                on_done(pairs[-1])
        return pairs


class _DiesAfterFirstTrial(Executor):
    """Finishes the first trial it is handed, then dies mid-campaign."""

    def run(self, trials, on_done=None):
        on_done(_fake_pair(trials[0]))
        raise RuntimeError("killed mid-campaign")


class TestResume:
    def test_resume_skips_recorded_trials(self, tmp_path):
        campaign = Campaign("c").schemes("BFC", "DCQCN").sweep(load=[0.6])
        path = tmp_path / "c.jsonl"

        first = _RecordingExecutor()
        campaign.run(executor=first, save=path)
        assert len(first.seen) == 2
        assert path.exists()

        second = _RecordingExecutor()
        result = campaign.run(executor=second, resume=path)
        assert second.seen == []  # everything already recorded
        assert len(result) == 2

    def test_narrower_resume_keeps_stale_history_on_disk(self, tmp_path):
        path = tmp_path / "c.jsonl"
        wide = Campaign("c").schemes("BFC").sweep(load=[0.3, 0.4])
        wide.run(executor=_RecordingExecutor(), save=path)

        narrow = Campaign("c").schemes("BFC").sweep(load=[0.3])
        result = narrow.run(executor=_RecordingExecutor(), resume=path)
        # The returned set describes only the narrow campaign ...
        assert result.names() == ["c/BFC/load=0.3"]
        # ... but the file still holds the load=0.4 record for later resumes.
        assert sorted(ResultSet.load(path).names()) == [
            "c/BFC/load=0.3",
            "c/BFC/load=0.4",
        ]

    def test_save_is_incremental_per_trial(self, tmp_path):
        path = tmp_path / "c.jsonl"
        campaign = Campaign("c").schemes("BFC", "DCQCN").sweep(load=[0.6])
        with pytest.raises(RuntimeError):
            # The first trial completes and must be persisted before the
            # executor dies on the second.
            campaign.run(executor=_DiesAfterFirstTrial(), save=path)
        assert ResultSet.load(path).names() == ["c/BFC/load=0.6"]

        # A resume after the interruption only runs what is missing.
        executor = _RecordingExecutor()
        result = campaign.run(executor=executor, resume=path)
        assert [t.name for t in executor.seen] == ["c/DCQCN/load=0.6"]
        assert len(result) == 2

    def test_resume_with_a_different_seed_reruns_the_trials(self, tmp_path):
        path = tmp_path / "c.jsonl"
        campaign = Campaign("c").schemes("BFC").sweep(load=[0.6])
        campaign.run(executor=_RecordingExecutor(), save=path)

        reseeded = Campaign("c").schemes("BFC").sweep(load=[0.6]).seeds(base=2)
        executor = _RecordingExecutor()
        result = reseeded.run(executor=executor, resume=path)
        # Same trial names, different seed: the stale records must not be
        # replayed as if they were the requested campaign.
        assert [t.seed for t in executor.seen] == [2]
        assert len(result) == 1
        assert result.record("c/BFC/load=0.6").seed == 2
        # The same-name seed-1 record is superseded on disk (names stay
        # unique per file so reloaded aggregates never blend two runs).
        assert [rec.seed for rec in ResultSet.load(path)] == [2]

    def test_interrupted_reseeded_resume_keeps_unreplaced_history(self, tmp_path):
        path = tmp_path / "c.jsonl"
        campaign = Campaign("c").schemes("BFC", "DCQCN").sweep(load=[0.6])
        campaign.run(executor=_RecordingExecutor(), save=path)

        reseeded = Campaign("c").schemes("BFC", "DCQCN").sweep(load=[0.6]).seeds(base=2)
        with pytest.raises(RuntimeError):
            reseeded.run(executor=_DiesAfterFirstTrial(), resume=path)
        # The BFC trial re-ran under seed 2; the DCQCN trial was never
        # reached, so its seed-1 record must still be on disk.
        by_name = {rec.name: rec.seed for rec in ResultSet.load(path)}
        assert by_name == {"c/BFC/load=0.6": 2, "c/DCQCN/load=0.6": 1}

    def test_resume_with_different_fixed_params_reruns_the_trials(self, tmp_path):
        path = tmp_path / "c.jsonl"
        base = Campaign("c").schemes("BFC").sweep(load=[0.6]).fixed(workload="google")
        base.run(executor=_RecordingExecutor(), save=path)

        changed = Campaign("c").schemes("BFC").sweep(load=[0.6]).fixed(workload="fb_hadoop")
        executor = _RecordingExecutor()
        changed.run(executor=executor, resume=path)
        # Same trial name (fixed params are not in the label), different
        # workload: the stale google record must not satisfy the resume.
        assert [t.params["workload"] for t in executor.seen] == ["fb_hadoop"]

    def test_resume_drops_records_that_match_no_current_trial(self, tmp_path):
        path = tmp_path / "c.jsonl"
        one_repeat = Campaign("c").schemes("BFC").sweep(load=[0.6])
        one_repeat.run(executor=_RecordingExecutor(), save=path)

        # Growing to 2 repeats renames the trials (".../rep0", ".../rep1");
        # the stale rep-less record must not survive into the merged set,
        # where it would double-count seed 1 in aggregates.
        two_repeats = Campaign("c").schemes("BFC").sweep(load=[0.6]).repeats(2)
        result = two_repeats.run(executor=_RecordingExecutor(), resume=path)
        assert sorted(result.names()) == [
            "c/BFC/load=0.6/rep0",
            "c/BFC/load=0.6/rep1",
        ]

    def test_resume_runs_only_missing_trials(self, tmp_path):
        path = tmp_path / "c.jsonl"
        ResultSet([_record("c/BFC/load=0.6", "BFC", 0.6)], campaign="c").save(path)

        campaign = Campaign("c").schemes("BFC", "DCQCN").sweep(load=[0.6])
        executor = _RecordingExecutor()
        result = campaign.run(executor=executor, resume=path)
        assert [t.name for t in executor.seen] == ["c/DCQCN/load=0.6"]
        assert len(result) == 2
        # The merged set was persisted back to the resume file.
        assert len(ResultSet.load(path)) == 2


# ---------------------------------------------------------------------------
# Scheme registry
# ---------------------------------------------------------------------------


class TestSchemeRegistry:
    def test_register_scheme_decorator_plugs_in(self):
        base = get_scheme("DCQCN")
        try:

            @register_scheme("UnitTestScheme", description="a plug-in scheme")
            def _unit_test_scheme():
                return base.make_switch, base.make_host

            spec = get_scheme("UnitTestScheme")
            assert spec.name == "UnitTestScheme"
            assert spec.description == "a plug-in scheme"
            assert "UnitTestScheme" in SCHEMES
            # A campaign accepts the plug-in like any built-in scheme.
            Campaign("c").schemes("UnitTestScheme")
        finally:
            unregister_scheme("UnitTestScheme")
        assert "UnitTestScheme" not in SCHEMES

    def test_duplicate_registration_is_rejected(self):
        base = get_scheme("DCQCN")
        with pytest.raises(DuplicateSchemeError):

            @register_scheme("DCQCN")
            def _clashing_scheme():
                return base.make_switch, base.make_host

    def test_aliasing_a_builtin_spec_does_not_mutate_it(self):
        try:

            @register_scheme("DcqcnAlias", description="alias")
            def _alias_scheme():
                return get_scheme("DCQCN")  # returns the registered spec itself

            assert get_scheme("DcqcnAlias").name == "DcqcnAlias"
            # The built-in registration must be untouched.
            assert get_scheme("DCQCN").name == "DCQCN"
            assert get_scheme("DCQCN").description.startswith("ECN-based")
        finally:
            unregister_scheme("DcqcnAlias")

    def test_override_replaces_existing_scheme(self):
        base = get_scheme("DCQCN")
        original = SCHEMES["BFC"]
        try:

            @register_scheme("BFC", description="patched", override=True)
            def _patched_bfc():
                return base.make_switch, base.make_host

            assert get_scheme("BFC").description == "patched"
        finally:
            SCHEMES["BFC"] = original

    def test_builder_must_return_spec_or_pair(self):
        with pytest.raises(TypeError, match="make_switch"):

            @register_scheme("BrokenScheme")
            def _broken_scheme():
                return None

        assert "BrokenScheme" not in SCHEMES

    def test_unknown_scheme_error_type_and_message(self):
        with pytest.raises(UnknownSchemeError, match="available"):
            get_scheme("NotAScheme")
        assert issubclass(UnknownSchemeError, KeyError)


# ---------------------------------------------------------------------------
# Executors: determinism and selection
# ---------------------------------------------------------------------------


class TestExecutors:
    def test_make_executor_resolution(self):
        default = make_executor()
        assert isinstance(default, ScheduledExecutor)
        assert default.cores == 1
        parallel = make_executor(None, 3)
        assert isinstance(parallel, ScheduledExecutor)
        assert parallel.cores == 3
        custom = SerialExecutor()
        assert make_executor(custom) is custom

    def test_make_executor_applies_records_only_without_mutating_caller(self):
        custom = SerialExecutor()
        resolved = make_executor(custom, None, records_only=True)
        assert resolved is not custom
        assert resolved.records_only
        assert not custom.records_only

    def test_make_executor_rejects_explicit_bad_core_count(self):
        with pytest.raises(ValueError, match="cores"):
            make_executor(None, 0)
        with pytest.raises(ValueError, match="cores"):
            Campaign("c").schemes("BFC").run(cores=-4)

    def test_default_is_one_core_whatever_the_environment(self, monkeypatch):
        # Only an explicit cores="auto" consults REPRO_CORES; the default
        # run is serial on every machine.
        monkeypatch.setenv("REPRO_CORES", "3")
        assert make_executor().cores == 1
        assert make_executor(cores="auto").cores == 3

    def test_keep_results_false_drops_full_results_but_keeps_records(self):
        campaign = Campaign("lean").schemes("BFC").sweep(load=[0.3]).fixed(incast=0.0)
        result_set = campaign.run(keep_results=False)
        assert len(result_set) == 1
        assert result_set.records[0].metrics["completion_rate"] > 0.9
        assert not result_set.has_experiment_results()
        with pytest.raises(KeyError, match="records only"):
            result_set.experiment_result("lean/BFC/load=0.3")
        # The label map refuses to return a partial/empty view silently.
        with pytest.raises(KeyError, match="not kept"):
            result_set.experiment_results_by_label()

    def test_keep_results_false_applies_to_explicit_executors_too(self):
        campaign = Campaign("lean2").schemes("BFC").sweep(load=[0.3]).fixed(incast=0.0)
        result_set = campaign.run(executor=SerialExecutor(), keep_results=False)
        assert len(result_set) == 1
        assert not result_set.has_experiment_results()

    def test_serial_and_parallel_results_are_identical(self):
        # The acceptance bar for the campaign layer: same seeds => the
        # process-pool path reproduces the serial records bit for bit.
        campaign = (
            Campaign("det")
            .schemes("BFC", "DCQCN")
            .sweep(load=[0.3])
            .fixed(incast=0.0)
        )
        serial = campaign.run(executor=SerialExecutor())
        parallel = campaign.run(cores=2)
        assert serial == parallel
        for name in serial.names():
            assert serial.record(name).metrics == parallel.record(name).metrics
        # Both paths retain the full per-trial experiment results.
        assert set(serial.experiment_results_by_label()) == set(
            parallel.experiment_results_by_label()
        )
        result = serial.experiment_result("det/BFC/load=0.3")
        assert result.flow_stats.completion_rate() > 0.9
