"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import build_parser, main
from repro.experiments import scenarios
from repro.experiments.figures import FIGURES
from repro.experiments.schemes import available_schemes

from tests.test_shard_determinism import assert_shard_stats_schema


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheme", "NotAScheme"])

    def test_rejects_unknown_scale(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scale", "huge"])

    def test_figure_names_match_registry(self):
        args = build_parser().parse_args(["figure", "fig5a"])
        assert args.name == "fig5a"
        assert "fig5a" in FIGURES
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_campaign_parses_sweep_axes(self):
        args = build_parser().parse_args(
            ["campaign", "mysweep", "--schemes", "BFC", "DCQCN",
             "--load", "0.6", "0.8", "--repeats", "2", "--cores", "4"]
        )
        assert args.name == "mysweep"
        assert args.schemes == ["BFC", "DCQCN"]
        assert args.load == [0.6, 0.8]
        assert args.repeats == 2
        assert args.cores == 4

    def test_sweep_is_an_alias_for_campaign(self):
        args = build_parser().parse_args(["sweep", "--schemes", "BFC"])
        assert args.command == "sweep"
        assert args.schemes == ["BFC"]

    def test_worker_serve_has_no_slots_flag(self):
        # A worker runs one trial at a time; there is no slot count to set.
        args = build_parser().parse_args(
            ["worker", "serve", "--port", "0", "--token", "t"]
        )
        assert (args.port, args.token) == (0, "t")
        assert not hasattr(args, "slots")
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker", "serve", "--slots", "4"])

    def test_campaign_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--schemes", "NotAScheme"])

    def test_campaign_bad_input_is_a_clean_error_not_a_traceback(self, capsys):
        code, _ = run_cli(["campaign", "--schemes", "BFC", "--load", "0.6", "0.6"])
        assert code == 2
        err = capsys.readouterr().err
        assert "duplicate trial name" in err
        assert "Traceback" not in err


class TestInformationalCommands:
    def test_schemes_lists_everything(self):
        code, output = run_cli(["schemes"])
        assert code == 0
        for scheme in available_schemes():
            assert scheme in output

    def test_workloads_table(self):
        code, output = run_cli(["workloads"])
        assert code == 0
        for name in ("Google", "FB_Hadoop", "WebSearch"):
            assert name in output
        assert "BDP" in output


class TestRunCommand:
    def test_run_text_output(self):
        code, output = run_cli(
            ["run", "--scheme", "BFC", "--scale", "tiny", "--load", "0.3",
             "--incast", "0", "--seed", "2"]
        )
        assert code == 0
        assert "p99_slowdown" in output
        assert "flow size" in output

    def test_run_json_output(self):
        code, output = run_cli(
            ["run", "--scheme", "DCQCN+Win", "--scale", "tiny", "--load", "0.3",
             "--incast", "0", "--json"]
        )
        assert code == 0
        payload = json.loads(output)
        assert payload["scheme"] == "DCQCN+Win"
        assert payload["completion_rate"] > 0.8
        assert payload["flows_offered"] > 0

    def test_run_different_workload(self):
        code, output = run_cli(
            ["run", "--scheme", "BFC", "--workload", "fb_hadoop", "--load", "0.3",
             "--incast", "0", "--json"]
        )
        assert code == 0
        assert json.loads(output)["dropped_packets"] == 0


class TestOpenLoopAndAnalyze:
    def test_openloop_spills_and_analyze_reads_back(self, tmp_path):
        results_dir = str(tmp_path / "spill")
        code, output = run_cli(
            ["openloop", "--scheme", "DCQCN", "--flows", "300",
             "--seed", "3", "--results-dir", results_dir, "--json"]
        )
        assert code == 0
        payload = json.loads(output)
        assert payload["flows_offered"] == 300
        assert payload["results_dir"].startswith(results_dir)

        code, output = run_cli(["analyze", payload["results_dir"], "--json"])
        assert code == 0
        analyzed = json.loads(output)
        assert analyzed["flows_offered"] == 300
        assert analyzed["scheme"] == "DCQCN"
        assert any(point["count"] > 0 for point in analyzed["slowdown_series"])

    def test_openloop_in_memory_text_output(self):
        code, output = run_cli(
            ["openloop", "--scheme", "DCQCN", "--flows", "200", "--seed", "2"]
        )
        assert code == 0
        assert "flows offered" in output
        assert "p99_slowdown" in output
        assert "results_dir" not in output

    def test_analyze_text_table(self, tmp_path):
        results_dir = str(tmp_path / "spill")
        code, payload_text = run_cli(
            ["openloop", "--scheme", "DCQCN", "--flows", "200",
             "--results-dir", results_dir, "--json"]
        )
        assert code == 0
        run_dir = json.loads(payload_text)["results_dir"]
        code, output = run_cli(["analyze", run_dir])
        assert code == 0
        assert "flow size" in output
        assert "completion_rate" in output


class TestCampaignCommand:
    def test_campaign_json_records(self):
        code, output = run_cli(
            ["campaign", "clitest", "--schemes", "BFC", "--load", "0.3",
             "--incast", "0", "--json"]
        )
        assert code == 0
        records = json.loads(output)
        assert [r["name"] for r in records] == ["clitest/BFC/load=0.3"]
        assert records[0]["scheme"] == "BFC"
        assert records[0]["metrics"]["completion_rate"] > 0.8

    def test_campaign_text_table_and_save(self, tmp_path):
        path = tmp_path / "records.jsonl"
        code, output = run_cli(
            ["campaign", "--schemes", "BFC", "--load", "0.3", "--incast", "0",
             "--save", str(path)]
        )
        assert code == 0
        assert "p99 FCT slowdown by scheme and load" in output
        assert path.exists()
        from repro.campaign import ResultSet

        assert len(ResultSet.load(path)) == 1

    def test_campaign_dry_run_prints_plan_and_runs_nothing(self, tmp_path):
        path = tmp_path / "records.jsonl"
        code, output = run_cli(
            ["campaign", "--schemes", "BFC", "DCQCN", "--load", "0.6", "0.8",
             "--cores", "2", "--dry-run", "--save", str(path)]
        )
        assert code == 0
        assert "4 trial(s) on 2 core(s)" in output
        assert "longest first" in output
        assert not path.exists()  # nothing simulated, nothing written

    def test_campaign_dry_run_leaves_the_workspace_empty(self, tmp_path):
        workspace = tmp_path / "ws"
        workspace.mkdir()
        code, output = run_cli(
            ["campaign", "dry", "--schemes", "BFC", "--load", "0.6",
             "--dry-run", "--workspace", str(workspace)]
        )
        assert code == 0
        assert "1 trial(s) on 1 core(s)" in output
        assert list(workspace.iterdir()) == []  # no run folder for a preview

    def test_campaign_cores_runs_and_reports_cores(self, tmp_path):
        path = tmp_path / "records.jsonl"
        code, output = run_cli(
            ["campaign", "--schemes", "BFC", "--load", "0.3", "--incast", "0",
             "--cores", "2", "--save", str(path)]
        )
        assert code == 0
        assert "cores=2" in output
        assert path.exists()

    @pytest.mark.parametrize("command", ["campaign", "figure fig5a", "compare"])
    def test_workers_flag_is_gone(self, command):
        # --cores is the one parallelism flag.  --workers-file (the
        # distributed roster) stays, and "--workers" must not abbreviate it.
        with pytest.raises(SystemExit):
            build_parser().parse_args(command.split() + ["--workers", "2"])
        args = build_parser().parse_args(command.split() + ["--cores", "2"])
        assert args.cores == 2

    def test_campaign_dry_run_numbers_the_dispatch_order(self):
        code, output = run_cli(
            ["campaign", "--schemes", "BFC", "DCQCN", "--load", "0.6",
             "--dry-run"]
        )
        assert code == 0
        lines = output.splitlines()
        assert "2 trial(s) on 1 core(s)" in lines[0]
        assert lines[1].split()[:2] == ["1.", "campaign/BFC/load=0.6"]
        assert lines[2].split()[:2] == ["2.", "campaign/DCQCN/load=0.6"]

    def test_campaign_dry_run_json_is_machine_readable(self):
        code, output = run_cli(
            ["campaign", "--schemes", "BFC", "DCQCN", "--load", "0.6",
             "--cores", "2", "--dry-run", "--json"]
        )
        assert code == 0
        plan = json.loads(output)
        assert plan["cores"] == 2
        assert [t["name"] for t in plan["order"]] == [
            "campaign/BFC/load=0.6", "campaign/DCQCN/load=0.6",
        ]
        assert all(t["slots"] <= 2 for t in plan["order"])

    def test_dry_run_without_cores_previews_the_serial_default(self):
        code, output = run_cli(
            ["campaign", "--schemes", "BFC", "DCQCN", "--dry-run", "--json"]
        )
        assert code == 0
        plan = json.loads(output)
        assert plan["cores"] == 1
        assert len(plan["order"]) == 2
        assert all(t["slots"] == 1 for t in plan["order"])

    def test_cores_flag_validates(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--cores", "lots"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--cores", "0"])
        args = build_parser().parse_args(["campaign", "--cores", "auto"])
        assert args.cores == "auto"


class TestCompareAndFigure:
    def test_compare_json(self):
        code, output = run_cli(
            ["compare", "--schemes", "BFC", "DCQCN", "--load", "0.3", "--incast", "0",
             "--json"]
        )
        assert code == 0
        payload = json.loads(output)
        assert set(payload) == {"BFC", "DCQCN"}
        assert all("p99_slowdown" in row for row in payload.values())

    def test_compare_text_table(self):
        code, output = run_cli(
            ["compare", "--schemes", "BFC", "Ideal-FQ", "--load", "0.3", "--incast", "0"]
        )
        assert code == 0
        assert "p99 FCT slowdown" in output
        assert "Ideal-FQ" in output

    def test_figure_with_scheme_subset(self):
        code, output = run_cli(
            ["figure", "fig5a", "--schemes", "BFC", "DCQCN", "--json"]
        )
        assert code == 0
        payload = json.loads(output)
        assert set(payload) == {"BFC", "DCQCN"}

    def test_figure_schemes_filter_reaches_the_plan(self):
        code, output = run_cli(
            ["figure", "fig5a", "--schemes", "BFC", "--dry-run", "--json"]
        )
        assert code == 0
        plan = json.loads(output)
        assert plan["cores"] == 1
        assert [t["name"] for t in plan["order"]] == ["fig5a/BFC"]

    def test_figure_without_a_scheme_axis_rejects_schemes(self, capsys):
        code, output = run_cli(
            ["figure", "fig2", "--schemes", "BFC", "--dry-run", "--cores", "1"]
        )
        assert code == 2
        assert output == ""
        assert "--schemes" in capsys.readouterr().err

    @pytest.mark.parametrize("figure, scheme", [("fig5a", "Nope"), ("fig5a", "PFC")])
    @pytest.mark.parametrize("dry_run", [True, False])
    def test_figure_refuses_a_scheme_it_does_not_run(self, capsys, figure, scheme, dry_run):
        code, output = run_cli(
            ["figure", figure, "--schemes", "BFC", scheme] + (["--dry-run"] if dry_run else [])
        )
        assert code == 2
        assert output == ""
        err = capsys.readouterr().err
        assert f"does not run {scheme};" in err
        # The message lists what the figure does run.
        assert "BFC, Ideal-FQ, DCQCN, DCQCN+Win, HPCC, DCQCN+Win+SFQ" in err

    @pytest.mark.parametrize("figure, scheme", [("fig7", "BFC"), ("fig2", "DCQCN")])
    def test_figure_accepts_a_scheme_it_runs(self, figure, scheme):
        code, output = run_cli(["figure", figure, "--schemes", scheme, "--dry-run", "--json"])
        assert code == 0
        trials = json.loads(output)["order"]
        assert trials
        assert all(t["name"].startswith(f"{figure}/") for t in trials)

    @pytest.mark.parametrize("figure", sorted(FIGURES))
    def test_every_registered_figure_plans_its_factory_grid(self, figure):
        code, output = run_cli(["figure", figure, "--dry-run", "--json"])
        assert code == 0
        names = sorted(t["name"] for t in json.loads(output)["order"])
        assert names == sorted(f"{figure}/{label}" for label in FIGURES[figure].configs("tiny"))

    def test_figure_text_output(self):
        code, output = run_cli(["figure", "fig13", "--json"])
        assert code == 0
        payload = json.loads(output)
        assert len(payload) >= 3

    def test_figure_dry_run_previews_plan(self):
        code, output = run_cli(
            ["figure", "fig5a", "--schemes", "BFC", "DCQCN", "--cores", "2",
             "--dry-run"]
        )
        assert code == 0
        assert "2 trial(s) on 2 core(s)" in output
        assert "fig5a/BFC" in output


class TestTopologyCommand:
    def test_info_text_output(self):
        code, output = run_cli(["topology", "info", "--figure", "fig9"])
        assert code == 0
        assert "hosts" in output
        assert "oversubscription" in output
        assert "one per DC" in output
        assert "cut links" in output
        assert "window (lookahead)" in output

    def test_info_json_cross_dc(self):
        code, output = run_cli(["topology", "info", "--figure", "fig9", "--json"])
        assert code == 0
        payload = json.loads(output)
        assert payload["hosts"] == 16
        assert payload["dcs"] == 2
        assert payload["switches_by_tier"]["gateway"] == 2
        assert payload["partition"]["num_shards"] == 2
        assert payload["partition"]["cut_links_by_class"] == {"inter-dc": 1}
        # Lookahead = the cross-DC propagation delay.
        assert payload["partition"]["window_ns"] == 20_000

    def test_info_single_dc_has_no_cut(self):
        code, output = run_cli(["topology", "info", "--json"])
        assert code == 0
        payload = json.loads(output)
        assert payload["dcs"] == 1
        assert payload["partition"] is None
        code, output = run_cli(["topology", "info"])
        assert code == 0
        assert "single DC: no cut" in output

    @pytest.mark.parametrize("figure", sorted(FIGURES))
    def test_info_partition_follows_the_dc_count(self, figure):
        code, output = run_cli(["topology", "info", "--figure", figure, "--json"])
        assert code == 0
        payload = json.loads(output)
        config = next(iter(FIGURES[figure].configs("tiny").values()))
        partition = payload["partition"]
        if config.cross_dc is None:
            assert payload["dcs"] == 1
            assert partition is None
            return
        # One shard per DC, cut only at the gateway link.
        assert payload["dcs"] == 2
        assert partition["num_shards"] == 2
        assert partition["cut_links_by_class"] == {"inter-dc": 1}
        assert partition["window_ns"] == config.cross_dc.gateway_delay_ns
        shards = partition["shards"]
        assert shards["0"] == shards["1"]
        assert sum(s["hosts"] for s in shards.values()) == payload["hosts"]
        assert sum(s["switches"] for s in shards.values()) == payload["switches"]

    @pytest.mark.parametrize("flag", ["--sync", "--shards"])
    def test_info_no_longer_takes_partition_flags(self, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["topology", "info", flag, "2"])


class TestShardCommand:
    def test_shard_json_reports_partition_and_barriers(self):
        code, output = run_cli(
            ["shard", "--scheme", "DCQCN", "--shards", "2", "--json"]
        )
        assert code == 0
        payload = json.loads(output)
        assert payload["summary"]["scheme"] == "DCQCN"
        stats = payload["shard_stats"]
        assert stats["num_shards"] == 2
        assert stats["cut_links_by_class"] == {"inter-dc": 1}
        assert stats["barriers"] > 0
        assert stats["boundary_packets"] > 0
        assert stats["window_ns"] == 20_000
        assert len(stats["events_per_shard"]) == 2
        assert_shard_stats_schema(stats)

    def test_shard_text_output(self):
        code, output = run_cli(["shard", "--scheme", "DCQCN", "--shards", "2"])
        assert code == 0
        assert "fig9/DCQCN" in output
        assert "Partition:" in output
        assert "window (lookahead)" in output
        assert "barriers" in output

    def test_shard_more_shards_than_dcs_is_refused(self, capsys):
        code, _ = run_cli(["shard", "--shards", "3"])
        assert code == 2
        assert "cannot cut a 2-DC topology into 3 shards" in capsys.readouterr().err

    def test_shard_single_dc_config_is_refused(self, monkeypatch, capsys):
        # The same command on a single-DC scenario: no cut to make.
        monkeypatch.setattr(scenarios, "fig9_configs", scenarios.fig5a_configs)
        code, _ = run_cli(["shard", "--shards", "2"])
        assert code == 2
        assert "cannot cut a 1-DC topology into 2 shards" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", ["--sync", "--workload", "--load", "--incast"]
    )
    def test_shard_no_longer_takes_single_dc_flags(self, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["shard", flag, "1"])
