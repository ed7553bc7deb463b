"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import FIGURE_FACTORIES, build_parser, main
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
        assert "fig5a" in FIGURE_FACTORIES
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_campaign_parses_sweep_axes(self):
        args = build_parser().parse_args(
            ["campaign", "mysweep", "--schemes", "BFC", "DCQCN",
             "--load", "0.6", "0.8", "--repeats", "2", "--workers", "4"]
        )
        assert args.name == "mysweep"
        assert args.schemes == ["BFC", "DCQCN"]
        assert args.load == [0.6, 0.8]
        assert args.repeats == 2
        assert args.workers == 4

    def test_sweep_is_an_alias_for_campaign(self):
        args = build_parser().parse_args(["sweep", "--schemes", "BFC"])
        assert args.command == "sweep"
        assert args.schemes == ["BFC"]

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
        assert "wave 1" in output
        assert not path.exists()  # nothing simulated, nothing written

    def test_campaign_cores_runs_and_reports_cores(self, tmp_path):
        path = tmp_path / "records.jsonl"
        code, output = run_cli(
            ["campaign", "--schemes", "BFC", "--load", "0.3", "--incast", "0",
             "--cores", "2", "--save", str(path)]
        )
        assert code == 0
        assert "cores=2" in output
        assert path.exists()
        assert path.with_name("records.costs.json").exists()

    def test_campaign_rejects_workers_plus_cores(self):
        code, _ = run_cli(
            ["campaign", "--schemes", "BFC", "--workers", "2", "--cores", "2",
             "--dry-run"]
        )
        assert code == 2

    def test_campaign_dry_run_json_is_machine_readable(self):
        code, output = run_cli(
            ["campaign", "--schemes", "BFC", "DCQCN", "--load", "0.6",
             "--cores", "2", "--dry-run", "--json"]
        )
        assert code == 0
        plan = json.loads(output)
        assert plan["cores"] == 2
        assert plan["num_trials"] == 2
        assert plan["max_live_processes"] <= 2
        assert [t["name"] for w in plan["waves"] for t in w["trials"]] == [
            "campaign/BFC/load=0.6", "campaign/DCQCN/load=0.6",
        ]

    def test_dry_run_without_cores_is_a_clean_error(self, capsys):
        # A plan preview describes scheduled execution; without --cores the
        # real run would use the --workers pool, so previewing would mislead.
        code, _ = run_cli(["campaign", "--schemes", "BFC", "--dry-run"])
        assert code == 2
        assert "--cores" in capsys.readouterr().err

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
        assert "wave 1" in output


class TestTopologyCommand:
    def test_info_text_output(self):
        code, output = run_cli(["topology", "info", "--shards", "2"])
        assert code == 0
        assert "hosts" in output
        assert "oversubscription" in output
        assert "cut links" in output
        assert "window (lookahead)" in output

    def test_info_json_cross_dc(self):
        code, output = run_cli(
            ["topology", "info", "--figure", "fig9", "--shards", "2", "--json"]
        )
        assert code == 0
        payload = json.loads(output)
        assert payload["hosts"] == 16
        assert payload["switches_by_tier"]["gateway"] == 2
        assert payload["partition"]["strategy"] == "dc"
        assert payload["partition"]["cut_links_by_class"] == {"inter-dc": 1}
        # Lookahead = the cross-DC propagation delay.
        assert payload["partition"]["window_ns"] == 20_000

    def test_info_greedy_strategy_json(self):
        code, output = run_cli(
            ["topology", "info", "--shards", "2", "--strategy", "greedy", "--json"]
        )
        assert code == 0
        payload = json.loads(output)
        assert payload["partition"]["strategy"] == "greedy"
        assert payload["partition"]["cut_links_by_class"] == {"tor-spine": 2}
        assert "sync" not in payload

    def test_info_no_longer_takes_sync(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["topology", "info", "--sync", "conservative"])

    def test_info_single_shard_has_no_cuts(self):
        code, output = run_cli(["topology", "info", "--shards", "1", "--json"])
        assert code == 0
        payload = json.loads(output)
        assert payload["partition"]["cut_links"] == 0
        assert payload["partition"]["window_ns"] is None


class TestShardCommand:
    def test_shard_json_reports_partition_and_barriers(self):
        code, output = run_cli(
            ["shard", "--scheme", "DCQCN", "--shards", "2", "--json",
             "--load", "0.3", "--incast", "0"]
        )
        assert code == 0
        payload = json.loads(output)
        assert payload["summary"]["scheme"] == "DCQCN"
        stats = payload["shard_stats"]
        assert stats["num_shards"] == 2
        assert stats["barriers"] > 0
        assert stats["window_ns"] == 1_000
        assert len(stats["events_per_shard"]) == 2
        assert_shard_stats_schema(stats)

    def test_shard_greedy_strategy_json(self):
        code, output = run_cli(
            ["shard", "--scheme", "BFC", "--shards", "2", "--strategy",
             "greedy", "--json", "--load", "0.3", "--incast", "0"]
        )
        assert code == 0
        stats = json.loads(output)["shard_stats"]
        assert stats["strategy"] == "greedy"
        assert stats["boundary_packets"] > 0
        assert_shard_stats_schema(stats)

    def test_shard_text_output(self):
        code, output = run_cli(
            ["shard", "--scheme", "DCQCN", "--shards", "2",
             "--load", "0.3", "--incast", "0"]
        )
        assert code == 0
        assert "Partition:" in output
        assert "window (lookahead)" in output
        assert "barriers" in output

    def test_shard_no_longer_takes_sync(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["shard", "--sync", "conservative"])

    def test_shard_rejects_unknown_strategy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["shard", "--strategy", "magic"])
