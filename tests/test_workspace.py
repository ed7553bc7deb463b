"""Experiment workspaces: run folders, manifests, reports, artifact collection."""

import io
import json
import os
from pathlib import Path

import pytest

from repro.campaign import (
    Campaign,
    CampaignError,
    ResultSet,
    SerialExecutor,
    TrialRecord,
    Workspace,
    render_report,
)
from repro.campaign.workspace import sweep_axes
from repro.cli import main
from repro.sim.engine import ENGINE_BACKEND


def make_campaign(**fixed):
    fixed.setdefault("duration_ns", 150_000)
    return (
        Campaign("ws")
        .schemes("BFC", "DCQCN")
        .sweep(load=[0.4, 0.6])
        .fixed(**fixed)
    )


def run_dir_of(root) -> Path:
    (run_dir,) = Path(root).iterdir()
    return run_dir


class TestWorkspaceRun:
    @pytest.fixture(scope="class")
    def workspace_run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("ws-root")
        # cores=1 = the scheduled executor: serial execution, plus the plan
        # the workspace is expected to capture.
        result_set = make_campaign().run(cores=1, workspace=root)
        return root, result_set

    def test_creates_a_timestamped_run_folder(self, workspace_run):
        root, _ = workspace_run
        run_dir = run_dir_of(root)
        assert run_dir.name.startswith("ws-")
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "manifest.json",
            "report.md",
            "results.jsonl",
        ]

    def test_results_jsonl_is_the_canonical_resultset(self, workspace_run):
        root, result_set = workspace_run
        reloaded = ResultSet.load(run_dir_of(root) / "results.jsonl")
        assert reloaded == result_set

    def test_manifest_records_provenance(self, workspace_run):
        root, _ = workspace_run
        manifest = json.loads(
            (run_dir_of(root) / "manifest.json").read_text()
        )
        assert manifest["kind"] == "repro.campaign.manifest"
        assert manifest["campaign"] == "ws"
        assert manifest["trials"] == 4
        assert manifest["executor"] == "ScheduledExecutor"
        assert len(manifest["plan"]["order"]) == 4
        assert manifest["platform"]["python"]
        assert manifest["platform"]["cpu_count"] >= 1
        assert manifest["engine_backend"] == ENGINE_BACKEND

    def test_report_has_the_standard_tables(self, workspace_run):
        root, _ = workspace_run
        report = (run_dir_of(root) / "report.md").read_text()
        assert "# Campaign report: ws" in report
        assert "## Overall (mean over repeats and sweep points)" in report
        assert "## By load" in report
        assert "p99 slowdown" in report
        assert "| BFC |" in report and "| DCQCN |" in report
        # one row per (load, scheme) pair
        assert report.count("| 0.4 |") == 2 and report.count("| 0.6 |") == 2

    def test_failed_manifest_write_keeps_the_previous_file(
        self, tmp_path, monkeypatch
    ):
        workspace = Workspace(tmp_path / "run")
        workspace.write_manifest(campaign="first")
        before = workspace.manifest_path.read_bytes()
        fail_writes_halfway(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            workspace.write_manifest(campaign="second")
        monkeypatch.undo()
        assert workspace.manifest_path.read_bytes() == before
        assert [p.name for p in workspace.run_dir.iterdir()] == ["manifest.json"]

    def test_failed_report_write_keeps_the_previous_file(
        self, tmp_path, monkeypatch
    ):
        workspace = Workspace(tmp_path / "run")
        workspace.write_report(ResultSet())
        before = workspace.report_path.read_bytes()
        fail_writes_halfway(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            workspace.write_report(ResultSet())
        monkeypatch.undo()
        assert workspace.report_path.read_bytes() == before
        assert [p.name for p in workspace.run_dir.iterdir()] == ["report.md"]


def fail_writes_halfway(monkeypatch):
    """Make every file opened for writing take half its data, then fail."""
    real_open = Path.open

    def failing_open(self, mode="r", *args, **kwargs):
        handle = real_open(self, mode, *args, **kwargs)
        if "w" in mode:
            def write(data):
                type(handle).write(handle, data[: len(data) // 2])
                raise OSError("disk full")

            handle.write = write
        return handle

    monkeypatch.setattr(Path, "open", failing_open)


class TestWorkspaceArtifacts:
    def test_spill_artifacts_are_collected_and_repointed(self, tmp_path):
        root = tmp_path / "root"
        scratch = tmp_path / "scratch"
        result_set = (
            Campaign("wsart")
            .schemes("BFC")
            .sweep(load=[0.4])
            .fixed(duration_ns=150_000, results_dir=str(scratch))
            .run(executor=SerialExecutor(), workspace=root)
        )
        run_dir = run_dir_of(root)
        (record,) = result_set.records
        collected = record.artifacts["results_dir"]
        assert Path(collected).is_relative_to(run_dir / "artifacts")
        assert (Path(collected) / "flows.jsonl").exists()
        # The persisted JSONL points at the workspace copy too.
        (reloaded,) = ResultSet.load(run_dir / "results.jsonl").records
        assert reloaded.artifacts["results_dir"] == collected
        # And the analyzer opens it from the workspace alone.
        analyzer = result_set.analyzer_for(record.label)
        assert analyzer.summarize()["flows_offered"] > 0


class TestWorkspaceResume:
    def test_reusing_a_workspace_resumes_its_results(self, tmp_path):
        root = tmp_path / "root"
        campaign = make_campaign()
        campaign.run(executor=SerialExecutor(), workspace=root)
        run_dir = run_dir_of(root)
        before = (run_dir / "results.jsonl").read_text()

        class Exploding(SerialExecutor):
            def run(self, trials):
                raise AssertionError("resume should leave nothing to run")

        again = campaign.run(
            executor=Exploding(), workspace=Workspace(run_dir)
        )
        assert len(again.records) == 4
        after = (run_dir / "results.jsonl").read_text()
        assert before == after

    def test_workspace_conflicts_with_save_and_resume(self, tmp_path):
        with pytest.raises(CampaignError, match="workspace"):
            make_campaign().run(
                workspace=tmp_path, save=tmp_path / "x.jsonl"
            )

    def test_same_second_run_dirs_do_not_collide(self, tmp_path):
        first = Workspace.create(tmp_path, "demo")
        second = Workspace.create(tmp_path, "demo")
        assert first.run_dir != second.run_dir
        assert first.run_dir.exists() and second.run_dir.exists()


class TestReportRendering:
    def records(self):
        rows = []
        for scheme in ("BFC", "HPCC"):
            for load, p99 in ((0.4, 2.0), (0.8, 8.0)):
                rows.append(
                    TrialRecord(
                        name=f"r/{scheme}/{load}",
                        label=f"{scheme}@{load}",
                        scheme=scheme,
                        params={"load": load, "incast": 0.05},
                        metrics={
                            "p99_slowdown": p99,
                            "mean_slowdown": p99 / 2,
                            "completion_rate": 1.0,
                        },
                    )
                )
        return rows

    def test_sweep_axes_are_the_varying_params(self):
        assert sweep_axes(self.records()) == ["load"]

    def test_axis_missing_on_some_records_still_counts(self):
        records = self.records()
        records[0].params.pop("incast")
        assert sweep_axes(records) == ["incast", "load"]

    def test_report_tables_aggregate_by_axis_and_scheme(self):
        report = render_report(ResultSet(self.records(), campaign="r"))
        assert "## By load" in report
        assert "| 0.4 | BFC | 2 | 1 | 1 |" in report
        assert "| 0.8 | HPCC | 8 | 4 | 1 |" in report

    def test_empty_result_set_renders_gracefully(self):
        report = render_report(ResultSet([], campaign="empty"))
        assert "_No records._" in report

    def test_report_cli_matches_workspace_report(self, tmp_path):
        result_set = ResultSet(self.records(), campaign="r")
        jsonl = tmp_path / "r.jsonl"
        result_set.save(jsonl)
        out = io.StringIO()
        assert main(["report", str(jsonl)], out=out) == 0
        assert out.getvalue() == render_report(ResultSet.load(jsonl))

    def test_report_cli_writes_out_file(self, tmp_path):
        jsonl = tmp_path / "r.jsonl"
        ResultSet(self.records(), campaign="r").save(jsonl)
        target = tmp_path / "report.md"
        out = io.StringIO()
        assert main(["report", str(jsonl), "--out", str(target)], out=out) == 0
        assert "# Campaign report: r" in target.read_text()

    def test_report_cli_rejects_missing_file(self, tmp_path):
        assert main(["report", str(tmp_path / "nope.jsonl")], out=io.StringIO()) == 2
