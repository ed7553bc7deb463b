"""Experiment workspaces: one campaign run = one browsable folder.

A big parameter grid is more than its JSONL: there are the per-trial spill
artifacts, the provenance of the code and machines that produced it, and
the tables a reader actually wants to see.  A :class:`Workspace` gathers
all of that under one timestamped directory, writing each file atomically::

    <root>/<campaign>-<UTC timestamp>/
        results.jsonl   # the campaign JSONL (resume/identity contract)
        artifacts/      # per-trial spill dirs, copied in and re-pointed
        manifest.json   # git SHA, platform, engine, worker roster, plan
        report.md       # aggregate + p99-slowdown tables per sweep axis

Entry points: ``Campaign.run(workspace=...)`` (a root path or a ready
:class:`Workspace`), the CLI's ``repro campaign --workspace``, and
``repro report`` to regenerate ``report.md`` from any results JSONL.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from repro.sim.engine import ENGINE_BACKEND

from .results import ResultSet, TrialRecord, atomic_writer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .executors import Executor

MANIFEST_KIND = "repro.campaign.manifest"
MANIFEST_VERSION = 1

#: Aggregate columns of every report table: (heading, metric key).
_REPORT_METRICS = (
    ("p99 slowdown", "p99_slowdown"),
    ("mean slowdown", "mean_slowdown"),
    ("completion rate", "completion_rate"),
)


def _git_revision() -> Optional[Dict[str, object]]:
    """Best-effort git provenance of the running checkout (None outside git)."""
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        sha = subprocess.run(
            ["git", "-C", here, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if sha.returncode != 0:
            return None
        status = subprocess.run(
            ["git", "-C", here, "status", "--porcelain"],
            capture_output=True, text=True, timeout=10,
        )
        return {
            "sha": sha.stdout.strip(),
            "dirty": bool(status.stdout.strip()) if status.returncode == 0 else None,
        }
    except (OSError, subprocess.SubprocessError):
        return None


def _safe_name(name: str) -> str:
    """A trial name as a single path component (mirrors the spill-run naming)."""
    return name.replace("/", "-").replace(" ", "_").replace("\\", "-")


def sweep_axes(records: Sequence[TrialRecord]) -> List[str]:
    """The param keys that actually vary across records — the report's axes.

    A key only present on some records counts as varying too (mixed
    campaigns).  Values are compared by their deterministic ``repr`` so
    non-JSON sweep values (config objects) group correctly.
    """
    values: Dict[str, set] = {}
    for rec in records:
        for key in rec.params:
            values.setdefault(key, set())
    for rec in records:
        for key, seen in values.items():
            seen.add(repr(rec.params.get(key, None)))
    return sorted(key for key, seen in values.items() if len(seen) > 1)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> List[str]:
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(_fmt(cell) for cell in row) + " |")
    return lines


def render_report(result_set: ResultSet, title: Optional[str] = None) -> str:
    """The Markdown report for a result set: the standard tables.

    * one **overall** table: the aggregate metrics per scheme (mean over
      repeats and all sweep points);
    * one table **per sweep axis** (every param that varies), broken down by
      axis value × scheme — the shape of the paper's figures (e.g.
      p99 slowdown vs load);
    * a per-trial appendix with seeds and wall-clock times.

    Pure function of the records, so ``repro report`` can regenerate it from
    any campaign JSONL at any time.
    """
    records = sorted(result_set.records, key=lambda r: r.name)
    name = title or result_set.campaign or "campaign"
    schemes = sorted({rec.scheme for rec in records})
    axes = sweep_axes(records)
    lines = [f"# Campaign report: {name}", ""]
    lines += [
        f"- trials: {len(records)}",
        f"- schemes: {', '.join(schemes) if schemes else '(none)'}",
        f"- sweep axes: {', '.join(axes) if axes else '(none)'}",
        f"- repeats: {max((rec.repeat for rec in records), default=0) + 1}",
        "",
    ]
    if not records:
        lines.append("_No records._")
        return "\n".join(lines) + "\n"

    def grouped(by: Sequence[str]):
        out = {}
        for heading, metric in _REPORT_METRICS:
            try:
                out[heading] = result_set.aggregate(metric, by)
            except KeyError:
                continue  # metric absent from these records: drop the column
        return out

    lines += ["## Overall (mean over repeats and sweep points)", ""]
    overall = grouped(("scheme",))
    rows = [
        [scheme] + [columns.get(scheme, "-") for columns in overall.values()]
        for scheme in schemes
    ]
    lines += _table(["scheme"] + list(overall), rows) + [""]

    for axis in axes:
        lines += [f"## By {axis}", ""]
        # Mixed campaigns: aggregate only the records that carry this axis
        # (TrialRecord.get raises on a missing param).
        with_axis = ResultSet(
            [rec for rec in records if axis in rec.params],
            campaign=result_set.campaign,
        )
        columns = {}
        for heading, metric in _REPORT_METRICS:
            try:
                columns[heading] = with_axis.aggregate(metric, (axis, "scheme"))
            except KeyError:
                continue
        keys = sorted(
            {(rec.params[axis], rec.scheme) for rec in with_axis.records},
            key=lambda pair: (repr(pair[0]), pair[1]),
        )
        rows = [
            [value, scheme]
            + [column.get((value, scheme), "-") for column in columns.values()]
            for value, scheme in keys
        ]
        lines += _table([axis, "scheme"] + list(columns), rows) + [""]

    lines += ["## Trials", ""]
    rows = [
        [
            rec.name,
            rec.scheme,
            rec.seed,
            f"{rec.wall_seconds:.2f}",
            _fmt(rec.metrics.get("p99_slowdown", "-")),
        ]
        for rec in records
    ]
    lines += _table(["name", "scheme", "seed", "wall s", "p99 slowdown"], rows)
    return "\n".join(lines) + "\n"


class Workspace:
    """A campaign run's folder: results, artifacts, manifest, report.

    :meth:`create` makes a fresh timestamped run directory under a root;
    the constructor wraps an existing one (e.g. to resume an interrupted
    run: point ``Campaign.run(workspace=Workspace(dir))`` at it and the
    campaign resumes from its ``results.jsonl``).
    """

    def __init__(self, run_dir: Union[str, Path]) -> None:
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)

    @classmethod
    def create(cls, root: Union[str, Path], campaign: str) -> "Workspace":
        """A new ``<root>/<campaign>-<UTC timestamp>/`` run dir (never reused)."""
        stamp = time.strftime("%Y%m%d-%H%M%SZ", time.gmtime())
        base = Path(root) / f"{_safe_name(campaign)}-{stamp}"
        run_dir, n = base, 1
        while run_dir.exists():  # same-second runs (tests): suffix, don't mix
            n += 1
            run_dir = base.with_name(f"{base.name}-{n}")
        return cls(run_dir)

    @property
    def results_path(self) -> Path:
        return self.run_dir / "results.jsonl"

    @property
    def manifest_path(self) -> Path:
        return self.run_dir / "manifest.json"

    @property
    def report_path(self) -> Path:
        return self.run_dir / "report.md"

    @property
    def artifacts_dir(self) -> Path:
        return self.run_dir / "artifacts"

    # -- pieces --------------------------------------------------------------

    def collect_artifacts(self, result_set: ResultSet) -> int:
        """Copy per-trial artifact dirs under ``artifacts/`` and re-point records.

        Spill dirs land wherever ``ExperimentConfig.results_dir`` said (a
        scratch path, possibly on a worker that shipped them back); the
        workspace copy is the durable one.  Records — in ``result_set`` and
        in the saved ``results.jsonl`` — are rewritten to the new paths, so
        ``ResultSet.analyzer_for`` works from the workspace alone.  Returns
        the number of artifact dirs collected.
        """
        moved: Dict[str, Dict[str, str]] = {}
        count = 0
        for rec in result_set.records:
            for kind, path in list(rec.artifacts.items()):
                if not os.path.isdir(path):
                    continue
                dest = self.artifacts_dir / _safe_name(rec.name) / kind
                if Path(path).resolve() != dest.resolve():
                    if dest.exists():
                        shutil.rmtree(dest)
                    dest.parent.mkdir(parents=True, exist_ok=True)
                    shutil.copytree(path, dest)
                rec.artifacts[kind] = str(dest)
                moved.setdefault(rec.name, {})[kind] = str(dest)
                count += 1
        if moved and self.results_path.exists():
            # Re-point the persisted records too (preserving any stale-run
            # lines the in-memory set does not carry).
            on_disk = ResultSet.load(self.results_path)
            for rec in on_disk.records:
                rec.artifacts.update(moved.get(rec.name, {}))
            on_disk.save(self.results_path)
        return count

    def write_manifest(
        self,
        campaign: Optional[str] = None,
        executor: Optional["Executor"] = None,
        plan: Optional[Dict[str, object]] = None,
        trials: int = 0,
        extra: Optional[Dict[str, object]] = None,
    ) -> Path:
        """Record provenance: code, platform, worker roster and the plan."""
        manifest: Dict[str, object] = {
            "kind": MANIFEST_KIND,
            "version": MANIFEST_VERSION,
            "campaign": campaign,
            "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "trials": trials,
            "git": _git_revision(),
            "platform": {
                "python": sys.version.split()[0],
                "implementation": platform.python_implementation(),
                "system": platform.platform(),
                "machine": platform.machine(),
                "cpu_count": os.cpu_count(),
            },
            # Records are identical under either engine; trial wall_seconds
            # are not.
            "engine_backend": ENGINE_BACKEND,
            "executor": type(executor).__name__ if executor is not None else None,
            "workers": (
                executor.roster() if hasattr(executor, "roster") else None
            ),
            "plan": plan,
        }
        if extra:
            manifest.update(extra)
        with atomic_writer(self.manifest_path) as fh:
            fh.write(json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n")
        return self.manifest_path

    def write_report(self, result_set: ResultSet) -> Path:
        with atomic_writer(self.report_path) as fh:
            fh.write(render_report(result_set))
        return self.report_path

    def manifest(self) -> Dict[str, object]:
        return json.loads(self.manifest_path.read_text(encoding="utf-8"))

    # -- the whole ceremony --------------------------------------------------

    def finalize(
        self,
        result_set: ResultSet,
        campaign: Optional[str] = None,
        executor: Optional["Executor"] = None,
        plan: Optional[Dict[str, object]] = None,
    ) -> "Workspace":
        """Collect artifacts, then write manifest and report.

        Called by ``Campaign.run(workspace=...)`` after the final JSONL
        persist; safe to call on a workspace whose run was interrupted and
        resumed (everything it writes is regenerated from current state).
        """
        self.collect_artifacts(result_set)
        self.write_manifest(
            campaign=campaign or result_set.campaign,
            executor=executor,
            plan=plan,
            trials=len(result_set.records),
        )
        self.write_report(result_set)
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Workspace({str(self.run_dir)!r})"
