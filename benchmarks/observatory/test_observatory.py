"""Tier-1 checks of the observatory, in ``--quick`` mode (tiny scale, one repeat).

They check the contract between ``BENCHMARK.json`` and what ``run.py`` emits,
and the invariants the numbers rest on — not the numbers themselves.
"""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

_spec = importlib.util.spec_from_file_location("observatory_run", HERE / "run.py")
observatory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(observatory)


def _run(*args):
    return subprocess.run(RUN + list(args), capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    """One quick traced run of every workload: (path, document)."""
    path = tmp_path_factory.mktemp("observatory") / "quick.json"
    done = _run("--quick", "--trace", "--json", str(path))
    assert done.returncode == 0, done.stdout + done.stderr
    return path, json.loads(path.read_text(encoding="utf-8"))


def test_emitted_names_are_the_declared_names(suite):
    _, document = suite
    declared = {
        kind: [m["name"] for m in SPEC[kind]] for kind in ("end_to_end", "per_layer")
    }
    for name in declared["end_to_end"] + declared["per_layer"] + WORKLOADS:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert sorted(document["workloads"]) == sorted(WORKLOADS)
    for workload, run in document["workloads"].items():
        assert run["correct"], (workload, run["problems"])
        for kind, names in declared.items():
            assert sorted(run[kind]) == sorted(names), (workload, kind)
            for metric in SPEC[kind]:
                assert run[kind][metric["name"]]["unit"] == metric["unit"]


def test_stamp_says_where_the_numbers_come_from(suite):
    _, document = suite
    assert set(document["stamp"]) == {
        "python", "platform", "cpu_count", "cores_used", "engine_backend",
        "repro_version", "git_sha", "seed", "quick",
    }
    assert document["stamp"]["quick"] is True


def test_layer_shares_sum_to_one(suite):
    _, document = suite
    for workload, run in document["workloads"].items():
        shares = [m["value"] for name, m in run["per_layer"].items() if name.endswith(".share")]
        assert sum(shares) == pytest.approx(1.0, abs=0.01), workload
        assert all(share >= -1e-9 for share in shares), workload


def test_the_layers_separate_the_workloads(suite):
    _, document = suite
    layers = {w: run["per_layer"] for w, run in document["workloads"].items()}
    assert layers["incast_bfc"]["core.share"]["value"] >= 0.25
    assert layers["incast_dcqcn"]["core.share"]["value"] <= 0.02
    assert layers["incast_dcqcn"]["congestion.calls"]["value"] > 0
    assert layers["incast_bfc"]["congestion.calls"]["value"] == 0
    for other in WORKLOADS:
        if other != "openloop_spill":
            assert layers["openloop_spill"]["results.share"]["value"] > layers[other]["results.share"]["value"]
        if other != "campaign_grid":
            assert layers[other]["campaign.calls"]["value"] == 0
    assert layers["campaign_grid"]["campaign.calls"]["value"] > 0


def test_exact_metrics_repeat_across_runs(suite, tmp_path):
    _, document = suite
    path = tmp_path / "again.json"
    done = _run("--workload", "incast_dcqcn", "--quick", "--trace", "1", "--json", str(path))
    assert done.returncode == 0, done.stdout + done.stderr
    again = json.loads(path.read_text(encoding="utf-8"))
    first = document["workloads"]["incast_dcqcn"]
    # The suite's counters come from its untraced process, these from a
    # traced one: three processes agree.
    assert len(first["exact"]) == 1 and first["exact"] == again["exact"]
    exact = [name for name, m in first["per_layer"].items() if m["exact"]]
    assert len(exact) == 32 and "sim.p99_slowdown" in exact and "core.calls" in exact
    assert {n: first["per_layer"][n]["value"] for n in exact} == {
        n: again["per_layer"][n]["value"] for n in exact
    }

    # The last line is what BENCHMARK.json's driver reads.
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert sorted(line["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    assert all(sorted(m) == ["unit", "value"] for m in line["metrics"].values())


def test_a_crashed_measuring_process_is_a_failed_workload(suite, tmp_path, capsys):
    """It must not be read as the previous workload's (stale) result."""
    path, _ = suite
    stale = tmp_path / "shared.json"
    stale.write_text(
        json.dumps({"workload": "incast_dcqcn", "correct": True, "problems": []}),
        encoding="utf-8",
    )
    crash = [sys.executable, "-c", "raise SystemExit('boom')"]  # exits 1, writes nothing
    document = observatory._measure_in_subprocess(crash, "collective_ring", str(stale))
    assert document["workload"] == "collective_ring" and document["correct"] is False
    assert document["failed"] == document["attempted"] == 1
    assert "boom" in document["problems"][0] and not stale.exists()
    capsys.readouterr()

    # --compare reports the workload's metrics as missing and fails.
    suite_document = json.loads(path.read_text(encoding="utf-8"))
    suite_document["workloads"]["collective_ring"] = document
    crashed = tmp_path / "crashed.json"
    crashed.write_text(json.dumps(suite_document), encoding="utf-8")
    done = _run("--compare", str(path), str(crashed))
    assert done.returncode == 1 and done.stdout.count("missing") == len(SPEC["end_to_end"])


def test_compare_of_a_file_with_itself_is_all_ok(suite):
    path, _ = suite
    done = _run("--compare", str(path), str(path))
    assert done.returncode == 0, done.stdout + done.stderr
    rows = done.stdout.splitlines()[1:]
    verdicts = [line.split()[-1] for line in rows if "identical" not in line]
    assert len(verdicts) == len(WORKLOADS) * len(SPEC["end_to_end"])
    assert set(verdicts) == {"ok"}
    # 20 counters of the untraced pass + 20 counters and 12 `.calls` of the traced one
    assert sum("52 of 52 identical" in line for line in rows) == len(WORKLOADS)


def test_compare_flags_a_regression_and_a_changed_counter(suite, tmp_path):
    path, document = suite
    worse = json.loads(json.dumps(document))
    run = worse["workloads"]["incast_dcqcn"]
    run["end_to_end"]["packets_per_s"]["value"] *= 0.5
    run["per_layer"]["sim.engine.calls"]["value"] += 1
    # One more stranded flow: far inside flows_completed_frac's bound, and
    # still reported, from the untraced pass alone.
    (counters,) = run["exact"].values()
    counters["workloads.flows_unfinished"] += 1
    other = tmp_path / "worse.json"
    other.write_text(json.dumps(worse), encoding="utf-8")
    done = _run("--compare", str(path), str(other))
    assert done.returncode == 1
    assert done.stdout.count("regressed") == 1 and done.stdout.count("changed") == 2
    assert "50 of 52 identical" in done.stdout
