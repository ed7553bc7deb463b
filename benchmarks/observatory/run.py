#!/usr/bin/env python3
"""Performance observatory: whole-run workloads, end to end and layer by layer.

    python benchmarks/observatory/run.py                       # every workload
    python benchmarks/observatory/run.py --workload incast_bfc --trace 1
    python benchmarks/observatory/run.py --json A.json         # keep a set of runs
    python benchmarks/observatory/run.py --compare A.json B.json

With ``--workload`` the process measures that workload itself and prints one
JSON object as its last line (the form ``BENCHMARK.json``'s driver reads);
without it, every workload is run that way in a fresh subprocess.  Metric
names, units, directions and bounds are declared in ``BENCHMARK.json`` only.
See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Set-up is timed in a slice before every repeat of the body, so that its
#: samples span the whole run and a slow second on the host taints few of
#: them: at least two samples a slice, then until the slice is spent.  The
#: cheapest set-up (3 ms) gets the most samples.
SETUP_SLICE_S = 0.4
MAX_SETUP_SAMPLES_PER_SLICE = 60


def load_spec() -> Dict[str, object]:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Measuring one workload (this process)
# ---------------------------------------------------------------------------


def _calibrate() -> float:
    """A fixed pure-Python spin: tells a throttled window from a regression."""
    started = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    return time.perf_counter() - started


def _counters(run) -> Dict[str, float]:
    """Exact simulated boundary counters of one body execution."""
    results = run.results

    def host(key: str) -> int:
        return sum(r.host_counters.get(key, 0) for r in results)

    def vfid(key: str) -> int:
        return sum(r.vfid_stats.get(key, 0) for r in results)

    def records(result) -> int:
        stats = result.flow_stats
        return stats.total if hasattr(stats, "total") else len(stats.records)

    events = sum(r.events_processed for r in results)
    packets = host("data_packets_received")
    offered = sum(r.flows_offered for r in results)
    return {
        "sim.engine.events": events,
        # A run that delivers nothing fails `_check`; keep its counters finite.
        "sim.engine.events_per_packet": events / packets if packets else 0.0,
        "sim.switch.forwarded_packets": sum(
            r.switch_counters.get("forwarded_packets", 0) for r in results
        ),
        "sim.switch.dropped_packets": sum(r.dropped_packets for r in results),
        "core.pauses": vfid("pauses"),
        "core.resumes": vfid("resumes"),
        "core.bloom_frames_sent": vfid("bloom_frames_sent"),
        "core.table_inserts": vfid("table_inserts"),
        "core.vfid_collisions": vfid("vfid_collisions"),
        "core.max_active_entries": max(
            r.vfid_stats.get("max_active_entries", 0) for r in results
        ),
        "sim.host.data_packets_sent": host("data_packets_sent"),
        "sim.host.data_packets_received": packets,
        "sim.host.acks_sent": host("acks_sent"),
        "sim.host.selective_retransmissions": host("selective_retransmissions"),
        "workloads.flows_offered": offered,
        "workloads.flows_unfinished": offered - host("flows_completed"),
        "results.records": sum(records(r) for r in results),
        "results.spill_bytes": run.extras.get("results.spill_bytes", 0),
        "campaign.trials": len(results),
        "sim.p99_slowdown": results[run.primary].p99_slowdown(),
    }


def _check(run) -> List[str]:
    """Invariants every trial of every workload must satisfy."""
    problems = list(run.problems)
    for result in run.results:
        name = result.config.name
        host = result.host_counters
        if result.scheme.startswith("BFC") and result.dropped_packets:
            problems.append(f"{name}: BFC dropped {result.dropped_packets} packets")
        started, completed = host.get("flows_started", 0), host.get("flows_completed", 0)
        if not completed <= started == result.flows_offered:
            problems.append(
                f"{name}: flows completed {completed} / started {started} / "
                f"offered {result.flows_offered} break completed <= started == offered"
            )
        sent, received = host.get("data_packets_sent", 0), host.get("data_packets_received", 0)
        if not 0 < received <= sent:
            problems.append(f"{name}: {received} data packets received of {sent} sent")
    return problems


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _unresolved(q1: float, median: float, q3: float, bound: float) -> bool:
    """True when IQR / median exceeds ``bound`` (or there is no median to divide by)."""
    return median == 0 or (q3 - q1) / abs(median) > bound


def _peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it waited for."""
    peak_kb = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return peak_kb / 1024.0


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _stamp(seed: int, quick: bool) -> Dict[str, object]:
    import repro
    from repro.sim.engine import ENGINE_BACKEND
    from workloads import campaign_cores

    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cores_used": campaign_cores(),
        "engine_backend": ENGINE_BACKEND,
        "repro_version": repro.__version__,
        "git_sha": _git_sha(),
        "seed": seed,
        "quick": quick,
    }


def _time_setup(
    workload, build_simulation, trace_seed: int, quick: bool, scratch: str, once: bool
) -> float:
    """Median time of a standalone ``build_simulation`` of the workload's trials."""
    samples: List[float] = []
    slice_started = time.perf_counter()
    while not samples or (
        not once
        and len(samples) < MAX_SETUP_SAMPLES_PER_SLICE
        and (len(samples) < 2 or time.perf_counter() - slice_started < SETUP_SLICE_S)
    ):
        configs = workload.configs(trace_seed, quick, scratch)
        started = time.perf_counter()
        built = [build_simulation(config) for config in configs]
        samples.append(time.perf_counter() - started)
        # A built simulation is a web of reference cycles; collect it now so
        # that set-up garbage does not pile up into the body's peak RSS.
        del built
        gc.collect()
    return statistics.median(samples)


class _Audit:
    """Counts trials and check failures; the first pass is the reference."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.problems: List[str] = []
        #: trace seed -> the counters of the first pass at that seed
        self.reference: Dict[int, Dict[str, float]] = {}

    def admit(self, run, trace_seed: int, label: str) -> Dict[str, float]:
        found = _check(run)
        counters = _counters(run)
        if counters != self.reference.setdefault(trace_seed, counters):
            found.append(
                f"{label}: simulated counters differ from the first pass at "
                f"trace seed {trace_seed}"
            )
        self.attempted += len(run.results)
        self.failed += len(run.results) if found else 0
        self.problems += found
        return counters


def measure(spec, workload_name: str, seed: int, seconds: float, trace: bool, quick: bool):
    """Measure one workload in this process and return its result document."""
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"{SRC / 'repro'} is missing: the observatory measures this checkout's source")
    sys.path.insert(0, str(SRC))
    import_started = time.perf_counter()
    from repro.experiments.runner import build_simulation
    import layers
    from workloads import WORKLOADS, trace_seeds

    import_s = time.perf_counter() - import_started
    workload = WORKLOADS[workload_name]
    seeds = trace_seeds(seed)
    # A traced pass costs ~3.4x an untraced one: a traced invocation makes
    # one untraced reference pass and one traced pass, both at seeds[0].
    once = trace or quick
    scratch = tempfile.mkdtemp(prefix=".observatory-", dir=ROOT)
    audit = _Audit()
    try:
        # End-to-end repeats, tracing off, cycling through the trace seeds:
        # at least one full cycle, then until the window is spent.
        setup_samples: List[float] = []
        walls: List[float] = []
        rates: List[float] = []
        overheads: List[float] = []
        calibs: List[float] = []
        window_started = time.perf_counter()
        while not walls or (
            not once
            and (len(walls) < len(seeds) or time.perf_counter() - window_started < seconds)
        ):
            trace_seed = seeds[len(walls) % len(seeds)]
            setup_samples.append(
                _time_setup(workload, build_simulation, trace_seed, quick, scratch, once)
            )
            workdir = tempfile.mkdtemp(dir=scratch)
            calibs.append(_calibrate())
            started = time.perf_counter()
            run = workload.body(trace_seed, quick, workdir, False)
            wall = time.perf_counter() - started
            shutil.rmtree(workdir, ignore_errors=True)
            counters = audit.admit(run, trace_seed, f"repeat {len(walls) + 1}")
            walls.append(wall)
            rates.append(counters["sim.host.data_packets_received"] / wall)
            trial_wall = sum(r.wall_seconds for r in run.results)
            overheads.append(wall - trial_wall / run.slots)
        read_s = run.extras.get("results.read_s", 0.0)
        peak_rss_mb = _peak_rss_mb()

        offered = sum(c["workloads.flows_offered"] for c in audit.reference.values())
        unfinished = sum(c["workloads.flows_unfinished"] for c in audit.reference.values())
        end_to_end = {
            "setup_s": setup_samples,
            "packets_per_s": rates,
            "peak_rss_mb": [peak_rss_mb],
            "flows_completed_frac": [(offered - unfinished) / offered if offered else 0.0],
        }

        per_layer: Optional[Dict[str, float]] = None
        trace_detail = None
        if trace:
            workdir = tempfile.mkdtemp(dir=scratch)
            profile = cProfile.Profile()
            started = time.perf_counter()
            profile.enable()
            try:
                run = workload.body(seeds[0], quick, workdir, True)
            finally:
                profile.disable()
            traced_wall = time.perf_counter() - started
            counters = audit.admit(run, seeds[0], "traced pass")
            folded = layers.fold(profile.getstats(), str(SRC / "repro"))
            packets = counters["sim.host.data_packets_received"]
            per_layer = dict(counters)
            for layer, row in folded["layers"].items():
                per_layer[f"{layer}.calls"] = row["calls"]
                per_layer[f"{layer}.self_s"] = row["self_s"]
                per_layer[f"{layer}.share"] = row["self_s"] / folded["total_s"]
                per_layer[f"{layer}.ns_per_packet"] = (
                    row["self_s"] * 1e9 / packets if packets else 0.0
                )
            # Simulated quantities and call counts repeat bit for bit at a
            # seed; every other per-layer number is a host time.
            exact_names = set(counters) | {f"{layer}.calls" for layer in folded["layers"]}
            for phase, span in folded["phases"].items():
                per_layer[f"phase.{phase}_s"] = span
            per_layer["phase.import_s"] = import_s
            per_layer["phase.body_s"] = statistics.median(walls)
            per_layer["results.read_s"] = read_s
            per_layer["campaign.overhead_s"] = statistics.median(overheads)
            # Trial bodies only: the traced campaign runs its trials in this
            # process, the untraced one on a pool, so whole-body walls differ
            # by more than the tracing.
            per_layer["trace.overhead_ratio"] = (
                sum(r.wall_seconds for r in run.results) / trial_wall
            )
            per_layer["host.calib_s"] = statistics.median(calibs)
            trace_detail = {
                "traced_wall_s": traced_wall,
                "profiled_s": folded["total_s"],
                "phases": folded["phases"],
                "edges": folded["edges"],
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    document = {
        "stamp": _stamp(seed, quick),
        "workload": workload_name,
        "trace_seeds": seeds[:1] if once else seeds,
        "correct": not audit.problems,
        "attempted": audit.attempted,
        "failed": audit.failed,
        "problems": audit.problems,
        "host_calib_s": calibs,
        # Simulated counters per trace seed: exact, so that `--compare` of two
        # untraced runs at one seed shows any change of simulated behaviour.
        "exact": {str(trace_seed): c for trace_seed, c in audit.reference.items()},
        "end_to_end": {},
    }
    for name, samples in end_to_end.items():
        q1, median, q3 = _quartiles(samples)
        document["end_to_end"][name] = {
            "value": median,
            "unit": units[name],
            "q1": q1,
            "q3": q3,
            "n": len(samples),
            "unresolved": _unresolved(q1, median, q3, bounds[name]),
        }
    if per_layer is not None:
        document["per_layer"] = {
            name: {"value": value, "unit": units[name], "exact": name in exact_names}
            for name, value in per_layer.items()
        }
        document["trace"] = trace_detail
    return document


def print_document(document: Dict[str, object]) -> None:
    traced = "per_layer" in document
    print(f"== {document['workload']}  (seed {document['stamp']['seed']}{', traced' if traced else ''})")
    # A traced invocation makes one untraced pass only: its end-to-end
    # numbers are a reference for the overhead, not a measurement.
    for name, m in ({} if traced else document["end_to_end"]).items():
        flag = "  unresolved" if m["unresolved"] else ""
        print(
            f"  {name:<24} {m['value']:>14.6g} {m['unit']:<6} "
            f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n {m['n']}{flag}"
        )
    for name, m in document.get("per_layer", {}).items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    for problem in document["problems"]:
        print(f"  CHECK FAILED: {problem}")


def result_line(document: Dict[str, object], trace: bool) -> str:
    """The one-line result the ``BENCHMARK.json`` driver reads."""
    metrics = document["per_layer"] if trace else document["end_to_end"]
    return json.dumps(
        {
            "correct": document["correct"],
            "attempted": document["attempted"],
            "failed": document["failed"],
            "metrics": {
                name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()
            },
        }
    )


# ---------------------------------------------------------------------------
# The suite: every workload in a fresh subprocess
# ---------------------------------------------------------------------------


def _measure_in_subprocess(command: List[str], workload: str, scratch: str) -> Dict[str, object]:
    """Run one measuring process; a process that did not measure is a failed workload."""
    # Without this a crashed child would leave the previous child's document
    # in place, to be read as this workload's.
    if os.path.exists(scratch):
        os.unlink(scratch)
    done = subprocess.run(command, capture_output=True, text=True)
    document = None
    if done.returncode in (0, 1):
        try:
            with open(scratch, encoding="utf-8") as result:
                document = json.load(result)
        except (OSError, ValueError):
            pass
    if document is None or document.get("workload") != workload:
        problem = (
            f"measuring process exited with {done.returncode} and no result: "
            + " | ".join(done.stderr.strip().splitlines()[-3:])
        )
        print(f"== {workload}\n  CHECK FAILED: {problem}")
        return {
            "workload": workload, "correct": False, "attempted": 1, "failed": 1,
            "problems": [problem], "exact": {}, "end_to_end": {},
        }
    sys.stderr.write(done.stderr)
    sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")  # all but the result line
    return document


def run_suite(spec, args) -> Dict[str, object]:
    suite: Dict[str, object] = {"stamp": None, "workloads": {}}
    handle, scratch = tempfile.mkstemp(prefix=".observatory-", suffix=".json", dir=ROOT)
    os.close(handle)
    try:
        for workload in [w["name"] for w in spec["workloads"]]:
            for trace in (0, 1) if args.trace else (0,):
                command = [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                    "--json", scratch,
                ] + (["--quick"] if args.quick else [])
                document = _measure_in_subprocess(command, workload, scratch)
                suite["stamp"] = document.pop("stamp", suite["stamp"])
                merged = suite["workloads"].setdefault(workload, document)
                if merged is not document:
                    # The traced invocation contributes the per-layer numbers;
                    # end-to-end numbers stay those taken with tracing off.
                    for key in ("per_layer", "trace"):
                        if key in document:
                            merged[key] = document[key]
                    merged["correct"] = merged["correct"] and document["correct"]
                    merged["problems"] += document["problems"]
    finally:
        if os.path.exists(scratch):
            os.unlink(scratch)
    return suite


# ---------------------------------------------------------------------------
# Comparing two sets of runs
# ---------------------------------------------------------------------------


def compare(spec, paths_a: str, paths_b: str) -> int:
    """Print B against base A; return the number of regressed/changed rows.

    Each side is one result file or several separated by commas (the runs of
    a paired comparison).  A side's value is the median over its files; it
    is unresolved when the IQR over its files — for a single file, over that
    run's own repeats — is a larger share of the median than the bound.
    Where all files were measured at one ``--seed``, the simulated counters
    and call counts of the two sides' first files are compared bit for bit.
    """

    seeds = set()

    def load(paths: str) -> List[Dict[str, object]]:
        docs = []
        for path in paths.split(","):
            with open(path, encoding="utf-8") as handle:
                suite = json.load(handle)
            seeds.add((suite["stamp"] or {}).get("seed"))  # no stamp: every workload crashed
            docs.append(suite["workloads"])
        return docs

    def side(docs, workload: str, metric) -> Tuple[List[float], bool]:
        runs = [doc[workload]["end_to_end"].get(metric["name"]) for doc in docs]
        if None in runs:  # a workload that crashed has no metrics
            return [], True
        values = [run["value"] for run in runs]
        if len(values) == 1:
            return values, runs[0]["unresolved"]
        return values, _unresolved(*_quartiles(values), metric["bound"])

    def exact_values(run, traced: bool) -> Dict[str, object]:
        """Every number of a run that repeats bit for bit at a seed."""
        values = {
            f"{name} @ trace seed {trace_seed}": value
            for trace_seed, counters in run["exact"].items()
            for name, value in counters.items()
        }
        if traced:
            values.update(
                (name, m["value"]) for name, m in run["per_layer"].items() if m["exact"]
            )
        return values

    a_docs, b_docs = load(paths_a), load(paths_b)
    paired = len(a_docs) == len(b_docs) > 1
    bad = 0
    print(
        f"{'workload':<16} {'metric':<22} {'A (base)':>12} {'B':>12} {'B/A':>8}  "
        + ("B wins  " if paired else "")
        + "verdict"
    )
    for workload in [w["name"] for w in spec["workloads"]]:
        if not all(workload in doc for doc in a_docs + b_docs):
            continue
        for metric in spec["end_to_end"]:
            (a_values, a_open), (b_values, b_open) = (
                side(a_docs, workload, metric), side(b_docs, workload, metric)
            )
            if not a_values or not b_values:
                bad += 1
                print(f"{workload:<16} {metric['name']:<22} {'not measured on one side':>34}  missing")
                continue
            a, b = statistics.median(a_values), statistics.median(b_values)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            if a_open or b_open:
                verdict = "unresolved"
            elif sign * (b - a) > metric["bound"] * abs(a):
                verdict = "regressed"
                bad += 1
            else:
                verdict = "ok"
            wins = sum(sign * (y - x) < 0 for x, y in zip(a_values, b_values))
            print(
                f"{workload:<16} {metric['name']:<22} {a:>12.6g} {b:>12.6g} "
                f"{b / a if a else float('nan'):>8.4f}  "
                + (f"{wins:>2}/{len(a_values):<4} " if paired else "")
                + verdict
            )
        if len(seeds) > 1:
            continue
        a_run, b_run = a_docs[0][workload], b_docs[0][workload]
        # A traced file against an untraced one still compares the counters.
        traced = "per_layer" in a_run and "per_layer" in b_run
        a_exact, b_exact = exact_values(a_run, traced), exact_values(b_run, traced)
        if not a_exact or not b_exact:  # a crashed side: reported as missing above
            continue
        changed = [name for name in a_exact if b_exact.get(name) != a_exact[name]]
        print(f"{workload:<16} exact metrics: {len(a_exact) - len(changed)} of {len(a_exact)} identical")
        for name in changed:
            bad += 1
            print(f"{workload:<16} {name:<48} {a_exact[name]!r} -> {b_exact.get(name)!r}  changed")
    return bad


# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: add a traced pass and report the per-layer metrics",
    )
    parser.add_argument("--quick", action="store_true", help="tiny scale, one repeat (tests)")
    parser.add_argument("--json", metavar="OUT", help="write the full result document here")
    parser.add_argument(
        "--compare", nargs=2, metavar=("A.json", "B.json"),
        help="verdicts for B against base A; a side may be several files joined by commas",
    )
    args = parser.parse_args(argv)

    if args.compare:
        return 1 if compare(spec, *args.compare) else 0
    if args.workload is None:
        document = run_suite(spec, args)
        correct = all(w["correct"] for w in document["workloads"].values())
    else:
        document = measure(
            spec, args.workload, args.seed, args.seconds, bool(args.trace), args.quick
        )
        print_document(document)
        correct = document["correct"]
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
    if args.workload is not None:
        print(result_line(document, bool(args.trace)))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
