"""CI gate: compare a fresh kernel-throughput run against the committed baseline.

``BENCH_kernel_throughput.json`` (repository root) is the committed baseline,
regenerated by every PR that touches kernel code.  CI's ``bench-smoke`` job
runs the benchmark on the PR's code and uploads ``kernel-throughput.json``;
the ``bench-regression`` job then calls this script to fail the build when a
scheme got slower.

The gate judges **packets/sec** (delivered packets per wall-clock second),
not events/sec: event fusion changes how many engine events one packet
costs, so events/sec silently "regresses" (or "improves") across
kernels that do identical work per packet — see docs/benchmarking.md.
Packets/sec is only comparable within one machine, and CI runners are not the
machine the baseline was committed from.  The gate therefore normalizes each
per-scheme ratio (current / baseline) by the *best* scheme's ratio, which
estimates the machine-speed factor: a uniformly faster or slower machine
cancels out exactly, while a regression that hits one scheme's kernel (e.g.
the BFC dequeue path) shows up as that scheme's full relative drop.  (The
geometric mean would dilute a single-scheme regression by a factor of
``N/(N-1)`` in log space — with the two benchmarked schemes, a 25% floor
would actually tolerate a ~44% drop.)  The limitation is deliberate and
documented: a *uniform* slowdown across every scheme is indistinguishable
from a slow runner, so same-machine comparisons should add ``--absolute``
(which additionally gates the raw ratios — useful locally, where baseline
and current really do come from one machine).

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py \
        --baseline BENCH_kernel_throughput.json \
        --current kernel-throughput.json [--threshold 0.25] [--absolute]

Exit status 0 when every scheme passes, 1 on regression (or schema mismatch).
A markdown comparison table is printed, and appended to the CI job summary
when ``GITHUB_STEP_SUMMARY`` is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "BENCH_kernel_throughput.json"

#: Fail when a scheme's normalized packets/sec ratio drops more than this far
#: below 1.0 (25% — wide enough for shared-runner noise on the tiny slice).
DEFAULT_THRESHOLD = 0.25


class RegressionCheckError(Exception):
    """Input files unusable for a comparison (missing schemes, bad JSON)."""


def load_report(path: Path) -> Dict[str, object]:
    try:
        with open(path, "r", encoding="ascii") as handle:
            report = json.load(handle)
    except (OSError, ValueError) as exc:
        raise RegressionCheckError(f"cannot read benchmark JSON {path}: {exc}")
    schemes = report.get("schemes")
    if not isinstance(schemes, dict) or not schemes:
        raise RegressionCheckError(f"{path} has no per-scheme results")
    for scheme, sample in schemes.items():
        if not isinstance(sample, dict) or "packets_per_sec" not in sample:
            raise RegressionCheckError(f"{path}: scheme {scheme!r} lacks packets_per_sec")
    return report


def compare(
    baseline: Dict[str, object],
    current: Dict[str, object],
    threshold: float = DEFAULT_THRESHOLD,
    absolute: bool = False,
) -> Dict[str, object]:
    """Build the comparison table and verdict for two benchmark reports."""
    base_schemes = baseline["schemes"]
    cur_schemes = current["schemes"]
    shared = [s for s in base_schemes if s in cur_schemes]
    if not shared:
        raise RegressionCheckError(
            f"no schemes in common (baseline: {sorted(base_schemes)}, "
            f"current: {sorted(cur_schemes)})"
        )
    missing = sorted(set(base_schemes) - set(cur_schemes))
    ratios = {
        s: cur_schemes[s]["packets_per_sec"] / base_schemes[s]["packets_per_sec"]
        for s in shared
    }
    # The best scheme's ratio estimates the machine-speed factor (assuming
    # at least one scheme did not regress); each scheme is then judged by
    # its full relative drop against it, so a single-scheme regression is
    # not diluted the way a mean would dilute it.
    machine_factor = max(ratios.values())
    floor = 1.0 - threshold
    rows: List[Dict[str, object]] = []
    failures: List[str] = []
    for scheme in shared:
        ratio = ratios[scheme]
        normalized = ratio / machine_factor
        ok = normalized >= floor and (not absolute or ratio >= floor)
        rows.append(
            {
                "scheme": scheme,
                "baseline_pps": base_schemes[scheme]["packets_per_sec"],
                "current_pps": cur_schemes[scheme]["packets_per_sec"],
                "ratio": ratio,
                "normalized": normalized,
                "ok": ok,
            }
        )
        if not ok:
            failures.append(scheme)
    if missing:
        failures.extend(missing)
    return {
        "rows": rows,
        "missing": missing,
        "machine_factor": machine_factor,
        "threshold": threshold,
        "absolute": absolute,
        "failures": failures,
        "passed": not failures,
    }


def format_table(result: Dict[str, object], baseline_path, current_path) -> str:
    lines = [
        "### Kernel throughput regression check",
        "",
        f"baseline: `{baseline_path}` · current: `{current_path}` · "
        f"machine factor (best scheme ratio): {result['machine_factor']:.3f} · "
        f"floor: {1.0 - result['threshold']:.2f}"
        + (" · absolute mode" if result["absolute"] else ""),
        "",
        "| scheme | baseline pkt/s | current pkt/s | ratio | normalized | verdict |",
        "|---|---:|---:|---:|---:|---|",
    ]
    for row in result["rows"]:
        lines.append(
            "| {scheme} | {baseline_pps:,.0f} | {current_pps:,.0f} | "
            "{ratio:.3f} | {normalized:.3f} | {verdict} |".format(
                verdict="✅ ok" if row["ok"] else "❌ regression", **row
            )
        )
    for scheme in result["missing"]:
        lines.append(f"| {scheme} | — | missing | — | — | ❌ missing |")
    lines.append("")
    if result["passed"]:
        lines.append("**PASS** — no scheme regressed beyond the floor.")
    else:
        lines.append(
            "**FAIL** — regressed schemes: " + ", ".join(result["failures"])
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help=f"committed baseline JSON (default {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--current",
        type=Path,
        required=True,
        help="freshly produced kernel-throughput JSON to judge",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="maximum tolerated drop of the normalized ratio (default 0.25)",
    )
    parser.add_argument(
        "--absolute",
        action="store_true",
        help="also gate raw (un-normalized) ratios — use when baseline and "
        "current come from the same machine",
    )
    args = parser.parse_args(argv)

    try:
        baseline = load_report(args.baseline)
        current = load_report(args.current)
        result = compare(baseline, current, args.threshold, args.absolute)
    except RegressionCheckError as exc:
        print(f"check_regression: {exc}", file=sys.stderr)
        return 1

    table = format_table(result, args.baseline, args.current)
    print(table)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a", encoding="utf-8") as handle:
            handle.write(table + "\n")
    return 0 if result["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
