#!/usr/bin/env python3
"""Full scheme comparison on one workload, including the BFC ablations.

Runs every registered scheme — the paper's headline comparison set plus the
ablation variants (BFC-VFID, BFC-HighPriorityQ, BFC-BufferOpt, SFQ+InfBuffer,
plain PFC) — on the same trace and prints a per-flow-size tail-latency table
together with buffer / pause / collision summaries.

The whole grid is one declarative :class:`repro.campaign.Campaign`; because
every registered scheme appears as one trial, this is also where a
third-party scheme added with ``@register_scheme`` shows up automatically.

Run with::

    python examples/scheme_comparison.py [tiny|small] [google|fb_hadoop|websearch] [cores|auto]
"""

from __future__ import annotations

import sys

from repro.analysis.report import format_comparison_table, format_series_table
from repro.campaign import Campaign
from repro.experiments.schemes import available_schemes


def main() -> int:
    scale_name = sys.argv[1] if len(sys.argv) > 1 else "tiny"
    workload_name = sys.argv[2] if len(sys.argv) > 2 else "google"
    cores = sys.argv[3] if len(sys.argv) > 3 else 1
    print(
        f"Comparing {len(available_schemes())} schemes on the "
        f"{workload_name!r} workload at scale {scale_name!r} (cores={cores}) ..."
    )

    result_set = (
        Campaign("compare", scale=scale_name, workload=workload_name)
        .schemes(*available_schemes())
        .fixed(load=0.6, incast=0.05)
        .run(cores=cores)
    )
    results = result_set.experiment_results_by_label()
    for record in result_set:
        print(
            f"  {record.label:<18s} p99={record.metrics['p99_slowdown']:7.2f}  "
            f"mean={record.metrics['mean_slowdown']:5.2f}  "
            f"drops={int(record.metrics['dropped_packets']):4d}  "
            f"completed={100 * record.metrics['completion_rate']:5.1f}%"
        )

    print()
    print(
        format_series_table(
            f"p99 FCT slowdown vs flow size ({workload_name}, 60% + 5% incast)",
            {scheme: result.slowdown_series() for scheme, result in results.items()},
        )
    )

    summary_rows = {}
    for record in result_set:
        summary_rows[record.label] = {
            "p99 slowdown": record.metrics["p99_slowdown"],
            "p99 buffer (KB)": record.metrics["p99_buffer_bytes"] / 1e3,
            "PFC pause %": 100 * record.metrics["max_pfc_pause_fraction"],
            "collision %": 100 * record.metrics["collision_fraction"],
            "drops": record.metrics["dropped_packets"],
        }
    print(
        format_comparison_table(
            "Scheme summary",
            summary_rows,
            columns=["p99 slowdown", "p99 buffer (KB)", "PFC pause %", "collision %", "drops"],
            fmt="{:.2f}",
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
