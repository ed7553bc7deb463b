#!/usr/bin/env python3
"""Cross-data-center example: two fabrics joined by a long-delay gateway link.

Reproduces the spirit of the paper's Fig. 9 as a runnable example: two
leaf-spine data centers are connected through gateway switches over a
high-bandwidth link with a large propagation delay; 20% of the FB_Hadoop
flows cross between the data centers.  The per-scheme runs execute as one
campaign (pass a core count to run them in parallel) and the script reports
tail latency for intra- and inter-DC flows under BFC and DCQCN+Win.

Run with::

    python examples/cross_datacenter.py [tiny|small] [cores|auto]
"""

from __future__ import annotations

import sys

from repro.analysis.fct import summarize_slowdowns
from repro.analysis.report import format_comparison_table
from repro.experiments.figures import FIGURES


def main() -> int:
    scale = sys.argv[1] if len(sys.argv) > 1 else "tiny"
    cores = sys.argv[2] if len(sys.argv) > 2 else 1
    schemes = ("BFC", "DCQCN+Win")
    print(f"Cross-DC experiment at scale {scale!r} for {schemes} (cores={cores}) ...")

    result_set = FIGURES["fig9"].campaign(scale, schemes=schemes).run(cores=cores)
    rows = {}
    for scheme, result in result_set.experiment_results_by_label().items():
        intra = [r for r in result.flow_stats.records if r.tag == "intra-dc"]
        inter = [r for r in result.flow_stats.records if r.tag == "inter-dc"]
        intra_stats = summarize_slowdowns(intra)
        inter_stats = summarize_slowdowns(inter)
        rows[scheme] = {
            "intra p50": intra_stats["p50"],
            "intra p99": intra_stats["p99"],
            "inter p50": inter_stats["p50"],
            "inter p99": inter_stats["p99"],
        }
        print(
            f"  {scheme:<10s} completed={100 * result.completion_rate():5.1f}%  "
            f"intra p99={intra_stats['p99']:6.2f}  inter p99={inter_stats['p99']:6.2f}"
        )

    print()
    print(
        format_comparison_table(
            "FCT slowdown, intra- vs inter-data-center flows (FB_Hadoop, 65% load)",
            rows,
            columns=["intra p50", "intra p99", "inter p50", "inter p99"],
            fmt="{:.2f}",
        )
    )
    print(
        "The paper's claim: because BFC reacts at the one-hop RTT timescale, "
        "inter-DC flows stay close to ideal and do not disturb intra-DC "
        "traffic, while DCQCN's end-to-end loop spans the long gateway link."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
