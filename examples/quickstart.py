#!/usr/bin/env python3
"""Quickstart: compare BFC against DCQCN on a small leaf-spine fabric.

This is the smallest end-to-end use of the library's public API:

1. declare a campaign over the paper's headline workload (Fig. 5a: Google
   flow sizes, 60% load + 5% incast) restricted to a few schemes,
2. run it — serially, or across a process pool with ``cores > 1``,
3. print the tail-latency comparison from the returned result set.

Run with::

    python examples/quickstart.py [tiny|small] [cores|auto]
"""

from __future__ import annotations

import sys

from repro.analysis.report import format_series_table
from repro.experiments.figures import FIGURES


def main() -> int:
    scale = sys.argv[1] if len(sys.argv) > 1 else "tiny"
    cores = sys.argv[2] if len(sys.argv) > 2 else 1
    schemes = ["BFC", "DCQCN", "DCQCN+Win", "Ideal-FQ"]
    print(
        f"Running the Fig. 5a workload at scale {scale!r} for {schemes} "
        f"(cores={cores}) ..."
    )

    result_set = FIGURES["fig5a"].campaign(scale, schemes=schemes).run(cores=cores)
    results = result_set.experiment_results_by_label()
    for record in result_set:
        print(
            f"  {record.label:<10s} flows={int(record.metrics['flows_offered']):5d} "
            f"completed={100 * record.metrics['completion_rate']:5.1f}%  "
            f"p99 slowdown={record.metrics['p99_slowdown']:7.2f}  "
            f"drops={int(record.metrics['dropped_packets']):4d}  "
            f"({record.wall_seconds:.1f}s wall, "
            f"{int(record.metrics['events_processed'])} events)"
        )

    table = format_series_table(
        "p99 FCT slowdown vs flow size (Google workload, 60% load + 5% incast)",
        {scheme: result.slowdown_series() for scheme, result in results.items()},
    )
    print()
    print(table)

    tails = result_set.p99_slowdown_by("scheme")
    bfc_drops = int(result_set.record("fig5a/BFC").metrics["dropped_packets"])
    dcqcn_drops = int(result_set.record("fig5a/DCQCN").metrics["dropped_packets"])
    print(
        f"BFC cuts the overall p99 slowdown from {tails['DCQCN']:.1f}x "
        f"to {tails['BFC']:.1f}x while dropping "
        f"{bfc_drops} packets (DCQCN dropped {dcqcn_drops})."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
