#!/usr/bin/env python3
"""Incast study: how utilization and buffering behave as fan-in grows.

Reproduces the spirit of the paper's Fig. 8 as a runnable example: every
receiver has a handful of long-lived flows, a periodic N-to-1 incast of fixed
aggregate size disturbs the fabric, and the fan-in N is swept.  The sweep runs
as a campaign (pass a core count to fan the trials out over processes) and
the script reports, per scheme and fan-in, the mean receiver utilization and
the 99th-percentile switch buffer occupancy.

Run with::

    python examples/incast_study.py [tiny|small] [cores|auto]
"""

from __future__ import annotations

import sys

from repro.analysis.report import format_comparison_table
from repro.experiments.figures import FIGURES


def main() -> int:
    scale = sys.argv[1] if len(sys.argv) > 1 else "tiny"
    cores = sys.argv[2] if len(sys.argv) > 2 else 1
    schemes = ("BFC", "DCQCN+Win")
    print(f"Incast fan-in sweep at scale {scale!r} for {schemes} (cores={cores}) ...")

    # Only the tidy records are read below, so skip retaining (and, with
    # cores > 1, shipping) the full per-trial results.
    result_set = FIGURES["fig8"].campaign(scale, schemes=schemes).run(
        cores=cores, keep_results=False
    )
    # Labels are "scheme/fan_in" (the nested config map, flattened).
    utilization = {}
    tail_buffer = {}
    for record in result_set:
        scheme, fan_in = record.label.rsplit("/", 1)
        utilization.setdefault(scheme, {})[fan_in] = record.metrics["mean_utilization"]
        tail_buffer.setdefault(scheme, {})[fan_in] = (
            record.metrics["p99_buffer_bytes"] / 1e6
        )
        print(
            f"  {scheme:<10s} fan-in={fan_in:<4s} "
            f"utilization={record.metrics['mean_utilization']:5.2f}  "
            f"p99 buffer={record.metrics['p99_buffer_bytes'] / 1e3:7.1f} KB  "
            f"drops={int(record.metrics['dropped_packets'])}"
        )

    columns = sorted(next(iter(utilization.values())).keys(), key=int)
    print()
    print(format_comparison_table("Mean receiver utilization vs fan-in", utilization, columns))
    print(format_comparison_table("p99 buffer occupancy (MB) vs fan-in", tail_buffer, columns))
    print(
        "The paper's claim: as fan-in grows, DCQCN+Win loses utilization and "
        "builds deep buffers, while BFC holds utilization near 100% by pausing "
        "incast flows hop by hop, all the way back to their sources."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
