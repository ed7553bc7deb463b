#!/usr/bin/env python3
"""Workload explorer: the industry flow-size distributions behind the paper.

Prints, for each of the three workloads (Google, FB_Hadoop, WebSearch):

* basic statistics (mean size, share of flows below 1 KB and one BDP),
* the byte-weighted CDF from the paper's Fig. 4,
* the arrival rate needed to hit a target load on a chosen fabric, and a
  sample synthetic trace summary,

and finally shows how the workloads slot into a declarative campaign grid
(expansion only — nothing is simulated).

Run with::

    python examples/workload_explorer.py [load] [num_hosts] [gbps]
"""

from __future__ import annotations

import random
import sys

from repro.analysis.report import render_cdf_table
from repro.campaign import Campaign
from repro.sim import units
from repro.workloads.distributions import WORKLOADS, byte_weighted_cdf
from repro.workloads.generator import WorkloadSpec, generate_workload, load_to_arrival_rate


def main() -> int:
    load = float(sys.argv[1]) if len(sys.argv) > 1 else 0.6
    num_hosts = int(sys.argv[2]) if len(sys.argv) > 2 else 64
    gbps = float(sys.argv[3]) if len(sys.argv) > 3 else 100.0
    rate_bps = units.gbps(gbps)
    bdp = units.bandwidth_delay_product(rate_bps, units.microseconds(8))

    print(f"Fabric: {num_hosts} hosts at {gbps:g} Gbps, 8 us base RTT (BDP = {bdp/1e3:.0f} KB)")
    print(f"Target load: {load:.0%}\n")

    for name, distribution in WORKLOADS.items():
        mean = distribution.mean()
        print(f"=== {distribution.name} ===")
        print(f"  mean flow size:            {mean / 1e3:8.1f} KB")
        print(f"  flows <= 1 KB:             {100 * distribution.cdf(1_000):8.1f} %")
        print(f"  flows <= 1 BDP ({bdp/1e3:.0f} KB):  {100 * distribution.cdf(bdp):8.1f} %")
        rate = load_to_arrival_rate(load, num_hosts, rate_bps, mean)
        print(f"  arrival rate for {load:.0%} load: {rate:10.0f} flows/s "
              f"({rate / num_hosts:.0f} per host)")

        spec = WorkloadSpec(
            distribution=distribution,
            target_load=load,
            duration_ns=units.milliseconds(1),
        )
        trace = generate_workload(spec, list(range(num_hosts)), rate_bps, seed=1)
        achieved = trace.offered_load(num_hosts, rate_bps, spec.duration_ns)
        print(f"  1 ms synthetic trace:      {len(trace):6d} flows, "
              f"{trace.total_bytes() / 1e6:.1f} MB, offered load {achieved:.2f}")

        sizes = distribution.sample_many(random.Random(0), 5)
        print(f"  example sampled sizes:     {[f'{s}B' for s in sizes]}")
        print()

    print(
        render_cdf_table(
            "Figure 4: byte-weighted CDF of flow sizes",
            {name: byte_weighted_cdf(dist) for name, dist in WORKLOADS.items()},
            value_label="flow size (bytes)",
        )
    )
    print(
        "Note how the Google workload keeps the majority of its *bytes* in "
        "flows that fit within a single BDP — the regime in which the paper "
        "argues end-to-end congestion control runs out of room to react."
    )

    # The same distributions drive the campaign grid: one axis of the sweep.
    campaign = (
        Campaign("explore")
        .schemes("BFC", "DCQCN")
        .sweep(workload=sorted(WORKLOADS), load=[0.6, 0.8])
        .repeats(2)
    )
    trials = campaign.trials()
    print()
    print(
        f"A campaign over these workloads "
        f"({{2 schemes}} x {{{len(WORKLOADS)} workloads}} x {{2 loads}} x {{2 repeats}}) "
        f"expands to {len(trials)} named trials, e.g.:"
    )
    for trial in trials[:4]:
        print(f"  {trial.name}  (seed={trial.seed})")
    print("  ...")
    print("Run the single-workload slices with: repro campaign --schemes BFC DCQCN "
          "--workload fb_hadoop --load 0.6 0.8 --repeats 2 --cores 4")
    print("(the workload axis itself is swept via the Python API, as above)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
