"""Backpressure Flow Control (BFC) — reproduction library.

This package reproduces "Backpressure Flow Control" (Goyal et al., NSDI 2022)
in pure Python:

* :mod:`repro.sim` — a from-scratch packet-level discrete-event network
  simulator (links, shared-buffer switches, PFC, RDMA-style NICs with
  Go-Back-N).
* :mod:`repro.core` — BFC itself: dynamic flow-to-queue assignment, per-flow
  hop-by-hop pauses signalled with counting Bloom filters, the high-priority
  queue for single-packet flows, and the paper's ablation variants.
* :mod:`repro.congestion` — the end-to-end baselines (DCQCN, DCQCN+Win, HPCC).
* :mod:`repro.topology` — leaf-spine (T1/T2) and cross-data-center fabrics.
* :mod:`repro.workloads` — Google / FB_Hadoop / WebSearch traces, incast.
* :mod:`repro.analysis` — FCT slowdown, buffer occupancy and pause analysis.
* :mod:`repro.experiments` — the pluggable scheme registry
  (``@register_scheme``), the single-run experiment runner and the
  per-figure scenarios.
* :mod:`repro.campaign` — the high-level API: declarative campaigns
  ({scheme x sweep x repeats} grids) run through serial or process-pool
  executors into tidy, JSONL-persistable result sets.

Quickstart::

    from repro.campaign import Campaign

    results = (
        Campaign("demo")
        .schemes("BFC", "DCQCN")
        .sweep(load=[0.6, 0.8])
        .repeats(2)
        .run(cores=4)            # process pool; same records as serial
    )
    print(results.p99_slowdown_by("scheme", "load"))
    results.save("demo.jsonl")   # tidy per-trial records, reload anytime

The paper's figures are ready-made campaigns::

    from repro.experiments.figures import FIGURES

    result_set = FIGURES["fig5a"].campaign("tiny", schemes=["BFC", "DCQCN"]).run()
    for record in result_set:
        print(record.label, record.metrics["p99_slowdown"])

Single runs remain available one level down via
:func:`repro.experiments.run_experiment`.
"""

__version__ = "1.1.0"

from . import analysis, campaign, congestion, core, experiments, sim, topology, workloads

__all__ = [
    "__version__",
    "sim",
    "core",
    "congestion",
    "topology",
    "workloads",
    "analysis",
    "experiments",
    "campaign",
]
