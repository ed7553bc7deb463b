"""Command-line interface for the BFC reproduction.

The CLI wraps the campaign layer and the per-figure scenarios so that the
common workflows need no Python code:

``repro schemes`` (or ``python -m repro schemes``)
    List the available schemes and what they wire up.

``repro workloads``
    Describe the industry flow-size distributions (mean, sub-BDP share).

``repro run --scheme BFC --scale tiny``
    Run a single experiment (the Fig. 5a workload by default) and print a
    summary; ``--json`` emits machine-readable output.

``repro campaign --schemes BFC DCQCN --load 0.6 0.8 --repeats 2 --cores auto``
    Expand a {scheme x load x repeats} grid, run it (optionally across
    processes), print aggregated tables and optionally persist the per-trial
    records as JSONL (``--save``/``--resume``).  Also available as ``sweep``.
    ``--cores`` sets the CPU-slot budget (default 1: serial; a trial with
    ``shards=N`` occupies N slots); ``--dry-run`` prints the execution plan
    without simulating anything.

``repro figure fig5a --scale tiny --schemes BFC DCQCN``
    Run one of the figures registered in ``repro.experiments.figures`` and
    print its table and a summary; ``--schemes`` keeps some of its schemes.

``repro compare --scale tiny --schemes BFC DCQCN HPCC``
    Run several schemes on the same trace and print the comparison table.

``repro shard --shards 2 --scheme BFC --scale small``
    Run the cross-DC (Fig. 9) experiment space-parallel, one OS process per
    data center (conservative-window sharding cut at the inter-DC link;
    records are identical to a single-process run) and report the
    partition, window and barrier stats.

``repro topology info --scale tiny --figure fig9``
    Describe a scenario's topology (host/switch/link counts,
    oversubscription) and its per-DC shard partition.

``repro worker serve --port 8421``
    Run a distributed-campaign worker agent: a dumb HTTP service that
    executes one trial at a time for a coordinator.  Point a coordinator at
    a roster of these with ``repro campaign --workers-file hosts.txt``.

``repro report results.jsonl``
    Render the standard Markdown report (aggregate and p99-slowdown tables
    per sweep axis) for any campaign JSONL — the same report a workspace
    run (``--workspace``) writes automatically.  See ``docs/distributed.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Sequence

from repro.analysis.report import format_comparison_table, format_series_table
from repro.campaign import Campaign, CampaignError, summarize_result
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.experiments.schemes import SCHEMES, UnknownSchemeError, available_schemes
from repro.experiments import scenarios
from repro.experiments.figures import FIGURES
from repro.shard import PartitionError, ShardError
from repro.sim import units
from repro.workloads.distributions import WORKLOADS


def _cores_arg(value: str):
    """``--cores`` accepts a positive integer or the word ``auto``."""
    if value == "auto":
        return "auto"
    try:
        cores = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}"
        ) from None
    if cores < 1:
        raise argparse.ArgumentTypeError(f"cores must be >= 1, got {cores}")
    return cores


CORES_HELP = (
    "CPU-slot budget (default 1: serial, in this process); a trial with "
    "shards=N counts as N slots; 'auto' detects the usable cores"
)
DRY_RUN_HELP = "print the longest-first dispatch order and exit without running"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Backpressure Flow Control (BFC) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("schemes", help="list available congestion-control schemes")

    sub.add_parser("workloads", help="describe the industry workload distributions")

    run = sub.add_parser("run", help="run a single experiment and print a summary")
    run.add_argument("--scheme", default="BFC", choices=available_schemes())
    run.add_argument("--scale", default="tiny", choices=["tiny", "small", "paper"])
    run.add_argument("--workload", default="google", choices=sorted(WORKLOADS))
    run.add_argument("--load", type=float, default=0.6, help="offered load (fraction)")
    run.add_argument("--incast", type=float, default=0.05,
                     help="incast load fraction (0 disables incast)")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--json", action="store_true", help="emit JSON instead of text")

    campaign = sub.add_parser(
        "campaign",
        aliases=["sweep"],
        help="run a declarative {scheme x sweep x repeats} campaign",
        # A stale "--workers N" must fail, not abbreviate --workers-file.
        allow_abbrev=False,
    )
    campaign.add_argument("name", nargs="?", default="campaign",
                          help="campaign name (prefixes every trial name)")
    campaign.add_argument("--schemes", nargs="+", default=["BFC", "DCQCN"],
                          choices=available_schemes())
    campaign.add_argument("--scale", default="tiny", choices=["tiny", "small", "paper"])
    campaign.add_argument("--workload", default="google", choices=sorted(WORKLOADS))
    campaign.add_argument("--load", type=float, nargs="+", default=[0.6],
                          help="offered load(s); several values form a sweep axis")
    campaign.add_argument("--incast", type=float, nargs="+", default=[0.05],
                          help="incast load(s); 0 disables incast")
    campaign.add_argument("--repeats", type=int, default=1,
                          help="repeats per grid point (seeds derived per repeat)")
    campaign.add_argument("--seed", type=int, default=1, help="base seed")
    campaign.add_argument("--cores", type=_cores_arg, default=None, metavar="N|auto",
                          help=CORES_HELP)
    campaign.add_argument("--dry-run", action="store_true", help=DRY_RUN_HELP)
    campaign.add_argument("--save", default=None, metavar="PATH",
                          help="write per-trial records to this JSONL file")
    campaign.add_argument("--resume", default=None, metavar="PATH",
                          help="JSONL file of a previous run; recorded trials are skipped")
    campaign.add_argument("--workers-file", default=None, metavar="PATH",
                          help="distribute trials over the worker agents listed in "
                               "this file (one http://host:port per line, started "
                               "with 'repro worker serve'); replaces --cores")
    campaign.add_argument("--token", default=None,
                          help="shared secret sent to workers (X-Repro-Token)")
    campaign.add_argument("--workspace", default=None, metavar="DIR",
                          help="land the run in a timestamped experiment workspace "
                               "under DIR: results.jsonl + artifacts + manifest.json + "
                               "report.md (replaces --save/--resume)")
    campaign.add_argument("--json", action="store_true")

    figure = sub.add_parser("figure", help="run one of the paper's figures")
    figure.add_argument("name", choices=sorted(FIGURES))
    figure.add_argument("--scale", default="tiny", choices=["tiny", "small", "paper"])
    figure.add_argument("--schemes", nargs="*", default=None,
                        help="restrict to these of the figure's schemes")
    figure.add_argument("--seed", type=int, default=1)
    figure.add_argument("--cores", type=_cores_arg, default=None, metavar="N|auto",
                        help=CORES_HELP)
    figure.add_argument("--dry-run", action="store_true", help=DRY_RUN_HELP)
    figure.add_argument("--json", action="store_true")

    shard = sub.add_parser(
        "shard",
        help="run the cross-DC experiment one process per data center",
    )
    shard.add_argument("--scheme", default="BFC", choices=available_schemes())
    shard.add_argument("--scale", default="tiny", choices=["tiny", "small", "paper"])
    shard.add_argument("--seed", type=int, default=1)
    shard.add_argument("--shards", type=int, default=2,
                       help="1 = plain single-process run; 2 = one process per DC")
    shard.add_argument("--json", action="store_true")

    topology = sub.add_parser(
        "topology", help="inspect a scenario's topology and per-DC shard partition"
    )
    topology.add_argument("action", choices=["info"])
    topology.add_argument("--figure", default="fig5a",
                          choices=sorted(FIGURES),
                          help="scenario whose topology to describe (fig9 = cross-DC)")
    topology.add_argument("--scale", default="tiny", choices=["tiny", "small", "paper"])
    topology.add_argument("--json", action="store_true")

    openloop = sub.add_parser(
        "openloop",
        help="run an open-loop cross-DC experiment (streams records to disk)",
    )
    openloop.add_argument("--scheme", default="BFC", choices=available_schemes())
    openloop.add_argument("--scale", default="tiny", choices=["tiny", "small", "paper"])
    openloop.add_argument("--flows", type=int, default=20_000,
                          help="number of flow arrivals to offer")
    openloop.add_argument("--users", type=int, default=1_000_000,
                          help="modelled user population (superposed Poisson)")
    openloop.add_argument("--load", type=float, default=0.5,
                          help="offered load fraction of fabric capacity")
    openloop.add_argument("--seed", type=int, default=1)
    openloop.add_argument("--results-dir", default=None,
                          help="spill per-flow records here (bounded-memory run); "
                               "omit for the in-memory harvest")
    openloop.add_argument("--json", action="store_true")

    analyze = sub.add_parser(
        "analyze",
        help="summarize a spilled results directory (repro.results format)",
    )
    analyze.add_argument("results_dir", help="directory written by a results_dir run")
    analyze.add_argument("--quantile", type=float, default=99.0,
                         help="slowdown quantile for the per-size-bin table")
    analyze.add_argument("--json", action="store_true")

    compare = sub.add_parser("compare", help="run several schemes on one trace")
    compare.add_argument("--schemes", nargs="+", default=["BFC", "DCQCN", "DCQCN+Win"],
                         choices=available_schemes())
    compare.add_argument("--scale", default="tiny", choices=["tiny", "small", "paper"])
    compare.add_argument("--workload", default="google", choices=sorted(WORKLOADS))
    compare.add_argument("--load", type=float, default=0.6)
    compare.add_argument("--incast", type=float, default=0.05)
    compare.add_argument("--seed", type=int, default=1)
    compare.add_argument("--cores", type=_cores_arg, default=None, metavar="N|auto",
                         help=CORES_HELP)
    compare.add_argument("--json", action="store_true")

    worker = sub.add_parser(
        "worker", help="run a distributed-campaign worker agent"
    )
    worker.add_argument("action", choices=["serve"],
                        help="serve: accept and execute trials until stopped")
    worker.add_argument("--host", default="127.0.0.1",
                        help="bind address (default loopback; bind a private "
                             "network address to serve a remote coordinator, "
                             "which requires --token)")
    worker.add_argument("--port", type=int, default=0,
                        help="bind port (default 0: pick an ephemeral port "
                             "and print it)")
    worker.add_argument("--token", default=None,
                        help="require this X-Repro-Token on /run and /shutdown")

    report = sub.add_parser(
        "report",
        help="render the Markdown report for a campaign JSONL file",
    )
    report.add_argument("results", help="campaign JSONL (from --save or a workspace)")
    report.add_argument("--out", default=None, metavar="PATH",
                        help="write the report here instead of stdout")
    report.add_argument("--title", default=None,
                        help="report title (default: the campaign name on record)")
    return parser


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------


def _result_summary(result: ExperimentResult) -> Dict[str, float]:
    # One metric schema for the whole toolkit: the campaign layer's
    # flattener, plus the identity/wall fields the CLI traditionally shows.
    summary: Dict[str, float] = {"scheme": result.scheme}
    summary.update(summarize_result(result))
    summary["wall_seconds"] = result.wall_seconds
    return summary


def _single_config(scheme: str, scale_name: str, workload: str, load: float,
                   incast: float, seed: int):
    # Built through the campaign's default builder so `repro run` and
    # `repro campaign` produce the same experiment for the same flags.
    (trial,) = (
        Campaign(f"cli/{workload}", scale=scale_name, workload=workload)
        .schemes(scheme)
        .fixed(load=load, incast=incast)
        .seeds(base=seed)
        .trials()
    )
    return trial.config


def cmd_schemes(args: argparse.Namespace, out) -> int:
    rows = {name: {"description": spec.description} for name, spec in SCHEMES.items()}
    width = max(len(name) for name in rows)
    for name in sorted(rows):
        print(f"  {name.ljust(width)}  {rows[name]['description']}", file=out)
    return 0


def cmd_workloads(args: argparse.Namespace, out) -> int:
    bdp = units.bandwidth_delay_product(units.gbps(100), units.microseconds(8))
    rows = {}
    for name, dist in WORKLOADS.items():
        rows[dist.name] = {
            "mean KB": dist.mean() / 1e3,
            "flows <= 1KB (%)": 100 * dist.cdf(1_000),
            "flows <= 1 BDP (%)": 100 * dist.cdf(bdp),
            "max size (MB)": dist.max_size() / 1e6,
        }
    print(
        format_comparison_table(
            "Industry workloads (BDP = 100 KB at 100 Gbps / 8 us)",
            rows,
            columns=["mean KB", "flows <= 1KB (%)", "flows <= 1 BDP (%)", "max size (MB)"],
            fmt="{:.1f}",
        ),
        file=out,
    )
    return 0


def cmd_run(args: argparse.Namespace, out) -> int:
    config = _single_config(args.scheme, args.scale, args.workload, args.load,
                            args.incast, args.seed)
    result = run_experiment(config)
    summary = _result_summary(result)
    if args.json:
        json.dump(summary, out, indent=2)
        print(file=out)
    else:
        print(f"Experiment: {config.name} (scale={args.scale}, load={args.load:.0%})", file=out)
        for key, value in summary.items():
            if isinstance(value, float):
                print(f"  {key:<24s} {value:.4f}", file=out)
            else:
                print(f"  {key:<24s} {value}", file=out)
        print(file=out)
        print(
            format_series_table(
                "p99 FCT slowdown vs flow size",
                {args.scheme: result.slowdown_series()},
            ),
            file=out,
        )
    return 0


def cmd_openloop(args: argparse.Namespace, out) -> int:
    config = scenarios.openloop_crossdc_config(
        args.scale,
        args.scheme,
        seed=args.seed,
        users=args.users,
        target_flows=args.flows,
        target_load=args.load,
        results_dir=args.results_dir,
    )
    result = run_experiment(config)
    summary = _result_summary(result)
    summary["flows_offered"] = result.flows_offered
    if result.results_ref:
        summary["results_dir"] = result.results_ref
    if args.json:
        json.dump(summary, out, indent=2)
        print(file=out)
    else:
        print(
            f"Open-loop cross-DC: {config.name} "
            f"({args.users:,} users, {result.flows_offered:,} flows offered)",
            file=out,
        )
        for key, value in summary.items():
            if isinstance(value, float):
                print(f"  {key:<24s} {value:.4f}", file=out)
            else:
                print(f"  {key:<24s} {value}", file=out)
        if result.results_ref:
            print(
                f"\nper-flow records spilled to {result.results_ref}\n"
                f"(inspect with: repro analyze {result.results_ref})",
                file=out,
            )
    return 0


def cmd_analyze(args: argparse.Namespace, out) -> int:
    from repro.results import ResultsAnalyzer

    analyzer = ResultsAnalyzer(args.results_dir)
    summary = analyzer.summarize()
    series = analyzer.slowdown_series(quantile=args.quantile)
    if args.json:
        payload = dict(summary)
        payload["slowdown_series"] = [
            {"bin": label, "value": value, "count": count}
            for label, value, count in series
        ]
        json.dump(payload, out, indent=2)
        print(file=out)
    else:
        print(f"Spilled results: {args.results_dir}", file=out)
        for key, value in sorted(summary.items()):
            if isinstance(value, float):
                print(f"  {key:<24s} {value:.4f}", file=out)
            elif isinstance(value, (int, str, bool)):
                print(f"  {key:<24s} {value}", file=out)
        print(file=out)
        print(
            format_series_table(
                f"p{args.quantile:g} FCT slowdown vs flow size",
                {"run": series},
                value_label=f"p{args.quantile:g} FCT slowdown",
            ),
            file=out,
        )
    return 0


def cmd_campaign(args: argparse.Namespace, out) -> int:
    # scale/workload are baked into each record's params by the campaign, so
    # resuming a JSONL saved under a different workload/scale re-runs trials.
    campaign = (
        Campaign(args.name, scale=args.scale, workload=args.workload)
        .schemes(*args.schemes)
        .sweep(load=args.load)
        .repeats(args.repeats)
        .seeds(base=args.seed)
    )
    if len(args.incast) > 1:
        campaign.sweep(incast=args.incast)
    else:
        campaign.fixed(incast=args.incast[0])
    executor = None
    if args.workers_file is not None:
        if args.cores is not None:
            raise CampaignError(
                "--workers-file dispatches to the remote roster; "
                "--cores does not apply"
            )
        from repro.campaign import DistributedExecutor

        executor = DistributedExecutor(args.workers_file, token=args.token)
    workspace = None
    if args.workspace is not None:
        if args.save is not None or args.resume is not None:
            raise CampaignError(
                "pass --workspace or --save/--resume, not both "
                "(the workspace owns its results.jsonl)"
            )
    if args.dry_run:
        plan = campaign.plan(cores=args.cores, resume=args.resume)
        if args.json:
            json.dump(plan.to_dict(), out, indent=2)
            print(file=out)
        else:
            print(f"Campaign {args.name!r} {plan.describe()}", file=out)
        return 0
    if args.workspace is not None:
        # Only a real run gets a run folder: a dry run writes nothing.
        from repro.campaign import Workspace

        workspace = Workspace.create(args.workspace, args.name)
    result_set = campaign.run(
        executor=executor,
        cores=args.cores,
        save=args.save, resume=args.resume,
        keep_results=False,  # tables below only need the tidy records
        workspace=workspace,
    )
    if args.json:
        json.dump([record.to_dict() for record in result_set], out, indent=2)
        print(file=out)
        return 0
    if executor is not None:
        parallelism = f"distributed over {executor.workers} worker(s)"
    else:
        parallelism = f"cores={args.cores or 1}"
    print(
        f"Campaign {args.name!r}: {len(result_set)} trials "
        f"({len(args.schemes)} schemes, loads {args.load}, "
        f"{args.repeats} repeat(s), {parallelism})",
        file=out,
    )
    for record in result_set:
        print(
            f"  {record.label:<32s} p99={record.metrics['p99_slowdown']:7.2f}  "
            f"completed={100 * record.metrics['completion_rate']:5.1f}%  "
            f"drops={int(record.metrics['dropped_packets']):4d}  "
            f"({record.wall_seconds:.1f}s)",
            file=out,
        )
    print(file=out)
    # One table per incast value when incast is swept, so no cell ever blends
    # physically different experiments; the mean is over repeats only.
    for incast in args.incast:
        by_load = result_set.filter(incast=incast).aggregate(
            "p99_slowdown", ["scheme", "load"]
        )
        rows: Dict[str, Dict[str, float]] = {}
        for (scheme, load), value in by_load.items():
            rows.setdefault(scheme, {})[f"{load:g}"] = value
        title = "p99 FCT slowdown by scheme and load (mean over repeats)"
        if len(args.incast) > 1:
            title += f", incast={incast:g}"
        print(
            format_comparison_table(
                title,
                rows,
                columns=[f"{load:g}" for load in args.load],
                fmt="{:.2f}",
            ),
            file=out,
        )
    if args.save:
        print(f"records written to {args.save}", file=out)
    if workspace is not None:
        print(f"workspace: {workspace.run_dir}", file=out)
    return 0


def cmd_worker(args: argparse.Namespace, out) -> int:
    """``repro worker serve``: block serving trials until interrupted.

    The "listening on <url>" line is printed (and flushed) before serving
    starts, so orchestration — scripts, CI, the tests — can read the bound
    address from stdout even with ``--port 0``.
    """
    from repro.campaign import WorkerAgent

    agent = WorkerAgent(host=args.host, port=args.port, token=args.token)
    host, port = agent.address
    print(
        f"repro worker listening on http://{host}:{port} (pid={os.getpid()})",
        file=out,
    )
    if hasattr(out, "flush"):
        out.flush()
    try:
        agent.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        agent.stop()
    return 0


def cmd_report(args: argparse.Namespace, out) -> int:
    """``repro report``: the workspace report, for any campaign JSONL."""
    from pathlib import Path

    from repro.campaign import ResultSet
    from repro.campaign.workspace import render_report

    try:
        result_set = ResultSet.load(args.results)
    except OSError as exc:
        raise CampaignError(f"cannot read {args.results}: {exc}") from exc
    text = render_report(result_set, title=args.title)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"report written to {args.out}", file=out)
    else:
        print(text, file=out, end="")
    return 0


def cmd_figure(args: argparse.Namespace, out) -> int:
    figure = FIGURES[args.name]
    try:
        campaign = figure.campaign(args.scale, schemes=args.schemes, seed=args.seed)
    except CampaignError as exc:
        raise CampaignError(f"--schemes: {exc}") from None
    if args.dry_run:
        plan = campaign.plan(cores=args.cores)
        if args.json:
            json.dump(plan.to_dict(), out, indent=2)
            print(file=out)
        else:
            print(f"Figure {args.name!r} {plan.describe()}", file=out)
        return 0
    result_set = campaign.run(cores=args.cores)
    results = result_set.experiment_results_by_label()
    if args.json:
        json.dump({label: _result_summary(r) for label, r in results.items()}, out, indent=2)
        print(file=out)
        return 0
    print(figure.render(results), file=out)
    summary_rows = {label: _result_summary(r) for label, r in results.items()}
    print(
        format_comparison_table(
            "Summary",
            {
                label: {
                    "p99 slowdown": row["p99_slowdown"],
                    "completion %": 100 * row["completion_rate"],
                    "drops": row["dropped_packets"],
                }
                for label, row in summary_rows.items()
            },
            columns=["p99 slowdown", "completion %", "drops"],
            fmt="{:.2f}",
        ),
        file=out,
    )
    return 0


def cmd_compare(args: argparse.Namespace, out) -> int:
    configs = {
        scheme: _single_config(scheme, args.scale, args.workload, args.load,
                               args.incast, args.seed)
        for scheme in args.schemes
    }
    result_set = Campaign.from_configs("compare", configs).run(cores=args.cores)
    results: Dict[str, ExperimentResult] = result_set.experiment_results_by_label()
    if args.json:
        json.dump({s: _result_summary(r) for s, r in results.items()}, out, indent=2)
        print(file=out)
        return 0
    print(
        format_series_table(
            f"p99 FCT slowdown vs flow size ({args.workload}, {args.load:.0%} load)",
            {scheme: result.slowdown_series() for scheme, result in results.items()},
        ),
        file=out,
    )
    print(
        format_comparison_table(
            "Summary",
            {
                scheme: {
                    "p99 slowdown": result.p99_slowdown(),
                    "p99 buffer KB": result.buffer_sampler.percentile(99) / 1e3,
                    "drops": float(result.dropped_packets),
                }
                for scheme, result in results.items()
            },
            columns=["p99 slowdown", "p99 buffer KB", "drops"],
            fmt="{:.2f}",
        ),
        file=out,
    )
    return 0


def cmd_shard(args: argparse.Namespace, out) -> int:
    from dataclasses import replace

    configs = scenarios.fig9_configs(args.scale, schemes=(args.scheme,), seed=args.seed)
    config = replace(configs[args.scheme], shards=args.shards)
    result = run_experiment(config)
    summary = _result_summary(result)
    payload = {"summary": summary, "shard_stats": result.shard_stats}
    if args.json:
        json.dump(payload, out, indent=2)
        print(file=out)
        return 0
    print(
        f"Sharded experiment: {config.name} "
        f"(scale={args.scale}, shards={args.shards})",
        file=out,
    )
    for key, value in summary.items():
        if isinstance(value, float):
            print(f"  {key:<24s} {value:.4f}", file=out)
        else:
            print(f"  {key:<24s} {value}", file=out)
    stats = result.shard_stats
    if stats is None:
        print("\n  (single-process run: no shard statistics)", file=out)
        return 0
    print(file=out)
    print("Partition:", file=out)
    _print_partition(stats, out)
    if "barriers" in stats:
        print(f"  barriers               {stats['barriers']}", file=out)
        print(f"  boundary packets       {stats['boundary_packets']}", file=out)
        for shard, events in stats.get("events_per_shard", {}).items():
            print(f"  shard {shard} events         {events}", file=out)
    return 0


def _print_partition(stats: Dict[str, object], out) -> None:
    """Shared partition-stats block of ``repro shard`` and ``repro topology``."""
    for shard, sizes in stats["shards"].items():
        print(
            f"  shard {shard:<17s} {sizes['hosts']} hosts, "
            f"{sizes['switches']} switches",
            file=out,
        )
    print(f"  cut links              {stats['cut_links']}", file=out)
    for link_class, count in stats.get("cut_links_by_class", {}).items():
        print(f"    {link_class:<21s} {count}", file=out)
    window = stats.get("window_ns")
    if window is not None:
        print(f"  window (lookahead)     {window} ns", file=out)
    else:
        print("  window (lookahead)     n/a (no cut links)", file=out)


def cmd_topology(args: argparse.Namespace, out) -> int:
    # Build only the wired topology — not the traffic trace — so inspecting
    # a paper-scale cut stays cheap.
    from repro.experiments.runner import build_topology_only
    from repro.shard import partition_topology

    config = next(iter(FIGURES[args.figure].configs(args.scale).values()))
    topo = build_topology_only(config)

    switches_by_tier: Dict[str, int] = {}
    for switch in topo.all_switches():
        tier = getattr(switch, "tier", "unknown")
        switches_by_tier[tier] = switches_by_tier.get(tier, 0) + 1
    links_by_class: Dict[str, int] = {}
    for link in topo.links:
        links_by_class[link.link_class] = links_by_class.get(link.link_class, 0) + 1

    # One shard per DC is the only cut; a single-DC fabric has none.
    num_dcs = len(set(topo.dc_of_host.values()))
    partition = partition_topology(topo, num_dcs).stats(topo) if num_dcs > 1 else None
    info = {
        "figure": args.figure,
        "scale": args.scale,
        "hosts": len(topo.hosts),
        "switches": len(topo.switches),
        "switches_by_tier": dict(sorted(switches_by_tier.items())),
        "links": len(topo.links),
        "links_by_class": dict(sorted(links_by_class.items())),
        "oversubscription": config.clos.oversubscription(),
        "link_rate_gbps": config.clos.link_rate_bps / 1e9,
        "link_delay_ns": config.clos.link_delay_ns,
        "dcs": num_dcs,
        "partition": partition,
    }
    if args.json:
        json.dump(info, out, indent=2)
        print(file=out)
        return 0
    print(f"Topology of {args.figure} at scale '{args.scale}':", file=out)
    print(f"  hosts                  {info['hosts']}", file=out)
    tiers = ", ".join(f"{n} {t}" for t, n in info["switches_by_tier"].items())
    print(f"  switches               {info['switches']} ({tiers})", file=out)
    classes = ", ".join(f"{n} {c}" for c, n in info["links_by_class"].items())
    print(f"  links                  {info['links']} ({classes})", file=out)
    print(f"  oversubscription       {info['oversubscription']:g}:1", file=out)
    print(
        f"  link rate / delay      {info['link_rate_gbps']:g} Gbps / "
        f"{info['link_delay_ns']} ns",
        file=out,
    )
    if partition is None:
        print("\nPartition: single DC: no cut", file=out)
    else:
        print(f"\nPartition into {num_dcs} shard(s), one per DC:", file=out)
        _print_partition(partition, out)
    return 0


COMMANDS = {
    "schemes": cmd_schemes,
    "workloads": cmd_workloads,
    "run": cmd_run,
    "campaign": cmd_campaign,
    "sweep": cmd_campaign,
    "openloop": cmd_openloop,
    "analyze": cmd_analyze,
    "figure": cmd_figure,
    "compare": cmd_compare,
    "shard": cmd_shard,
    "topology": cmd_topology,
    "worker": cmd_worker,
    "report": cmd_report,
}


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Entry point (also used by ``python -m repro``)."""
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = COMMANDS[args.command]
    try:
        return handler(args, out)
    except (CampaignError, UnknownSchemeError, PartitionError, ShardError) as exc:
        # Bad-input errors from the campaign and shard layers (duplicate
        # sweep values, unknown scheme, a partition the topology cannot
        # satisfy, unsupported shard options) read like argparse errors
        # instead of tracebacks.  Deliberately narrow: the simulator's own
        # ValueErrors are bugs and must stay loud.
        message = exc.args[0] if exc.args else exc
        print(f"{parser.prog} {args.command}: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
