"""The paper's simulated figures, one declaration each.

A :class:`Figure` is everything the repository knows about one figure of the
evaluation: its one config grid (a factory from :mod:`.scenarios`), the table
its results render to, and the paper's who-wins claims as :class:`Claim`
checks.  :data:`FIGURES` registers all of them; the CLI (``repro figure
NAME``), the campaign API and the claims tests all read this one registry::

    from repro.experiments.figures import FIGURES

    figure = FIGURES["fig5a"]
    results = figure.campaign("tiny").run(cores=2).experiment_results_by_label()
    print(figure.render(results))

Figures 1 and 4 need no simulation and have no entry here; their claims are
checked by the analysis and workload tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.analysis.apps import collective_table, graph_makespan_ns, rpc_table
from repro.analysis.buffers import occupancy_cdf, occupancy_percentiles
from repro.analysis.estimation import staleness_table
from repro.analysis.fct import summarize_slowdowns
from repro.analysis.report import (
    format_comparison_table,
    format_series_table,
    render_cdf_table,
)

from . import scenarios
from .runner import ExperimentConfig, ExperimentResult
from .scenarios import ScenarioScale

Results = Mapping[str, ExperimentResult]


@dataclass(frozen=True)
class Claim:
    """One who-wins sentence of the paper and the check that it holds.

    ``holds(results, scale)`` gets the figure's results keyed by trial label
    and the :class:`~repro.experiments.scenarios.ScenarioScale` they ran at.
    """

    statement: str
    holds: Callable[[Results, ScenarioScale], bool]


@dataclass(frozen=True)
class Figure:
    """One figure: its config grid, its table and its claims."""

    name: str
    #: ``(scale_name, seed=...) -> {label: config}``; the sweeps nest one
    #: level (``{scheme: {key: config}}``).
    factory: Callable[..., Mapping[str, object]]
    render: Callable[[Results], str]
    claims: Tuple[Claim, ...]

    def configs(self, scale: str = "tiny", seed: int = 1) -> Dict[str, ExperimentConfig]:
        """The figure's one grid, keyed by trial label (``scheme/key`` for sweeps)."""
        from repro.campaign.core import flatten_configs  # repro.campaign imports us

        return dict(flatten_configs(self.factory(scale, seed=seed)))

    def campaign(
        self,
        scale: str = "tiny",
        schemes: Optional[Sequence[str]] = None,
        seed: int = 1,
        repeats: int = 1,
    ):
        """The figure as a :class:`~repro.campaign.Campaign`.

        ``schemes`` keeps only the configs that run one of them and must name
        schemes the figure runs.  Each repeat rebuilds the grid with its own
        seed (base ``seed`` + repeat index), so figures that bake explicit
        flow lists into their configs resample their traffic per repeat.
        """
        from repro.campaign import Campaign, CampaignError

        # The check and the first repeat share one build of the grid, so a
        # filtered campaign runs the very configs an unfiltered one would
        # (explicit flows take their ids from a process-wide counter).
        base = self.configs(scale, seed)
        if schemes:
            own = list(dict.fromkeys(config.scheme for config in base.values()))
            unknown = [scheme for scheme in schemes if scheme not in own]
            if unknown:
                raise CampaignError(
                    f"figure {self.name!r} does not run {', '.join(unknown)}; "
                    f"its schemes are {', '.join(own)}"
                )

        def grid(repeat_seed: int) -> Dict[str, ExperimentConfig]:
            configs = base if repeat_seed == seed else self.configs(scale, repeat_seed)
            return {
                label: config
                for label, config in configs.items()
                if not schemes or config.scheme in schemes
            }

        return Campaign.from_config_factory(self.name, grid).repeats(repeats).seeds(base=seed)


# ---------------------------------------------------------------------------
# Measurements shared by several figures
# ---------------------------------------------------------------------------


def _p99(results: Results) -> Dict[str, float]:
    return {label: result.p99_slowdown() for label, result in results.items()}


def _p99_buffer(results: Results) -> Dict[str, float]:
    return {
        label: occupancy_percentiles(result.buffer_sampler.samples)["p99"]
        for label, result in results.items()
    }


def _all_complete(fraction: float) -> Callable[[Results, ScenarioScale], bool]:
    return lambda results, _: all(r.completion_rate() > fraction for r in results.values())


def _never_paused(label: str) -> Callable[[Results, ScenarioScale], bool]:
    return lambda results, _: all(
        value < 0.01 for value in results[label].pause_fraction_by_class().values()
    )


def _sweep(results: Results) -> Dict[str, Dict[int, ExperimentResult]]:
    """Regroup a sweep's ``scheme/key`` labels as ``{scheme: {key: result}}``."""
    nested: Dict[str, Dict[int, ExperimentResult]] = {}
    for label, result in results.items():
        scheme, key = label.rsplit("/", 1)
        nested.setdefault(scheme, {})[int(key)] = result
    return nested


def _at_largest(results: Results, scheme: str) -> ExperimentResult:
    sweep = _sweep(results)[scheme]
    return sweep[max(sweep)]


def _by_size(results: Results, suffix: str = "") -> Tuple[ExperimentResult, ExperimentResult]:
    """The smallest and the largest point of a ``{size}{suffix}``-labelled sweep."""
    sizes = sorted(
        int(label.removesuffix(suffix))
        for label in results
        if label.removesuffix(suffix).isdigit()
    )
    return results[f"{sizes[0]}{suffix}"], results[f"{sizes[-1]}{suffix}"]


def _series_table(title: str, results: Results) -> str:
    return format_series_table(
        title, {label: result.slowdown_series() for label, result in results.items()}
    )


def _two_hop_bdp(scale: ScenarioScale) -> float:
    """Two hop-BDPs: the paper's bound on BFC's physical-queue backlog."""
    hop_rtt_ns = 2 * (
        scale.clos.link_delay_ns + (scale.mtu + 48) * 8e9 / scale.clos.link_rate_bps
    )
    return 2 * scale.clos.link_rate_bps * hop_rtt_ns / (8 * 1e9)


def _mean_occupied_queues(result: ExperimentResult) -> float:
    occupied = result.queue_sampler.occupied_queues
    return sum(occupied) / max(1, len(occupied))


def _rpc_flows(result: ExperimentResult) -> list:
    return [r for r in result.flow_stats.records if r.tag == "rpc"]


def _cross_dc_slowdowns(result: ExperimentResult) -> Dict[str, Dict[str, float]]:
    return {
        tag: summarize_slowdowns([r for r in result.flow_stats.records if r.tag == tag])
        for tag in ("intra-dc", "inter-dc")
    }


# ---------------------------------------------------------------------------
# Rendered tables
# ---------------------------------------------------------------------------


def _render_fig2(results: Results) -> str:
    return render_cdf_table(
        "Figure 2: buffer occupancy CDF, DCQCN without PFC, link speed swept",
        {label: occupancy_cdf(r.buffer_sampler.samples) for label, r in results.items()},
        value_label="MB of switch buffer",
    )


def _slowdown_series(title: str) -> Callable[[Results], str]:
    return lambda results: _series_table(title, results)


def _render_fig6(results: Results) -> str:
    cdf_table = render_cdf_table(
        "Figure 6a: switch buffer occupancy CDF (Fig. 5a workload)",
        {s: occupancy_cdf(r.buffer_sampler.samples) for s, r in results.items()},
        value_label="MB of switch buffer",
    )
    pause_rows = {
        scheme: {
            link_class: 100.0 * value
            for link_class, value in result.pause_fraction_by_class().items()
        }
        for scheme, result in results.items()
    }
    pause_table = format_comparison_table(
        "Figure 6b: % of time links were paused by PFC, per link class",
        pause_rows,
        columns=["host->tor", "tor->spine", "spine->tor", "tor->host"],
        fmt="{:.2f}",
    )
    return cdf_table + "\n" + pause_table


def _render_fig7(results: Results) -> str:
    collision_rows = {
        scheme: {"collision fraction": result.collision_fraction or 0.0}
        for scheme, result in results.items()
        if result.collision_fraction is not None
    }
    return _series_table(
        "Figure 7a: p99 FCT slowdown (BFC vs BFC-VFID vs SFQ+InfBuffer)", results
    ) + "\n" + format_comparison_table(
        "Figure 7b: fraction of queue assignments that collided",
        collision_rows,
        columns=["collision fraction"],
        fmt="{:.4f}",
    )


def _render_fig8(results: Results) -> str:
    sweeps = _sweep(results)
    fan_ins = sorted(next(iter(sweeps.values())))
    columns = [str(f) for f in fan_ins]
    util_rows = {
        scheme: {str(f): sweep[f].mean_utilization() for f in fan_ins}
        for scheme, sweep in sweeps.items()
    }
    buffer_rows = {
        scheme: {str(f): sweep[f].buffer_sampler.percentile(99) / 1e6 for f in fan_ins}
        for scheme, sweep in sweeps.items()
    }
    return format_comparison_table(
        "Figure 8a: mean receiver utilization vs incast fan-in", util_rows, columns=columns
    ) + "\n" + format_comparison_table(
        "Figure 8b: p99 switch buffer occupancy (MB) vs incast fan-in",
        buffer_rows,
        columns=columns,
    )


def _render_fig9(results: Results) -> str:
    rows = {}
    for scheme, result in results.items():
        slowdowns = _cross_dc_slowdowns(result)
        rows[scheme] = {
            "intra p50": slowdowns["intra-dc"]["p50"],
            "intra p99": slowdowns["intra-dc"]["p99"],
            "inter p50": slowdowns["inter-dc"]["p50"],
            "inter p99": slowdowns["inter-dc"]["p99"],
        }
    return format_comparison_table(
        "Figure 9: FCT slowdown for intra- and inter-DC flows (FB_Hadoop, 65% load)",
        rows,
        columns=["intra p50", "intra p99", "inter p50", "inter p99"],
        fmt="{:.2f}",
    )


def _render_fig10(results: Results) -> str:
    sweeps = _sweep(results)
    counts = sorted(next(iter(sweeps.values())))
    rows = {
        scheme: {
            str(count): sweep[count].queue_sampler.queue_percentile(99) / 1e3
            for count in counts
        }
        for scheme, sweep in sweeps.items()
    }
    return format_comparison_table(
        "Figure 10: p99 physical-queue backlog (KB) vs number of concurrent flows",
        rows,
        columns=[str(c) for c in counts],
        fmt="{:.1f}",
    )


def _render_fig11(results: Results) -> str:
    occupancy_rows = {
        scheme: {
            "mean occupied queues": _mean_occupied_queues(result),
            "max occupied queues": max(result.queue_sampler.occupied_queues or [0]),
        }
        for scheme, result in results.items()
    }
    return _series_table(
        "Figure 11b: p99 FCT slowdown with / without the high-priority queue "
        "(Google, 85% load + 5% incast)",
        results,
    ) + "\n" + format_comparison_table(
        "Figure 11a: physical queues in use per switch",
        occupancy_rows,
        columns=["mean occupied queues", "max occupied queues"],
        fmt="{:.1f}",
    )


def _render_fig12(results: Results) -> str:
    collision_rows = {
        label: {"collision %": 100.0 * (result.collision_fraction or 0.0)}
        for label, result in results.items()
        if result.collision_fraction is not None
    }
    return _series_table(
        "Figure 12b: p99 FCT slowdown vs flow size, physical queues per port swept", results
    ) + "\n" + format_comparison_table(
        "Figure 12a: % of queue assignments that collided",
        collision_rows,
        columns=["collision %"],
        fmt="{:.3f}",
    )


def _render_fig13(results: Results) -> str:
    stats_rows = {
        label: {
            "vfid collisions": result.vfid_stats.get("vfid_collisions", 0),
            "bucket overflows": result.vfid_stats.get("bucket_overflows", 0),
            "cache overflows": result.vfid_stats.get("cache_overflows", 0),
            "table inserts": result.vfid_stats.get("table_inserts", 0),
        }
        for label, result in results.items()
    }
    return _series_table(
        "Figure 13b: p99 FCT slowdown vs flow size, VFID space swept", results
    ) + "\n" + format_comparison_table(
        "Figure 13a: hash-table collisions and overflows",
        stats_rows,
        columns=["vfid collisions", "bucket overflows", "cache overflows", "table inserts"],
        fmt="{:.0f}",
    )


def _render_fig14(results: Results) -> str:
    stats_rows = {
        label: {
            "pauses": result.vfid_stats.get("pauses", 0),
            "resumes": result.vfid_stats.get("resumes", 0),
            "p99 slowdown": result.p99_slowdown(),
        }
        for label, result in results.items()
    }
    return _series_table(
        "Figure 14: p99 FCT slowdown vs flow size, Bloom-filter size swept", results
    ) + "\n" + format_comparison_table(
        "Pause activity per Bloom-filter size",
        stats_rows,
        columns=["pauses", "resumes", "p99 slowdown"],
        fmt="{:.2f}",
    )


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------


#: BFC's two who-wins claims of Fig. 5, shared by its three panels.
_HEADLINE_CLAIMS = (
    Claim(
        "BFC has better tail latency than DCQCN.",
        lambda r, _: _p99(r)["BFC"] <= _p99(r)["DCQCN"],
    ),
    Claim(
        "BFC achieves the best tail latency among realizable schemes and "
        "closely tracks Ideal-FQ (within 3x of max(1, Ideal-FQ)).",
        lambda r, _: _p99(r)["BFC"] <= 3.0 * max(1.0, _p99(r)["Ideal-FQ"]),
    ),
)


FIGURES: Dict[str, Figure] = {
    figure.name: figure
    for figure in (
        Figure(
            "fig2",
            scenarios.fig2_configs,
            _render_fig2,
            (
                Claim(
                    "At equal utilisation, higher link speeds leave DCQCN less able "
                    "to control buffer occupancy: the 4x links' p99 occupancy is at "
                    "least 0.8x the 1x links'.",
                    lambda r, _: _p99_buffer(r)["4x"] >= 0.8 * _p99_buffer(r)["1x"],
                ),
                Claim("Every link speed completes more than 50% of its flows.",
                      _all_complete(0.5)),
            ),
        ),
        Figure(
            "fig3",
            scenarios.fig3_configs,
            _slowdown_series(
                "Figure 3: p99 FCT slowdown vs flow size, DCQCN, buffer/capacity ratio swept"
            ),
            (
                Claim(
                    "Shrinking the buffer relative to switch capacity hurts DCQCN's "
                    "tail latency: the 10 us buffer is never meaningfully better "
                    "than the 30 us one (p99 at least 0.6x).",
                    lambda r, _: _p99(r)["10us"] >= 0.6 * _p99(r)["30us"],
                ),
                Claim("Every buffer size completes more than 50% of its flows.",
                      _all_complete(0.5)),
            ),
        ),
        Figure(
            "fig5a",
            scenarios.fig5a_configs,
            _slowdown_series(
                "Figure 5a: p99 FCT slowdown vs flow size (Google, 60% load + 5% incast)"
            ),
            (
                Claim(
                    "DCQCN has the worst tail latency; adding the window cap "
                    "(DCQCN+Win) improves it (DCQCN p99 at least 0.9x DCQCN+Win's).",
                    lambda r, _: _p99(r)["DCQCN"] >= _p99(r)["DCQCN+Win"] * 0.9,
                ),
            )
            + _HEADLINE_CLAIMS
            + (
                Claim("Every scheme completes more than 80% of its flows.", _all_complete(0.8)),
                Claim("BFC does not rely on packet loss: it drops no packet.",
                      lambda r, _: r["BFC"].dropped_packets == 0),
            ),
        ),
        Figure(
            "fig5b",
            scenarios.fig5b_configs,
            _slowdown_series(
                "Figure 5b: p99 FCT slowdown vs flow size (FB_Hadoop, 60% load + 5% incast)"
            ),
            _HEADLINE_CLAIMS
            + (Claim("Every scheme completes more than 75% of its flows.", _all_complete(0.75)),),
        ),
        Figure(
            "fig5c",
            scenarios.fig5c_configs,
            _slowdown_series(
                "Figure 5c: p99 FCT slowdown vs flow size (Google, 65% load, no incast)"
            ),
            _HEADLINE_CLAIMS
            + (
                Claim(
                    "Without incast BFC tracks Ideal-FQ without PFC being triggered: "
                    "no link class is paused 1% of the time or more.",
                    _never_paused("BFC"),
                ),
            ),
        ),
        Figure(
            "fig6",
            scenarios.fig6_configs,
            _render_fig6,
            (
                Claim(
                    "BFC keeps buffer occupancy low while DCQCN variants build large "
                    "buffers: BFC's p99 occupancy is at most 1.2x the larger of "
                    "DCQCN's and DCQCN+Win's.",
                    lambda r, _: _p99_buffer(r)["BFC"]
                    <= max(_p99_buffer(r)["DCQCN"], _p99_buffer(r)["DCQCN+Win"]) * 1.2,
                ),
                Claim(
                    "BFC avoids PFC pauses: no link class is paused 1% of the time "
                    "or more.",
                    _never_paused("BFC"),
                ),
            ),
        ),
        Figure(
            "fig7",
            scenarios.fig7_configs,
            _render_fig7,
            (
                Claim(
                    "The straw proposal (BFC-VFID, static hashing) suffers more "
                    "physical-queue collisions than BFC.",
                    lambda r, _: (r["BFC-VFID"].collision_fraction or 0.0)
                    > (r["BFC"].collision_fraction or 0.0),
                ),
                Claim(
                    "Dynamic assignment gives BFC a tail no worse than BFC-VFID's "
                    "(p99 at most 1.25x).",
                    lambda r, _: _p99(r)["BFC"] <= _p99(r)["BFC-VFID"] * 1.25,
                ),
            ),
        ),
        Figure(
            "fig8",
            scenarios.fig8_configs,
            _render_fig8,
            (
                Claim(
                    "BFC keeps utilization close to 100% as the incast fan-in grows: "
                    "above 0.6 at the largest fan-in.",
                    lambda r, _: _at_largest(r, "BFC").mean_utilization() > 0.6,
                ),
                Claim(
                    "DCQCN+Win loses utilization as the fan-in grows while BFC does "
                    "not: BFC's utilization at the largest fan-in is at least 0.9x "
                    "DCQCN+Win's.",
                    lambda r, _: _at_largest(r, "BFC").mean_utilization()
                    >= _at_largest(r, "DCQCN+Win").mean_utilization() * 0.9,
                ),
            ),
        ),
        Figure(
            "fig9",
            scenarios.fig9_configs,
            _render_fig9,
            (
                Claim("Both schemes complete more than 70% of the intra- and "
                      "inter-DC flows.", _all_complete(0.7)),
                Claim(
                    "BFC's inter-DC slowdown stays close to ideal because it reacts "
                    "at the one-hop RTT, while DCQCN's loop spans the gateway link: "
                    "BFC's inter-DC p99 is at most 1.2x DCQCN+Win's.",
                    lambda r, _: _cross_dc_slowdowns(r["BFC"])["inter-dc"]["p99"]
                    <= _cross_dc_slowdowns(r["DCQCN+Win"])["inter-dc"]["p99"] * 1.2,
                ),
            ),
        ),
        Figure(
            "fig10",
            scenarios.fig10_configs,
            _render_fig10,
            (
                Claim(
                    "BFC's resume-rate limit keeps the physical-queue backlog near "
                    "two hop-BDPs regardless of the flow count: its p99 at the "
                    "most flows is at most 6 two-hop BDPs.",
                    lambda r, scale: _at_largest(r, "BFC").queue_sampler.queue_percentile(99)
                    <= 6 * _two_hop_bdp(scale),
                ),
                Claim(
                    "BFC-BufferOpt (no limit) lets the backlog grow with the number "
                    "of flows: BFC's p99 at the most flows is at most 1.1x its.",
                    lambda r, _: _at_largest(r, "BFC").queue_sampler.queue_percentile(99)
                    <= _at_largest(r, "BFC-BufferOpt").queue_sampler.queue_percentile(99)
                    * 1.1,
                ),
            ),
        ),
        Figure(
            "fig11",
            scenarios.fig11_configs,
            _render_fig11,
            (
                Claim(
                    "The high-priority queue for single-packet flows reduces the "
                    "number of physical queues in use (mean at most one more than "
                    "without it).",
                    lambda r, _: _mean_occupied_queues(r["BFC"])
                    <= _mean_occupied_queues(r["BFC-HighPriorityQ"]) + 1.0,
                ),
                Claim(
                    "The high-priority queue improves tail latency (p99 at most "
                    "1.2x without it).",
                    lambda r, _: _p99(r)["BFC"] <= _p99(r)["BFC-HighPriorityQ"] * 1.2,
                ),
            ),
        ),
        Figure(
            "fig12",
            scenarios.fig12_configs,
            _render_fig12,
            (
                Claim(
                    "Fewer physical queues means more collisions: the most queues "
                    "collide no more than the fewest.",
                    lambda r, _: (_by_size(r, "q")[1].collision_fraction or 0.0)
                    <= (_by_size(r, "q")[0].collision_fraction or 0.0) + 1e-9,
                ),
                Claim(
                    "Fewer physical queues means worse tail latency: the most queues' "
                    "p99 is at most 1.2x the fewest's.",
                    lambda r, _: _by_size(r, "q")[1].p99_slowdown()
                    <= _by_size(r, "q")[0].p99_slowdown() * 1.2,
                ),
            ),
        ),
        Figure(
            "fig13",
            scenarios.fig13_configs,
            _render_fig13,
            (
                Claim(
                    "Shrinking the VFID space increases hash-table collisions.",
                    lambda r, _: _by_size(r)[1].vfid_stats["vfid_collisions"]
                    <= _by_size(r)[0].vfid_stats["vfid_collisions"],
                ),
                Claim(
                    "Performance is largely insensitive to the VFID space: the "
                    "largest table's p99 is at most 1.5x the smallest's.",
                    lambda r, _: _by_size(r)[1].p99_slowdown()
                    <= _by_size(r)[0].p99_slowdown() * 1.5,
                ),
                Claim(
                    "Performance is largely insensitive to the VFID space: the "
                    "smallest table's p99 is at most 3x the largest's.",
                    lambda r, _: _by_size(r)[0].p99_slowdown()
                    <= _by_size(r)[1].p99_slowdown() * 3.0,
                ),
            ),
        ),
        Figure(
            "fig14",
            scenarios.fig14_configs,
            _render_fig14,
            (
                Claim("Every Bloom-filter size completes more than 80% of its flows.",
                      _all_complete(0.8)),
                Claim("No Bloom-filter size drops a packet.",
                      lambda r, _: all(res.dropped_packets == 0 for res in r.values())),
                Claim(
                    "Performance is largely unaffected down to small filters: the "
                    "largest filter's p99 is at most 1.2x the smallest's.",
                    lambda r, _: _by_size(r, "B")[1].p99_slowdown()
                    <= _by_size(r, "B")[0].p99_slowdown() * 1.2,
                ),
            ),
        ),
        # Beyond-the-paper scenarios (see docs/workloads.md).
        Figure(
            "fig_est",
            scenarios.fig_est_configs,
            staleness_table,
            (
                Claim(
                    "BFC-Est at staleness 0 is BFC: the same p99 slowdown.",
                    lambda r, _: r["BFC-Est/0ns"].p99_slowdown() == r["BFC"].p99_slowdown(),
                ),
                Claim(
                    "BFC-Est at staleness 0 is BFC: the same dropped packets.",
                    lambda r, _: r["BFC-Est/0ns"].dropped_packets == r["BFC"].dropped_packets,
                ),
                Claim(
                    "BFC-Est at staleness 0 is BFC: the same number of events.",
                    lambda r, _: r["BFC-Est/0ns"].events_processed
                    == r["BFC"].events_processed,
                ),
                Claim(
                    "Stale telemetry may shift tails but does not break completion "
                    "(more than 95% of flows at every point).",
                    _all_complete(0.95),
                ),
            ),
        ),
        Figure(
            "fig_collective",
            scenarios.collective_configs,
            collective_table,
            (
                Claim(
                    "Every collective fully drains inside the simulated window.",
                    lambda r, _: all(
                        graph_makespan_ns(res, "collective") is not None for res in r.values()
                    ),
                ),
                Claim("Every collective flow completes.",
                      lambda r, _: all(res.completion_rate() == 1.0 for res in r.values())),
            ),
        ),
        Figure(
            "fig_rpc",
            scenarios.rpc_fanout_configs,
            rpc_table,
            (
                Claim("Every scheme records rpc-tagged flows.",
                      lambda r, _: all(_rpc_flows(res) for res in r.values())),
                Claim(
                    "The request trees substantially complete (at least 90% of the "
                    "rpc flows) for the tail to mean anything.",
                    lambda r, _: all(
                        sum(f.finish_ns is not None for f in _rpc_flows(res))
                        >= 0.9 * len(_rpc_flows(res))
                        for res in r.values()
                    ),
                ),
            ),
        ),
    )
}
