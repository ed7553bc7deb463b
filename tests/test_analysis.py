"""Tests for the analysis layer (FCT binning, buffer CDFs, report rendering)."""

import math

import pytest

from repro.analysis.buffers import cdf_points, occupancy_cdf, occupancy_percentiles, pause_time_by_link_class
from repro.analysis.fct import (
    PAPER_SIZE_BINS,
    FctBin,
    bin_slowdowns,
    slowdown_series,
    summarize_slowdowns,
)
from repro.analysis.report import (
    BROADCOM_TREND,
    format_comparison_table,
    format_series_table,
    hardware_trend_table,
    render_cdf_table,
)
from repro.sim.stats import FlowRecord


def record(size, slowdown, incast=False, finished=True):
    return FlowRecord(
        flow_id=size,
        src=0,
        dst=1,
        size=size,
        start_ns=0,
        finish_ns=100 if finished else None,
        slowdown=slowdown if finished else None,
        is_incast=incast,
        tag="normal",
    )


class TestBins:
    def test_paper_bins_cover_all_sizes(self):
        for size in (1, 500, 5_000, 50_000, 500_000, 5_000_000, 50_000_000):
            assert any(b.contains(size) for b in PAPER_SIZE_BINS)

    def test_bins_are_disjoint(self):
        for size in (1, 999, 1_000, 9_999, 123_456):
            matches = [b for b in PAPER_SIZE_BINS if b.contains(size)]
            assert len(matches) == 1

    def test_bin_labels(self):
        labels = [b.label for b in PAPER_SIZE_BINS]
        assert labels[0].startswith("<")
        assert labels[-1].startswith(">")


class TestSlowdownSeries:
    def test_grouping_by_size(self):
        records = [record(500, 2.0), record(600, 4.0), record(50_000, 8.0)]
        grouped = bin_slowdowns(records)
        assert grouped["<1KB"] == [2.0, 4.0]
        assert 8.0 in grouped["30-100KB"]

    def test_incast_excluded_by_default(self):
        records = [record(500, 2.0), record(500, 99.0, incast=True)]
        grouped = bin_slowdowns(records)
        assert grouped["<1KB"] == [2.0]
        grouped_all = bin_slowdowns(records, include_incast=True)
        assert sorted(grouped_all["<1KB"]) == [2.0, 99.0]

    def test_unfinished_flows_ignored(self):
        records = [record(500, 2.0), record(500, None, finished=False)]
        grouped = bin_slowdowns(records)
        assert grouped["<1KB"] == [2.0]

    def test_series_reports_percentile_and_count(self):
        records = [record(500, float(i)) for i in range(1, 101)]
        series = slowdown_series(records, quantile=99.0)
        label, value, count = series[0]
        assert label == "<1KB"
        assert count == 100
        assert value == pytest.approx(99.0, abs=1.0)

    def test_series_empty_bins_are_nan(self):
        series = slowdown_series([record(500, 2.0)])
        empty = [value for label, value, count in series if count == 0]
        assert all(math.isnan(v) for v in empty)

    def test_summary_statistics(self):
        records = [record(500, float(i)) for i in range(1, 11)]
        summary = summarize_slowdowns(records)
        assert summary["count"] == 10
        assert summary["mean"] == pytest.approx(5.5)
        assert summary["max"] == 10.0

    def test_summary_of_nothing(self):
        assert summarize_slowdowns([])["count"] == 0

    def test_custom_bins(self):
        bins = [FctBin(0, 1_000, "tiny"), FctBin(1_000, 1 << 62, "rest")]
        series = slowdown_series([record(10, 3.0), record(5_000, 7.0)], bins=bins)
        assert series[0][0] == "tiny" and series[0][1] == 3.0
        assert series[1][0] == "rest" and series[1][1] == 7.0


class TestBufferAnalysis:
    def test_cdf_points_monotone(self):
        samples = list(range(100))
        points = cdf_points(samples, points=10)
        values = [v for v, _ in points]
        fractions = [f for _, f in points]
        assert values == sorted(values)
        assert fractions[-1] == pytest.approx(1.0)

    def test_cdf_of_empty(self):
        assert cdf_points([]) == []

    def test_occupancy_cdf_converts_to_mb(self):
        points = occupancy_cdf([1_000_000, 2_000_000, 3_000_000], points=3)
        assert points[-1][0] == pytest.approx(3.0)

    def test_occupancy_percentiles(self):
        stats = occupancy_percentiles(list(range(0, 1_000_000, 10_000)))
        assert stats["max"] == 990_000
        assert 0 < stats["p50"] < stats["p99"] <= stats["max"]
        assert occupancy_percentiles([])["p99"] == 0.0

    def test_pause_time_by_link_class(self):
        result = pause_time_by_link_class(
            {"tor->spine": [0.1, 0.3], "spine->tor": [], "host->tor": [0.0]}
        )
        assert result["tor->spine"] == pytest.approx(20.0)
        assert result["spine->tor"] == 0.0
        assert result["host->tor"] == 0.0


class TestReportRendering:
    def test_series_table_contains_schemes_and_bins(self):
        records_a = [record(500, 2.0), record(5_000, 4.0)]
        records_b = [record(500, 8.0), record(5_000, 16.0)]
        table = format_series_table(
            "Fig 5a",
            {
                "BFC": slowdown_series(records_a),
                "DCQCN": slowdown_series(records_b),
            },
        )
        assert "Fig 5a" in table
        assert "BFC" in table and "DCQCN" in table
        assert "<1KB" in table
        assert "8.00" in table

    def test_comparison_table(self):
        table = format_comparison_table(
            "Utilization",
            {"BFC": {"10": 0.99, "100": 0.97}, "DCQCN+Win": {"10": 0.9}},
            columns=["10", "100"],
        )
        assert "BFC" in table and "DCQCN+Win" in table
        assert "0.990" in table
        assert "-" in table  # missing value rendered as a dash

    def test_cdf_table(self):
        table = render_cdf_table(
            "Buffer occupancy",
            {"BFC": [(0.5, 0.5), (1.0, 1.0)], "DCQCN": [(2.0, 0.5), (4.0, 1.0)]},
        )
        assert "Buffer occupancy" in table
        assert "BFC" in table and "DCQCN" in table

    def test_hardware_trend_matches_paper_figure(self):
        rows = hardware_trend_table()
        assert len(rows) == len(BROADCOM_TREND) == 4
        by_chip = {r["chip"]: r for r in rows}
        # Fig. 1's claim: the buffer/capacity ratio halves from ~80 us to ~40 us.
        assert by_chip["Trident2"]["buffer_over_capacity_us"] > 70
        assert by_chip["Tomahawk3"]["buffer_over_capacity_us"] == pytest.approx(40, abs=5)
        assert (
            by_chip["Tomahawk3"]["buffer_over_capacity_us"]
            < by_chip["Trident2"]["buffer_over_capacity_us"] / 1.5
        )

    def test_hardware_trend_capacity_increases(self):
        rows = hardware_trend_table()
        capacities = [r["capacity_tbps"] for r in rows]
        assert capacities == sorted(capacities)

    def test_tomahawk3_has_ten_times_trident2_capacity(self):
        # Fig. 1: capacity grew tenfold (1.28 -> 12.8 Tbps) in six years.
        by_chip = {r["chip"]: r for r in hardware_trend_table()}
        assert by_chip["Tomahawk3"]["capacity_tbps"] == 10 * by_chip["Trident2"]["capacity_tbps"]
