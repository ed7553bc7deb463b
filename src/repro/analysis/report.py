"""Plain-text renderers for the paper's figures and tables.

``repro figure NAME`` prints these tables (each figure's ``render`` in
``repro.experiments.figures``) so the reproduced series can be compared
against the paper by eye.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple


def format_series_table(
    title: str,
    series: Mapping[str, Sequence[Tuple[str, float, int]]],
    value_label: str = "p99 FCT slowdown",
) -> str:
    """Render per-scheme, per-bin series as an aligned text table.

    ``series`` maps a scheme name to the output of
    :func:`repro.analysis.fct.slowdown_series`.
    """
    schemes = list(series)
    if not schemes:
        return f"{title}\n(no data)\n"
    bins = [label for label, _, _ in series[schemes[0]]]
    header = ["flow size"] + schemes
    rows: List[List[str]] = []
    for i, bin_label in enumerate(bins):
        row = [bin_label]
        for scheme in schemes:
            label, value, count = series[scheme][i]
            if value != value:  # NaN
                row.append("-")
            else:
                row.append(f"{value:.2f}")
        rows.append(row)
    lines = [title, f"(values: {value_label})"]
    lines.extend(_align([header] + rows))
    return "\n".join(lines) + "\n"


def format_comparison_table(
    title: str,
    rows: Mapping[str, Mapping[str, float]],
    columns: Sequence[str],
    fmt: str = "{:.3f}",
) -> str:
    """Render a {row -> {column -> value}} mapping as an aligned text table."""
    header = ["" ] + list(columns)
    body: List[List[str]] = []
    for name, values in rows.items():
        row = [name]
        for column in columns:
            value = values.get(column)
            row.append("-" if value is None else fmt.format(value))
        body.append(row)
    lines = [title]
    lines.extend(_align([header] + body))
    return "\n".join(lines) + "\n"


def render_cdf_table(
    title: str,
    cdfs: Mapping[str, Sequence[Tuple[float, float]]],
    value_label: str = "MB",
) -> str:
    """Render one or more CDFs as percentile rows (10 %, 20 %, ..., 100 %)."""
    fractions = [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0]
    header = ["fraction"] + list(cdfs)
    body: List[List[str]] = []
    for fraction in fractions:
        row = [f"{fraction:.2f}"]
        for name, points in cdfs.items():
            value = _value_at_fraction(points, fraction)
            row.append("-" if value is None else f"{value:.3f}")
        body.append(row)
    lines = [title, f"(values: {value_label})"]
    lines.extend(_align([header] + body))
    return "\n".join(lines) + "\n"


def _value_at_fraction(
    points: Sequence[Tuple[float, float]], fraction: float
) -> float | None:
    if not points:
        return None
    for value, frac in points:
        if frac >= fraction:
            return value
    return points[-1][0]


def _align(rows: Sequence[Sequence[str]]) -> List[str]:
    widths = [0] * max(len(r) for r in rows)
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return lines


# ---------------------------------------------------------------------------
# Fig. 1: hardware trend data (static, from the paper's Broadcom survey).
# ---------------------------------------------------------------------------

#: (chip, year, switch capacity in Tbps, buffer size in MB).
BROADCOM_TREND: List[Tuple[str, int, float, float]] = [
    ("Trident2", 2012, 1.28, 12.0),
    ("Tomahawk", 2014, 3.2, 16.0),
    ("Tomahawk2", 2016, 6.4, 42.0),
    ("Tomahawk3", 2018, 12.8, 64.0),
]


def hardware_trend_table() -> List[Dict[str, float]]:
    """The Fig. 1 series: buffer size divided by switch capacity, in microseconds.

    A buffer of B bytes on a chip of C bits/s can absorb 8 B / C seconds of
    traffic; the paper plots this "buffer/capacity" time falling from ~80 us
    to ~40 us across Broadcom generations.
    """
    rows: List[Dict[str, float]] = []
    for chip, year, capacity_tbps, buffer_mb in BROADCOM_TREND:
        capacity_bps = capacity_tbps * 1e12
        buffer_bits = buffer_mb * 1e6 * 8
        rows.append(
            {
                "chip": chip,
                "year": year,
                "capacity_tbps": capacity_tbps,
                "buffer_mb": buffer_mb,
                "buffer_over_capacity_us": buffer_bits / capacity_bps * 1e6,
            }
        )
    return rows
