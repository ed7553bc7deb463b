"""Shared helpers for the per-figure benchmark harness.

Each benchmark regenerates one table/figure of the paper at a reduced scale
(see DESIGN.md §2 and EXPERIMENTS.md).  The measured series are written to
``benchmarks/results/<figure>.txt`` so they can be inspected and diffed
against the paper, and key numbers are attached to the pytest-benchmark
``extra_info`` of each run.

Running the configs goes through :class:`repro.campaign.Campaign`, so a
figure's schemes can execute across a process pool: set ``REPRO_CORES=4``
to cut the wall-clock of multi-config figures to roughly the slowest single
config.  Results are bit-identical to the serial path (each trial is
deterministic in its config and seed).

Environment variables
---------------------
REPRO_BENCH_SCALE
    "tiny" (default), "small" or "paper" — passed to the scenario factories.
REPRO_CORES
    When set, a figure's configs run at ``cores="auto"``, which takes this
    many CPU slots (a sharded config counts as ``shards`` of them); unset
    means serial.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict

import pytest

from repro.campaign import CORES_ENV, Campaign
from repro.experiments.runner import ExperimentConfig, ExperimentResult

RESULTS_DIR = Path(__file__).parent / "results"


def bench_scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "tiny")


def run_config_map(configs: Dict[str, ExperimentConfig]) -> Dict[str, ExperimentResult]:
    """Run every configuration in a {label: config} mapping.

    Nested mappings (e.g. ``{scheme: {fan_in: config}}``) are accepted too;
    their labels flatten to ``"scheme/fan_in"``.  With ``REPRO_CORES`` set
    the runs fan out over that many CPU slots; otherwise they run serially.
    """
    cores = "auto" if os.environ.get(CORES_ENV, "").strip() else None
    campaign = Campaign.from_configs("bench", configs)
    return campaign.run(cores=cores).experiment_results_by_label()


def run_nested_config_map(
    configs: Dict[str, Dict[int, ExperimentConfig]]
) -> Dict[str, Dict[int, ExperimentResult]]:
    """Run a {scheme: {int_key: config}} sweep, preserving the nested shape.

    The flat campaign labels are "scheme/key"; this regroups them with the
    integer keys restored.
    """
    nested: Dict[str, Dict[int, ExperimentResult]] = {}
    for label, result in run_config_map(configs).items():
        scheme, key = label.rsplit("/", 1)
        nested.setdefault(scheme, {})[int(key)] = result
    return nested


def write_result(name: str, text: str) -> Path:
    """Persist a rendered table under benchmarks/results/ and echo it."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text, encoding="utf-8")
    print(f"\n[{name}] scale={bench_scale()}\n{text}")
    return path


@pytest.fixture
def scale() -> str:
    return bench_scale()
