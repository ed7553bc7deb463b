"""The paper's who-wins claims, checked on every registered figure.

Each figure's campaign runs once at ``tiny`` scale, seed 1, and every claim
is its own test, so a failure names the paper sentence that stopped holding
and shows the measured values it was checked on.
"""

import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro.analysis.report import format_comparison_table
from repro.campaign import summarize_result
from repro.experiments.figures import FIGURES
from repro.experiments.scenarios import get_scale

SCALE = "tiny"
SEED = 1
SRC = str(Path(__file__).resolve().parents[1] / "src")

CLAIMS = [
    pytest.param(name, index, id=f"{name}-{index}")
    for name, figure in FIGURES.items()
    for index in range(len(figure.claims))
]


@lru_cache(maxsize=1)  # the claims of one figure run back to back
def figure_results(name):
    campaign = FIGURES[name].campaign(SCALE, seed=SEED)
    return campaign.run().experiment_results_by_label()


def measured(name, results):
    summary = format_comparison_table(
        "Summary",
        {label: summarize_result(result) for label, result in results.items()},
        columns=["p99_slowdown", "completion_rate", "dropped_packets", "events_processed"],
        fmt="{:.4g}",
    )
    return f"{FIGURES[name].render(results)}\n{summary}"


def test_registry_covers_every_simulated_figure():
    assert list(FIGURES) == [
        "fig2", "fig3", "fig5a", "fig5b", "fig5c", "fig6", "fig7", "fig8", "fig9",
        "fig10", "fig11", "fig12", "fig13", "fig14",
        "fig_est", "fig_collective", "fig_rpc",
    ]
    for name, figure in FIGURES.items():
        assert figure.name == name
        assert figure.claims, f"{name} declares no claim"
        for claim in figure.claims:
            assert claim.statement.strip(), f"{name} has a claim without a statement"


@pytest.mark.parametrize("name, index", CLAIMS)
def test_claim_holds(name, index):
    claim = FIGURES[name].claims[index]
    results = figure_results(name)
    assert claim.holds(results, get_scale(SCALE)), (
        f"{name}: {claim.statement}\n\nmeasured at scale={SCALE}, seed={SEED}:\n"
        f"{measured(name, results)}"
    )


def test_fig8_flows_keep_distinct_ids_in_a_fresh_process():
    # fig8 bakes its long-lived flows (ids from the process-wide counter) into
    # the config; the build must not hand the periodic incast the same ids.
    # A fresh interpreter is what exposes it: there both start counting at 1.
    code = (
        "from repro.experiments.runner import build_simulation\n"
        "from repro.experiments.scenarios import fig8_configs\n"
        "config = fig8_configs('tiny', ['BFC'], fan_ins=[7], seed=1)['BFC'][7]\n"
        "ids = [flow.flow_id for flow in build_simulation(config)[3]]\n"
        "print(len(ids), len(set(ids)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["60", "60"]
