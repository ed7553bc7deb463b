"""Experiment harness: scheme wiring, the runner, and per-figure scenarios.

Grids of experiments (sweeps, repeats, parallel execution) live one level up
in :mod:`repro.campaign`; this package provides the single-run primitive and
the pluggable scheme registry it draws from.
"""

from .schemes import (
    SCHEMES,
    DuplicateSchemeError,
    SchemeEnvironment,
    SchemeSpec,
    UnknownSchemeError,
    available_schemes,
    get_scheme,
    register_scheme,
    register_scheme_spec,
    unregister_scheme,
)
from .runner import (
    ExperimentConfig,
    ExperimentResult,
    TrafficSpec,
    run_experiment,
)
from . import scenarios

__all__ = [
    "SCHEMES",
    "SchemeSpec",
    "SchemeEnvironment",
    "UnknownSchemeError",
    "DuplicateSchemeError",
    "available_schemes",
    "get_scheme",
    "register_scheme",
    "register_scheme_spec",
    "unregister_scheme",
    "ExperimentConfig",
    "ExperimentResult",
    "TrafficSpec",
    "run_experiment",
    "scenarios",
]
