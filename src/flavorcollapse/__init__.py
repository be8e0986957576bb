"""Collapse-model dynamics of decaying flavor-oscillating two-level systems.

Three independent routes to the same observables: closed-form analytics
(:mod:`flavorcollapse.analytic`), master-equation integration and exact
position-kernel solutions (:mod:`flavorcollapse.lindblad`), and
stochastic-trajectory Monte Carlo (:mod:`flavorcollapse.sde`), plus the
inverse estimators for absolute masses and collapse rates and a
reproducible CLI (:mod:`flavorcollapse.cli`).
"""

from . import analytic, cli, core, errors, lindblad, operators, sde
from .core import (
    Basis,
    CollapseParams,
    Convention,
    EnsembleStats,
    FlavorTarget,
    MesonParams,
    Model,
    QuantumState,
    TimeSeries,
)

__version__ = "0.1.0"

__all__ = [
    "analytic",
    "cli",
    "core",
    "errors",
    "lindblad",
    "operators",
    "sde",
    "Basis",
    "CollapseParams",
    "Convention",
    "EnsembleStats",
    "FlavorTarget",
    "MesonParams",
    "Model",
    "QuantumState",
    "TimeSeries",
]
