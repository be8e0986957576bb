"""Collapse-model dynamics of decaying flavor-oscillating two-level systems.

Three independent routes to the same observables: closed-form analytics
(:mod:`flavorcollapse.analytic`), master-equation integration and exact
position-kernel solutions (:mod:`flavorcollapse.lindblad`), and
stochastic-trajectory Monte Carlo (:mod:`flavorcollapse.sde`), plus the
inverse estimators for absolute masses and collapse rates and a
reproducible CLI (:mod:`flavorcollapse.cli`).

Only :mod:`~flavorcollapse.core` and :mod:`~flavorcollapse.errors` load
with the package; every other submodule loads on first access, so a CLI
command pays only for the routes it runs.
"""

import importlib

from . import core, errors
from .core import (
    CollapseParams,
    Convention,
    EnsembleStats,
    FlavorTarget,
    MesonParams,
    Model,
)

__version__ = "0.1.0"

_LAZY_MODULES = ("analytic", "cli", "lindblad", "operators", "sde")

__all__ = [
    "analytic",
    "cli",
    "core",
    "errors",
    "lindblad",
    "operators",
    "sde",
    "CollapseParams",
    "Convention",
    "EnsembleStats",
    "FlavorTarget",
    "MesonParams",
    "Model",
]


def __getattr__(name: str):
    if name in _LAZY_MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
