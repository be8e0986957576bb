"""Domain types, parameter validation, basis conventions and the state table.

All quantities live in natural units (hbar = c = 1): masses and decay
widths share the unit of inverse time.  Unit conversion from SI inputs
is owned entirely by the CLI layer.

Conventions fixed here and used project-wide:

* eigenstate ordering (L, H) = (index 0, index 1);
* flavor ordering (M0, M0bar) = (index 0, index 1);
* the flavor/mass mixing matrix is the real symmetric involution
  U = [[1, 1], [1, -1]] / sqrt(2), i.e. the same matrix maps mass
  coordinates to flavor coordinates and back.

Every type in this module is an immutable value after construction and
safe to share across concurrent workers.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import InvalidParams

__all__ = [
    "L",
    "H",
    "STATES",
    "Convention",
    "Model",
    "FlavorTarget",
    "MesonParams",
    "CollapseParams",
    "EnsembleStats",
    "mass_ratio",
    "mass_ratios",
]

# Eigenstate indices, fixed project-wide.
L = 0
H = 1


class Convention(enum.Enum):
    """Mass-ratio convention: m_i/m0 (normal) or m0/m_i (inverted)."""

    NORMAL = "normal"
    INVERTED = "inverted"


class Model(enum.Enum):
    """The collapse model of ``CollapseParams``; QM is the absence of collapse parameters."""

    QMUPL = "QMUPL"
    CSL = "CSL"


class FlavorTarget(enum.Enum):
    """Flavor transition target: the particle or the antiparticle state."""

    M0 = "M0"
    M0BAR = "M0bar"


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InvalidParams(message)


def _time_grid(t_grid) -> np.ndarray:
    """``t_grid`` as a float array, which must be 1-d, finite and increase strictly from 0."""
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or len(t) < 1 or t[0] != 0.0 or not np.all(np.isfinite(t)) or not np.all(np.diff(t) > 0.0):
        raise InvalidParams("t_grid must be finite, 1-d and increase strictly from 0")
    return t


@dataclass(frozen=True)
class MesonParams:
    """Masses and decay widths of the two lifetime eigenstates.

    Parameters are in natural units (inverse time).  Invariants:
    m_H > m_L >= 0 and both widths nonnegative.
    """

    m_L: float
    m_H: float
    gamma_L: float
    gamma_H: float

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "MesonParams":
        _require(math.isfinite(self.m_L) and math.isfinite(self.m_H), "masses must be finite")
        _require(self.m_L >= 0.0, "m_L must be nonnegative")
        _require(self.m_H > self.m_L, "delta_m must be positive")
        _require(
            math.isfinite(self.gamma_L) and math.isfinite(self.gamma_H),
            "widths must be finite",
        )
        _require(self.gamma_L >= 0.0, "gamma_L must be nonnegative")
        _require(self.gamma_H >= 0.0, "gamma_H must be nonnegative")
        return self

    @property
    def masses(self) -> np.ndarray:
        return np.array([self.m_L, self.m_H])

    @property
    def widths(self) -> np.ndarray:
        return np.array([self.gamma_L, self.gamma_H])

    @property
    def delta_m(self) -> float:
        return self.m_H - self.m_L

    @property
    def delta_gamma(self) -> float:
        return self.gamma_L - self.gamma_H

    @property
    def gamma_bar(self) -> float:
        return 0.5 * (self.gamma_L + self.gamma_H)


_SQRT_4PI = math.sqrt(4.0 * math.pi)


@dataclass(frozen=True)
class CollapseParams:
    """Collapse-model selection and constants.

    ``rate`` is the model's own coupling: lambda_Q (1/(m^2 s)) for QMUPL,
    gamma (m^d/s) for CSL.  ``alpha`` is the squared width of the initial
    Gaussian wave packet, psi(x) = (pi*alpha)^(-d/4) exp(-x^2/(2*alpha)),
    so the position density has variance alpha/2 per axis.  ``m0`` is the
    reference mass of the mass-ratio coupling; it is a free parameter of
    the model and is never defaulted.
    """

    model: Model
    rate: float
    beta: float
    m0: float
    alpha: float
    d: int = 3
    r_C: float | None = None
    ratio_convention: Convention = Convention.NORMAL

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "CollapseParams":
        _require(isinstance(self.model, Model), "model must be a Model enum member")
        _require(isinstance(self.ratio_convention, Convention), "ratio_convention must be a Convention")
        _require(math.isfinite(self.rate) and self.rate >= 0.0, "rate must be nonnegative")
        _require(0.0 <= self.beta <= 1.0, "beta out of [0,1]")
        _require(math.isfinite(self.m0) and self.m0 > 0.0, "m0 must be positive")
        _require(math.isfinite(self.alpha) and self.alpha > 0.0, "alpha must be positive")
        _require(self.d in (1, 2, 3), "d must be 1, 2 or 3")
        if self.model is Model.CSL:
            _require(
                self.r_C is not None and math.isfinite(self.r_C) and self.r_C > 0.0,
                "r_C must be positive for CSL",
            )
            try:
                finite = math.isfinite(self.effective_rate)
            except (OverflowError, ZeroDivisionError):  # (sqrt(4 pi) r_C)^d overflows or underflows to 0
                finite = False
            _require(finite, "r_C gives no finite effective rate gamma / (sqrt(4 pi) r_C)^d")
        return self

    @property
    def effective_rate(self) -> float:
        """Rate entering the observables, in inverse time.

        QMUPL: lambda_Q * alpha; CSL: gamma / (sqrt(4 pi) r_C)^d.
        """
        if self.model is Model.QMUPL:
            return self.rate * self.alpha
        return self.rate / (_SQRT_4PI * self.r_C) ** self.d


def mass_ratio(meson: MesonParams, collapse: CollapseParams, i: int) -> float:
    """Dimensionless coupling of eigenstate ``i`` (0 = L, 1 = H)."""
    if i not in (L, H):
        raise InvalidParams("eigenstate index must be 0 (L) or 1 (H)")
    m_i = float(meson.masses[i])  # a Python float: an overflowing ratio is inf, with no warning
    if collapse.ratio_convention is Convention.NORMAL:
        return m_i / collapse.m0
    if m_i == 0.0:
        raise InvalidParams("inverted mass ratio undefined for massless eigenstate")
    return collapse.m0 / m_i


def mass_ratios(meson: MesonParams, collapse: CollapseParams) -> np.ndarray:
    """Both mass ratios as an array ordered (L, H)."""
    return np.array([mass_ratio(meson, collapse, L), mass_ratio(meson, collapse, H)])


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
# Mass-basis (L, H) amplitudes of the initial and final states of every
# route: M0 = U e_0 and M0bar = U e_1 for the mixing matrix U, L and H the
# mass eigenstates.  Read-only, the table and its arrays alike.
_AMPLITUDES = np.array([[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2], [1.0, 0.0], [0.0, 1.0]], dtype=complex)
_AMPLITUDES.setflags(write=False)
STATES = MappingProxyType(dict(zip(("M0", "M0bar", "L", "H"), _AMPLITUDES)))


@dataclass(frozen=True)
class EnsembleStats:
    """Per-time ensemble means and standard errors over trajectories.

    Rows follow the time grid of the call that produced them, columns
    ``labels``.  ``scaled_covariances`` holds the per-time sample
    covariance of the scalar observables, used for error propagation,
    divided by 4**``exponents`` (one integer per time), so a covariance
    below the float range keeps its digits; ``covariances`` undoes the
    scale.
    """

    means: np.ndarray
    stderrs: np.ndarray
    labels: tuple[str, ...]
    scaled_covariances: np.ndarray | None = field(default=None, repr=False)
    exponents: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if np.any(np.asarray(self.stderrs) < 0.0):
            raise InvalidParams("standard errors must be nonnegative")
        if np.asarray(self.means).shape != np.asarray(self.stderrs).shape:
            raise InvalidParams("means and stderrs must have identical shape")

    @property
    def covariances(self) -> np.ndarray | None:
        """The per-time sample covariance; an entry below the float range underflows."""
        if self.scaled_covariances is None:
            return None
        return np.ldexp(self.scaled_covariances, 2 * self.exponents[:, None, None])

    def column(self, label: str) -> tuple[np.ndarray, np.ndarray]:
        k = self.labels.index(label)
        return self.means[:, k], self.stderrs[:, k]
