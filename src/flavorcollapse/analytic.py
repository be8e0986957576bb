"""Closed-form observables and inverse estimators.

Transition probabilities for lifetime and flavor states in standard
quantum mechanics and under the two position-coupled collapse models,
their asymmetry observables, the absolute-mass quadratic, and
collapse-rate lower bounds.

Every probability takes the meson and the collapse parameters, None for
QM and otherwise a ``CollapseParams`` whose ``model`` picks QMUPL or CSL,
and accepts a scalar time or an array of times; pure functions
throughout, safe for concurrent grid evaluation.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    Convention,
    CollapseParams,
    FlavorTarget,
    MesonParams,
    Model,
    mass_ratios,
)
from .errors import (
    DegenerateDenominator,
    DegenerateWidths,
    InvalidParams,
    NegativeTime,
    NoRealRoot,
    SingularTime,
)

__all__ = [
    "prob_lifetime",
    "prob_flavor",
    "asymmetry_closed_form",
    "solve_absolute_masses",
    "collapse_rate_lower_bound",
    "bound_curve",
    "GRW_COLLAPSE_RATE",
    "ADLER_COLLAPSE_RATE",
    "ADLER_COLLAPSE_RATE_BAND",
    "ADLER_COHERENCE_LENGTH",
]

# Reference collapse-rate values overlaid on bound plots, in 1/s:
# the historical GRW proposal and Adler's value with its two-decade band,
# quoted at coherence length 1e-7 m.
GRW_COLLAPSE_RATE = 1e-16
ADLER_COLLAPSE_RATE = 1e-8
ADLER_COLLAPSE_RATE_BAND = (1e-10, 1e-6)
ADLER_COHERENCE_LENGTH = 1e-7


def _times(t) -> tuple[np.ndarray, bool]:
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    if not np.all(np.isfinite(arr)):
        raise InvalidParams("times must be finite")
    if np.any(arr < 0.0):
        raise NegativeTime("probabilities are defined for t >= 0")
    return np.atleast_1d(arr), scalar


def _out(values: np.ndarray, scalar: bool):
    return float(values[0]) if scalar else values


def _check_eigenstate(i: int) -> None:
    if i not in (0, 1):
        raise InvalidParams("eigenstate index must be 0 (L) or 1 (H)")


def _ratio_terms(meson: MesonParams, collapse: CollapseParams):
    """Effective rate and the mass-ratio combinations the formulas use."""
    ratios = mass_ratios(meson, collapse)
    sum_sq = float(ratios[0] ** 2 + ratios[1] ** 2)
    diff_sq = float((ratios[1] - ratios[0]) ** 2)       # (delta m~)^2
    sq_diff = float(ratios[1] ** 2 - ratios[0] ** 2)    # delta(m~^2), signed
    return collapse.effective_rate, ratios, sum_sq, diff_sq, sq_diff


def _rates(meson: MesonParams, collapse: CollapseParams | None) -> tuple[float, float, float]:
    """Decay rates (Gamma_L, Gamma_H, Gamma_LH) of the lifetime states and of their interference.

    QM (no collapse parameters) takes the measured widths; a collapse model
    induces lambda (2 beta - 1) m~_i^2 and (lambda/2) ((2 beta - 1) sum m~^2 + (delta m~)^2).
    """
    if collapse is None:
        return meson.gamma_L, meson.gamma_H, meson.gamma_bar
    lam, ratios, sum_sq, diff_sq, _ = _ratio_terms(meson, collapse)
    two_beta_m1 = 2.0 * collapse.beta - 1.0
    return (
        lam * two_beta_m1 * float(ratios[0] ** 2),
        lam * two_beta_m1 * float(ratios[1] ** 2),
        0.5 * lam * (two_beta_m1 * sum_sq + diff_sq),
    )


def _qmupl_base(rate: float, tt: np.ndarray, what: str) -> np.ndarray:
    """1 + rate t, which a negative rate drives to zero at t* = -1/rate."""
    base = 1.0 + rate * tt
    if np.any(base <= 0.0):
        raise SingularTime(f"{what} factor singular at t* = {-1.0 / rate:g}; requested t reaches it")
    return base


def _damping(collapse: CollapseParams | None, rate: float, tt: np.ndarray, what: str) -> np.ndarray:
    """D(rate t): exp(-rate t) for QM and CSL, (1 + rate t)^(-d/2) for QMUPL."""
    if collapse is not None and collapse.model is Model.QMUPL:
        return _qmupl_base(rate, tt, what) ** (-0.5 * collapse.d)
    return np.exp(-(rate * tt))


def prob_lifetime(meson: MesonParams, collapse: CollapseParams | None, i: int, j: int, t):
    """Survival probability D(Gamma_i t) of lifetime eigenstate i; zero for j != i.

    ``collapse`` None is QM; otherwise its ``model`` picks QMUPL or CSL.
    """
    _check_eigenstate(i)
    _check_eigenstate(j)
    tt, scalar = _times(t)
    if i != j:
        return _out(np.zeros_like(tt), scalar)
    return _out(_damping(collapse, _rates(meson, collapse)[i], tt, "lifetime"), scalar)


def prob_flavor(meson: MesonParams, collapse: CollapseParams | None, target: FlavorTarget, t):
    """Flavor transition probability from M0, for QM (``collapse`` None), QMUPL or CSL.

    1/4 [D(Gamma_L t) + D(Gamma_H t) +- 2 cos(delta_m t) D(Gamma_LH t)],
    upper sign for M0, lower for M0bar.
    """
    tt, scalar = _times(t)
    rate_l, rate_h, rate_lh = _rates(meson, collapse)
    sign = 1.0 if target is FlavorTarget.M0 else -1.0
    diag = _damping(collapse, rate_l, tt, "lifetime") + _damping(collapse, rate_h, tt, "lifetime")
    interference = 2.0 * _damping(collapse, rate_lh, tt, "interference") * np.cos(tt * meson.delta_m)
    return _out(0.25 * (diag + sign * interference), scalar)


def asymmetry_closed_form(meson: MesonParams, collapse: CollapseParams | None, t):
    """The closed-form flavor asymmetry (P_same - P_flip) / (P_same + P_flip) of QM (``collapse`` None),
    QMUPL or CSL."""
    tt, scalar = _times(t)
    osc = np.cos(tt * meson.delta_m)
    if collapse is None:
        return _out(osc / np.cosh(0.5 * meson.delta_gamma * tt), scalar)

    lam, _, _, diff_sq, sq_diff = _ratio_terms(meson, collapse)
    beta, d = collapse.beta, collapse.d
    if collapse.model is Model.CSL:
        damping = np.exp(-0.5 * lam * diff_sq * tt)
        return _out(osc * damping / np.cosh(lam * (beta - 0.5) * sq_diff * tt), scalar)

    base_l, base_h = (_qmupl_base(rate, tt, "lifetime") for rate in _rates(meson, collapse)[:2])
    first = (1.0 - 0.5 * lam * ((1.0 - 2.0 * beta) * sq_diff - diff_sq) * tt / base_l) ** (0.5 * d)
    second = (1.0 + 0.5 * lam * ((1.0 - 2.0 * beta) * sq_diff + diff_sq) * tt / base_h) ** (0.5 * d)
    return _out(2.0 * osc / (first + second), scalar)


def solve_absolute_masses(
    delta_gamma: float, gamma_bar: float, delta_m: float, convention: Convention
) -> tuple[float, ...]:
    """Every real root m_L of the quadratic linking widths and mass splitting, ascending.

    2*dG/(dG +- 2*Gbar) * m_L^2 + 2*dm * m_L + dm^2 = 0, upper sign for
    the normal mass-ratio convention, lower sign for the inverted one.
    The roots are unfiltered: only a positive one is a physical mass,
    with m_H = m_L + delta_m.
    """
    if not (delta_m > 0.0):
        raise InvalidParams("delta_m must be positive")
    denom = delta_gamma + 2.0 * gamma_bar if convention is Convention.NORMAL else delta_gamma - 2.0 * gamma_bar
    if denom == 0.0:
        raise DegenerateDenominator("mass quadratic denominator vanishes for this convention")

    a = 2.0 * delta_gamma / denom
    b = 2.0 * delta_m
    c = delta_m**2
    if a == 0.0:
        return (-0.5 * delta_m,)
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        raise NoRealRoot("mass quadratic has no real root")
    q = -0.5 * (b + math.sqrt(disc))  # b > 0, so q < 0 and both divisions are stable
    return tuple(sorted((q / a, c / q)))


def collapse_rate_lower_bound(meson: MesonParams, m0: float, convention: Convention) -> float:
    """Lower bound on the effective collapse rate from measured widths.

    (delta_m / (m0 (sqrt(gamma_L^{+-1}) - sqrt(gamma_H^{+-1}))))^{-+2},
    upper signs for the normal convention, lower for the inverted one.
    Equals the rate gamma_i / ((2 beta - 1) m~_i^2) at beta = 1 evaluated
    on the mass solution of the quadratic above.
    """
    if not (m0 > 0.0):
        raise InvalidParams("m0 must be positive")
    g_l, g_h = meson.gamma_L, meson.gamma_H
    if g_l == g_h:
        raise DegenerateWidths("equal decay widths leave the bound undefined")
    if convention is Convention.NORMAL:
        gap = math.sqrt(g_l) - math.sqrt(g_h)
        return (m0 * gap / meson.delta_m) ** 2
    if g_l == 0.0 or g_h == 0.0:
        raise DegenerateWidths("inverted convention requires strictly positive widths")
    gap = math.sqrt(1.0 / g_l) - math.sqrt(1.0 / g_h)
    return (meson.delta_m / (m0 * gap)) ** 2


def bound_curve(
    meson: MesonParams, m0_range: tuple[float, float], convention: Convention, n_points: int
) -> tuple[np.ndarray, np.ndarray]:
    """Collapse-rate lower bound sampled log-uniformly over a reference-mass range.

    Returns the reference masses m0 and the bound at each of them.
    """
    lo, hi = m0_range
    if not (0.0 < lo < hi):
        raise InvalidParams("m0_range must be positive and increasing")
    if n_points < 2:
        raise InvalidParams("n_points must be at least 2")
    m0s = np.logspace(math.log10(lo), math.log10(hi), n_points)
    bounds = np.array([collapse_rate_lower_bound(meson, m0, convention) for m0 in m0s])
    return m0s, bounds
