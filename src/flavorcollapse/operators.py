"""Operator constructors on the 2-dim flavor space and the 4-dim enlarged space.

All matrices are in the mass basis, where every Hermitian operator of
the model is diagonal.  The enlarged space is ordered (M_L, M_H, f_L,
f_H): the first block is the flavor sector in mass coordinates, the
second the orthonormal decay-product states.

Pure functions over immutable inputs; safe to call concurrently.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import CollapseParams, MesonParams, mass_ratios
from .errors import NegativeWidth, ZeroRate

__all__ = [
    "reduced_mass_operator",
    "decay_operator",
    "collapse_operator_A",
    "collapse_operator_B",
    "EnlargedOperators",
    "enlarged_operators",
    "induced_decay_operator",
    "induced_decay_widths",
]


def reduced_mass_operator(meson: MesonParams) -> np.ndarray:
    """Mass operator gauged by the global shift -m_L, i.e. diag(0, delta_m).

    A constant energy offset is unobservable (it commutes with every
    state and only rotates a global phase); removing it keeps the
    generator scale at delta_m, which is what physical-meson inputs need:
    absolute masses exceed the splitting by up to fourteen orders.
    """
    return np.diag([0.0, meson.delta_m])


def decay_operator(meson: MesonParams) -> np.ndarray:
    """Hermitian PSD decay operator, diag(gamma_L, gamma_H) in the mass basis."""
    return np.diag(meson.widths.astype(float))


def collapse_operator_A(meson: MesonParams, collapse: CollapseParams) -> np.ndarray:
    """Self-adjoint collapse operator diag(m~_L, m~_H) in the mass basis.

    The mass ratios follow the configured convention (normal or inverted).
    """
    return np.diag(mass_ratios(meson, collapse))


def collapse_operator_B(meson: MesonParams, collapse: CollapseParams) -> np.ndarray:
    """Decay-triggering map diag(sqrt(gamma_i / lambda_eff)).

    Rows index the decay states (f_L, f_H), columns the mass eigenstates,
    so B^dag B = Gamma / lambda_eff on the flavor sector.
    """
    lam = collapse.effective_rate
    widths = meson.widths
    if lam == 0.0:
        if np.any(widths > 0.0):
            raise ZeroRate("collapse_operator_B undefined: zero effective rate with nonzero widths")
        return np.zeros((2, 2))
    return np.diag(np.sqrt(widths / lam))


class EnlargedOperators(NamedTuple):
    """Block operators on the 4-dim space ordered (M_L, M_H, f_L, f_H)."""

    hamiltonian: np.ndarray
    collapse_a: np.ndarray
    collapse_b: np.ndarray


def _upper_block(block: np.ndarray) -> np.ndarray:
    out = np.zeros((4, 4), dtype=block.dtype)
    out[:2, :2] = block
    return out


def _lower_left_block(block: np.ndarray) -> np.ndarray:
    out = np.zeros((4, 4), dtype=block.dtype)
    out[2:, :2] = block
    return out


def enlarged_operators(meson: MesonParams, collapse: CollapseParams) -> EnlargedOperators:
    """All 4x4 block operators of the enlarged-space construction.

    The gauged Hamiltonian and the self-adjoint collapse operator act on
    the flavor block only (the decay block carries no dynamics); the decay
    operator B occupies the lower-left block, mapping flavor to decay states.
    """
    return EnlargedOperators(
        hamiltonian=_upper_block(reduced_mass_operator(meson)),
        collapse_a=_upper_block(collapse_operator_A(meson, collapse)),
        collapse_b=_lower_left_block(collapse_operator_B(meson, collapse)),
    )


def induced_decay_operator(meson: MesonParams, collapse: CollapseParams) -> np.ndarray:
    """Decay operator K = lambda_eff (2 beta - 1) A^2 of the time-asymmetric collapse noise.

    Diagonal in the mass basis.  It is positive semidefinite only for
    beta >= 1/2 but is returned for every beta: the linear family equation
    is defined on all of [0, 1].
    """
    ratios = mass_ratios(meson, collapse)
    return np.diag(collapse.effective_rate * (2.0 * collapse.beta - 1.0) * ratios**2)


def induced_decay_widths(meson: MesonParams, collapse: CollapseParams) -> tuple[float, float]:
    """Decay widths generated by the time-asymmetric collapse dynamics.

    The diagonal gamma_i = lambda_eff (2 beta - 1) m~_i^2 of
    ``induced_decay_operator``, nonnegative only for beta >= 1/2; the
    unphysical sign is flagged rather than returned.
    """
    if collapse.beta < 0.5:
        raise NegativeWidth(
            f"beta = {collapse.beta} < 1/2 yields negative induced widths"
        )
    gamma_l, gamma_h = np.diagonal(induced_decay_operator(meson, collapse))
    return float(gamma_l), float(gamma_h)
