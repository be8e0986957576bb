"""Operator constructors on the 2-dim flavor space, and the generator contract of every master equation.

All matrices are in the mass basis, where every Hermitian operator of
the model is diagonal.  The collapse operator is A = diag(m~_L, m~_H),
the mass ratios of ``core.mass_ratios``; the model takes it centred.
There are two decay operators K: the measured widths Gamma of QM
(``decay_operator``) and the lambda_eff (2 beta - 1) A^2 that the
collapse noise induces (``induced_decay_operator``).  The induced widths
are the diagonal of the latter; they are negative for beta < 1/2, which
``lindblad.MasterSpec`` rejects, as it takes a positive semidefinite K
only.  The 4-dim enlarged space (M_L, M_H, f_L, f_H) is built from a flavor
master equation by ``lindblad.enlarged_master_spec``; the contract below
covers its 4x4 generators too.

Pure functions over immutable inputs; safe to call concurrently.
"""

from __future__ import annotations

import numpy as np

from .core import CollapseParams, MesonParams, mass_ratios
from .errors import DimensionMismatch, InvalidParams

__all__ = [
    "reduced_mass_operator",
    "decay_operator",
    "centred_collapse_operator",
    "induced_decay_operator",
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


def centred_collapse_operator(meson: MesonParams, collapse: CollapseParams) -> np.ndarray:
    """A - m~_L I = diag(0, m~_H - m~_L): the collapse operator A = diag(m~_L, m~_H) without its gauge part.

    A real shift L -> L + c I of a Hermitian Lindblad operator leaves the
    dissipator unchanged (Breuer & Petruccione 2002, sec. 3.2).  Centred
    before any scaling, the coherence rate -(lambda/2)(m~_H - m~_L)^2 is no
    difference of terms of size lambda m~^2 that cancel when m~ >> m~_H - m~_L.
    """
    ratios = mass_ratios(meson, collapse)
    return np.diag(ratios - ratios[0])


def induced_decay_operator(meson: MesonParams, collapse: CollapseParams) -> np.ndarray:
    """Decay operator K = lambda_eff (2 beta - 1) A^2 of the time-asymmetric collapse noise.

    Diagonal in the mass basis.  It is positive semidefinite only for
    beta >= 1/2 but is returned for every beta; ``lindblad.MasterSpec``
    takes a PSD K only, so the family specs built on it need beta >= 1/2.
    """
    ratios = mass_ratios(meson, collapse)
    return np.diag(collapse.effective_rate * (2.0 * collapse.beta - 1.0) * ratios**2)


def _mass_basis_generators(hamiltonian, collapse_ops, decay):
    """H, the collapse operators and K (or None) as complex arrays that meet the one generator contract.

    Every entry is finite; H is 2x2 or 4x4 and the others match it; H and K
    are real diagonals in the mass basis; each collapse operator is
    monomial, with at most one nonzero per row and per column.  Every check
    is elementwise.
    """
    h = np.asarray(hamiltonian, dtype=complex)
    ops = tuple(np.asarray(op, dtype=complex) for op in collapse_ops)
    k = None if decay is None else np.asarray(decay, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] not in (2, 4):
        raise DimensionMismatch("hamiltonian must be 2x2 or 4x4")
    off_diagonal = ~np.eye(len(h), dtype=bool)
    named = [("hamiltonian", h, True), *(("collapse operators", op, False) for op in ops)]
    for name, m, diagonal in named + ([] if k is None else [("decay operator K", k, True)]):
        if m.shape != h.shape:
            raise DimensionMismatch(f"{name} must match the hamiltonian dimension")
        if not np.isfinite(m).all():
            raise InvalidParams(f"{name} must be finite")
        if diagonal and m[off_diagonal].any():
            raise InvalidParams(f"{name} must be diagonal in the mass basis")
        if diagonal and m.imag.any():
            raise InvalidParams(f"{name} must be Hermitian (self-adjoint)")
        if max((m != 0.0).sum(axis=0).max(), (m != 0.0).sum(axis=1).max()) > 1:
            raise InvalidParams(f"{name} must be monomial: <= 1 nonzero per row and column")
    return h, ops, k
