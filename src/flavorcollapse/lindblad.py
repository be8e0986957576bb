"""Master-equation engines and position-kernel solutions.

Two routes to density-matrix dynamics live here:

* the exact propagator of master equations of the form

      drho/dt = i[rho, H] - 1/2 sum_k (Lk+Lk rho + rho Lk+Lk - 2 Lk rho Lk+)
                - 1/2 {K, rho}

  on the 2-dim flavor space or the 4-dim enlarged space.  Two flavor
  equations are built here: the Wigner-Weisskopf equation of QM, which
  decays through the measured widths K = Gamma
  (``wigner_weisskopf_spec``), and the collapse family, whose K is the
  one the collapse noise induces (``family_master_spec``).  An enlarged
  equation is a flavor one whose decay K has become a Lindblad channel
  into the decay states (``enlarged_master_spec``).
  The equations are linear and autonomous, so vec(rho(t)) =
  exp(t S) vec(rho(0)) holds exactly for the superoperator S, and the
  matrix exponential is taken at each grid time;

* the exact position (x) tensor flavor kernels: the per-element rates of
  the position-coupled master equations are time-independent multipliers,
  so the solution is a plain exponential and the Gaussian partial traces
  have closed forms.  No spatial grid is ever built outside test oracles.

No state is stepped from one grid point to the next, for one state or a
stack of them; independent kernel evaluations and independent runs are
pure and safe to run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CollapseParams,
    MesonParams,
    Model,
    QuantumState,
    _time_grid,
    mass_ratios,
    to_mass,
)
from .errors import DimensionMismatch, InvalidParams, SingularTime
from .operators import (
    _mass_basis_generators,
    centred_collapse_operator,
    decay_operator,
    induced_decay_operator,
    reduced_mass_operator,
)

__all__ = [
    "MasterSpec",
    "family_master_spec",
    "wigner_weisskopf_spec",
    "enlarged_master_spec",
    "master_rhs",
    "build_superoperator",
    "integrate_master",
    "project_enlarged_to_flavor",
    "kernel_rhs",
    "kernel_solution",
    "gaussian_partial_trace",
    "probs_from_kernels",
]


@dataclass(frozen=True)
class MasterSpec:
    """Generators of one master equation, under the contract of ``operators._mass_basis_generators``.

    ``anticommutator`` is the optional PSD operator K entering as
    -1/2 {K, rho}; it encodes decay and makes the trace non-increasing.
    """

    hamiltonian: np.ndarray
    lindblads: tuple[np.ndarray, ...] = ()
    anticommutator: np.ndarray | None = None

    def __post_init__(self) -> None:
        h, lindblads, k = _mass_basis_generators(self.hamiltonian, self.lindblads, self.anticommutator)
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "lindblads", lindblads)
        object.__setattr__(self, "anticommutator", k)
        if k is not None and np.any(np.diagonal(k).real < 0.0):
            raise InvalidParams("anticommutator term must be positive semidefinite")

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


def family_master_spec(meson: MesonParams, collapse: CollapseParams) -> MasterSpec:
    """Flavor-space master equation of the time-asymmetric collapse family.

    H = M (gauge-shifted), L = sqrt(lambda_eff) (A - m~_L I) of
    ``centred_collapse_operator``, and the anticommutator term
    K = lambda_eff (2 beta - 1) A^2 of ``induced_decay_operator``, which
    keeps the absolute ratios.
    """
    lam = collapse.effective_rate
    return MasterSpec(
        hamiltonian=reduced_mass_operator(meson),
        lindblads=(math.sqrt(lam) * centred_collapse_operator(meson, collapse),),
        anticommutator=induced_decay_operator(meson, collapse),
    )


def wigner_weisskopf_spec(meson: MesonParams) -> MasterSpec:
    """Pure decay dynamics: H = M (gauge-shifted), no Lindblad channel, K = Gamma."""
    return MasterSpec(hamiltonian=reduced_mass_operator(meson), anticommutator=decay_operator(meson))


def enlarged_master_spec(flavor: MasterSpec) -> MasterSpec:
    """The 2x2 flavor equation on the 4-dim space (M_L, M_H, f_L, f_H), with its decay as a Lindblad channel.

    H and each Lindblad operator act on the flavor block.  K becomes one
    decay channel, last in channel order, that takes M_i to f_i with
    amplitude sqrt(K_ii) (a zero channel without K), and the enlarged
    equation has no anticommutator term.  The channel's L^dag L is K on the
    flavor block, so the flavor block follows ``flavor``, and the trace it
    loses arrives in the decay block: the enlarged trace is preserved.
    """
    if flavor.dim != 2:
        raise DimensionMismatch("the enlarged equation embeds a 2x2 flavor spec")
    ops = np.zeros((len(flavor.lindblads) + 2, 4, 4), dtype=complex)  # H, the flavor channels, the decay channel
    ops[0, :2, :2] = flavor.hamiltonian
    for op, lindblad in zip(ops[1:], flavor.lindblads):
        op[:2, :2] = lindblad
    if flavor.anticommutator is not None:
        ops[-1, [2, 3], [0, 1]] = np.sqrt(np.diagonal(flavor.anticommutator).real)
    return MasterSpec(hamiltonian=ops[0], lindblads=tuple(ops[1:]))


def master_rhs(spec: MasterSpec, rho: np.ndarray) -> np.ndarray:
    """Right-hand side i[rho,H] + dissipator - 1/2 {K, rho}."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (spec.dim, spec.dim):
        raise DimensionMismatch("state dimension does not match the spec")
    h = spec.hamiltonian
    out = 1j * (rho @ h - h @ rho)
    for lk in spec.lindblads:
        lk_dag = lk.conj().T
        lk2 = lk_dag @ lk
        out += lk @ rho @ lk_dag - 0.5 * (lk2 @ rho + rho @ lk2)
    if spec.anticommutator is not None:
        k = spec.anticommutator
        out -= 0.5 * (k @ rho + rho @ k)
    return out


def build_superoperator(spec: MasterSpec) -> np.ndarray:
    """Dense matrix acting on row-major vec(rho), assembled from master_rhs."""
    d = spec.dim
    sup = np.empty((d * d, d * d), dtype=complex)
    for k in range(d * d):
        basis_elem = np.zeros((d, d), dtype=complex)
        basis_elem.flat[k] = 1.0
        sup[:, k] = master_rhs(spec, basis_elem).reshape(-1)
    return sup


def _expm_grid(a: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """exp(t a) at every t of the grid, shape (len(t_grid), n, n), one decoupled block at a time.

    Indices linked through nonzero entries of a form blocks that the
    exponential never mixes; each block is exponentiated on its own scale,
    so a fast block forces no squarings on a slow one.  A 1x1 block is a
    scalar exponential.
    """
    linked = (a != 0) | (a != 0).T | np.eye(len(a), dtype=bool)
    for _ in range(len(a).bit_length()):  # close the links transitively
        linked = (linked.astype(int) @ linked.astype(int)) > 0
    out = np.zeros((len(t_grid), *a.shape), dtype=complex)
    single = linked.sum(axis=1) == 1
    out[:, single, single] = np.exp(t_grid[:, None] * a[single, single])
    for block in {tuple(np.flatnonzero(row)) for row in linked[~single]}:
        idx = np.ix_(block, block)
        out[:, idx[0], idx[1]] = _expm_taylor(t_grid[:, None, None] * a[idx])
    return out


def _expm_taylor(a: np.ndarray) -> np.ndarray:
    """exp(a) of each matrix of a stack by scaling and squaring of the degree-14 Taylor polynomial.

    Each matrix is scaled by its own 2^-s until its 1-norm is at most 1/4,
    where the truncation error (1/4)^15 / 15! ~ 7e-22 lies far below
    round-off; s squarings then undo the scaling.
    """
    norms = np.linalg.norm(a, 1, axis=(-2, -1))
    s = np.ceil(np.log2(4.0 * np.maximum(norms, 0.25))).astype(int)
    a = a / (2.0**s)[:, None, None]
    eye = np.eye(a.shape[-1], dtype=a.dtype)
    out = eye
    for k in range(14, 0, -1):
        out = eye + (a @ out) / k
    for i in range(s.max()):
        squared = s > i
        out[squared] = out[squared] @ out[squared]
    return out


def integrate_master(spec: MasterSpec, rho0: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """Exact solution rho(t) = exp(t S) rho0 at every grid time t.

    ``rho0`` is one (d, d) state, giving (len(t_grid), d, d), or a stack
    (n, d, d) of initial states, giving (n, len(t_grid), d, d); entry s
    equals the single call on ``rho0[s]`` bit for bit.  A grid point's
    state depends on its own time only, not on the rest of the grid.  Each
    state is symmetrized once as (rho + rho^dag)/2 to remove round-off; the
    trace is never renormalized (its decay is physical).
    """
    t_grid = _time_grid(t_grid)
    rho0 = np.asarray(rho0, dtype=complex)
    d = spec.dim
    if rho0.ndim not in (2, 3) or rho0.shape[-2:] != (d, d):
        raise DimensionMismatch("rho0 dimension does not match the spec")
    if not np.all(np.isfinite(rho0)):
        raise InvalidParams("rho0 must be finite")

    propagators = _expm_grid(build_superoperator(spec), t_grid)
    # One matrix-vector product per (state, grid point), so each state gets the bits of a single call.
    rho = (propagators @ rho0.reshape(-1, 1, d * d, 1)).reshape(-1, len(t_grid), d, d)
    rho = 0.5 * (rho + rho.conj().swapaxes(-1, -2))
    return rho[0] if rho0.ndim == 2 else rho


def project_enlarged_to_flavor(rho_enlarged: np.ndarray) -> np.ndarray:
    """Upper-left 2x2 flavor block of an enlarged-space state."""
    rho_enlarged = np.asarray(rho_enlarged, dtype=complex)
    if rho_enlarged.shape[-2:] != (4, 4):
        raise DimensionMismatch("expected a 4x4 enlarged-space state")
    return rho_enlarged[..., :2, :2].copy()


def _gauss_convolution_zero(collapse: CollapseParams) -> float:
    """(g*g)(0) for the normalized CSL smearing Gaussian."""
    return (math.sqrt(4.0 * math.pi) * collapse.r_C) ** (-collapse.d)


def _gauss_convolution(collapse: CollapseParams, separation: np.ndarray) -> float:
    sep_sq = float(np.dot(separation, separation))
    return _gauss_convolution_zero(collapse) * math.exp(-sep_sq / (4.0 * collapse.r_C**2))


def kernel_rhs(
    model: Model,
    meson: MesonParams,
    collapse: CollapseParams,
    i: int,
    j: int,
    x,
    y,
) -> complex:
    """Multiplicative rate of the (i, j) position-kernel matrix element."""
    if i not in (0, 1) or j not in (0, 1):
        raise InvalidParams("eigenstate indices must be 0 (L) or 1 (H)")
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    if xv.shape != (collapse.d,) or yv.shape != (collapse.d,):
        raise DimensionMismatch(f"positions must be {collapse.d}-vectors")
    ratios = mass_ratios(meson, collapse)
    mi, mj = meson.masses[i], meson.masses[j]
    ri, rj = float(ratios[i]), float(ratios[j])
    phase = -1j * (mi - mj)
    if model is Model.QMUPL:
        stretch = ri * xv - rj * yv
        damp = 0.5 * collapse.rate * (
            float(np.dot(stretch, stretch))
            - (1.0 - 2.0 * collapse.beta) * (ri**2 * float(np.dot(xv, xv)) + rj**2 * float(np.dot(yv, yv)))
        )
    else:
        damp = collapse.rate * (
            collapse.beta * (ri**2 + rj**2) * _gauss_convolution_zero(collapse)
            - ri * rj * _gauss_convolution(collapse, xv - yv)
        )
    return complex(phase - damp)


def kernel_solution(
    model: Model,
    meson: MesonParams,
    collapse: CollapseParams,
    i: int,
    j: int,
    x,
    y,
    t: float,
) -> complex:
    """Kernel propagator rho_t^{ij}(x,y) / rho_0^{ij}(x,y) = exp(rate * t)."""
    return complex(np.exp(kernel_rhs(model, meson, collapse, i, j, x, y) * t))


def gaussian_partial_trace(
    model: Model,
    meson: MesonParams,
    collapse: CollapseParams,
    i: int,
    j: int,
    t,
):
    """Position trace of the (i, j) kernel element for the Gaussian packet.

    Returns the complex amplitude factor multiplying the initial flavor
    coefficient; closed forms for both models, vectorized over t.
    """
    tt = np.asarray(t, dtype=float)
    scalar = tt.ndim == 0
    tt = np.atleast_1d(tt)
    ratios = mass_ratios(meson, collapse)
    ri, rj = float(ratios[i]), float(ratios[j])
    coeff = (ri - rj) ** 2 - (1.0 - 2.0 * collapse.beta) * (ri**2 + rj**2)
    phase = np.exp(-1j * (meson.masses[i] - meson.masses[j]) * tt)
    if model is Model.QMUPL:
        base = 1.0 + 0.5 * collapse.rate * collapse.alpha * coeff * tt
        if np.any(base <= 0.0):
            raise SingularTime("Gaussian partial trace singular for the requested time")
        values = phase * base ** (-0.5 * collapse.d)
    else:
        lam = collapse.effective_rate
        values = phase * np.exp(-0.5 * lam * coeff * tt)
    return complex(values[0]) if scalar else values


def probs_from_kernels(
    model: Model,
    meson: MesonParams,
    collapse: CollapseParams,
    state_in: QuantumState,
    state_out: QuantumState,
    t,
):
    """Transition probability assembled from the four partial-trace factors.

    The initial spatial state is the Gaussian packet of squared width
    alpha; in and out states live on the 2-dim flavor sector.
    """
    a = to_mass(state_in).amplitudes
    b = to_mass(state_out).amplitudes
    tt = np.asarray(t, dtype=float)
    scalar = tt.ndim == 0
    tt = np.atleast_1d(tt)
    total = np.zeros(tt.shape, dtype=complex)
    for i in (0, 1):
        for j in (0, 1):
            weight = a[i] * np.conj(a[j]) * np.conj(b[i]) * b[j]
            if weight == 0.0:
                continue
            total += weight * gaussian_partial_trace(model, meson, collapse, i, j, tt)
    values = total.real
    return float(values[0]) if scalar else values
