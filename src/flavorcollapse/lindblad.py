"""Master-equation engines and position-kernel solutions.

Two routes to density-matrix dynamics live here:

* the exact propagator of master equations of the form

      drho/dt = i[rho, H] - 1/2 sum_k (Lk+Lk rho + rho Lk+Lk - 2 Lk rho Lk+)
                - 1/2 {K, rho}

  on the 2-dim flavor space or the 4-dim enlarged space, with factory
  functions assembling the concrete generators used by the model family.
  The equations are linear and autonomous, so vec(rho(t + h)) =
  exp(h S) vec(rho(t)) holds exactly for the superoperator S; the
  matrix exponential is taken once per distinct grid interval;

* the exact position (x) tensor flavor kernels: the per-element rates of
  the position-coupled master equations are time-independent multipliers,
  so the solution is a plain exponential and the Gaussian partial traces
  have closed forms.  No spatial grid is ever built outside test oracles.

Propagation of one state is sequential; independent kernel evaluations
and independent runs are pure and safe to run concurrently.
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
    mass_ratios,
    to_mass,
)
from .errors import DimensionMismatch, InvalidParams, SingularTime
from .operators import (
    collapse_operator_A,
    decay_operator,
    enlarged_operators,
)

__all__ = [
    "MasterSpec",
    "reduced_mass_operator",
    "family_master_spec",
    "wigner_weisskopf_spec",
    "imdecay_master_spec",
    "enlarged_master_spec",
    "master_rhs",
    "build_superoperator",
    "integrate_master",
    "project_enlarged_to_flavor",
    "KernelElement",
    "kernel_rhs",
    "kernel_solution",
    "gaussian_partial_trace",
    "probs_from_kernels",
]


@dataclass(frozen=True)
class MasterSpec:
    """Generators of one master equation.

    ``anticommutator`` is the optional PSD operator K entering as
    -1/2 {K, rho}; it encodes decay and makes the trace non-increasing.
    """

    hamiltonian: np.ndarray
    lindblads: tuple[np.ndarray, ...] = ()
    anticommutator: np.ndarray | None = None

    def __post_init__(self) -> None:
        h = np.asarray(self.hamiltonian, dtype=complex)
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "lindblads", tuple(np.asarray(m, dtype=complex) for m in self.lindblads))
        k = self.anticommutator
        if k is not None:
            k = np.asarray(k, dtype=complex)
            object.__setattr__(self, "anticommutator", k)
        if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] not in (2, 4):
            raise DimensionMismatch("hamiltonian must be 2x2 or 4x4")
        generators = [h, *self.lindblads] + ([] if k is None else [k])
        if not all(np.isfinite(m).all() for m in generators):
            raise InvalidParams("master-equation generators must be finite")
        scale = max(np.linalg.norm(h), 1e-300)
        if np.linalg.norm(h - h.conj().T) > 1e-12 * scale:
            raise InvalidParams("hamiltonian must be Hermitian")
        for m in self.lindblads:
            if m.shape != h.shape:
                raise DimensionMismatch("lindblad operators must match the hamiltonian dimension")
        if k is not None:
            if k.shape != h.shape:
                raise DimensionMismatch("anticommutator term must match the hamiltonian dimension")
            kscale = max(np.linalg.norm(k), 1e-300)
            if np.linalg.norm(k - k.conj().T) > 1e-12 * kscale:
                raise InvalidParams("anticommutator term must be Hermitian")
            if np.linalg.eigvalsh(0.5 * (k + k.conj().T)).min() < -1e-12 * kscale:
                raise InvalidParams("anticommutator term must be positive semidefinite")

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


def reduced_mass_operator(meson: MesonParams) -> np.ndarray:
    """Mass operator gauged by the global shift -m_L, i.e. diag(0, delta_m).

    A constant energy offset is unobservable (it commutes with every
    state and only rotates a global phase); removing it keeps the
    generator scale at delta_m, which is what physical-meson inputs need:
    absolute masses exceed the splitting by up to fourteen orders.
    """
    return np.diag([0.0, meson.delta_m])


def family_master_spec(meson: MesonParams, collapse: CollapseParams) -> MasterSpec:
    """Flavor-space master equation of the time-asymmetric collapse family.

    H = M (gauge-shifted), L = sqrt(lambda_eff) A, and the anticommutator
    term K = lambda_eff (2 beta - 1) A^2; for beta >= 1/2 the K term
    equals the collapse-induced decay operator.
    """
    lam = collapse.effective_rate
    a_op = collapse_operator_A(meson, collapse)
    k = lam * (2.0 * collapse.beta - 1.0) * (a_op @ a_op)
    return MasterSpec(
        hamiltonian=reduced_mass_operator(meson),
        lindblads=(math.sqrt(lam) * a_op,),
        anticommutator=k,
    )


def wigner_weisskopf_spec(meson: MesonParams) -> MasterSpec:
    """Pure decay dynamics: H = M (gauge-shifted), no Lindblad channel, K = Gamma."""
    return MasterSpec(hamiltonian=reduced_mass_operator(meson), anticommutator=decay_operator(meson))


def imdecay_master_spec(meson: MesonParams, collapse: CollapseParams) -> MasterSpec:
    """Flavor projection of the enlarged dynamics: collapse channel plus K = Gamma."""
    lam = collapse.effective_rate
    return MasterSpec(
        hamiltonian=reduced_mass_operator(meson),
        lindblads=(math.sqrt(lam) * collapse_operator_A(meson, collapse),),
        anticommutator=decay_operator(meson),
    )


def enlarged_master_spec(meson: MesonParams, collapse: CollapseParams) -> MasterSpec:
    """Trace-preserving enlarged-space equation with the decay Lindblad block."""
    ops = enlarged_operators(meson, collapse)
    hamiltonian = ops.hamiltonian.copy()
    hamiltonian[:2, :2] = reduced_mass_operator(meson)
    lam = collapse.effective_rate
    return MasterSpec(
        hamiltonian=hamiltonian,
        lindblads=(math.sqrt(lam) * ops.collapse_a, math.sqrt(lam) * ops.collapse_b),
    )


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


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring of the degree-14 Taylor polynomial.

    a is scaled by 2^-s until its 1-norm is at most 1/4, where the
    truncation error (1/4)^15 / 15! ~ 7e-22 lies far below round-off;
    s squarings then undo the scaling.
    """
    norm = float(np.linalg.norm(a, 1))
    s = math.ceil(math.log2(4.0 * norm)) if norm > 0.25 else 0
    a = a / 2.0**s
    eye = np.eye(len(a), dtype=a.dtype)
    out = eye
    for k in range(14, 0, -1):
        out = eye + (a @ out) / k
    for _ in range(s):
        out = out @ out
    return out


def integrate_master(spec: MasterSpec, rho0: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """Exact propagation of rho0 over the given grid.

    The generator is autonomous and linear, so each grid interval h is
    one application of exp(h S), computed once per distinct h.  Each
    grid-point state is symmetrized as (rho + rho^dag)/2 to remove
    round-off; the trace is never renormalized (its decay is physical).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 1:
        raise InvalidParams("t_grid must be a nonempty 1-d array")
    if t_grid[0] != 0.0 or not np.all(np.isfinite(t_grid)) or not np.all(np.diff(t_grid) > 0.0):
        raise InvalidParams("t_grid must be finite and increase strictly from 0")
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (spec.dim, spec.dim):
        raise DimensionMismatch("rho0 dimension does not match the spec")
    if not np.all(np.isfinite(rho0)):
        raise InvalidParams("rho0 must be finite")

    sup = build_superoperator(spec)
    step_cache: dict[float, np.ndarray] = {}
    out = np.empty((len(t_grid), spec.dim, spec.dim), dtype=complex)
    rho = 0.5 * (rho0 + rho0.conj().T)
    out[0] = rho
    for idx, h in enumerate(np.diff(t_grid), start=1):
        step = step_cache.get(h)
        if step is None:
            step = step_cache[h] = _expm(h * sup)
        rho = (step @ rho.reshape(-1)).reshape(spec.dim, spec.dim)
        rho = 0.5 * (rho + rho.conj().T)
        out[idx] = rho
    return out


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


@dataclass(frozen=True)
class KernelElement:
    """One (i, j) matrix element of the position kernel as a closure.

    Calling the element at (x, y, t) returns the complex propagator
    value; elements satisfy element(i,j)(x,y,t) = conj(element(j,i)(y,x,t)).
    """

    model: Model
    meson: MesonParams
    collapse: CollapseParams
    i: int
    j: int

    def __call__(self, x, y, t: float) -> complex:
        return kernel_solution(self.model, self.meson, self.collapse, self.i, self.j, x, y, t)


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
