"""Stochastic-trajectory engine for the collapse quantum-state equations.

Each supported equation is an Ito (or Stratonovich) SDE for an
unnormalized state vector on the 2-dim flavor space or the 4-dim
enlarged space:

* ``NONLINEAR_REAL``: self-adjoint collapse operators, real noise and the
  nonlinear expectation-value drift; carries the phase-family angle phi,
  phi = 0 being the plain equation and phi = pi/2 the imaginary-noise one.
* ``NONLINEAR_GENERAL``: arbitrary collapse operators with the
  R = <(A + A^dag)/2> coupling.
* ``ENLARGED_NONLINEAR``: enlarged-space equation with the extra decay
  channel and its own independent Wiener process.
* ``FLAVOR_DECAY``: flavor projection of the enlarged equation; the decay
  drift enters as a fixed -(1/2) Gamma term.
* ``IMAGINARY_LINEAR``: linear equation with purely imaginary noise and
  the -(lambda/2) A^2 drift (plus optional decay term).
* ``IMAGINARY_LINEAR_FAMILY``: the time-asymmetric family with drift
  -lambda beta A^2; beta = theta(0) of the underlying noise field.
* ``STRATONOVICH_LINEAR``: the family equation written in the
  Stratonovich formalism, drift +(lambda/2)(1 - 2 beta) A^2, to be stepped
  with the midpoint scheme or with Euler-Maruyama after the conversion
  drift.

Trajectories are embarrassingly parallel: each owns a counter-based RNG
substream keyed by (seed, trajectory), so ensembles are bit-identical
for a fixed (seed, N, dt) regardless of scheduling or worker count.
Expectation values in the nonlinear equations always use the normalized
state; trajectories themselves are stored unnormalized, and observables
are extracted from the raw ensemble mean E[|psi><psi|].
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from numpy.random import Generator, Philox

from .core import (
    Basis,
    CollapseParams,
    EnsembleStats,
    MesonParams,
    QuantumState,
    to_mass,
)
from .errors import (
    DimensionMismatch,
    InvalidParams,
    UnsupportedEquation,
    ZeroNorm,
)
from .lindblad import MasterSpec, reduced_mass_operator
from .operators import (
    collapse_operator_A,
    decay_operator,
    enlarged_operators,
)

__all__ = [
    "SdeEquation",
    "NoiseConfig",
    "SdeSpec",
    "collapse_flavor_spec",
    "nonlinear_general_spec",
    "enlarged_collapse_spec",
    "flavor_decay_spec",
    "imaginary_linear_spec",
    "family_spec",
    "stratonovich_family_spec",
    "phase_transform_spec",
    "wiener_increments",
    "step",
    "stratonovich_step",
    "ito_stratonovich_drift",
    "asymmetric_delta",
    "theta_from_kappa",
    "ensemble_evolve",
    "observable_vectors",
    "associated_master_spec",
]

_NORM_FLOOR = 1e-300
_BATCH_TARGET_ENTRIES = 1 << 25  # noise entries held in memory per batch
_BATCH_CAP = 2048


class SdeEquation(enum.Enum):
    NONLINEAR_REAL = "nonlinear_real"
    NONLINEAR_GENERAL = "nonlinear_general"
    ENLARGED_NONLINEAR = "enlarged_nonlinear"
    FLAVOR_DECAY = "flavor_decay"
    IMAGINARY_LINEAR = "imaginary_linear"
    IMAGINARY_LINEAR_FAMILY = "imaginary_linear_family"
    STRATONOVICH_LINEAR = "stratonovich_linear"


_LINEAR = (
    SdeEquation.IMAGINARY_LINEAR,
    SdeEquation.IMAGINARY_LINEAR_FAMILY,
    SdeEquation.STRATONOVICH_LINEAR,
)
_HERMITIAN_OPS_REQUIRED = (
    SdeEquation.NONLINEAR_REAL,
    SdeEquation.ENLARGED_NONLINEAR,
    SdeEquation.FLAVOR_DECAY,
    SdeEquation.IMAGINARY_LINEAR,
    SdeEquation.IMAGINARY_LINEAR_FAMILY,
    SdeEquation.STRATONOVICH_LINEAR,
)


@dataclass(frozen=True)
class NoiseConfig:
    """Noise discretization: seed, step, Heaviside-at-zero value, channels.

    ``theta0`` records the stochastic-formalism convention of the noise
    field (0 Ito, 1/2 Stratonovich); the stepping schemes fix their own
    formalism, so theta0 is carried as metadata and used by the
    formalism-switch helpers.
    """

    seed: int
    dt: float
    theta0: float = 0.0
    n_channels: int = 1

    def __post_init__(self) -> None:
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise InvalidParams("dt must be positive")
        if not 0.0 <= self.theta0 <= 1.0:
            raise InvalidParams("theta0 out of [0,1]")
        if self.n_channels < 1:
            raise InvalidParams("n_channels must be at least 1")
        if not 0 <= int(self.seed) < 2**64:
            raise InvalidParams("seed must fit in 64 bits")


@dataclass(frozen=True)
class SdeSpec:
    """One quantum-state equation, fully parameterized by operator data.

    ``hamiltonian`` is the generator of the -i H dt term (complex and
    possibly non-Hermitian for the nonlinear equations).  ``rate`` is the
    collapse coupling lambda.  ``decay_quadratic`` is the operator
    lambda B^dag B (equal to the decay operator) entering the drift as
    -(1/2){.}; ``decay_channel`` is the enlarged-space operator B with its
    own Wiener process.
    """

    equation: SdeEquation
    hamiltonian: np.ndarray
    collapse_ops: tuple[np.ndarray, ...]
    rate: float
    beta: float | None = None
    decay_quadratic: np.ndarray | None = None
    decay_channel: np.ndarray | None = None
    phi: float = 0.0

    def __post_init__(self) -> None:
        h = np.asarray(self.hamiltonian, dtype=complex)
        object.__setattr__(self, "hamiltonian", h)
        ops = tuple(np.asarray(m, dtype=complex) for m in self.collapse_ops)
        object.__setattr__(self, "collapse_ops", ops)
        if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] not in (2, 4):
            raise DimensionMismatch("hamiltonian must be 2x2 or 4x4")
        if self.rate < 0.0:
            raise InvalidParams("rate must be nonnegative")
        if not ops:
            raise InvalidParams("at least one collapse operator required")
        for op in ops:
            if op.shape != h.shape:
                raise DimensionMismatch("collapse operators must match the hamiltonian dimension")
        if self.equation in _HERMITIAN_OPS_REQUIRED:
            for op in ops:
                if np.linalg.norm(op - op.conj().T) > 1e-12 * max(np.linalg.norm(op), 1e-300):
                    raise InvalidParams(f"{self.equation.value} requires self-adjoint collapse operators")
        if self.equation in (SdeEquation.IMAGINARY_LINEAR_FAMILY, SdeEquation.STRATONOVICH_LINEAR):
            if self.beta is None or not 0.0 <= self.beta <= 1.0:
                raise InvalidParams("family equations require beta in [0,1]")
        if self.equation is SdeEquation.ENLARGED_NONLINEAR:
            if self.decay_channel is None:
                raise InvalidParams("enlarged equation requires the decay channel operator")
            b = np.asarray(self.decay_channel, dtype=complex)
            object.__setattr__(self, "decay_channel", b)
            if b.shape != h.shape:
                raise DimensionMismatch("decay channel must match the hamiltonian dimension")
        elif self.decay_channel is not None:
            raise InvalidParams("decay_channel is only meaningful for the enlarged equation")
        if self.equation is SdeEquation.FLAVOR_DECAY and self.decay_quadratic is None:
            raise InvalidParams("flavor decay equation requires the decay drift operator")
        if self.decay_quadratic is not None:
            k = np.asarray(self.decay_quadratic, dtype=complex)
            object.__setattr__(self, "decay_quadratic", k)
            if k.shape != h.shape:
                raise DimensionMismatch("decay_quadratic must match the hamiltonian dimension")

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @property
    def n_channels(self) -> int:
        extra = 1 if self.equation is SdeEquation.ENLARGED_NONLINEAR else 0
        return len(self.collapse_ops) + extra


def collapse_flavor_spec(meson: MesonParams, collapse: CollapseParams) -> SdeSpec:
    """Nonlinear collapse equation on the flavor space, non-Hermitian H.

    All factories here gauge the mass operator to diag(0, delta_m): the
    removed global phase is unobservable and keeps step sizes tied to the
    splitting rather than the absolute masses.
    """
    hamiltonian = reduced_mass_operator(meson).astype(complex) - 0.5j * decay_operator(meson)
    return SdeSpec(
        equation=SdeEquation.NONLINEAR_REAL,
        hamiltonian=hamiltonian,
        collapse_ops=(collapse_operator_A(meson, collapse),),
        rate=collapse.effective_rate,
    )


def nonlinear_general_spec(hamiltonian: np.ndarray, ops: tuple[np.ndarray, ...], rate: float) -> SdeSpec:
    """General nonlinear collapse equation with arbitrary operators."""
    return SdeSpec(
        equation=SdeEquation.NONLINEAR_GENERAL,
        hamiltonian=hamiltonian,
        collapse_ops=tuple(ops),
        rate=rate,
    )


def enlarged_collapse_spec(meson: MesonParams, collapse: CollapseParams) -> SdeSpec:
    """Enlarged-space nonlinear equation with the decay Wiener channel."""
    ops = enlarged_operators(meson, collapse)
    hamiltonian = ops.hamiltonian.copy()
    hamiltonian[:2, :2] = reduced_mass_operator(meson)
    return SdeSpec(
        equation=SdeEquation.ENLARGED_NONLINEAR,
        hamiltonian=hamiltonian,
        collapse_ops=(ops.collapse_a,),
        decay_channel=ops.collapse_b,
        rate=collapse.effective_rate,
    )


def flavor_decay_spec(meson: MesonParams, collapse: CollapseParams) -> SdeSpec:
    """Flavor projection of the enlarged equation.

    The decay drift is lambda B^dag B = Gamma and does not scale with the
    collapse rate, so the spec stores the decay operator itself.
    """
    return SdeSpec(
        equation=SdeEquation.FLAVOR_DECAY,
        hamiltonian=reduced_mass_operator(meson),
        collapse_ops=(collapse_operator_A(meson, collapse),),
        decay_quadratic=decay_operator(meson),
        rate=collapse.effective_rate,
    )


def imaginary_linear_spec(
    meson: MesonParams, collapse: CollapseParams, include_decay: bool = True
) -> SdeSpec:
    """Linear imaginary-noise equation, optionally with the decay drift."""
    return SdeSpec(
        equation=SdeEquation.IMAGINARY_LINEAR,
        hamiltonian=reduced_mass_operator(meson),
        collapse_ops=(collapse_operator_A(meson, collapse),),
        decay_quadratic=decay_operator(meson) if include_decay else None,
        rate=collapse.effective_rate,
    )


def family_spec(meson: MesonParams, collapse: CollapseParams) -> SdeSpec:
    """Time-asymmetric linear family in Ito form, drift -lambda beta A^2."""
    return SdeSpec(
        equation=SdeEquation.IMAGINARY_LINEAR_FAMILY,
        hamiltonian=reduced_mass_operator(meson),
        collapse_ops=(collapse_operator_A(meson, collapse),),
        rate=collapse.effective_rate,
        beta=collapse.beta,
    )


def stratonovich_family_spec(meson: MesonParams, collapse: CollapseParams) -> SdeSpec:
    """The family equation in Stratonovich form, drift +(lambda/2)(1-2beta) A^2."""
    return SdeSpec(
        equation=SdeEquation.STRATONOVICH_LINEAR,
        hamiltonian=reduced_mass_operator(meson),
        collapse_ops=(collapse_operator_A(meson, collapse),),
        rate=collapse.effective_rate,
        beta=collapse.beta,
    )


def phase_transform_spec(spec: SdeSpec, phi: float) -> SdeSpec:
    """Member of the phase-transformation family of the nonlinear equation.

    phi = 0 returns the equation unchanged; phi = pi/2 turns the noise
    purely imaginary and reduces the drift to the linear -(lambda/2) A^2
    form.  All members share one master equation.
    """
    if spec.equation is not SdeEquation.NONLINEAR_REAL:
        raise UnsupportedEquation("phase transformation applies to the nonlinear self-adjoint equation")
    return replace(spec, phi=float(phi))


def ito_stratonovich_drift(diffusion_operator: np.ndarray, beta: float, beta_prime: float) -> np.ndarray:
    """Drift operator gained when rewriting a linear noise product.

    For a diffusion term G psi dW written in the formalism with
    theta(0) = beta, the equivalent equation in the formalism with
    theta(0) = beta_prime carries the extra drift (beta - beta_prime) G^2.
    """
    g = np.asarray(diffusion_operator, dtype=complex)
    return (beta - beta_prime) * (g @ g)


def theta_from_kappa(kappa: float) -> float:
    """Heaviside-at-zero value kappa^2 / (1 + kappa^2) of the asymmetric noise."""
    if kappa < 0.0:
        raise InvalidParams("kappa must be nonnegative")
    if math.isinf(kappa):
        return 1.0
    return kappa**2 / (1.0 + kappa**2)


def asymmetric_delta(t, kappa: float, epsilon: float):
    """Asymmetric Laplace approximation of the noise correlation spike.

    Density (1/eps) / (kappa + 1/kappa) * exp(-(|t|/eps) kappa^sign(t));
    its mass below zero equals theta(0) = kappa^2/(1 + kappa^2).
    """
    if not (epsilon > 0.0):
        raise InvalidParams("epsilon must be positive")
    if not (kappa > 0.0):
        raise InvalidParams("kappa must be positive")
    tt = np.asarray(t, dtype=float)
    scalar = tt.ndim == 0
    tt = np.atleast_1d(tt)
    values = (
        (1.0 / epsilon)
        / (kappa + 1.0 / kappa)
        * np.exp(-(np.abs(tt) / epsilon) * kappa ** np.sign(tt))
    )
    return float(values[0]) if scalar else values


def wiener_increments(config: NoiseConfig, n_steps: int, trajectory_id: int) -> np.ndarray:
    """Wiener increments of one trajectory, shape (n_steps, n_channels).

    The stream is a counter-based Philox generator keyed by
    (seed, trajectory_id): identical output for identical keys, whatever
    the execution order of trajectories.  Increments are N(0, dt).
    """
    if n_steps < 1:
        raise InvalidParams("n_steps must be at least 1")
    gen = _trajectory_generator(config.seed, trajectory_id)
    return gen.standard_normal((n_steps, config.n_channels)) * math.sqrt(config.dt)


def _trajectory_generator(seed: int, trajectory_id: int) -> Generator:
    return Generator(Philox(key=[int(seed), int(trajectory_id)]))


def _as_batch(state, dim: int) -> tuple[np.ndarray, bool]:
    psi = np.asarray(state, dtype=complex)
    single = psi.ndim == 1
    psi = np.atleast_2d(psi)
    if psi.shape[-1] != dim:
        raise DimensionMismatch(f"state dimension {psi.shape[-1]} does not match the spec ({dim})")
    return psi, single


def _as_noise(dW, n_channels: int, n_rows: int) -> np.ndarray:
    w = np.asarray(dW, dtype=float)
    if w.ndim == 0:
        w = w.reshape(1, 1)
    elif w.ndim == 1:
        w = w.reshape(1, -1) if n_rows == 1 else w.reshape(-1, 1)
    if w.shape != (n_rows, n_channels):
        raise DimensionMismatch(
            f"noise shape {w.shape} does not match ({n_rows} states, {n_channels} channels)"
        )
    return w


def _normalized_expectations(psi: np.ndarray, ops) -> tuple[np.ndarray, list[np.ndarray]]:
    """Squared norms and Re<op>/norm^2 per state row for each operator."""
    n2 = np.einsum("bi,bi->b", psi.conj(), psi).real
    if not np.all(n2 >= _NORM_FLOOR):
        raise ZeroNorm("state norm underflowed or is not finite; normalized expectation undefined")
    return n2, [np.einsum("bi,ij,bj->b", psi.conj(), op, psi).real / n2 for op in ops]


def _linear_matrices(spec: SdeSpec) -> tuple[np.ndarray, list[np.ndarray]]:
    """Constant drift and diffusion matrices of the linear equations."""
    lam = spec.rate
    sqlam = math.sqrt(lam)
    a_sq = sum(op @ op for op in spec.collapse_ops)
    drift = -1j * spec.hamiltonian
    if spec.equation is SdeEquation.IMAGINARY_LINEAR:
        drift = drift - 0.5 * lam * a_sq
        if spec.decay_quadratic is not None:
            drift = drift - 0.5 * spec.decay_quadratic
    elif spec.equation is SdeEquation.IMAGINARY_LINEAR_FAMILY:
        drift = drift - lam * spec.beta * a_sq
    else:  # STRATONOVICH_LINEAR, drift in the Stratonovich sense
        drift = drift + 0.5 * lam * (1.0 - 2.0 * spec.beta) * a_sq
    diffusions = [1j * sqlam * op for op in spec.collapse_ops]
    return drift, diffusions


def _make_stepper(spec: SdeSpec, method: str = "euler"):
    """Batch update closure psi, w, h -> psi' with matrices built once."""
    lam = spec.rate
    sqlam = math.sqrt(lam)
    h_t = (-1j * spec.hamiltonian).T.copy()

    if spec.equation is SdeEquation.STRATONOVICH_LINEAR:
        drift, diffusions = _linear_matrices(spec)
        if method == "heun":
            drift_t = drift.T.copy()
            diff_t = [g.T.copy() for g in diffusions]

            def advance(psi, w, h):
                def incr(base):
                    out = h * (base @ drift_t)
                    for c, g_t in enumerate(diff_t):
                        out += w[:, c : c + 1] * (base @ g_t)
                    return out

                predictor = psi + incr(psi)
                return psi + 0.5 * incr(psi + predictor)

            return advance
        if method == "ito_drift":
            drift_t = (drift + sum(ito_stratonovich_drift(g, 0.5, 0.0) for g in diffusions)).T.copy()
            diff_t = [g.T.copy() for g in diffusions]

            def advance(psi, w, h):
                out = psi + h * (psi @ drift_t)
                for c, g_t in enumerate(diff_t):
                    out = out + w[:, c : c + 1] * (psi @ g_t)
                return out

            return advance
        raise InvalidParams("method must be 'heun' or 'ito_drift'")

    if spec.equation in _LINEAR:
        drift, diffusions = _linear_matrices(spec)
        drift_t = drift.T.copy()
        diff_t = [g.T.copy() for g in diffusions]

        def advance(psi, w, h):
            out = psi + h * (psi @ drift_t)
            for c, g_t in enumerate(diff_t):
                out = out + w[:, c : c + 1] * (psi @ g_t)
            return out

        return advance

    if spec.equation is SdeEquation.NONLINEAR_REAL:
        phase = complex(np.exp(1j * spec.phi))
        cphi = math.cos(spec.phi)
        ops = spec.collapse_ops
        ops_t = [op.T.copy() for op in ops]

        def advance(psi, w, h):
            _, expects = _normalized_expectations(psi, ops)
            drift = psi @ h_t
            noise = np.zeros_like(psi)
            for c, (op_t, a_c) in enumerate(zip(ops_t, expects)):
                op_psi = psi @ op_t
                a_col = a_c[:, None]
                drift = drift - 0.5 * lam * (
                    op_psi @ op_t - 2.0 * phase * cphi * a_col * op_psi + (cphi * a_col) ** 2 * psi
                )
                noise = noise + w[:, c : c + 1] * sqlam * (phase * op_psi - cphi * a_col * psi)
            return psi + drift * h + noise

        return advance

    if spec.equation is SdeEquation.NONLINEAR_GENERAL:
        # R = <(A + A^dag)/2> is the real part of <A> for any operator.
        ops = spec.collapse_ops
        ops_t = [op.T.copy() for op in ops]
        grams_t = [(op.conj().T @ op).T.copy() for op in ops]

        def advance(psi, w, h):
            _, expects = _normalized_expectations(psi, ops)
            drift = psi @ h_t
            noise = np.zeros_like(psi)
            for c, (op_t, gram_t, r_c) in enumerate(zip(ops_t, grams_t, expects)):
                op_psi = psi @ op_t
                r_col = r_c[:, None]
                drift = drift - 0.5 * lam * (psi @ gram_t - 2.0 * r_col * op_psi + r_col**2 * psi)
                noise = noise + w[:, c : c + 1] * sqlam * (op_psi - r_col * psi)
            return psi + drift * h + noise

        return advance

    if spec.equation is SdeEquation.ENLARGED_NONLINEAR:
        a_op = spec.collapse_ops[0]
        b_op = spec.decay_channel
        a_t = a_op.T.copy()
        b_t = b_op.T.copy()
        b_gram_t = (b_op.conj().T @ b_op).T.copy()

        def advance(psi, w, h):
            _, expects = _normalized_expectations(psi, (a_op, b_op))
            a_col = expects[0][:, None]
            r_col = expects[1][:, None]
            a_psi = psi @ a_t
            b_psi = psi @ b_t
            drift = psi @ h_t - 0.5 * lam * (
                a_psi @ a_t - 2.0 * a_col * a_psi + a_col**2 * psi
                + psi @ b_gram_t - 2.0 * r_col * b_psi + r_col**2 * psi
            )
            noise = w[:, 0:1] * sqlam * (a_psi - a_col * psi) + w[:, 1:2] * sqlam * (b_psi - r_col * psi)
            return psi + drift * h + noise

        return advance

    if spec.equation is SdeEquation.FLAVOR_DECAY:
        a_op = spec.collapse_ops[0]
        a_t = a_op.T.copy()
        decay_t = spec.decay_quadratic.T.copy()

        def advance(psi, w, h):
            _, expects = _normalized_expectations(psi, (a_op,))
            a_col = expects[0][:, None]
            a_psi = psi @ a_t
            drift = psi @ h_t - 0.5 * lam * (a_psi @ a_t - 2.0 * a_col * a_psi + a_col**2 * psi)
            drift = drift - 0.5 * (psi @ decay_t)
            noise = w[:, 0:1] * sqlam * (a_psi - a_col * psi)
            return psi + drift * h + noise

        return advance

    raise UnsupportedEquation(f"{spec.equation.value} has no Ito-Euler step")


def step(spec: SdeSpec, state, dW, dt: float):
    """One Euler-Maruyama step of the selected Ito equation.

    Accepts a single state vector or a batch of rows; ``dW`` must carry
    one increment per Wiener channel (and per row for batches).
    """
    if spec.equation is SdeEquation.STRATONOVICH_LINEAR:
        raise UnsupportedEquation("Stratonovich-form equation: use stratonovich_step")
    psi, single = _as_batch(state, spec.dim)
    w = _as_noise(dW, spec.n_channels, psi.shape[0])
    out = _make_stepper(spec)(psi, w, dt)
    return out[0] if single else out


def stratonovich_step(spec: SdeSpec, state, dW, dt: float, method: str = "heun"):
    """One step of the Stratonovich-form linear equation.

    ``method="heun"`` uses the midpoint predictor-corrector realizing the
    Stratonovich product; ``method="ito_drift"`` is Euler-Maruyama on the
    Ito-equivalent equation obtained by adding the conversion drift.
    Both agree in distribution.
    """
    if spec.equation is not SdeEquation.STRATONOVICH_LINEAR:
        raise UnsupportedEquation("stratonovich_step applies to the Stratonovich-form linear equation")
    psi, single = _as_batch(state, spec.dim)
    w = _as_noise(dW, spec.n_channels, psi.shape[0])
    out = _make_stepper(spec, method)(psi, w, dt)
    return out[0] if single else out


def observable_vectors(dim: int) -> tuple[np.ndarray, tuple[str, ...]]:
    """Projection vectors (rows, in mass coordinates) and their labels."""
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    if dim == 2:
        vecs = np.array([
            [inv_sqrt2, inv_sqrt2],
            [inv_sqrt2, -inv_sqrt2],
            [1.0, 0.0],
            [0.0, 1.0],
        ])
        return vecs, ("P_M0", "P_M0bar", "P_L", "P_H")
    if dim == 4:
        vecs = np.zeros((6, 4))
        vecs[0, :2] = inv_sqrt2
        vecs[1, 0], vecs[1, 1] = inv_sqrt2, -inv_sqrt2
        vecs[2, 0] = 1.0
        vecs[3, 1] = 1.0
        vecs[4, 2] = 1.0
        vecs[5, 3] = 1.0
        return vecs, ("P_M0", "P_M0bar", "P_L", "P_H", "P_fL", "P_fH")
    raise DimensionMismatch("observables defined on dimensions 2 and 4 only")


def _grid_substeps(t_grid: np.ndarray, dt: float) -> list[int]:
    if t_grid.ndim != 1 or len(t_grid) < 1 or t_grid[0] != 0.0:
        raise InvalidParams("t_grid must start at 0")
    if len(t_grid) > 1 and not np.all(np.diff(t_grid) > 0.0):
        raise InvalidParams("t_grid must be strictly increasing")
    counts = []
    for interval in np.diff(t_grid):
        n_sub = max(1, round(interval / dt))
        if abs(interval - n_sub * dt) > 1e-9 * max(dt, interval):
            raise InvalidParams("every grid interval must be an integer multiple of dt")
        counts.append(n_sub)
    return counts


def _batch_bounds(n_trajectories: int, n_steps: int, n_channels: int) -> list[tuple[int, int]]:
    # Fixed partition independent of worker count, sized so each batch's
    # noise block stays within the memory target.
    per_traj = max(1, n_steps * n_channels)
    batch = int(min(_BATCH_CAP, max(64, _BATCH_TARGET_ENTRIES // per_traj)))
    batch = min(batch, n_trajectories)
    return [(lo, min(lo + batch, n_trajectories)) for lo in range(0, n_trajectories, batch)]


def ensemble_evolve(
    spec: SdeSpec,
    config: NoiseConfig,
    initial_state: QuantumState,
    t_grid,
    n_trajectories: int,
    n_threads: int = 1,
    method: str = "heun",
) -> EnsembleStats:
    """Ensemble mean of |psi><psi| and derived probabilities on a grid.

    The mean is over raw (unnormalized) projectors: the linear equations
    carry decay in the norm.  Results are bit-identical for a fixed
    (seed, n_trajectories, dt) whatever ``n_threads``: each trajectory
    owns its Philox substream, within-batch reduction is numpy pairwise
    summation, and batch partials are combined in index order.
    ``method`` selects the stepping of a Stratonovich-form spec.
    """
    if n_trajectories < 2:
        raise InvalidParams("n_trajectories must be at least 2")
    if config.n_channels != spec.n_channels:
        raise InvalidParams(
            f"config.n_channels = {config.n_channels}, equation needs {spec.n_channels}"
        )
    state0 = initial_state
    if state0.basis is Basis.FLAVOR:
        state0 = to_mass(state0)
    if state0.dim != spec.dim:
        raise DimensionMismatch("initial state dimension does not match the equation")
    t_grid = np.asarray(t_grid, dtype=float)
    substeps = _grid_substeps(t_grid, config.dt)
    n_steps_total = int(sum(substeps))
    vecs, labels = observable_vectors(spec.dim)
    proj = vecs.conj()

    if spec.equation is SdeEquation.STRATONOVICH_LINEAR:
        advance = _make_stepper(spec, method)
    else:
        advance = _make_stepper(spec)

    n_grid, n_obs, dim = len(t_grid), len(labels), spec.dim

    def run_batch(bounds: tuple[int, int]):
        lo, hi = bounds
        b = hi - lo
        noise = np.empty((b, max(n_steps_total, 1), config.n_channels))
        for k in range(b):
            gen = _trajectory_generator(config.seed, lo + k)
            noise[k] = gen.standard_normal((max(n_steps_total, 1), config.n_channels))
        noise *= math.sqrt(config.dt)

        psi = np.tile(state0.amplitudes, (b, 1))
        sums = np.zeros((n_grid, n_obs))
        sums_sq = np.zeros((n_grid, n_obs))
        sums_cross = np.zeros((n_grid, n_obs, n_obs))
        sums_mat = np.zeros((n_grid, dim, dim), dtype=complex)

        def record(g: int) -> None:
            amps = psi @ proj.T
            obs = amps.real**2 + amps.imag**2
            sums[g] = obs.sum(axis=0)
            sums_sq[g] = (obs**2).sum(axis=0)
            sums_cross[g] = obs.T @ obs
            sums_mat[g] = np.einsum("bi,bj->ij", psi, psi.conj())

        record(0)
        pos = 0
        for g, n_sub in enumerate(substeps, start=1):
            h = (t_grid[g] - t_grid[g - 1]) / n_sub
            for _ in range(n_sub):
                psi = advance(psi, noise[:, pos, :], h)
                pos += 1
            record(g)
        return sums, sums_sq, sums_cross, sums_mat

    batches = _batch_bounds(n_trajectories, n_steps_total, config.n_channels)
    if n_threads > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            partials = list(pool.map(run_batch, batches))
    else:
        partials = [run_batch(bounds) for bounds in batches]

    sums = sum(p[0] for p in partials)
    sums_sq = sum(p[1] for p in partials)
    sums_cross = sum(p[2] for p in partials)
    sums_mat = sum(p[3] for p in partials)

    n = float(n_trajectories)
    means = sums / n
    var = np.maximum(sums_sq - n * means**2, 0.0) / (n - 1.0)
    stderrs = np.sqrt(var / n)
    cov = (sums_cross - n * np.einsum("ti,tj->tij", means, means)) / (n - 1.0)
    return EnsembleStats(
        times=t_grid,
        means=means,
        stderrs=stderrs,
        labels=labels,
        n_trajectories=n_trajectories,
        seed=int(config.seed),
        mean_matrices=sums_mat / n,
        covariances=cov,
    )


def associated_master_spec(spec: SdeSpec) -> MasterSpec:
    """Master equation whose solution is the ensemble mean of the SDE.

    The Lindblad channels are sqrt(lambda) times the collapse operators;
    non-Hermitian Hamiltonians and explicit decay drifts both land in the
    anticommutator term.
    """
    lam = spec.rate
    h = spec.hamiltonian
    h_herm = 0.5 * (h + h.conj().T)
    k = 1j * (h - h.conj().T)
    if spec.decay_quadratic is not None:
        k = k + spec.decay_quadratic
    if spec.equation in (SdeEquation.IMAGINARY_LINEAR_FAMILY, SdeEquation.STRATONOVICH_LINEAR):
        a_sq = sum(op @ op for op in spec.collapse_ops)
        k = k + lam * (2.0 * spec.beta - 1.0) * a_sq
    lindblads = [math.sqrt(lam) * op for op in spec.collapse_ops]
    if spec.equation is SdeEquation.ENLARGED_NONLINEAR:
        lindblads.append(math.sqrt(lam) * spec.decay_channel)
    k_norm = np.linalg.norm(k)
    return MasterSpec(
        hamiltonian=h_herm,
        lindblads=tuple(lindblads),
        anticommutator=None if k_norm == 0.0 else k,
    )
