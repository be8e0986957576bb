"""Stochastic-trajectory engine for the collapse quantum-state equations.

Each supported equation is an SDE for an unnormalized state vector on the
2-dim flavor space or the 4-dim enlarged space.  Its spec is a label on
the master equation that its ensemble mean solves: an ``SdeEquation``,
nonlinear or linear, which picks the kernel, and a ``lindblad.MasterSpec``
of H, the Lindblad operators L_c (one per Wiener channel: the collapse
operators A_c scaled by sqrt(lambda), and on the enlarged space the
decay channel) and the decay operator K.

``NONLINEAR`` is the collapse equation in Ito form.  With R_c = Re<L_c>
on the normalized state it reads

    dpsi = [-i H - (1/2) sum_c (L_c^dag L_c - 2 R_c L_c + R_c^2)
            - K/2] psi dt + sum_c (L_c - R_c) psi dW_c.

H is Hermitian and decay enters through K.  The forms are the flavor
equation of a flavor master equation; the enlarged-space equation, whose
master equation is the flavor one with K turned into a decay channel that
takes M_i to f_i with amplitude sqrt(K_ii)
(``lindblad.enlarged_master_spec``); and the phase-transformation family
e^{i phi} L.  It is stepped with Euler-Maruyama.

All of these share one master equation per physical system.  ``LINEAR``
takes purely imaginary noise.  Its spec is the Stratonovich SDE

    dpsi = (-i H - K/2) psi dt + i sum_c L_c psi o dW_c,

and the scheme picks the formalism: the Ito form adds the conversion term
-(1/2) sum_c L_c^2 to the drift (``ito_stratonovich_drift`` from
theta(0) = 1/2 to 0).  The CLI builds every collapse equation on the
family master equation (``lindblad.family_master_spec``), whose K is the
lambda (2 beta - 1) A^2 that a noise field with theta(0) = beta induces
(``operators.induced_decay_operator``); that makes the linear Ito form the
time-asymmetric family equation.  The CLI's QM equation is the
Wigner-Weisskopf master equation, with the measured K = Gamma, and one
zero channel.

In the mass basis H = diag(0, delta_m), A = diag(m~_L, m~_H) and K are
diagonal, and the decay channel maps each mass state to one decay state.
Every spec takes A centred, diag(0, m~_H - m~_L): a gauge of every label
on the flavor space.  On the enlarged space the shift changes the
trajectories, but of the master equation only the flavor-decay
coherences rho_Ff, which neither the flavor block nor the decay block
reads.  ``MasterSpec`` requires H and K real-diagonal and every L_c
monomial, and the linear label every L_c a real diagonal, so every step
is elementwise.
The linear equation has the closed-form solution
c_i(t) = exp(d_i t + sum_c g_ci W_c(t)) per mass component,
d = diag(-i H - K/2), g_c = i diag(L_c), which ``ensemble_evolve`` samples
at the grid points.  One step of it is ``step`` (Euler-Maruyama on the Ito
form) or ``stratonovich_step`` (Heun midpoint on the Stratonovich form).

Trajectories are embarrassingly parallel: each owns a counter-based RNG
substream keyed by (seed, trajectory), so ensembles are bit-identical
for fixed arguments regardless of scheduling or worker count, and
several initial states evolved in one call share that noise.  A stepped
ensemble (the nonlinear label) draws each substream a block of steps at
a time.  Expectation values in the nonlinear equation use the normalized
state; trajectories are stored unnormalized, and each observable is the
ensemble mean of |<v|psi>|^2 on the raw state, a real form in psi psi^dag.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np
from numpy.random import Generator, Philox

from .core import (
    Basis,
    CollapseParams,
    EnsembleStats,
    MesonParams,
    QuantumState,
    _time_grid,
    to_mass,
)
from .errors import (
    DimensionMismatch,
    InvalidParams,
    UnsupportedEquation,
    ZeroNorm,
)
from .lindblad import MasterSpec, family_master_spec

__all__ = [
    "SdeEquation",
    "NoiseConfig",
    "SdeSpec",
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
]

_NORM_FLOOR = 1e-300
_NOISE_BLOCK = 1 << 18  # noise entries a stepped batch holds in memory (2 MB)
_BATCH_CAP = 2048
_PHASE_CHUNK = 1 << 15  # (trajectory, grid point) entries per row chunk of the exact kernel


class SdeEquation(enum.Enum):
    NONLINEAR = "nonlinear"
    LINEAR = "linear"


@dataclass(frozen=True)
class NoiseConfig:
    """Noise discretization: seed and step.

    Only stepped runs read ``dt``: the exactly sampled linear equation draws
    one increment per grid interval.  The number of Wiener channels is the
    equation's own, ``SdeSpec.n_channels``.
    """

    seed: int
    dt: float

    def __post_init__(self) -> None:
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise InvalidParams("dt must be positive")
        if not 0 <= int(self.seed) < 2**64:
            raise InvalidParams("seed must fit in 64 bits")


@dataclass(frozen=True)
class SdeSpec:
    """One quantum-state equation: its label and the master equation its ensemble mean solves.

    ``master`` holds H, the Lindblad operators L_c, one per Wiener channel
    (the collapse operators sqrt(lambda) A_c and, on the enlarged space,
    the decay channel), and the decay operator K, under ``MasterSpec``'s
    contract: H and K real-diagonal, K positive semidefinite and each L_c
    monomial, so that every kernel steps the components elementwise.  The
    equation needs at least one channel, and the linear label each L_c a
    real diagonal, since the exact kernel reads the real diagonals.
    """

    equation: SdeEquation
    master: MasterSpec

    def __post_init__(self) -> None:
        if not self.master.lindblads:
            raise InvalidParams("at least one collapse operator required")
        if self.equation is SdeEquation.LINEAR:
            off_diagonal = ~np.eye(self.dim, dtype=bool)
            for op in self.master.lindblads:
                if op[off_diagonal].any():
                    raise InvalidParams("collapse operators must be diagonal in the mass basis")
                if op.imag.any():
                    raise InvalidParams("collapse operators must be Hermitian (self-adjoint)")

    @property
    def dim(self) -> int:
        return self.master.dim

    @property
    def n_channels(self) -> int:
        return len(self.master.lindblads)


def family_spec(meson: MesonParams, collapse: CollapseParams) -> SdeSpec:
    """Time-asymmetric linear family: K = lambda (2 beta - 1) A^2, so beta >= 1/2.

    Its Stratonovich drift -K/2 is +(lambda/2)(1 - 2 beta) A^2; its Ito
    drift adds -(1/2) L^2 for the centred channel L = sqrt(lambda) A_c, and
    with an uncentred A it would be -lambda beta A^2.
    """
    return SdeSpec(SdeEquation.LINEAR, family_master_spec(meson, collapse))


# One spec serves both formalisms; perfbench/micro.py still calls this name.
stratonovich_family_spec = family_spec


def phase_transform_spec(spec: SdeSpec, phi: float) -> SdeSpec:
    """Member of the phase-transformation family of the nonlinear equation.

    Each Lindblad operator L becomes e^{i phi} L, a general operator.
    phi = 0 returns the equation unchanged; phi = pi/2 turns the noise
    purely imaginary and reduces the drift to the linear -(1/2) L^2
    form.  All members share one master equation: L rho L^dag and L^dag L
    do not see the phase.
    """
    if spec.equation is not SdeEquation.NONLINEAR:
        raise UnsupportedEquation("phase transformation applies to the nonlinear equation")
    if phi == 0.0:
        return spec
    phase = complex(np.exp(1j * phi))
    return replace(spec, master=replace(spec.master, lindblads=tuple(phase * op for op in spec.master.lindblads)))


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
    if not (kappa >= 0.0):
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


def wiener_increments(config: NoiseConfig, n_steps: int, trajectory_id: int, n_channels: int = 1) -> np.ndarray:
    """Wiener increments of one trajectory, shape (n_steps, n_channels).

    The stream is a counter-based Philox generator keyed by
    (seed, trajectory_id): identical output for identical keys, whatever
    the execution order of trajectories.  Increments are N(0, dt).  With
    ``n_channels = spec.n_channels`` they are the increments a stepped
    ensemble of ``spec`` draws for trajectory ``trajectory_id``.
    """
    if n_steps < 1:
        raise InvalidParams("n_steps must be at least 1")
    if n_channels < 1:
        raise InvalidParams("n_channels must be at least 1")
    gen, rekey = _keyed_generator(config.seed)
    rekey(trajectory_id)
    return gen.standard_normal((n_steps, n_channels)) * math.sqrt(config.dt)


def _keyed_generator(seed: int):
    """A generator and a function that points it at the start of a (seed, trajectory_id) stream.

    Gives the stream of ``Philox(key=[seed, trajectory_id])`` without the
    SeedSequence that construction runs, so one generator serves a whole
    batch.  A re-key loads a fresh Philox state: counter 0, an empty buffer
    and the key changed.  That state is one dict of Python ints, built
    once, and a re-key only sets its trajectory word: the state setter
    reads Python ints about 2.5x faster than the uint64 arrays
    ``bit_generator.state`` returns.  No draw depends on an earlier key,
    so the streams stay independent of scheduling.
    """
    key = [seed, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    bit_generator = Philox(0)  # seed 0 reads no OS entropy; the keyed state replaces its own

    def rekey(trajectory_id: int) -> None:
        key[1] = trajectory_id
        bit_generator.state = state

    return Generator(bit_generator), rekey


def _keyed_generators(seed: int, trajectory_ids) -> list[Generator]:
    """One generator per trajectory at the start of its (seed, trajectory_id) stream.

    Consecutive draws continue a stream as one call would.
    """
    generators = []
    for trajectory_id in trajectory_ids:
        gen, rekey = _keyed_generator(seed)
        rekey(trajectory_id)
        generators.append(gen)
    return generators


def _as_batch(state, dim: int) -> tuple[np.ndarray, bool]:
    """A complex copy of ``state`` as rows, and whether it was one vector."""
    psi = np.array(state, dtype=complex)
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
        raise DimensionMismatch(f"noise shape {w.shape} does not match ({n_rows} states, {n_channels} channels)")
    return w


def _stratonovich_drift(spec: SdeSpec) -> np.ndarray:
    """The drift -i H - K/2 without the collapse terms: the linear equations' Stratonovich drift."""
    drift = -1j * spec.master.hamiltonian
    if spec.master.anticommutator is not None:
        drift = drift - 0.5 * spec.master.anticommutator
    return drift


def _linear_stepper(spec: SdeSpec, cols: tuple[int, ...], heun: bool):
    """In-place update c, w, h of the (dim, *cols) mass-basis columns of the linear equation.

    The generators are diagonal, so a step multiplies mass component i of
    a column by f = 1 + m (Euler-Maruyama on the Ito form) or
    f = 1 + m (1 + m/2) (Heun midpoint on the Stratonovich form), with
    m = h d_i + sum_c g_ci w_c, g_c = i L_c and d the drift of the form:
    the Stratonovich drift, plus for the Ito form the conversion term
    (1/2) sum_c g_c^2 = -(1/2) sum_c L_c^2, from theta(0) = 1/2 to 0.  It
    is applied as c += c (f - 1): rounding 1 + m would repeat one rounding
    of the real part of h d at every step, a bias linear in the number of
    steps.  The two work arrays are allocated once, so a loop of
    steps allocates nothing of the columns' size.
    """
    drift = _stratonovich_drift(spec)
    diffusions = [1j * op for op in spec.master.lindblads]
    if not heun:
        drift = drift + sum(ito_stratonovich_drift(g, 0.5, 0.0) for g in diffusions)
    expand = (slice(None),) + (None,) * len(cols)
    d = np.diagonal(drift)[expand]
    gs = [np.diagonal(g)[expand] for g in diffusions]
    m, f = np.empty((2, spec.dim, *cols), dtype=complex)

    def advance(c, w, h):
        np.multiply(gs[0], w[0], out=m)
        for g, w_c in zip(gs[1:], w[1:]):
            np.multiply(g, w_c, out=f)
            np.add(m, f, out=m)
        np.add(m, h * d, out=m)
        if heun:
            np.multiply(0.5, m, out=f)
            np.add(1.0, f, out=f)
            np.multiply(f, m, out=m)
        np.multiply(m, c, out=m)
        np.add(c, m, out=c)

    return advance


def _collapse_stepper(spec: SdeSpec, cols: tuple[int, ...]):
    """In-place Euler-Maruyama update psi, w, h of the (dim, *cols) columns of the nonlinear equation.

    Every operator is monomial (``SdeSpec``), so the step is elementwise:
    L_c psi is the gather coeff_c psi[src_c] (a plain product for a
    diagonal L_c), L_c^dag L_c is the diagonal
    n_c, and R_c = Re<psi|L_c psi> / |psi|^2 is a sum over the components
    of a column.  Grouped by what multiplies psi and L_c psi, the step is
    dpsi = (h d - sum_c beta_c) psi + sum_c alpha_c L_c psi, with
    d = -i H - K/2 - (1/2) sum_c n_c and the column scalars
    alpha_c = h R_c + w_c and beta_c = R_c (h R_c / 2 + w_c).  Sums run in
    index order, and the work arrays are allocated once.
    """
    dim, n_channels = spec.dim, spec.n_channels
    expand = (slice(None),) + (None,) * len(cols)
    d = np.diagonal(_stratonovich_drift(spec))
    srcs, coeffs = [], []
    for op in spec.master.lindblads:
        src = np.argmax(op != 0.0, axis=1)  # the one nonzero of each row, if any
        coeff = op[np.arange(dim), src]
        d = d - 0.5 * np.bincount(src, weights=coeff.real**2 + coeff.imag**2, minlength=dim)
        srcs.append(None if np.array_equal(src, np.arange(dim)) else src)  # None: diagonal, no gather
        coeffs.append(coeff[expand])
    d = d[expand]
    l_psi = np.empty((n_channels, dim, *cols), dtype=complex)
    alphas, betas = np.empty((2, n_channels, *cols))
    m = np.empty((dim, *cols), dtype=complex)
    re, im = np.empty((2, dim, *cols))
    n2, r = np.empty((2, *cols))

    def re_dot(a, b, out):
        # Re sum_i conj(a_i) b_i per column; the outer-axis sum adds components in index order.
        np.multiply(a.real, b.real, out=re)
        np.multiply(a.imag, b.imag, out=im)
        np.add(re, im, out=re)
        np.sum(re, axis=0, out=out)

    def advance(psi, w, h):
        re_dot(psi, psi, n2)
        if not n2.min() >= _NORM_FLOOR:
            raise ZeroNorm("state norm underflowed or is not finite; normalized expectation undefined")
        half_h = 0.5 * h
        for src, coeff, lp, alpha, beta, w_c in zip(srcs, coeffs, l_psi, alphas, betas, w):
            if src is None:
                np.multiply(psi, coeff, out=lp)
            else:
                np.take(psi, src, axis=0, out=lp)
                np.multiply(lp, coeff, out=lp)
            re_dot(psi, lp, r)
            np.divide(r, n2, out=r)
            np.multiply(r, half_h, out=beta)
            np.add(beta, w_c, out=beta)
            np.multiply(beta, r, out=beta)
            np.multiply(r, h, out=alpha)
            np.add(alpha, w_c, out=alpha)
        np.subtract(h * d, betas[0], out=m)
        for beta in betas[1:]:
            np.subtract(m, beta, out=m)
        np.multiply(m, psi, out=m)
        for lp, alpha in zip(l_psi, alphas):
            np.multiply(lp, alpha, out=lp)
            np.add(m, lp, out=m)
        np.add(psi, m, out=psi)

    return advance


def _step_rows(spec: SdeSpec, state, dW, dt: float, heun: bool):
    psi, single = _as_batch(state, spec.dim)
    w = _as_noise(dW, spec.n_channels, psi.shape[0])
    if spec.equation is SdeEquation.LINEAR:
        advance = _linear_stepper(spec, psi.shape[:1], heun)
    else:
        advance = _collapse_stepper(spec, psi.shape[:1])
    advance(psi.T, w.T, dt)
    return psi[0] if single else psi


def step(spec: SdeSpec, state, dW, dt: float):
    """One Euler-Maruyama step of the Ito form of the equation.

    The nonlinear equation is stated in Ito form; the linear one gains the
    Ito conversion term.  Accepts a single state vector or a batch of rows;
    ``dW`` must carry one increment per Wiener channel (and per row for
    batches).
    """
    return _step_rows(spec, state, dW, dt, heun=False)


def stratonovich_step(spec: SdeSpec, state, dW, dt: float):
    """One Heun step of the Stratonovich form of the linear equation.

    The midpoint predictor-corrector realizes the Stratonovich product.
    """
    if spec.equation is not SdeEquation.LINEAR:
        raise UnsupportedEquation("stratonovich_step applies to the linear equation")
    return _step_rows(spec, state, dW, dt, heun=True)


def observable_vectors(dim: int) -> tuple[np.ndarray, tuple[str, ...]]:
    """Projection vectors (rows, in mass coordinates) and their labels.

    M0, M0bar and the mass eigenstates; on the enlarged space also the two
    decay-product states f_L and f_H.
    """
    if dim not in (2, 4):
        raise DimensionMismatch("observables defined on dimensions 2 and 4 only")
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    flavor = np.zeros((2, dim))
    flavor[:, :2] = [[inv_sqrt2, inv_sqrt2], [inv_sqrt2, -inv_sqrt2]]
    labels = ("P_M0", "P_M0bar", "P_L", "P_H", "P_fL", "P_fH")[: dim + 2]
    return np.vstack([flavor, np.eye(dim)]), labels


def _grid_substeps(t_grid: np.ndarray, dt: float) -> list[int]:
    counts = []
    for interval in np.diff(t_grid):
        n_sub = max(1, round(interval / dt))
        if abs(interval - n_sub * dt) > 1e-9 * max(dt, interval):
            raise InvalidParams("every grid interval must be an integer multiple of dt")
        counts.append(n_sub)
    return counts


def _batch_bounds(n_trajectories: int) -> list[tuple[int, int]]:
    # Fixed partition independent of worker count.
    batch = min(_BATCH_CAP, n_trajectories)
    return [(lo, min(lo + batch, n_trajectories)) for lo in range(0, n_trajectories, batch)]


def _fold_batches(partials) -> tuple[np.ndarray, np.ndarray]:
    """Means and summed centred second moments of (count, means, m2) batch or chunk partials.

    Partials are folded in index order as they arrive, with the pairwise
    update of Chan, Golub & LeVeque (Am. Stat. 37 (1983) 242).
    """
    n_a, means, m2 = next(partials)
    for n_b, means_b, m2_b in partials:
        n_ab = n_a + n_b
        delta = means_b - means
        means += delta * (n_b / n_ab)
        m2 += m2_b
        m2 += delta[..., :, None] * delta[..., None, :] * (n_a * n_b / n_ab)
        n_a = n_ab
    return means, m2


def _stepped_batches(spec: SdeSpec, config: NoiseConfig, amps0: np.ndarray, t_grid: np.ndarray, entries):
    """Batch runner (lo, hi) -> (count, means, m2) that steps the nonlinear equation at dt with Euler-Maruyama.

    Column (s, k) of the (dim, state, batch) array holds trajectory k from
    state s, and every state reads the same noise.  Each trajectory keeps
    its own generator for the batch, and the batch draws blocks of steps of
    at most _NOISE_BLOCK entries, so no noise of the run's length is held.
    Each grid point is reduced to the features of ``ensemble_evolve``.
    """
    substeps = _grid_substeps(t_grid, config.dt)
    n_states, dim = len(amps0), spec.dim
    n_grid, n_channels, n_steps = len(t_grid), spec.n_channels, int(sum(substeps))
    n_entries = len(entries)
    n_feat = 2 * n_entries - dim
    sqrt_dt = math.sqrt(config.dt)

    def run_batch(bounds: tuple[int, int]):
        lo, hi = bounds
        b = hi - lo
        means = np.empty((n_grid, n_states, n_feat))
        m2 = np.empty((n_grid, n_states, n_feat, n_feat))
        generators = _keyed_generators(config.seed, range(lo, hi))
        noise = np.empty((b, min(n_steps, max(1, _NOISE_BLOCK // (b * n_channels))), n_channels))

        def increments():
            # Each step's (b, n_channels) noise.  A trajectory's rows of a
            # block are contiguous: its stream fills them as one call would.
            for start in range(0, n_steps, noise.shape[1]):
                block = noise[:, : n_steps - start]
                for gen, rows in zip(generators, block):
                    gen.standard_normal(out=rows)
                block *= sqrt_dt
                for pos in range(block.shape[1]):
                    yield block[:, pos]

        # The step and the reduction run in place on arrays allocated here,
        # so the loop allocates nothing of the batch's size: no memory is
        # returned to the system and faulted back in.
        psi = np.repeat(amps0.T[:, :, None], b, axis=2)
        advance = _collapse_stepper(spec, psi.shape[1:])
        states = psi.transpose(1, 0, 2)  # (state, component, trajectory)
        cc = np.empty((n_states, n_entries, b), dtype=complex)  # c_i conj(c_j)
        feats = np.empty((n_states, n_feat, b))  # (state, feature, trajectory)

        def record(g: int) -> None:
            for e, (i, j) in enumerate(entries):
                np.conjugate(states[:, j], out=cc[:, e])
                np.multiply(states[:, i], cc[:, e], out=cc[:, e])
            feats[:, :n_entries] = cc.real
            feats[:, n_entries:] = cc[:, dim:].imag
            # Centre on the first trajectory, then on the batch mean: equal
            # trajectories (t = 0) give exactly zero spread.
            first = feats[:, :, 0].copy()
            np.subtract(feats, first[:, :, None], out=feats)
            shift = feats.mean(axis=2)
            np.subtract(feats, shift[:, :, None], out=feats)
            means[g] = first + shift
            np.matmul(feats, feats.transpose(0, 2, 1), out=m2[g])

        record(0)
        dws = increments()
        for g, n_sub in enumerate(substeps, start=1):
            h = (t_grid[g] - t_grid[g - 1]) / n_sub
            for _ in range(n_sub):
                advance(psi, next(dws).T, h)
            record(g)
        return b, means, m2

    return run_batch


def _exact_linear_batches(spec: SdeSpec, config: NoiseConfig, t_grid: np.ndarray, pairs: list[tuple[int, int]]):
    """Batch runner (lo, hi) -> (count, means, m2) from the exact solution of the linear equation.

    c_i(t) = exp(d_i t + sum_c g_ci W_c(t)) with g_c = i l_c
    (Kloeden & Platen, Numerical Solution of SDEs, on linear SDEs) solves
    it, d the Stratonovich drift.  The noise is imaginary, so |c_i|^2 =
    exp(2 t Re d_i) is the same on every trajectory, and a pair gives
    c_i conj(c_j) = r_ij(t) exp(i (omega_ij t + theta_ij)) with
    r_ij = exp(t Re(d_i + d_j)), omega_ij = Im(d_i - d_j) and the phase
    theta_ij = sum_c kappa_c W_c, kappa_c = l_ci - l_cj for the real
    diagonal l_c of L_c.
    A batch runs in chunks of _PHASE_CHUNK // n_grid trajectories, in two
    buffers of one chunk's size: a chunk draws each trajectory's stream at
    the grid intervals only (one stepping step per interval draws the same
    normals) into row views built once per batch.  Per pair, one cumsum of
    the normals scaled by sum_c kappa_c sqrt(interval) / 2 gives the half
    phase tau = theta / 2 at every grid point, and the chunk reduces
    u = (cos theta, sin theta) per grid point two-pass over its rows.
    ``_fold_batches`` folds the chunk partials, and the rotation
    r_ij R(omega_ij t) maps the batch's mean and centred second moments of
    u to those of the pair's Re and Im features.  The diagonal features
    have zero spread.  ``config.dt`` does not enter.
    """
    dim, n_grid, n_channels, n_pairs = spec.dim, len(t_grid), spec.n_channels, len(pairs)
    n_feat = dim + 2 * n_pairs
    d = np.diagonal(_stratonovich_drift(spec))
    l_diag = np.array([np.diagonal(op).real for op in spec.master.lindblads])  # (channel, component)
    half_kappa = [0.5 * (l_diag[:, i] - l_diag[:, j]) for i, j in pairs]
    t = t_grid[:, None]
    diag_means = np.exp(t * (d + d).real)
    i, j = np.array(pairs, dtype=int).reshape(-1, 2).T
    r = np.exp(t * (d[i] + d[j]).real)
    phase = t * (d[i] - d[j]).imag
    # rot[g] maps (cos theta_p ..., sin theta_p ...) to (Re ..., Im ...) of c_i conj(c_j).
    rot = np.zeros((n_grid, 2 * n_pairs, 2 * n_pairs))
    p, q = np.arange(n_pairs), np.arange(n_pairs) + n_pairs
    rot[:, p, p] = rot[:, q, q] = r * np.cos(phase)
    rot[:, q, p] = r * np.sin(phase)
    rot[:, p, q] = -rot[:, q, p]
    # Increment of a pair's half phase per unit normal, (channel, interval).
    scales = [k_half[:, None] * np.sqrt(np.diff(t_grid)) for k_half in half_kappa]

    rows = max(1, _PHASE_CHUNK // n_grid)

    def run_batch(bounds: tuple[int, int]):
        lo, hi = bounds
        b = hi - lo
        means = np.empty((n_grid, 1, n_feat))
        m2 = np.zeros((n_grid, 1, n_feat, n_feat))
        gen, rekey = _keyed_generator(config.seed)
        z_rows = np.empty((min(rows, b), n_grid - 1, n_channels))  # unit normals of a row chunk
        z_views = list(z_rows)
        u_rows = np.empty((2 * n_pairs, len(z_rows), n_grid))  # (cos theta ..., sin theta ...)

        def chunk(k0: int):
            z, u = z_rows[: b - k0], u_rows[:, : b - k0]
            for k, z_k in zip(range(lo + k0, hi), z_views):
                rekey(k)
                gen.standard_normal(out=z_k)
            for pair, scale in enumerate(scales):
                # One tan of the half phase gives both: with h = 2/(1 + tau^2),
                # cos = h - 1 and sin = tau h, within 4e-16 of np.cos and
                # np.sin.  NumPy vectorizes float64 tan but not sin and cos
                # (x86-64, numpy 2.4: 5-8x faster than the pair).
                tau, cos = u[n_pairs + pair], u[pair]
                tau[:, 0] = 0.0
                np.multiply(z[..., 0], scale[0], out=tau[:, 1:])
                for c in range(1, n_channels):
                    tau[:, 1:] += scale[c] * z[..., c]
                np.cumsum(tau, axis=1, out=tau)
                np.tan(tau, out=tau)
                np.multiply(tau, tau, out=cos)
                np.add(cos, 1.0, out=cos)
                np.divide(2.0, cos, out=cos)
                np.multiply(tau, cos, out=tau)
                np.subtract(cos, 1.0, out=cos)
            # Two passes, mean then centred products; at t = 0 every u is
            # (1, 0), so the spread there is exactly zero.
            u_mean = u.mean(axis=1)
            u -= u_mean[:, None]
            return len(z), u_mean.T, np.einsum("xbg,ybg->gxy", u, u)

        u_means, u_m2 = _fold_batches(map(chunk, range(0, b, rows)))
        means[:, 0, :dim] = diag_means
        means[:, 0, dim:] = (rot @ u_means[..., None])[..., 0]
        m2[:, 0, dim:, dim:] = rot @ u_m2 @ rot.transpose(0, 2, 1)
        return b, means, m2

    return run_batch


def ensemble_evolve(
    spec: SdeSpec,
    config: NoiseConfig,
    initial_states: Sequence[QuantumState],
    t_grid,
    n_trajectories: int,
    n_threads: int = 1,
) -> tuple[EnsembleStats, ...]:
    """Ensemble means and covariances of the projection probabilities on a grid.

    Returns one ``EnsembleStats`` per entry of ``initial_states``, in
    order.  One pass serves all states: each trajectory's (seed,
    trajectory) noise drives every state.  The label picks the kernel: the
    linear equation samples the closed-form solution at the grid points
    (``_exact_linear_batches``, no discretization bias, ``config.dt``
    unread), one block of mass-basis factors c serving every state as
    a * c_k; the nonlinear label steps one block of columns per state at
    ``config.dt`` with Euler-Maruyama (``_stepped_batches``), whose O(dt)
    weak bias remains.  Either way state s of a stacked call equals a
    single-state call bit for bit.  Each probability |<v|psi>|^2 on the
    raw state is a fixed real form in the entries of psi psi^dag, so the
    ensemble reduces those entries per block to centred second moments,
    folds the batches by the pairwise update and maps them to the
    probabilities once; the spread is exactly zero while all trajectories
    agree.  Results are bit-identical whatever ``n_threads``: the batch
    partition is fixed and partials are folded in index order.
    """
    if n_trajectories < 2:
        raise InvalidParams("n_trajectories must be at least 2")
    states = [to_mass(s) if s.basis is Basis.FLAVOR else s for s in initial_states]
    if not states:
        raise InvalidParams("at least one initial state required")
    if any(s.dim != spec.dim for s in states):
        raise DimensionMismatch("initial state dimension does not match the equation")
    amps0 = np.array([s.amplitudes for s in states], dtype=complex)
    t_grid = _time_grid(t_grid)
    vecs, labels = observable_vectors(spec.dim)
    proj = vecs.conj()
    dim = spec.dim

    # Trajectory k from state s is a_s * c_k, so observable o of state s is
    # |w . c_k|^2 with w = proj_o * a_s, a real form in the entries of c c^dag.
    # The batches reduce Re c_i conj(c_j) over the diagonal and the pairs
    # i < j some observable couples, then Im over the pairs; q maps them.
    exact = spec.equation is SdeEquation.LINEAR
    weights = proj * amps0[:, None, :] if exact else proj[None]
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim) if np.any(proj[:, i] * proj[:, j])]
    entries = [(i, i) for i in range(dim)] + pairs
    w_ij = np.stack([weights[..., i] * weights[..., j].conj() for i, j in entries], axis=-1)
    w_ij[..., dim:] *= 2.0
    q = np.concatenate([w_ij.real, -w_ij[..., dim:].imag], axis=-1)

    if exact:
        run_batch = _exact_linear_batches(spec, config, t_grid, pairs)
    else:
        run_batch = _stepped_batches(spec, config, amps0, t_grid, entries)
    batches = _batch_bounds(n_trajectories)
    if n_threads > 1:
        # Imported here, so that a single-threaded run never loads it.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            means, m2 = _fold_batches(pool.map(run_batch, batches))
    else:
        means, m2 = _fold_batches(map(run_batch, batches))

    # Feature block b and row s of q broadcast to state max(b, s).
    n = float(n_trajectories)
    means = (q @ means[..., None])[..., 0]
    cov = q @ (m2 / (n - 1.0)) @ q.transpose(0, 2, 1)
    # Rounding in q can leave a zero variance slightly negative; NaN passes.
    stderrs = np.sqrt(np.maximum(np.diagonal(cov, axis1=2, axis2=3), 0.0) / n)
    return tuple(
        EnsembleStats(means=means[:, s], stderrs=stderrs[:, s], labels=labels, covariances=cov[:, s])
        for s in range(len(states))
    )

