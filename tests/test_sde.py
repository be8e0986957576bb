import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy.integrate import quad

from flavorcollapse.analytic import prob_flavor
from flavorcollapse.core import Basis, FlavorTarget, MesonParams, QuantumState, mass_ratios, to_mass
from flavorcollapse.errors import InvalidParams, UnsupportedEquation, ZeroNorm
from flavorcollapse.lindblad import MasterSpec, enlarged_master_spec, family_master_spec, integrate_master, master_rhs
from flavorcollapse import sde
from flavorcollapse.operators import decay_operator, induced_decay_operator
from flavorcollapse.sde import (
    NoiseConfig,
    asymmetric_delta,
    ensemble_evolve,
    family_spec,
    ito_stratonovich_drift,
    observable_vectors,
    phase_transform_spec,
    step,
    stratonovich_family_spec,
    stratonovich_step,
    theta_from_kappa,
    wiener_increments,
)

from conftest import closed_form, make_csl

# stratonovich_family_spec is an alias of family_spec, so its __name__ cannot
# tell the two cases apart: the alias case carries its own id.
_ALIAS = pytest.param(stratonovich_family_spec, id="stratonovich_family_spec")



def imaginary_linear_spec(meson, collapse):
    # The linear label on the family master equation with the meson's
    # measured widths as K in place of the induced ones.
    measured = replace(family_master_spec(meson, collapse), anticommutator=decay_operator(meson))
    return sde.SdeSpec(sde.SdeEquation.LINEAR, measured)


def nonlinear_spec(meson, collapse):
    # The CLI's nonlinear flavor equation: the nonlinear label on the family master equation.
    return sde.SdeSpec(sde.SdeEquation.NONLINEAR, family_master_spec(meson, collapse))


def enlarged_spec(meson, collapse):
    # The CLI's enlarged equation: the family master equation with its induced K as a decay channel.
    return sde.SdeSpec(sde.SdeEquation.NONLINEAR, enlarged_master_spec(family_master_spec(meson, collapse)))


def _induced_widths(meson, collapse):
    return np.diagonal(induced_decay_operator(meson, collapse))


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_M0_MASS = np.array([_INV_SQRT2, _INV_SQRT2], dtype=complex)


def _bare(m_l=1.0, m_h=2.0):
    return MesonParams(m_L=m_l, m_H=m_h, gamma_L=0.0, gamma_H=0.0)


def _decaying():
    return MesonParams(m_L=1.0, m_H=2.0, gamma_L=0.2, gamma_H=0.08)


def _with_master(spec, **generators):
    # The spec with some generators of its master equation replaced.
    return replace(spec, master=replace(spec.master, **generators))


def _with_channel(spec, op):
    return _with_master(spec, lindblads=(*spec.master.lindblads, op))


def _gauged_rate(meson, collapse):
    # Fastest rate of the generator on the gauged mass operator diag(0, delta_m).
    ratio = float(np.max(mass_ratios(meson, collapse)))
    return max(meson.delta_m, meson.gamma_L, meson.gamma_H, collapse.effective_rate * ratio**2)


# ----------------------------------------------------------------------
# noise

def test_wiener_moments():
    config = NoiseConfig(seed=123, dt=0.01)
    draws = wiener_increments(config, 10**6, trajectory_id=0)[:, 0]
    assert abs(np.mean(draws / np.sqrt(config.dt))) < 5e-3
    assert np.var(draws) == pytest.approx(config.dt, rel=1e-2)


def test_wiener_determinism():
    config = NoiseConfig(seed=9, dt=0.5)
    a = wiener_increments(config, 500, trajectory_id=7, n_channels=2)
    b = wiener_increments(config, 500, trajectory_id=7, n_channels=2)
    assert np.array_equal(a, b)
    c = wiener_increments(config, 500, trajectory_id=8, n_channels=2)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed", [0, 9, 2**63 - 1])
def test_wiener_stream_is_philox_keyed_by_seed_and_trajectory(seed):
    config = NoiseConfig(seed=seed, dt=0.25)
    for trajectory_id in (0, 7, 2**20):
        reference = Generator(Philox(key=[seed, trajectory_id])).standard_normal((300, 2)) * 0.5
        assert np.array_equal(wiener_increments(config, 300, trajectory_id, n_channels=2), reference)


def test_wiener_keys_distinguish_high_seeds():
    # Seeds above 2**63 are keyed exactly, not through a float conversion.
    a = wiener_increments(NoiseConfig(seed=2**63, dt=1.0), 50, trajectory_id=0)
    b = wiener_increments(NoiseConfig(seed=2**63 + 1, dt=1.0), 50, trajectory_id=0)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
def test_rekey_points_at_the_start_of_each_keyed_stream(seed):
    # The reference key is a uint64 array: Philox(key=[2**64 - 1, k]) goes
    # through float64 and raises, where the keyed state is exact.
    def reference(k, n):
        return Generator(Philox(key=np.array([seed, k], dtype=np.uint64))).standard_normal(n)

    ids = (0, 1, 2**40)
    gen, rekey = sde._keyed_generator(seed)
    for k in ids:
        rekey(k)
        assert np.array_equal(gen.standard_normal(7), reference(k, 7))
    # A partial draw leaves no trace: re-keying back to an earlier k, or
    # to the same one, restarts its stream.
    for k in (ids[0], ids[2], ids[2], ids[1]):
        rekey(k)
        gen.standard_normal(3)
        rekey(k)
        assert np.array_equal(gen.standard_normal(5), reference(k, 5))
    for gen, k in zip(sde._keyed_generators(seed, ids), ids):
        assert np.array_equal(gen.standard_normal(5), reference(k, 5))
    for k in ids:
        want = reference(k, 12).reshape(6, 2) * 0.5
        assert np.array_equal(wiener_increments(NoiseConfig(seed=seed, dt=0.25), 6, k, n_channels=2), want)


def test_noise_config_validation():
    with pytest.raises(InvalidParams):
        NoiseConfig(seed=1, dt=0.0)
    with pytest.raises(InvalidParams):
        NoiseConfig(seed=-1, dt=0.1)
    with pytest.raises(InvalidParams):
        wiener_increments(NoiseConfig(seed=1, dt=0.1), 5, trajectory_id=0, n_channels=0)


# ----------------------------------------------------------------------
# single steps

def test_step_rate_zero_is_unitary_euler():
    # Factories gauge the mass operator to diag(0, delta_m).
    meson = _bare()
    spec = family_spec(meson, make_csl(rate=0.0, beta=0.7))
    psi = _M0_MASS.copy()
    out = step(spec, psi, dW=0.3, dt=1e-3)
    expected = psi + 1e-3 * (-1j) * np.diag([0.0, meson.delta_m]) @ psi
    np.testing.assert_allclose(out, expected, atol=1e-16)


def test_family_norm_drift_by_beta():
    # Single-step Monte Carlo of E[d||psi||^2]: zero at beta = 1/2,
    # -lambda <A^2> dt at beta = 1.
    meson = _bare()
    dt = 1e-3
    n = 10**5
    w = np.random.default_rng(21).normal(0.0, np.sqrt(dt), size=(n, 1))
    psi0 = np.tile(_M0_MASS, (n, 1))
    for beta in (0.5, 1.0):
        collapse = make_csl(beta=beta, rate=0.3)
        spec = family_spec(meson, collapse)
        psi1 = step(spec, psi0, w, dt)
        dn2 = np.einsum("bi,bi->b", psi1.conj(), psi1).real - 1.0
        lam = collapse.effective_rate
        a_op = np.diag(mass_ratios(meson, collapse))
        a2 = np.real(_M0_MASS.conj() @ a_op @ a_op @ _M0_MASS)
        want = lam * (1.0 - 2.0 * beta) * a2 * dt
        stderr = dn2.std(ddof=1) / np.sqrt(n)
        assert np.mean(dn2) == pytest.approx(want, abs=4 * stderr + 5 * lam * dt**2)


def test_flavor_decay_norm_law():
    # E[d||psi||^2] = -sum_i K_ii |<M_i|psi>|^2 dt with the induced K; the
    # noise term drops out pathwise for this equation.
    meson = _bare()
    collapse = make_csl(beta=0.8, rate=0.3)
    spec = nonlinear_spec(meson, collapse)
    dt = 1e-3
    n = 10**4
    w = np.random.default_rng(3).normal(0.0, np.sqrt(dt), size=(n, 1))
    psi0 = np.tile(_M0_MASS, (n, 1))
    psi1 = step(spec, psi0, w, dt)
    dn2 = np.einsum("bi,bi->b", psi1.conj(), psi1).real - 1.0
    want = -sum(_induced_widths(meson, collapse)[i] * abs(_M0_MASS[i]) ** 2 for i in (0, 1)) * dt
    stderr = dn2.std(ddof=1) / np.sqrt(n)
    assert np.mean(dn2) == pytest.approx(want, abs=4 * stderr + 1e-6)


def test_zero_norm_raises():
    spec = nonlinear_spec(_bare(), make_csl())
    for amplitude in (1e-200, np.nan):
        with pytest.raises(ZeroNorm):
            step(spec, np.array([amplitude, 0.0], dtype=complex), 0.0, 1e-3)


def test_stratonovich_step_rejects_nonlinear_spec():
    # Heun integrates the Stratonovich form of the linear equation; the
    # nonlinear equation is stated in Ito form only.
    with pytest.raises(UnsupportedEquation):
        stratonovich_step(nonlinear_spec(_bare(), make_csl(beta=0.75)), _M0_MASS, 0.1, 1e-3)


def test_heun_deterministic_limit_is_taylor_map():
    # With dW = 0 the midpoint corrector reduces exactly to the explicit
    # second-order Taylor map of the Stratonovich drift.
    meson = _bare()
    strat = family_spec(meson, make_csl(beta=0.6, rate=0.4))
    a_op = np.diag(mass_ratios(meson, make_csl(beta=0.6, rate=0.4)))
    lam = make_csl(beta=0.6, rate=0.4).effective_rate
    drift = -1j * np.diag([0.0, meson.delta_m]) + 0.5 * lam * (1.0 - 2.0 * 0.6) * a_op @ a_op
    psi = _M0_MASS.copy()
    dt = 2e-3
    heun = stratonovich_step(strat, psi, 0.0, dt)
    taylor = psi + dt * drift @ psi + 0.5 * dt**2 * drift @ drift @ psi
    np.testing.assert_allclose(heun, taylor, atol=1e-16)


def test_heun_step_norm_conservation_scale():
    # beta = 1/2 kills the explicit drift: the midpoint rotation conserves
    # the norm up to O(dt^2) per step.
    meson = _bare()
    strat = family_spec(meson, make_csl(beta=0.5, rate=0.4))
    psi = _M0_MASS.copy()
    defects = []
    for dt in (1e-2, 5e-3):
        out = stratonovich_step(strat, psi, np.sqrt(dt), dt)
        defects.append(abs(np.linalg.norm(out) - 1.0))
    assert defects[0] / defects[1] == pytest.approx(4.0, rel=0.5)


def _linear_case(n_channels):
    # A linear spec with one or two Wiener channels, 7 random rows, noise and step.
    spec = family_spec(_decaying(), make_csl(beta=0.7, rate=0.4))
    if n_channels == 2:
        spec = _with_channel(spec, np.diag([0.3, -1.7]))
    rng = np.random.default_rng(5)
    psi = rng.standard_normal((7, 2)) + 1j * rng.standard_normal((7, 2))
    w = 0.05 * rng.standard_normal((7, n_channels))
    return spec, psi, w, 2e-3


def _linear_update(spec, psi, w, h, method):
    return (step if method == "euler" else stratonovich_step)(spec, psi, w, h)


def _linear_matrices(spec, method):
    # Drift and diffusions g_c = i L_c of the form each scheme integrates:
    # Heun the Stratonovich drift -i H - K/2, Euler-Maruyama the Ito drift,
    # which adds the conversion term (1/2) sum_c g_c^2.
    diffusions = [1j * op for op in spec.master.lindblads]
    drift = -1j * spec.master.hamiltonian - 0.5 * spec.master.anticommutator
    if method == "euler":
        drift = drift + sum(ito_stratonovich_drift(g, 0.5, 0.0) for g in diffusions)
    return drift, diffusions


@pytest.mark.parametrize("method", ["euler", "heun"])
def test_linear_steps_equal_plain_expressions_bit_for_bit(method):
    # A linear step multiplies each mass component by one scalar factor
    # f = 1 + m or 1 + m (1 + m/2), applied in place as psi + (f - 1) psi;
    # it must give the bits of that elementwise expression and leave the
    # caller's rows alone.
    for n_channels in (1, 2):
        spec, psi, w, h = _linear_case(n_channels)
        before = psi.copy()
        drift, diffusions = _linear_matrices(spec, method)
        m = np.diagonal(diffusions[0]) * w[:, 0:1]
        for c in range(1, n_channels):
            m = m + np.diagonal(diffusions[c]) * w[:, c : c + 1]
        m = m + h * np.diagonal(drift)
        if method == "heun":
            m = (1.0 + 0.5 * m) * m
        got = _linear_update(spec, psi, w, h, method)
        assert np.array_equal(got, psi + m * psi)
        assert np.array_equal(psi, before)


@pytest.mark.parametrize("n_channels", [1, 2])
@pytest.mark.parametrize("method", ["euler", "heun"])
def test_linear_factor_matches_matrix_update(method, n_channels):
    # The elementwise factor is the 2x2 matrix update of the drift and
    # diffusion matrices, up to rounding.
    spec, psi, w, h = _linear_case(n_channels)
    drift, diffusions = _linear_matrices(spec, method)
    drift_t, diff_t = drift.T.copy(), [g.T.copy() for g in diffusions]

    def increment(base):
        out = h * (base @ drift_t)
        for c, g_t in enumerate(diff_t):
            out += w[:, c : c + 1] * (base @ g_t)
        return out

    if method == "heun":
        expected = psi + 0.5 * increment(psi + (psi + increment(psi)))
    else:
        expected = psi + increment(psi)
    np.testing.assert_allclose(_linear_update(spec, psi, w, h, method), expected, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("n_channels", [1, 2])
@pytest.mark.parametrize("method", ["euler", "heun"])
def test_linear_one_step_weak_multiplier(method, n_channels):
    # From c = 1, one step gives E[c_i conj(c_j)] = mu_ij in closed form
    # (Kloeden & Platen, weak analysis of linear test equations).  With
    # a = h d, G_ij = h sum_c g_ci conj(g_cj) and Q_i = h sum_c g_ci^2,
    # E[dW^2] = h and E[dW^4] = 3 h^2 give
    #   Euler: mu = (1 + a_i)(1 + a_j)* + G_ij,
    #   Heun:  mu = A_i A_j* + (1 + a_i)(1 + a_j)* G_ij + (A_i Q_j* + Q_i A_j*)/2
    #               + (Q_i Q_j* + 2 G_ij^2)/4,  A = 1 + a + a^2/2.
    # f_i conj(f_j) has degree <= 4 in the increments, so the 3-point
    # Gauss-Hermite rule per channel (exact to degree 5) averages it
    # exactly, without Monte Carlo.
    spec, _, _, h = _linear_case(n_channels)
    drift, diffusions = _linear_matrices(spec, method)
    a = h * np.diagonal(drift)
    g = np.array([np.diagonal(x) for x in diffusions])  # (channel, i)
    nodes = list(itertools.product(np.sqrt(3.0 * h) * np.array([-1.0, 0.0, 1.0]), repeat=n_channels))
    weights = np.prod(list(itertools.product([1 / 6, 2 / 3, 1 / 6], repeat=n_channels)), axis=1)
    f = _linear_update(spec, np.ones((len(nodes), 2), dtype=complex), np.array(nodes), h, method)
    mu = np.einsum("k,ki,kj->ij", weights, f, f.conj())
    big_g = h * g.T @ g.conj()
    euler = np.outer(1.0 + a, (1.0 + a).conj())
    if method == "euler":
        want = euler + big_g
    else:
        q = h * (g**2).sum(axis=0)
        big_a = 1.0 + a + a**2 / 2.0
        want = (
            np.outer(big_a, big_a.conj()) + euler * big_g
            + (np.outer(big_a, q.conj()) + np.outer(q, big_a.conj())) / 2.0
            + (np.outer(q, q.conj()) + 2.0 * big_g**2) / 4.0
        )
    np.testing.assert_allclose(mu, want, rtol=1e-14, atol=0.0)


# The ids keep the names of the collapse operators and of the decay operator K.
_GENERATORS = [
    "hamiltonian", pytest.param("lindblads", id="collapse_ops"), pytest.param("anticommutator", id="decay_quadratic")
]


@pytest.mark.parametrize("field", _GENERATORS)
@pytest.mark.parametrize(
    "factory",
    [imaginary_linear_spec, family_spec, _ALIAS, nonlinear_spec, enlarged_spec],
)
def test_linear_specs_require_diagonal_operators(factory, field):
    # Every kernel reads H and K as diagonals and a Lindblad operator as one
    # nonzero per row: the linear equation takes diagonal Lindblad operators,
    # the nonlinear one monomial ones.  For the linear label the bad
    # Lindblad operator is monomial, so that its own rule must reject it.
    spec = factory(_decaying(), make_csl(beta=0.8, rate=0.3))
    off_diagonal = np.zeros((spec.dim, spec.dim), dtype=complex)
    off_diagonal[0, 1] = off_diagonal[1, 0] = 0.25
    current = getattr(spec.master, field)
    nonlinear = spec.equation is sde.SdeEquation.NONLINEAR
    if field == "lindblads":
        bad = (current[0] + off_diagonal,) if nonlinear else (current[0][::-1],)
    else:
        bad = off_diagonal if current is None else current + off_diagonal
    with pytest.raises(InvalidParams, match="monomial" if nonlinear and field == "lindblads" else "diagonal"):
        _with_master(spec, **{field: bad})


@pytest.mark.parametrize("equation", list(sde.SdeEquation))
def test_spec_rejects_non_hermitian_hamiltonian(equation):
    # Decay enters through K alone: the Wigner-Weisskopf M - (i/2) Gamma is
    # diagonal but not Hermitian, and no label takes it.
    with pytest.raises(InvalidParams, match="hamiltonian must be Hermitian"):
        sde.SdeSpec(equation, MasterSpec(np.diag([-0.05j, 1.0 - 0.025j]), (np.diag([1.0, 2.0]),)))


@pytest.mark.parametrize("field", _GENERATORS)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("equation", list(sde.SdeEquation))
def test_spec_rejects_non_finite_generators_and_rate(equation, field, bad):
    # A NaN or an infinity on a diagonal breaks no diagonality or monomial
    # rule, so the finiteness check must catch it on its own, with no
    # warning.  A non-finite rate arrives as a non-finite Lindblad operator.
    spec = sde.SdeSpec(equation, MasterSpec(np.diag([0.0, 1.0]), (np.diag([1.0, 2.0]),), np.diag([0.1, 0.2])))
    mat = np.diag([0.5, 1.0]).astype(complex)
    mat[1, 1] = bad
    with pytest.raises(InvalidParams, match="must be finite"):
        _with_master(spec, **{field: (mat,) if field == "lindblads" else mat})


@pytest.mark.parametrize("factory", [imaginary_linear_spec, family_spec])
def test_linear_specs_require_self_adjoint_collapse_operators(factory):
    # The exact kernel reads the real diagonal of each Lindblad operator, so
    # a complex one would lose its imaginary part.  The nonlinear equation
    # takes any monomial operator.
    complex_diagonal = (np.diag([0.5, 1.5j]),)
    with pytest.raises(InvalidParams, match="self-adjoint"):
        _with_master(factory(_decaying(), make_csl(beta=0.8, rate=0.3)), lindblads=complex_diagonal)
    _with_master(nonlinear_spec(_bare(), make_csl(beta=0.8, rate=0.3)), lindblads=complex_diagonal)


def test_nonlinear_step_leaves_input_rows():
    spec = nonlinear_spec(_bare(), make_csl(rate=0.4))
    psi = np.tile(_M0_MASS, (3, 1))
    before = psi.copy()
    out = step(spec, psi, np.array([[0.1], [0.0], [-0.2]]), 1e-3)
    assert np.array_equal(psi, before)
    assert not np.array_equal(out[0], out[2])


# Mass ratios that are not powers of two, so that products by A round.
_GENERIC = MesonParams(m_L=1.3, m_H=2.1, gamma_L=0.2, gamma_H=0.08)
_GENERIC_CSL = dict(beta=0.8, rate=0.3, m0=0.7)


def test_family_is_imaginary_linear_with_induced_widths():
    # The paper's claim at the SDE layer: the time-asymmetric family is the
    # imaginary-noise linear equation of a meson whose widths are the
    # collapse-induced lambda (2 beta - 1) m~_i^2.
    collapse = make_csl(**_GENERIC_CSL)
    g_l, g_h = _induced_widths(_GENERIC, collapse)
    family = family_spec(_GENERIC, collapse)
    imaginary = imaginary_linear_spec(replace(_GENERIC, gamma_L=g_l, gamma_H=g_h), collapse)
    assert family.equation is imaginary.equation
    assert np.array_equal(family.master.hamiltonian, imaginary.master.hamiltonian)
    assert len(family.master.lindblads) == len(imaginary.master.lindblads)
    for a, b in zip(family.master.lindblads, imaginary.master.lindblads):
        assert np.array_equal(a, b)
    assert np.array_equal(family.master.anticommutator, imaginary.master.anticommutator)


def _re_dot(a, b):
    # Re sum_i conj(a_i) b_i of each row, summed over the components in index order.
    return sum((a.real * b.real + a.imag * b.imag).T)


@pytest.mark.parametrize(
    "build",
    [
        lambda: nonlinear_spec(_GENERIC, make_csl(**_GENERIC_CSL)),
        lambda: enlarged_spec(_GENERIC, make_csl(**_GENERIC_CSL)),
    ],
    ids=["collapse", "enlarged"],
)
def test_nonlinear_step_equals_plain_expressions_bit_for_bit(build):
    # The elementwise kernel must give the bits of its arithmetic written as
    # plain row expressions, in its order:
    #   psi + (h d - sum_c beta_c) psi + sum_c alpha_c L_c psi,
    # with L_c psi a gather of the one nonzero of each row.  The dense matrix
    # form of the Ito step agrees to within 8 ulp of each row's largest
    # component.
    spec = build()
    dim = spec.dim
    rng = np.random.default_rng(9)
    psi = rng.standard_normal((64, dim)) + 1j * rng.standard_normal((64, dim))
    # An O(1) step, so that a rounding change in the drift reaches psi.
    w = rng.standard_normal((64, spec.n_channels))
    h = 0.7
    master = spec.master
    got = step(spec, psi, w, h)

    n2 = _re_dot(psi, psi)
    d = -1j * np.diagonal(master.hamiltonian)
    if master.anticommutator is not None:
        d = d - 0.5 * np.diagonal(master.anticommutator)
    l_psis, alphas, betas = [], [], []
    for c, op in enumerate(master.lindblads):
        d = d - 0.5 * (np.abs(op) ** 2).sum(axis=0)  # the diagonal of L^dag L
        src = np.abs(op).argmax(axis=1)
        l_psi = op[np.arange(dim), src] * psi[:, src]
        r = _re_dot(psi, l_psi) / n2
        l_psis.append(l_psi)
        betas.append((r * (0.5 * h) + w[:, c]) * r)
        alphas.append(r * h + w[:, c])
    m = h * d - betas[0][:, None]
    for beta in betas[1:]:
        m = m - beta[:, None]
    m = m * psi
    for l_psi, alpha in zip(l_psis, alphas):
        m = m + l_psi * alpha[:, None]
    assert np.array_equal(got, psi + m)

    drift = psi @ (-1j * master.hamiltonian).T
    if master.anticommutator is not None:
        drift = drift - 0.5 * (psi @ master.anticommutator.T)
    noise = np.zeros_like(psi)
    for c, op in enumerate(master.lindblads):
        op_psi = psi @ op.T
        r = (np.einsum("bi,ij,bj->b", psi.conj(), op, psi).real / n2)[:, None]
        drift = drift - 0.5 * (op_psi @ op.conj() - 2.0 * r * op_psi + r**2 * psi)
        noise = noise + w[:, c : c + 1] * (op_psi - r * psi)
    dense = psi + drift * h + noise
    # Measured: at most 3 ulp of each row's largest component.
    ulp = np.finfo(float).eps * np.abs(psi).max(axis=1, keepdims=True)
    assert np.all(np.abs(got - dense) <= 8.0 * ulp)


def test_ito_stratonovich_drift_properties():
    a_op = np.diag([1.0, 2.0]).astype(complex)
    lam = 0.3
    g = 1j * np.sqrt(lam) * a_op
    np.testing.assert_array_equal(ito_stratonovich_drift(g, 0.7, 0.7), np.zeros((2, 2)))
    np.testing.assert_allclose(
        ito_stratonovich_drift(g, 0.5, 0.0), -0.5 * lam * a_op @ a_op, atol=1e-15
    )
    chained = ito_stratonovich_drift(g, 0.5, 0.0) + ito_stratonovich_drift(g, 1.0, 0.5)
    np.testing.assert_allclose(chained, ito_stratonovich_drift(g, 1.0, 0.0), atol=1e-15)


# ----------------------------------------------------------------------
# formalism helpers

def test_theta_from_kappa():
    assert theta_from_kappa(0.0) == 0.0
    assert theta_from_kappa(1.0) == 0.5
    assert theta_from_kappa(np.inf) == 1.0
    for kappa in (np.nan, -1.0):
        with pytest.raises(InvalidParams, match="kappa must be nonnegative"):
            theta_from_kappa(kappa)


def test_asymmetric_delta_normalization_and_asymmetry():
    for kappa in (0.5, 1.0, 2.0):
        total, _ = quad(lambda t: asymmetric_delta(t, kappa, 1e-2), -2.0, 2.0)
        assert total == pytest.approx(1.0, abs=1e-10)
        plus, _ = quad(lambda t: asymmetric_delta(t, kappa, 1e-2), 0.0, 2.0)
        minus, _ = quad(lambda t: asymmetric_delta(t, kappa, 1e-2), -2.0, 0.0)
        assert plus - minus == pytest.approx(1.0 - 2.0 * theta_from_kappa(kappa), abs=1e-9)
    sym = asymmetric_delta(np.array([-0.3, 0.3]), 1.0, 0.1)
    assert sym[0] == pytest.approx(sym[1], rel=1e-14)


# ----------------------------------------------------------------------
# ensemble evolution

def _grid(t_max, n):
    return np.linspace(0.0, t_max, n)


def test_ensemble_unitary_limit_matches_oscillation():
    meson = _bare()
    collapse = make_csl(rate=0.0, beta=0.5)
    spec = family_spec(meson, collapse)
    t_grid = _grid(3.0, 16)
    config = NoiseConfig(seed=5, dt=3.0 / 3000)
    (stats,) = ensemble_evolve(spec, config, (QuantumState.m0(),), t_grid, 10**4)
    mean, stderr = stats.column("P_M0")
    expected = prob_flavor(closed_form(meson), FlavorTarget.M0, t_grid)
    np.testing.assert_array_less(np.abs(mean - expected), 3 * stderr + 1e-12)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_ensemble_rejects_a_non_finite_grid_point(bad):
    spec = family_spec(_bare(), make_csl(beta=0.8, rate=0.3))
    config = NoiseConfig(seed=5, dt=0.01)
    with pytest.raises(InvalidParams, match="t_grid must be finite"):
        ensemble_evolve(spec, config, (QuantumState.m0(),), np.array([0.0, 1.0, bad]), 10)


def test_ensemble_matches_family_master():
    meson = _bare()
    collapse = make_csl(beta=0.8, rate=0.3)
    spec = family_spec(meson, collapse)
    t_grid = _grid(4.0, 21)
    config = NoiseConfig(seed=77, dt=4.0 / 2000)
    (stats,) = ensemble_evolve(spec, config, (QuantumState.m0(),), t_grid, 4000)
    rho0 = np.outer(_M0_MASS, _M0_MASS.conj())
    rhos = integrate_master(spec.master, rho0, t_grid)
    for label, vec in (
        ("P_M0", _M0_MASS),
        ("P_M0bar", np.array([_INV_SQRT2, -_INV_SQRT2])),
        ("P_L", np.array([1.0, 0.0])),
        ("P_H", np.array([0.0, 1.0])),
    ):
        mean, stderr = stats.column(label)
        expected = np.einsum("i,tij,j->t", vec.conj(), rhos, vec).real
        np.testing.assert_array_less(np.abs(mean - expected), 4 * stderr + 1e-12)


def test_ensemble_determinism_across_threads_and_runs():
    # Three batches (2048 + 2048 + 4), so the pool has batches to split and
    # must fold their partials in index order, on the exact kernel and on
    # the stepped one; two partials would fold alike in either order.
    n_traj = 4100
    assert len(sde._batch_bounds(n_traj)) >= 3
    t_grid = _grid(1.0, 6)
    config = NoiseConfig(seed=99, dt=1.0 / 40)
    states = (QuantumState.m0(), QuantumState.m0bar())
    for factory in (family_spec, nonlinear_spec):
        spec = factory(_decaying(), make_csl(beta=0.75, rate=0.25))
        runs = [ensemble_evolve(spec, config, states, t_grid, n_traj, n_threads=k) for k in (1, 4, 1)]
        for other in runs[1:]:
            for a, b in zip(runs[0], other):
                for field in ("means", "stderrs", "covariances"):
                    assert np.array_equal(getattr(a, field), getattr(b, field)), (factory.__name__, field)


def test_stderr_is_finite_where_rounding_leaves_a_variance_below_zero():
    # One step, two trajectories: P_M0 from M0 barely spreads, and the map
    # from the feature moments rounds its variance at t = dt to -9e-21.
    # Its stderr is 0, not NaN.
    spec = nonlinear_spec(_bare(), make_csl(beta=1.0, rate=0.5))
    with np.errstate(invalid="raise"):
        (stats,) = ensemble_evolve(spec, NoiseConfig(seed=0, dt=0.01), (QuantumState.m0(),), _grid(0.01, 2), 2)
    assert np.all(np.isfinite(stats.stderrs))
    assert np.all(stats.stderrs >= 0.0)


_STACKED = (QuantumState.m0(), QuantumState.mass_eigenstate(0), QuantumState.mass_eigenstate(1))


@pytest.mark.parametrize("factory", [family_spec, _ALIAS, nonlinear_spec])
def test_stacked_states_equal_single_state_runs(factory):
    # Two batches (2048 + 52): one stacked call reproduces three separate
    # calls bit for bit, since the states share each trajectory's noise.
    spec = factory(_bare(), make_csl(beta=0.8, rate=0.3))
    t_grid = _grid(1.0, 5)
    config = NoiseConfig(seed=21, dt=1.0 / 40)
    stacked = ensemble_evolve(spec, config, _STACKED, t_grid, 2100)
    assert len(stacked) == 3
    for state, together in zip(_STACKED, stacked):
        (alone,) = ensemble_evolve(spec, config, (state,), t_grid, 2100)
        for field in ("means", "stderrs", "covariances"):
            assert np.array_equal(getattr(together, field), getattr(alone, field)), field


def _enlarged_stack():
    # M0 and the two mass eigenstates with empty decay-product components.
    return tuple(
        QuantumState(np.concatenate([to_mass(s).amplitudes, [0.0, 0.0]]), Basis.ENLARGED) for s in _STACKED
    )


# A complex superposition gives weights with Im(w_i conj(w_j)) != 0 on the
# exact kernel.  The mass eigenstates are noise fixed points of the
# nonlinear flavor equation (zero spread), so its case stacks states that
# do spread.
_COMPLEX = QuantumState(np.array([0.6, 0.8j]), Basis.MASS)
_SPREADING = (QuantumState.m0(), QuantumState.m0bar(), _COMPLEX)


@pytest.mark.parametrize(
    "build, states",
    [
        (lambda csl: nonlinear_spec(_bare(), csl), _SPREADING),
        (lambda csl: enlarged_spec(_bare(), csl), _enlarged_stack()),
    ],
    ids=["collapse_decaying", "enlarged"],
)
def test_ensemble_moments_match_two_pass_over_manual_trajectories(monkeypatch, build, states):
    # Two batches (2048 + 52) of the stepped kernel, one block of columns
    # per state, on dim 2 and dim 4.  The 2048-trajectory batch draws its
    # 40 steps in noise blocks of 6 steps (3 with two channels), the last
    # one short; each trajectory's blocks must continue its one stream.
    monkeypatch.setattr(sde, "_NOISE_BLOCK", 6 * 2048)
    spec = build(make_csl(beta=0.8, rate=0.3))
    t_grid = _grid(1.0, 5)
    config = NoiseConfig(seed=17, dt=1.0 / 40)
    n_traj, n_sub = 2100, 10
    stats = ensemble_evolve(spec, config, states, t_grid, n_traj)
    noise = np.array([wiener_increments(config, 40, k, spec.n_channels) for k in range(n_traj)])
    proj = observable_vectors(spec.dim)[0].conj()
    for state, result in zip(states, stats):
        a = state.amplitudes if state.basis is Basis.ENLARGED else to_mass(state).amplitudes
        rows = np.tile(a, (n_traj, 1))
        for g in range(1, len(t_grid)):
            h = (t_grid[g] - t_grid[g - 1]) / n_sub
            for pos in range((g - 1) * n_sub, g * n_sub):
                rows = step(spec, rows, noise[:, pos, :], h)
            amps = rows @ proj.T
            obs = amps.real**2 + amps.imag**2
            np.testing.assert_allclose(result.means[g], obs.mean(axis=0), rtol=1e-13)
            np.testing.assert_allclose(
                result.stderrs[g], np.sqrt(np.var(obs, axis=0, ddof=1) / n_traj), rtol=1e-12
            )
            np.testing.assert_allclose(result.covariances[g], np.cov(obs.T), rtol=1e-12)
        # Every trajectory starts in the same state: no spread at t = 0.
        assert np.all(result.stderrs[0] == 0.0)
        assert np.all(result.covariances[0] == 0.0)


def test_ensemble_noise_matches_wiener_contract():
    # The stepped ensemble consumes exactly the per-trajectory streams that
    # wiener_increments exposes.
    spec = nonlinear_spec(_bare(), make_csl(beta=1.0, rate=0.5))
    t_grid = np.array([0.0, 0.01])
    config = NoiseConfig(seed=31, dt=0.01)
    (stats,) = ensemble_evolve(spec, config, (_COMPLEX,), t_grid, 2)
    proj = observable_vectors(2)[0].conj()
    manual = np.zeros(len(proj))
    for traj in range(2):
        w = wiener_increments(config, 1, traj)
        psi = step(spec, _COMPLEX.amplitudes, w[0], 0.01)
        manual += np.abs(proj @ psi) ** 2 / 2.0
    np.testing.assert_allclose(stats.means[1], manual, atol=1e-15)


def test_stderr_scales_with_trajectories():
    meson = _bare()
    spec = family_spec(meson, make_csl(beta=0.8, rate=0.4))
    t_grid = _grid(2.0, 3)
    config = NoiseConfig(seed=13, dt=2.0 / 200)
    (small,) = ensemble_evolve(spec, config, (QuantumState.m0(),), t_grid, 2000)
    (large,) = ensemble_evolve(spec, config, (QuantumState.m0(),), t_grid, 4000)
    ratio = small.column("P_M0")[1][-1] / large.column("P_M0")[1][-1]
    assert ratio == pytest.approx(np.sqrt(2.0), rel=0.1)


# ----------------------------------------------------------------------
# exact-in-law ensemble of the linear equations

_ALL_STATES = (QuantumState.m0(), QuantumState.m0bar(), QuantumState.mass_eigenstate(0),
               QuantumState.mass_eigenstate(1), _COMPLEX)


def _induced(meson, collapse):
    gamma_l, gamma_h = _induced_widths(meson, collapse)
    return replace(meson, gamma_L=gamma_l, gamma_H=gamma_h)


def test_exact_ensemble_does_not_depend_on_dt():
    # dt need not even divide the grid intervals: the exact kernel never steps.
    spec = family_spec(_decaying(), make_csl(beta=0.7, rate=0.4))
    t_grid = _grid(3.0, 7)
    runs = [
        ensemble_evolve(spec, NoiseConfig(seed=8, dt=dt), _ALL_STATES, t_grid, 300)
        for dt in (0.5, 0.01, 0.0317)
    ]
    for other in runs[1:]:
        for a, b in zip(runs[0], other):
            assert np.array_equal(a.means, b.means)
            assert np.array_equal(a.covariances, b.covariances)


def _closed_form_cases():
    # (trajectories per row chunk, trajectories, batch cap): None keeps the
    # module's value, so the first case reduces all 7 in one chunk; the
    # others fold 7 one-row and 3 three-row chunk partials, and 70
    # trajectories in two batches (64 + 6) of three-row chunks.
    factories = (
        ("family_spec", family_spec),
        ("stratonovich_family_spec", stratonovich_family_spec),
        ("imaginary_linear_spec", imaginary_linear_spec),
    )
    for name, factory in factories:
        for n_channels in (1, 2):
            for rows, n_traj, batch_cap in ((None, 7, None), (1, 7, None), (3, 7, None), (3, 70, 64)):
                tail = "" if rows is None else f"-rows{rows}-N{n_traj}"
                yield pytest.param(factory, n_channels, rows, n_traj, batch_cap, id=f"{name}-{n_channels}{tail}")


@pytest.mark.parametrize("factory, n_channels, rows, n_traj, batch_cap", _closed_form_cases())
def test_exact_ensemble_equals_closed_form(monkeypatch, factory, n_channels, rows, n_traj, batch_cap):
    # Few trajectories, one dt per grid interval: the ensemble is the
    # sample mean and covariance of c_i = exp(d_i t + sum_c g_ci W_c) with
    # W the cumulated wiener_increments and d the Stratonovich drift.
    spec = factory(_decaying(), make_csl(beta=0.7, rate=0.4))
    if n_channels == 2:
        spec = _with_channel(spec, np.diag([0.3, -1.7]))
    dt = 1.0 / 64
    t_grid = dt * np.arange(9)
    if rows is not None:
        monkeypatch.setattr(sde, "_PHASE_CHUNK", rows * len(t_grid))
    if batch_cap is not None:
        monkeypatch.setattr(sde, "_BATCH_CAP", batch_cap)
    config = NoiseConfig(seed=19, dt=dt)
    stats = ensemble_evolve(spec, config, _ALL_STATES, t_grid, n_traj)
    drift = -1j * np.diagonal(spec.master.hamiltonian) - 0.5 * np.diagonal(spec.master.anticommutator)
    g = 1j * np.array([np.diagonal(op) for op in spec.master.lindblads])  # (channel, i)
    w = np.array([np.cumsum(wiener_increments(config, 8, k, n_channels), axis=0) for k in range(n_traj)])
    w = np.concatenate([np.zeros((n_traj, 1, n_channels)), w], axis=1)  # (trajectory, time, channel)
    c = np.exp(drift * t_grid[:, None] + w @ g)  # (trajectory, time, i)
    proj = observable_vectors(2)[0].conj()
    for state, result in zip(_ALL_STATES, stats):
        obs = np.abs((to_mass(state).amplitudes * c) @ proj.T) ** 2  # (trajectory, time, observable)
        np.testing.assert_allclose(result.means, obs.mean(axis=0), rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(
            result.stderrs, np.std(obs, axis=0, ddof=1) / np.sqrt(n_traj), rtol=1e-12, atol=1e-15
        )
        cov = np.einsum("kto,ktp->top", obs - obs.mean(axis=0), obs - obs.mean(axis=0)) / (n_traj - 1)
        np.testing.assert_allclose(result.covariances, cov, rtol=1e-12, atol=1e-15)


def test_exact_mass_eigenstates_are_deterministic():
    # Imaginary noise leaves |c_i| alone: P_L from M_L and P_H from M_H are
    # exp(-gamma_i t) on every trajectory, with no spread, and no mean
    # probability exceeds 1.
    meson, collapse = _bare(0.5, 1.5), make_csl(beta=0.8, rate=0.3)
    gammas = _induced_widths(meson, collapse)
    t_grid = _grid(6.0, 121)
    spec = family_spec(meson, collapse)
    stats = ensemble_evolve(spec, NoiseConfig(seed=7, dt=0.05), _ALL_STATES, t_grid, 3000)
    for index, label in enumerate(("P_L", "P_H")):
        mean, stderr = stats[2 + index].column(label)
        assert np.all(stderr == 0.0)
        np.testing.assert_allclose(mean, np.exp(-gammas[index] * t_grid), rtol=0.0, atol=1e-15)
    for result in stats:
        assert np.all(result.means <= 1.0)
        assert np.all(result.stderrs[0] == 0.0)


def test_exact_ensemble_memory_stays_within_a_row_chunk():
    # The exact kernel holds one row chunk of W and of the phases, never a
    # batch-sized block: a 2048 x 401 W block alone would take 6.6 MB.
    spec = family_spec(_bare(0.5, 1.5), make_csl(beta=0.8, rate=0.3))
    states = (QuantumState.m0(), QuantumState.mass_eigenstate(0), QuantumState.mass_eigenstate(1))
    t_grid = np.linspace(0.0, 6.0, 401)
    config = NoiseConfig(seed=23, dt=0.015)
    ensemble_evolve(spec, config, states, t_grid, 2)  # warm-up: imports, lazy set-up
    tracemalloc.start()
    try:
        ensemble_evolve(spec, config, states, t_grid, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6, peak


def test_stepped_ensemble_memory_stays_within_a_noise_block():
    # The stepped kernel draws each trajectory's stream a block of steps at
    # a time: the 1024 x 2000 noise of this call would take 16.4 MB at once.
    # It holds one 2 MB block, 1024 generators of under 1 KB each and the
    # work arrays (3.95 MB measured).
    spec = nonlinear_spec(_bare(0.5, 1.5), make_csl(beta=0.8, rate=0.3))
    states = (QuantumState.m0(), QuantumState.mass_eigenstate(0), QuantumState.mass_eigenstate(1))
    t_grid = np.linspace(0.0, 6.0, 5)
    config = NoiseConfig(seed=23, dt=0.003)
    ensemble_evolve(spec, config, states, t_grid, 2)  # warm-up: imports, lazy set-up
    tracemalloc.start()
    try:
        ensemble_evolve(spec, config, states, t_grid, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6, peak


# ----------------------------------------------------------------------
# phase-transformation family

def test_phase_transform_identity_and_imaginary_limit():
    meson = _bare()
    collapse = make_csl(beta=0.8, rate=0.3)
    base = nonlinear_spec(meson, collapse)
    assert phase_transform_spec(base, 0.0) == base
    rotated = phase_transform_spec(base, np.pi / 2.0)
    linear = family_spec(meson, collapse)
    rng = np.random.default_rng(8)
    for _ in range(10):
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        w = rng.normal(size=(1,)) * 0.03
        np.testing.assert_allclose(
            step(rotated, psi, w, 1e-3), step(linear, psi, w, 1e-3), atol=1e-14
        )


def test_phase_family_shares_ensemble_mean():
    meson = _bare()
    collapse = make_csl(beta=0.8, rate=0.3)
    base = nonlinear_spec(meson, collapse)
    t_grid = _grid(2.0, 6)
    dt = 2.0 / 1000
    stats = {}
    for k, phi in enumerate((0.0, np.pi / 4.0, np.pi / 2.0)):
        spec = phase_transform_spec(base, phi)
        (stats[phi],) = ensemble_evolve(
            spec, NoiseConfig(seed=100 + k, dt=dt), (QuantumState.m0(),), t_grid, 3000
        )
    budget = 2.0 * dt * t_grid * _gauged_rate(meson, collapse) ** 2
    pairs = [(0.0, np.pi / 4.0), (0.0, np.pi / 2.0)]
    for phi_a, phi_b in pairs:
        for label in ("P_M0", "P_M0bar"):
            mean_a, err_a = stats[phi_a].column(label)
            mean_b, err_b = stats[phi_b].column(label)
            tol = 4.0 * np.hypot(err_a, err_b) + budget + 1e-12
            np.testing.assert_array_less(np.abs(mean_a - mean_b), tol)


def test_phase_transform_rejects_other_equations():
    with pytest.raises(UnsupportedEquation):
        phase_transform_spec(family_spec(_bare(), make_csl(beta=0.8)), 0.3)


# ----------------------------------------------------------------------
# master-equation consistency (one-step finite difference)

def _with_extra_decay(spec):
    return _with_master(spec, anticommutator=spec.master.anticommutator + np.diag([0.2, 0.05]))


def _fd_against_master(spec, psi0, n, dt, seed):
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, np.sqrt(dt), size=(n, spec.n_channels))
    psi_batch = np.tile(psi0, (n, 1))
    psi1 = step(spec, psi_batch, w, dt)
    mean_outer = np.einsum("bi,bj->ij", psi1, psi1.conj()) / n
    second = np.einsum("bi,bj->ij", np.abs(psi1) ** 2, np.abs(psi1) ** 2) / n
    var = np.maximum(second - np.abs(mean_outer) ** 2, 0.0)
    stderr = np.sqrt(var / n) / dt
    rho0 = np.outer(psi0, psi0.conj())
    fd = (mean_outer - rho0) / dt
    rhs = master_rhs(spec.master, rho0)
    return fd, rhs, stderr


@pytest.mark.parametrize(
    "build",
    [
        lambda: nonlinear_spec(_bare(), make_csl(beta=0.8, rate=0.3)),
        lambda: family_spec(_bare(), make_csl(beta=0.8, rate=0.3)),
        lambda: _with_extra_decay(family_spec(_bare(), make_csl(beta=0.8, rate=0.3))),
        lambda: enlarged_spec(_bare(), make_csl(beta=0.8, rate=0.3)),
        lambda: sde.SdeSpec(
            sde.SdeEquation.NONLINEAR,
            MasterSpec(np.diag([1.0, 2.0]), (np.sqrt(0.3) * np.array([[0.0, 1.0], [0.0, 0.0]]),)),
        ),
    ],
    ids=["collapse", "family", "family_extra_decay", "enlarged", "general_nonhermitian"],
)
def test_one_step_master_consistency(build):
    spec = build()
    dim = spec.dim
    psi0 = np.zeros(dim, dtype=complex)
    psi0[:2] = _M0_MASS
    dt = 4e-3
    n = 10**5 if dim == 2 else 3 * 10**4
    fd, rhs, stderr = _fd_against_master(spec, psi0, n, dt, seed=42)
    master = spec.master
    scale = max(
        np.linalg.norm(master.hamiltonian, 2),
        max(np.linalg.norm(op, 2) ** 2 for op in master.lindblads),
        np.linalg.norm(master.anticommutator, 2) if master.anticommutator is not None else 0.0,
    )
    tol = 5.0 * stderr + 4.0 * scale**2 * dt
    np.testing.assert_array_less(np.abs(fd - rhs), tol)


def test_family_consistency_beta_range():
    for beta in (0.5, 0.75, 1.0):
        spec = family_spec(_bare(), make_csl(beta=beta, rate=0.4))
        fd, rhs, stderr = _fd_against_master(spec, _M0_MASS, 10**5, 4e-3, seed=7)
        tol = 5.0 * stderr + 4.0 * max(2.0, 0.4 * 4.0) ** 2 * 4e-3
        np.testing.assert_array_less(np.abs(fd - rhs), tol)


# ----------------------------------------------------------------------
# strong order of the Stratonovich midpoint scheme

def test_heun_strong_order_one():
    # Diagonal commuting linear noise: halving dt halves the strong error
    # against a dt/64 reference on the same Brownian paths.
    meson = _bare()
    spec = family_spec(meson, make_csl(beta=0.75, rate=0.4))
    t_final = 1.0
    n_paths = 256
    h = 1.0 / 128
    refine = 64
    n_fine = int(t_final / h) * refine
    rng = np.random.default_rng(2718)
    fine = rng.normal(0.0, np.sqrt(h / refine), size=(n_paths, n_fine))

    def solve(increments, dt):
        psi = np.tile(_M0_MASS, (n_paths, 1))
        for k in range(increments.shape[1]):
            psi = stratonovich_step(spec, psi, increments[:, k : k + 1], dt)
        return psi

    ref = solve(fine, h / refine)
    errors = []
    for level in (1, 2):
        coarse = fine.reshape(n_paths, -1, refine // level).sum(axis=2)
        sol = solve(coarse, h / level)
        errors.append(np.mean(np.linalg.norm(sol - ref, axis=1)))
    assert errors[0] / errors[1] == pytest.approx(2.0, rel=0.25)


# ----------------------------------------------------------------------
# norm decay along trajectories matches the width law

def test_family_trajectory_norm_matches_induced_widths():
    meson = _bare()
    collapse = make_csl(beta=0.9, rate=0.3)
    g_l, g_h = _induced_widths(meson, collapse)
    spec = family_spec(meson, collapse)
    t_grid = _grid(2.0, 5)
    config = NoiseConfig(seed=55, dt=2.0 / 2000)
    (stats,) = ensemble_evolve(spec, config, (QuantumState.mass_eigenstate(0),), t_grid, 2000)
    mean, stderr = stats.column("P_L")
    expected = np.exp(-g_l * t_grid)
    np.testing.assert_array_less(np.abs(mean - expected), 4 * stderr + 1e-12)
