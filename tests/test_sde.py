import numpy as np
import pytest
from scipy.integrate import quad

from flavorcollapse.analytic import prob_flavor_qm
from flavorcollapse.core import FlavorTarget, MesonParams, QuantumState
from flavorcollapse.errors import InvalidParams, UnsupportedEquation, ZeroNorm
from flavorcollapse.lindblad import integrate_master, master_rhs
from flavorcollapse.operators import collapse_operator_A, induced_decay_widths
from flavorcollapse.sde import (
    NoiseConfig,
    associated_master_spec,
    asymmetric_delta,
    collapse_flavor_spec,
    enlarged_collapse_spec,
    ensemble_evolve,
    family_spec,
    flavor_decay_spec,
    imaginary_linear_spec,
    ito_stratonovich_drift,
    nonlinear_general_spec,
    phase_transform_spec,
    step,
    stratonovich_family_spec,
    stratonovich_step,
    theta_from_kappa,
    wiener_increments,
)

from conftest import make_csl

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_M0_MASS = np.array([_INV_SQRT2, _INV_SQRT2], dtype=complex)


def _bare(m_l=1.0, m_h=2.0):
    return MesonParams(m_L=m_l, m_H=m_h, gamma_L=0.0, gamma_H=0.0)


def _decaying():
    return MesonParams(m_L=1.0, m_H=2.0, gamma_L=0.2, gamma_H=0.08)


# ----------------------------------------------------------------------
# noise

def test_wiener_moments():
    config = NoiseConfig(seed=123, dt=0.01)
    draws = wiener_increments(config, 10**6, trajectory_id=0)[:, 0]
    assert abs(np.mean(draws / np.sqrt(config.dt))) < 5e-3
    assert np.var(draws) == pytest.approx(config.dt, rel=1e-2)


def test_wiener_determinism():
    config = NoiseConfig(seed=9, dt=0.5, n_channels=2)
    a = wiener_increments(config, 500, trajectory_id=7)
    b = wiener_increments(config, 500, trajectory_id=7)
    assert np.array_equal(a, b)
    c = wiener_increments(config, 500, trajectory_id=8)
    assert not np.array_equal(a, c)


def test_noise_config_validation():
    with pytest.raises(InvalidParams):
        NoiseConfig(seed=1, dt=0.0)
    with pytest.raises(InvalidParams):
        NoiseConfig(seed=1, dt=0.1, theta0=1.5)
    with pytest.raises(InvalidParams):
        NoiseConfig(seed=-1, dt=0.1)


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
        a_op = collapse_operator_A(meson, collapse)
        a2 = np.real(_M0_MASS.conj() @ a_op @ a_op @ _M0_MASS)
        want = lam * (1.0 - 2.0 * beta) * a2 * dt
        stderr = dn2.std(ddof=1) / np.sqrt(n)
        assert np.mean(dn2) == pytest.approx(want, abs=4 * stderr + 5 * lam * dt**2)


def test_flavor_decay_norm_law():
    # E[d||psi||^2] = -sum_i Gamma_i |<M_i|psi>|^2 dt; the noise term drops
    # out pathwise for this equation.
    meson = _decaying()
    collapse = make_csl(beta=0.8, rate=0.3)
    spec = flavor_decay_spec(meson, collapse)
    dt = 1e-3
    n = 10**4
    w = np.random.default_rng(3).normal(0.0, np.sqrt(dt), size=(n, 1))
    psi0 = np.tile(_M0_MASS, (n, 1))
    psi1 = step(spec, psi0, w, dt)
    dn2 = np.einsum("bi,bi->b", psi1.conj(), psi1).real - 1.0
    want = -sum(meson.widths[i] * abs(_M0_MASS[i]) ** 2 for i in (0, 1)) * dt
    stderr = dn2.std(ddof=1) / np.sqrt(n)
    assert np.mean(dn2) == pytest.approx(want, abs=4 * stderr + 1e-6)


def test_general_equation_reduces_to_self_adjoint_form():
    # For Hermitian operators R = <A> and A^dag A = A^2, so the general
    # equation coincides with the self-adjoint one at phi = 0.
    meson = _decaying()
    collapse = make_csl(beta=0.8, rate=0.3)
    self_adjoint = collapse_flavor_spec(meson, collapse)
    general = nonlinear_general_spec(
        self_adjoint.hamiltonian, self_adjoint.collapse_ops, self_adjoint.rate
    )
    rng = np.random.default_rng(12)
    for _ in range(8):
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        w = rng.normal(size=(1,)) * 0.02
        np.testing.assert_allclose(
            step(general, psi, w, 1e-3), step(self_adjoint, psi, w, 1e-3), atol=1e-15
        )


def test_zero_norm_raises():
    spec = collapse_flavor_spec(_decaying(), make_csl())
    for amplitude in (1e-200, np.nan):
        with pytest.raises(ZeroNorm):
            step(spec, np.array([amplitude, 0.0], dtype=complex), 0.0, 1e-3)


def test_step_rejects_stratonovich_spec():
    spec = stratonovich_family_spec(_bare(), make_csl(beta=0.75))
    with pytest.raises(UnsupportedEquation):
        step(spec, _M0_MASS, 0.1, 1e-3)
    with pytest.raises(UnsupportedEquation):
        stratonovich_step(family_spec(_bare(), make_csl(beta=0.75)), _M0_MASS, 0.1, 1e-3)


def test_stratonovich_ito_drift_path_matches_family_at_rate_zero():
    meson = _bare()
    strat = stratonovich_family_spec(meson, make_csl(rate=0.0, beta=0.9))
    family = family_spec(meson, make_csl(rate=0.0, beta=0.9))
    psi = np.array([0.3 + 0.1j, 0.7 - 0.2j])
    a = stratonovich_step(strat, psi, 0.0, 2e-3, method="ito_drift")
    b = step(family, psi, 0.0, 2e-3)
    np.testing.assert_array_equal(a, b)


def test_heun_deterministic_limit_is_taylor_map():
    # With dW = 0 the midpoint corrector reduces exactly to the explicit
    # second-order Taylor map of the Stratonovich drift.
    meson = _bare()
    strat = stratonovich_family_spec(meson, make_csl(beta=0.6, rate=0.4))
    a_op = collapse_operator_A(meson, make_csl(beta=0.6, rate=0.4))
    lam = make_csl(beta=0.6, rate=0.4).effective_rate
    drift = -1j * np.diag([0.0, meson.delta_m]) + 0.5 * lam * (1.0 - 2.0 * 0.6) * a_op @ a_op
    psi = _M0_MASS.copy()
    dt = 2e-3
    heun = stratonovich_step(strat, psi, 0.0, dt, method="heun")
    taylor = psi + dt * drift @ psi + 0.5 * dt**2 * drift @ drift @ psi
    np.testing.assert_allclose(heun, taylor, atol=1e-16)


def test_heun_step_norm_conservation_scale():
    # beta = 1/2 kills the explicit drift: the midpoint rotation conserves
    # the norm up to O(dt^2) per step.
    meson = _bare()
    strat = stratonovich_family_spec(meson, make_csl(beta=0.5, rate=0.4))
    psi = _M0_MASS.copy()
    defects = []
    for dt in (1e-2, 5e-3):
        out = stratonovich_step(strat, psi, np.sqrt(dt), dt, method="heun")
        defects.append(abs(np.linalg.norm(out) - 1.0))
    assert defects[0] / defects[1] == pytest.approx(4.0, rel=0.5)


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
    spec = family_spec(meson, make_csl(rate=0.0, beta=0.5))
    t_grid = _grid(3.0, 16)
    dt = 3.0 / 3000
    config = NoiseConfig(seed=5, dt=dt)
    stats = ensemble_evolve(spec, config, QuantumState.m0(), t_grid, 10**4)
    mean, stderr = stats.column("P_M0")
    expected = prob_flavor_qm(meson, FlavorTarget.M0, t_grid)
    budget = 2.0 * dt * t_grid * max(meson.m_H, meson.delta_m) ** 2
    np.testing.assert_array_less(np.abs(mean - expected), 3 * stderr + budget + 1e-12)


def test_ensemble_matches_family_master():
    meson = _bare()
    collapse = make_csl(beta=0.8, rate=0.3)
    spec = family_spec(meson, collapse)
    t_grid = _grid(4.0, 21)
    dt = 4.0 / 2000
    config = NoiseConfig(seed=77, dt=dt)
    stats = ensemble_evolve(spec, config, QuantumState.m0(), t_grid, 4000)
    master = associated_master_spec(spec)
    rho0 = np.outer(_M0_MASS, _M0_MASS.conj())
    rhos = integrate_master(master, rho0, t_grid)
    lam = collapse.effective_rate
    rate_scale = max(meson.m_H, lam * 4.0)
    budget = 2.0 * dt * t_grid * rate_scale**2
    for label, vec in (
        ("P_M0", _M0_MASS),
        ("P_M0bar", np.array([_INV_SQRT2, -_INV_SQRT2])),
        ("P_L", np.array([1.0, 0.0])),
        ("P_H", np.array([0.0, 1.0])),
    ):
        mean, stderr = stats.column(label)
        expected = np.einsum("i,tij,j->t", vec.conj(), rhos, vec).real
        np.testing.assert_array_less(np.abs(mean - expected), 4 * stderr + budget + 1e-12)


def test_ensemble_mean_matrix_consistent_with_columns():
    meson = _bare()
    spec = family_spec(meson, make_csl(beta=0.9, rate=0.2))
    t_grid = _grid(2.0, 5)
    config = NoiseConfig(seed=3, dt=2.0 / 500)
    stats = ensemble_evolve(spec, config, QuantumState.m0(), t_grid, 300)
    mean, _ = stats.column("P_L")
    np.testing.assert_allclose(stats.mean_matrices[:, 0, 0].real, mean, atol=1e-12)


def test_ensemble_determinism_across_threads_and_runs():
    meson = _bare()
    spec = family_spec(meson, make_csl(beta=0.75, rate=0.25))
    t_grid = _grid(1.0, 6)
    config = NoiseConfig(seed=99, dt=1.0 / 400)
    runs = [
        ensemble_evolve(spec, config, QuantumState.m0(), t_grid, 600, n_threads=k)
        for k in (1, 4, 1)
    ]
    for other in runs[1:]:
        assert np.array_equal(runs[0].means, other.means)
        assert np.array_equal(runs[0].stderrs, other.stderrs)
        assert np.array_equal(runs[0].mean_matrices, other.mean_matrices)


def test_ensemble_noise_matches_wiener_contract():
    # The ensemble consumes exactly the per-trajectory streams that
    # wiener_increments exposes.
    meson = _bare()
    spec = family_spec(meson, make_csl(beta=1.0, rate=0.5))
    t_grid = np.array([0.0, 0.01])
    config = NoiseConfig(seed=31, dt=0.01)
    stats = ensemble_evolve(spec, config, QuantumState.m0(), t_grid, 2)
    manual = np.zeros((2, 2), dtype=complex)
    for traj in range(2):
        w = wiener_increments(config, 1, traj)
        psi = step(spec, _M0_MASS, w[0], 0.01)
        manual += np.outer(psi, psi.conj()) / 2.0
    np.testing.assert_allclose(stats.mean_matrices[1], manual, atol=1e-15)


def test_stderr_scales_with_trajectories():
    meson = _bare()
    spec = family_spec(meson, make_csl(beta=0.8, rate=0.4))
    t_grid = _grid(2.0, 3)
    config = NoiseConfig(seed=13, dt=2.0 / 200)
    small = ensemble_evolve(spec, config, QuantumState.m0(), t_grid, 2000)
    large = ensemble_evolve(spec, config, QuantumState.m0(), t_grid, 4000)
    ratio = small.column("P_M0")[1][-1] / large.column("P_M0")[1][-1]
    assert ratio == pytest.approx(np.sqrt(2.0), rel=0.1)


def test_formalism_equivalence_small():
    meson = _bare()
    collapse = make_csl(beta=0.75, rate=0.3)
    t_grid = _grid(2.0, 9)
    dt = 2.0 / 1000
    ito_stats = ensemble_evolve(
        family_spec(meson, collapse), NoiseConfig(seed=1, dt=dt), QuantumState.m0(), t_grid, 3000
    )
    strat_stats = ensemble_evolve(
        stratonovich_family_spec(meson, collapse),
        NoiseConfig(seed=2, dt=dt),
        QuantumState.m0(),
        t_grid,
        3000,
    )
    budget = 2.0 * dt * t_grid * max(meson.m_H, 1.0) ** 2
    for label in ("P_M0", "P_M0bar", "P_L", "P_H"):
        mean_i, err_i = ito_stats.column(label)
        mean_s, err_s = strat_stats.column(label)
        tol = 4.0 * np.hypot(err_i, err_s) + budget + 1e-12
        np.testing.assert_array_less(np.abs(mean_i - mean_s), tol)


# ----------------------------------------------------------------------
# phase-transformation family

def test_phase_transform_identity_and_imaginary_limit():
    meson = _decaying()
    collapse = make_csl(beta=0.8, rate=0.3)
    base = collapse_flavor_spec(meson, collapse)
    assert phase_transform_spec(base, 0.0) == base
    rotated = phase_transform_spec(base, np.pi / 2.0)
    linear = imaginary_linear_spec(meson, collapse, include_decay=True)
    rng = np.random.default_rng(8)
    for _ in range(10):
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        w = rng.normal(size=(1,)) * 0.03
        np.testing.assert_allclose(
            step(rotated, psi, w, 1e-3), step(linear, psi, w, 1e-3), atol=1e-14
        )


def test_phase_family_shares_ensemble_mean():
    meson = _decaying()
    collapse = make_csl(beta=0.8, rate=0.3)
    base = collapse_flavor_spec(meson, collapse)
    t_grid = _grid(2.0, 6)
    dt = 2.0 / 1000
    stats = {}
    for k, phi in enumerate((0.0, np.pi / 4.0, np.pi / 2.0)):
        spec = phase_transform_spec(base, phi)
        stats[phi] = ensemble_evolve(
            spec, NoiseConfig(seed=100 + k, dt=dt), QuantumState.m0(), t_grid, 3000
        )
    budget = 2.0 * dt * t_grid * max(meson.m_H, 1.0) ** 2
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
    rhs = master_rhs(associated_master_spec(spec), rho0)
    return fd, rhs, stderr


@pytest.mark.parametrize(
    "build",
    [
        lambda: collapse_flavor_spec(_decaying(), make_csl(beta=0.8, rate=0.3)),
        lambda: flavor_decay_spec(_decaying(), make_csl(beta=0.8, rate=0.3)),
        lambda: family_spec(_bare(), make_csl(beta=0.8, rate=0.3)),
        lambda: enlarged_collapse_spec(_decaying(), make_csl(beta=0.8, rate=0.3)),
        lambda: nonlinear_general_spec(
            np.diag([1.0, 2.0]).astype(complex),
            (np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),),
            0.3,
        ),
    ],
    ids=["collapse", "flavor_decay", "family", "enlarged", "general_nonhermitian"],
)
def test_one_step_master_consistency(build):
    spec = build()
    dim = spec.dim
    psi0 = np.zeros(dim, dtype=complex)
    psi0[:2] = _M0_MASS
    dt = 4e-3
    n = 10**5 if dim == 2 else 3 * 10**4
    fd, rhs, stderr = _fd_against_master(spec, psi0, n, dt, seed=42)
    scale = max(
        np.linalg.norm(spec.hamiltonian, 2),
        spec.rate * max(np.linalg.norm(op, 2) ** 2 for op in spec.collapse_ops),
        np.linalg.norm(spec.decay_quadratic, 2) if spec.decay_quadratic is not None else 0.0,
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
    spec = stratonovich_family_spec(meson, make_csl(beta=0.75, rate=0.4))
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
            psi = stratonovich_step(spec, psi, increments[:, k : k + 1], dt, method="heun")
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
    g_l, g_h = induced_decay_widths(meson, collapse)
    spec = family_spec(meson, collapse)
    t_grid = _grid(2.0, 5)
    config = NoiseConfig(seed=55, dt=2.0 / 2000)
    stats = ensemble_evolve(spec, config, QuantumState.mass_eigenstate(0), t_grid, 2000)
    mean, stderr = stats.column("P_L")
    expected = np.exp(-g_l * t_grid)
    budget = 2.0 * config.dt * t_grid * max(meson.m_H, 1.0) ** 2
    np.testing.assert_array_less(np.abs(mean - expected), 4 * stderr + budget + 1e-12)
