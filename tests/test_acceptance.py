"""Acceptance suite: one test per criterion, each timed against its budget.

Run with ``pytest -s tests/test_acceptance.py -v`` to see one pass line
per criterion.
"""

import json
import time

import numpy as np
import pytest
from scipy.integrate import quad

from flavorcollapse import cli, sde
from flavorcollapse.analytic import (
    asymmetry_closed_form,
    collapse_rate_lower_bound,
    prob_flavor,
    prob_lifetime,
    solve_absolute_masses,
)
from flavorcollapse.core import (
    STATES,
    CollapseParams,
    Convention,
    FlavorTarget,
    MesonParams,
    Model,
    mass_ratios,
)
from flavorcollapse.errors import InvalidParams
from flavorcollapse.lindblad import (
    build_superoperator,
    enlarged_master_spec,
    family_master_spec,
    gaussian_partial_trace,
    integrate_master,
    kernel_solution,
    master_rhs,
    probs_from_kernels,
    project_enlarged_to_flavor,
    wigner_weisskopf_spec,
)
from flavorcollapse.operators import induced_decay_operator
from flavorcollapse.sde import (
    NoiseConfig,
    ensemble_evolve,
    family_spec,
    step,
    stratonovich_step,
)

_M0, _M0BAR = STATES["M0"], STATES["M0bar"]
_RHO_M0 = np.outer(_M0, _M0.conj())


def _report(tag: str, start: float, budget: float) -> None:
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {tag}: PASS ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget


def _master_flavor_probs(meson, collapse, grid):
    rhos = integrate_master(family_master_spec(meson, collapse), _RHO_M0, grid)
    p_same = np.einsum("i,tij,j->t", _M0.conj(), rhos, _M0).real
    p_flip = np.einsum("i,tij,j->t", _M0BAR.conj(), rhos, _M0BAR).real
    return p_same, p_flip


def test_c1_triple_route_agreement_csl():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    t_final = 8.0
    grid = np.linspace(0.0, t_final, 400)
    worst = 0.0
    for k in range(20):
        m_l = rng.uniform(0.5, 2.0)
        meson = MesonParams(m_L=m_l, m_H=m_l + rng.uniform(0.3, 1.5), gamma_L=0.0, gamma_H=0.0)
        convention = Convention.NORMAL if k % 2 == 0 else Convention.INVERTED
        collapse = CollapseParams(
            model=Model.CSL,
            rate=rng.uniform(0.05, 0.5),
            beta=rng.uniform(0.5, 1.0),
            m0=rng.uniform(0.5, 2.0),
            alpha=1.0,
            d=int(rng.integers(1, 4)),
            r_C=rng.uniform(0.3, 1.0),
            ratio_convention=convention,
        )
        # Keep total induced decay over the window mild so the asymmetry
        # denominator stays well conditioned.
        mx = float(np.max(mass_ratios(meson, collapse)) ** 2)
        depth = collapse.effective_rate * mx * t_final
        if depth > 3.0:
            scaled = collapse.rate * 3.0 / depth
            collapse = CollapseParams(
                model=Model.CSL, rate=scaled, beta=collapse.beta, m0=collapse.m0,
                alpha=1.0, d=collapse.d, r_C=collapse.r_C, ratio_convention=convention,
            )
        p_same_m, p_flip_m = _master_flavor_probs(meson, collapse, grid)
        p_same_a = prob_flavor(meson, collapse, FlavorTarget.M0, grid)
        p_flip_a = prob_flavor(meson, collapse, FlavorTarget.M0BAR, grid)
        asym_m = (p_same_m - p_flip_m) / (p_same_m + p_flip_m)
        asym_a = asymmetry_closed_form(meson, collapse, grid)
        worst = max(
            worst,
            np.abs(p_same_m - p_same_a).max(),
            np.abs(p_flip_m - p_flip_a).max(),
            np.abs(asym_m - asym_a).max(),
        )
    assert worst < 1e-12, f"max residual {worst:.3e}"
    _report(f"1 triple-route CSL (max residual {worst:.2e})", start, 10.0)


_C2_SETS = [
    dict(m_L=0.40, dm=1.00, rate=0.30, beta=0.8, d=2, r_C=0.5, m0=1.0, conv=Convention.NORMAL),
    dict(m_L=0.30, dm=1.20, rate=0.20, beta=0.6, d=1, r_C=0.4, m0=0.6, conv=Convention.INVERTED),
    dict(m_L=0.50, dm=0.90, rate=0.25, beta=1.0, d=3, r_C=0.6, m0=1.4, conv=Convention.NORMAL),
    dict(m_L=0.35, dm=1.05, rate=0.15, beta=0.5, d=2, r_C=0.5, m0=0.9, conv=Convention.INVERTED),
    dict(m_L=0.45, dm=1.10, rate=0.35, beta=0.9, d=1, r_C=0.7, m0=1.1, conv=Convention.NORMAL),
]


def test_c2_monte_carlo_closure():
    # The family equation is sampled exactly, so the ensemble mean meets the
    # master solution within its own standard error: no discretization budget.
    start = time.perf_counter()
    grid = np.linspace(0.0, 5.0, 41)
    worst_z = 0.0
    for k, params in enumerate(_C2_SETS):
        meson = MesonParams(m_L=params["m_L"], m_H=params["m_L"] + params["dm"], gamma_L=0.0, gamma_H=0.0)
        collapse = CollapseParams(
            model=Model.CSL, rate=params["rate"], beta=params["beta"], m0=params["m0"],
            alpha=1.0, d=params["d"], r_C=params["r_C"], ratio_convention=params["conv"],
        )
        spec = family_spec(meson, collapse)
        (stats,) = ensemble_evolve(
            spec, NoiseConfig(seed=5000 + k, dt=grid[1]), [STATES["M0"]], grid, 10**4
        )
        rhos = integrate_master(family_master_spec(meson, collapse), _RHO_M0, grid)
        for name, vec in STATES.items():
            label = f"P_{name}"
            mean, stderr = stats.column(label)
            expected = np.einsum("i,tij,j->t", np.conj(vec), rhos, vec).real
            gap = np.abs(mean - expected)
            tol = 4.0 * stderr + 1e-12
            assert np.all(gap < tol), f"set {k} {label}: max gap {gap.max():.3e} vs tol {tol.min():.3e}"
            worst_z = max(worst_z, float((gap / tol).max()))
    _report(f"2 Monte Carlo closure (worst gap/tolerance {worst_z:.2f})", start, 10.0)


def test_c3_position_kernel_quadrature_oracle():
    start = time.perf_counter()
    meson = MesonParams(m_L=1.2, m_H=2.1, gamma_L=0.0, gamma_H=0.0)
    points = [(0, 0, 0.7), (1, 1, 1.3), (0, 1, 0.5), (1, 0, 2.0), (0, 1, 3.1)]
    worst = 0.0
    for model in (Model.QMUPL, Model.CSL):
        collapse = CollapseParams(
            model=model, rate=0.15 if model is Model.QMUPL else 0.3,
            beta=0.85, m0=1.1, alpha=0.8, d=1,
            r_C=0.6 if model is Model.CSL else None,
        )
        lim = 10.0 * np.sqrt(collapse.alpha)
        for i, j, t in points:
            def integrand_re(x):
                dens = np.exp(-(x**2) / collapse.alpha) / np.sqrt(np.pi * collapse.alpha)
                return (dens * kernel_solution(meson, collapse, i, j, x, x, t)).real

            def integrand_im(x):
                dens = np.exp(-(x**2) / collapse.alpha) / np.sqrt(np.pi * collapse.alpha)
                return (dens * kernel_solution(meson, collapse, i, j, x, x, t)).imag

            re, _ = quad(integrand_re, -lim, lim, epsabs=1e-10, epsrel=1e-10, limit=200)
            im, _ = quad(integrand_im, -lim, lim, epsabs=1e-10, epsrel=1e-10, limit=200)
            closed = gaussian_partial_trace(meson, collapse, i, j, t)
            gap = abs(complex(re, im) - closed)
            worst = max(worst, gap)
            assert gap < 1e-8
    _report(f"3 position-kernel quadrature oracle (max gap {worst:.2e})", start, 5.0)


def test_c4_formalism_equivalence():
    # One step of the family equation from c = 1 in each formalism:
    # Euler-Maruyama on the Ito form, Heun on the Stratonovich form.
    # f_i conj(f_j) has degree <= 4 in the increment, so the 3-point
    # Gauss-Hermite rule averages it exactly to mu_ij(h).  Both forms are the family master equation, whose
    # superoperator is diagonal with E[c_i conj(c_j)](h) = exp(h s_ij); a
    # scheme consistent with it at weak order one has |mu - e^{hs}| / h
    # halving with h.  Euler-Maruyama without the Ito conversion term keeps
    # that error near 0.39 at both steps.
    start = time.perf_counter()
    meson = MesonParams(m_L=1.0, m_H=2.0, gamma_L=0.0, gamma_H=0.0)
    nodes, weights = np.array([-1.0, 0.0, 1.0]), np.array([1 / 6, 2 / 3, 1 / 6])
    ratios = []
    for beta in (0.5, 0.75, 1.0):
        collapse = CollapseParams(
            model=Model.CSL, rate=0.3, beta=beta, m0=1.0, alpha=1.0, d=2, r_C=0.5
        )
        s = np.diagonal(build_superoperator(family_master_spec(meson, collapse))).reshape(2, 2)
        spec = family_spec(meson, collapse)
        for advance in (step, stratonovich_step):
            errors = []
            for h in (1e-2, 5e-3):
                f = advance(spec, np.ones((3, 2), dtype=complex), np.sqrt(3.0 * h) * nodes[:, None], h)
                mu = np.einsum("k,ki,kj->ij", weights, f, f.conj())
                errors.append(np.abs(mu - np.exp(h * s)).max() / h)
            ratio = errors[0] / errors[1]
            assert ratio == pytest.approx(2.0, abs=0.25), f"beta={beta} {advance.__name__}: {errors}"
            ratios.append(ratio)
    _report(f"4 Ito/Stratonovich equivalence (error ratios {min(ratios):.3f} to {max(ratios):.3f})", start, 10.0)


def test_c5_enlarged_space_consistency():
    start = time.perf_counter()
    meson = MesonParams(m_L=1.0, m_H=2.0, gamma_L=0.25, gamma_H=0.10)
    collapse = CollapseParams(
        model=Model.CSL, rate=0.3, beta=0.8, m0=1.0, alpha=1.0, d=2, r_C=0.5
    )
    grid = np.linspace(0.0, 10.0 / meson.gamma_bar, 41)
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[:2, :2] = _RHO_M0
    min_eig, worst = np.inf, 0.0
    # Both route equations: the measured widths of QM and the induced K of the family.
    for flavor in (wigner_weisskopf_spec(meson), family_master_spec(meson, collapse)):
        # The superoperators, assembled entry by entry, are the master equations' right-hand sides bit for bit.
        for spec in (flavor, enlarged_master_spec(flavor)):
            basis = np.eye(spec.dim**2).reshape(-1, spec.dim, spec.dim)
            rhs = np.array([master_rhs(spec, e).reshape(-1) for e in basis]).T
            assert build_superoperator(spec).tobytes() == rhs.tobytes()
        enlarged = integrate_master(enlarged_master_spec(flavor), rho0, grid)
        eigs = np.linalg.eigvalsh(enlarged)
        traces = np.einsum("tii->t", enlarged).real
        assert eigs.min() >= -1e-9
        assert np.abs(traces - 1.0).max() <= 1e-9
        # The 16x16 enlarged and 4x4 direct superoperators are exponentiated
        # separately, so their agreement checks the physics, not one computation twice.
        direct = integrate_master(flavor, _RHO_M0, grid)
        gap = np.abs(project_enlarged_to_flavor(enlarged) - direct).max()
        assert gap < 1e-9
        min_eig, worst = min(min_eig, eigs.min()), max(worst, gap)
    _report(
        f"5 enlarged-space CP + projection (min eig {min_eig:.1e}, sup gap {worst:.1e})",
        start, 5.0,
    )


def test_c6_inverse_round_trips():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    for convention in (Convention.NORMAL, Convention.INVERTED):
        for _ in range(100):
            m_l = rng.uniform(0.5, 20.0)
            delta_m = rng.uniform(0.05, 5.0)
            meson = MesonParams(m_L=m_l, m_H=m_l + delta_m, gamma_L=0.0, gamma_H=0.0)
            rate = rng.uniform(1e-3, 10.0)
            beta = rng.uniform(0.55, 1.0)
            collapse = CollapseParams(
                model=Model.QMUPL, rate=rate, beta=beta, m0=rng.uniform(0.2, 10.0),
                alpha=1.0, d=int(rng.integers(1, 4)), ratio_convention=convention,
            )
            g_l, g_h = np.diagonal(induced_decay_operator(meson, collapse))
            roots = solve_absolute_masses(g_l - g_h, 0.5 * (g_l + g_h), delta_m, convention)
            assert any(abs(r - m_l) <= 1e-9 * m_l for r in roots)

            planted = CollapseParams(
                model=Model.QMUPL, rate=rate, beta=1.0, m0=collapse.m0,
                alpha=1.0, d=collapse.d, ratio_convention=convention,
            )
            g_l1, g_h1 = np.diagonal(induced_decay_operator(meson, planted))
            dressed = MesonParams(m_L=m_l, m_H=m_l + delta_m, gamma_L=g_l1, gamma_H=g_h1)
            bound = collapse_rate_lower_bound(dressed, planted.m0, convention)
            assert bound == pytest.approx(planted.effective_rate, rel=1e-9)
    _report("6 inverse round-trips (200 plants per estimator)", start, 1.0)


def test_c7_degeneration_suite():
    start = time.perf_counter()
    meson = MesonParams(m_L=1.0, m_H=2.0, gamma_L=0.0, gamma_H=0.0)

    symmetric = CollapseParams(
        model=Model.CSL, rate=0.3, beta=0.5, m0=1.0, alpha=1.0, d=2, r_C=0.5
    )
    assert np.array_equal(np.diagonal(induced_decay_operator(meson, symmetric)), [0.0, 0.0])
    grid = np.linspace(0.0, 10.0, 41)
    rhos = integrate_master(family_master_spec(meson, symmetric), _RHO_M0, grid)
    trace_drift = np.abs(np.einsum("tii->t", rhos).real - 1.0).max()
    assert trace_drift < 1e-10

    quiet_csl = CollapseParams(model=Model.CSL, rate=0.0, beta=0.8, m0=1.0, alpha=1.0, d=2, r_C=0.5)
    quiet_qmupl = CollapseParams(model=Model.QMUPL, rate=0.0, beta=0.8, m0=1.0, alpha=1.0, d=2)
    cos_sq = np.cos(0.5 * grid * meson.delta_m) ** 2
    np.testing.assert_allclose(prob_flavor(meson, quiet_csl, FlavorTarget.M0, grid), cos_sq, atol=1e-12)
    np.testing.assert_allclose(prob_flavor(meson, quiet_qmupl, FlavorTarget.M0, grid), cos_sq, atol=1e-12)
    np.testing.assert_allclose(
        probs_from_kernels(meson, quiet_csl, STATES["M0"], STATES["M0"], grid),
        cos_sq, atol=1e-12,
    )
    np.testing.assert_allclose(
        prob_flavor(meson, None, FlavorTarget.M0, grid), cos_sq, atol=1e-12
    )

    asym = CollapseParams(model=Model.CSL, rate=0.3, beta=0.85, m0=1.0, alpha=1.0, d=2, r_C=0.5)
    g_l, g_h = np.diagonal(induced_decay_operator(meson, asym))
    dressed = MesonParams(m_L=1.0, m_H=2.0, gamma_L=g_l, gamma_H=g_h)
    for i in (0, 1):
        np.testing.assert_allclose(
            prob_lifetime(meson, asym, i, i, grid),
            prob_lifetime(dressed, None, i, i, grid),
            atol=1e-12,
        )
    _report(f"7 degeneration suite (trace drift {trace_drift:.1e})", start, 30.0)


def test_c8_bound_curve_structure(tmp_path):
    start = time.perf_counter()
    slopes = {}
    rows_by_curve = {}
    for convention in ("normal", "inverted"):
        config = tmp_path / f"bounds_{convention}.json"
        config.write_text(json.dumps({
            "command": "bounds",
            "mesons": ["K0", "D0", "B0", "Bs0"],
            "ratio_convention": convention,
            "m0_min_MeV": 100.0,
            "m0_max_MeV": 200000.0,
            "n_points": 60,
        }))
        out = tmp_path / f"bounds_{convention}.csv"
        assert cli.main([str(config), "--output", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        rows = [l.split(",") for l in lines[1:]]
        for row in rows:
            rows_by_curve.setdefault(row[0], []).append(row)
        for meson in ("K0", "D0", "B0", "Bs0"):
            curve = rows_by_curve[f"{meson}_{convention}"]
            m0 = np.array([float(r[1]) for r in curve])
            lam = np.array([float(r[2]) for r in curve])
            slope = np.polyfit(np.log(m0), np.log(lam), 1)[0]
            slopes[(meson, convention)] = slope
            expected = 2.0 if convention == "normal" else -2.0
            assert slope == pytest.approx(expected, abs=1e-6)
    # reference rates present as constant rows
    assert float(rows_by_curve["ref_GRW"][0][2]) == 1e-16
    assert float(rows_by_curve["ref_Adler"][0][2]) == 1e-8
    assert float(rows_by_curve["ref_Adler_band_low"][0][2]) == 1e-10
    assert float(rows_by_curve["ref_Adler_band_high"][0][2]) == 1e-6
    _report("8 bound-curve structure (log-log slopes +2 normal / -2 inverted)", start, 30.0)


def test_c9_byte_determinism_across_threads(tmp_path):
    # Three batches (2048 + 2048 + 4) of the exact family kernel and of the
    # stepped nonlinear one, so every thread count above 1 has batches to
    # split, and two partials would fold alike in either order.
    start = time.perf_counter()
    n_traj = 4100
    assert len(sde._batch_bounds(n_traj)) >= 3
    for equation in ("family", "nonlinear"):
        config = tmp_path / f"{equation}.json"
        config.write_text(json.dumps({
            "command": "ensemble",
            "m_L": 1.0, "m_H": 2.0, "gamma_L": 0.0, "gamma_H": 0.0,
            "model": "CSL", "rate": 0.3, "r_C": 0.5, "beta": 0.8,
            "m0": 1.0, "alpha": 1.0, "d": 2, "equation": equation,
            "t_max": 2.0, "n_points": 5, "n_trajectories": n_traj,
            "seed": 2024, "dt": 0.005,
        }))
        outputs = []
        for run, threads in enumerate((1, 4, 16, 1)):
            out = tmp_path / f"{equation}{run}.csv"
            assert cli.main([str(config), "--output", str(out), "--threads", str(threads)]) == 0
            outputs.append(out.read_bytes())
        assert all(blob == outputs[0] for blob in outputs[1:]), equation
    _report("9 byte determinism across runs and thread counts", start, 60.0)


def test_c10_time_asymmetric_noise_sets_the_decay():
    # The noise correlation spike of asymmetry kappa puts theta(0) of its
    # mass below t = 0.  That theta(0) is the beta of the collapse-induced
    # widths lambda (2 beta - 1) m~_i^2: negative (unphysical) for
    # kappa < 1, so that no family master equation takes them, zero for the
    # symmetric spike, positive above.
    start = time.perf_counter()
    meson = MesonParams(m_L=0.5, m_H=1.5, gamma_L=0.0, gamma_H=0.0)
    for kappa in (0.5, 1.0, 2.0):
        beta = sde.theta_from_kappa(kappa)
        mass, _ = quad(lambda t: sde.asymmetric_delta(t, kappa, 1e-2), -np.inf, 0.0)
        assert mass == pytest.approx(beta, abs=1e-12)
        collapse = CollapseParams(model=Model.CSL, rate=0.3, beta=beta, m0=1.0, alpha=1.0, d=2, r_C=0.5)
        if kappa < 1.0:
            with pytest.raises(InvalidParams, match="positive semidefinite"):
                family_master_spec(meson, collapse)
            continue
        want = collapse.effective_rate * (2.0 * beta - 1.0) * mass_ratios(meson, collapse) ** 2
        got = np.diagonal(family_master_spec(meson, collapse).anticommutator).real
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    _report("10 time-asymmetric noise sets theta(0) and the induced widths", start, 5.0)


def test_c11_phase_family_shares_one_master_equation():
    # e^{i phi} L leaves L rho L^dag and L^dag L unchanged, so every member
    # of the phase family of the nonlinear equations, flavor and enlarged,
    # has the superoperator of phi = 0.
    start = time.perf_counter()
    meson = MesonParams(m_L=1.0, m_H=2.0, gamma_L=0.25, gamma_H=0.10)
    collapse = CollapseParams(model=Model.CSL, rate=0.3, beta=0.8, m0=1.0, alpha=1.0, d=2, r_C=0.5)
    worst = 0.0
    flavor = family_master_spec(meson, collapse)
    for master in (flavor, enlarged_master_spec(flavor)):
        spec = sde.SdeSpec(sde.SdeEquation.NONLINEAR, master)
        base = build_superoperator(spec.master)
        for phi in (0.0, 0.3, np.pi / 2, np.pi):
            member = build_superoperator(sde.phase_transform_spec(spec, phi).master)
            gap = np.abs(member - base).max() / np.abs(base).max()
            assert gap <= 1e-12, (spec.dim, phi)
            worst = max(worst, gap)
    _report(f"11 phase family shares one master equation (max gap {worst:.1e})", start, 5.0)
