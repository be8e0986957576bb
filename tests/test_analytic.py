import numpy as np
import pytest
from scipy.integrate import quad

from flavorcollapse.analytic import (
    AsymmetrySpec,
    DynamicsModel,
    asymmetry_closed_form,
    bound_curve,
    collapse_rate_lower_bound,
    prob_flavor,
    prob_lifetime,
    solve_absolute_masses,
)
from flavorcollapse.core import Convention, FlavorTarget, MesonParams, Model
from flavorcollapse.errors import (
    DegenerateWidths,
    InvalidParams,
    NegativeTime,
    NoRealRoot,
    SingularTime,
)
from flavorcollapse.operators import induced_decay_operator

from conftest import closed_form, make_csl, make_qmupl, random_collapse, random_meson


# ----------------------------------------------------------------------
# lifetime and flavor probabilities

def test_lifetime_qm(meson):
    qm = closed_form(meson)
    assert prob_lifetime(qm, 0, 0, 0.0) == 1.0
    assert prob_lifetime(qm, 0, 1, 3.7) == 0.0
    t_half = np.log(2) / meson.gamma_L
    assert prob_lifetime(qm, 0, 0, t_half) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(NegativeTime):
        prob_lifetime(qm, 0, 0, -1.0)


@pytest.mark.parametrize("t", [np.nan, np.inf, [0.0, 1.0, np.nan], [0.0, np.inf]])
@pytest.mark.parametrize("collapse", [None, make_csl(), make_qmupl()], ids=["QM", "CSL", "QMUPL"])
def test_closed_forms_reject_non_finite_times(meson, collapse, t):
    spec = closed_form(meson, collapse)
    with pytest.raises(InvalidParams, match="finite"):
        prob_flavor(spec, FlavorTarget.M0, t)
    with pytest.raises(InvalidParams, match="finite"):
        prob_lifetime(spec, 0, 0, t)
    with pytest.raises(InvalidParams, match="finite"):
        asymmetry_closed_form(spec, t)


def test_flavor_qm_limits(meson, meson_stable):
    assert prob_flavor(closed_form(meson), FlavorTarget.M0, 0.0) == pytest.approx(1.0)
    assert prob_flavor(closed_form(meson), FlavorTarget.M0BAR, 0.0) == pytest.approx(0.0)
    t_pi = np.pi / meson_stable.delta_m
    assert prob_flavor(closed_form(meson_stable), FlavorTarget.M0, t_pi) == pytest.approx(0.0, abs=1e-15)
    assert prob_flavor(closed_form(meson_stable), FlavorTarget.M0BAR, t_pi) == pytest.approx(1.0)


@pytest.mark.parametrize("model", ["QM", "CSL", "QMUPL"])
def test_flavor_target_sum_cancels_interference(meson, meson_stable, model):
    # P(M0) + P(M0bar) keeps the two lifetime terms; the interference cancels.
    if model == "QM":
        spec, t = closed_form(meson), np.linspace(0.0, 20.0, 64)
        lifetimes = [np.exp(-meson.gamma_L * t), np.exp(-meson.gamma_H * t)]
    else:
        collapse = make_csl() if model == "CSL" else make_qmupl()
        spec, t = closed_form(meson_stable, collapse), np.linspace(0.0, 10.0, 50)
        assert prob_flavor(spec, FlavorTarget.M0, 0.0) == pytest.approx(1.0)
        assert prob_flavor(spec, FlavorTarget.M0BAR, 0.0) == pytest.approx(0.0, abs=1e-15)
        # Mass ratios 1 and 2 give induced widths lambda (2 beta - 1) {1, 4}.
        lam = collapse.effective_rate
        x = [lam * (2 * collapse.beta - 1) * r_sq * t for r_sq in (1.0, 4.0)]
        lifetimes = [np.exp(-xi) if model == "CSL" else (1.0 + xi) ** (-0.5 * collapse.d) for xi in x]
    total = prob_flavor(spec, FlavorTarget.M0, t) + prob_flavor(spec, FlavorTarget.M0BAR, t)
    np.testing.assert_allclose(total, 0.5 * (lifetimes[0] + lifetimes[1]), atol=1e-14)


def test_lifetime_qmupl():
    meson = MesonParams(m_L=3.0, m_H=4.0, gamma_L=0.0, gamma_H=0.0)
    symmetric = closed_form(meson, make_qmupl(beta=0.5))
    assert prob_lifetime(symmetric, 0, 0, 17.3) == 1.0
    assert prob_lifetime(symmetric, 0, 0, 0.0) == 1.0
    assert prob_lifetime(symmetric, 1, 0, 0.0) == 0.0
    spec_point = closed_form(meson, make_qmupl(rate=0.1, alpha=1.0, beta=1.0, m0=1.0, d=2))
    assert prob_lifetime(spec_point, 0, 0, 1.0) == pytest.approx(1 / 1.9, rel=1e-14)


def test_lifetime_qmupl_singular_time():
    meson = MesonParams(m_L=3.0, m_H=4.0, gamma_L=0.0, gamma_H=0.0)
    spec = closed_form(meson, make_qmupl(rate=0.1, alpha=1.0, beta=0.0, m0=1.0))
    # base vanishes at t* = 1/(0.1 * 9)
    with pytest.raises(SingularTime, match=r"lifetime factor singular at t\* = 1.11111;"):
        prob_lifetime(spec, 0, 0, 2.0)
    assert prob_lifetime(spec, 0, 0, 0.5) > 1.0
    # H's lifetime factor (t* = 1/(0.1 * 16)) vanishes before the
    # interference factor (t* = 1/(0.05 * (25 - 1))).
    with pytest.raises(SingularTime, match=r"t\* = 0.625;"):
        prob_flavor(spec, FlavorTarget.M0, 0.7)


def test_flavor_qmupl_degenerate_ratios_is_pure_oscillation():
    meson = MesonParams(m_L=1.0, m_H=1.0 + 1e-9, gamma_L=0.0, gamma_H=0.0)
    collapse = make_qmupl(beta=0.5, rate=0.3, m0=1.0)
    t = np.linspace(0.0, 3e8, 7)
    got = prob_flavor(closed_form(meson, collapse), FlavorTarget.M0, t)
    np.testing.assert_allclose(got, np.cos(0.5 * t * meson.delta_m) ** 2, atol=1e-9)


def test_lifetime_csl(meson):
    assert prob_lifetime(closed_form(meson, make_csl(beta=0.5)), 1, 1, 9.9) == 1.0
    strong = make_csl(beta=1.0)
    lam = strong.effective_rate
    t_half = np.log(2) / (lam * 1.0**2)
    assert prob_lifetime(closed_form(meson, strong), 0, 0, t_half) == pytest.approx(0.5, rel=1e-12)


def test_flavor_csl_symmetric_noise_damps_interference_only(meson_stable):
    collapse = make_csl(beta=0.5)
    lam = collapse.effective_rate
    t = np.linspace(0.0, 8.0, 33)
    got = prob_flavor(closed_form(meson_stable, collapse), FlavorTarget.M0, t)
    damp = np.exp(-0.5 * lam * (2.0 - 1.0) ** 2 * t)
    expected = 0.25 * (2.0 + 2.0 * damp * np.cos(t * meson_stable.delta_m))
    np.testing.assert_allclose(got, expected, atol=1e-14)


# ----------------------------------------------------------------------
# Appendix-style quadrature oracle for the QMUPL flavor probability

def _oracle_partial_trace(meson, collapse, i, j, t):
    """Independent quadrature of the position kernel against the packet.

    Retraces the kernel construction from scratch: per-axis Gaussian
    density times exp(rate(x,x) t), integrated by adaptive quadrature and
    raised to the d-th power (the integrand factorizes per axis).
    """
    alpha, lam_q, beta, d = collapse.alpha, collapse.rate, collapse.beta, collapse.d
    r = [meson.m_L / collapse.m0, meson.m_H / collapse.m0]
    if collapse.ratio_convention is Convention.INVERTED:
        r = [collapse.m0 / meson.m_L, collapse.m0 / meson.m_H]
    coeff = (r[i] - r[j]) ** 2 - (1 - 2 * beta) * (r[i] ** 2 + r[j] ** 2)
    lim = 10.0 * np.sqrt(alpha)

    def integrand(x):
        density = np.exp(-(x**2) / alpha) / np.sqrt(np.pi * alpha)
        return density * np.exp(-0.5 * lam_q * coeff * x**2 * t)

    one_axis, _ = quad(integrand, -lim, lim, epsabs=1e-12, epsrel=1e-12)
    phase = np.exp(-1j * (meson.masses[i] - meson.masses[j]) * t)
    return phase * one_axis**d


def test_flavor_qmupl_matches_quadrature_oracle():
    meson = MesonParams(m_L=3.0, m_H=4.0, gamma_L=0.0, gamma_H=0.0)
    collapse = make_qmupl(rate=0.1, alpha=1.0, beta=1.0, m0=1.0, d=2)
    t = 1.0
    f = {(i, j): _oracle_partial_trace(meson, collapse, i, j, t) for i in (0, 1) for j in (0, 1)}
    expected_plus = 0.25 * (f[0, 0] + f[1, 1] + 2 * np.real(f[0, 1]))
    expected_minus = 0.25 * (f[0, 0] + f[1, 1] - 2 * np.real(f[0, 1]))
    assert prob_flavor(closed_form(meson, collapse), FlavorTarget.M0, t) == pytest.approx(
        expected_plus.real, abs=1e-10
    )
    assert prob_flavor(closed_form(meson, collapse), FlavorTarget.M0BAR, t) == pytest.approx(
        expected_minus.real, abs=1e-10
    )


# ----------------------------------------------------------------------
# probability bounds and degenerations

def test_probability_bounds_randomized():
    rng = np.random.default_rng(2024)
    times = np.array([0.0, 0.3, 1.1, 4.0])
    for _ in range(2500):
        meson = random_meson(rng)
        model = Model.CSL if rng.random() < 0.5 else Model.QMUPL
        collapse = random_collapse(rng, model, beta_min=0.5)
        target = FlavorTarget.M0 if rng.random() < 0.5 else FlavorTarget.M0BAR
        spec = closed_form(meson, collapse)
        values = [
            prob_flavor(spec, target, times),
            prob_lifetime(spec, 0, 0, times),
            prob_lifetime(spec, 1, 1, times),
            prob_flavor(closed_form(meson), target, times),
        ]
        stacked = np.concatenate(values)
        assert stacked.min() >= 0.0
        assert stacked.max() <= 1.0 + 1e-12


def test_model_degeneration_csl_to_qm():
    # Vanishing mass-ratio gap: push m0 so both ratios nearly coincide.
    meson = MesonParams(m_L=1.0, m_H=2.0, gamma_L=0.0, gamma_H=0.0)
    collapse = make_csl(beta=0.5, m0=1e8, rate=0.2)
    t = np.linspace(0.0, 12.0, 101)
    for target in FlavorTarget:
        np.testing.assert_allclose(
            prob_flavor(closed_form(meson, collapse), target, t),
            prob_flavor(closed_form(meson), target, t),
            atol=1e-12,
        )


def test_model_degeneration_qmupl_rate_zero(meson_stable):
    collapse = make_qmupl(rate=0.0)
    t = np.linspace(0.0, 12.0, 101)
    for target in FlavorTarget:
        np.testing.assert_allclose(
            prob_flavor(closed_form(meson_stable, collapse), target, t),
            prob_flavor(closed_form(meson_stable), target, t),
            atol=1e-14,
        )


def test_substitution_identity_randomized():
    # CSL lifetime probabilities equal QM ones once the widths are the
    # collapse-induced ones.
    rng = np.random.default_rng(11)
    t = np.linspace(0.0, 6.0, 37)
    for _ in range(60):
        bare = random_meson(rng, max_width=0.0)
        collapse = random_collapse(rng, Model.CSL, beta_min=0.6)
        g_l, g_h = np.diagonal(induced_decay_operator(bare, collapse))
        dressed = MesonParams(m_L=bare.m_L, m_H=bare.m_H, gamma_L=g_l, gamma_H=g_h)
        for i in (0, 1):
            np.testing.assert_allclose(
                prob_lifetime(closed_form(bare, collapse), i, i, t),
                prob_lifetime(closed_form(dressed), i, i, t),
                atol=1e-12,
            )


# ----------------------------------------------------------------------
# asymmetry

def test_asymmetry_at_zero_is_one(meson, csl):
    qm = AsymmetrySpec(DynamicsModel.QM, meson)
    csl_spec = AsymmetrySpec(DynamicsModel.CSL, meson, csl)
    qmupl_spec = AsymmetrySpec(DynamicsModel.QMUPL, meson, make_qmupl())
    for spec in (qm, csl_spec, qmupl_spec):
        assert asymmetry_closed_form(spec, 0.0) == pytest.approx(1.0)


def test_asymmetry_qm_zero_at_quarter_period(meson):
    spec = AsymmetrySpec(DynamicsModel.QM, meson)
    t = 0.5 * np.pi / meson.delta_m
    assert asymmetry_closed_form(spec, t) == pytest.approx(0.0, abs=1e-15)


def test_asymmetry_spec_requires_matching_collapse(meson, csl):
    with pytest.raises(InvalidParams):
        AsymmetrySpec(DynamicsModel.QM, meson, csl)
    with pytest.raises(InvalidParams):
        AsymmetrySpec(DynamicsModel.QMUPL, meson, csl)


def test_asymmetry_closed_forms_match_ratio(meson):
    t = np.linspace(0.0, 10.0, 100)

    def ratio(spec):
        p_same = prob_flavor(spec, FlavorTarget.M0, t)
        p_flip = prob_flavor(spec, FlavorTarget.M0BAR, t)
        return (p_same - p_flip) / (p_same + p_flip)

    qm = AsymmetrySpec(DynamicsModel.QM, meson)
    np.testing.assert_allclose(ratio(qm), asymmetry_closed_form(qm, t), atol=1e-12)
    for convention in Convention:
        csl_spec = AsymmetrySpec(DynamicsModel.CSL, meson, make_csl(beta=0.85, ratio_convention=convention))
        np.testing.assert_allclose(ratio(csl_spec), asymmetry_closed_form(csl_spec, t), atol=1e-12)
        qmupl_spec = AsymmetrySpec(DynamicsModel.QMUPL, meson, make_qmupl(beta=0.85, ratio_convention=convention))
        np.testing.assert_allclose(ratio(qmupl_spec), asymmetry_closed_form(qmupl_spec, t), atol=1e-10)


def test_asymmetry_bounded(meson):
    rng = np.random.default_rng(5)
    t = np.linspace(0.0, 8.0, 64)
    for _ in range(40):
        spec = AsymmetrySpec(DynamicsModel.CSL, meson, random_collapse(rng, Model.CSL))
        assert np.max(np.abs(asymmetry_closed_form(spec, t))) <= 1.0 + 1e-12


# ----------------------------------------------------------------------
# inverse estimators

def test_solve_masses_linear_case():
    assert solve_absolute_masses(0.0, 1.0, 2.0, Convention.NORMAL) == (-1.0,)


def test_solve_masses_forward_roundtrip():
    meson = MesonParams(m_L=3.0, m_H=4.0, gamma_L=0.9, gamma_H=1.6)
    assert meson.delta_gamma == pytest.approx(-0.7)
    assert meson.gamma_bar == pytest.approx(1.25)
    roots = solve_absolute_masses(
        meson.delta_gamma, meson.gamma_bar, meson.delta_m, Convention.NORMAL
    )
    assert any(
        root > 0.0 and abs(root - 3.0) < 1e-12 and abs(root + meson.delta_m - 4.0) < 1e-12
        for root in roots
    )
    # The other root is negative, unphysical but still reported, first.
    assert roots[0] < 0.0 < roots[1]


def test_solve_masses_no_real_root():
    with pytest.raises(NoRealRoot):
        solve_absolute_masses(3.0, 0.5, 1.0, Convention.NORMAL)


def test_solve_masses_roundtrip_randomized():
    rng = np.random.default_rng(17)
    for convention in Convention:
        for _ in range(100):
            m_l = rng.uniform(0.5, 20.0)
            delta_m = rng.uniform(0.05, 5.0)
            bare = MesonParams(m_L=m_l, m_H=m_l + delta_m, gamma_L=0.0, gamma_H=0.0)
            collapse = random_collapse(rng, Model.CSL, beta_min=0.55)
            collapse = make_csl(
                rate=rng.uniform(0.01, 2.0),
                beta=rng.uniform(0.55, 1.0),
                m0=rng.uniform(0.2, 10.0),
                ratio_convention=convention,
            )
            g_l, g_h = np.diagonal(induced_decay_operator(bare, collapse))
            roots = solve_absolute_masses(g_l - g_h, 0.5 * (g_l + g_h), delta_m, convention)
            assert any(abs(root - m_l) <= 1e-9 * m_l for root in roots)


def test_lower_bound_consistency_with_planted_rate():
    # beta = 1 widths planted from a known effective rate are recovered.
    meson = MesonParams(m_L=3.0, m_H=4.0, gamma_L=0.9, gamma_H=1.6)
    assert collapse_rate_lower_bound(meson, 1.0, Convention.NORMAL) == pytest.approx(0.1, rel=1e-12)


def test_lower_bound_m0_scaling():
    meson = MesonParams(m_L=3.0, m_H=4.0, gamma_L=0.9, gamma_H=1.6)
    b1 = collapse_rate_lower_bound(meson, 1.0, Convention.NORMAL)
    b2 = collapse_rate_lower_bound(meson, 2.0, Convention.NORMAL)
    assert b2 / b1 == pytest.approx(4.0, rel=1e-12)
    i1 = collapse_rate_lower_bound(meson, 1.0, Convention.INVERTED)
    i2 = collapse_rate_lower_bound(meson, 2.0, Convention.INVERTED)
    assert i2 / i1 == pytest.approx(0.25, rel=1e-12)


def test_lower_bound_degenerate_widths():
    meson = MesonParams(m_L=3.0, m_H=4.0, gamma_L=0.9, gamma_H=0.9)
    with pytest.raises(DegenerateWidths):
        collapse_rate_lower_bound(meson, 1.0, Convention.NORMAL)
    zero = MesonParams(m_L=3.0, m_H=4.0, gamma_L=0.9, gamma_H=0.0)
    with pytest.raises(DegenerateWidths):
        collapse_rate_lower_bound(zero, 1.0, Convention.INVERTED)


def test_bound_curve_power_law():
    meson = MesonParams(m_L=3.0, m_H=4.0, gamma_L=0.9, gamma_H=1.6)
    m0s, bounds = bound_curve(meson, (0.1, 10.0), Convention.NORMAL, 50)
    slopes = np.diff(np.log(bounds)) / np.diff(np.log(m0s))
    np.testing.assert_allclose(slopes, 2.0, atol=1e-9)
    m0s_inv, bounds_inv = bound_curve(meson, (0.1, 10.0), Convention.INVERTED, 50)
    slopes_inv = np.diff(np.log(bounds_inv)) / np.diff(np.log(m0s_inv))
    np.testing.assert_allclose(slopes_inv, -2.0, atol=1e-9)


def test_bound_curve_endpoints_only():
    meson = MesonParams(m_L=3.0, m_H=4.0, gamma_L=0.9, gamma_H=1.6)
    m0s, bounds = bound_curve(meson, (0.5, 2.0), Convention.NORMAL, 2)
    assert len(m0s) == len(bounds) == 2
    assert m0s[0] == pytest.approx(0.5)
    assert m0s[-1] == pytest.approx(2.0)


def test_bound_grows_with_splitting_to_gap_ratio():
    # Inverted convention: a larger delta_m relative to the inverse-width
    # gap pushes the bound up pointwise.
    small = MesonParams(m_L=3.0, m_H=3.5, gamma_L=0.9, gamma_H=1.6)
    large = MesonParams(m_L=3.0, m_H=4.5, gamma_L=0.9, gamma_H=1.6)
    for m0 in (0.3, 1.0, 5.0):
        assert collapse_rate_lower_bound(large, m0, Convention.INVERTED) > collapse_rate_lower_bound(
            small, m0, Convention.INVERTED
        )
