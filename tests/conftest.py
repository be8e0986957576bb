import numpy as np
import pytest

from flavorcollapse.core import CollapseParams, Convention, MesonParams, Model, mass_ratios


@pytest.fixture
def meson():
    return MesonParams(m_L=1.0, m_H=2.0, gamma_L=0.1, gamma_H=0.05)


@pytest.fixture
def meson_stable():
    return MesonParams(m_L=1.0, m_H=2.0, gamma_L=0.0, gamma_H=0.0)


@pytest.fixture
def csl():
    return CollapseParams(model=Model.CSL, rate=0.2, beta=0.8, m0=1.0, alpha=1.0, d=2, r_C=0.4)


@pytest.fixture
def qmupl():
    return CollapseParams(model=Model.QMUPL, rate=0.1, beta=1.0, m0=1.0, alpha=1.0, d=2)


def make_csl(**overrides) -> CollapseParams:
    params = dict(model=Model.CSL, rate=0.2, beta=0.8, m0=1.0, alpha=1.0, d=2, r_C=0.4)
    params.update(overrides)
    return CollapseParams(**params)


def make_qmupl(**overrides) -> CollapseParams:
    params = dict(model=Model.QMUPL, rate=0.1, beta=1.0, m0=1.0, alpha=1.0, d=2)
    params.update(overrides)
    return CollapseParams(**params)


def random_meson(rng: np.random.Generator, max_width: float = 1.0) -> MesonParams:
    m_l = rng.uniform(0.2, 3.0)
    return MesonParams(
        m_L=m_l,
        m_H=m_l + rng.uniform(0.1, 2.0),
        gamma_L=rng.uniform(0.0, max_width),
        gamma_H=rng.uniform(0.0, max_width),
    )


def random_collapse(rng: np.random.Generator, model: Model, beta_min: float = 0.5) -> CollapseParams:
    convention = Convention.NORMAL if rng.random() < 0.5 else Convention.INVERTED
    common = dict(
        beta=rng.uniform(beta_min, 1.0),
        m0=rng.uniform(0.5, 3.0),
        alpha=rng.uniform(0.5, 2.0),
        d=int(rng.integers(1, 4)),
        ratio_convention=convention,
    )
    if model is Model.CSL:
        return CollapseParams(model=model, rate=rng.uniform(0.0, 0.5), r_C=rng.uniform(0.2, 1.0), **common)
    return CollapseParams(model=model, rate=rng.uniform(0.0, 0.5), **common)



def csl_stderr_p_m0_m0(meson, collapse, times, p_l_l, p_h_h, n_trajectories) -> np.ndarray:
    """Closed-form standard error of an exact CSL ensemble's P_M0_M0 mean over N trajectories.

    One trajectory's P_M0_M0 is (P_L_L + P_H_H) / 4 + (r / 2) cos(delta_m t + theta)
    with r = sqrt(P_L_L P_H_H) and theta = kappa W_t normal of variance
    s = lambda_eff (delta m~)^2 t, so that, with phi = delta_m t,
    Var cos(phi + theta) = cos^2 phi (1 - e^-s)^2 / 2 + sin^2 phi (1 - e^-2s) / 2.
    """
    ratios = mass_ratios(meson, collapse)
    with np.errstate(over="ignore", under="ignore"):
        s = collapse.effective_rate * (ratios[1] - ratios[0]) ** 2 * times
        phi = meson.delta_m * times
        var = 0.5 * np.cos(phi) ** 2 * np.expm1(-s) ** 2 - 0.5 * np.sin(phi) ** 2 * np.expm1(-2.0 * s)
        return 0.5 * np.sqrt(p_l_l) * np.sqrt(p_h_h) * np.sqrt(var / n_trajectories)
