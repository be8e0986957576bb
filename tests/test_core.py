import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flavorcollapse.core import (
    STATES,
    CollapseParams,
    Convention,
    EnsembleStats,
    MesonParams,
    Model,
    mass_ratio,
)
from flavorcollapse.errors import InvalidParams

from conftest import make_csl


def test_degenerate_masses_rejected():
    with pytest.raises(InvalidParams, match="delta_m must be positive"):
        MesonParams(m_L=1.0, m_H=1.0, gamma_L=0.1, gamma_H=0.05)


def test_beta_out_of_range_rejected():
    with pytest.raises(InvalidParams, match="beta out of"):
        make_csl(beta=1.5)


def test_negative_width_rejected():
    with pytest.raises(InvalidParams, match="gamma_H"):
        MesonParams(m_L=1.0, m_H=2.0, gamma_L=0.1, gamma_H=-0.05)


def test_csl_requires_coherence_length():
    with pytest.raises(InvalidParams, match="r_C"):
        CollapseParams(model=Model.CSL, rate=0.1, beta=0.6, m0=1.0, alpha=1.0, d=2, r_C=None)


def test_derived_accessors_exact(meson):
    assert meson.delta_m == meson.m_H - meson.m_L
    assert meson.delta_gamma == meson.gamma_L - meson.gamma_H
    assert meson.gamma_bar == 0.5 * (meson.gamma_L + meson.gamma_H)


def test_effective_rate_csl():
    c = make_csl(rate=0.5, r_C=0.3, d=2)
    assert c.effective_rate == pytest.approx(0.5 / (np.sqrt(4 * np.pi) * 0.3) ** 2)


def test_effective_rate_qmupl():
    c = CollapseParams(model=Model.QMUPL, rate=0.25, beta=0.7, m0=1.0, alpha=2.0, d=1)
    assert c.effective_rate == 0.5


def test_mass_ratio_conventions():
    meson = MesonParams(m_L=4.0, m_H=5.0, gamma_L=0.0, gamma_H=0.0)
    normal = make_csl(m0=1.0, ratio_convention=Convention.NORMAL)
    inverted = make_csl(m0=1.0, ratio_convention=Convention.INVERTED)
    assert mass_ratio(meson, normal, 0) == 4.0
    assert mass_ratio(meson, inverted, 0) == 0.25
    same = make_csl(m0=4.0, ratio_convention=Convention.NORMAL)
    assert mass_ratio(meson, same, 0) == 1.0


@given(m_l=st.floats(0.1, 50.0), gap=st.floats(0.01, 10.0), m0=st.floats(0.1, 20.0))
def test_mass_ratio_product_is_one(m_l, gap, m0):
    meson = MesonParams(m_L=m_l, m_H=m_l + gap, gamma_L=0.0, gamma_H=0.0)
    normal = make_csl(m0=m0, ratio_convention=Convention.NORMAL)
    inverted = make_csl(m0=m0, ratio_convention=Convention.INVERTED)
    for i in (0, 1):
        assert mass_ratio(meson, normal, i) * mass_ratio(meson, inverted, i) == pytest.approx(1.0, rel=1e-14)


def test_basis_change_is_unitary_involution():
    u = np.column_stack([STATES["M0"], STATES["M0bar"]])  # M0 and M0bar in mass coordinates
    np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-15)
    np.testing.assert_allclose(u, u.T, atol=0.0)
    np.testing.assert_allclose(u @ u, np.eye(2), atol=1e-15)


def test_m0_in_mass_coordinates():
    # The flavor convention: M0 = U e_0 and M0bar = U e_1 with U = [[1, 1], [1, -1]] / sqrt(2).
    u = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    np.testing.assert_array_equal(STATES["M0"], u @ [1.0, 0.0])
    np.testing.assert_array_equal(STATES["M0bar"], u @ [0.0, 1.0])
    np.testing.assert_array_equal(STATES["L"], [1.0, 0.0])
    np.testing.assert_array_equal(STATES["H"], [0.0, 1.0])


def test_state_table_is_read_only():
    with pytest.raises(TypeError):
        STATES["M0"] = np.zeros(2)
    for amps in STATES.values():
        with pytest.raises(ValueError, match="read-only"):
            amps[0] = 0.0


def test_ensemble_stats_invariants():
    with pytest.raises(InvalidParams, match="nonnegative"):
        EnsembleStats(means=np.zeros((2, 1)), stderrs=-np.ones((2, 1)), labels=("x",))
