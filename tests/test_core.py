import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flavorcollapse.core import (
    Basis,
    CollapseParams,
    Convention,
    EnsembleStats,
    MesonParams,
    Model,
    QuantumState,
    flavor_mass_basis_change,
    mass_ratio,
    to_mass,
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
    u = flavor_mass_basis_change()
    np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-15)
    np.testing.assert_allclose(u, u.T, atol=0.0)
    np.testing.assert_allclose(u @ u, np.eye(2), atol=1e-15)


def test_m0_in_mass_coordinates():
    mass = to_mass(QuantumState.m0())
    np.testing.assert_allclose(mass.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)


_amp = st.floats(-1.0, 1.0)


@settings(deadline=None)
@given(parts=st.tuples(_amp, _amp, _amp, _amp))
def test_basis_round_trip(parts):
    amps = np.array([parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]])
    state = QuantumState(amps, Basis.FLAVOR)
    # U is an involution: the mass-basis map applied to mass coordinates
    # gives the flavor coordinates back.
    back = to_mass(QuantumState(to_mass(state).amplitudes, Basis.FLAVOR))
    np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-14)


def test_state_length_must_match_basis():
    with pytest.raises(InvalidParams):
        QuantumState(np.array([1.0, 0.0, 0.0]), Basis.FLAVOR)
    QuantumState(np.array([1.0, 0.0, 0.0, 0.0]), Basis.ENLARGED)


def test_state_norm_unconstrained():
    state = QuantumState(np.array([0.1, 0.2j]), Basis.FLAVOR)
    assert state.norm < 1.0


def test_ensemble_stats_invariants():
    with pytest.raises(InvalidParams, match="nonnegative"):
        EnsembleStats(means=np.zeros((2, 1)), stderrs=-np.ones((2, 1)), labels=("x",))
