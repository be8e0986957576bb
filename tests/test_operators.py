import json

import numpy as np
import pytest

from flavorcollapse.core import Convention, MesonParams, QuantumState, mass_ratios, to_mass
from flavorcollapse.errors import DimensionMismatch, InvalidParams
from flavorcollapse import cli
from flavorcollapse.lindblad import (
    MasterSpec,
    build_superoperator,
    enlarged_master_spec,
    family_master_spec,
    wigner_weisskopf_spec,
)
from flavorcollapse.operators import (
    centred_collapse_operator,
    decay_operator,
    induced_decay_operator,
    reduced_mass_operator,
)
from flavorcollapse.sde import SdeEquation, SdeSpec, family_spec

from conftest import make_csl, make_qmupl


def test_mass_operator_mass_basis(meson):
    # Gauged by -m_L: diag(0, delta_m) with m_L = 1, m_H = 2.
    np.testing.assert_array_equal(reduced_mass_operator(meson), np.diag([0.0, 1.0]))


def test_decay_operator(meson):
    np.testing.assert_array_equal(decay_operator(meson), np.diag([0.1, 0.05]))


def test_norm_decay_law_matches_widths(meson):
    # d||psi||^2/dt = -<psi|K|psi> for the decay operator K equals minus the
    # per-eigenstate width sum.
    k = decay_operator(meson)
    rng = np.random.default_rng(3)
    for _ in range(50):
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        got = -np.real(psi.conj() @ k @ psi)
        want = -sum(meson.widths[i] * abs(psi[i]) ** 2 for i in (0, 1))
        assert got == pytest.approx(want, abs=1e-12)


def test_collapse_operator_a_conventions():
    # A = diag(m~_L, m~_H) takes the mass ratios of the convention; the
    # centred operator keeps their difference.
    meson = MesonParams(m_L=2.0, m_H=4.0, gamma_L=0.1, gamma_H=0.05)
    normal = make_csl(m0=2.0, ratio_convention=Convention.NORMAL)
    np.testing.assert_allclose(mass_ratios(meson, normal), [1.0, 2.0])
    np.testing.assert_allclose(centred_collapse_operator(meson, normal), np.diag([0.0, 1.0]))
    inverted = make_csl(m0=1.0, ratio_convention=Convention.INVERTED)
    np.testing.assert_allclose(mass_ratios(meson, inverted), [0.5, 0.25])
    np.testing.assert_allclose(centred_collapse_operator(meson, inverted), np.diag([0.0, -0.25]))


def test_collapse_operator_a_commutes(meson, csl):
    a = centred_collapse_operator(meson, csl)
    for op in (reduced_mass_operator(meson), decay_operator(meson), induced_decay_operator(meson, csl)):
        np.testing.assert_array_equal(a @ op - op @ a, np.zeros((2, 2)))


def _decay_channel(flavor):
    # The last Lindblad operator of the enlarged equation, and its flavor-to-decay block.
    channel = enlarged_master_spec(flavor).lindblads[-1]
    return channel, channel[2:, :2]


def test_collapse_operator_b_defining_identity(meson, csl):
    # The decay channel carries the flavor equation's K: L^dag L = K on the
    # flavor block and nothing else, for the measured and the induced K.
    for flavor in (wigner_weisskopf_spec(meson), family_master_spec(meson, csl)):
        channel, _ = _decay_channel(flavor)
        want = np.zeros((4, 4), dtype=complex)
        want[:2, :2] = flavor.anticommutator
        np.testing.assert_allclose(channel.conj().T @ channel, want, rtol=1e-15, atol=0.0)


def test_collapse_operator_b_values():
    meson = MesonParams(m_L=3.0, m_H=4.0, gamma_L=9.0, gamma_H=16.0)
    _, block = _decay_channel(wigner_weisskopf_spec(meson))
    np.testing.assert_array_equal(block, np.diag([3.0, 4.0]))
    # The induced K = lambda_eff (2 beta - 1) A^2 = diag(0.9, 1.6) at rate 0.1, beta 1.
    _, block = _decay_channel(family_master_spec(meson, make_qmupl(rate=0.1, alpha=1.0)))
    np.testing.assert_allclose(block, np.diag(np.sqrt([0.9, 1.6])), rtol=1e-15, atol=0.0)


def test_collapse_operator_b_zero_cases(meson_stable):
    # Zero widths and a zero collapse rate each give a zero channel; one
    # zero width leaves the other's channel whole.
    _, block = _decay_channel(wigner_weisskopf_spec(meson_stable))
    np.testing.assert_array_equal(block, np.zeros((2, 2)))
    _, block = _decay_channel(family_master_spec(meson_stable, make_qmupl(rate=0.0)))
    np.testing.assert_array_equal(block, np.zeros((2, 2)))
    decaying = MesonParams(m_L=1.0, m_H=2.0, gamma_L=0.1, gamma_H=0.0)
    _, block = _decay_channel(wigner_weisskopf_spec(decaying))
    np.testing.assert_array_equal(block, np.diag([np.sqrt(0.1), 0.0]))


def test_enlarged_operator_blocks(meson, csl):
    flavor = family_master_spec(meson, csl)
    enlarged = enlarged_master_spec(flavor)
    h = enlarged.hamiltonian
    np.testing.assert_array_equal(h[:2, :2], flavor.hamiltonian)
    np.testing.assert_array_equal(h[2:, 2:], np.zeros((2, 2)))
    assert enlarged.anticommutator is None
    # Each flavor channel on the flavor block, in order, then the decay channel.
    assert len(enlarged.lindblads) == len(flavor.lindblads) + 1
    for big, small in zip(enlarged.lindblads, flavor.lindblads):
        np.testing.assert_array_equal(big[:2, :2], small)
        assert np.count_nonzero(big) == np.count_nonzero(small)
    channel, _ = _decay_channel(flavor)
    np.testing.assert_array_equal(channel @ channel, np.zeros((4, 4)))
    with pytest.raises(DimensionMismatch):
        enlarged_master_spec(enlarged)


def test_enlarged_master_spec_builds_at_zero_collapse_rate():
    # The pure decay equation (no collapse channel) and the family one at
    # zero collapse rate (a zero channel, zero K) both embed: the flavor block
    # is the flavor equation's at every generator, and the superoperator
    # restricted to the flavor block is that equation's.
    meson = MesonParams(m_L=1.0, m_H=2.0, gamma_L=0.25, gamma_H=0.0625)
    block = [i * 4 + j for i in range(2) for j in range(2)]
    for flavor in (wigner_weisskopf_spec(meson), family_master_spec(meson, make_csl(rate=0.0))):
        master = enlarged_master_spec(flavor)
        np.testing.assert_array_equal(master.hamiltonian[:2, :2], flavor.hamiltonian)
        assert len(master.lindblads) == len(flavor.lindblads) + 1
        for big, small in zip(master.lindblads, flavor.lindblads):
            np.testing.assert_array_equal(big[:2, :2], small)
        decay = master.lindblads[-1]
        np.testing.assert_array_equal((decay.conj().T @ decay)[:2, :2], flavor.anticommutator)
        own = build_superoperator(master)
        np.testing.assert_array_equal(own[np.ix_(block, block)], build_superoperator(flavor))


def test_induced_widths():
    meson = MesonParams(m_L=3.0, m_H=4.0, gamma_L=0.0, gamma_H=0.0)
    symmetric = make_qmupl(beta=0.5)
    assert np.array_equal(np.diagonal(induced_decay_operator(meson, symmetric)), [0.0, 0.0])
    asym = make_qmupl(rate=0.1, alpha=1.0, beta=1.0, m0=1.0)
    widths = np.diagonal(induced_decay_operator(meson, asym))
    assert tuple(widths) == pytest.approx((0.9, 1.6), rel=1e-14)
    # beta < 1/2 induces negative widths, which no master equation takes.
    with pytest.raises(InvalidParams, match="positive semidefinite"):
        family_master_spec(meson, make_qmupl(beta=0.25))


def test_induced_widths_consistency_loop():
    # Feeding the induced widths back into the decay operator reproduces
    # lambda_eff (2 beta - 1) A^2 exactly.
    meson = MesonParams(m_L=3.0, m_H=4.0, gamma_L=0.0, gamma_H=0.0)
    collapse = make_qmupl(rate=0.1, alpha=1.0, beta=0.9, m0=1.0)
    g_l, g_h = np.diagonal(induced_decay_operator(meson, collapse))
    redecayed = MesonParams(m_L=3.0, m_H=4.0, gamma_L=g_l, gamma_H=g_h)
    a = np.diag(mass_ratios(meson, collapse))
    lam = collapse.effective_rate
    np.testing.assert_allclose(
        decay_operator(redecayed), lam * (2 * collapse.beta - 1) * a @ a, atol=1e-14
    )


def test_unnorm_law_through_mass_basis_states(meson):
    # Same identity exercised through QuantumState mass projections.
    psi = to_mass(QuantumState.m0()).amplitudes
    got = -np.real(psi.conj() @ decay_operator(meson) @ psi)
    assert got == pytest.approx(-meson.gamma_bar, abs=1e-14)


_DIAG = np.diag([0.0, 1.0])
_FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize(
    "h, op, k, error, message",
    [
        (np.zeros((3, 3)), np.eye(3), None, DimensionMismatch, "hamiltonian must be 2x2 or 4x4"),
        (_DIAG, np.eye(4), None, DimensionMismatch, "collapse operators must match"),
        (_DIAG, _DIAG, np.eye(4), DimensionMismatch, "decay operator K must match"),
        (np.diag([0.0, np.nan]), _DIAG, None, InvalidParams, "hamiltonian must be finite"),
        (_DIAG, np.diag([np.inf, 1.0]), None, InvalidParams, "collapse operators must be finite"),
        (_DIAG, _DIAG, np.diag([0.0, np.nan]), InvalidParams, "decay operator K must be finite"),
        (_FLIP, _DIAG, None, InvalidParams, "hamiltonian must be diagonal"),
        (np.diag([0.0, 1.0 - 0.5j]), _DIAG, None, InvalidParams, "hamiltonian must be Hermitian"),
        (_DIAG, _DIAG, _FLIP, InvalidParams, "decay operator K must be diagonal"),
        (_DIAG, _DIAG, np.diag([0.1, 0.1j]), InvalidParams, "decay operator K must be Hermitian"),
        (_DIAG, np.ones((2, 2)), None, InvalidParams, "collapse operators must be monomial"),
    ],
    ids=["h_shape", "op_shape", "k_shape", "h_nan", "op_inf", "k_nan", "h_offdiag", "h_complex",
         "k_offdiag", "k_complex", "op_not_monomial"],
)
def test_master_and_sde_specs_share_one_generator_contract(h, op, k, error, message):
    # An SDE spec is a label on a master spec, so the master spec's check is
    # the one every malformed generator meets.
    with pytest.raises(error, match=message):
        MasterSpec(hamiltonian=h, lindblads=(op,), anticommutator=k)


@pytest.mark.parametrize(
    "op, message",
    [(_FLIP, "collapse operators must be diagonal in the mass basis"),
     (np.diag([0.5, 1.5j]), r"collapse operators must be Hermitian \(self-adjoint\)")],
    ids=["op_offdiag", "op_complex"],
)
def test_linear_label_adds_only_real_diagonal_channels(op, message):
    # A monomial channel meets the master spec's contract; the linear label
    # alone asks for a real diagonal, and the nonlinear one takes it.
    master = MasterSpec(_DIAG, (op,))
    with pytest.raises(InvalidParams, match=message):
        SdeSpec(SdeEquation.LINEAR, master)
    SdeSpec(SdeEquation.NONLINEAR, master)


@pytest.mark.parametrize("convention", list(Convention))
def test_centred_collapse_operator_shifts_a_by_its_light_ratio(convention):
    meson = MesonParams(m_L=480.0, m_H=481.0, gamma_L=0.0, gamma_H=0.0)
    collapse = make_csl(beta=0.5, rate=1.0, ratio_convention=convention)
    a = np.diag(mass_ratios(meson, collapse))
    centred = centred_collapse_operator(meson, collapse)
    assert centred[0, 0] == 0.0
    np.testing.assert_array_equal(centred, a - a[0, 0] * np.eye(2))


def test_flavor_specs_carry_the_centred_operator(tmp_path):
    # The master route and each SDE spec take the same centred channel, and
    # each SDE spec is a label on its master spec, bit for bit; so the CLI
    # reads no gap between the routes' superoperators for any flavor equation.
    meson = MesonParams(m_L=480.0, m_H=481.0, gamma_L=0.0, gamma_H=0.0)
    collapse = make_csl(beta=0.5, rate=1.0)
    want = np.sqrt(collapse.effective_rate) * centred_collapse_operator(meson, collapse)
    np.testing.assert_array_equal(family_master_spec(meson, collapse).lindblads[0], want)
    got, master = family_spec(meson, collapse).master, family_master_spec(meson, collapse)
    np.testing.assert_array_equal(got.hamiltonian, master.hamiltonian)
    np.testing.assert_array_equal(got.anticommutator, master.anticommutator)
    assert len(got.lindblads) == len(master.lindblads)
    for a, b in zip(got.lindblads, master.lindblads):
        np.testing.assert_array_equal(a, b)
    readme = dict(
        command="compare", m_L=0.5, m_H=1.5, gamma_L=0.0, gamma_H=0.0, model="CSL", rate=0.3, r_C=0.5,
        beta=0.8, m0=1.0, alpha=1.0, d=2, t_max=6.0, n_points=121, n_trajectories=300, seed=7, dt=0.0015,
    )
    for equation in ("family", "imaginary", "stratonovich", "nonlinear", "flavor_decay"):
        path = tmp_path / f"{equation}.json"
        path.write_text(json.dumps(dict(readme, equation=equation)))
        spec = cli.load_config(str(path))
        assert cli._require_route_physics(spec, cli._sde_spec(spec)) == 0.0, equation
    # The enlarged equation embeds that master equation; only sqrt(K)^2 rounds.
    path = tmp_path / "enlarged.json"
    path.write_text(json.dumps(dict(readme, equation="enlarged")))
    spec = cli.load_config(str(path))
    assert cli._require_route_physics(spec, cli._sde_spec(spec)) <= 1e-15
