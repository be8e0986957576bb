import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from flavorcollapse.analytic import prob_flavor, prob_lifetime
from flavorcollapse.core import STATES, FlavorTarget, MesonParams, Model
from flavorcollapse.errors import DimensionMismatch, InvalidParams, UnsupportedEquation
from flavorcollapse.lindblad import (
    MasterSpec,
    build_superoperator,
    enlarged_master_spec,
    family_master_spec,
    gaussian_partial_trace,
    integrate_master,
    kernel_rhs,
    kernel_solution,
    master_rhs,
    probs_from_kernels,
    project_enlarged_to_flavor,
    wigner_weisskopf_spec,
)
from flavorcollapse.operators import induced_decay_operator, reduced_mass_operator

from conftest import make_csl, make_qmupl, random_collapse, random_meson



def _enlarged(meson, collapse):
    # The CLI's enlarged equation: the family one with its induced K as a decay channel.
    return enlarged_master_spec(family_master_spec(meson, collapse))


# The enlarged case keeps the id it had as a (meson, collapse) factory.
_ENLARGED = pytest.param(_enlarged, id="enlarged_master_spec")
_RHO_M0 = np.outer(STATES["M0"], STATES["M0"].conj())


def _m0_probs(rhos):
    v_same, v_flip = STATES["M0"], STATES["M0bar"]
    p_same = np.einsum("i,tij,j->t", v_same, rhos, v_same).real
    p_flip = np.einsum("i,tij,j->t", v_flip, rhos, v_flip).real
    return p_same, p_flip


def test_master_rhs_trivial_zero():
    spec = MasterSpec(hamiltonian=np.zeros((2, 2)))
    rho = np.array([[0.25, 0.1j], [-0.1j, 0.75]])
    np.testing.assert_array_equal(master_rhs(spec, rho), np.zeros((2, 2)))


def test_master_rhs_trace_identity(meson, csl):
    spec = family_master_spec(meson, csl)
    rng = np.random.default_rng(0)
    for _ in range(20):
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        rho = np.outer(psi, psi.conj())
        rho /= rho.trace()
        got = master_rhs(spec, rho).trace()
        want = -(spec.anticommutator @ rho).trace()
        assert got == pytest.approx(want, abs=1e-14)


def test_master_rhs_enlarged_traceless(meson, csl):
    spec = _enlarged(meson, csl)
    rng = np.random.default_rng(1)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    rho = np.outer(psi, psi.conj())
    rho /= rho.trace()
    assert abs(master_rhs(spec, rho).trace()) < 1e-14


def test_master_spec_rejects_non_hermitian_h():
    with pytest.raises(InvalidParams):
        MasterSpec(hamiltonian=np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_unitary_evolution_preserves_trace(meson_stable):
    spec = MasterSpec(hamiltonian=reduced_mass_operator(meson_stable))
    grid = np.linspace(0.0, 10.0, 51)
    rhos = integrate_master(spec, _RHO_M0, grid)
    traces = np.einsum("tii->t", rhos).real
    np.testing.assert_allclose(traces, 1.0, atol=1e-10)


def test_family_symmetric_noise_preserves_trace(meson_stable):
    spec = family_master_spec(meson_stable, make_csl(beta=0.5))
    grid = np.linspace(0.0, 10.0, 51)
    rhos = integrate_master(spec, _RHO_M0, grid)
    np.testing.assert_allclose(np.einsum("tii->t", rhos).real, 1.0, atol=1e-10)


def test_family_trace_matches_width_sum(meson_stable):
    collapse = make_csl(beta=0.9)
    g_l, g_h = np.diagonal(induced_decay_operator(meson_stable, collapse))
    gamma_bar = 0.5 * (g_l + g_h)
    grid = np.array([0.0, 1.0 / gamma_bar])
    spec = family_master_spec(meson_stable, collapse)
    rhos = integrate_master(spec, _RHO_M0, grid)
    expected = 0.5 * (np.exp(-g_l * grid[-1]) + np.exp(-g_h * grid[-1]))
    assert rhos[-1].trace().real == pytest.approx(expected, abs=1e-8)


def test_stiff_propagation_stays_physical():
    # Splitting 1e6 against a grid step of 0.3125: one interval spans
    # ~5e4 oscillation periods, all taken by the exact propagator at once.
    big = MesonParams(m_L=1.0, m_H=1e6, gamma_L=0.0, gamma_H=0.0)
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    spec = MasterSpec(hamiltonian=reduced_mass_operator(big), lindblads=(lower,))
    rhos = integrate_master(spec, _RHO_M0, np.linspace(0.0, 10.0, 33))
    np.testing.assert_array_equal(rhos, rhos.conj().transpose(0, 2, 1))
    traces = np.einsum("tii->t", rhos).real
    # Only the fast coherences carry the splitting; the population that
    # rho_11 hands to rho_00 never sees it, and the trace stays at round-off.
    assert np.abs(traces - 1.0).max() <= 1e-13
    assert np.all(np.diff(traces) <= 1e-14)
    assert np.linalg.eigvalsh(rhos).min() >= -1e-9


@pytest.mark.parametrize("field", ["hamiltonian", "lindblads", "anticommutator"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_master_spec_rejects_non_finite_generators(field, bad):
    mat = np.diag([0.0, 1.0]).astype(complex)
    mat[1, 1] = bad
    kwargs = {"hamiltonian": np.diag([0.0, 1.0])}
    kwargs[field] = (mat,) if field == "lindblads" else mat
    with pytest.raises(InvalidParams):
        MasterSpec(**kwargs)


def test_master_spec_checks_huge_generators_without_overflow():
    # Entries near 1e200 are finite, but their squares overflow: the checks
    # are elementwise, so no norm or eigenvalue solver warns.  K >= 0 is read
    # off its real diagonal.
    huge = np.diag([1e200, 2e200])
    spec = MasterSpec(hamiltonian=huge, lindblads=(huge,), anticommutator=huge)
    np.testing.assert_array_equal(spec.anticommutator, huge)
    with pytest.raises(InvalidParams, match="positive semidefinite"):
        MasterSpec(hamiltonian=huge, anticommutator=-huge)


def test_integrate_master_rejects_non_finite_inputs(meson_stable):
    spec = MasterSpec(hamiltonian=reduced_mass_operator(meson_stable))
    rho0 = _RHO_M0.copy()
    rho0[0, 1] = np.nan
    with pytest.raises(InvalidParams):
        integrate_master(spec, rho0, np.linspace(0.0, 1.0, 5))
    with pytest.raises(InvalidParams):
        integrate_master(spec, _RHO_M0, np.array([0.0, np.inf]))


@pytest.mark.parametrize("factory", [family_master_spec, _ENLARGED])
def test_stacked_propagation_equals_single_calls(meson, csl, factory):
    spec = factory(meson, csl)
    rng = np.random.default_rng(5)
    amps = rng.normal(size=(3, spec.dim)) + 1j * rng.normal(size=(3, spec.dim))
    stack = np.einsum("si,sj->sij", amps, amps.conj())
    grid = np.concatenate([[0.0], np.cumsum(np.tile([0.1, 0.25, 0.1], 7))])
    rhos = integrate_master(spec, stack, grid)
    assert rhos.shape == (3, len(grid), spec.dim, spec.dim)
    for rho0, rho in zip(stack, rhos):
        assert np.array_equal(rho, integrate_master(spec, rho0, grid))


@pytest.mark.parametrize("factory", [family_master_spec, _ENLARGED])
def test_grid_point_state_does_not_depend_on_the_rest_of_the_grid(meson, csl, factory):
    # exp(t S) is taken at each grid time, so a point of a long grid carries
    # the bits of a two-point grid ending there.
    spec = factory(meson, csl)
    rho0 = np.zeros((spec.dim, spec.dim), dtype=complex)
    rho0[:2, :2] = _RHO_M0
    grid = np.linspace(0.0, 40.0, 401)
    rhos = integrate_master(spec, rho0, grid)
    for k in (1, 2, 37, 200, 333, 400):
        assert np.array_equal(rhos[k], integrate_master(spec, rho0, [0.0, grid[k]])[1]), k


def test_integrate_master_rejects_a_stack_of_another_dimension(meson, csl):
    grid = np.linspace(0.0, 1.0, 5)
    for spec in (family_master_spec(meson, csl), _enlarged(meson, csl)):
        other = 6 - spec.dim  # 2 <-> 4
        for shape in ((3, other, other), (3, spec.dim, other), (1, 3, spec.dim, spec.dim), (spec.dim,)):
            with pytest.raises(DimensionMismatch):
                integrate_master(spec, np.zeros(shape, dtype=complex), grid)


def _enlarged_m0(meson, csl):
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[:2, :2] = _RHO_M0
    return _enlarged(meson, csl), rho0, np.array([0.0, 0.3, 1.0, 7.5, 40.0]), None


def _equal_rates(meson, csl):
    # r_00 = r_11 = -1 and rho_00 feeds rho_11 with weight 1, so rho_11 = t e^-t.
    feed = np.zeros((2, 2))
    feed[1, 0] = 1.0
    spec = MasterSpec(hamiltonian=np.zeros((2, 2)), lindblads=(feed,), anticommutator=np.diag([0.0, 1.0]))
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    return spec, rho0, np.array([0.0, 0.5, 2.0, 10.0]), np.exp(-10.0) * np.array([1.0, 10.0])


def _long_times(meson, csl):
    # The flavor block has decayed into the decay block, which keeps M0's populations;
    # e^(t |r|) of the decay rates overflows long before t = 5000.
    spec = enlarged_master_spec(wigner_weisskopf_spec(MesonParams(m_L=1.0, m_H=2.0, gamma_L=0.5, gamma_H=0.4)))
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[:2, :2] = _RHO_M0
    return spec, rho0, np.linspace(0.0, 5000.0, 11), np.array([0.0, 0.0, 0.5, 0.5])


@pytest.mark.parametrize("case", [_enlarged_m0, _equal_rates, _long_times], ids=["enlarged", "equal_rates", "long_times"])
def test_propagator_matches_reference_expm(meson, csl, case):
    spec, rho0, grid, final_populations = case(meson, csl)
    rhos = integrate_master(spec, rho0, grid)
    sup = build_superoperator(spec)
    for t, rho in zip(grid, rhos):
        want = (expm(t * sup) @ rho0.reshape(-1)).reshape(spec.dim, spec.dim)
        np.testing.assert_allclose(rho, want, rtol=0.0, atol=1e-15)
    if spec.anticommutator is None:  # the enlarged equation loses no trace
        np.testing.assert_allclose(np.einsum("tii->t", rhos).real, 1.0, rtol=0.0, atol=1e-15)
    if final_populations is not None:
        np.testing.assert_allclose(np.diagonal(rhos[-1]).real, final_populations, rtol=0.0, atol=1e-15)


def test_integrate_master_rejects_an_entry_that_receives_and_sends_a_jump():
    # The cycle 0 -> 2 -> 3 -> 0 feeds rho_00 into rho_22, which passes it on to rho_33.
    with pytest.raises(UnsupportedEquation, match="an entry that both receives and sends a jump"):
        integrate_master(_moving_spec(np.ones((3, 4))), np.eye(4) / 4, [0.0, 1.0])


def test_project_enlarged_block(meson, csl):
    rho = np.zeros((4, 4), dtype=complex)
    rho[:2, :2] = _RHO_M0 * 0.5
    rho[2, 2] = rho[3, 3] = 0.25
    block = project_enlarged_to_flavor(rho)
    np.testing.assert_array_equal(block, _RHO_M0 * 0.5)
    decayed = np.zeros((4, 4), dtype=complex)
    decayed[2, 2] = decayed[3, 3] = 0.5
    np.testing.assert_array_equal(project_enlarged_to_flavor(decayed), np.zeros((2, 2)))


def test_enlarged_projection_equals_direct_flavor_route():
    meson = MesonParams(m_L=1.0, m_H=2.0, gamma_L=0.25, gamma_H=0.1)
    collapse = make_csl(beta=0.8)
    grid = np.linspace(0.0, 10.0 / meson.gamma_bar, 41)
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[:2, :2] = _RHO_M0
    enlarged = integrate_master(_enlarged(meson, collapse), rho0, grid)
    direct = integrate_master(family_master_spec(meson, collapse), _RHO_M0, grid)
    residual = np.abs(project_enlarged_to_flavor(enlarged) - direct).max()
    assert residual < 1e-15


def test_enlarged_evolution_stays_completely_positive():
    rng = np.random.default_rng(9)
    for _ in range(5):
        meson = random_meson(rng, max_width=0.5)
        collapse = random_collapse(rng, Model.CSL)
        spec = _enlarged(meson, collapse)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        rho0 = np.outer(psi, psi.conj())
        grid = np.linspace(0.0, 5.0, 21)
        rhos = integrate_master(spec, rho0, grid)
        eigs = np.linalg.eigvalsh(rhos)
        assert eigs.min() >= -1e-14
        np.testing.assert_allclose(np.einsum("tii->t", rhos).real, 1.0, atol=1e-14)


def test_trace_law_finite_difference(meson_stable):
    collapse = make_csl(beta=0.85)
    spec = family_master_spec(meson_stable, collapse)
    h = 1e-5
    t_mid = 0.8
    grid = np.array([0.0, t_mid - h, t_mid, t_mid + h])
    rhos = integrate_master(spec, _RHO_M0, grid)
    fd = (rhos[3].trace().real - rhos[1].trace().real) / (2.0 * h)
    expected = -(spec.anticommutator @ rhos[2]).trace().real
    assert fd == pytest.approx(expected, rel=1e-6)


def _rhs_superoperator(spec):
    """The reference S: column k is master_rhs on the k-th basis matrix."""
    basis = np.eye(spec.dim**2).reshape(-1, spec.dim, spec.dim)
    return np.array([master_rhs(spec, e).reshape(-1) for e in basis]).T


def _moving_spec(amplitudes):
    """A 4x4 spec whose monomial channels move mass states: 0 -> 2 -> 3 -> 0 with column 1 empty,
    the swaps (0 1)(2 3) and a diagonal one; each column a of a channel takes amplitudes[c, a]."""
    rng = np.random.default_rng(4)
    cycle = np.zeros((4, 4))
    cycle[[2, 3, 0], [0, 2, 3]] = 1.0
    shapes = (cycle, np.eye(4)[[1, 0, 3, 2]], np.eye(4))
    return MasterSpec(
        hamiltonian=np.diag(rng.normal(size=4)),
        lindblads=tuple(shape * amp for shape, amp in zip(shapes, amplitudes)),
        anticommutator=np.diag(rng.random(4)),
    )


def test_superoperator_matches_rhs():
    # The entrywise S against the reference built from master_rhs, bit for
    # bit with real amplitudes (every route's equation is real; C5 checks
    # them).  With complex ones the reference's matrix products may fuse
    # multiply-adds, so the two agree to a few ulp of the largest entry.
    rng = np.random.default_rng(2)
    real = _moving_spec(rng.normal(size=(3, 4)))
    assert build_superoperator(real).tobytes() == _rhs_superoperator(real).tobytes()
    complex_spec = _moving_spec(rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4)))
    own, reference = build_superoperator(complex_spec), _rhs_superoperator(complex_spec)
    np.testing.assert_allclose(own, reference, rtol=0.0, atol=8 * np.finfo(float).eps * np.abs(reference).max())


# ----------------------------------------------------------------------
# position kernels

def test_kernel_rhs_qmupl_diagonal_growth():
    meson = MesonParams(m_L=3.0, m_H=4.0, gamma_L=0.0, gamma_H=0.0)
    collapse = make_qmupl(rate=0.2, beta=0.3, d=1)
    rate = kernel_rhs(meson, collapse, 0, 0, 1.5, 1.5)
    assert rate.imag == pytest.approx(0.0, abs=1e-15)
    assert rate.real == pytest.approx(0.2 * (1 - 2 * 0.3) * 9.0 * 1.5**2, rel=1e-12)


def test_kernel_rhs_csl_vanishes_symmetric_diagonal():
    meson = MesonParams(m_L=3.0, m_H=4.0, gamma_L=0.0, gamma_H=0.0)
    collapse = make_csl(beta=0.5, d=1)
    rate = kernel_rhs(meson, collapse, 0, 0, np.array([0.7]), np.array([0.7]))
    assert rate == pytest.approx(0.0, abs=1e-15)


def test_csl_convolution_at_zero_matches_effective_rate():
    collapse = make_csl(rate=1.0, d=3, r_C=0.5)
    rate = kernel_rhs(
        MesonParams(m_L=1.0, m_H=2.0, gamma_L=0.0, gamma_H=0.0),
        collapse,
        0,
        0,
        np.zeros(3),
        np.zeros(3),
    )
    # beta (2 r^2) (g*g)(0) - r^2 (g*g)(0) with r = 1/m0 ... here ratios are (1, 2)
    gg0 = (np.sqrt(4 * np.pi) * 0.5) ** -3
    expected = -(collapse.beta * 2.0 * gg0 - 1.0 * gg0)
    assert rate.real == pytest.approx(expected, rel=1e-12)
    assert gg0 == pytest.approx(collapse.effective_rate / collapse.rate, rel=1e-14)


def test_kernel_solution_basics(meson):
    collapse = make_qmupl(d=1, beta=0.7)
    args = (meson, collapse, 0, 1, 0.3, -0.4)
    assert kernel_solution(*args, 0.0) == pytest.approx(1.0)
    h = 1e-6
    fd = (kernel_solution(*args, h) - kernel_solution(*args, -h)) / (2.0 * h)
    assert fd == pytest.approx(kernel_rhs(*args), abs=1e-8)
    mirrored = kernel_solution(meson, collapse, 1, 0, -0.4, 0.3, 0.8)
    assert kernel_solution(*args, 0.8) == pytest.approx(np.conj(mirrored), rel=1e-14)


def test_kernel_element_hermiticity():
    meson = MesonParams(m_L=1.2, m_H=2.1, gamma_L=0.0, gamma_H=0.0)
    collapse = make_qmupl(d=2, beta=0.8, rate=0.2)
    rng = np.random.default_rng(4)
    for _ in range(10):
        x, y = rng.normal(size=(2, 2))
        t = rng.uniform(0.0, 2.0)
        for i in (0, 1):
            for j in (0, 1):
                lhs = kernel_solution(meson, collapse, i, j, x, y, t)
                rhs = kernel_solution(meson, collapse, j, i, y, x, t)
                assert lhs == pytest.approx(np.conj(rhs), rel=1e-13)


def test_partial_trace_basics():
    meson = MesonParams(m_L=3.0, m_H=4.0, gamma_L=0.0, gamma_H=0.0)
    collapse = make_qmupl(rate=0.1, alpha=1.0, beta=1.0, m0=1.0, d=2)
    assert gaussian_partial_trace(meson, collapse, 0, 1, 0.0) == pytest.approx(1.0)
    for t in (0.2, 1.0, 2.5):
        diag = gaussian_partial_trace(meson, collapse, 0, 0, t)
        assert diag.real == pytest.approx(prob_lifetime(meson, collapse, 0, 0, t), rel=1e-14)
        assert diag.imag == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("model", [Model.QMUPL, Model.CSL])
def test_partial_trace_against_quadrature_d1(model):
    # Route A: adaptive quadrature of the kernel propagator against the
    # Gaussian packet; route B: the closed form.  d = 1.
    meson = MesonParams(m_L=1.2, m_H=2.1, gamma_L=0.0, gamma_H=0.0)
    if model is Model.QMUPL:
        collapse = make_qmupl(rate=0.15, alpha=0.8, beta=0.85, m0=1.1, d=1)
    else:
        collapse = make_csl(rate=0.3, r_C=0.6, beta=0.85, m0=1.1, d=1, alpha=0.8)
    lim = 10.0 * np.sqrt(collapse.alpha)

    def density(x):
        return np.exp(-(x**2) / collapse.alpha) / np.sqrt(np.pi * collapse.alpha)

    for i, j, t in [(0, 0, 0.7), (1, 1, 1.3), (0, 1, 0.5), (1, 0, 2.0), (0, 1, 3.1)]:
        def integrand_re(x):
            return (density(x) * kernel_solution(meson, collapse, i, j, x, x, t)).real

        def integrand_im(x):
            return (density(x) * kernel_solution(meson, collapse, i, j, x, x, t)).imag

        re, _ = quad(integrand_re, -lim, lim, epsabs=1e-10, epsrel=1e-10, limit=200)
        im, _ = quad(integrand_im, -lim, lim, epsabs=1e-10, epsrel=1e-10, limit=200)
        closed = gaussian_partial_trace(meson, collapse, i, j, t)
        assert complex(re, im) == pytest.approx(closed, abs=1e-8)


def test_probs_from_kernels_match_closed_forms(meson_stable):
    t = np.linspace(0.0, 9.0, 120)
    m0_state = STATES["M0"]
    m0bar_state = STATES["M0bar"]
    csl = make_csl(beta=0.75)
    for collapse in (csl, make_qmupl(beta=0.75, rate=0.05)):
        for state, target in ((m0_state, FlavorTarget.M0), (m0bar_state, FlavorTarget.M0BAR)):
            np.testing.assert_allclose(
                probs_from_kernels(meson_stable, collapse, m0_state, state, t),
                prob_flavor(meson_stable, collapse, target, t),
                atol=1e-12,
            )
    assert probs_from_kernels(meson_stable, csl, m0_state, m0_state, 0.0) == pytest.approx(1.0)


def test_probs_from_kernels_rejects_states_of_the_wrong_shape(meson_stable):
    collapse = make_csl(beta=0.75)
    for state_in, state_out in ((np.zeros(4), STATES["M0"]), (STATES["M0"], np.eye(2)), (STATES["M0"], 1.0)):
        with pytest.raises(DimensionMismatch, match="2-vectors of mass-basis amplitudes"):
            probs_from_kernels(meson_stable, collapse, state_in, state_out, 1.0)


def test_qmupl_rate_zero_reduces_to_qm(meson_stable):
    collapse = make_qmupl(rate=0.0)
    t = np.linspace(0.0, 9.0, 40)
    got = probs_from_kernels(meson_stable, collapse, STATES["M0"], STATES["M0"], t)
    np.testing.assert_allclose(got, prob_flavor(meson_stable, None, FlavorTarget.M0, t), atol=1e-12)


def test_triple_route_csl_small(meson_stable):
    collapse = make_csl(beta=0.8)
    grid = np.linspace(0.0, 8.0, 81)
    analytic_p = prob_flavor(meson_stable, collapse, FlavorTarget.M0, grid)
    kernel_p = probs_from_kernels(meson_stable, collapse, STATES["M0"], STATES["M0"], grid)
    rhos = integrate_master(family_master_spec(meson_stable, collapse), _RHO_M0, grid)
    master_p, _ = _m0_probs(rhos)
    np.testing.assert_allclose(kernel_p, analytic_p, atol=1e-12)
    np.testing.assert_allclose(master_p, analytic_p, atol=1e-8)
