"""Tests for the model construction and its closed-form scalars."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    atom_matrix,
    coherent_amplitudes,
    coherent_state,
    dense_hamiltonian,
    expm_taylor,
    free_evolution,
    hermitian_eigensystem,
    initial_joint_state,
    partial_trace,
    poisson_lower_tail,
    poisson_tail,
    propagator,
    truncation_dim_by_recursion,
    vector_joint,
)

from jcdem.entropy import entropies_at
from jcdem.model import (
    DEFAULT_TAIL_TOL,
    GUARD_LEVELS,
    MAX_MEAN_PHOTONS,
    _window,
    AtomState,
    FieldConfig,
    ModelParams,
    closed_form_coeffs,
    evolve_vectors,
)

BINARY_ENTROPY_07 = 0.6108643020548935  # -0.7 ln 0.7 - 0.3 ln 0.3


def default_field():
    return FieldConfig.from_mean_photons(5.0)


def truncation_dim(mean_photons, tail_tol):
    """The photon cutoff n_max that FieldConfig derives."""
    return FieldConfig.from_mean_photons(mean_photons, tail_tol).n_max


def sector_block(u, n, n_max):
    """2x2 block of a joint operator on (|2,n>, |1,n+1>)."""
    idx = [(n_max + 1) + n, n + 1]
    return u[np.ix_(idx, idx)]


def test_truncation_dim_frozen_values():
    assert truncation_dim(5.0, 1e-12) == 32
    assert truncation_dim(5.0, 1e-9) == 28
    assert truncation_dim(50.0, 1e-12) == 112
    assert truncation_dim(200.0, 1e-12) == 312


def test_truncation_dim_matches_product_recursion_up_to_m_272():
    # the log-space cutoff reproduces the product-recursion cutoff wherever
    # the recursion is still accurate
    for tol in (1e-12, 1e-9, 1e-6):
        for m in np.arange(0.0, 272.5, 0.5):
            assert truncation_dim(float(m), tol) == truncation_dim_by_recursion(
                float(m), tol
            ), (m, tol)


def test_truncation_dim_vacuum_is_guard_band():
    assert truncation_dim(0.0, 0.5) == GUARD_LEVELS
    assert truncation_dim(0.0, 1e-12) == GUARD_LEVELS


def test_truncation_dim_tail_actually_below_tol():
    for tol in (1e-6, 1e-9, 1e-12):
        n = truncation_dim(5.0, tol)
        assert poisson_tail(5.0, n) < tol


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    m=st.floats(0.0, 1e5),
    tol=st.floats(-15.0, -3.0).map(lambda e: 10.0**e),
)
@example(m=273.0, tol=1e-12)
@example(m=746.0, tol=1e-9)
@example(m=1500.0, tol=1e-12)
@example(m=1e5, tol=1e-15)
@example(m=732.0, tol=1e-3)
def test_truncation_holds_over_the_parameter_range(m, tol):
    field = FieldConfig.from_mean_photons(m, tol)
    assert poisson_tail(m, field.n_max) < tol
    amps = field.amplitudes
    assert np.all(np.isfinite(amps))
    assert abs(np.linalg.norm(amps) - 1.0) <= 1e-12
    c0 = closed_form_coeffs(0.0, AtomState(0.0), field, ModelParams()).c
    # c(0) is the kept Poisson mass, 1 - tail, and the weights carry no
    # error that grows with m
    assert abs(c0 - 1.0) <= tol + 1e-14
    # the tail is the sum of the two the window drops, below n_lo and
    # above n_max; the oracle tails start from lgamma exponents, whose
    # absolute error is of order m * 1e-16
    kept = 1.0 - poisson_lower_tail(m, field.n_lo) - poisson_tail(m, field.n_max)
    assert abs(c0 - kept) <= 1e-14 * max(m, 1.0)
    assert 0 <= field.n_lo <= field.n_max


def test_window_is_computed_once_per_mean_and_tolerance():
    _window.cache_clear()
    field = FieldConfig.from_mean_photons(1e5)
    # both window edges, the weights and the amplitudes read one cached pass
    assert len(field.amplitudes) == field.n_levels == field.n_max - field.n_lo + 1
    assert _window.cache_info().misses == 1
    FieldConfig.from_mean_photons(1e5).n_max
    assert _window.cache_info().misses == 1
    FieldConfig.from_mean_photons(1e5, 1e-9).amplitudes
    assert _window.cache_info().misses == 2
    assert not field.weights.flags.writeable


def test_window_pass_peaks_below_16_mb_at_m_1e6():
    # only levels within m -+ (60 sqrt(m) + 3000) are evaluated, not all of
    # 0..m + 60 sqrt(m) + 3000, and only the window's weights are kept
    _window.cache_clear()
    tracemalloc.start()
    try:
        FieldConfig.from_mean_photons(1e6).amplitudes
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_truncation_dim_monotone_in_tol():
    dims = [truncation_dim(5.0, tol) for tol in (1e-4, 1e-6, 1e-9, 1e-12)]
    assert dims == sorted(dims)


def test_truncation_dim_validation():
    with pytest.raises(ValueError):
        truncation_dim(-1.0, 1e-9)
    with pytest.raises(ValueError):
        truncation_dim(5.0, 0.0)
    with pytest.raises(ValueError):
        truncation_dim(5.0, 1.0)


def test_poisson_weights_match_direct_formula():
    w = default_field().weights
    for n in (0, 3, 12, 20):
        assert np.isclose(w[n], math.exp(-5.0) * 5.0**n / math.factorial(n), rtol=1e-14)
    # the weights sum to 1 at every mean: the saddle-point weights carry no
    # exponent error that grows with m
    for m in (5.0, 50.0, 1e3, 5.2e4, 7e4, 1e5):
        assert abs(math.fsum(_window(m, 1e-300)[1]) - 1.0) <= 1e-14, m


def test_poisson_weights_vacuum():
    w = FieldConfig(theta=0.0).weights
    assert len(w) == GUARD_LEVELS + 1
    assert w[0] == 1.0 and np.all(w[1:] == 0.0)


def test_coherent_state_vacuum_projector():
    omega = coherent_state(0.0, 5)
    expected = np.zeros((6, 6), dtype=complex)
    expected[0, 0] = 1.0
    assert np.allclose(omega, expected, atol=0)


def test_coherent_amplitudes_normalized():
    field = FieldConfig(theta=math.sqrt(5.0) * np.exp(0.3j))
    amps = field.amplitudes
    assert np.isclose(np.linalg.norm(amps), 1.0, atol=1e-14)
    assert np.abs(amps - coherent_amplitudes(field.theta, field.n_max)).max() <= 1e-15


def test_coherent_state_purity_and_mean():
    field = default_field()
    omega = coherent_state(field.theta, field.n_max)
    purity = np.trace(omega @ omega).real
    assert purity >= 1.0 - 2.0 * field.tail_tol
    mean = np.sum(np.arange(field.n_max + 1) * np.diag(omega).real)
    assert abs(mean - 5.0) <= 10.0 * field.tail_tol


def test_field_config_from_mean_photons():
    field = default_field()
    assert field.n_max == 32
    assert np.isclose(field.theta, math.sqrt(5.0))
    assert np.isclose(field.mean_photons, 5.0)
    assert field.tail_tol == DEFAULT_TAIL_TOL


def test_field_config_validation():
    for tol in (0.0, 1.0, 2.0):
        with pytest.raises(ValueError, match="tail_tol"):
            FieldConfig(theta=0.0, tail_tol=tol)
    with pytest.raises(ValueError):
        FieldConfig.from_mean_photons(-1.0)


@pytest.mark.parametrize("m", [math.inf, math.nan])
def test_field_config_rejects_non_finite_mean(m):
    with pytest.raises(ValueError, match="finite"):
        FieldConfig.from_mean_photons(m)
    with pytest.raises(ValueError, match="finite"):
        FieldConfig(theta=complex(m))


def test_field_config_bounds_the_mean():
    # construction alone builds no Poisson table, so the edge costs nothing
    edge = FieldConfig.from_mean_photons(MAX_MEAN_PHOTONS)
    assert edge.mean_photons == MAX_MEAN_PHOTONS == 1e6
    assert FieldConfig(theta=1000.0j).mean_photons == MAX_MEAN_PHOTONS
    with pytest.raises(ValueError, match="at most 1000000"):
        FieldConfig.from_mean_photons(2e6)
    with pytest.raises(ValueError, match="at most 1000000"):
        FieldConfig(theta=1e4 * (0.6 + 0.8j))


def test_atom_state():
    atom = AtomState.from_ground_weight(0.7)
    assert atom == AtomState(0.7)
    assert atom.lambda1 == pytest.approx(0.3)
    for bad in (-1e-12, 1.2, math.inf, math.nan):
        with pytest.raises(ValueError, match="lambda0 must lie in"):
            AtomState(bad)


def test_model_params_validation():
    params = ModelParams()
    assert params.g == 1.0 and params.omega0 == 1.0
    with pytest.raises(ValueError):
        ModelParams(g=0.0)
    with pytest.raises(ValueError):
        ModelParams(omega0=-1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            ModelParams(g=bad)
        with pytest.raises(ValueError, match="finite"):
            ModelParams(omega0=bad)


def test_rabi_frequency():
    # with omega0 = 0 the n-photon sector rotates at g*sqrt(n+1)
    for n, g in ((0, 1.0), (4, 2.0)):
        t = 0.37
        block = sector_block(propagator(t, ModelParams(g=g, omega0=0.0), 6), n, 6)
        omega = g * math.sqrt(n + 1.0)
        assert abs(block[0, 0]) == pytest.approx(abs(math.cos(omega * t)), abs=1e-14)
        assert abs(block[1, 0]) == pytest.approx(abs(math.sin(omega * t)), abs=1e-14)


def dressed_phases(params, n, t, n_max=6):
    """Phase rates of the propagator's sector block, read from its spectrum."""
    block = sector_block(propagator(t, params, n_max), n, n_max)
    return sorted(-np.angle(np.linalg.eigvals(block)) / t)


def test_dressed_block_phases_vacuum_sector():
    assert dressed_phases(ModelParams(g=1.0, omega0=0.0), 0, 0.3) == pytest.approx(
        [-1.0, 1.0]
    )


def test_dressed_block_phases_general():
    params = ModelParams(g=0.7, omega0=1.3)
    free = 1.3 * 4.5
    omega = 0.7 * math.sqrt(5.0)
    assert dressed_phases(params, 4, 0.2) == pytest.approx([free - omega, free + omega])


def test_dressed_block_vectors_solve_the_sector():
    # the equal superpositions (|2,n> +- |1,n+1>)/sqrt2 are the eigenvectors,
    # with phase rates omega0*(n+1/2) +- g*sqrt(n+1)
    params = ModelParams(g=0.9, omega0=1.1)
    t = 1.7
    block = sector_block(propagator(t, params, 6), 3, 6)
    free = 1.1 * 3.5
    omega = 0.9 * 2.0
    for sign in (1.0, -1.0):
        v = np.array([1.0, sign]) / math.sqrt(2.0)
        phase = np.exp(-1j * t * (free + sign * omega))
        assert np.allclose(block @ v, phase * v, atol=1e-12)


def test_dressed_block_matches_eigensystem_oracle():
    params = ModelParams(g=0.9, omega0=1.1)
    t = 2.9
    free = 1.1 * 3.5
    omega = 0.9 * 2.0
    w, v = hermitian_eigensystem(np.array([[free, omega], [omega, free]]))
    expected = v @ np.diag(np.exp(-1j * t * w)) @ v.conj().T
    block = sector_block(propagator(t, params, 6), 3, 6)
    assert np.abs(block - expected).max() <= 1e-12


def test_propagator_identity_at_t0():
    assert np.allclose(propagator(0.0, ModelParams(), 6), np.eye(14), atol=0)


def test_propagator_unitary():
    params = ModelParams(g=1.0, omega0=1.0)
    for t in (0.3, 5.0, 17.7, 50.0):
        u = propagator(t, params, 10)
        assert np.abs(u @ u.conj().T - np.eye(22)).max() <= 1e-10


def test_propagator_group_property():
    params = ModelParams(g=1.3, omega0=0.8)
    u1 = propagator(2.1, params, 8)
    u2 = propagator(3.6, params, 8)
    assert np.abs(u1 @ u2 - propagator(5.7, params, 8)).max() <= 1e-9


def test_propagator_matches_expm_oracle():
    for g, w0 in ((1.0, 1.0), (0.8, 1.7)):
        h = dense_hamiltonian(g, w0, 3)
        for t in (0.7, 2.3, 5.0):
            u = propagator(t, ModelParams(g=g, omega0=w0), 3)
            assert np.abs(u - expm_taylor(-1j * t * h)).max() <= 1e-8


def test_propagator_exact_block_structure():
    n_max = 6
    d = 2 * (n_max + 1)
    allowed = np.zeros((d, d), dtype=bool)
    allowed[0, 0] = allowed[d - 1, d - 1] = True
    for n in range(n_max):
        i_exc, i_gnd = (n_max + 1) + n, n + 1
        allowed[i_exc, i_exc] = allowed[i_gnd, i_gnd] = True
        allowed[i_exc, i_gnd] = allowed[i_gnd, i_exc] = True
    u = propagator(13.7, ModelParams(), n_max)
    assert np.all(u[~allowed] == 0.0)


@pytest.mark.parametrize("omega0", [0.0, 1.0, 5.0])
def test_evolve_vectors_match_the_dense_propagator(omega0):
    # at tail_tol = 0.99 the levels are 0..5, and m = 3 puts p_5 = 0.10 on
    # the edge level |2,5>
    field = FieldConfig(theta=math.sqrt(3.0) * np.exp(0.4j), tail_tol=0.99)
    assert (field.n_lo, field.n_max) == (0, 5)
    params = ModelParams(g=0.9, omega0=omega0)
    amps = coherent_amplitudes(field.theta, 5)
    starts = (np.kron([1.0, 0.0], amps), np.kron([0.0, 1.0], amps))
    times = np.array([0.0, 0.37, 5.0, 17.7, 50.0])
    vectors = evolve_vectors(field, params, times)
    assert all(psi.shape == (5, 12) for psi in vectors)
    assert abs(vectors[1][-1, -1]) > 0.1
    for i, t in enumerate(times):
        # the vectors live in the interaction picture, exp(+i t H0) U(t)
        u = free_evolution(float(t), omega0, 5) @ propagator(float(t), params, 5)
        for psi, start in zip(vectors, starts):
            assert np.abs(psi[i] - u @ start).max() <= 1e-13


def test_evolve_vectors_over_time_arrays_match_scalar_calls():
    field = FieldConfig.from_mean_photons(200.0)
    times = np.linspace(0.0, 100.0, 1000).reshape(10, 100)
    psi_g, psi_e = evolve_vectors(field, ModelParams(), times)
    assert psi_g.shape == psi_e.shape == (10, 100, 2 * field.n_levels)
    for idx in ((0, 0), (4, 17), (9, 99)):
        g, e = evolve_vectors(field, ModelParams(), times[idx])
        assert np.array_equal(psi_g[idx], g) and np.array_equal(psi_e[idx], e)


@pytest.mark.parametrize(
    "g, t",
    [(1.0, math.nan), (1.0, math.inf), (1.0, -math.inf), (1.0, [0.0, 1.0, math.nan]),
     (1e308, 1.0), (1.0, 1e308), (1e308, 0.0)],
    ids=["nan", "inf", "-inf", "nan-in-array", "g-overflows", "t-overflows",
         "g-overflows-at-t0"],
)
def test_kernels_reject_non_finite_times(g, t):
    # unchecked, a NaN state reaches eigvalsh (LinAlgError), and an infinite
    # phase, or g sqrt(n+1) or 2 g sqrt(n+1) t overflowing, gives NaN with a
    # RuntimeWarning; g sqrt(n+1) = inf times t = 0 is NaN too
    field, params, atom = default_field(), ModelParams(g=g), AtomState(0.7)
    for kernel in (lambda: evolve_vectors(field, params, t),
                   lambda: closed_form_coeffs(t, atom, field, params),
                   lambda: entropies_at(atom, field, params, t)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="times must be finite.*phase"):
                kernel()
        assert caught == []


@settings(max_examples=40, deadline=None, derandomize=True)
@given(m=st.floats(0.0, 300.0), t=st.floats(0.0, 500.0))
def test_evolved_states_stay_orthonormal(m, t):
    psi_g, psi_e = evolve_vectors(FieldConfig.from_mean_photons(m), ModelParams(), t)
    assert abs(np.vdot(psi_g, psi_g).real - 1.0) <= 1e-13
    assert abs(np.vdot(psi_e, psi_e).real - 1.0) <= 1e-13
    assert abs(np.vdot(psi_g, psi_e)) <= 1e-13


def test_initial_joint_state_ordering():
    # excited-start support must sit entirely in the upper atom block
    field = FieldConfig.from_mean_photons(2.0)
    joint = initial_joint_state(AtomState(0.0), field)
    na = field.n_max + 1
    assert np.all(joint[:na, :] == 0.0) and np.all(joint[:, :na] == 0.0)
    assert np.isclose(np.trace(joint).real, 1.0, atol=1e-12)


def test_evolve_t0_is_product_state():
    field = default_field()
    atom = AtomState.from_ground_weight(0.7)
    joint = vector_joint(atom, field, ModelParams(), 0.0)
    expected = np.kron(atom_matrix(atom), coherent_state(field.theta, field.n_max))
    assert np.abs(joint - expected).max() <= 1e-14


def test_evolve_preserves_trace():
    field = default_field()
    joint = vector_joint(AtomState.from_ground_weight(0.7), field, ModelParams(), 5.0)
    assert abs(np.trace(joint).real - 1.0) <= 1e-10
    assert np.abs(joint - joint.conj().T).max() <= 1e-12


def test_evolve_entropy_is_time_invariant():
    field = default_field()
    atom = AtomState.from_ground_weight(0.7)
    s_joint = entropies_at(atom, field, ModelParams(), [1.0, 5.0, 14.0]).s_joint
    assert np.abs(s_joint - BINARY_ENTROPY_07).max() <= 1e-8


EXCITED = AtomState(0.0)


def test_transition_probability_starts_at_one():
    c0 = closed_form_coeffs(0.0, EXCITED, default_field(), ModelParams()).c
    assert abs(c0 - 1.0) <= 1e-12


def test_transition_probability_shapes_and_range():
    field = default_field()
    t = np.linspace(0.0, 30.0, 121)
    co = closed_form_coeffs(t, AtomState.from_ground_weight(0.7), field, ModelParams())
    assert all(np.shape(value) == t.shape for value in co)
    assert np.all(co.c >= 0.0) and np.all(co.c <= 1.0 + 1e-12)
    assert isinstance(closed_form_coeffs(1.0, EXCITED, field, ModelParams()).c, float)


def test_transition_probability_matches_exact_excited_start():
    field = default_field()
    params = ModelParams()
    na = field.n_max + 1
    times = np.linspace(0.0, 30.0, 61)
    closed = closed_form_coeffs(times, EXCITED, field, params).c
    psi_e = evolve_vectors(field, params, times)[1]
    exact = np.sum(np.abs(psi_e[:, na:]) ** 2, axis=1)
    assert np.abs(closed - exact).max() <= 1e-8


def test_transition_probability_matches_exact_at_large_m():
    field = FieldConfig.from_mean_photons(300.0)
    params = ModelParams()
    na = field.n_levels
    revival = 2.0 * math.pi * math.sqrt(300.0)
    for t in (3.0, revival):
        psi_e = evolve_vectors(field, params, t)[1]
        exact = np.sum(np.abs(psi_e[na:]) ** 2)
        closed = closed_form_coeffs(t, EXCITED, field, params).c
        assert abs(closed - exact) <= 1e-10


def test_closed_form_coeffs_vectorised_matches_scalar_calls():
    field = default_field()
    atom = AtomState.from_ground_weight(0.7)
    times = np.array([0.0, 1.05, 7.0, 14.05])
    grid = closed_form_coeffs(times, atom, field, ModelParams())
    for i, t in enumerate(times):
        point = closed_form_coeffs(float(t), atom, field, ModelParams())
        for name in grid._fields:
            assert abs(getattr(grid, name)[i] - getattr(point, name)) <= 1e-15


def test_closed_form_coeffs_over_chunks_match_scalar_calls(chunk_starts):
    # 1000 times at m = 200 split into chunks: probe both sides of the
    # first two edges the kernel's own time_chunks call hands out
    field = FieldConfig.from_mean_photons(200.0)
    atom = AtomState.from_ground_weight(0.7)
    times = np.linspace(0.0, 100.0, 1000)
    grid = closed_form_coeffs(times, atom, field, ModelParams())
    first, second = chunk_starts[:2]
    for i in (0, first - 1, first, second - 1, second, 999):
        point = closed_form_coeffs(times[i], atom, field, ModelParams())
        for name in grid._fields:
            assert abs(getattr(grid, name)[i] - getattr(point, name)) <= 1e-15


def test_closed_form_coeffs_at_t0():
    field = default_field()
    atom = AtomState.from_ground_weight(0.7)
    co = closed_form_coeffs(0.0, atom, field, ModelParams())
    assert co.s == pytest.approx(0.0, abs=1e-12)
    assert co.c == pytest.approx(1.0, abs=1e-12)
    assert co.e1 == pytest.approx(0.3, abs=1e-12)
    assert co.e4 == pytest.approx(0.7, abs=1e-12)
    assert co.e2_mag == 0.0


def test_closed_form_coeffs_balanced_atom_has_no_coherence():
    field = default_field()
    atom = AtomState(0.5)
    for t in (0.7, 3.0, 14.0):
        co = closed_form_coeffs(t, atom, field, ModelParams())
        assert co.e2_mag == 0.0


def test_closed_form_coeffs_invariants_at_default_truncation():
    field = default_field()
    atom = AtomState.from_ground_weight(0.7)
    for t in (0.0, 1.05, 7.0, 14.05):
        co = closed_form_coeffs(t, atom, field, ModelParams())
        assert abs(co.c + co.s - 1.0) <= 1e-12
        assert abs(co.e1 + co.e4 - 1.0) <= 1e-12


def test_closed_form_ground_start_carries_index_shift():
    # The analytic sums weight both levels by sqrt(n+1) frequencies, but the
    # exact ground sector oscillates at g*sqrt(n).  For a ground start the
    # printed form therefore deviates from the pipeline by design; we report
    # the gap instead of correcting it.
    field = default_field()
    params = ModelParams()
    ground = AtomState(1.0)
    times = np.arange(0.0, 10.0, 0.05)
    co = closed_form_coeffs(times, ground, field, params)
    psi_g = evolve_vectors(field, params, times)[0]
    p_ground = np.sum(np.abs(psi_g[:, : field.n_max + 1]) ** 2, axis=1)
    worst = np.abs(co.e4 - p_ground).max()
    assert 0.1 < worst < 0.2


def test_atom_marginal_develops_real_coherence():
    # A mixed diagonal start does not stay diagonal: by t ~ 6.5 the atom
    # marginal carries off-diagonals near 0.46, confirmed here against an
    # independent matrix-exponential evolution.
    field = default_field()
    params = ModelParams()
    atom = AtomState.from_ground_weight(0.7)
    t = 6.45
    joint = vector_joint(atom, field, params, t)
    marginal = partial_trace(joint, (2, field.n_max + 1), "atom")
    assert abs(marginal[0, 1]) > 0.4

    # the evolved vectors live in the interaction picture, exp(+i t H0) U(t)
    u = free_evolution(t, 1.0, field.n_max) @ expm_taylor(
        -1j * t * dense_hamiltonian(1.0, 1.0, field.n_max)
    )
    oracle_joint = u @ initial_joint_state(atom, field) @ u.conj().T
    oracle = partial_trace(oracle_joint, (2, field.n_max + 1), "atom")
    assert abs(marginal[0, 1] - oracle[0, 1]) <= 1e-9
