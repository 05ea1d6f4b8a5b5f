"""Tests for entropy functionals and the entanglement degree."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    HERMITICITY_ATOL,
    atom_coherence,
    coherent_amplitudes,
    dem_exact,
    excited_population,
    full_range_vectors,
    marginal_product,
    partial_trace,
    propagated_joint,
    relative_entropy,
    vector_joint,
    von_neumann_entropy,
)

from jcdem.analysis import revival_period, scan_time
from jcdem.entropy import AL_SLACK, EntropyReport, _entropies, entropies_at
from jcdem.model import (
    AtomState,
    ClosedFormCoeffs,
    FieldConfig,
    ModelParams,
    closed_form_coeffs,
)

KL_FROZEN = 0.0945818719775651  # sum p ln(p/q) for the pair below
KL_P = np.array([0.2, 0.5, 0.3])
KL_Q = np.array([0.4, 0.4, 0.2])


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def bell_state():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / math.sqrt(2.0)
    return np.outer(psi, psi.conj())


def test_entropy_of_projector_is_zero():
    assert _entropies(np.diag([1.0, 0.0, 0.0])) == 0.0


def test_entropy_of_maximally_mixed_qubit():
    assert _entropies(np.eye(2) / 2) == pytest.approx(math.log(2.0))


def test_entropy_binary_value():
    assert _entropies(np.diag([0.7, 0.3])) == pytest.approx(
        0.6108643020548935, abs=1e-14
    )


def test_entropy_clips_round_off_eigenvalues():
    s = _entropies(np.diag([1.0 - 1e-13, 1e-13]))
    assert 0.0 <= s <= 1e-10


def test_entropy_keeps_an_eigenvalue_above_the_rounding_floor():
    # 1e-13 lies far above the floor 2 eps of this 2x2 spectrum, so its
    # -p ln p counts: the binary entropy of the matrix's own entries (1 - 1e-13
    # rounded to float), 3.1e-12, to 1e-14 relative
    p, q = 1e-13, 1.0 - 1e-13
    binary = -p * math.log(p) - q * math.log(q)
    assert abs(_entropies(np.diag([q, p])) / binary - 1.0) <= 1e-14


def test_entropy_of_a_pure_state_is_exactly_zero():
    # the eigenvalues above the rounding floor d eps max|eig| are renormalized
    # to unit trace, so a pure state's one eigenvalue is exactly 1, however its
    # last bit rounds
    assert _entropies(np.diag([1 - 1e-16, 1e-17])) == 0.0
    # the field of the product state at t = 0 is pure; it read 1.1e-16 at
    # m = 50, lambda0 = 0.4 before the renormalization, and now reads +0.0
    for m in (5.0, 50.0, 200.0):
        for lam in (0.0, 0.4, 0.7, 1.0):
            report = entropies_at(AtomState(lam), FieldConfig(m), ModelParams(), 0.0)
            assert report.s_field == 0.0 and math.copysign(1.0, report.s_field) > 0
            if lam in (0.0, 1.0):  # a pure atom: every state is pure
                assert report.s_atom == report.s_joint == report.dem == 0.0


def test_entropy_rejects_negative_eigenvalue():
    with pytest.raises(ValueError):
        _entropies(np.diag([1.001, -0.001]))


def test_relative_entropy_of_identical_states():
    rng = np.random.default_rng(22)
    rho = random_density(rng, 4)
    assert abs(relative_entropy(rho, rho)) <= 1e-12


def test_relative_entropy_disjoint_supports():
    sigma = np.diag([1.0, 0.0])
    rho = np.diag([0.0, 1.0])
    assert math.isinf(relative_entropy(sigma, rho))


def test_relative_entropy_matches_classical_kl():
    assert relative_entropy(np.diag(KL_P), np.diag(KL_Q)) == pytest.approx(
        KL_FROZEN, abs=1e-13
    )


def test_relative_entropy_nonnegative_on_random_pairs():
    rng = np.random.default_rng(23)
    for _ in range(20):
        a, b = random_density(rng, 4), random_density(rng, 4)
        assert relative_entropy(a, b) >= -1e-10


def test_relative_entropy_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        relative_entropy(np.eye(2) / 2, np.eye(3) / 3)


def test_dem_of_product_state_is_zero():
    rng = np.random.default_rng(24)
    joint = np.kron(random_density(rng, 2), random_density(rng, 3))
    report = dem_exact(joint, (2, 3))
    assert abs(report.dem) <= 1e-10
    assert report.araki_lieb_ok


def test_dem_is_clipped_at_zero_and_its_margin_kept_raw():
    # at t = 0 the state is a product, where rounding leaves the unclipped
    # sum at -1.1e-16 at the CLI defaults (m = 5, lambda0 = 0.7)
    field = FieldConfig(5.0)
    product = entropies_at(AtomState(0.7), field, ModelParams(), 0.0)
    assert product.al_margins[1] < 0.0 and product.dem == 0.0
    series = scan_time(AtomState(0.7), FieldConfig(200.0),
                       ModelParams(), 100.0, 5.0)
    assert np.all(series.columns["dem_exact"] >= 0.0)
    # a real Araki-Lieb violation still shows in the raw margin
    report = EntropyReport(s_atom=0.1, s_field=0.2, s_joint=0.5)
    assert report.dem == 0.0 and report.al_margins[1] == pytest.approx(-0.2)
    assert not report.araki_lieb_ok


def test_dem_of_pure_entangled_state_doubles_marginal_entropy():
    report = dem_exact(bell_state(), (2, 2))
    assert report.s_joint <= 1e-10
    assert report.dem == pytest.approx(2.0 * report.s_atom, abs=1e-10)
    assert report.s_atom == pytest.approx(math.log(2.0), abs=1e-10)


def test_dem_report_is_internally_consistent():
    rng = np.random.default_rng(25)
    report = dem_exact(random_density(rng, 4), (2, 2))
    assert report.dem == pytest.approx(
        report.s_atom + report.s_field - report.s_joint, abs=1e-12
    )
    assert report.dem >= -1e-9
    # a stack gives, member by member, what single calls give
    stack = np.array([random_density(rng, 4) for _ in range(5)])
    grid = dem_exact(stack, (2, 2))
    assert np.shape(grid.dem) == np.shape(grid.al_margins[0]) == (5,)
    for i, joint in enumerate(stack):
        single = dem_exact(joint, (2, 2))
        for name in ("s_atom", "s_field", "s_joint", "dem", "araki_lieb_ok"):
            assert getattr(grid, name)[i] == getattr(single, name)
        assert all(m[i] == s for m, s in zip(grid.al_margins, single.al_margins))


def test_dem_exact_rejects_non_hermitian_and_misfactored_joints():
    rng = np.random.default_rng(29)
    stack = np.array([random_density(rng, 4) for _ in range(3)])
    round_off = stack.copy()
    round_off[1, 3, 0] += 0.1 * HERMITICITY_ATOL
    assert np.shape(dem_exact(round_off, (2, 2)).dem) == (3,)
    stack[1, 3, 0] += 10 * HERMITICITY_ATOL
    with pytest.raises(ValueError, match="not Hermitian"):
        dem_exact(stack, (2, 2))
    for bad in (np.eye(6) / 6, np.zeros((2, 3)), np.ones(4)):
        with pytest.raises(ValueError, match="does not factor"):
            dem_exact(bad, (2, 2))


def test_dem_equals_relative_entropy_to_marginal_product():
    rng = np.random.default_rng(26)
    joint = random_density(rng, 4)
    product = np.kron(
        partial_trace(joint, (2, 2), "atom"), partial_trace(joint, (2, 2), "field")
    )
    assert dem_exact(joint, (2, 2)).dem == pytest.approx(
        relative_entropy(joint, product), abs=1e-8
    )


def test_dem_invariant_under_local_phases():
    joint = bell_state()
    local = np.kron(np.diag(np.exp(1j * np.array([0.3, 1.9]))),
                    np.diag(np.exp(1j * np.array([0.0, 2.4]))))
    rotated = local @ joint @ local.conj().T
    assert abs(dem_exact(rotated, (2, 2)).dem - dem_exact(joint, (2, 2)).dem) <= 1e-9


def test_araki_lieb_pure_state_has_equal_marginals():
    report = dem_exact(bell_state(), (2, 2))
    assert report.araki_lieb_ok
    assert abs(report.s_atom - report.s_field) <= 1e-9


def test_araki_lieb_product_state_upper_bound_tight():
    rng = np.random.default_rng(27)
    joint = np.kron(random_density(rng, 2), random_density(rng, 2))
    report = dem_exact(joint, (2, 2))
    lower, upper = report.al_margins
    assert report.araki_lieb_ok
    assert abs(upper) <= 1e-10  # s_joint = s_atom + s_field exactly


def test_araki_lieb_holds_on_random_two_qubit_states():
    rng = np.random.default_rng(28)
    for _ in range(100):
        report = dem_exact(random_density(rng, 4), (2, 2))
        assert report.araki_lieb_ok, report.al_margins


def test_closed_form_dem_at_t0_is_binary_entropy():
    co = ClosedFormCoeffs(s=0.0, c=1.0, e1=0.3, e4=0.7, e2_mag=0.0, c_exact=1.0)
    assert co.dem == pytest.approx(0.6108643020548935, abs=1e-12)
    pure = ClosedFormCoeffs(s=0.0, c=1.0, e1=1.0, e4=0.0, e2_mag=0.0, c_exact=1.0)
    assert pure.dem == 0.0


def test_closed_form_dem_balanced_atom_keeps_diagonal_terms():
    co = ClosedFormCoeffs(s=0.4, c=0.6, e1=0.5, e4=0.5, e2_mag=0.0, c_exact=0.6)
    expected = -0.5 * math.log(0.5) - 0.5 * math.log(0.5)
    assert co.dem == pytest.approx(expected, abs=1e-12)


def test_closed_form_dem_over_times_matches_pointwise():
    field = FieldConfig(5.0)
    atom = AtomState(0.7)
    times = np.arange(0.0, 10.0, 0.5)
    grid = closed_form_coeffs(atom, field, ModelParams(), times).dem
    assert grid.shape == times.shape
    for t, value in zip(times, grid):
        co = closed_form_coeffs(atom, field, ModelParams(), float(t))
        assert abs(value - co.dem) <= 1e-14


def test_closed_form_dem_matches_the_paper_formula_at_40_digits():
    # at m = 200, t = 65 the coherence |e2| is 9.7e-13, and its 2 |e2| ln |e2|
    # counts: a fixed 1e-12 clip of x ln x put the DEM 5.3e-11 off.  The
    # formula is evaluated at 40 digits on the float weights and on the float
    # phases g sqrt(n+1) t the kernel rounds to (measured gap 1.1e-16); those
    # phases' own rounding, 3.7e-14 in this DEM, is test_window's to bound
    mpmath = pytest.importorskip("mpmath")
    atom, field, params, t = AtomState(0.7), FieldConfig(200.0), ModelParams(), 65.0
    dem = closed_form_coeffs(atom, field, params, t).dem
    phases = params.g * np.sqrt(np.arange(field.n_lo, field.n_max + 1) + 1.0) * t
    with mpmath.workdps(40):
        weights = [mpmath.mpf(float(w)) for w in field.weights]
        x = [mpmath.mpf(float(phase)) for phase in phases]
        c = mpmath.fsum(w * mpmath.cos(y) ** 2 for w, y in zip(weights, x))
        s = mpmath.fsum(weights) - c
        sin2 = mpmath.fsum(w * mpmath.sin(2 * y) for w, y in zip(weights, x))
        lam0, lam1 = mpmath.mpf(atom.lambda0), mpmath.mpf(atom.lambda1)
        e1, e4 = lam0 * s + lam1 * c, lam0 * c + lam1 * s
        e2 = abs(lam1 - lam0) * abs(sin2) / 2
        exact = -e1 * mpmath.log(e1) - e4 * mpmath.log(e4) + 2 * e2 * mpmath.log(e2)
    assert abs(dem - float(exact)) <= 1e-14


def test_dem_exact_on_evolved_state_matches_relative_entropy():
    field = FieldConfig(5.0)
    atom = AtomState(0.7)
    joint = propagated_joint(atom, field, ModelParams(), 7.0)
    dims = (2, field.n_max + 1)
    report = dem_exact(joint, dims)
    assert report.dem == pytest.approx(
        relative_entropy(joint, marginal_product(joint, dims)), abs=1e-8
    )
    assert report.dem >= -1e-9


def test_entropies_at_keeps_the_shape_of_t(chunk_starts):
    field = FieldConfig(2.0)
    atom = AtomState(0.7)
    times = np.linspace(0.0, 9.0, 6).reshape(2, 3)
    grid = entropies_at(atom, field, ModelParams(), times)
    for value in (grid.s_atom, grid.s_field, grid.s_joint, grid.dem,
                  grid.araki_lieb_ok, *grid.al_margins):
        assert np.shape(value) == times.shape
    point = entropies_at(atom, field, ModelParams(), times[1, 2])
    assert np.ndim(point.dem) == 0 and point.araki_lieb_ok
    joint = propagated_joint(atom, field, ModelParams(), times[1, 2])
    assert abs(point.dem - dem_exact(joint, (2, field.n_max + 1)).dem) <= 1e-12
    assert grid.dem[1, 2] == point.dem
    # the CLI grid at m = 5 spans many stacked chunks: both sides of the
    # first two edges match the single-time call bit for bit
    field = FieldConfig(5.0)
    times = np.arange(1001) * 0.05
    chunk_starts.clear()
    grid = entropies_at(atom, field, ModelParams(), times)
    first, second = chunk_starts[:2]
    for i in (0, first - 1, first, second - 1, second, 1000):
        assert grid.dem[i] == entropies_at(atom, field, ModelParams(), times[i]).dem


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    m=st.floats(0.0, 40.0),
    lam=st.floats(0.0, 1.0),
    t=st.floats(0.0, 60.0),
)
@example(m=40.0, lam=0.0, t=60.0)
@example(m=5.0, lam=1.0, t=7.0)
def test_entropies_at_match_the_dense_oracle(m, lam, t):
    field = FieldConfig(m)
    atom = AtomState(lam)
    report = entropies_at(atom, field, ModelParams(), t)
    joint = propagated_joint(atom, field, ModelParams(), t)
    dims = (2, field.n_max + 1)
    oracle_dem = relative_entropy(joint, marginal_product(joint, dims))
    assert abs(report.dem - oracle_dem) <= 1e-8
    binary = -sum(p * math.log(p) for p in (atom.lambda0, atom.lambda1) if p > 0)
    assert abs(report.s_joint - binary) <= 1e-10
    assert min(report.al_margins) >= -1e-8
    if lam in (0.0, 1.0):
        # a pure joint state: both marginals share one spectrum
        assert abs(report.s_atom - report.s_field) <= 1e-8
    # the transition column: the excited-start population of the dense run
    excited = propagated_joint(AtomState(0.0), field, ModelParams(), t)
    population = np.trace(excited[field.n_max + 1 :, field.n_max + 1 :]).real
    c_exact = closed_form_coeffs(atom, field, ModelParams(), t).c_exact
    assert abs(c_exact - population) <= 1e-10


HALF_T1_M50 = math.pi * math.sqrt(50.0)


@pytest.mark.parametrize(
    "m, lam, t",
    [(5.0, 0.0, 7.0), (5.0, 1.0, 7.0), (50.0, 0.0, 57.0), (50.0, 1.0, 57.0),
     (5.0, 0.7, 0.0), (50.0, 0.3, 0.0), (0.0, 0.7, 0.0), (0.0, 0.7, 2.0),
     (50.0, 0.7, HALF_T1_M50), (50.0, 0.7, 0.98 * HALF_T1_M50), (50.0, 0.0, HALF_T1_M50)],
    ids=["pure-m5-ground", "pure-m5-excited", "pure-m50-ground", "pure-m50-excited",
         "product-m5", "product-m50", "vacuum-t0", "vacuum", "half-T1-m50",
         "near-half-T1-m50", "half-T1-m50-pure"],
)
def test_field_entropy_matches_the_dense_marginal_where_the_gram_degenerates(m, lam, t):
    # the field marginal's spectrum comes from a 4x4 Gram, which has zero or
    # near-zero columns for a pure joint state (lambda0 in {0, 1}), a product
    # state (t = 0), the vacuum (m = 0) and near T1/2, where the atom is close
    # to pure
    field = FieldConfig(m)
    atom = AtomState(lam)
    report = entropies_at(atom, field, ModelParams(), t)
    joint = vector_joint(atom, field, ModelParams(), t)
    marginal = partial_trace(joint, (2, field.n_levels), "field")
    assert abs(report.s_field - von_neumann_entropy(marginal)) <= 1e-12


def gram_at_40_digits(mpmath, atom, field, params, t):
    """The field's 4x4 Gram at time t, as entropies_at forms it from
    field.weights, at mpmath's working precision.  The excited level is
    multiplied by i and psi_e by -i, local unitaries that make every entry
    real and leave the spectrum as it is."""
    weights = [mpmath.mpf(float(w)) for w in field.weights]
    norm = mpmath.sqrt(mpmath.fsum(weights))
    amps = [mpmath.sqrt(w) / norm for w in weights]
    phases = [mpmath.mpf(params.g) * mpmath.sqrt(n + 1) * mpmath.mpf(t)
              for n in range(field.n_lo, field.n_max)]
    cos, sin = [mpmath.cos(x) for x in phases], [mpmath.sin(x) for x in phases]
    zero = mpmath.mpf(0)
    rows = [  # sqrt(lambda_k) psi_k[a, :] by start k and atom level a
        [amps[0], *(c * a for c, a in zip(cos, amps[1:]))],
        [*(s * a for s, a in zip(sin, amps[1:])), zero],
        [zero, *(-s * a for s, a in zip(sin, amps[:-1]))],
        [*(c * a for c, a in zip(cos, amps[:-1])), amps[-1]],
    ]
    scale = [mpmath.sqrt(mpmath.mpf(lam)) for lam in
             (atom.lambda0, atom.lambda0, atom.lambda1, atom.lambda1)]
    return mpmath.matrix([[si * sj * mpmath.fsum(a * b for a, b in zip(ri, rj))
                           for sj, rj in zip(scale, rows)] for si, ri in zip(scale, rows)])


def test_field_entropy_matches_a_40_digit_gram():
    # at the CLI defaults the field Gram has an eigenvalue 8.4e-15 at t = 0.05
    # and 9.8e-13 at t = 0.75, and each -p ln p counts: a fixed 1e-12 clip
    # left s_field 2.8e-13 and 2.8e-11 low (measured gaps now 1.5e-16, 2.2e-16)
    mpmath = pytest.importorskip("mpmath")
    atom, field, params = AtomState(0.7), FieldConfig(5.0), ModelParams()
    times = [0.05, 0.75]
    s_field = entropies_at(atom, field, params, times).s_field
    for t, value in zip(times, s_field):
        with mpmath.workdps(40):
            gram = gram_at_40_digits(mpmath, atom, field, params, t)
            spectrum = mpmath.eigsy(gram, eigvals_only=True)
            exact = -mpmath.fsum(p * mpmath.log(p) for p in spectrum if p > 0)
        assert abs(value - float(exact)) <= 1e-14


@pytest.mark.parametrize("m", [5.0, 50.0, 200.0, 1e3])
def test_field_entropy_matches_the_vector_oracle_gram(m):
    # s_field at a mixed lambda0 against the 4x4 Gram of the oracle's own
    # evolved vectors on its own Poisson amplitudes, summed as -p ln p over
    # every p > 0 with no floor.  At t = 0.75 the smallest eigenvalue is
    # 9.6e-13, 3.0e-10, 8.2e-12 and 1.9e-13 at m = 5, 50, 200 and 1e3;
    # measured gap at most 2.1e-15 (m = 50, lambda0 = 0.3, t = 0.75)
    field, params = FieldConfig(m), ModelParams()
    t1 = revival_period(field, params)
    times = np.array([0.75, 0.5 * t1, 2.3 * t1])
    amps = coherent_amplitudes(field.mean_photons, field.n_max, field.n_lo)
    psi_g, psi_e = full_range_vectors(amps, params, times, field.n_lo)
    # each state's rows by atom level, shaped (T, 2, W)
    psi_g, psi_e = (psi.reshape(len(times), 2, -1) for psi in (psi_g, psi_e))
    for lam in (0.3, 0.7):
        rows = np.concatenate([math.sqrt(lam) * psi_g, math.sqrt(1.0 - lam) * psi_e], axis=1)
        p = np.linalg.eigvalsh(rows @ rows.conj().swapaxes(-1, -2))
        live = np.where(p > 0.0, p, 1.0)
        oracle = -np.sum(live * np.log(live), axis=-1)
        s_field = entropies_at(AtomState(lam), field, params, times).s_field
        assert np.abs(s_field - oracle).max() <= 5e-15


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    log_m=st.floats(0.0, math.log(200.0)),
    g=st.floats(0.5, 2.0),
    lam=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    revivals=st.floats(0.0, 3.0),
)
@example(log_m=math.log(200.0), g=0.5, lam=0.0, revivals=3.0)
@example(log_m=math.log(200.0), g=2.0, lam=1.0, revivals=0.5)
def test_entropies_hold_their_identities_up_to_m_200(log_m, g, lam, revivals):
    # m log-uniform in [1, 200] and t in [0, 3 T1]; the atom marginal is
    # checked against the O(W) Poisson sums, not the dense propagator
    field = FieldConfig(math.exp(log_m))
    params = ModelParams(g=g)
    atom = AtomState(lam)
    t = revivals * revival_period(field, params)
    report = entropies_at(atom, field, params, t)
    binary = -sum(p * math.log(p) for p in (atom.lambda0, atom.lambda1) if p > 0)
    assert abs(report.s_joint - binary) <= 1e-10
    if lam in (0.0, 1.0):
        assert abs(report.s_atom - report.s_field) <= 1e-8
    assert min(report.al_margins) >= -AL_SLACK
    assert abs(closed_form_coeffs(atom, field, params, 0.0).c_exact - 1.0) <= 1e-15
    p = np.zeros(field.n_max + 1)
    amps = coherent_amplitudes(field.mean_photons, field.n_max, field.n_lo)
    p[field.n_lo :] = np.abs(amps) ** 2
    excited = excited_population(p, lam, g, t)
    coherence = atom_coherence(p, lam, g, t)
    rho_atom = np.array([[1.0 - excited, coherence], [np.conj(coherence), excited]])
    assert abs(report.s_atom - von_neumann_entropy(rho_atom)) <= 1e-10
