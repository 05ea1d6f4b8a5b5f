"""Tests for entropy functionals and the entanglement degree."""

import math

import numpy as np
import pytest

from jcdem.entropy import (
    dem_closed_form,
    dem_exact,
    relative_entropy,
    von_neumann_entropy,
)
from jcdem.linalg import partial_trace
from jcdem.model import (
    AtomState,
    ClosedFormCoeffs,
    FieldConfig,
    ModelParams,
    closed_form_coeffs,
    evolve,
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
    assert von_neumann_entropy(np.diag([1.0, 0.0, 0.0])) == 0.0


def test_entropy_of_maximally_mixed_qubit():
    assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(math.log(2.0))
    assert von_neumann_entropy(np.eye(2) / 2, log_base="2") == pytest.approx(1.0)


def test_entropy_binary_value():
    assert von_neumann_entropy(np.diag([0.7, 0.3])) == pytest.approx(
        0.6108643020548935, abs=1e-14
    )


def test_entropy_base_covariance():
    rng = np.random.default_rng(21)
    rho = random_density(rng, 5)
    nats = von_neumann_entropy(rho)
    bits = von_neumann_entropy(rho, log_base="2")
    assert abs(bits - nats / math.log(2.0)) <= 1e-12


def test_entropy_clips_round_off_eigenvalues():
    s = von_neumann_entropy(np.diag([1.0 - 1e-13, 1e-13]))
    assert 0.0 <= s <= 1e-10


def test_entropy_rejects_negative_eigenvalue():
    with pytest.raises(ValueError):
        von_neumann_entropy(np.diag([1.001, -0.001]))


def test_entropy_rejects_unknown_base():
    with pytest.raises(ValueError):
        von_neumann_entropy(np.eye(2) / 2, log_base="10")


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
    assert relative_entropy(np.diag(KL_P), np.diag(KL_Q), log_base="2") == (
        pytest.approx(KL_FROZEN / math.log(2.0), abs=1e-13)
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
    co = ClosedFormCoeffs(s=0.0, c=1.0, e1=0.3, e4=0.7, e2_mag=0.0, e3_mag=0.0)
    assert dem_closed_form(co) == pytest.approx(0.6108643020548935, abs=1e-12)
    pure = ClosedFormCoeffs(s=0.0, c=1.0, e1=1.0, e4=0.0, e2_mag=0.0, e3_mag=0.0)
    assert dem_closed_form(pure) == 0.0


def test_closed_form_dem_balanced_atom_keeps_diagonal_terms():
    co = ClosedFormCoeffs(s=0.4, c=0.6, e1=0.5, e4=0.5, e2_mag=0.0, e3_mag=0.0)
    expected = -0.5 * math.log(0.5) - 0.5 * math.log(0.5)
    assert dem_closed_form(co) == pytest.approx(expected, abs=1e-12)


def test_closed_form_dem_over_times_matches_pointwise():
    field = FieldConfig.from_mean_photons(5.0)
    atom = AtomState.from_ground_weight(0.7)
    times = np.arange(0.0, 10.0, 0.5)
    grid = dem_closed_form(closed_form_coeffs(times, atom, field, ModelParams()))
    assert grid.shape == times.shape
    for t, value in zip(times, grid):
        co = closed_form_coeffs(float(t), atom, field, ModelParams())
        assert abs(value - dem_closed_form(co)) <= 1e-14


def test_closed_form_dem_base_covariance():
    co = ClosedFormCoeffs(s=0.3, c=0.7, e1=0.4, e4=0.6, e2_mag=0.1, e3_mag=0.1)
    assert dem_closed_form(co, log_base="2") == pytest.approx(
        dem_closed_form(co) / math.log(2.0), abs=1e-12
    )


def test_dem_exact_on_evolved_state_matches_relative_entropy():
    field = FieldConfig.from_mean_photons(5.0)
    joint = evolve(AtomState.from_ground_weight(0.7), field, ModelParams(), 7.0)
    dims = (2, field.n_max + 1)
    product = np.kron(
        partial_trace(joint, dims, "atom"), partial_trace(joint, dims, "field")
    )
    report = dem_exact(joint, dims)
    assert report.dem == pytest.approx(relative_entropy(joint, product), abs=1e-8)
    assert report.dem >= -1e-9
