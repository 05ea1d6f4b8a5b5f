"""Tests for the linear-algebra oracles of tests/oracles.py: tensor
products, the partial trace, the full eigensystem and the Poisson-sum Grams."""

import math

import numpy as np
import pytest

from oracles import (
    EigenSystem,
    atom_matrix,
    coherent_state,
    evolve_vectors,
    hermitian_eigensystem,
    initial_joint_state,
    partial_trace,
    poisson_grams,
)

from jcdem.analysis import revival_period
from jcdem.model import AtomState, FieldConfig, ModelParams


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


def test_tensor_product_matches_index_formula():
    # the joint state puts the atom outermost, the layout partial_trace reads
    atom = AtomState(0.7)
    field = FieldConfig(1.0)
    na = field.n_max + 1
    rho_a = atom_matrix(atom)
    omega = coherent_state(field.mean_photons, field.n_max)
    joint = initial_joint_state(atom, field)
    expected = np.empty((2 * na, 2 * na), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(na):
                for l in range(na):
                    expected[i * na + k, j * na + l] = rho_a[i, j] * omega[k, l]
    assert np.abs(joint - expected).max() <= 1e-15
    assert np.allclose(partial_trace(joint, (2, na), "atom"), rho_a, atol=1e-12)


def test_tensor_product_projectors():
    # excited atom (x) vacuum is the projector onto |2,0>
    field = FieldConfig(0.0)
    joint = initial_joint_state(AtomState(0.0), field)
    expected = np.zeros_like(joint)
    expected[field.n_max + 1, field.n_max + 1] = 1.0
    assert np.array_equal(joint, expected)


def test_partial_trace_product_state():
    rng = np.random.default_rng(13)
    rho_a = random_density(rng, 2)
    rho_f = random_density(rng, 3)
    joint = np.kron(rho_a, rho_f)
    assert np.allclose(partial_trace(joint, (2, 3), "atom"), rho_a, atol=1e-12)
    assert np.allclose(partial_trace(joint, (2, 3), "field"), rho_f, atol=1e-12)


def test_partial_trace_bell_state():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
    joint = np.outer(psi, psi.conj())
    assert np.allclose(partial_trace(joint, (2, 2), "atom"), np.eye(2) / 2, atol=1e-12)
    assert np.allclose(partial_trace(joint, (2, 2), "field"), np.eye(2) / 2, atol=1e-12)


def test_partial_trace_matches_brute_force():
    rng = np.random.default_rng(14)
    joint = random_density(rng, 4)
    kept_atom = np.zeros((2, 2), dtype=complex)
    kept_field = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for n in range(2):
                kept_atom[i, j] += joint[i * 2 + n, j * 2 + n]
                kept_field[i, j] += joint[n * 2 + i, n * 2 + j]
    assert np.abs(partial_trace(joint, (2, 2), "atom") - kept_atom).max() <= 1e-12
    assert np.abs(partial_trace(joint, (2, 2), "field") - kept_field).max() <= 1e-12


def test_partial_trace_of_a_stack_traces_each_member():
    rng = np.random.default_rng(20)
    stack = np.array([random_density(rng, 6) for _ in range(3)]).reshape(3, 1, 6, 6)
    for keep, width in (("atom", 2), ("field", 3)):
        reduced = partial_trace(stack, (2, 3), keep)
        assert reduced.shape == (3, 1, width, width)
        for i in range(3):
            member = partial_trace(stack[i, 0], (2, 3), keep)
            assert np.array_equal(reduced[i, 0], member)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(15)
    joint = random_density(rng, 6)
    for keep in ("atom", "field"):
        reduced = partial_trace(joint, (2, 3), keep)
        assert np.isclose(np.trace(reduced), np.trace(joint), atol=1e-12)


def test_partial_trace_rejects_bad_factorization():
    with pytest.raises(ValueError):
        partial_trace(np.eye(6), (2, 2), "atom")
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), (2, 2), "both")
    with pytest.raises(ValueError):
        partial_trace(np.ones(4), (2, 2), "atom")


def test_eigensystem_diagonal():
    es = hermitian_eigensystem(np.diag([0.3, 0.7]))
    assert np.allclose(es.eigenvalues, [0.3, 0.7])


def test_eigensystem_pauli_x():
    es = hermitian_eigensystem(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(es.eigenvalues, [-1.0, 1.0])


def test_eigensystem_reconstructs_input():
    rng = np.random.default_rng(16)
    m = random_hermitian(rng, 10)
    w, v = hermitian_eigensystem(m)
    assert np.abs(v @ np.diag(w) @ v.conj().T - m).max() <= 1e-10
    assert np.abs(v.conj().T @ v - np.eye(10)).max() <= 1e-10
    assert np.isclose(w.sum(), np.trace(m).real, atol=1e-10)


def test_eigensystem_eigenvalues_ascend():
    rng = np.random.default_rng(17)
    w = hermitian_eigensystem(random_hermitian(rng, 8)).eigenvalues
    assert np.all(np.diff(w) >= 0)


def test_eigensystem_is_named_tuple():
    es = hermitian_eigensystem(np.eye(2))
    assert isinstance(es, EigenSystem)
    assert es.eigenvalues is es[0] and es.eigenvectors is es[1]


def test_eigensystem_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigensystem_rejects_non_square():
    with pytest.raises(ValueError):
        hermitian_eigensystem(np.zeros((2, 3)))


def test_eigensystem_symmetrizes_round_off():
    rng = np.random.default_rng(18)
    m = random_hermitian(rng, 5)
    perturbed = m + 1e-13 * rng.normal(size=(5, 5))
    w, _ = hermitian_eigensystem(perturbed)
    assert np.allclose(w, hermitian_eigensystem(m).eigenvalues, atol=1e-11)


@pytest.mark.parametrize("m", [5.0, 50.0, 200.0, 1e3, 1e4, 1e6])
def test_poisson_grams_match_the_grams_of_the_evolved_vectors(m):
    # both sides are O(W) per time, so the check reaches m = 1e6 (W = 14 510);
    # lambda0 = 0.3 weighs the two starts apart, so every entry's weight shows.
    # Measured gap at most 4.4e-16 (field) and 5.6e-16 (joint) over lambda0 in
    # {0.3, 0.7}
    field, params, lam = FieldConfig(m), ModelParams(), 0.3
    t1 = revival_period(field, params)
    times = np.array([0.0, 0.75, 0.5 * t1, t1, 37.15])
    psi_g, psi_e = evolve_vectors(field, params, times)
    b = np.stack([math.sqrt(lam) * psi_g, math.sqrt(1.0 - lam) * psi_e], axis=-1)
    # rows sqrt(lambda_k) psi_k[a, :] by start k, then atom level a
    rows = b.reshape(len(times), 2, -1, 2).transpose(0, 3, 1, 2).reshape(len(times), 4, -1)
    field_gram, joint_gram = poisson_grams(AtomState(lam), field, params, times)
    assert np.abs(field_gram - rows @ rows.conj().swapaxes(-1, -2)).max() <= 1e-15
    assert np.abs(joint_gram - b.swapaxes(-1, -2) @ b.conj()).max() <= 1.5e-15
