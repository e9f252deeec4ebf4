import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kzsim.errors import DimensionMismatch, NonHermitianInput
from kzsim.model import ModelParams, triplet_block
from kzsim.smallmat import hermitian_eig, unitary_step

from oracles import cardano_eigvals3, cardano_eigvec3, random_hermitian, series_expm_minus_i

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def hermitians(dim):
    """Hypothesis strategy for random Hermitian matrices of one dimension."""
    return st.integers(0, 2**32 - 1).map(
        lambda seed: random_hermitian(np.random.default_rng(seed), dim)
    )


def test_diagonal_matrix():
    sd = hermitian_eig(np.diag([1.0, 2.0]).astype(complex))
    assert np.allclose(sd.eigenvalues, [1.0, 2.0])
    assert np.allclose(np.abs(sd.eigenvectors), np.eye(2))
    assert sd.gap == pytest.approx(1.0)
    assert sd.tau == pytest.approx(1.0)


def test_pauli_x():
    sd = hermitian_eig(SX)
    assert np.allclose(sd.eigenvalues, [-1.0, 1.0])
    s = 1 / math.sqrt(2)
    assert np.allclose(np.abs(sd.eigenvectors), [[s, s], [s, s]], atol=1e-12)
    # phase convention: largest component real positive; for the minus state
    # that makes the first component +s and the second -s
    assert sd.eigenvectors[0, 0] == pytest.approx(s)
    assert sd.eigenvectors[1, 0] == pytest.approx(-s)


def test_triplet_block_against_characteristic_polynomial():
    # crossing-point block: ground weight split evenly between |00> and
    # |phi+>, |11> suppressed to O(bx^2)
    m = triplet_block(ModelParams(bx=0.1, bz=-1.0))
    w_oracle = cardano_eigvals3(m.real)
    v_oracle = cardano_eigvec3(m.real, w_oracle[0])
    sd = hermitian_eig(m)
    assert np.allclose(sd.eigenvalues, w_oracle, atol=1e-12)
    pops = np.abs(sd.eigenvectors[:, 0]) ** 2
    assert np.allclose(pops, v_oracle**2, atol=1e-12)
    # frozen oracle values
    assert pops[0] == pytest.approx(0.4911783274174877, abs=1e-12)
    assert pops[1] == pytest.approx(0.5082297281677901, abs=1e-12)
    assert pops[2] == pytest.approx(0.0005919444147221, abs=1e-12)
    assert pops[2] < 0.1 * 0.1  # O(bx^2)


def test_non_hermitian_rejected():
    with pytest.raises(NonHermitianInput):
        hermitian_eig(np.array([[0, 1e-6], [0, 0]], dtype=complex))


def test_dimension_limits():
    with pytest.raises(DimensionMismatch):
        hermitian_eig(np.eye(5, dtype=complex))
    with pytest.raises(DimensionMismatch):
        hermitian_eig(np.eye(1, dtype=complex))


def test_degenerate_ordering_by_basis_index():
    # exactly degenerate pair: order inside the cluster follows the basis
    # index of the largest component
    sd = hermitian_eig(np.diag([2.0, 1.0, 1.0]).astype(complex))
    assert np.allclose(sd.eigenvalues, [1.0, 1.0, 2.0])
    assert int(np.argmax(np.abs(sd.eigenvectors[:, 0]))) == 1
    assert int(np.argmax(np.abs(sd.eigenvectors[:, 1]))) == 2


def test_degenerate_ordering_follows_prev():
    # previous step had e1 in slot 0 and e0 in slot 1; the degenerate pair
    # of the new matrix is ordered to match
    prev = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    sd = hermitian_eig(np.diag([1.0, 1.0, 2.0]).astype(complex), prev=prev)
    assert int(np.argmax(np.abs(sd.eigenvectors[:, 0]))) == 1
    assert int(np.argmax(np.abs(sd.eigenvectors[:, 1]))) == 0


def test_unitary_step_zero_time():
    m = triplet_block(ModelParams(bx=0.3, bz=0.4))
    assert np.allclose(unitary_step(m, 0.0), np.eye(3), atol=1e-14)


def test_unitary_step_pauli_identity():
    u = unitary_step(SX, math.pi / 2)
    assert np.allclose(u, -1j * SX, atol=1e-12)


def test_unitary_step_against_series():
    h = triplet_block(ModelParams(bx=0.1, bz=-1.5))
    u = unitary_step(h, 0.1)
    assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-12
    u_oracle = series_expm_minus_i(h, 0.1, terms=20)
    assert np.max(np.abs(u - u_oracle)) < 1e-12
    # phase-evolves the ground state
    sd = hermitian_eig(h)
    g = sd.eigenvectors[:, 0]
    expected = np.exp(-1j * 0.1 * sd.eigenvalues[0]) * g
    assert np.max(np.abs(u @ g - expected)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_round_trip_reconstruction(dim, seed):
    h = random_hermitian(np.random.default_rng(seed), dim)
    sd = hermitian_eig(h)
    rebuilt = (sd.eigenvectors * sd.eigenvalues) @ sd.eigenvectors.conj().T
    assert np.max(np.abs(rebuilt - h)) < 1e-9
    gram = sd.eigenvectors.conj().T @ sd.eigenvectors
    assert np.max(np.abs(gram - np.eye(dim))) < 1e-10
    # residual of every eigenpair
    res = h @ sd.eigenvectors - sd.eigenvectors * sd.eigenvalues
    assert np.max(np.abs(res)) < 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2**32 - 1),
       st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_unitary_step_additivity(dim, seed, a, b):
    h = random_hermitian(np.random.default_rng(seed), dim)
    u_ab = unitary_step(h, a + b)
    u_split = unitary_step(h, a) @ unitary_step(h, b)
    assert np.max(np.abs(u_ab - u_split)) < 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_eigenvalues_invariant_under_conjugation(dim, seed_h, seed_u):
    h = random_hermitian(np.random.default_rng(seed_h), dim)
    u = unitary_step(random_hermitian(np.random.default_rng(seed_u), dim), 1.0)
    sd1 = hermitian_eig(h)
    sd2 = hermitian_eig(u @ h @ u.conj().T)
    assert np.max(np.abs(sd1.eigenvalues - sd2.eigenvalues)) < 1e-9


def test_deterministic_output():
    h = random_hermitian(np.random.default_rng(7), 4)
    sd1 = hermitian_eig(h)
    sd2 = hermitian_eig(h.copy())
    assert np.array_equal(sd1.eigenvalues, sd2.eigenvalues)
    assert np.array_equal(sd1.eigenvectors, sd2.eigenvectors)


def test_phase_convention():
    for seed in range(20):
        h = random_hermitian(np.random.default_rng(seed), 3)
        sd = hermitian_eig(h)
        for j in range(3):
            col = sd.eigenvectors[:, j]
            lead = col[int(np.argmax(np.abs(col)))]
            assert abs(lead.imag) < 1e-12
            assert lead.real > 0
