import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kzsim import model, smallmat
from kzsim.errors import KzsimError
from kzsim.model import ModelParams, triplet_block
from kzsim.smallmat import hermitian_eig, unitary_step

from oracles import (cardano_eigvals3, cardano_eigvec3, jacobi, lead_phases, lexsort_order,
                     random_hermitian, series_expm_minus_i)

SX = np.array([[0, 1], [1, 0]], dtype=complex)


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
    # every entry off its conjugate transpose, and a defect just above the tolerance
    for m in ([[1j, 1], [0, 1j]], [[0, 1e-6], [0, 0]]):
        with pytest.raises(KzsimError, match=r"max\|M - M\^dag\| = .* exceeds 1e-12"):
            hermitian_eig(np.array(m, dtype=complex))
    hermitian_eig(np.array([[0, 1e-12], [0, 0]]))  # a defect of exactly HERMITIAN_TOL passes


def test_dimension_limits():
    with pytest.raises(KzsimError, match=r"^dimension 5 outside the supported range 2\.\.4$"):
        hermitian_eig(np.eye(5, dtype=complex))
    with pytest.raises(KzsimError, match=r"^dimension 1 outside the supported range 2\.\.4$"):
        hermitian_eig(np.eye(1, dtype=complex))


def test_degenerate_ordering_by_basis_index():
    # exactly degenerate pair: order inside the cluster follows the basis
    # index of the largest component
    sd = hermitian_eig(np.diag([2.0, 1.0, 1.0]).astype(complex))
    assert np.allclose(sd.eigenvalues, [1.0, 1.0, 2.0])
    assert int(np.argmax(np.abs(sd.eigenvectors[:, 0]))) == 1
    assert int(np.argmax(np.abs(sd.eigenvectors[:, 1]))) == 2
    # the cluster tolerance scales with the spectrum: at 1e3 a split of 1e-7 is a cluster
    assert hermitian_eig(np.diag([1e3 + 1e-7, 1e3])).eigenvalues.tolist() == [1e3 + 1e-7, 1e3]
    # and a split of exactly DEGENERACY_TOL at scale 1 is one
    assert hermitian_eig(np.diag([1e-9, 0.0])).eigenvalues.tolist() == [1e-9, 0.0]
    # in a rotated basis, where the plain sort gives another order
    for dim in (2, 3, 4):
        degenerate = special_members(dim)[0]
        single, stacked = hermitian_eig(degenerate), hermitian_eig(np.stack([degenerate] * 2))
        for w, v in ((single.eigenvalues, single.eigenvectors),
                     (stacked.eigenvalues[1], stacked.eigenvectors[1])):
            in_cluster = np.diff(w) <= smallmat.DEGENERACY_TOL * max(1.0, np.max(np.abs(w)))
            assert in_cluster.any()
            assert np.all(np.diff(np.argmax(np.abs(v), axis=0))[in_cluster] >= 0), dim


def test_unitary_step_zero_time():
    m = triplet_block(ModelParams(bx=0.3, bz=0.4))
    assert np.allclose(unitary_step(m, 0.0), np.eye(3), atol=1e-14)
    with pytest.raises(KzsimError, match="time step must be finite, got nan"):
        unitary_step(m, math.nan)


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


def test_phase_convention():
    for seed in range(20):
        h = random_hermitian(np.random.default_rng(seed), 3)
        sd = hermitian_eig(h)
        for j in range(3):
            col = sd.eigenvectors[:, j]
            lead = col[int(np.argmax(np.abs(col)))]
            assert abs(lead.imag) < 1e-12
            assert lead.real > 0


# seeds of random_hermitian whose matrix needs the most sweeps of the
# Jacobi oracle among seeds 0..999: 2, 5 and 6 passes of its convergence
# check for dimension 2, 3 and 4
SLOWEST_SEED = {2: 999, 3: 999, 4: 986}


def special_members(dim):
    """A degenerate matrix, diag(2, 1, 1) in a rotated basis, whose cluster
    the plain sort would order differently from the cluster rule; one with
    exact zero off-diagonal elements, some of them negative zeros; and the
    one the Jacobi oracle converges on most slowly."""
    u = unitary_step(random_hermitian(np.random.default_rng(0), dim), 1.0)
    degenerate = u @ np.diag({2: [1.0, 1.0], 3: [2.0, 1.0, 1.0],
                              4: [2.0, 1.0, 1.0, 3.0]}[dim]) @ u.conj().T
    skipping = np.diag(np.arange(dim, dtype=float)).astype(complex)
    skipping[0, 1], skipping[1, 0] = complex(-0.0, -0.5), complex(-0.0, 0.5)
    skipping[2:, :2], skipping[:2, 2:] = complex(-0.0, -0.0), complex(-0.0, 0.0)
    slowest = random_hermitian(np.random.default_rng(SLOWEST_SEED[dim]), dim)
    return [degenerate, skipping, slowest]


def stacks():
    """Random Hermitian stacks seeded with the special members, shuffled."""
    def build(args):
        dim, seed, size = args
        rng = np.random.default_rng(seed)
        members = [random_hermitian(rng, dim) for _ in range(size)] + special_members(dim)
        return np.stack([members[i] for i in rng.permutation(len(members))])
    return st.tuples(st.integers(2, 4), st.integers(0, 2**32 - 1), st.integers(0, 12)).map(build)


@settings(max_examples=40, deadline=None)
@given(stacks(), st.floats(-2.0, 2.0))
def test_stack_bits_match_single_calls(stack, delta):
    sd = hermitian_eig(stack)
    u = unitary_step(stack, delta)
    for i, h in enumerate(stack):
        one = hermitian_eig(h)
        assert sd.eigenvalues[i].tobytes() == one.eigenvalues.tobytes()
        assert sd.eigenvectors[i].tobytes() == one.eigenvectors.tobytes()
        assert sd.gap[i] == one.gap
        assert u[i].tobytes() == unitary_step(h, delta).tobytes()


def oracle_eig(stack):
    """``np.linalg.eigh`` of the symmetrized stack, then the oracle order and phases."""
    w, v = lexsort_order(*np.linalg.eigh((stack + np.swapaxes(stack.conj(), -1, -2)) / 2.0))
    return w, lead_phases(v)


@settings(max_examples=40, deadline=None)
@given(stacks())
def test_order_and_phases_match_oracles(stack):
    sd = hermitian_eig(stack)
    w, v = oracle_eig(stack)
    assert sd.eigenvalues.tobytes() == w.tobytes()
    assert sd.eigenvectors.tobytes() == v.tobytes()


def test_clustered_permutation_matches_oracles():
    # the degenerate members of dimension 2 and 3, between matrices with no
    # cluster: eigh's order inside their clusters is not the cluster rule's
    rng = np.random.default_rng(11)
    for dim in (2, 3):
        stack = np.stack([random_hermitian(rng, dim), special_members(dim)[0], random_hermitian(rng, dim)])
        w, v = np.linalg.eigh(stack)
        assert not np.array_equal(lexsort_order(w, v)[1], v), dim  # a non-identity permutation
        sd = hermitian_eig(stack)
        ow, ov = oracle_eig(stack)
        assert sd.eigenvalues.tobytes() == ow.tobytes()
        assert sd.eigenvectors.tobytes() == ov.tobytes()


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_special_members_take_their_paths(dim):
    degenerate = special_members(dim)[0]
    sd = hermitian_eig(degenerate)
    assert np.min(np.diff(sd.eigenvalues)) <= smallmat.DEGENERACY_TOL  # a cluster


def test_matches_jacobi_oracle():
    """LAPACK against the scalar Jacobi of tests/oracles.py, which does not
    use it: eigenvalues within 1e-12 of the spectral scale max(1, max|w|),
    and |<v_oracle|v>| within 1e-10 of 1 for every level farther than 1e-6
    of that scale from its neighbours."""
    groups = [*kernel_groups(), *(special_members(dim) for dim in (2, 3, 4))]
    for group in groups:
        stacked = hermitian_eig(np.stack(group))
        for i, h in enumerate(group):
            w_oracle, v_oracle = jacobi(h)
            order = np.argsort(w_oracle, kind="stable")
            w_oracle, v_oracle = w_oracle[order], v_oracle[:, order]
            scale = max(1.0, float(np.max(np.abs(w_oracle))))
            gaps = np.diff(w_oracle)
            simple = np.minimum(np.r_[np.inf, gaps], np.r_[gaps, np.inf]) > 1e-6 * scale
            one = hermitian_eig(h)
            for w, v in ((one.eigenvalues, one.eigenvectors),
                         (stacked.eigenvalues[i], stacked.eigenvectors[i])):
                assert np.max(np.abs(w - w_oracle)) <= 1e-12 * scale
                overlap = np.abs(np.sum(v_oracle.conj() * v, axis=0))
                assert np.all(np.abs(overlap - 1.0)[simple] <= 1e-10)


@pytest.mark.parametrize("fn", [hermitian_eig, lambda m: unitary_step(m, 0.1)])
def test_bad_stack_member_raises_like_single_call(fn):
    rng = np.random.default_rng(4)
    for dim in (2, 3, 4):
        stack = np.stack([random_hermitian(rng, dim) for _ in range(5)])
        non_hermitian = stack.copy()
        non_hermitian[2, 0, 1] += 1e-6
        non_finite = stack.copy()
        non_finite[3, 1, 1] = np.nan
        for bad, member, message in ((non_hermitian, 2, "exceeds"),
                                     (non_finite, 3, "must be finite")):
            with pytest.raises(KzsimError, match=message):
                fn(bad[member])
            with pytest.raises(KzsimError, match=message):
                fn(bad)
    for shape, message in (((5, 5), "dimension 5 outside"), ((1, 1), "dimension 1 outside"),
                           ((3, 4), "expected a square matrix")):
        with pytest.raises(KzsimError, match=message):
            fn(np.zeros(shape, dtype=complex))
        with pytest.raises(KzsimError, match=message):
            fn(np.zeros((3, *shape), dtype=complex))
    with pytest.raises(KzsimError, match=r"got shape \(2, 3, 3, 3\)"):  # a stack of stacks
        fn(np.zeros((2, 3, 3, 3), dtype=complex))


def test_empty_stack():
    sd = hermitian_eig(np.zeros((0, 3, 3), dtype=complex))
    assert sd.eigenvalues.shape == (0, 3) and sd.eigenvectors.shape == (0, 3, 3)
    assert unitary_step(np.zeros((0, 2, 2), dtype=complex), 0.5).shape == (0, 2, 2)


def test_jacobi_non_convergence_raises(monkeypatch):
    # a LAPACK failure and a non-finite result both refuse the decomposition
    def raising(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    def not_finite(a):
        return np.full(a.shape[:-1], np.nan), a

    h = random_hermitian(np.random.default_rng(3), 4)
    for eigh in (raising, not_finite):
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        with pytest.raises(KzsimError, match="^eigendecomposition of a 4x4 matrix"):
            hermitian_eig(h)
        with pytest.raises(KzsimError, match="^eigendecomposition of a 4x4 matrix"):
            unitary_step(np.stack([h, h]), 0.1)


def test_symmetrization_overflow_rejected():
    # finite entries whose (M + M^dag)/2 overflows
    for m in (np.diag([1.7e308, 1.0]), np.stack([np.eye(3), np.diag([1.0, -1.7e308, 0.0])])):
        with pytest.raises(KzsimError, match="overflows"):
            hermitian_eig(m)



def test_refusals_keep_their_order():
    # a non-finite entry is named first, then the Hermitian defect, then the overflow
    for m, message in ((np.array([[np.nan, 0.0], [1.0, 0.0]]), "must be finite"),
                       (np.diag([np.inf, -np.inf]), "must be finite"),
                       (np.array([[0.0, complex(1.0, np.inf)], [np.inf, 0.0]]), "must be finite"),
                       (np.stack([np.eye(2), np.diag([np.nan, 1.0])]), "must be finite"),
                       (np.array([[1.7e308, 1.0], [0.0, 1.0]]), "exceeds"),
                       # M - M^dag overflows to inf, with no RuntimeWarning
                       (np.array([[0.0, 1e308], [-1e308, 0.0]]), "= inf exceeds"),
                       (np.diag([1.7e308, 1.0]), "overflows")):
        with pytest.raises(KzsimError, match=message):
            hermitian_eig(m)


# sha256 of the eigenvalues, eigenvectors and 0.01-unit propagators of
# kernel_groups(); like tests/golden, tied to this numpy, its bundled
# OpenBLAS/LAPACK build and the CPU kernels it picks at run time
KERNEL_BITS = "b76ebc1d29f362a62356fa14fbaf0f4e03ebcc38b63f3c6da89fe2ae9fdd3bf4"


def kernel_groups():
    """Substep-like Hamiltonians of each kind plus random matrices, grouped
    by dimension."""
    rng = np.random.default_rng(2024)
    bz = [float(b) for b in np.linspace(-1.5, 1.5, 31)]
    return [
        [model.driven_hamiltonian(ModelParams(bx=0.2, bz=b)) for b in bz],
        [model.triplet_block(ModelParams(bx=0.1, bz=b)) for b in bz],
        [model.effective_hamiltonian(ModelParams(bx=0.1, bz=b)) for b in bz],
        *([random_hermitian(rng, dim) for _ in range(20)] for dim in (2, 3, 4)),
    ]


def test_kernel_bits_pinned():
    single, stacked = hashlib.sha256(), hashlib.sha256()
    for group in kernel_groups():
        for h in group:
            sd = hermitian_eig(h)
            for part in (sd.eigenvalues, sd.eigenvectors, unitary_step(h, 0.01)):
                single.update(part.tobytes())
        sd = hermitian_eig(np.stack(group))
        u = unitary_step(np.stack(group), 0.01)
        for i in range(len(group)):
            for part in (sd.eigenvalues[i], sd.eigenvectors[i], u[i]):
                stacked.update(part.tobytes())
    assert single.hexdigest() == KERNEL_BITS
    assert stacked.hexdigest() == KERNEL_BITS
