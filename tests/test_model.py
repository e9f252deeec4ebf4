import math

import numpy as np
import pytest

from kzsim import model
from kzsim.errors import DegenerateGround, GapClosed, InvalidParam
from kzsim.model import (ModelParams, PHI_MINUS, SWAP, driven_hamiltonian,
                         effective_hamiltonian, ground_state, ground_vector,
                         relaxation_time, triplet_block, triplet_spectrum)

from oracles import cardano_eigvals3, effective_relaxation_time

TAU0_01 = 1.0 / (2.0 * math.sqrt(2) * 0.1)


_TRIPLET_BASIS = np.column_stack([
    [1, 0, 0, 0],
    np.array([0, 1, 1, 0]) / math.sqrt(2),
    [0, 0, 0, 1],
]).astype(complex)


def triplet_eigs(h4):
    """Triplet-sector eigenvalues of a 4x4 via projection plus LAPACK."""
    block = _TRIPLET_BASIS.conj().T @ h4 @ _TRIPLET_BASIS
    return np.linalg.eigvalsh(block)


def ising(bz):
    return driven_hamiltonian(ModelParams(bx=0.0, bz=bz))


def test_ising_levels():
    assert np.allclose(triplet_eigs(ising(0.0)), [-1, 1, 1])
    assert np.allclose(triplet_eigs(ising(-1.0)), [-1, -1, 3])
    h = ising(2.0)
    w, v = np.linalg.eigh(h)
    assert w[0] == pytest.approx(-3.0)
    assert abs(v[3, 0]) ** 2 == pytest.approx(1.0)


def test_driven_reduces_to_ising():
    for bz in (-2.0, -0.3, 1.7):
        assert np.array_equal(driven_hamiltonian(ModelParams(0.0, bz)),
                              np.diag([1 + 2 * bz, -1, -1, 1 - 2 * bz]))


def test_driven_ground_overlap():
    # frozen from the 4x4 LAPACK oracle: the scan start state is |00>-like
    g = ground_vector(ModelParams(bx=0.1, bz=-1.5))
    assert abs(g[0]) ** 2 == pytest.approx(0.980995983742, abs=1e-10)
    assert abs(g[0]) ** 2 > 0.98
    w, v = np.linalg.eigh(driven_hamiltonian(ModelParams(bx=0.1, bz=-1.5)))
    assert abs(np.vdot(v[:, 0], g)) ** 2 == pytest.approx(1.0, abs=1e-10)


def test_avoided_crossings_at_unit_fields():
    # the triplet gap dips to 2*sqrt(2)*bx at bz = +-1 and nowhere deeper
    gaps = {}
    for i in range(-200, 201):
        bz = i / 100.0
        gaps[bz] = triplet_spectrum(ModelParams(bx=0.1, bz=bz)).gap
    assert min(gaps.values()) == pytest.approx(gaps[-1.0], rel=1e-6)
    assert gaps[-1.0] == pytest.approx(gaps[1.0], rel=1e-12)
    assert gaps[-1.0] == pytest.approx(2 * math.sqrt(2) * 0.1, abs=5e-3)


def test_triplet_block_structure():
    p = ModelParams(bx=0.25, bz=-0.7)
    m = triplet_block(p)
    s = math.sqrt(2) * 0.25
    assert np.allclose(np.diag(m).real, [1 + 2 * p.bz, -1, 1 - 2 * p.bz])
    assert m[0, 1] == pytest.approx(s)
    assert m[1, 2] == pytest.approx(s)
    assert m[0, 2] == 0
    assert np.allclose(triplet_block(ModelParams(0.0, -0.7)),
                       np.diag([1 - 1.4, -1, 1 + 1.4]))


def test_triplet_gap_at_crossing():
    sd = triplet_spectrum(ModelParams(bx=0.1, bz=-1.0))
    assert sd.gap == pytest.approx(2 * math.sqrt(2) * 0.1, abs=1e-2)
    # frozen value from the characteristic-polynomial oracle
    assert sd.gap == pytest.approx(0.2827103198001204, abs=1e-12)


def test_triplet_matches_full_hamiltonian():
    rng = np.random.default_rng(42)
    for _ in range(100):
        p = ModelParams(bx=float(rng.uniform(0, 0.5)), bz=float(rng.uniform(-2.5, 2.5)))
        w3 = cardano_eigvals3(triplet_block(p).real)
        assert np.allclose(w3, triplet_eigs(driven_hamiltonian(p)), atol=1e-10)
        assert np.allclose(w3, triplet_spectrum(p).eigenvalues, atol=1e-10)


def test_effective_hamiltonian():
    h = effective_hamiltonian(ModelParams(bx=0.1, bz=-1.0))
    w = np.linalg.eigvalsh(h)
    assert w[1] - w[0] == pytest.approx(2 * math.sqrt(2) * 0.1)
    assert np.allclose(effective_hamiltonian(ModelParams(0.0, -1.0)), np.zeros((2, 2)))


def test_ground_state_pure_phases():
    g = ground_state(ModelParams(bx=0.0, bz=0.0))
    assert (g.c0, g.cplus, g.c1) == (0.0, 1.0, 0.0)
    g = ground_state(ModelParams(bx=0.0, bz=-2.0))
    assert (g.c0, g.cplus, g.c1) == (1.0, 0.0, 0.0)
    g = ground_state(ModelParams(bx=0.0, bz=2.0))  # |11>: c0 = cplus = 0
    assert (g.c0, g.cplus, g.c1) == (0.0, 0.0, 1.0)
    g = ground_state(ModelParams(bx=0.1, bz=-2.0))
    assert g.c0**2 > 0.995
    assert g.c0 > 0
    norm = g.c0**2 + g.cplus**2 + g.c1**2
    assert norm == pytest.approx(1.0, abs=1e-10)


def test_degenerate_ground_raises():
    with pytest.raises(DegenerateGround):
        ground_state(ModelParams(bx=0.0, bz=-1.0))


def test_relaxation_time_values():
    assert effective_relaxation_time(0.1, -1.0) == pytest.approx(TAU0_01)
    assert TAU0_01 == pytest.approx(3.5355339, abs=1e-6)
    # eps = 1 at bz + 1 = sqrt(2) * bx
    bz = -1.0 + math.sqrt(2) * 0.1
    assert effective_relaxation_time(0.1, bz) == pytest.approx(TAU0_01 / math.sqrt(2))
    with pytest.raises(GapClosed):
        relaxation_time(ModelParams(bx=0.0, bz=-1.0))


def test_relaxation_time_peaks_at_critical_points():
    taus = {}
    for i in range(-200, 201):
        bz = i / 100.0
        taus[bz] = relaxation_time(ModelParams(bx=0.1, bz=bz))
    best = max(taus, key=taus.get)
    assert abs(best) == pytest.approx(1.0, abs=0.02)
    assert taus[best] == pytest.approx(taus[-best], rel=1e-12)
    assert taus[best] > 5 * taus[-2.0]
    assert taus[best] == pytest.approx(3.5372, abs=1e-3)


def test_effective_tau_matches_effective_gap():
    rng = np.random.default_rng(3)
    for _ in range(50):
        bx = float(rng.uniform(0.02, 0.5))
        bz = float(rng.uniform(-2.0, 0.5))
        w = np.linalg.eigvalsh(effective_hamiltonian(ModelParams(bx, bz)))
        assert effective_relaxation_time(bx, bz) == pytest.approx(
            1.0 / (w[1] - w[0]), abs=1e-12, rel=1e-12)


def test_swap_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = ModelParams(bx=float(rng.uniform(0, 1)), bz=float(rng.uniform(-3, 3)))
        h = driven_hamiltonian(p)
        comm = h @ SWAP - SWAP @ h
        assert np.max(np.abs(comm)) < 1e-12
        # the singlet is an exact eigenvector with eigenvalue -1
        assert np.max(np.abs(h @ PHI_MINUS - (-1.0) * PHI_MINUS)) < 1e-12


def test_ground_continuity_along_sweep():
    # the floor is set by the fastest eigenvector rotation at the crossing,
    # one half of delta_bz / (sqrt(2) bx) per step: cos of that is 0.99937
    # at bx = 0.1 and 0.99753 at bx = 0.05
    floors = {0.05: 0.997, 0.1: 0.999}
    for bx, floor in floors.items():
        prev = None
        for i in range(-200, 201):
            g = ground_vector(ModelParams(bx=bx, bz=i / 100.0))
            if prev is not None:
                assert abs(np.vdot(prev, g)) >= floor
            prev = g


def test_invalid_params():
    with pytest.raises(InvalidParam):
        ModelParams(bx=-0.1, bz=0.0)
    with pytest.raises(InvalidParam):
        ModelParams(bx=math.nan, bz=0.0)
    limit = model.FIELD_LIMIT
    ModelParams(bx=limit, bz=np.array([-limit, limit]))
    for bx, bz in ((1e200, 0.0), (0.1, -1e200), (0.1, np.array([0.0, 1e200]))):
        with pytest.raises(InvalidParam, match=f"must be finite with .* got -?1e\\+200"):
            ModelParams(bx=bx, bz=bz)


def test_stacked_builders_match_single_fields():
    bz = np.linspace(-2.0, 2.0, 9)
    for build in (driven_hamiltonian, effective_hamiltonian):
        stack = build(ModelParams(bx=0.15, bz=bz))
        assert stack.shape[0] == len(bz)
        for i, b in enumerate(bz):
            assert stack[i].tobytes() == build(ModelParams(bx=0.15, bz=float(b))).tobytes()


def test_stacked_spectra_match_single_fields():
    bz = np.linspace(-2.0, 2.0, 17)
    for bx in (0.0, 0.15):  # bx = 0: degenerate levels at bz = -1, 0 and 1
        p = ModelParams(bx=bx, bz=bz)
        blocks, sd = triplet_block(p), triplet_spectrum(p)
        for i, b in enumerate(bz):
            one = ModelParams(bx=bx, bz=float(b))
            assert blocks[i].tobytes() == triplet_block(one).tobytes()
            single = triplet_spectrum(one)
            for name in ("eigenvalues", "eigenvectors", "gap"):
                expected = np.asarray(getattr(single, name)).tobytes()
                assert getattr(sd, name)[i].tobytes() == expected, (bx, b, name)
    taus = relaxation_time(ModelParams(bx=0.15, bz=bz))
    single = [relaxation_time(ModelParams(bx=0.15, bz=float(b))) for b in bz]
    assert taus.tobytes() == np.array(single).tobytes()
    with pytest.raises(GapClosed, match="bz=-1.0"):
        relaxation_time(ModelParams(bx=0.0, bz=np.array([-2.0, -1.0, 0.5])))


def test_field_array_validated_elementwise():
    with pytest.raises(InvalidParam):
        ModelParams(bx=0.1, bz=np.array([0.0, np.nan]))
    with pytest.raises(InvalidParam):
        ModelParams(bx=0.1, bz=np.zeros((2, 2)))
