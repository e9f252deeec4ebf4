import math

import numpy as np
import pytest

from kzsim import model
from kzsim.errors import InvalidConfiguration, KzsimError
from kzsim.model import (ModelParams, driven_hamiltonian,
                         effective_hamiltonian, ground_state, ground_vector,
                         relaxation_time, triplet_block, triplet_spectrum)

from oracles import PHI_MINUS, cardano_eigvals3, effective_relaxation_time

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
        w, _ = triplet_spectrum(ModelParams(bx=0.1, bz=bz))
        gaps[bz] = w[1] - w[0]
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
    w, _ = triplet_spectrum(ModelParams(bx=0.1, bz=-1.0))
    gap = w[1] - w[0]
    assert gap == pytest.approx(2 * math.sqrt(2) * 0.1, abs=1e-2)
    # frozen value from the characteristic-polynomial oracle
    assert gap == pytest.approx(0.2827103198001204, abs=1e-12)


def test_triplet_matches_full_hamiltonian():
    rng = np.random.default_rng(42)
    for _ in range(100):
        p = ModelParams(bx=float(rng.uniform(0, 0.5)), bz=float(rng.uniform(-2.5, 2.5)))
        w3 = cardano_eigvals3(triplet_block(p).real)
        assert np.allclose(w3, triplet_eigs(driven_hamiltonian(p)), atol=1e-10)
        assert np.allclose(w3, triplet_spectrum(p)[0], atol=1e-10)


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
    # |c0| exactly at the 1e-12 threshold: cplus, the first nonzero, is made positive
    g = ground_state(ModelParams(bx=0.1, bz=50000.500002425026))
    assert abs(g.c0) == 1e-12 and g.cplus > 0
    g = ground_state(ModelParams(bx=0.1, bz=-2.0))
    assert g.c0**2 > 0.995
    assert g.c0 > 0
    norm = g.c0**2 + g.cplus**2 + g.c1**2
    assert norm == pytest.approx(1.0, abs=1e-10)


def test_degenerate_ground_raises():
    with pytest.raises(KzsimError, match=r"^ground state degenerate at bx=0\.0, bz=-1\.0 \(gap "):
        ground_state(ModelParams(bx=0.0, bz=-1.0))


def test_relaxation_time_values():
    assert effective_relaxation_time(0.1, -1.0) == pytest.approx(TAU0_01)
    assert TAU0_01 == pytest.approx(3.5355339, abs=1e-6)
    # eps = 1 at bz + 1 = sqrt(2) * bx
    bz = -1.0 + math.sqrt(2) * 0.1
    assert effective_relaxation_time(0.1, bz) == pytest.approx(TAU0_01 / math.sqrt(2))
    with pytest.raises(KzsimError, match=r"^gap closed at bx=0\.0, bz=-1\.0$"):
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
    swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]  # exchanges |01> and |10>
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = ModelParams(bx=float(rng.uniform(0, 1)), bz=float(rng.uniform(-3, 3)))
        h = driven_hamiltonian(p)
        comm = h @ swap - swap @ h
        assert np.max(np.abs(comm)) < 1e-12
        # the singlet is an exact eigenvector with eigenvalue -1
        assert np.max(np.abs(h @ PHI_MINUS - (-1.0) * PHI_MINUS)) < 1e-12
    assert np.vdot(PHI_MINUS, PHI_MINUS) == pytest.approx(1.0, abs=1e-15)


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
    with pytest.raises(InvalidConfiguration, match="^transverse field must be >= 0, got -0.1$"):
        ModelParams(bx=-0.1, bz=0.0)
    with pytest.raises(InvalidConfiguration, match="^bx must be finite with .* got nan$"):
        ModelParams(bx=math.nan, bz=0.0)
    limit = model.FIELD_LIMIT
    ModelParams(bx=limit, bz=np.array([-limit, limit]))
    for bx, bz in ((1e200, 0.0), (0.1, -1e200), (0.1, np.array([0.0, 1e200]))):
        with pytest.raises(InvalidConfiguration, match=f"must be finite with .* got -?1e\\+200"):
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
        blocks, (w, v) = triplet_block(p), triplet_spectrum(p)
        stacked = (w, v, w[..., 1] - w[..., 0])
        for i, b in enumerate(bz):
            one = ModelParams(bx=bx, bz=float(b))
            assert blocks[i].tobytes() == triplet_block(one).tobytes()
            one_w, one_v = triplet_spectrum(one)
            single = (one_w, one_v, one_w[..., 1] - one_w[..., 0])
            for name, many, expected in zip(("w", "v", "gap"), stacked, single):
                assert many[i].tobytes() == expected.tobytes(), (bx, b, name)
    taus = relaxation_time(ModelParams(bx=0.15, bz=bz))
    single = [relaxation_time(ModelParams(bx=0.15, bz=float(b))) for b in bz]
    assert taus.tobytes() == np.array(single).tobytes()
    with pytest.raises(KzsimError, match=r"^gap closed at bx=0\.0, bz=-1\.0$"):
        relaxation_time(ModelParams(bx=0.0, bz=np.array([-2.0, -1.0, 0.5])))
    # ground states too, with bx = 0 past bz = +1 (c0 = 0, the phase fallback);
    # a stack is refused at its first degenerate field
    for bx, fields in ((0.15, bz), (0.0, np.array([-2.0, 0.5, 2.0]))):
        g = ground_state(ModelParams(bx=bx, bz=fields))
        single = [ground_state(ModelParams(bx=bx, bz=float(b))) for b in fields]
        for name in ("c0", "cplus", "c1"):
            assert getattr(g, name).tobytes() == np.array([getattr(s, name) for s in single]).tobytes()
    with pytest.raises(KzsimError, match=r"^ground state degenerate at bx=0\.0, bz=-1\.0 \(gap "):
        ground_state(ModelParams(bx=0.0, bz=np.array([-2.0, -1.0, 1.0])))


def test_field_array_validated_elementwise():
    with pytest.raises(InvalidConfiguration, match="^bz must be finite with .* got nan$"):
        ModelParams(bx=0.1, bz=np.array([0.0, np.nan]))
    with pytest.raises(InvalidConfiguration, match=r"^bz must be a number or a 1-D array, got shape \(2, 2\)"):
        ModelParams(bx=0.1, bz=np.zeros((2, 2)))


def test_pulse_on_both_spins_keeps_the_kron_bits():
    # the broadcast product in _both against np.kron of the one-spin pulse,
    # over ordinary flips, 0, +-pi and flips near the field bound
    rng = np.random.default_rng(31)
    flips = [0.0, -0.0, math.pi, -math.pi, 2e150, -2e150, math.nextafter(2e150, 0.0)]
    flips += rng.uniform(-10.0, 10.0, 1000).tolist() + (rng.uniform(-1, 1, 993) * 2e150).tolist()
    assert len(flips) == 2000
    for axis in ("x", "y"):
        for flip in flips:
            r = model._rotation(axis, flip)
            assert model._both(axis, flip).tobytes() == np.kron(r, r).tobytes(), (axis, flip)
