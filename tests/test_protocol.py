import math

import numpy as np
import pytest

from kzsim import evolve, model, protocol
from kzsim.errors import IndexOutOfRange, NoValidBranch
from kzsim.evolve import SweepConfig, propagate, trotter_step
from kzsim.model import GroundState, KET_00, ModelParams, ground_state, ground_vector
from kzsim.protocol import (PrepAngles, gradient_crush, nmr_schedule,
                            prep_angles, prep_operator, protocol_overlap,
                            simulate_entries)

GOLDEN_SCHEDULE_J2 = """PULSE 1 x -0.112396383621
PULSE 2 x -0.112396383621
OFFSET 0
DELAY 0.00232558139535
PULSE 1 y -0.0832271030346
PULSE 2 y -0.0832271030346
PULSE 1 x 0.02
PULSE 2 x 0.02
OFFSET -150.5
DELAY 0.000296102219706
PULSE 1 x 0.02
PULSE 2 x 0.02
OFFSET -139.75
DELAY 0.000296102219706
PULSE 1 y 0.120862635778
PULSE 2 y 0.120862635778
OFFSET 0
DELAY 0.0162790697674
PULSE 1 x 0.19269315079
PULSE 2 x 0.19269315079
CRUSH
PULSE 1 y 1.57079632679
"""


def fidelity_to_ground(angles, g):
    psi = prep_operator(angles) @ KET_00
    return abs(np.vdot(g.vector(), psi)) ** 2


def test_prep_angles_product_state():
    g = GroundState(c0=1.0, cplus=0.0, c1=0.0, energy=0.0)
    a = prep_angles(g)
    assert a.alpha == pytest.approx(0.0)
    assert fidelity_to_ground(a, g) == pytest.approx(1.0, abs=1e-12)


def test_prep_angles_bell_state():
    g = GroundState(c0=0.0, cplus=1.0, c1=0.0, energy=-1.0)
    a = prep_angles(g)
    assert a.alpha == pytest.approx(math.pi / 2)
    # sin(beta + gamma) = -1 for the pure Bell target
    assert math.sin(a.beta + a.gamma) == pytest.approx(-1.0, abs=1e-12)
    assert fidelity_to_ground(a, g) == pytest.approx(1.0, abs=1e-12)


def test_prep_angles_scan_start():
    g = ground_state(ModelParams(bx=0.1, bz=-1.5))
    a = prep_angles(g)
    assert math.cos(a.alpha) == pytest.approx(g.c0 + g.c1, abs=1e-12)
    assert fidelity_to_ground(a, g) >= 1 - 1e-9


def test_prep_angles_cover_the_scan_grid():
    for bx in (0.1, 0.2):
        for j in range(16):
            g = ground_state(ModelParams(bx=bx, bz=-1.5 + 0.1 * j))
            assert fidelity_to_ground(prep_angles(g), g) >= 1 - 1e-9


def test_prep_angles_rejects_unreachable_input():
    # sub-normalized input can never reach unit fidelity with P|00>
    bad = GroundState(c0=0.5, cplus=0.5, c1=0.0, energy=0.0)
    with pytest.raises(NoValidBranch):
        prep_angles(bad)


def test_prep_operator_zero_angles():
    p = prep_operator(PrepAngles(alpha=0.0, beta=0.0, gamma=0.0))
    assert np.allclose(np.abs(p), np.abs(np.diag(np.diag(p))))  # diagonal
    psi = p @ KET_00
    assert abs(psi[0]) == pytest.approx(1.0)


def test_prep_operator_unitary_for_random_angles():
    rng = np.random.default_rng(23)
    for _ in range(100):
        a = PrepAngles(*(float(x) for x in rng.uniform(-math.pi, math.pi, 3)))
        p = prep_operator(a)
        assert np.max(np.abs(p.conj().T @ p - np.eye(4))) <= 1e-10


def test_protocol_overlap_at_start():
    cfg = SweepConfig.from_rate(0.1, 1.0)
    assert protocol_overlap(cfg, 0) == pytest.approx(1.0, abs=1e-10)


def test_protocol_overlap_equals_trotter_defect():
    for bx, k in ((0.1, 1.0), (0.2, 0.25)):
        cfg = SweepConfig.from_rate(bx, k, bz_end=0.0, backend="trotter")
        trace = propagate(cfg, ground_vector(ModelParams(bx=bx, bz=-1.5)))
        for j in range(cfg.steps + 1):
            f = protocol_overlap(cfg, j)
            assert abs((1.0 - f) - trace.defect[j]) <= 1e-9


def test_protocol_overlap_frozen_value():
    # trotterized run, slowest experimental rate; the distance to the
    # freeze-out law exp(-1.51 * 0.64) = 0.380 is 0.031 here
    cfg = SweepConfig.from_rate(0.2, 0.25, backend="trotter")
    d = 1.0 - protocol_overlap(cfg, cfg.steps)
    assert d == pytest.approx(0.3499631579, abs=1e-8)
    assert d == pytest.approx(math.exp(-1.51 * 0.64), abs=0.035)


def test_protocol_overlap_index_errors():
    cfg = SweepConfig.from_rate(0.1, 1.0)
    with pytest.raises(IndexOutOfRange):
        protocol_overlap(cfg, -1)
    with pytest.raises(IndexOutOfRange):
        protocol_overlap(cfg, cfg.steps + 1)


def test_gradient_crush():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = m @ m.conj().T
    rho /= np.trace(rho)
    crushed = gradient_crush(rho)
    assert np.array_equal(gradient_crush(crushed), crushed)  # idempotent
    assert np.allclose(np.diag(crushed), np.diag(rho))
    assert np.max(np.abs(crushed - np.diag(np.diag(crushed)))) == 0


def test_crushed_ground_population():
    # fully dephased pure ground state keeps sum of |c_i|^4 on the diagonal
    g = ground_vector(ModelParams(bx=0.1, bz=-0.2))
    rho = gradient_crush(np.outer(g, g.conj()))
    f = float(np.real(np.vdot(g, rho @ g)))
    assert f == pytest.approx(sum(abs(x) ** 4 for x in g), abs=1e-12)


def test_schedule_examples():
    cfg = SweepConfig.from_rate(0.1, 1.0, bz_end=0.0)
    s = nmr_schedule(cfg)
    delays = [e[1] for e in s.entries() if e[0] == "delay"]
    # segment delay d = 2*delta/(pi*J)
    assert delays[1] == pytest.approx(2 * 0.1 / (math.pi * 215.0), rel=1e-12)
    assert delays[1] == pytest.approx(2.9610e-4, abs=1e-8)
    offsets = [e[1] for e in s.entries() if e[0] == "offset"]
    assert offsets[1] == pytest.approx(-1.4 * 215.0 / 2.0)  # first segment
    assert offsets[1] == -150.5
    pulses = [e for e in s.entries() if e[0] == "pulse"]
    flips = {e[3] for e in pulses if e[2] == "x"} - {pulses[0][3], pulses[-1][3]}
    assert 0.02 in {round(f, 12) for f in flips}  # theta = 2 delta bx


def test_schedule_round_trip():
    for bx, k in ((0.1, 1.0), (0.2, 0.25)):
        cfg = SweepConfig.from_rate(bx, k, bz_end=0.0)
        s = nmr_schedule(cfg)
        for m, block in enumerate(s.segments, start=1):
            u_seg = simulate_entries(block, s.j_hz)
            u_ref = trotter_step(ModelParams(bx=bx, bz=cfg.field(m)), cfg.delta)
            assert np.max(np.abs(u_seg - u_ref)) <= 1e-9


def test_schedule_simulation_reproduces_overlap():
    cfg = SweepConfig.from_rate(0.1, 1.0, bz_end=0.0)
    j = 15
    s = nmr_schedule(cfg)
    entries = list(s.prep)
    for block in s.segments:
        entries.extend(block)
    entries.extend(s.unprep)
    u = simulate_entries(entries, s.j_hz)
    assert abs(u[0, 0]) ** 2 == pytest.approx(protocol_overlap(cfg, j), abs=1e-12)


def test_schedule_golden_text():
    cfg = SweepConfig.from_rate(0.1, 1.0, b0=-1.5, bz_end=-1.3)
    s = nmr_schedule(cfg)
    assert s.to_text() == GOLDEN_SCHEDULE_J2
    assert nmr_schedule(cfg).to_text() == GOLDEN_SCHEDULE_J2  # bit-stable
    assert s.total_duration() == pytest.approx(0.0191968556, abs=1e-9)


def test_schedule_crush_not_simulable():
    cfg = SweepConfig.from_rate(0.1, 1.0)
    s = nmr_schedule(cfg)
    with pytest.raises(ValueError):
        simulate_entries(list(s.entries()), s.j_hz)
