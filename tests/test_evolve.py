import dataclasses
import math
from functools import reduce

import numpy as np
import pytest

from kzsim import evolve, model
from kzsim.errors import ConfigInconsistent, InvalidT2, WorkLimitExceeded
from kzsim.evolve import (ScanTrace, SweepConfig, concurrence,
                          concurrence_mixed, dephase_propagate, propagate,
                          ramp, scan, segment_unitary, trotter_step)
from kzsim.model import KET_00, ModelParams, PHI_MINUS, PHI_PLUS, ground_vector
from kzsim.smallmat import unitary_step

from oracles import series_expm_minus_i

EXPERIMENT_SETS = [(bx, k) for bx in (0.1, 0.2) for k in (1.0, 0.5, 1 / 3, 0.25)]


def start_state(bx, b0):
    return ground_vector(ModelParams(bx=bx, bz=b0))


def test_ramp():
    assert ramp(-1.5, 1.0, 0.0) == -1.5
    assert ramp(-1.5, 1.0, 0.5) == -1.0
    assert ramp(-2.0, 0.25, 4.0) == -1.0


def test_config_validation():
    cfg = SweepConfig.from_rate(0.1, 1.0)
    assert cfg.steps == 13
    assert cfg.delta == pytest.approx(0.1)
    assert cfg.delta_b == pytest.approx(0.1)
    assert cfg.bz_end == cfg.field(13) == -1.5 + 13 * (1.0 * (0.1 / 1.0))
    assert cfg.field(np.arange(14)).tobytes() == (-1.5 + np.arange(14) * cfg.delta_b).tobytes()
    with pytest.raises(ConfigInconsistent):
        SweepConfig.from_rate(0.1, -1.0)
    with pytest.raises(ConfigInconsistent):
        SweepConfig.from_rate(0.1, 1.0, backend="magic")


def test_fields_and_trotter_phases_bounded():
    limit = model.FIELD_LIMIT
    for field in ("bx", "b0", "bz_end"):
        with pytest.raises(ConfigInconsistent, match=f"{field} must be finite with"):
            SweepConfig.from_rate(**{"bx": 0.1, "k": 1.0, field: 2 * limit})
    # delta = 1e299: delta * bx overflows on the trotter backend only
    with pytest.raises(ConfigInconsistent, match="trotter phase"):
        SweepConfig.from_rate(1e10, 1e-300, backend="trotter")
    with pytest.raises(WorkLimitExceeded):
        SweepConfig.from_rate(1e10, 1e-300)
    # and delta * (1 - 2 b0), with a finite delta * bx
    with pytest.raises(ConfigInconsistent, match="trotter phase"):
        SweepConfig.from_rate(0.0, 1e-300, b0=-1e9, bz_end=-1e9 + 0.5, delta_b=0.5,
                              backend="trotter")
    SweepConfig.from_rate(1.0, 1e-300, backend="trotter")  # phases up to 4e299


def test_trotter_step_exact_when_field_off():
    p = ModelParams(bx=0.0, bz=-0.7)
    u_exact = series_expm_minus_i(model.driven_hamiltonian(p), 0.3)
    assert np.max(np.abs(trotter_step(p, 0.3) - u_exact)) < 1e-12


def test_trotter_error_is_second_order():
    p = ModelParams(bx=0.2, bz=-1.0)
    h = model.driven_hamiltonian(p)
    errs = []
    for delta in (0.2, 0.1):
        diff = trotter_step(p, delta) - series_expm_minus_i(h, delta)
        errs.append(np.max(np.abs(diff)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


def test_trotter_per_step_fidelity():
    worst = 1.0
    for bx, k in EXPERIMENT_SETS:
        delta = 0.1 / k
        psi = start_state(bx, -1.5)
        for m in range(1, 16):
            p = ModelParams(bx=bx, bz=-1.5 + 0.1 * m)
            exact = series_expm_minus_i(model.driven_hamiltonian(p), delta, terms=40) @ psi
            approx = trotter_step(p, delta) @ psi
            worst = min(worst, abs(np.vdot(exact, approx)) ** 2)
            psi = exact
    assert worst >= 0.994
    assert worst == pytest.approx(0.9968, abs=5e-4)  # frozen reference value


def test_trotter_step_unitary():
    for bx, k in EXPERIMENT_SETS:
        u = trotter_step(ModelParams(bx=bx, bz=-0.9), 0.1 / k)
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-10


def test_pre_critical_quiescence():
    cfg = SweepConfig.from_rate(0.1, 1.0, b0=-2.0, bz_end=-0.2)
    trace = propagate(cfg, start_state(0.1, -2.0))
    for bz, d in zip(trace.bz, trace.defect):
        if bz <= -1.5 + 1e-9:
            assert d < 0.005
    # and the crossing then produces a large defect density
    assert trace.final_defect > 0.9
    assert trace.final_defect == pytest.approx(0.95499963, abs=1e-6)


def test_slower_scan_fewer_defects():
    d = {}
    for k in (1.0, 0.05):
        cfg = SweepConfig.from_rate(0.1, k)
        d[k] = propagate(cfg, start_state(0.1, -1.5)).final_defect
    assert d[0.05] < d[1.0] / 2
    assert d[0.05] == pytest.approx(0.28618906, abs=1e-6)


def test_adiabatic_limit():
    cfg = SweepConfig.from_rate(0.2, 1 / 200)
    trace = propagate(cfg, start_state(0.2, -1.5))
    assert trace.final_defect < 0.01


def embed(v):
    """Triplet coordinates over {|00>, |phi+>, |11>} as a 4-component state."""
    return v[0] * KET_00 + v[1] * PHI_PLUS + v[2] * model.KET_11


def test_observers_give_eigenstates_unit_populations():
    sd = model.triplet_spectrum(ModelParams(bx=0.13, bz=-0.8))
    states = np.stack([embed(sd.eigenvectors[:, i]) for i in range(3)])
    vectors = np.stack([sd.eigenvectors] * 3)
    pops, conc = evolve._observe_pure(states, vectors)
    assert np.allclose(pops, np.eye(3), atol=1e-12)
    rhos = np.stack([np.outer(psi, psi.conj()) for psi in states])
    pops_mixed, conc_mixed = evolve._observe_mixed(rhos, vectors)
    assert np.allclose(pops_mixed, np.eye(3), atol=1e-12)
    assert np.allclose(conc_mixed, conc, atol=1e-7)


def test_ground_state_has_no_defects():
    # a scan of no segments observes only its start, the ground state
    for t2 in (None, (2.0, 0.2)):
        cfg = SweepConfig(bx=0.1, k=1.0, delta=0.1, steps=0, b0=-0.4, t2=t2)
        assert scan(cfg).defect == pytest.approx([0.0], abs=1e-12)
    sd = model.triplet_spectrum(ModelParams(bx=0.1, bz=-0.4))
    pops, _ = evolve._observe_pure(embed(sd.eigenvectors[:, 1])[None], sd.eigenvectors[None])
    assert 1.0 - pops[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_final_defect_matches_scaling_law():
    cfg = SweepConfig.from_rate(0.1, 1.0)
    trace = propagate(cfg, start_state(0.1, -1.5))
    # frozen reference-backend value, consistent with exp(-1.49 * 4 bx^2 / k)
    assert trace.final_defect == pytest.approx(0.9390697247, abs=1e-8)
    assert trace.final_defect == pytest.approx(math.exp(-1.49 * 0.04), abs=0.02)
    # defect equals 1 - ground population at every boundary
    assert np.max(np.abs(trace.defect - (1 - trace.a0))) < 1e-10


def test_concurrence_endpoints():
    assert concurrence(PHI_PLUS) == pytest.approx(1.0)
    assert concurrence(KET_00) == pytest.approx(0.0)


def test_concurrence_scans():
    cfg = SweepConfig.from_rate(0.2, 1 / 50, bz_end=0.0)
    slow = propagate(cfg, start_state(0.2, -1.5))
    assert slow.concurrence[-1] == pytest.approx(0.93178297, abs=1e-6)
    cfg = SweepConfig.from_rate(0.1, 1.0, bz_end=0.0)
    fast = propagate(cfg, start_state(0.1, -1.5))
    assert fast.concurrence[-1] == pytest.approx(0.05431864, abs=1e-6)
    assert fast.concurrence[-1] < 0.3 < slow.concurrence[-1]


def test_norm_and_population_invariants():
    for bx, k in ((0.1, 1.0), (0.2, 0.25)):
        cfg = SweepConfig.from_rate(bx, k, bz_end=0.0)
        trace = propagate(cfg, start_state(bx, -1.5))
        pop_sum = trace.a0 + trace.a1 + trace.a2
        assert np.max(np.abs(pop_sum - 1)) < 1e-9
        assert np.max(np.abs(trace.defect + trace.overlap - 1)) < 1e-10
        assert np.all((trace.concurrence >= 0) & (trace.concurrence <= 1))


def test_triplet_confinement():
    rng = np.random.default_rng(5)
    for _ in range(5):
        bx = float(rng.uniform(0.05, 0.3))
        k = float(rng.uniform(0.3, 1.5))
        cfg = SweepConfig.from_rate(bx, k, bz_end=0.0,
                                    backend=rng.choice(["reference", "trotter"]))
        psi = start_state(bx, -1.5)
        for m in range(1, cfg.steps + 1):
            psi = segment_unitary(cfg, m) @ psi
            assert abs(np.vdot(PHI_MINUS, psi)) ** 2 <= 1e-12
            assert abs(np.vdot(psi, psi).real - 1) < 1e-10


def test_segment_unitary_matches_single_substeps():
    cfg = SweepConfig.from_rate(0.1, 1 / 3)
    m = 5
    nsub = math.ceil(cfg.delta / evolve.REFERENCE_SUBSTEP)
    h = cfg.delta / nsub
    subs = [unitary_step(model.driven_hamiltonian(ModelParams(
                bx=cfg.bx, bz=ramp(cfg.b0, cfg.k, (m - 1) * cfg.delta + (i + 0.5) * h))), h)
            for i in range(nsub)]
    assert segment_unitary(cfg, m).tobytes() == reduce(lambda u, s: s @ u, subs).tobytes()


def test_chunking_keeps_bits(monkeypatch):
    cfg = SweepConfig.from_rate(0.2, 0.25)  # 13 segments of 40 substeps
    g = start_state(0.2, -1.5)
    expected = propagate(cfg, g)
    u7 = segment_unitary(cfg, 7)
    # chunks shorter than a segment, and straddling segment boundaries
    monkeypatch.setattr(evolve, "SUBSTEP_CHUNK", 7)
    trace = propagate(cfg, g)
    for name in ("defect", "a1", "a2", "concurrence"):
        assert getattr(trace, name).tobytes() == getattr(expected, name).tobytes()
    assert segment_unitary(cfg, 7).tobytes() == u7.tobytes()


def test_boundary_chunking_keeps_bits(monkeypatch):
    # 41 boundaries each; bx = 0 crosses degenerate levels at bz = -1, 0, 1
    dephased = (2.0, 0.2)
    cfgs = [SweepConfig.from_rate(bx, 1.0, b0=-2.0, bz_end=2.0, backend=backend, t2=t2)
            for bx, backend, t2 in ((0.0, "reference", None), (0.0, "trotter", dephased),
                                    (0.1, "reference", dephased), (0.1, "trotter", None))]
    expected = [scan(cfg) for cfg in cfgs]
    monkeypatch.setattr(evolve, "SUBSTEP_CHUNK", 7)
    for cfg, full in zip(cfgs, expected):
        trace = scan(cfg)
        for field in dataclasses.fields(ScanTrace):
            assert getattr(trace, field.name).tobytes() == getattr(full, field.name).tobytes()


def test_work_limit():
    with pytest.raises(WorkLimitExceeded, match="13 segments x 10000001"):
        SweepConfig.from_rate(0.1, 1e-6)
    with pytest.raises(WorkLimitExceeded):
        SweepConfig.from_rate(0.1, 1.0, bz_end=1e6, backend="trotter")
    # fig5's slowest scan, 30 segments of 300 substeps, is well inside
    SweepConfig.from_rate(0.1, 1 / 30, bz_end=1.5)


def test_grid_refinement(monkeypatch):
    cfg = SweepConfig.from_rate(0.1, 1.0)
    d_coarse = propagate(cfg, start_state(0.1, -1.5)).final_defect
    monkeypatch.setattr(evolve, "REFERENCE_SUBSTEP", 0.005)
    d_fine = propagate(cfg, start_state(0.1, -1.5)).final_defect
    assert abs(d_coarse - d_fine) < 1e-4


def test_field_step_insensitivity():
    # reference-backend defect at shared control-field values is unchanged
    # when the recording step is refined from 0.1 down to 0.02
    results = {}
    for delta_b in (0.1, 0.04, 0.02):
        cfg = SweepConfig.from_rate(0.2, 0.25, b0=-2.0, bz_end=-0.2, delta_b=delta_b)
        trace = propagate(cfg, start_state(0.2, -2.0))
        results[delta_b] = {round(b, 6): d for b, d in zip(trace.bz, trace.defect)}
    for bz in (-1.0, -0.6, -0.2):
        vals = [results[db][bz] for db in (0.1, 0.04, 0.02)]
        assert max(vals) - min(vals) < 0.01


def test_dephasing_identity_limit():
    cfg = SweepConfig.from_rate(0.1, 0.25, backend="trotter")
    pure = propagate(cfg, start_state(0.1, -1.5))
    cfg_t2 = SweepConfig.from_rate(0.1, 0.25, backend="trotter", t2=(1e12, 1e12))
    g = start_state(0.1, -1.5)
    mixed = dephase_propagate(cfg_t2, np.outer(g, g.conj()))
    assert np.max(np.abs(pure.defect - mixed.defect)) < 1e-8
    assert np.max(np.abs(pure.concurrence - mixed.concurrence)) < 1e-6


def test_dephasing_shifts_defects():
    # frozen values for the slowest experimental rate with T2 = (2 s, 0.2 s)
    g = start_state(0.1, -1.5)
    cfg = SweepConfig.from_rate(0.1, 0.25, backend="trotter", t2=(2.0, 0.2))
    trace = dephase_propagate(cfg, np.outer(g, g.conj()))
    pure = propagate(SweepConfig.from_rate(0.1, 0.25, backend="trotter"), g)
    assert trace.final_defect - pure.final_defect == pytest.approx(0.006845, abs=1e-5)


def test_dephasing_trace_and_positivity():
    g = start_state(0.2, -1.5)
    cfg = SweepConfig.from_rate(0.2, 0.25, backend="trotter", t2=(2.0, 0.2), bz_end=0.0)
    rho = np.outer(g, g.conj())
    mask = evolve.phase_damping_factors(cfg)
    for m in range(1, cfg.steps + 1):
        u = segment_unitary(cfg, m)
        rho = (u @ rho @ u.conj().T) * mask
        assert abs(np.trace(rho).real - 1) < 1e-10
        assert np.linalg.eigvalsh(rho).min() > -1e-10


def test_phase_damping_mask_matches_loops():
    # the mask as a product over the qubits whose bits differ, bit for bit
    bits = ((0, 0), (0, 1), (1, 0), (1, 1))
    for t2, k in (((2.0, 0.2), 1.0), ((0.2, 2.0), 0.25), ((1e-3, 7.0), 1 / 30)):
        cfg = SweepConfig.from_rate(0.1, k, t2=t2)
        dt = 2.0 * cfg.delta / (math.pi * cfg.j_hz)
        lam = [math.exp(-dt / t2i) for t2i in t2]
        loops = np.ones((4, 4))
        for a in range(4):
            for b in range(4):
                f = 1.0
                for qubit in range(2):
                    if bits[a][qubit] != bits[b][qubit]:
                        f *= lam[qubit]
                loops[a, b] = f
        assert evolve.phase_damping_factors(cfg).tobytes() == loops.tobytes()


def test_dephasing_fully_mixed_input():
    cfg = SweepConfig.from_rate(0.1, 0.25, backend="trotter", t2=(2.0, 0.2))
    trace = dephase_propagate(cfg, np.eye(4, dtype=complex) / 4)
    assert np.allclose(trace.overlap, 0.25, atol=1e-10)
    assert np.all((trace.defect >= 0) & (trace.defect <= 1))


def test_invalid_t2():
    cfg = SweepConfig.from_rate(0.1, 1.0)
    with pytest.raises(InvalidT2):
        dephase_propagate(cfg, np.eye(4, dtype=complex) / 4)
    cfg_bad = SweepConfig.from_rate(0.1, 1.0, t2=(-1.0, 2.0))
    with pytest.raises(InvalidT2):
        dephase_propagate(cfg_bad, np.eye(4, dtype=complex) / 4)


def test_concurrence_mixed_matches_pure():
    rng = np.random.default_rng(17)
    for _ in range(20):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= math.sqrt(abs(np.vdot(psi, psi)))
        rho = np.outer(psi, psi.conj())
        # square roots of the noise eigenvalues of rho*rho_tilde limit the
        # achievable agreement to ~sqrt(machine epsilon)
        assert concurrence_mixed(rho) == pytest.approx(concurrence(psi), abs=1e-7)


def test_stacked_concurrence_matches_single_states():
    rng = np.random.default_rng(5)
    psi = rng.normal(size=(40, 4)) + 1j * rng.normal(size=(40, 4))
    psi = np.concatenate([psi / np.linalg.norm(psi, axis=1)[:, None], [PHI_PLUS, KET_00]])
    conc = concurrence(psi)
    assert conc.tobytes() == np.array([concurrence(s) for s in psi]).tobytes()
    pure = np.stack([np.outer(s, s.conj()) for s in psi])
    rho = 0.7 * pure + 0.3 * pure[::-1]
    stacked = concurrence_mixed(rho)
    assert stacked.tobytes() == np.array([concurrence_mixed(r) for r in rho]).tobytes()


def test_csv_serialization():
    cfg = SweepConfig.from_rate(0.1, 1.0)
    trace = propagate(cfg, start_state(0.1, -1.5))
    text = trace.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == ScanTrace.CSV_HEADER
    assert len(lines) == cfg.steps + 2
    assert text == propagate(cfg, start_state(0.1, -1.5)).to_csv()
