import dataclasses
import itertools
import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kzsim import evolve, kzm, model, protocol
from kzsim.errors import InvalidConfiguration, KzsimError
from kzsim.evolve import (ScanTrace, SweepConfig, concurrence,
                          concurrence_mixed, dephase_propagate, ramp, scan, trotter_step)
from kzsim.model import FIELD_LIMIT, KET_00, ModelParams, PHI_PLUS, ground_vector
from kzsim.smallmat import unitary_step

from helpers import segment_unitaries, spectrum_fields
from oracles import series_expm_minus_i


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
    with pytest.raises(InvalidConfiguration, match="^k must be positive and finite, got -1.0$"):
        SweepConfig.from_rate(0.1, -1.0)
    with pytest.raises(InvalidConfiguration, match="^unknown backend 'magic'$"):
        SweepConfig.from_rate(0.1, 1.0, backend="magic")
    # a negative transverse field is refused when the config is built
    with pytest.raises(InvalidConfiguration, match="transverse field must be >= 0, got -0.1"):
        SweepConfig.from_rate(-0.1, 1.0, backend="trotter")
    with pytest.raises(InvalidConfiguration, match="transverse field must be >= 0, got -0.1"):
        SweepConfig(-0.1, 1.0, delta=0.1, steps=13)
    # a window shorter than half a segment is refused, even within the tolerance
    with pytest.raises(InvalidConfiguration, match="is not a whole number"):
        SweepConfig.from_rate(0.1, 1.0, bz_end=-1.5 + 1e-12)
    # a window off by exactly the tolerance (2**25 at |bz| = 2**75) is whole
    SweepConfig.from_rate(0.1, 1.0, b0=0.0, bz_end=2.0**75, delta_b=2.0**75 + 2.0**25,
                          backend="trotter")


def test_steps_must_be_an_integer_a_float_holds():
    def build(steps):
        return SweepConfig(bx=0.1, k=1.0, delta=0.1, steps=steps, backend="trotter")

    for steps in (2.5, 13.0, True, None, "13"):
        with pytest.raises(InvalidConfiguration, match="segment count must be an integer"):
            build(steps)
    for steps in (2**1023, 10**400, -10**400, 10**5000):
        with pytest.raises(InvalidConfiguration, match="overflows a float"):
            build(steps)
    # numpy integers are counted as python ints: no wrap, no warning
    for steps, count in ((10**15, "1.000e+15"), (np.int64(9 * 10**17), "9.000e+17"),
                         (np.uint64(2**63), "9.223e+18")):
        with pytest.raises(InvalidConfiguration) as refused:
            build(steps)
        assert f"needs {count} propagator steps ({count} segments x 1)" in str(refused.value)
    # python and numpy integers are both accepted, and kept as the same python int
    assert type(build(np.int64(13)).steps) is int and build(np.int64(13)) == build(13)


def test_fields_and_trotter_phases_bounded():
    limit = model.FIELD_LIMIT
    for field in ("bx", "b0", "bz_end"):
        with pytest.raises(InvalidConfiguration, match=f"{field} must be finite with"):
            SweepConfig.from_rate(**{"bx": 0.1, "k": 1.0, field: 2 * limit})
    # delta = 1e299: delta * bx overflows on the trotter backend only
    with pytest.raises(InvalidConfiguration, match="trotter phase"):
        SweepConfig.from_rate(1e10, 1e-300, backend="trotter")
    with pytest.raises(InvalidConfiguration, match=r"^scan needs 1.300e\+302 propagator steps"):
        SweepConfig.from_rate(1e10, 1e-300)
    # and delta * (1 - 2 b0), with a finite delta * bx
    with pytest.raises(InvalidConfiguration, match="trotter phase"):
        SweepConfig.from_rate(0.0, 1e-300, b0=-1e9, bz_end=-1e9 + 0.5, delta_b=0.5,
                              backend="trotter")
    SweepConfig.from_rate(1.0, 1e-300, backend="trotter")  # phases up to 4e299
    # the pulse flip 2 delta bx overflows where delta bx does not
    with pytest.raises(InvalidConfiguration, match="trotter phase"):
        SweepConfig(1e150, 1e-158, delta=1e158, steps=1, backend="trotter")
    # and 2 delta (2 |b0| + 1), 2 delta (2 |bz_end| + 1) alone, at small fields
    for b0 in (-0.5, 0.0):
        with pytest.raises(InvalidConfiguration, match="trotter phase"):
            SweepConfig(0.0, 0.5 / 6e307, delta=6e307, steps=1, b0=b0, backend="trotter")


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


def test_stacked_trotter_step_matches_single_calls():
    # bx = 0, a subnormal delta bx, and a stack longer than SUBSTEP_CHUNK
    bz = np.linspace(-3.0, 3.0, evolve.SUBSTEP_CHUNK + 45)
    for bx, delta in ((0.0, 0.3), (1e-310, 0.5), (1e-300, 1e-15), (0.2, 0.4)):
        stack = trotter_step(ModelParams(bx=bx, bz=bz), delta)
        assert stack.shape == (len(bz), 4, 4)
        a = delta * bx  # the single-call formula the stack replaced
        rx = np.array([[math.cos(a), -1j * math.sin(a)],
                       [-1j * math.sin(a), math.cos(a)]], dtype=complex)
        for b, u in zip(bz.tolist(), stack):
            single = trotter_step(ModelParams(bx=bx, bz=b), delta)
            uz = np.diag(np.exp(-1j * delta * np.array([2 * b + 1.0, -1.0, -1.0, -2 * b + 1.0])))
            assert u.tobytes() == single.tobytes() == (uz @ np.kron(rx, rx)).tobytes()


def embed(v):
    """Triplet coordinates over {|00>, |phi+>, |11>} as a 4-component state."""
    return v[0] * KET_00 + v[1] * PHI_PLUS + v[2] * model.KET_11


def test_observers_give_eigenstates_unit_populations():
    _, v = model.triplet_spectrum(ModelParams(bx=0.13, bz=-0.8))
    states = np.stack([embed(v[:, i]) for i in range(3)])
    vectors = np.stack([v] * 3)
    assert np.allclose(evolve._populations_pure(states, vectors), np.eye(3), atol=1e-12)
    rhos = np.stack([np.outer(psi, psi.conj()) for psi in states])
    assert np.allclose(evolve._populations_mixed(rhos, vectors), np.eye(3), atol=1e-12)
    assert np.allclose(evolve.concurrence_mixed(rhos), evolve.concurrence(states), atol=1e-7)


def test_ground_state_has_no_defects():
    # a scan of no segments observes only its start, the ground state
    for t2 in (None, (2.0, 0.2)):
        cfg = SweepConfig(bx=0.1, k=1.0, delta=0.1, steps=0, b0=-0.4, t2=t2)
        assert scan(cfg).defect == pytest.approx([0.0], abs=1e-12)
    _, v = model.triplet_spectrum(ModelParams(bx=0.1, bz=-0.4))
    pops = evolve._populations_pure(embed(v[:, 1])[None], v[None])
    assert 1.0 - pops[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_final_defect_matches_scaling_law():
    cfg = SweepConfig.from_rate(0.1, 1.0)
    trace = scan(cfg)
    # frozen reference-backend value, consistent with exp(-1.49 * 4 bx^2 / k)
    assert trace.defect[-1] == pytest.approx(0.9390697247, abs=1e-8)
    assert trace.defect[-1] == pytest.approx(math.exp(-1.49 * 0.04), abs=0.02)
    # defect equals 1 - ground population at every boundary, reached at t = j delta
    assert np.max(np.abs(trace.defect - (1 - trace.a0))) < 1e-10
    assert trace.t.tolist() == (np.arange(cfg.steps + 1) * cfg.delta).tolist()


def test_concurrence_endpoints():
    assert concurrence(PHI_PLUS) == pytest.approx(1.0)
    assert concurrence(KET_00) == pytest.approx(0.0)


def test_concurrence_scans():
    cfg = SweepConfig.from_rate(0.2, 1 / 50, bz_end=0.0)
    slow = scan(cfg)
    assert slow.concurrence[-1] == pytest.approx(0.93178297, abs=1e-6)
    cfg = SweepConfig.from_rate(0.1, 1.0, bz_end=0.0)
    fast = scan(cfg)
    assert fast.concurrence[-1] == pytest.approx(0.05431864, abs=1e-6)
    assert fast.concurrence[-1] < 0.3 < slow.concurrence[-1]


def test_segment_unitary_matches_single_substeps():
    cfg = SweepConfig.from_rate(0.1, 1 / 3)
    m = 5
    nsub = math.ceil(cfg.delta / evolve.REFERENCE_SUBSTEP)
    h = cfg.delta / nsub
    subs = [unitary_step(model.driven_hamiltonian(ModelParams(
                bx=cfg.bx, bz=ramp(cfg.b0, cfg.k, (m - 1) * cfg.delta + (i + 0.5) * h))), h)
            for i in range(nsub)]
    assert list(segment_unitaries(cfg))[m - 1].tobytes() == reduce(lambda u, s: s @ u, subs).tobytes()


def test_chunking_keeps_bits(monkeypatch):
    cfg = SweepConfig.from_rate(0.2, 0.25)  # 13 segments of 40 substeps
    expected = scan(cfg)
    us = [u.tobytes() for u in segment_unitaries(cfg)]
    # chunks shorter than a segment, and straddling segment boundaries
    monkeypatch.setattr(evolve, "SUBSTEP_CHUNK", 7)
    trace = scan(cfg)
    for name in ("defect", "a1", "a2", "concurrence"):
        assert getattr(trace, name).tobytes() == getattr(expected, name).tobytes()
    assert [u.tobytes() for u in segment_unitaries(cfg)] == us


def test_segments_are_built_lazily(monkeypatch):
    # the first propagator of a 40-substep segment needs one chunk of 7
    monkeypatch.setattr(evolve, "SUBSTEP_CHUNK", 7)
    sizes, step = [], evolve.unitary_step
    monkeypatch.setattr(evolve, "unitary_step", lambda h, d: sizes.append(len(h)) or step(h, d))
    next(iter(next(evolve._segment_unitaries(SweepConfig.from_rate(0.2, 0.25)))))
    assert sizes == [7]


def test_hamiltonian_builders_are_looked_up_at_call_time(monkeypatch):
    # a builder bound when the stream is defined would escape these spies
    fields = {}
    for name in ("driven_hamiltonian", "effective_hamiltonian"):
        def spy(p, name=name, build=getattr(model, name)):
            fields[name] = fields.get(name, 0) + np.size(p.bz)
            return build(p)
        monkeypatch.setattr(model, name, spy)
    scan(SweepConfig.from_rate(0.2, 0.25))  # 13 segments of 40 substeps
    assert fields == {"driven_hamiltonian": 13 * 40}
    fields.clear()
    kzm.lz_check(0.2, 0.25)  # 2263 substeps and the two window ends
    assert fields == {"effective_hamiltonian": 2263 + 2}


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


def fit_configs():
    """The configs the scaling fits and fig4 run (both ideal grids and the
    experiment grid, each on both backends, with and without T2), and the
    experiment grid over fig3's window to bz = 0: 14 boundaries end on a
    chunk edge of 7, 16 inside a chunk."""
    grids = [(bx, k, -0.2) for bx in kzm.EXPERIMENT_BX_VALUES
             for k in (*kzm.IDEAL_K_VALUES, *kzm.EXPERIMENT_K_VALUES)]
    grids += [(bx, k, 0.0) for bx in kzm.EXPERIMENT_BX_VALUES for k in kzm.EXPERIMENT_K_VALUES]
    return [SweepConfig.from_rate(bx, k, bz_end=end, backend=backend, t2=t2)
            for bx, k, end in grids for backend in evolve.BACKENDS
            for t2 in (None, kzm.T2_DEFAULT)]


def test_final_defect_is_the_scans_last_defect(monkeypatch):
    monkeypatch.setattr(evolve, "SUBSTEP_CHUNK", 7)
    cfgs = fit_configs()
    assert {cfg.steps + 1 for cfg in cfgs} == {14, 16}
    for cfg in cfgs:
        expected = np.float64(scan(cfg).defect[-1]).tobytes()
        assert np.float64(evolve.final_defect(cfg)).tobytes() == expected, cfg


def test_final_defect_solves_both_ends_as_one_stack(monkeypatch):
    fields = spectrum_fields(monkeypatch)
    for backend in evolve.BACKENDS:
        for t2 in (None, kzm.T2_DEFAULT):
            cfg = SweepConfig.from_rate(0.2, 1.0, backend=backend, t2=t2)
            fields.clear()
            evolve.final_defect(cfg)
            assert fields == [[cfg.b0, cfg.bz_end]], cfg


_DECADES = st.floats(-3, 150).map(lambda e: 10.0 ** e)  # 1e-3 .. FIELD_LIMIT, decades alike
_OVERFLOWING = dict(bx=0.1, k=5e-309, delta_b=0.1, steps=13, b0=-1.5)  # t = 13 x 2e307


@settings(max_examples=40, deadline=None)
@given(bx=st.one_of(st.just(0.0), _DECADES), k=st.floats(-310, 2).map(lambda e: 10.0 ** e),
       delta_b=st.one_of(st.just(0.1), _DECADES), steps=st.integers(0, 40),
       b0=st.one_of(st.floats(-2, 2), st.floats(-FIELD_LIMIT, FIELD_LIMIT)), backend=st.just("trotter"),
       t2=st.one_of(st.none(), st.tuples(_DECADES, _DECADES), st.lists(st.floats(), max_size=3).map(tuple)))
@example(**_OVERFLOWING, backend="trotter", t2=None)
@example(**_OVERFLOWING, backend="trotter", t2=(2.0, 0.2))
@example(**_OVERFLOWING, backend="trotter", t2=(-1.0, 0.2))
@example(**{**_OVERFLOWING, "k": 1.0}, backend="reference", t2=(0.0, 1.0))
@example(**{**_OVERFLOWING, "k": 1.0}, backend="reference", t2=(1.0,))
@example(**{**_OVERFLOWING, "k": 1.0}, backend="reference", t2=(math.inf, 1.0))
def test_a_config_that_builds_is_not_refused_by_its_consumers(bx, k, delta_b, steps, b0, t2, backend):
    try:
        cfg = SweepConfig(bx, k, delta=delta_b / k, steps=steps, b0=b0, backend=backend, t2=t2)
    except InvalidConfiguration:
        return
    for consumer in (scan, evolve.final_defect, lambda c: protocol.protocol_overlap(c, c.steps),
                     protocol.nmr_schedule):
        try:
            consumer(cfg)
        except InvalidConfiguration as exc:  # only the schedule's own: a pulse number that is not finite
            assert consumer is protocol.nmr_schedule and str(exc).startswith("schedule entry "), exc
        except KzsimError:  # a refusal of a state, not of the config
            pass


def test_work_limit():
    with pytest.raises(InvalidConfiguration, match="13 segments x 10000001"):
        SweepConfig.from_rate(0.1, 1e-6)
    with pytest.raises(InvalidConfiguration, match=r"^scan needs 10000015 propagator steps \(10000015 "):
        SweepConfig.from_rate(0.1, 1.0, bz_end=1e6, backend="trotter")
    with pytest.raises(InvalidConfiguration, match=r"needs inf propagator steps \(1 segments x inf\)"):
        SweepConfig(0.1, 1e-308, delta=1e307, steps=1)
    SweepConfig(0.1, 1.0, delta=0.1, steps=evolve.MAX_SUBSTEPS, backend="trotter")  # at the limit
    # fig5's slowest scan, 30 segments of 300 substeps, is well inside
    SweepConfig.from_rate(0.1, 1 / 30, bz_end=1.5)


def test_field_step_insensitivity():
    # reference-backend defect at shared control-field values is unchanged
    # when the recording step is refined from 0.1 down to 0.02
    results = {}
    for delta_b in (0.1, 0.04, 0.02):
        cfg = SweepConfig.from_rate(0.2, 0.25, b0=-2.0, bz_end=-0.2, delta_b=delta_b)
        trace = scan(cfg)
        results[delta_b] = {round(b, 6): d for b, d in zip(trace.bz, trace.defect)}
    for bz in (-1.0, -0.6, -0.2):
        vals = [results[db][bz] for db in (0.1, 0.04, 0.02)]
        assert max(vals) - min(vals) < 0.01


def test_dephasing_identity_limit():
    cfg = SweepConfig.from_rate(0.1, 0.25, backend="trotter")
    pure = scan(cfg)
    mixed = scan(SweepConfig.from_rate(0.1, 0.25, backend="trotter", t2=(1e12, 1e12)))
    assert np.max(np.abs(pure.defect - mixed.defect)) < 1e-8
    assert np.max(np.abs(pure.concurrence - mixed.concurrence)) < 1e-6


def test_dephasing_shifts_defects():
    # frozen values for the slowest experimental rate with T2 = (2 s, 0.2 s)
    trace = scan(SweepConfig.from_rate(0.1, 0.25, backend="trotter", t2=(2.0, 0.2)))
    pure = scan(SweepConfig.from_rate(0.1, 0.25, backend="trotter"))
    assert trace.defect[-1] - pure.defect[-1] == pytest.approx(0.006845, abs=1e-5)


def test_dephasing_trace_and_positivity():
    g = start_state(0.2, -1.5)
    cfg = SweepConfig.from_rate(0.2, 0.25, backend="trotter", t2=(2.0, 0.2), bz_end=0.0)
    rho = np.outer(g, g.conj())
    mask = evolve.phase_damping_factors(cfg)
    for u in segment_unitaries(cfg):
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
    trace = evolve._run(cfg, np.eye(4, dtype=complex) / 4, evolve._dephasing_advance(cfg),
                        evolve._populations_mixed, concurrence_mixed)
    assert np.allclose(trace.a0, 0.25, atol=1e-10)
    assert np.all((trace.defect >= 0) & (trace.defect <= 1))


def test_invalid_t2():
    cfg = SweepConfig.from_rate(0.1, 1.0)
    with pytest.raises(InvalidConfiguration, match="config carries no T2 times"):
        dephase_propagate(cfg)
    # a bad pair is refused when the config is built, before an overflowing scan time
    for t2, k in (((-1.0, 2.0), 1.0), ((0.0, 1.0), 1.0), ((1.0,), 1.0), ((math.inf, 1.0), 1.0),
                  ((-1.0, 0.2), 5e-309)):
        with pytest.raises(InvalidConfiguration, match="T2 must be two positive finite times"):
            SweepConfig.from_rate(0.1, k, backend="trotter", t2=t2)


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


@pytest.mark.parametrize("backend", evolve.BACKENDS)
@pytest.mark.parametrize("t2", [None, (2.0, 0.2)])
def test_advance_steps_keep_their_bits(backend, t2):
    # one chunk of the propagators a run applies: the reference substeps of
    # its first segments (80 each at k = 1/8), or 256 trotter steps
    k, bz_end = (0.125, -0.2) if backend == "reference" else (1.0, 24.1)
    cfg = SweepConfig.from_rate(0.1, k, bz_end=bz_end, backend=backend, t2=t2)
    chunk = evolve.SUBSTEP_CHUNK
    us = list(itertools.islice(itertools.chain.from_iterable(evolve._segment_unitaries(cfg)), chunk))
    assert len(us) == chunk
    start = start_state(0.1, cfg.b0)
    if t2 is None:
        advance, state = evolve._advance, start

        def written_out(psi, unitaries):
            for u in unitaries:
                psi = np.dot(u, psi)
            return psi
    else:
        advance, state = evolve._dephasing_advance(cfg), np.outer(start, start.conj())
        mask = evolve.phase_damping_factors(cfg)

        def written_out(rho, unitaries):
            for u in unitaries:
                rho = u @ rho @ u.conj().T
            return rho * mask
    # the whole chunk as one segment, then each propagator as a segment of its own
    assert advance(state, us).tobytes() == written_out(state, us).tobytes()
    a = b = state
    for u in us:
        a, b = advance(a, [u]), written_out(b, [u])
        assert a.tobytes() == b.tobytes()


# values whose renderings have edge cases: signed zeros, infinities, NaN,
# subnormals, integers stored as floats, and the rounding of 12 digits
CSV_SPECIALS = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310,
                1.0, -3.0, 2.0 ** 53, 1e16, 0.1, 1 / 3, 999999999999.5, 1e-5, 1e300]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(*[st.one_of(st.floats(), st.sampled_from(CSV_SPECIALS),
                                      st.integers(-2 ** 60, 2 ** 60).map(float))] * 7),
                max_size=6))
def test_csv_renders_each_value_as_format_g12(rows):
    cols = np.array(rows, dtype=float).reshape(-1, 7).T
    trace = ScanTrace(*cols)
    expected = [ScanTrace.CSV_HEADER]
    for i in range(len(rows)):  # the overlap column is a0
        expected.append(",".join(format(float(c[i]), ".12g") for c in (*cols[:4], *cols[3:])))
    assert trace.to_csv() == "\n".join(expected) + "\n"
