import itertools
import math
import random
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from kzsim import evolve, model, protocol
from kzsim.errors import IndexOutOfRange, KzsimError
from kzsim.evolve import SweepConfig, scan, trotter_step
from kzsim.model import GroundState, KET_00, ModelParams, ground_state, ground_vector
from kzsim.protocol import (gradient_crush, nmr_schedule, prep_angles, prep_operator,
                            protocol_overlap)

from helpers import spectrum_fields
from oracles import rx, ry, simulate_entries

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
    psi = prep_operator(*angles) @ KET_00
    return abs(np.vdot(g.vector(), psi)) ** 2


def test_prep_angles_product_state():
    g = GroundState(c0=1.0, cplus=0.0, c1=0.0)
    alpha, beta = prep_angles(g)
    assert alpha == pytest.approx(0.0)
    assert fidelity_to_ground((alpha, beta), g) == pytest.approx(1.0, abs=1e-12)


def test_prep_angles_bell_state():
    g = GroundState(c0=0.0, cplus=1.0, c1=0.0)
    alpha, beta = prep_angles(g)
    assert alpha == pytest.approx(math.pi / 2)
    # beta = -gamma - atan2(sqrt(2), 0) with gamma = atan(1) for the Bell target
    assert beta == pytest.approx(-3 * math.pi / 4, abs=1e-12)
    assert fidelity_to_ground((alpha, beta), g) == pytest.approx(1.0, abs=1e-12)


def test_prep_angles_scan_start():
    g = ground_state(ModelParams(bx=0.1, bz=-1.5))
    alpha, beta = prep_angles(g)
    assert math.cos(alpha) == pytest.approx(g.c0 + g.c1, abs=1e-12)
    assert fidelity_to_ground((alpha, beta), g) >= 1 - 1e-9


def test_prep_angles_cover_the_scan_grid():
    for bx in (0.1, 0.2):
        for j in range(16):
            g = ground_state(ModelParams(bx=bx, bz=-1.5 + 0.1 * j))
            assert fidelity_to_ground(prep_angles(g), g) >= 1 - 1e-9


def test_prep_angles_reach_the_ground_state_amplitude():
    # fidelity is quadratic in an angle error; the component of P|00>
    # orthogonal to the ground state is linear in it, also where c0 ~ c1
    bzs = [*np.linspace(-3.0, 3.0, 601), 0.0, 1e-12, -1e-12, -5.329070518200751e-15]
    for bx in (0.0, 1e-13, 0.05, 0.1, 0.2, 0.5, 1.0, 3.0):
        for bz in bzs:
            try:
                g = ground_state(ModelParams(bx=bx, bz=float(bz)))
            except KzsimError as exc:
                assert str(exc).startswith("ground state degenerate"), exc
                continue
            v, psi = g.vector(), prep_operator(*prep_angles(g)) @ KET_00
            assert np.linalg.norm(psi - np.vdot(v, psi) * v) <= 1e-12, (bx, bz)


def test_prep_angles_rejects_unreachable_input():
    # sub-normalized input can never reach unit fidelity with P|00>, nor can
    # a unit vector with c0 + c1 > 1, since P keeps c0 + c1 = cos(alpha)
    for c0, cplus, c1 in ((0.5, 0.5, 0.0), (0.8, 0.0, 0.6)):
        with pytest.raises(KzsimError, match="^the preparation does not reproduce the ground state"):
            prep_angles(GroundState(c0=c0, cplus=cplus, c1=c1))


def test_prep_operator_zero_angles():
    p = prep_operator(0.0, 0.0)
    assert np.allclose(np.abs(p), np.abs(np.diag(np.diag(p))))  # diagonal
    psi = p @ KET_00
    assert abs(psi[0]) == pytest.approx(1.0)


def test_prep_operator_unitary_for_random_angles():
    rng = np.random.default_rng(23)
    for _ in range(100):
        p = prep_operator(*(float(x) for x in rng.uniform(-math.pi, math.pi, 2)))
        assert np.max(np.abs(p.conj().T @ p - np.eye(4))) <= 1e-10


def test_prep_operator_keeps_the_kron_form_bits():
    uzz = np.diag(np.exp(-1j * math.pi / 4 * np.array([1, -1, -1, 1])))
    rng = np.random.default_rng(29)
    pairs = rng.uniform(-4, 4, (200, 2))
    for alpha, beta in pairs.tolist():
        ux = np.kron(rx(-alpha), rx(-alpha))
        uy = np.kron(ry(-beta), ry(-beta))
        assert prep_operator(alpha, beta).tobytes() == (uy @ uzz @ ux).tobytes()
    # a stack of them, as the overlap run builds it, gives each member's bits
    stacked = prep_operator(pairs[:, 0], pairs[:, 1])
    assert stacked.shape == (200, 4, 4)
    assert [u.tobytes() for u in stacked] == [prep_operator(a, b).tobytes() for a, b in pairs.tolist()]


def test_protocol_overlap_keeps_the_per_segment_loop_bits(monkeypatch):
    # the chunks of 4 boundaries run out every few calls; trotter steps
    # apply on either backend; all eight experimental settings
    monkeypatch.setattr(evolve, "SUBSTEP_CHUNK", 4)
    cfgs = [SweepConfig.from_rate(bx, k, bz_end=bz_end, backend=backend)
            for bx, k, backend in itertools.product((0.1, 0.2), (1.0, 1 / 2, 1 / 3, 1 / 4),
                                                    ("trotter", "reference"))
            for bz_end in (0.0, 1.5)]  # 1.5: past the second crossing
    # bx = 0 is degenerate at bz = -1 and +1 (boundaries 5 and 25), each refused
    # only when read; past bz = +1 the ground state is |11>, with c0 = 0 exactly
    # 16 steps, a multiple of the chunk: the last chunk holds the last boundary alone
    cfgs.insert(0, SweepConfig(0.2, 1.0, delta=0.1, steps=16, backend="trotter"))
    # bx = 0 from bz = -1: boundary 0 is degenerate, so every read is refused
    cfgs.insert(1, SweepConfig.from_rate(0.0, 1.0, b0=-1.0, bz_end=0.0, backend="trotter"))
    cfgs.append(SweepConfig.from_rate(0.0, 1.0, b0=-1.5, bz_end=1.5, backend="trotter"))
    for cfg in cfgs:
        got = [_read(lambda: protocol_overlap(cfg, j)) for j in range(cfg.steps + 1)]
        assert got == loop_overlaps(cfg), cfg
    degenerate = [j for j, f in enumerate(got) if isinstance(f, str)]
    assert degenerate == [5, 25] and got[5].startswith("ground state degenerate at bx=0.0, bz=-1.0 ")
    assert ground_state(ModelParams(bx=0.0, bz=cfg.field(26))).c0 == 0.0


def _read(measure):
    """A measured overlap, or the message of the KzsimError that refused it."""
    try:
        return measure()
    except KzsimError as exc:
        return str(exc)


def loop_overlaps(cfg):
    """F(t_j) for j = 0..steps from one fresh per-segment loop, the form
    protocol_overlap replaced, with the message of a refused boundary (of
    boundary 0 at every boundary) in its place; trotter steps on either backend."""
    p0 = _read(lambda: prep_operator(*prep_angles(ground_state(ModelParams(bx=cfg.bx, bz=cfg.b0)))))
    if isinstance(p0, str):
        return [p0] * (cfg.steps + 1)
    psi, out = p0 @ KET_00, []

    def measure(j):
        pj = prep_operator(*prep_angles(ground_state(ModelParams(bx=cfg.bx, bz=cfg.field(j)))))
        amp = pj.conj().T @ psi
        return float(gradient_crush(np.outer(amp, amp.conj()))[0, 0].real)

    for j in range(cfg.steps + 1):
        if j:
            psi = trotter_step(ModelParams(bx=cfg.bx, bz=cfg.field(j)), cfg.delta) @ psi
        out.append(_read(lambda: measure(j)))
    return out


def test_protocol_overlap_is_independent_of_call_order(monkeypatch):
    # a chunk of 4 makes the remembered spectra run out every few boundaries
    monkeypatch.setattr(evolve, "SUBSTEP_CHUNK", 4)
    a = SweepConfig.from_rate(0.2, 0.25, bz_end=0.0, backend="trotter")
    b = SweepConfig.from_rate(0.1, 1.0, bz_end=0.0, backend="trotter")
    expected = {a: loop_overlaps(a), b: loop_overlaps(b)}
    shuffled = [(cfg, j) for cfg in (a, b) for j in range(cfg.steps + 1)] * 2
    random.Random(37).shuffle(shuffled)
    descending = [(a, j) for j in reversed(range(a.steps + 1))]
    alternating = [(cfg, j) for j in range(a.steps + 1) for cfg in (a, b)]
    for cfg, j in shuffled + descending + alternating:
        assert protocol_overlap(cfg, j) == expected[cfg][j], (cfg, j)


def counted_trotter_steps(monkeypatch):
    """The field counts of the trotter_step calls made from now on."""
    steps = []

    def counted(p, delta):
        steps.append(np.size(p.bz))
        return trotter_step(p, delta)

    monkeypatch.setattr(evolve, "trotter_step", counted)
    return steps


def test_protocol_overlap_reference_config_then_its_trotter_twin(monkeypatch):
    # both run trotter steps, so the twin reads the run the reference call
    # measured, and the reference config the twin's; the first call streams
    # segments 1..15 as one stack to measure boundaries 0..15
    ref = SweepConfig.from_rate(0.2, 0.25, bz_end=0.0)
    twin = replace(ref, backend="trotter")
    expected = loop_overlaps(twin)
    steps = counted_trotter_steps(monkeypatch)
    for cfg, j, stacks in ((ref, 2, [15]), (ref, 6, []), (twin, 7, []), (twin, 11, []),
                           (ref, 12, []), (ref, 15, []), (twin, 3, []), (twin, 1, [])):
        steps.clear()
        assert protocol_overlap(cfg, j) == expected[j], (cfg.backend, j)
        assert steps == stacks, (cfg.backend, j)


def test_protocol_overlap_builds_the_twin_only_when_needed(monkeypatch):
    # a trotter config without t2 keys the run itself, and a cold call at 0
    # solves one stack of boundaries 0..15, whose first member gives P(0)'s
    # ground state; a reference or a T2 config builds an equal twin and reads
    # that run
    twin = SweepConfig.from_rate(0.2, 0.25, bz_end=0.0, backend="trotter")
    fields = spectrum_fields(monkeypatch)
    expected = [np.float64(protocol_overlap(twin, j)).tobytes() for j in range(twin.steps + 1)]
    assert fields == [twin.field(np.arange(twin.steps + 1)).tolist()]
    for cfg in (replace(twin, backend="reference"), replace(twin, t2=(2.0, 0.2))):
        got = [np.float64(protocol_overlap(cfg, j)).tobytes() for j in range(cfg.steps + 1)]
        assert got == expected, cfg
    assert len(fields) == 1 and protocol._overlaps.cache_info().misses == 1


def test_protocol_overlap_keys_by_equality(monkeypatch):
    # t2 as a list makes a config unhashable, and as an array makes == an
    # array; neither changes the overlap, and an equal copy reads the run
    base = SweepConfig.from_rate(0.2, 0.25, bz_end=0.0, backend="trotter")
    expected = loop_overlaps(base)
    steps = counted_trotter_steps(monkeypatch)
    for make in (list, np.array):
        cfg, copy = replace(base, t2=make([2.0, 0.2])), replace(base, t2=make([2.0, 0.2]))
        with pytest.raises(TypeError):
            hash(cfg)
        assert protocol_overlap(cfg, 5) == expected[5]
        steps.clear()
        assert protocol_overlap(copy, 6) == expected[6]
        assert steps == []
        for j in (9, 2, 15):
            assert protocol_overlap(cfg if j % 2 else copy, j) == expected[j]


def test_protocol_overlap_threads_give_the_serial_values(monkeypatch):
    # four threads, two per config, more than the cores of a small machine
    monkeypatch.setattr(evolve, "SUBSTEP_CHUNK", 4)
    cfgs = (SweepConfig.from_rate(0.2, 0.25, bz_end=0.0, backend="trotter"),
            SweepConfig.from_rate(0.1, 0.5, bz_end=0.0, backend="trotter"))
    expected = [loop_overlaps(cfg) for cfg in cfgs]
    results = [[] for _ in range(4)]
    start = threading.Barrier(4)

    def measure(n):
        cfg = cfgs[n % 2]
        start.wait(timeout=60)
        for _ in range(40):
            results[n].extend(protocol_overlap(cfg, j) for j in range(cfg.steps + 1))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        threads = [threading.Thread(target=measure, args=(n,)) for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for n in range(4):
        got, want = results[n], expected[n % 2]
        if got != want * 40:  # not an assert, whose rewriting would diff 640 floats for minutes
            i = next((i for i, (a, b) in enumerate(zip(got, want * 40)) if a != b), None)
            if i is None:
                pytest.fail(f"thread {n} measured {len(got)} overlaps, not {40 * len(want)}")
            pytest.fail(f"thread {n}, boundary {i % len(want)} (pass {i // len(want)}):"
                        f" {got[i]!r} != {want[i % len(want)]!r}")


def test_protocol_overlap_checks_only_the_boundary_it_reads():
    # at bx = 0 the ground state is degenerate at bz = -1, boundary 5; the
    # run's spectra, solved for boundary 3, include it
    cfg = SweepConfig.from_rate(0.0, 1.0, bz_end=0.0, backend="trotter")
    for order in ((3, 5), (5, 3)):
        protocol._overlaps.cache_clear()
        for j in order:
            if j == 5:
                with pytest.raises(KzsimError, match=r"^ground state degenerate at bx=0\.0, bz=-1\.0 "):
                    protocol_overlap(cfg, j)
            else:
                assert protocol_overlap(cfg, j) == pytest.approx(1.0, abs=1e-12)


def test_protocol_overlap_measures_the_run_once(monkeypatch):
    # a cold read solves the fields of boundaries 0..steps in chunks, with no
    # second solve of boundary 0 for P(0), and streams segments 1..steps once;
    # every later read builds nothing
    monkeypatch.setattr(evolve, "SUBSTEP_CHUNK", 4)
    cfg = SweepConfig.from_rate(0.2, 0.25, bz_end=0.0, backend="trotter")
    fields = spectrum_fields(monkeypatch)
    eig_sizes, segment_fields = [], []
    real_eig, real_step = model.hermitian_eig, evolve.trotter_step

    def eig(m):
        eig_sizes.append(len(np.reshape(m, (-1, 3, 3))))
        return real_eig(m)

    def step(p, delta):
        segment_fields.extend(np.atleast_1d(p.bz).tolist())
        return real_step(p, delta)

    monkeypatch.setattr(model, "hermitian_eig", eig)
    monkeypatch.setattr(evolve, "trotter_step", step)
    for n, j in enumerate((5, 0, 3, 15, 13, 8)):
        fields.clear(), eig_sizes.clear(), segment_fields.clear()
        protocol_overlap(cfg, j)
        stacks = [] if n else [cfg.field(np.arange(lo, lo + 4)).tolist() for lo in (0, 4, 8, 12)]
        assert fields == stacks and eig_sizes == [len(f) for f in stacks], j
        assert segment_fields == ([] if n else cfg.field(np.arange(1, cfg.steps + 1)).tolist()), j


def test_protocol_overlap_at_start():
    cfg = SweepConfig.from_rate(0.1, 1.0)
    assert protocol_overlap(cfg, 0) == pytest.approx(1.0, abs=1e-10)


def test_protocol_overlap_equals_trotter_defect():
    for bx, k in ((0.1, 1.0), (0.2, 0.25)):
        cfg = SweepConfig.from_rate(bx, k, bz_end=0.0, backend="trotter")
        trace = scan(cfg)
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
    # a float, bool, str or None index is refused as out of range, not left
    # to range() (a TypeError for 3.0) or read as a boundary (True as 1)
    for j in (3.0, True, False, np.bool_(True), "3", None, np.float64(2.0)):
        with pytest.raises(IndexOutOfRange):
            protocol_overlap(cfg, j)
    # each on a cold run; a narrow numpy integer indexes as its value
    expected = protocol_overlap(cfg, 2)
    for j in (np.int8(2), np.uint8(2), np.int16(2), np.uint16(2), np.int32(2), np.int64(2)):
        protocol._overlaps.cache_clear()
        assert protocol_overlap(cfg, j) == expected, type(j)


def test_gradient_crush():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = m @ m.conj().T
    rho /= np.trace(rho)
    crushed = gradient_crush(rho)
    assert np.array_equal(gradient_crush(crushed), crushed)  # idempotent
    assert np.allclose(np.diag(crushed), np.diag(rho))
    assert np.max(np.abs(crushed - np.diag(np.diag(crushed)))) == 0
    # a stack is crushed member by member, bit for bit
    stack = rng.normal(size=(50, 4, 4)) + 1j * rng.normal(size=(50, 4, 4))
    assert [r.tobytes() for r in gradient_crush(stack)] == [gradient_crush(r).tobytes() for r in stack]


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


def test_schedule_solves_both_ends_as_one_stack(monkeypatch):
    cfg = SweepConfig.from_rate(0.2, 0.25, bz_end=0.0)
    fields = spectrum_fields(monkeypatch)
    nmr_schedule(cfg)
    assert fields == [[cfg.b0, cfg.bz_end]]


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
    with pytest.raises(KzsimError, match=r"unknown schedule entry \('wait', 1\.0\)"):
        replace(s, tail=(("wait", 1.0),)).to_text()


def test_schedule_unprep_angle_near_equal_c0_c1():
    # at the end of this window c0 ~ c1, where an arcsin of sin(beta + gamma)
    # ~ 1 loses about 2e-8 rad of beta
    s = nmr_schedule(SweepConfig(0.5, 1.0, delta=0.1, steps=15, backend="trotter"))
    assert s.unprep[0][:3] == ("pulse", 1, "y")
    assert s.unprep[0][3] == pytest.approx(0.8716111622538723, abs=1e-13)


def test_schedule_crush_not_simulable():
    cfg = SweepConfig.from_rate(0.1, 1.0)
    s = nmr_schedule(cfg)
    with pytest.raises(ValueError):
        simulate_entries(list(s.entries()), s.j_hz)
