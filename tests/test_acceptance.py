"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every tolerance is stated inline.
"""
import math

import numpy as np

from kzsim import evolve, kzm, model, protocol
from kzsim.evolve import SweepConfig, scan, trotter_step
from kzsim.kzm import KzmParams, freeze_out, predicted_defects
from kzsim.model import KET_00, ModelParams, PHI_MINUS, PHI_PLUS, ground_vector
from kzsim.smallmat import unitary_step

from helpers import segment_unitaries
from oracles import freeze_out_bisection, random_hermitian

EXPERIMENT_SETS = [(bx, k) for bx in (0.1, 0.2) for k in (1.0, 0.5, 1 / 3, 0.25)]


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_ground_state_overlap():
    g = ground_vector(ModelParams(bx=0.1, bz=-2.0))
    val = abs(g[0]) ** 2
    ok = val > 0.995
    _report(1, ok, f"|<00|psi_g(0.1,-2)>|^2 = {val:.6f} > 0.995")
    assert ok


def test_criterion_02_trotter_fidelity():
    worst = 1.0
    for bx, k in EXPERIMENT_SETS:
        delta = 0.1 / k
        psi = ground_vector(ModelParams(bx=bx, bz=-1.5))
        for m in range(1, 16):
            p = ModelParams(bx=bx, bz=-1.5 + 0.1 * m)
            exact = unitary_step(model.driven_hamiltonian(p), delta) @ psi
            approx = trotter_step(p, delta) @ psi
            worst = min(worst, abs(np.vdot(exact, approx)) ** 2)
            psi = exact
    ok = worst >= 0.994
    _report(2, ok, f"worst per-step fidelity {worst:.6f} >= 0.994 over 8 settings")
    assert ok


def test_criterion_03_pre_critical_quiescence():
    cfg = SweepConfig.from_rate(0.1, 1.0, b0=-2.0, bz_end=-0.2)
    trace = scan(cfg)
    early = [d for bz, d in zip(trace.bz, trace.defect) if bz <= -1.5 + 1e-9]
    worst = max(early)
    ok = worst < 0.005
    _report(3, ok, f"max D(bz <= -1.5) = {worst:.6f} < 0.005 from b0 = -2")
    assert ok


def test_criterion_04_table_fits():
    fit1 = kzm.run_scaling_sweep([0.1], kzm.IDEAL_K_VALUES, backend="reference")
    fit2 = kzm.run_scaling_sweep([0.2], kzm.IDEAL_K_VALUES, backend="reference")
    fit3 = kzm.run_scaling_sweep([0.1, 0.2], kzm.EXPERIMENT_K_VALUES, backend="trotter")
    checks = [
        ("ideal bx=0.1", fit1, 1.49),
        ("ideal bx=0.2", fit2, 1.51),
        ("trotter grid", fit3, 1.48),
    ]
    ok = True
    parts = []
    for name, fit, target in checks:
        good = abs(fit.alpha_hat - target) <= 0.10 and fit.r >= 0.96
        ok = ok and good
        parts.append(f"{name}: alpha={fit.alpha_hat:.3f} (target {target}+-0.10),"
                     f" r={fit.r:.3f}")
    _report(4, ok, "; ".join(parts))
    assert ok


def test_criterion_05_lz_consistency():
    worst = 0.0
    for bx in (0.1, 0.2):
        for k in (1.0, 0.5, 0.25):
            p_num, p_form = kzm.lz_check(bx, k)
            worst = max(worst, abs(p_num - p_form))
    ok = worst <= 0.02
    _report(5, ok, f"worst |p_numeric - exp(-2 pi bx^2/k)| = {worst:.5f} <= 0.02")
    assert ok


def test_criterion_06_freeze_out_equivalence():
    worst = 0.0
    for x in np.logspace(-3, 3, 1000):
        p = KzmParams(tau_q=float(x) / 1.5, tau_0=1.0, alpha=1.5)
        t_c, eps_c = freeze_out(p)
        t_b, eps_b = freeze_out_bisection(p)
        worst = max(worst, abs(eps_b - eps_c) / eps_c, abs(t_b - t_c) / t_c)
    ok = worst <= 1e-10
    _report(6, ok, f"closed form vs bisection, worst relative gap {worst:.2e} <= 1e-10")
    assert ok


def test_criterion_07_exponential_regime():
    worst = 0.0
    for x in np.logspace(-3, math.log10(0.3), 300):
        p = KzmParams(tau_q=float(x) / 1.5, tau_0=1.0, alpha=1.5)
        d = predicted_defects(p)
        worst = max(worst, abs(math.log(d) + float(x)) / float(x))
    ok = worst <= 0.05
    _report(7, ok, f"max |ln D_f + x|/x = {worst:.4f} <= 0.05 for x <= 0.3")
    assert ok


def test_criterion_08_backend_equivalence():
    worst = 0.0
    where = None
    for bx, k in EXPERIMENT_SETS:
        ref = scan(SweepConfig.from_rate(bx, k, bz_end=0.0))
        trot = scan(SweepConfig.from_rate(bx, k, bz_end=0.0, backend="trotter"))
        for bz, d_r, d_t in zip(ref.bz, ref.defect, trot.defect):
            if -0.1 < bz < 0.1:
                continue
            gap = abs(d_t - d_r)
            if gap > worst:
                worst, where = gap, (bx, round(k, 4), round(float(bz), 2))
    ok = worst <= 0.02
    _report(8, ok, f"max |D_trotter - D_reference| = {worst:.4f} at"
                   f" (bx, k, bz) = {where}; requirement <= 0.02")
    assert ok, (
        "the split-step error of the coarse experimental segments (delta up"
        " to 0.4) exceeds the 0.02 band near the sampling point; see the"
        " decisions ledger"
    )


def test_criterion_09_protocol_identity():
    worst = 0.0
    for bx, k in EXPERIMENT_SETS:
        cfg = SweepConfig.from_rate(bx, k, bz_end=0.0, backend="trotter")
        trace = scan(cfg)
        for j in range(cfg.steps + 1):
            f = protocol.protocol_overlap(cfg, j)
            worst = max(worst, abs((1.0 - f) - trace.defect[j]))
    ok = worst <= 1e-9
    _report(9, ok, f"max |(1 - F_protocol) - D_trotter| = {worst:.2e} <= 1e-9")
    assert ok


def test_criterion_10_concurrence():
    c_bell = evolve.concurrence(PHI_PLUS)
    c_prod = evolve.concurrence(KET_00)
    cfg = SweepConfig.from_rate(0.2, 1 / 50, bz_end=0.0)
    slow = scan(cfg)
    c_slow = slow.concurrence[-1]
    cfg = SweepConfig.from_rate(0.1, 1.0, bz_end=0.0)
    fast = scan(cfg)
    c_fast = fast.concurrence[-1]
    # "exact" endpoints hold to one ulp of double arithmetic (1/sqrt(2) is
    # not representable, so C(phi+) evaluates 2^-52 below 1)
    ok = (abs(c_bell - 1.0) <= 1e-15 and c_prod == 0.0
          and c_slow >= 0.95 and c_fast <= 0.3)
    _report(10, ok, f"C(phi+)={c_bell}, C(00)={c_prod},"
                    f" adiabatic C(bz=0)={c_slow:.4f} (>=0.95 required),"
                    f" fast C(bz=0)={c_fast:.4f} (<=0.3 required)")
    assert abs(c_bell - 1.0) <= 1e-15
    assert c_prod == 0.0
    assert c_fast <= 0.3
    assert c_slow >= 0.95, (
        "the bx=0.2 instantaneous ground state caps the concurrence at 0.929"
        " at bz=0, so an adiabatic sweep cannot reach 0.95; see the decisions"
        " ledger"
    )


def test_criterion_11_t2_effect():
    diffs = {}
    for bx in (0.1, 0.2):
        pure = scan(SweepConfig.from_rate(bx, 0.25, backend="trotter"))
        noisy = scan(SweepConfig.from_rate(bx, 0.25, backend="trotter", t2=(2.0, 0.2)))
        diffs[bx] = abs(noisy.final_defect - pure.final_defect)
    fit_u = kzm.run_scaling_sweep([0.1, 0.2], kzm.EXPERIMENT_K_VALUES, backend="trotter")
    fit_t = kzm.run_scaling_sweep([0.1, 0.2], kzm.EXPERIMENT_K_VALUES,
                                  backend="trotter", t2=(2.0, 0.2))
    moved = abs(fit_t.alpha_hat - 1.42) < abs(fit_u.alpha_hat - 1.42)
    shifted = max(diffs.values()) > 0.01
    ok = shifted and moved and fit_t.alpha_hat < fit_u.alpha_hat
    _report(11, ok, f"|D_t2 - D| at k=1/4: bx=0.1: {diffs[0.1]:.4f},"
                    f" bx=0.2: {diffs[0.2]:.4f} (>0.01 required);"
                    f" alpha {fit_u.alpha_hat:.3f} -> {fit_t.alpha_hat:.3f}"
                    f" (toward 1.42)")
    assert ok


def test_criterion_12_property_suite():
    rng = np.random.default_rng(123)
    # unitarity of generated steps
    worst_u = 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 5))
        h = random_hermitian(rng, dim)
        u = unitary_step(h, float(rng.uniform(-2, 2)))
        worst_u = max(worst_u, float(np.max(np.abs(u.conj().T @ u - np.eye(dim)))))
    # norm conservation and triplet confinement along random scans
    worst_norm = 0.0
    worst_singlet = 0.0
    for _ in range(3):
        bx = float(rng.uniform(0.05, 0.3))
        k = float(rng.uniform(0.3, 1.2))
        backend = ("reference", "trotter")[int(rng.integers(0, 2))]
        cfg = SweepConfig.from_rate(bx, k, bz_end=0.0, backend=backend)
        psi = ground_vector(ModelParams(bx=bx, bz=-1.5))
        for u in segment_unitaries(cfg):
            psi = u @ psi
            worst_norm = max(worst_norm, abs(abs(np.vdot(psi, psi)) - 1.0))
            worst_singlet = max(worst_singlet, abs(np.vdot(PHI_MINUS, psi)) ** 2)
    # trace conservation under dephasing
    cfg = SweepConfig.from_rate(0.2, 0.25, backend="trotter", t2=(2.0, 0.2), bz_end=0.0)
    g = ground_vector(ModelParams(bx=0.2, bz=-1.5))
    rho = np.outer(g, g.conj())
    mask = evolve.phase_damping_factors(cfg)
    worst_trace = 0.0
    for u in segment_unitaries(cfg):
        rho = (u @ rho @ u.conj().T) * mask
        worst_trace = max(worst_trace, abs(np.trace(rho).real - 1.0))
    # grid refinement of the reference backend
    cfg = SweepConfig.from_rate(0.1, 1.0)
    d_coarse = scan(cfg).final_defect
    saved = evolve.REFERENCE_SUBSTEP
    try:
        evolve.REFERENCE_SUBSTEP = saved / 2
        d_fine = scan(cfg).final_defect
    finally:
        evolve.REFERENCE_SUBSTEP = saved
    refine = abs(d_coarse - d_fine)
    ok = (worst_u <= 1e-10 and worst_norm <= 1e-10 and worst_singlet <= 1e-12
          and worst_trace <= 1e-10 and refine < 1e-4)
    _report(12, ok, f"unitarity {worst_u:.1e} <= 1e-10; norm drift"
                    f" {worst_norm:.1e} <= 1e-10; singlet leakage"
                    f" {worst_singlet:.1e} <= 1e-12; trace drift"
                    f" {worst_trace:.1e} <= 1e-10; refinement shift"
                    f" {refine:.1e} < 1e-4")
    assert ok
