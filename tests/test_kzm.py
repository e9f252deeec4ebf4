import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kzsim import evolve, kzm
from kzsim.errors import InvalidConfiguration
from kzsim.kzm import (KzmParams, fit_scaling, freeze_out,
                       lz_check, predicted_defects, quench_time,
                       reproduce_figure, run_scaling_sweep, tau0)

from helpers import spectrum_fields
from oracles import freeze_out_bisection


def params_for(x_alpha, alpha=1.5):
    # any (tau_q, tau_0) pair realizing the requested x_alpha
    return KzmParams(tau_q=x_alpha / alpha, tau_0=1.0, alpha=alpha)


def test_quench_time_and_tau0():
    assert quench_time(0.1, 1.0) == pytest.approx(math.sqrt(2) * 0.1)
    assert quench_time(0.1, 1.0) == pytest.approx(0.14142, abs=1e-5)
    assert tau0(0.1) == pytest.approx(3.53553, abs=1e-5)
    assert quench_time(0.2, 0.25) / tau0(0.2) == pytest.approx(0.64)
    for bx, k in ((-0.1, 1.0), (0.0, 1.0), (0.1, 0.0)):
        with pytest.raises(InvalidConfiguration, match=f"^need bx > 0 and k > 0, got bx={bx}, k={k}$"):
            quench_time(bx, k)
    for bx in (0.0, 1e308):  # no gap, and a gap that overflows
        with pytest.raises(InvalidConfiguration, match=r"^need bx > 0 and a finite gap 2 sqrt\(2\) bx"):
            tau0(bx)


def test_kzm_params_ratio_invariant():
    for bx, k in ((0.1, 1.0), (0.2, 0.25), (0.05, 0.7)):
        p = KzmParams(tau_q=quench_time(bx, k), tau_0=tau0(bx), alpha=1.5)
        assert p.tau_q / p.tau_0 == pytest.approx(4 * bx * bx / k, abs=1e-12)


def test_freeze_out_golden_point():
    p = params_for(1.0)
    _, eps = freeze_out(p)
    assert eps**2 == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-12)


def test_freeze_out_asymptotics():
    slow = params_for(1e3)
    _, eps = freeze_out(slow)
    assert eps == pytest.approx(1e-3, rel=1e-3)
    fast = params_for(1e-3)
    _, eps = freeze_out(fast)
    assert eps == pytest.approx(1 / math.sqrt(1e-3), rel=1e-3)


@settings(max_examples=200, deadline=None)
@given(*[st.floats(-6.0, 6.0)] * 3)
def test_freeze_out_matches_bisection(log_tau_q, log_tau_0, log_alpha):
    # log-uniform times and constant in [1e-6, 1e6], with x_alpha in [1e-12, 1e12]
    p = KzmParams(tau_q=10**log_tau_q, tau_0=10**log_tau_0, alpha=10**log_alpha)
    assume(1e-12 <= p.x_alpha <= 1e12)
    t_c, eps_c = freeze_out(p)
    t_b, eps_b = freeze_out_bisection(p)
    assert abs(t_b - t_c) <= 1e-10 * t_c
    assert abs(eps_b - eps_c) <= 1e-10 * eps_c


@settings(max_examples=200, deadline=None)
@given(*[st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)] * 3)
@example(1e300, 1e300, 1e-150)  # t_hat overflows
@example(1e-300, 1e-300, 1e150)  # t_hat underflows
def test_freeze_out_on_extreme_floats(tau_q, tau_0, alpha):
    try:
        p = KzmParams(tau_q=tau_q, tau_0=tau_0, alpha=alpha)
    except InvalidConfiguration as exc:
        assert str(exc).startswith("x_alpha = "), exc
        return
    assert 0 <= predicted_defects(p) <= 1
    try:
        t_hat, eps_hat = freeze_out(p)
    except InvalidConfiguration as exc:
        assert str(exc).startswith("t_hat = "), exc
        return
    assert 0 < eps_hat < math.inf
    assert 0 < t_hat < math.inf


def test_predicted_defects_values():
    assert predicted_defects(params_for(1.0)) == pytest.approx(0.38196601, abs=1e-8)
    # slow-quench regime reduces to the exponential law
    assert predicted_defects(params_for(0.06)) == pytest.approx(math.exp(-0.06), abs=2e-3)
    assert predicted_defects(params_for(1e3)) < 1e-5


def test_predicted_defects_monotone():
    xs = np.logspace(-3, 3, 50)
    ds = [predicted_defects(params_for(float(x))) for x in xs]
    assert all(0 < d < 1 for d in ds)
    assert all(a > b for a, b in zip(ds, ds[1:]))


def test_fit_scaling_recovers_synthetic_law():
    pts = [(x, math.exp(-1.37 * x)) for x in np.linspace(0.05, 0.6, 10)]
    alpha_hat, r = fit_scaling(pts)
    assert alpha_hat == pytest.approx(1.37, abs=1e-12)
    assert r == pytest.approx(1.0, abs=1e-12)


def test_fit_scaling_excludes_tiny_defects():
    pts = [(x, math.exp(-1.0 * x)) for x in np.linspace(0.1, 1.0, 8)]
    alpha_hat, r = fit_scaling(pts + [(50.0, 1e-30)])
    assert alpha_hat == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InvalidConfiguration, match="^need at least two usable points to fit$"):
        fit_scaling([(1.0, 1e-30), (2.0, 1e-30)])
    # a defect of exactly 1e-6 is kept
    assert fit_scaling([(1.0, 1e-3), (2.0, 1e-6)])[0] == pytest.approx(math.log(1e3))


def test_fit_scaling_refuses_repeated_rates():
    # points that share one x, or one ln d, at any count: the mean of equal
    # values can round off them and leave a spread that is not zero
    for n in range(2, 201):
        for x, d in ((0.04, 0.7316), (0.08, 0.5), (0.16, 1.0 / 3.0)):
            for pts in ([(x, d)] * n, [(x, d * (1 - i / (2 * n))) for i in range(n)],
                        [(x * (1 + i), d) for i in range(n)]):
                with pytest.raises(InvalidConfiguration, match="degenerate point set"):
                    fit_scaling(pts)


def test_scaling_sweep_reads_only_the_last_boundary(monkeypatch):
    calls, fields = [], spectrum_fields(monkeypatch)
    for name in ("concurrence", "concurrence_mixed"):
        monkeypatch.setattr(evolve, name, lambda *args, name=name: calls.append(name))
    options = {"backend": "trotter", "t2": kzm.T2_DEFAULT}
    points, _, _ = run_scaling_sweep(kzm.EXPERIMENT_BX_VALUES, kzm.EXPERIMENT_K_VALUES, **options)
    assert len(points) == 8 and calls == []
    # one call per run, on two fields: its ground state at b0 and its last boundary
    cfgs = [evolve.SweepConfig.from_rate(bx, k, **options)
            for bx in kzm.EXPERIMENT_BX_VALUES for k in kzm.EXPERIMENT_K_VALUES]
    assert sorted(fields) == sorted([c.b0, c.bz_end] for c in cfgs)


def test_lz_check_against_formula():
    p_num, p_form = lz_check(0.1, 1.0)
    assert p_form == pytest.approx(math.exp(-2 * math.pi * 0.01), rel=1e-12)
    assert p_form == pytest.approx(0.9391, abs=1e-4)
    assert abs(p_num - p_form) <= 0.01
    p_num, p_form = lz_check(0.2, 0.25)
    assert p_form == pytest.approx(0.36593, abs=1e-5)
    assert abs(p_num - p_form) <= 0.02


def test_lz_check_adiabatic_limit():
    p_num, p_form = lz_check(0.2, 0.02)
    assert p_form < 1e-5
    assert p_num < 1e-3


def test_lz_check_invalid():
    for bx, k in ((0.1, 0.0), (0.0, 1.0)):
        with pytest.raises(InvalidConfiguration, match="need finite bx > 0"):
            lz_check(bx, k)
    with pytest.raises(InvalidConfiguration, match="^need finite bx > 0 and k > 0, got bx=nan, k=1.0$"):
        lz_check(float("nan"), 1.0)


def test_lz_check_solves_both_window_ends_as_one_stack(monkeypatch):
    shapes, eig = [], kzm.hermitian_eig

    def spy(m):
        shapes.append(np.shape(m))
        return eig(m)

    monkeypatch.setattr(kzm, "hermitian_eig", spy)
    lz_check(0.2, 0.25)
    assert shapes == [(2, 2, 2)]


def test_lz_check_chunking_keeps_bits(monkeypatch):
    expected = lz_check(0.2, 0.25)  # 2263 substeps
    monkeypatch.setattr(evolve, "SUBSTEP_CHUNK", 7)
    assert lz_check(0.2, 0.25) == expected


def test_reproduce_figure_unknown():
    with pytest.raises(InvalidConfiguration, match="^unknown figure 'fig7'; choose from fig1a, "):
        reproduce_figure("fig7")


def test_figure_levels_dataset():
    _, header, rows = reproduce_figure("fig1a")
    assert header == ("bz", "e0", "e1", "e2")
    assert len(rows) == 401
    for row in rows[::40]:
        assert row[1] <= row[2] <= row[3]
    # avoided crossing: smallest gap sits at bz = -1 and +1
    gaps = {row[0]: row[2] - row[1] for row in rows}
    assert min(gaps.values()) == pytest.approx(gaps[-1.0], rel=1e-9)
    assert [row[0] for row in reproduce_figure("fig1b")[2]] == [row[0] for row in rows]


def test_figure_populations_dataset():
    _, _, rows = reproduce_figure("fig1c")
    by_key = {}
    for k, t, bz, a0, a1, a2, d in rows:
        by_key[(k, round(bz, 6))] = (a0, d)
    # quiescent before the critical region when started at -2
    assert by_key[(1.0, -1.5)][0] > 0.995
    # the slower scan keeps more ground population at the sampling point
    assert by_key[(0.05, -0.2)][1] < by_key[(1.0, -0.2)][1]


def test_figure_defects_dataset():
    _, _, rows = reproduce_figure("fig3")
    finals = {}
    for bx, k, variant, t, bz, d in rows:
        if variant == "reference" and abs(bz + 0.2) < 1e-9:
            finals[(bx, k)] = d
    for bx in (0.1, 0.2):
        ks = sorted(k for b, k in finals if b == bx)
        ds = [finals[(bx, k)] for k in ks]
        assert all(a < b for a, b in zip(ds, ds[1:]))  # slower scan, fewer defects
    variants = {row[2] for row in rows}
    assert variants == {"reference", "trotter", "trotter-t2"}


def test_figure_scaling_dataset():
    _, header, rows = reproduce_figure("fig4")
    assert header == ("series", "bx", "k", "tau_ratio", "defect")
    series = {row[0] for row in rows}
    assert series == {"ideal-bx0.1", "ideal-bx0.2", "experiment-grid"}
    assert len(rows) == 2 * len(kzm.IDEAL_K_VALUES) + 8
    for name, bx, k, x, d in rows:
        assert x == pytest.approx(4 * bx * bx / k, rel=1e-12)
        assert 0 < d < 1


def test_figure_concurrence_dataset():
    _, _, rows = reproduce_figure("fig5")
    at_zero = {}
    for bx, k, bz, c, d in rows:
        if abs(bz) < 1e-9:
            at_zero[(bx, round(k, 6))] = c
    assert at_zero[(0.2, round(1 / 30, 6))] > at_zero[(0.1, 1.0)]
    assert at_zero[(0.2, round(1 / 30, 6))] > 0.9


def test_invalid_kzm_params():
    for tau_q, tau_0 in ((-1.0, 1.0), (0.0, 1.0), (1.0, 0.0)):
        with pytest.raises(InvalidConfiguration, match="must be positive"):
            KzmParams(tau_q=tau_q, tau_0=tau_0, alpha=1.0)
    with pytest.raises(InvalidConfiguration, match="^alpha must be positive, got 0.0$"):
        KzmParams(tau_q=1.0, tau_0=1.0, alpha=0.0)
    # x_alpha^2 underflows, 4/x_alpha^2 overflows, or x_alpha overflows:
    # the closed forms would give NaN, divide by zero or return t_hat = 0
    for tau_q, tau_0, alpha in ((1e-160, 1.0, 1.0), (1e-200, 1.0, 1.0), (1e300, 1e-10, 1e10)):
        with pytest.raises(InvalidConfiguration, match="x_alpha"):
            KzmParams(tau_q=tau_q, tau_0=tau_0, alpha=alpha)
    # in the domain, t_hat = eps_hat tau_q would overflow to inf or underflow to 0
    for tau_q, tau_0, alpha in ((1e300, 1e300, 1e-150), (1e-300, 1e-300, 1e150)):
        with pytest.raises(InvalidConfiguration, match="t_hat"):
            freeze_out(KzmParams(tau_q=tau_q, tau_0=tau_0, alpha=alpha))
