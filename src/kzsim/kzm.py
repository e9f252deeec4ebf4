"""Freeze-out analysis and defect-scaling laws for the swept two-qubit model.

The sweep near bz = -1 maps onto a linear level crossing with quench time
tau_q = sqrt(2) bx / k and maximal relaxation time tau_0 = 1/(2 sqrt(2) bx),
so tau_q / tau_0 = 4 bx^2 / k.  The freeze-out instant t_hat solves
tau(t_hat) = alpha * t_hat; in the rescaled distance eps = t / tau_q it has
the closed form

    eps_hat = sqrt( (sqrt(1 + 4/x^2) - 1) / 2 ),   x = alpha * tau_q / tau_0.

Matching the frozen state back onto the adiabatic branches after the
crossing gives the final defect density eps_hat^2 / (1 + eps_hat^2), which
reduces to exp(-x) for slow quenches.  ``run_scaling_sweep`` measures the
defect density at bz = -0.2 (past the first crossing, before the second) for
a grid of rates and fits ln D_f against tau_q/tau_0 to estimate alpha; the
linear-crossing asymptotics predict alpha = pi/2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import evolve, model
from .errors import InvalidParam, UnknownFigure
from .evolve import SweepConfig
from .model import ModelParams
from .smallmat import DEGENERACY_TOL, hermitian_eig

# grid of scan rates for the smooth-model scaling fits; log-spaced and wider
# than the experimental 1/4..1 window so the fit is not dominated by the
# coherent post-crossing oscillation at any single rate
IDEAL_K_VALUES = tuple(float(k) for k in np.exp(np.linspace(math.log(0.125), 0.0, 12)))
# the eight experimentally realized rate settings
EXPERIMENT_K_VALUES = (1.0, 0.5, 1.0 / 3.0, 0.25)
EXPERIMENT_BX_VALUES = (0.1, 0.2)
T2_DEFAULT = (2.0, 0.2)
_FIT_EXCLUDE_BELOW = 1e-6


@dataclass(frozen=True)
class KzmParams:
    """Quench time, maximal relaxation time and the freeze-out constant."""

    tau_q: float
    tau_0: float
    alpha: float

    def __post_init__(self) -> None:
        for name in ("tau_q", "tau_0", "alpha"):
            v = getattr(self, name)
            if v <= 0 or not math.isfinite(v):
                raise InvalidParam(f"{name} must be positive, got {v}")

    @property
    def x_alpha(self) -> float:
        return self.alpha * self.tau_q / self.tau_0

    @classmethod
    def from_sweep(cls, bx: float, k: float, alpha: float) -> "KzmParams":
        return cls(tau_q=quench_time(bx, k), tau_0=tau0(bx), alpha=alpha)


@dataclass(frozen=True)
class ScalingFit:
    """(tau_q/tau_0, D_f) points with the fitted decay constant.

    ``alpha_hat`` is minus the least-squares slope of ln D_f versus x;
    ``r`` is the magnitude of the Pearson correlation of that line (the
    fit decays, so the raw coefficient is negative).
    """

    points: tuple[tuple[float, float], ...]
    alpha_hat: float
    r: float
    n_points: int
    bx_values: tuple[float, ...]
    backend: str

    def to_record(self) -> dict:
        return {
            "alpha_hat": self.alpha_hat,
            "r": self.r,
            "n_points": self.n_points,
            "bx_values": list(self.bx_values),
            "backend": self.backend,
        }


def quench_time(bx: float, k: float) -> float:
    """tau_q = sqrt(2) bx / k."""
    if bx <= 0 or k <= 0 or not (math.isfinite(bx) and math.isfinite(k)):
        raise InvalidParam(f"need bx > 0 and k > 0, got bx={bx}, k={k}")
    return math.sqrt(2) * bx / k


def tau0(bx: float) -> float:
    """Maximal relaxation time 1/(2 sqrt(2) bx)."""
    gap = 2.0 * math.sqrt(2) * bx
    if not 0 < gap < math.inf:
        raise InvalidParam(f"need bx > 0 and a finite gap 2 sqrt(2) bx, got bx={bx}")
    return 1.0 / gap


def freeze_out(p: KzmParams, verify: bool = True) -> tuple[float, float]:
    """Freeze-out time and rescaled distance (t_hat, eps_hat).

    Uses the closed form; with ``verify`` the value is cross-checked against
    an independent bisection root-find of tau(t) = alpha t (agreement to
    1e-10 relative).
    """
    u = 4.0 / (p.x_alpha * p.x_alpha)
    # sqrt(1+u) - 1 rewritten to stay accurate for small u
    eps_sq = 0.5 * u / (math.sqrt(1.0 + u) + 1.0)
    eps_hat = math.sqrt(eps_sq)
    t_hat = eps_hat * p.tau_q
    if verify:
        t_b, _ = freeze_out_bisection(p)
        if abs(t_b - t_hat) > 1e-10 * t_hat:
            raise ArithmeticError(
                f"closed form {t_hat} and bisection {t_b} disagree"
            )
    return t_hat, eps_hat


def freeze_out_bisection(p: KzmParams) -> tuple[float, float]:
    """Root of tau_0/sqrt(1+(t/tau_q)^2) = alpha*t by plain bisection."""

    def f(t: float) -> float:
        return p.tau_0 / math.sqrt(1.0 + (t / p.tau_q) ** 2) - p.alpha * t

    lo = 0.0
    hi = 10.0 * p.tau_0 / p.alpha
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    t_hat = 0.5 * (lo + hi)
    return t_hat, t_hat / p.tau_q


def predicted_defects(p: KzmParams) -> float:
    """Final defect density eps_hat^2 / (1 + eps_hat^2) of the frozen state.

    Agrees with exp(-x_alpha) to second order for slow quenches and tends to
    one for fast ones.
    """
    u = 4.0 / (p.x_alpha * p.x_alpha)
    eps_sq = 0.5 * u / (math.sqrt(1.0 + u) + 1.0)
    return eps_sq / (1.0 + eps_sq)


def fit_scaling(points) -> tuple[float, float]:
    """Least-squares estimate of the decay constant from (x, d_f) points.

    Fits ln d_f = c - alpha x; points with d_f below 1e-6 are dropped to
    keep the logarithm well conditioned.  Returns (alpha_hat, |r|).
    """
    kept = sorted((x, d) for x, d in points if d >= _FIT_EXCLUDE_BELOW)
    if len(kept) < 2:
        raise InvalidParam("need at least two usable points to fit")
    x = np.array([q[0] for q in kept])
    y = np.log(np.array([q[1] for q in kept]))
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    sxy = float(np.sum((x - xm) * (y - ym)))
    syy = float(np.sum((y - ym) ** 2))
    if sxx == 0.0 or syy == 0.0:
        raise InvalidParam("degenerate point set for the fit")
    slope = sxy / sxx
    r = abs(sxy / math.sqrt(sxx * syy))
    return -slope, r


def _tau_ratio(cfg: SweepConfig) -> float:
    """tau_q/tau_0 = 4 bx^2/k of a scan, refused when it overflows."""
    x = quench_time(cfg.bx, cfg.k) / tau0(cfg.bx)
    if not math.isfinite(x):
        raise InvalidParam(f"tau_q/tau_0 = 4 bx^2/k overflows at bx={cfg.bx}, k={cfg.k}")
    return x


def _scaling_point(cfg: SweepConfig) -> tuple[float, float]:
    return _tau_ratio(cfg), evolve.scan(cfg).final_defect


def run_scaling_sweep(bx_values, k_values, **options) -> ScalingFit:
    """One scan per (bx, k) pair; defect sampled at the end of the window.

    ``options`` go to ``SweepConfig.from_rate``, whose default window ends
    at bz = -0.2.  The points are pooled into a single fit, so call once per
    transverse field for per-field estimates or with both fields for the
    pooled experimental-grid estimate.  A grid of more than
    evolve.MAX_SUBSTEPS propagator steps in all, or with a tau_q/tau_0
    that overflows, is refused before any scan.
    """
    cfgs = [SweepConfig.from_rate(bx, k, **options) for bx in bx_values for k in k_values]
    work = sum(evolve._work(c) for c in cfgs)
    evolve._check_work(work, f"grid of {len(cfgs)} scans needs {work} propagator steps")
    for c in cfgs:
        _tau_ratio(c)
    pts = sorted(_scaling_point(c) for c in cfgs)
    alpha_hat, r = fit_scaling(pts)
    return ScalingFit(
        points=tuple(pts),
        alpha_hat=alpha_hat,
        r=r,
        n_points=len(pts),
        bx_values=tuple(bx_values),
        backend=cfgs[0].backend,
    )


def lz_check(bx: float, k: float) -> tuple[float, float]:
    """Excited population of a long symmetric two-level sweep vs the
    linear-crossing formula exp(-2 pi bx^2 / k).

    The detuning bz + 1 runs from -10 sqrt(2) bx to +10 sqrt(2) bx at rate k,
    integrated with midpoint substeps of at most 0.01 time units; more than
    evolve.MAX_SUBSTEPS of them are refused, and so are window ends whose
    levels are not split beyond smallmat.DEGENERACY_TOL.
    """
    if not (bx > 0 and k > 0 and math.isfinite(bx) and math.isfinite(k)):
        raise InvalidParam(f"need finite bx > 0 and k > 0, got bx={bx}, k={k}")
    half_window = 10.0 * math.sqrt(2) * bx
    z0 = -1.0 - half_window
    total = 2.0 * half_window / k
    n = evolve._substep_count(total)
    evolve._check_work(n, f"lz-check needs {n} substeps")
    h = total / n
    ends = [hermitian_eig(model.effective_hamiltonian(ModelParams(bx=bx, bz=z)))
            for z in (z0, z0 + k * total)]
    for sd in ends:  # levels within DEGENERACY_TOL are ordered by basis index, not energy
        if not sd.gap > DEGENERACY_TOL * max(1.0, float(np.max(np.abs(sd.eigenvalues)))):
            raise InvalidParam(f"the levels at a window end are split by {sd.gap:.3g}, within"
                               f" DEGENERACY_TOL of each other at bx={bx}; use a larger bx")

    def hamiltonians(i):
        return model.effective_hamiltonian(ModelParams(bx=bx, bz=z0 + k * (i + 0.5) * h))

    steps = evolve._midpoint_steps(hamiltonians, 0, n, h)
    psi = evolve._advance(ends[0].eigenvectors[:, 0], steps)
    p_numeric = float(abs(np.vdot(ends[1].eigenvectors[:, 1], psi)) ** 2)
    p_formula = math.exp(-2.0 * math.pi * bx * bx / k)
    return p_numeric, p_formula


@dataclass(frozen=True)
class FigureData:
    """One reproducible dataset: column names plus rows of values."""

    figure_id: str
    note: str
    header: tuple[str, ...]
    rows: tuple[tuple, ...]


def _fig_levels(bx: float = 0.1):
    bz = np.arange(-200, 201) / 100.0
    levels = model.triplet_spectrum(ModelParams(bx=bx, bz=bz)).eigenvalues
    return [(b, *e) for b, e in zip(bz.tolist(), levels.tolist())]


def _fig_tau(bx: float = 0.1):
    bz = np.arange(-200, 201) / 100.0
    return list(zip(bz.tolist(), model.relaxation_time(ModelParams(bx=bx, bz=bz)).tolist()))


def _fig_populations():
    rows = []
    for k in (1.0, 0.05):
        trace = evolve.scan(SweepConfig.from_rate(0.1, k, b0=-2.0, bz_end=2.0))
        for i in range(len(trace)):
            rows.append((k, trace.t[i], trace.bz[i], trace.a0[i],
                         trace.a1[i], trace.a2[i], trace.defect[i]))
    return rows


def _fig_defect_curves():
    rows = []
    variants = [(k, b, None, b) for k in EXPERIMENT_K_VALUES for b in ("reference", "trotter")]
    variants.append((0.25, "trotter", T2_DEFAULT, "trotter-t2"))
    for bx in EXPERIMENT_BX_VALUES:
        for k, backend, t2, label in variants:
            trace = evolve.scan(SweepConfig.from_rate(bx, k, bz_end=0.0, backend=backend, t2=t2))
            for i in range(len(trace)):
                rows.append((bx, k, label, trace.t[i], trace.bz[i], trace.defect[i]))
    return rows


def _fig_scaling_points():
    series = [(f"ideal-bx{bx}", bx, k, "reference")
              for bx in EXPERIMENT_BX_VALUES for k in sorted(IDEAL_K_VALUES, reverse=True)]
    series += [("experiment-grid", bx, k, "trotter")
               for bx in EXPERIMENT_BX_VALUES for k in EXPERIMENT_K_VALUES]
    return [(name, bx, k, *_scaling_point(SweepConfig.from_rate(bx, k, backend=backend)))
            for name, bx, k, backend in series]


def _fig_concurrence():
    rows = []
    for bx in EXPERIMENT_BX_VALUES:
        for k in (1.0, 0.1, 1.0 / 30.0):
            trace = evolve.scan(SweepConfig.from_rate(bx, k, bz_end=1.5))
            for i in range(len(trace)):
                rows.append((bx, k, trace.bz[i], trace.concurrence[i], trace.defect[i]))
    return rows


_FIGURES = {
    "fig1a": (
        "triplet energy levels, bx=0.1, bz in [-2, 2]",
        ("bz", "e0", "e1", "e2"),
        _fig_levels,
    ),
    "fig1b": (
        "relaxation time 1/gap, bx=0.1, bz in [-2, 2]",
        ("bz", "tau"),
        _fig_tau,
    ),
    "fig1c": (
        "eigenpopulations during scans, bx=0.1, k in {1, 1/20}, b0=-2",
        ("k", "t", "bz", "a0", "a1", "a2", "defect"),
        _fig_populations,
    ),
    "fig3": (
        "defect curves, bx in {0.1,0.2} x k in {1,1/2,1/3,1/4}, b0=-1.5;"
        " t2 variant (2 s, 0.2 s) at k=1/4",
        ("bx", "k", "variant", "t", "bz", "defect"),
        _fig_defect_curves,
    ),
    "fig4": (
        "defect scaling points: ideal reference grid per bx and the"
        " trotterized experimental grid",
        ("series", "bx", "k", "tau_ratio", "defect"),
        _fig_scaling_points,
    ),
    "fig5": (
        "concurrence during scans, bx in {0.1,0.2} x k in {1,1/10,1/30},"
        " b0=-1.5 to 1.5",
        ("bx", "k", "bz", "concurrence", "defect"),
        _fig_concurrence,
    ),
}

FIGURE_IDS = tuple(sorted(_FIGURES))


def reproduce_figure(figure_id: str) -> FigureData:
    """Dataset behind one of the published figures."""
    try:
        note, header, builder = _FIGURES[figure_id]
    except KeyError:
        raise UnknownFigure(
            f"unknown figure {figure_id!r}; choose from {', '.join(FIGURE_IDS)}"
        ) from None
    return FigureData(
        figure_id=figure_id, note=note, header=header,
        rows=tuple(builder()),
    )
