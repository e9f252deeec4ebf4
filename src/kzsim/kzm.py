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
        # the closed forms take 4/x^2: x, x^2 and 4/x^2 must be finite and
        # nonzero (x^2 > 0 makes x > 0, and 4/x^2 > 0 when x^2 is finite)
        x2 = self.x_alpha * self.x_alpha
        if not (0 < x2 < math.inf and 4.0 / x2 < math.inf):
            raise InvalidParam(f"x_alpha = alpha tau_q / tau_0 = {self.x_alpha} is out of range:"
                               f" x_alpha^2 and 4/x_alpha^2 must be finite and nonzero")

    @property
    def x_alpha(self) -> float:
        return self.alpha * self.tau_q / self.tau_0


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


def _eps_sq(p: KzmParams) -> float:
    """eps_hat^2 = (sqrt(1 + 4/x^2) - 1) / 2 at x = x_alpha."""
    u = 4.0 / (p.x_alpha * p.x_alpha)
    # sqrt(1+u) - 1 rewritten to stay accurate for small u
    return 0.5 * u / (math.sqrt(1.0 + u) + 1.0)


def freeze_out(p: KzmParams) -> tuple[float, float]:
    """Freeze-out time and rescaled distance (t_hat, eps_hat), in closed form."""
    eps_hat = math.sqrt(_eps_sq(p))
    t_hat = eps_hat * p.tau_q
    if not 0 < t_hat < math.inf:
        raise InvalidParam(f"t_hat = eps_hat tau_q = {t_hat} is out of range: eps_hat = {eps_hat},"
                           f" tau_q = {p.tau_q}")
    return t_hat, eps_hat


def predicted_defects(p: KzmParams) -> float:
    """Final defect density eps_hat^2 / (1 + eps_hat^2) of the frozen state.

    Agrees with exp(-x_alpha) to second order for slow quenches and tends to
    one for fast ones.
    """
    eps_sq = _eps_sq(p)
    return eps_sq / (1.0 + eps_sq)


def fit_scaling(points) -> tuple[float, float]:
    """Least-squares estimate of the decay constant from (x, d_f) points.

    Fits ln d_f = c - alpha x; points with d_f below 1e-6 are dropped to
    keep the logarithm well conditioned.  Returns (alpha_hat, |r|).  Kept
    points that share one x, or one ln d_f, are refused: the mean of equal
    values can round off them and leave a spurious nonzero spread.
    """
    kept = sorted((x, d) for x, d in points if d >= _FIT_EXCLUDE_BELOW)
    if len(kept) < 2:
        raise InvalidParam("need at least two usable points to fit")
    x = np.array([q[0] for q in kept])
    y = np.log(np.array([q[1] for q in kept]))
    if (x == x[0]).all() or (y == y[0]).all():
        raise InvalidParam("degenerate point set for the fit")
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    sxy = float(np.sum((x - xm) * (y - ym)))
    syy = float(np.sum((y - ym) ** 2))
    if sxx == 0.0 or syy == 0.0:  # distinct values whose squared spread underflows
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
    return _tau_ratio(cfg), evolve.final_defect(cfg)


def run_scaling_sweep(bx_values, k_values, **options) -> ScalingFit:
    """One run per (bx, k) pair; ``evolve.final_defect`` reads its last boundary alone.

    ``options`` go to ``SweepConfig.from_rate``, whose default window ends
    at bz = -0.2.  The points are pooled into a single fit, so call once per
    transverse field for per-field estimates or with both fields for the
    pooled experimental-grid estimate.  A grid of more than
    evolve.MAX_SUBSTEPS propagator steps in all, or with a tau_q/tau_0
    that overflows, is refused before any scan.
    """
    cfgs = [SweepConfig.from_rate(bx, k, **options) for bx in bx_values for k in k_values]
    work = sum(evolve._work(c) for c in cfgs)
    evolve._check_work(work, f"grid of {len(cfgs)} scans needs"
                             f" {evolve._count(work)} propagator steps")
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
    integrated as one reference segment of ``model.effective_hamiltonian``
    (midpoint substeps of at most 0.01 time units).  Its SweepConfig refuses
    it as it would any scan (more than evolve.MAX_SUBSTEPS substeps, among
    others), and window ends whose levels are not split beyond
    smallmat.DEGENERACY_TOL are refused.
    """
    if not (bx > 0 and k > 0 and math.isfinite(bx) and math.isfinite(k)):
        raise InvalidParam(f"need finite bx > 0 and k > 0, got bx={bx}, k={k}")
    half_window = 10.0 * math.sqrt(2) * bx
    sweep = SweepConfig(bx, k, delta=2.0 * half_window / k, steps=1, b0=-1.0 - half_window)
    fields = sweep.field(np.arange(2))
    ends = hermitian_eig(model.effective_hamiltonian(ModelParams(bx=bx, bz=fields)))
    # levels within DEGENERACY_TOL are ordered by basis index, not energy
    for w, gap in zip(ends.eigenvalues, ends.gap):
        if not gap > DEGENERACY_TOL * max(1.0, float(np.max(np.abs(w)))):
            raise InvalidParam(f"the levels at a window end are split by {gap:.3g}, within"
                               f" DEGENERACY_TOL of each other at bx={bx}; use a larger bx")
    segment = next(evolve._segment_unitaries(sweep, hamiltonian=model.effective_hamiltonian))
    psi = evolve._advance(ends.eigenvectors[0, :, 0], segment)
    p_numeric = float(abs(np.vdot(ends.eigenvectors[1, :, 1], psi)) ** 2)
    p_formula = math.exp(-2.0 * math.pi * bx * bx / k)
    return p_numeric, p_formula


@dataclass(frozen=True)
class FigureData:
    """One reproducible dataset: column names plus rows of values."""

    figure_id: str
    note: str
    header: tuple[str, ...]
    rows: tuple[tuple, ...]


def _fig_levels():
    bz = np.arange(-200, 201) / 100.0
    levels = model.triplet_spectrum(ModelParams(bx=0.1, bz=bz)).eigenvalues
    return [(b, *e) for b, e in zip(bz.tolist(), levels.tolist())]


def _fig_tau():
    bz = np.arange(-200, 201) / 100.0
    return list(zip(bz.tolist(), model.relaxation_time(ModelParams(bx=0.1, bz=bz)).tolist()))


def _scan_rows(runs, columns):
    """Scan tables: for each (labels, config) of ``runs`` and each boundary
    of its scan, the labels, then the named ScanTrace columns there."""
    for labels, cfg in runs:
        trace = evolve.scan(cfg)
        yield from ((*labels, *row) for row in zip(*(getattr(trace, c) for c in columns)))


def _fig_populations():
    runs = (((k,), SweepConfig.from_rate(0.1, k, b0=-2.0, bz_end=2.0)) for k in (1.0, 0.05))
    return _scan_rows(runs, ("t", "bz", "a0", "a1", "a2", "defect"))


def _fig_defect_curves():
    variants = [(k, b, None, b) for k in EXPERIMENT_K_VALUES for b in ("reference", "trotter")]
    variants.append((0.25, "trotter", T2_DEFAULT, "trotter-t2"))
    runs = (((bx, k, label), SweepConfig.from_rate(bx, k, bz_end=0.0, backend=backend, t2=t2))
            for bx in EXPERIMENT_BX_VALUES for k, backend, t2, label in variants)
    return _scan_rows(runs, ("t", "bz", "defect"))


def _fig_scaling_points():
    series = [(f"ideal-bx{bx}", bx, k, "reference")
              for bx in EXPERIMENT_BX_VALUES for k in sorted(IDEAL_K_VALUES, reverse=True)]
    series += [("experiment-grid", bx, k, "trotter")
               for bx in EXPERIMENT_BX_VALUES for k in EXPERIMENT_K_VALUES]
    return [(name, bx, k, *_scaling_point(SweepConfig.from_rate(bx, k, backend=backend)))
            for name, bx, k, backend in series]


def _fig_concurrence():
    runs = (((bx, k), SweepConfig.from_rate(bx, k, bz_end=1.5))
            for bx in EXPERIMENT_BX_VALUES for k in (1.0, 0.1, 1.0 / 30.0))
    return _scan_rows(runs, ("bz", "concurrence", "defect"))


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
