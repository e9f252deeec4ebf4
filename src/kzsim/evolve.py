"""Time evolution of the swept two-qubit system.

A scan drives bz(t) = b0 + k t across the bz = -1 critical point and records
observables at every segment boundary.  Two backends share the segment grid:

* ``reference`` integrates the continuously swept Hamiltonian by splitting
  every segment into substeps of at most 0.01 time units and applying the
  exact exponential of the Hamiltonian evaluated at the substep midpoint.
  Halving the substep moves final defect densities by well under 1e-4, which
  is how convergence to the continuous limit is demonstrated.
* ``trotter`` emulates the discretized experimental protocol: one split step
  per segment, with the field sampled at the segment's end point (segment m
  runs at bz_m = b0 + m * delta_b, matching the pulse-sequence offsets).
  Either backend's propagators are computed as stacks of SUBSTEP_CHUNK
  matrices and applied one at a time, in order.

The trotter split applies the transverse rotation first and the longitudinal
plus coupling phases second within each segment, the same order in which the
pulse block and the free-evolution delay occur in the sequence.

A run is one stream of boundary states (``_states``) read by observers:
defect density D = 1 - |<psi_g|psi>|^2, eigenpopulations (pure or mixed) and
two-qubit concurrence, from stacks of up to SUBSTEP_CHUNK passed boundaries.
Transverse relaxation is modelled as a per-qubit phase damping channel
applied after each segment, with decay exp(-dt/T2) over the physical
segment duration dt = 2*delta/(pi*J).

Every run entry takes only a config and starts in the ground state at b0:
``scan`` runs a pure state (``propagate``), or a dephased density matrix
when T2 times are configured (``dephase_propagate``); ``final_defect``
observes only the same run's last boundary, for the fits.  A shorter run,
such as the protocol's overlap window, is the config with fewer steps.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import ConfigInconsistent, InvalidT2, WorkLimitExceeded
from .model import FIELD_LIMIT, ModelParams, SIGMA_Y
from .smallmat import hermitian_eig, unitary_step

REFERENCE_SUBSTEP = 0.01
# substep Hamiltonians diagonalized per call; bounds the memory of a stack
SUBSTEP_CHUNK = 256
# most propagator steps one run may take (segments x substeps); fig5's
# slowest scan takes 9000
MAX_SUBSTEPS = 1_000_000
BACKENDS = ("reference", "trotter")
# experimental settings, the defaults of every sweep and of the command line
B0 = -1.5
BZ_END = -0.2
DELTA_B = 0.1
J_HZ = 215.0

_YY = np.kron(SIGMA_Y, SIGMA_Y)


def _require(*, positive: bool = False, **values: float) -> None:
    """Reject non-finite values and, with ``positive``, values <= 0;
    without it, the values are fields and must lie within FIELD_LIMIT."""
    for name, value in values.items():
        if not (value > 0 if positive else abs(value) <= FIELD_LIMIT) or not math.isfinite(value):
            kind = "positive and finite" if positive else f"finite with |{name}| <= {FIELD_LIMIT:g}"
            raise ConfigInconsistent(f"{name} must be {kind}, got {value}")


@dataclass(frozen=True)
class SweepConfig:
    """Full description of one scan.

    ``k`` is the scan rate, ``delta`` the segment duration and ``steps`` the
    number of segments; the window runs from ``b0`` to ``bz_end`` =
    ``field(steps)``.  ``t2`` optionally holds the two transverse relaxation
    times in seconds, converted to per-segment decay using the coupling
    ``j_hz`` in Hz.  A config that builds can run: refused are more than
    MAX_SUBSTEPS propagator steps, trotter phases per segment that overflow
    (the pulse flip 2 delta bx, and 2 delta (1 +- 2 bz)), a T2 pair that is
    not two positive finite times and a scan time steps x delta that overflows.
    """

    bx: float
    k: float
    delta: float
    steps: int
    b0: float = B0
    backend: str = "reference"
    t2: tuple[float, float] | None = None
    j_hz: float = J_HZ

    def __post_init__(self) -> None:
        if isinstance(self.steps, bool) or not isinstance(self.steps, (int, np.integer)):
            raise ConfigInconsistent(f"segment count must be an integer, got {self.steps!r}")
        object.__setattr__(self, "steps", int(self.steps))  # numpy products wrap or warn
        if not abs(self.steps) < 2 ** 1023:
            raise ConfigInconsistent(f"segment count |steps| = {_count(abs(self.steps))} overflows a float")
        _require(positive=True, k=self.k, delta=self.delta, j_hz=self.j_hz)
        _require(bx=self.bx, b0=self.b0, bz_end=self.bz_end)
        if self.bx < 0:
            raise ConfigInconsistent(f"transverse field must be >= 0, got {self.bx}")
        if self.steps < 0:
            raise ConfigInconsistent(f"segment count must be >= 0, got {self.steps}")
        if self.backend not in BACKENDS:
            raise ConfigInconsistent(f"unknown backend {self.backend!r}")
        if self.backend == "trotter":
            phase = 2 * self.delta * max(abs(self.bx), 2 * abs(self.b0) + 1, 2 * abs(self.bz_end) + 1)
            if not math.isfinite(phase):
                raise ConfigInconsistent(
                    f"trotter phase per segment overflows: delta = {self.delta} with"
                    f" bx = {self.bx}, bz in [{self.b0}, {self.bz_end}]")
        _check_work(_work(self), f"scan needs {_count(_work(self))} propagator steps"
                                 f" ({_count(self.steps)} segments x {_count(_substeps(self))})")
        if self.t2 is not None and not (len(self.t2) == 2 and all(0 < x < math.inf for x in self.t2)):
            raise InvalidT2(f"T2 must be two positive finite times, got {self.t2}")
        if not math.isfinite(self.steps * self.delta):
            raise ConfigInconsistent(f"scan time t = {self.steps} x delta = {self.delta} overflows")

    @property
    def delta_b(self) -> float:
        """Field increment per segment."""
        return self.k * self.delta

    @property
    def bz_end(self) -> float:
        """Field at the end of the window."""
        return self.field(self.steps)

    def field(self, j: int | np.ndarray) -> float | np.ndarray:
        """Field at boundary j (0..steps; an int or an array), which is also
        the field held during segment j, sampled at its end point."""
        return self.b0 + j * self.delta_b

    @classmethod
    def from_rate(
        cls,
        bx: float,
        k: float,
        b0: float = B0,
        bz_end: float = BZ_END,
        delta_b: float = DELTA_B,
        backend: str = "reference",
        t2: tuple[float, float] | None = None,
        j_hz: float = J_HZ,
    ) -> "SweepConfig":
        """Build a config from the field step delta_b; delta = delta_b / k."""
        _require(positive=True, k=k, delta_b=delta_b)
        _require(b0=b0, bz_end=bz_end)
        if not bz_end > b0:
            raise ConfigInconsistent(f"scan window [{b0}, {bz_end}] is empty: bz_end must exceed b0")
        segments = (bz_end - b0) / delta_b
        if segments == math.inf:
            raise WorkLimitExceeded(f"scan window [{b0}, {bz_end}] needs {segments}"
                                    f" segments of delta_b = {delta_b}")
        steps = int(round(segments))
        # bz_end - b0 carries a rounding error of about ulp(max(|b0|, |bz_end|))
        tol = 1e-9 + 4 * math.ulp(max(abs(b0), abs(bz_end)))
        if steps <= 0 or abs(steps * delta_b - (bz_end - b0)) > tol:
            raise ConfigInconsistent(
                f"scan window [{b0}, {bz_end}] is not a whole number of"
                f" delta_b = {delta_b} segments"
            )
        return cls(bx=bx, k=k, delta=delta_b / k, steps=steps, b0=b0,
                   backend=backend, t2=t2, j_hz=j_hz)


@dataclass(frozen=True)
class ScanTrace:
    """Per-boundary time series of one scan."""

    t: np.ndarray
    bz: np.ndarray
    defect: np.ndarray
    overlap: np.ndarray
    a0: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    concurrence: np.ndarray

    CSV_HEADER = "t,bz,defect,overlap,a0,a1,a2,concurrence"

    @property
    def final_defect(self) -> float:
        return float(self.defect[-1])

    def to_csv(self) -> str:
        """Render as CSV with 12-significant-digit decimals."""
        cols = (self.t, self.bz, self.defect, self.overlap,
                self.a0, self.a1, self.a2, self.concurrence)
        row = ",".join(["%.12g"] * len(cols))  # "%.12g" % x renders as format(x, ".12g")
        lines = (row % r for r in zip(*(c.tolist() for c in cols)))
        return "\n".join([self.CSV_HEADER, *lines]) + "\n"


def ramp(b0: float, k: float, t: float) -> float:
    """Linear control field bz(t) = b0 + k t."""
    return b0 + k * t


def trotter_step(p: ModelParams, delta: float) -> np.ndarray:
    """One split segment propagator, or a stack of them for an array p.bz.

    The transverse rotation exp(-i delta bx (sx1+sx2)) acts first, then the
    diagonal part exp(-i delta [bz (sz1+sz2) + sz1 sz2]), mirroring the
    pulse-then-delay layout of one experimental segment.  Both factors are
    exact exponentials of commuting one- and two-qubit terms.
    """
    bz = np.asarray(p.bz)
    zdiag = np.full((*bz.shape, 4), -1.0)
    zdiag[..., 0], zdiag[..., 3] = 2 * bz + 1.0, -2 * bz + 1.0
    uz = np.zeros((*bz.shape, 16), dtype=complex)  # a flat 4x4: its diagonal is every 5th entry
    uz[..., ::5] = np.exp(-1j * delta * zdiag)
    # the pulse flip is 2 (delta bx): doubling and halving it are exact
    return uz.reshape(*bz.shape, 4, 4) @ model._both("x", 2 * (delta * p.bx))


def _count(n: int | float) -> str:
    """A work count as text: exact below 1e15, else to 4 significant
    digits (an int from a float's ceiling has no more)."""
    if not 1e15 <= n < math.inf:
        return str(n)
    # imported for a refusal only: decimal adds 0.3 MB to a process, and it
    # formats the ints past a float's range that steps x substeps can reach
    from decimal import Decimal
    return format(Decimal(n), ".4g")


def _check_work(work: int | float, needs: str) -> None:
    """Refuse ``work`` propagator steps above MAX_SUBSTEPS; ``needs`` says
    what needs them and how many."""
    if work > MAX_SUBSTEPS:
        raise WorkLimitExceeded(f"{needs}, above the limit of {MAX_SUBSTEPS}")


def _substeps(cfg: SweepConfig) -> int | float:
    """Propagators per segment: the one trotter step, or the reference
    backend's midpoint substeps of at most REFERENCE_SUBSTEP that cover
    delta (at least one, and inf when their count overflows a float)."""
    if cfg.backend == "trotter":
        return 1
    n = cfg.delta / REFERENCE_SUBSTEP
    return max(1, math.ceil(n)) if math.isfinite(n) else n


def _work(cfg: SweepConfig) -> int | float:
    """Propagator steps of a scan: segments x propagators per segment."""
    return cfg.steps * _substeps(cfg)


def _segment_unitaries(cfg: SweepConfig, hamiltonian=None):
    """Yield, for each segment m = 1..steps, its propagators in the order
    they act: the one trotter step, or the reference backend's midpoint
    substeps of ``hamiltonian`` (by default ``model.driven_hamiltonian``,
    looked up at call time).  Segments are lazy slices of one stream built
    SUBSTEP_CHUNK steps at a time, so each must be used up before the next
    is taken; a shorter stream is the config with fewer steps."""
    nsub = _substeps(cfg)
    h = cfg.delta / nsub
    hamiltonian = hamiltonian or model.driven_hamiltonian

    def propagators(lo):
        i = np.arange(lo, min(lo + SUBSTEP_CHUNK, cfg.steps * nsub))
        if cfg.backend == "trotter":  # step i is segment i + 1
            return trotter_step(ModelParams(bx=cfg.bx, bz=cfg.field(i + 1)), cfg.delta)
        seg, sub = np.divmod(i, nsub)  # seg = m - 1
        t = seg * cfg.delta + (sub + 0.5) * h
        return unitary_step(hamiltonian(ModelParams(bx=cfg.bx, bz=ramp(cfg.b0, cfg.k, t))), h)

    chunks = range(0, cfg.steps * nsub, SUBSTEP_CHUNK)
    steps = itertools.chain.from_iterable(map(propagators, chunks))
    for _ in range(cfg.steps):
        yield itertools.islice(steps, nsub)


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return np.swapaxes(m.conj(), -1, -2)


def concurrence(psi: np.ndarray) -> float | np.ndarray:
    """Concurrence 2|ad - bc| of a pure two-qubit state (a,b,c,d), or of
    each state of a stack (N, 4)."""
    # a single state runs as a stack of one, which gives it the bits it has
    # inside any stack
    a, b, c, d = np.reshape(psi, (-1, 4)).T
    conc = np.minimum(1.0, 2.0 * np.abs(a * d - b * c))
    return float(conc[0]) if np.ndim(psi) == 1 else conc


def concurrence_mixed(rho: np.ndarray) -> float | np.ndarray:
    """Concurrence of a two-qubit density matrix (spin-flip construction),
    or of each matrix of a stack (N, 4, 4)."""
    stack = np.reshape(rho, (-1, 4, 4))  # a stack of one, as in concurrence
    rho_t = _YY @ stack.conj() @ _YY
    sd = hermitian_eig(stack)
    weights = np.sqrt(np.clip(sd.eigenvalues, 0.0, None))[..., None, :]
    sqrt_rho = (sd.eigenvectors * weights) @ _dagger(sd.eigenvectors)
    m = sqrt_rho @ rho_t @ sqrt_rho
    roots = np.sqrt(np.clip(hermitian_eig((m + _dagger(m)) / 2).eigenvalues, 0.0, None))
    conc = np.clip(2.0 * roots[:, -1] - roots.sum(-1), 0.0, 1.0)
    return float(conc[0]) if np.ndim(rho) == 2 else conc


def _populations_pure(psi: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Populations |<v_i|psi>|^2 of the triplet eigenvector columns v_i
    (over {|00>, |phi+>, |11>}) of a stack of states."""
    coords = np.stack([psi[:, 0], (psi[:, 1] + psi[:, 2]) / math.sqrt(2), psi[:, 3]], axis=-1)
    amplitudes = (_dagger(vectors) @ coords[..., None])[..., 0]
    return np.abs(amplitudes) ** 2


def _populations_mixed(rho: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Populations <v_i|rho|v_i> of the same columns embedded in the
    4-dimensional basis, of a stack of density matrices."""
    basis = np.stack([model.KET_00, model.PHI_PLUS, model.KET_11], axis=-1)
    cols = np.swapaxes(basis @ vectors, -1, -2)[..., None]
    return (_dagger(cols) @ (rho[:, None] @ cols))[..., 0, 0].real


def _defect(a0: np.ndarray) -> np.ndarray:
    """Defect densities 1 - a0 of ground-state populations a0, clipped to [0, 1]."""
    return np.clip(1.0 - a0, 0.0, 1.0)


def _advance(psi: np.ndarray, unitaries) -> np.ndarray:
    """Apply ``unitaries`` to the state vector ``psi`` in the order given."""
    for u in unitaries:
        psi = u.dot(psi)
    return psi


def _dephasing_advance(cfg: SweepConfig):
    """The mixed run's advance: conjugation by each propagator, then one segment's damping."""
    mask = phase_damping_factors(cfg)

    def advance(rho, unitaries):
        for u in unitaries:
            rho = u.dot(rho).dot(u.conj().T)
        return rho * mask
    return advance


def _states(cfg: SweepConfig, state: np.ndarray, advance):
    """The boundary-state stream of a run, lazily and in order: ``state``,
    then ``advance(state, unitaries)`` across each segment."""
    return itertools.accumulate(_segment_unitaries(cfg), advance, initial=state)


def _run(cfg: SweepConfig, state: np.ndarray, advance, populations, concurrences) -> ScanTrace:
    """Observe every boundary of a run, pure or mixed: its states are handed,
    SUBSTEP_CHUNK at a time, to ``populations(states, vectors)``, with the
    triplet eigenvectors at their fields, and to ``concurrences(states)``."""
    states = _states(cfg, state, advance)
    n = cfg.steps + 1
    steps = np.arange(n)
    bz = cfg.field(steps)
    pops, conc = np.empty((n, 3)), np.empty(n)
    for lo in range(0, n, SUBSTEP_CHUNK):
        hi = min(lo + SUBSTEP_CHUNK, n)
        chunk = np.array(list(itertools.islice(states, hi - lo)))
        vectors = model.triplet_spectrum(ModelParams(bx=cfg.bx, bz=bz[lo:hi])).eigenvectors
        pops[lo:hi], conc[lo:hi] = populations(chunk, vectors), concurrences(chunk)
    return ScanTrace(
        t=steps * cfg.delta, bz=bz,
        defect=_defect(pops[:, 0]), overlap=pops[:, 0].copy(),
        a0=pops[:, 0], a1=pops[:, 1], a2=pops[:, 2], concurrence=conc,
    )


def propagate(cfg: SweepConfig) -> ScanTrace:
    """Pure-state scan from the ground state at b0, recording each segment
    boundary; the swap symmetry keeps the state in the triplet sector."""
    start = model.ground_vector(ModelParams(bx=cfg.bx, bz=cfg.b0))
    return _run(cfg, start, _advance, _populations_pure, concurrence)


def phase_damping_factors(cfg: SweepConfig) -> np.ndarray:
    """Elementwise decay mask of one per-segment dephasing step.

    Entry (a, b) is the product over qubits of exp(-dt/T2_i) for every qubit
    whose bit differs between basis states a and b; dt = 2*delta/(pi*J) is
    the physical duration of one segment in seconds.
    """
    if cfg.t2 is None:
        raise InvalidT2("config carries no T2 times")
    dt = 2.0 * cfg.delta / (math.pi * cfg.j_hz)
    # one factor per qubit, exp(-dt/T2_i) where its bit flips; their Kronecker
    # product, as in model._both, follows the basis order |q1 q2>
    lam1, lam2 = (math.exp(-dt / t2i) for t2i in cfg.t2)
    f1, f2 = np.array([[1.0, lam1], [lam1, 1.0]]), np.array([[1.0, lam2], [lam2, 1.0]])
    return (f1[:, None, :, None] * f2[None, :, None, :]).reshape(4, 4)


def dephase_propagate(cfg: SweepConfig) -> ScanTrace:
    """Density-matrix scan from the ground state at b0, with per-qubit phase
    damping after each segment.

    Dephasing acts in the computational basis.  Observables are ground-state
    expectation values <psi_g|rho|psi_g> and eigenpopulations <v_i|rho|v_i>;
    the concurrence column uses the mixed-state formula.
    """
    start = model.ground_vector(ModelParams(bx=cfg.bx, bz=cfg.b0))
    return _run(cfg, np.outer(start, start.conj()), _dephasing_advance(cfg),
                _populations_mixed, concurrence_mixed)


def scan(cfg: SweepConfig) -> ScanTrace:
    """Scan started in the ground state at b0: a density-matrix run with
    dephasing when ``cfg.t2`` is set, a pure-state run otherwise."""
    return propagate(cfg) if cfg.t2 is None else dephase_propagate(cfg)


def final_defect(cfg: SweepConfig) -> float:
    """``scan(cfg).final_defect``, bit for bit and with the same refusals, from
    the same stream: only its last state is observed.  Boundary 0 (the start)
    and the last boundary are solved as one stack of two."""
    ends = model.triplet_spectrum(ModelParams(bx=cfg.bx, bz=cfg.field(np.array([0, cfg.steps]))))
    start = model._ground(cfg.bx, cfg.b0, ends.eigenvalues[0], ends.eigenvectors[0]).vector()
    state, advance, populations = start, _advance, _populations_pure
    if cfg.t2 is not None:
        state, populations = np.outer(start, start.conj()), _populations_mixed
        advance = _dephasing_advance(cfg)
    for state in _states(cfg, state, advance):
        pass
    return float(_defect(populations(state[None], ends.eigenvectors[1:])[0, 0]))
