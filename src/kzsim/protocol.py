"""Emulation of the NMR measurement protocol.

The spectrometer cannot read the overlap F = |<psi_g(t)|psi(t)>|^2 directly.
Instead it prepares P(0)|00>, runs the discretized sweep, applies the inverse
preparation P(t)^dag of the final ground state, destroys all coherences with
a gradient crush and reads the |00> population, which equals F exactly.

The preparation operator

    P = exp(i beta (sy1+sy2)/2) exp(-i pi/4 sz1 sz2) exp(i alpha (sx1+sx2)/2)

maps |00> onto any real triplet state.  The y pulse pair leaves c0 + c1
invariant, so cos(alpha) = c0 + c1.  The first two factors leave the vector
(c0 - c1, sqrt(2) c+) at the angle -gamma, tan(gamma) = sqrt(1-(c0+c1)^2),
and the y pair turns it by -beta, so beta = -gamma - atan2(sqrt(2) c+,
c0 - c1) in closed form.

``nmr_schedule`` emits the corresponding pulse sequence: per segment one
transverse pulse pair with flip angle theta = 2 delta bx followed by a free
evolution delay d = 2 delta / (pi J) at offset nu_m = bz_m J / 2.  Offsets
are stored with the sign convention bz = 2 nu / J, i.e. the delay Hamiltonian
is pi nu (sz1+sz2) + (pi J / 2) sz1 sz2 in rad/s.  Pulses are ideal
zero-duration rotations, so simulating the emitted schedule (the schedule
simulator of tests/oracles.py) reproduces the trotter segment propagators
exactly.
"""
from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import evolve, model
from .errors import ConfigInconsistent, IndexOutOfRange, NoValidBranch
from .evolve import SweepConfig, _advance
from .model import GroundState, KET_00, ModelParams, _both, ground_state

# schedule entries: ("pulse", channel, axis, flip_rad) | ("offset", hz)
#                   | ("delay", seconds) | ("crush",)
Entry = tuple

_FIDELITY_TOL = 1e-6


@dataclass(frozen=True)
class PrepAngles:
    """Rotation angles (radians) parametrizing the preparation operator."""

    alpha: float
    beta: float
    gamma: float


@dataclass(frozen=True)
class PulseSchedule:
    """Ordered pulse/delay program for one protocol run.

    ``segments`` holds one entry block per sweep segment; ``prep`` and
    ``unprep`` realize P(0) and P(t_j)^dag; ``tail`` is the read-out pulse
    after the gradient crush.
    """

    prep: tuple[Entry, ...]
    segments: tuple[tuple[Entry, ...], ...]
    unprep: tuple[Entry, ...]
    tail: tuple[Entry, ...]
    j_hz: float

    def entries(self):
        yield from self.prep
        for block in self.segments:
            yield from block
        yield from self.unprep
        yield from self.tail

    def total_duration(self) -> float:
        """Sum of all delays in seconds (pulses are instantaneous)."""
        return sum(e[1] for e in self.entries() if e[0] == "delay")

    def to_text(self) -> str:
        """Line-oriented serialization with 12-significant-digit decimals."""
        lines = []
        for e in self.entries():
            if e[0] == "pulse":
                lines.append(f"PULSE {e[1]} {e[2]} {format(e[3], '.12g')}")
            elif e[0] == "offset":
                lines.append(f"OFFSET {format(e[1], '.12g')}")
            elif e[0] == "delay":
                lines.append(f"DELAY {format(e[1], '.12g')}")
            elif e[0] == "crush":
                lines.append("CRUSH")
            else:
                raise ValueError(f"unknown schedule entry {e!r}")
        return "\n".join(lines) + "\n"


_UZZ_QUARTER = np.diag(np.exp(-1j * math.pi / 4 * np.array([1, -1, -1, 1])))


def prep_operator(a: PrepAngles) -> np.ndarray:
    """The 4x4 preparation unitary built from its three factors."""
    return _both("y", -a.beta) @ _UZZ_QUARTER @ _both("x", -a.alpha)


def prep_angles(g: GroundState) -> PrepAngles:
    """Angles such that prep_operator(...) maps |00> onto ``g``.

    beta is wrapped to [-pi, pi).  The prepared state is checked: a fidelity
    below 1 - 1e-6, which only inputs off the unit sphere or with
    |c0 + c1| > 1 reach, raises NoValidBranch.
    """
    return _prep(g)[0]


def _prep(g: GroundState) -> tuple[PrepAngles, np.ndarray]:
    """prep_angles(g) and the operator its fidelity check built."""
    s = min(1.0, max(-1.0, g.c0 + g.c1))
    alpha = math.acos(s)
    gamma = math.atan(math.sqrt(max(0.0, 1.0 - s * s)))
    beta = -gamma - math.atan2(math.sqrt(2) * g.cplus, g.c0 - g.c1)
    a = PrepAngles(alpha=alpha, beta=(beta + math.pi) % (2 * math.pi) - math.pi, gamma=gamma)
    p = prep_operator(a)
    fid = abs(np.vdot(g.vector(), p @ KET_00)) ** 2
    if fid < 1.0 - _FIDELITY_TOL:
        raise NoValidBranch(f"the preparation does not reproduce the ground state (fidelity {fid})")
    return a, p


def gradient_crush(rho: np.ndarray) -> np.ndarray:
    """Zero all off-diagonal density-matrix elements (populations survive)."""
    return np.diag(np.diag(np.asarray(rho, dtype=complex)))


def protocol_overlap(cfg: SweepConfig, j: int) -> float:
    """Overlap F(t_j) as the protocol measures it.

    Prepares P(0)|00>, applies j trotter segments on either backend, undoes
    the preparation of the instantaneous ground state, crushes coherences and
    returns the |00> population.  The crush does not touch the diagonal, so
    this equals |<00| P(t_j)^dag U P(0) |00>|^2 exactly.

    Boundary j is read from one cached ``_window`` of the SUBSTEP_CHUNK
    boundaries that holds it, a pure function of that window and of the
    config's trotter twin without t2 (all the overlap reads; a config that is
    one is its own twin), so results do not depend on call order.  Only
    boundary j's ground state is checked and unprepared.  A j that is not an
    integer in 0..steps (a bool neither) raises IndexOutOfRange.
    """
    if isinstance(j, bool) or not isinstance(j, numbers.Integral) or not 0 <= j <= cfg.steps:
        raise IndexOutOfRange(f"segment index {j!r} is not an integer in 0..{cfg.steps}")
    j, run = int(j), cfg  # a narrow numpy integer would overflow j + SUBSTEP_CHUNK
    if cfg.backend != "trotter" or cfg.t2 is not None:
        run = replace(cfg, backend="trotter", t2=None)
    lo = j - j % evolve.SUBSTEP_CHUNK
    states, sd = _window(run, lo, min(lo + evolve.SUBSTEP_CHUNK, cfg.steps + 1))
    g = model._ground(cfg.bx, cfg.field(j), sd.eigenvalues[j - lo], sd.eigenvectors[j - lo])
    psi = _prep(g)[1].conj().T @ states[j - lo]
    rho = gradient_crush(np.outer(psi, psi.conj()))
    return float(rho[0, 0].real)


@functools.lru_cache(maxsize=1)
def _window(run: SweepConfig, lo: int, hi: int):
    """The states of the trotter run ``run`` from P(0)|00> at boundaries
    lo..hi-1, read from ``evolve._states`` of ``run`` cut to hi - 1
    segments, and their triplet spectra as one stack, whose member 0 gives
    P(0)'s ground state when lo is 0.  Only the last window is kept;
    configs are keyed by equality."""
    sd = model.triplet_spectrum(ModelParams(bx=run.bx, bz=run.field(np.arange(lo, hi))))
    g0 = (model._ground(run.bx, run.b0, sd.eigenvalues[0], sd.eigenvectors[0]) if lo == 0
          else ground_state(ModelParams(bx=run.bx, bz=run.b0)))
    states = evolve._states(replace(run, steps=hi - 1), _prep(g0)[1] @ KET_00, _advance)
    return tuple(itertools.islice(states, lo, None)), sd


def _prep_block(a: PrepAngles, j_hz: float) -> tuple[Entry, ...]:
    return (
        ("pulse", 1, "x", -a.alpha),
        ("pulse", 2, "x", -a.alpha),
        ("offset", 0.0),
        ("delay", 1.0 / (2.0 * j_hz)),
        ("pulse", 1, "y", -a.beta),
        ("pulse", 2, "y", -a.beta),
    )


def _unprep_block(a: PrepAngles, j_hz: float) -> tuple[Entry, ...]:
    # exp(+i pi/4 zz) realized as a 7/(2J) delay: exp(-i 7pi/4 zz) equals it
    # exactly since zz has eigenvalues +-1
    return (
        ("pulse", 1, "y", a.beta),
        ("pulse", 2, "y", a.beta),
        ("offset", 0.0),
        ("delay", 7.0 / (2.0 * j_hz)),
        ("pulse", 1, "x", a.alpha),
        ("pulse", 2, "x", a.alpha),
    )


def nmr_schedule(cfg: SweepConfig) -> PulseSchedule:
    """Pulse program measuring F at the end of ``cfg``'s window; refused
    when one of its numbers is not finite."""
    theta = 2.0 * cfg.delta * cfg.bx
    d = 2.0 * cfg.delta / (math.pi * cfg.j_hz)
    ends = model.triplet_spectrum(ModelParams(bx=cfg.bx, bz=cfg.field(np.array([0, cfg.steps]))))
    a0, aj = (prep_angles(model._ground(cfg.bx, bz, ends.eigenvalues[i], ends.eigenvectors[i]))
              for i, bz in enumerate((cfg.b0, cfg.bz_end)))
    segments = []
    for m in range(1, cfg.steps + 1):
        nu = cfg.field(m) * cfg.j_hz / 2.0
        segments.append((
            ("pulse", 1, "x", theta),
            ("pulse", 2, "x", theta),
            ("offset", nu),
            ("delay", d),
        ))
    sched = PulseSchedule(
        prep=_prep_block(a0, cfg.j_hz),
        segments=tuple(segments),
        unprep=_unprep_block(aj, cfg.j_hz),
        tail=(("crush",), ("pulse", 1, "y", math.pi / 2)),
        j_hz=cfg.j_hz,
    )
    for e in (*sched.entries(), ("total delay", sched.total_duration())):
        if not all(math.isfinite(x) for x in e[1:] if not isinstance(x, str)):
            raise ConfigInconsistent(f"schedule entry {e} is not finite at J = {cfg.j_hz} Hz")
    return sched
