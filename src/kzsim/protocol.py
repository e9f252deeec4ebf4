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
from .errors import IndexOutOfRange, InvalidConfiguration, KzsimError
from .evolve import SweepConfig, _advance
from .model import GroundState, KET_00, ModelParams, _both

# schedule entries: ("pulse", channel, axis, flip_rad) | ("offset", hz)
#                   | ("delay", seconds) | ("crush",)
Entry = tuple

_FIDELITY_TOL = 1e-6


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
        """Line-oriented serialization, numbers as ``evolve._number`` writes them."""
        num, lines = evolve._DIGITS, []  # the rule's spec: no call per number
        for e in self.entries():
            if e[0] == "pulse":
                lines.append(f"PULSE {e[1]} {e[2]} {num % e[3]}")
            elif e[0] in ("offset", "delay"):
                lines.append(f"{e[0].upper()} {num % e[1]}")
            elif e[0] == "crush":
                lines.append("CRUSH")
            else:
                raise KzsimError(f"unknown schedule entry {e!r}")
        return "\n".join(lines) + "\n"


_UZZ_QUARTER = np.diag(np.exp(-1j * math.pi / 4 * np.array([1, -1, -1, 1])))


def prep_operator(alpha, beta) -> np.ndarray:
    """The 4x4 preparation unitary built from its three factors (radians), or
    one per angle pair of two 1-D arrays, stacked."""
    return _both("y", -beta) @ _UZZ_QUARTER @ _both("x", -alpha)


def prep_angles(g: GroundState):
    """Angles (alpha, beta) such that prep_operator(alpha, beta) maps |00> onto ``g``.

    beta is wrapped to [-pi, pi).  The prepared state is checked: a fidelity
    below 1 - 1e-6, which only inputs off the unit sphere or with
    |c0 + c1| > 1 reach, raises KzsimError.  For a stack (a GroundState of
    amplitude arrays) the angles are two arrays, and any member refuses all.
    """
    (alphas, betas), _, refusals = _prep(g)
    model._refuse(refusals)
    return (np.array(alphas), np.array(betas)) if np.ndim(g.c0) else (alphas[0], betas[0])


def _prep(g: GroundState) -> tuple[tuple[list, list], np.ndarray, list]:
    """The angles of prep_angles(g) unchecked, as two lists with one entry
    per member (one for a single state), the stack of operators its fidelity
    check built and each member's refusal message, None where accepted.  The
    angles come from ``math`` one member at a time."""
    alphas, betas = [], []
    for c0, cplus, c1 in zip(*(np.reshape(c, -1).tolist() for c in (g.c0, g.cplus, g.c1))):
        s = min(1.0, max(-1.0, c0 + c1))
        gamma = math.atan(math.sqrt(max(0.0, 1.0 - s * s)))
        beta = -gamma - math.atan2(math.sqrt(2) * cplus, c0 - c1)
        alphas.append(math.acos(s))
        betas.append((beta + math.pi) % (2 * math.pi) - math.pi)
    p = prep_operator(np.array(alphas), np.array(betas))
    amp = (np.conj(g.vector()).reshape(-1, 1, 4) @ (p @ KET_00)[..., None])[:, 0, 0]
    # abs() of one complex is np.hypot bit for bit, and its ** 2 is libm's pow,
    # which an array's ** 2 (a product) is not
    fids = [a ** 2 for a in np.hypot(amp.real, amp.imag).tolist()]
    refusals = [f"the preparation does not reproduce the ground state (fidelity {fid})"
                if fid < 1.0 - _FIDELITY_TOL else None for fid in fids]
    return (alphas, betas), p, refusals


def gradient_crush(rho: np.ndarray) -> np.ndarray:
    """Zero all off-diagonal density-matrix elements (populations survive), of
    one matrix or of each matrix of a stack."""
    rho = np.asarray(rho, dtype=complex)
    crushed, i = np.zeros_like(rho), np.arange(rho.shape[-1])
    crushed[..., i, i] = rho[..., i, i]
    return crushed


def protocol_overlap(cfg: SweepConfig, j: int) -> float:
    """Overlap F(t_j) as the protocol measures it.

    Prepares P(0)|00>, applies j trotter segments on either backend, undoes
    the preparation of the instantaneous ground state, crushes coherences and
    returns the |00> population.  The crush does not touch the diagonal, so
    this equals |<00| P(t_j)^dag U P(0) |00>|^2 exactly.

    Boundary j is read from the cached ``_overlaps`` of the whole run, which
    measures every boundary 0..steps in one pass.  It is a pure function of
    the config's trotter twin without t2 (all the overlap reads; a config
    that is one is its own twin), so results do not depend on call order.  A
    degenerate ground state or a failed preparation at boundary j is refused
    only when j is read; one at boundary 0 refuses every read.  A j that is
    not an integer in 0..steps (a bool neither) raises IndexOutOfRange.
    """
    if isinstance(j, bool) or not isinstance(j, numbers.Integral) or not 0 <= j <= cfg.steps:
        raise IndexOutOfRange(f"segment index {j!r} is not an integer in 0..{cfg.steps}")
    run = cfg if cfg.backend == "trotter" and cfg.t2 is None else replace(cfg, backend="trotter", t2=None)
    overlaps, refusals = _overlaps(run)
    model._refuse([refusals[j]])
    return overlaps[j]


@functools.lru_cache(maxsize=1)
def _overlaps(run: SweepConfig) -> tuple[list, list]:
    """The measured overlaps of the trotter run ``run`` from P(0)|00> at every
    boundary 0..steps, and each one's refusal message, None where accepted.
    Each of ``evolve._chunks`` solves its triplet spectra, ground states and
    preparations as one stack; the first chunk's first preparation is P(0),
    which starts ``evolve._states``, and each chunk of states is unprepared
    and crushed as one stack.  Only the last run is kept; configs are keyed
    by equality."""
    overlaps, refusals, states = [], [], None
    for c in evolve._chunks(run):
        bz = run.field(c)
        g, degenerate = model._ground(run.bx, bz, *model.triplet_spectrum(ModelParams(bx=run.bx, bz=bz)))
        _, p, unprepared = _prep(g)
        refusals += [d or u for d, u in zip(degenerate, unprepared)]
        if states is None:
            model._refuse(refusals[:1])
            states = evolve._states(run, p[0] @ KET_00, _advance)
        psi = evolve._dagger(p) @ np.array(list(itertools.islice(states, len(c))))[..., None]
        rho = gradient_crush(psi * evolve._dagger(psi))
        overlaps += rho[:, 0, 0].real.tolist()
    return overlaps, refusals


def _pair(axis: str, flip: float) -> tuple[Entry, Entry]:
    """The same pulse on both spins, the program form of ``model._both``."""
    return ("pulse", 1, axis, flip), ("pulse", 2, axis, flip)


def nmr_schedule(cfg: SweepConfig) -> PulseSchedule:
    """Pulse program measuring F at the end of ``cfg``'s window; refused
    when one of its numbers is not finite."""
    theta = 2.0 * cfg.delta * cfg.bx
    d = 2.0 * cfg.delta / (math.pi * cfg.j_hz)
    g = model.ground_state(ModelParams(bx=cfg.bx, bz=cfg.field(np.array([0, cfg.steps]))))
    (alpha0, alphaj), (beta0, betaj) = (a.tolist() for a in prep_angles(g))
    segments = []
    for m in range(1, cfg.steps + 1):
        nu = cfg.field(m) * cfg.j_hz / 2.0
        segments.append((*_pair("x", theta), ("offset", nu), ("delay", d)))
    sched = PulseSchedule(
        prep=(*_pair("x", -alpha0), ("offset", 0.0), ("delay", 1.0 / (2.0 * cfg.j_hz)),
              *_pair("y", -beta0)),
        segments=tuple(segments),
        # exp(+i pi/4 zz) realized as a 7/(2J) delay: exp(-i 7pi/4 zz) equals it
        # exactly since zz has eigenvalues +-1
        unprep=(*_pair("y", betaj), ("offset", 0.0), ("delay", 7.0 / (2.0 * cfg.j_hz)),
                *_pair("x", alphaj)),
        tail=(("crush",), ("pulse", 1, "y", math.pi / 2)),
        j_hz=cfg.j_hz,
    )
    for e in (*sched.entries(), ("total delay", sched.total_duration())):
        if not all(math.isfinite(x) for x in e[1:] if not isinstance(x, str)):
            raise InvalidConfiguration(f"schedule entry {e} is not finite at J = {cfg.j_hz} Hz")
    return sched
