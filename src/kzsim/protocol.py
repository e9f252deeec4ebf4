"""Emulation of the NMR measurement protocol.

The spectrometer cannot read the overlap F = |<psi_g(t)|psi(t)>|^2 directly.
Instead it prepares P(0)|00>, runs the discretized sweep, applies the inverse
preparation P(t)^dag of the final ground state, destroys all coherences with
a gradient crush and reads the |00> population, which equals F exactly.

The preparation operator

    P = exp(i beta (sy1+sy2)/2) exp(-i pi/4 sz1 sz2) exp(i alpha (sx1+sx2)/2)

maps |00> onto any real triplet state; alpha follows from cos(alpha) = c0+c1
and beta from sin(beta+gamma) = -sqrt(2) c+ / sqrt(2-(c0+c1)^2) with
tan(gamma) = sqrt(1-(c0+c1)^2).  The arcsin leaves a two-fold branch choice,
which is resolved by explicitly checking which branch reproduces the ground
state.

``nmr_schedule`` emits the corresponding pulse sequence: per segment one
transverse pulse pair with flip angle theta = 2 delta bx followed by a free
evolution delay d = 2 delta / (pi J) at offset nu_m = bz_m J / 2.  Offsets
are stored with the sign convention bz = 2 nu / J, i.e. the delay Hamiltonian
is pi nu (sz1+sz2) + (pi J / 2) sz1 sz2 in rad/s.  Pulses are ideal
zero-duration rotations, so simulating the emitted schedule reproduces the
trotter segment propagators exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, NoValidBranch
from .evolve import SweepConfig, _advance, trotter_step
from .model import GroundState, KET_00, ModelParams, ground_state

# schedule entries: ("pulse", channel, axis, flip_rad) | ("offset", hz)
#                   | ("delay", seconds) | ("crush",)
Entry = tuple

_BRANCH_TOL = 1e-6


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


def _rx(flip: float) -> np.ndarray:
    c, s = math.cos(flip / 2), math.sin(flip / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _ry(flip: float) -> np.ndarray:
    c, s = math.cos(flip / 2), math.sin(flip / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


_UZZ_QUARTER = np.diag(np.exp(-1j * math.pi / 4 * np.array([1, -1, -1, 1])))


def prep_operator(a: PrepAngles) -> np.ndarray:
    """The 4x4 preparation unitary built from its three factors."""
    ux = np.kron(_rx(-a.alpha), _rx(-a.alpha))
    uy = np.kron(_ry(-a.beta), _ry(-a.beta))
    return uy @ _UZZ_QUARTER @ ux


def prep_angles(g: GroundState) -> PrepAngles:
    """Angles such that prep_operator(...) maps |00> onto ``g``.

    Both arcsin branches for beta are tried; the one reproducing the ground
    state (fidelity within 1e-6 of unity, in practice machine-exact) wins.
    """
    s = g.c0 + g.c1
    s = min(1.0, max(-1.0, s))
    alpha = math.acos(s)
    gamma = math.atan(math.sqrt(max(0.0, 1.0 - s * s)))
    denom = math.sqrt(2.0 - s * s)
    sval = min(1.0, max(-1.0, -math.sqrt(2) * g.cplus / denom))
    base = math.asin(sval)
    target = g.vector()
    best: tuple[float, PrepAngles] | None = None
    for branch in (base, math.pi - base):
        beta = branch - gamma
        beta = (beta + math.pi) % (2 * math.pi) - math.pi
        cand = PrepAngles(alpha=alpha, beta=beta, gamma=gamma)
        fid = abs(np.vdot(target, prep_operator(cand) @ KET_00)) ** 2
        if best is None or fid > best[0]:
            best = (fid, cand)
    fid, cand = best
    if fid < 1.0 - _BRANCH_TOL:
        raise NoValidBranch(
            f"no arcsin branch reproduces the ground state (best fidelity {fid})"
        )
    return cand


def gradient_crush(rho: np.ndarray) -> np.ndarray:
    """Zero all off-diagonal density-matrix elements (populations survive)."""
    return np.diag(np.diag(np.asarray(rho, dtype=complex)))


def protocol_overlap(cfg: SweepConfig, j: int) -> float:
    """Overlap F(t_j) as the protocol measures it.

    Prepares P(0)|00>, applies j trotter segments, undoes the preparation of
    the instantaneous ground state, crushes coherences and returns the |00>
    population.  The crush does not touch the diagonal, so this equals
    |<00| P(t_j)^dag U P(0) |00>|^2 exactly.
    """
    if not 0 <= j <= cfg.steps:
        raise IndexOutOfRange(f"segment index {j} outside 0..{cfg.steps}")
    p0 = prep_operator(prep_angles(ground_state(ModelParams(bx=cfg.bx, bz=cfg.b0))))
    steps = (trotter_step(ModelParams(bx=cfg.bx, bz=cfg.field(m)), cfg.delta)
             for m in range(1, j + 1))
    psi = _advance(p0 @ KET_00, steps)
    pj = prep_operator(prep_angles(ground_state(ModelParams(bx=cfg.bx, bz=cfg.field(j)))))
    psi = pj.conj().T @ psi
    rho = gradient_crush(np.outer(psi, psi.conj()))
    return float(rho[0, 0].real)


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
    """Pulse program measuring F at the end of ``cfg``'s window."""
    theta = 2.0 * cfg.delta * cfg.bx
    d = 2.0 * cfg.delta / (math.pi * cfg.j_hz)
    a0 = prep_angles(ground_state(ModelParams(bx=cfg.bx, bz=cfg.b0)))
    aj = prep_angles(ground_state(ModelParams(bx=cfg.bx, bz=cfg.bz_end)))
    segments = []
    for m in range(1, cfg.steps + 1):
        nu = cfg.field(m) * cfg.j_hz / 2.0
        segments.append((
            ("pulse", 1, "x", theta),
            ("pulse", 2, "x", theta),
            ("offset", nu),
            ("delay", d),
        ))
    return PulseSchedule(
        prep=_prep_block(a0, cfg.j_hz),
        segments=tuple(segments),
        unprep=_unprep_block(aj, cfg.j_hz),
        tail=(("crush",), ("pulse", 1, "y", math.pi / 2)),
        j_hz=cfg.j_hz,
    )


def simulate_entries(entries, j_hz: float) -> np.ndarray:
    """Unitary realized by a run of pulse/offset/delay entries.

    Delays evolve under pi*nu*(sz1+sz2) + (pi*J/2)*sz1*sz2 at the current
    offset nu; pulses are instantaneous rotations.  Crush markers are not
    allowed here (they are not unitary).
    """
    u = np.eye(4, dtype=complex)
    nu = 0.0
    ident = np.eye(2, dtype=complex)
    for e in entries:
        if e[0] == "offset":
            nu = e[1]
        elif e[0] == "pulse":
            rot = _rx(e[3]) if e[2] == "x" else _ry(e[3])
            g = np.kron(rot, ident) if e[1] == 1 else np.kron(ident, rot)
            u = g @ u
        elif e[0] == "delay":
            zsum = np.array([2.0, 0.0, 0.0, -2.0])
            zz = np.array([1.0, -1.0, -1.0, 1.0])
            phases = math.pi * nu * zsum + (math.pi * j_hz / 2.0) * zz
            u = np.diag(np.exp(-1j * e[1] * phases)) @ u
        elif e[0] == "crush":
            raise ValueError("crush is not unitary; simulate blocks around it")
        else:
            raise ValueError(f"unknown schedule entry {e!r}")
    return u
