"""Two-qubit Ising model in a swept longitudinal field with a small
transverse field.

The Hamiltonian (coupling set to 1, energies in units of the coupling) is

    H = bx (sx1 + sx2) + bz (sz1 + sz2) + sz1 sz2.

At bx = 0 the triplet levels are 1 + 2 bz, -1 and 1 - 2 bz for |00>, the
symmetric Bell state |phi+> = (|01> + |10>)/sqrt(2) and |11>, so the ground
state changes character at bz = -1 and bz = +1.  A small bx opens avoided
crossings there.  H commutes with the qubit swap, so a state started in the
triplet sector never leaks into the singlet (|01> - |10>)/sqrt(2) and the
dynamics lives in the 3x3 triplet block.

Near bz = -1 the relevant physics reduces to a two-level system,
H_eff = (bz + 1) sz + sqrt(2) bx sx, whose gap 2 sqrt(2) bx at the crossing
sets the maximal relaxation time tau0 = 1/(2 sqrt(2) bx).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfiguration, KzsimError
from .smallmat import hermitian_eig

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENT2 = np.eye(2, dtype=complex)

# computational basis order |00>, |01>, |10>, |11>, qubit 1 on the left
KET_00 = np.array([1, 0, 0, 0], dtype=complex)
KET_11 = np.array([0, 0, 0, 1], dtype=complex)
PHI_PLUS = np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2)

X1X2 = np.kron(SIGMA_X, IDENT2) + np.kron(IDENT2, SIGMA_X)
Z1Z2_SUM = np.kron(SIGMA_Z, IDENT2) + np.kron(IDENT2, SIGMA_Z)
ZZ = np.kron(SIGMA_Z, SIGMA_Z)

_PHASE_TOL = 1e-12
# largest |bx| and |bz| accepted, in coupling units.  Squares of fields
# (bx^2 in the Landau-Zener exponent and in tau_q / tau_0 = 4 bx^2 / k) stay
# below 1e300, and Hamiltonian entries far below the ~9e307 at which the
# eigensolver's symmetrization (M + M^dag)/2 overflows.
FIELD_LIMIT = 1e150


def _require_fields(**fields) -> None:
    """Refuse, by name, the first field (a number or an array of them) that
    holds a value not finite or above FIELD_LIMIT in magnitude."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            bad = value[~(np.abs(value) <= FIELD_LIMIT)]
            bad = bad[0] if bad.size else None
        else:
            bad = None if abs(value) <= FIELD_LIMIT else value
        if bad is not None:
            raise InvalidConfiguration(f"{name} must be finite with |{name}| <= {FIELD_LIMIT:g}, got {bad}")


@dataclass(frozen=True)
class ModelParams:
    """Transverse field bx >= 0 and control field bz, both in coupling units
    and at most FIELD_LIMIT in magnitude.

    ``bz`` may also be a 1-D array of fields; the Hamiltonian builders,
    ``triplet_spectrum``, ``ground_state`` and ``relaxation_time`` then
    return one result per field, stacked.
    """

    bx: float
    bz: float | np.ndarray

    def __post_init__(self) -> None:
        if isinstance(self.bz, np.ndarray) and self.bz.ndim != 1:
            raise InvalidConfiguration(f"bz must be a number or a 1-D array, got shape {self.bz.shape}")
        _require_fields(bx=self.bx, bz=self.bz)
        if self.bx < 0:
            raise InvalidConfiguration(f"transverse field must be >= 0, got {self.bx}")


@dataclass(frozen=True)
class GroundState:
    """Instantaneous ground state over {|00>, |phi+>, |11>}.

    The amplitudes are real by the phase convention: c0 >= 0 whenever
    |c0| > 1e-12, otherwise the first nonzero of cplus and c1 is positive.
    For an array of fields each amplitude is an array, one entry per field.
    """

    c0: float
    cplus: float
    c1: float

    def vector(self) -> np.ndarray:
        """Embedding into the 4-dimensional computational basis, one row per
        member when the amplitudes are arrays (a stack)."""
        c0, cplus, c1 = (np.asarray(c)[..., None] for c in (self.c0, self.cplus, self.c1))
        return c0 * KET_00 + cplus * PHI_PLUS + c1 * KET_11


def _per_matrix(field):
    """An array of fields as (N, 1, 1), so that it scales a matrix into a
    stack; a single field as it is."""
    return field[:, None, None] if isinstance(field, np.ndarray) else field


def _rotation(axis: str, flip) -> np.ndarray:
    """The one-spin pulse exp(-i flip/2 sigma_axis) about "x" or "y", or one
    per flip of a 1-D array, stacked; a single flip runs as a stack of one."""
    entries = []
    for f in flip.tolist() if isinstance(flip, np.ndarray) else (flip,):
        c, s = math.cos(f / 2), math.sin(f / 2)
        entries += (c, -1j * s, -1j * s, c) if axis == "x" else (c, -s, s, c)
    r = np.array(entries, dtype=complex).reshape(-1, 2, 2)
    return r if np.ndim(flip) else r[0]


def _both(axis: str, flip) -> np.ndarray:
    """The same pulse on both spins, a 4x4 unitary, or one per flip of a 1-D array."""
    r = _rotation(axis, flip)
    return (r[..., :, None, :, None] * r[..., None, :, None, :]).reshape(*r.shape[:-2], 4, 4)


def driven_hamiltonian(p: ModelParams) -> np.ndarray:
    """Full 4x4 Hamiltonian including the transverse field."""
    return p.bx * X1X2 + _per_matrix(p.bz) * Z1Z2_SUM + ZZ


def triplet_block(p: ModelParams) -> np.ndarray:
    """3x3 restriction to the swap-symmetric basis {|00>, |phi+>, |11>}."""
    bz = np.asarray(p.bz)
    h = np.zeros((*bz.shape, 3, 3), dtype=complex)
    h[..., 0, 0] = 1 + 2 * bz
    h[..., 1, 1] = -1
    h[..., 2, 2] = 1 - 2 * bz
    h[..., [0, 1, 1, 2], [1, 0, 2, 1]] = math.sqrt(2) * p.bx
    return h


def effective_hamiltonian(p: ModelParams) -> np.ndarray:
    """Two-level reduction around the bz = -1 crossing."""
    return _per_matrix(p.bz + 1.0) * SIGMA_Z + math.sqrt(2) * p.bx * SIGMA_X


def triplet_spectrum(p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (w, v) of the triplet block: ascending levels w and
    orthonormal eigenvector columns v, stacked for an array p.bz."""
    return hermitian_eig(triplet_block(p))


def ground_state(p: ModelParams) -> GroundState:
    """Lowest triplet eigenstate with the fixed real phase convention, refused
    when degenerate; for an array p.bz, one per field as amplitude arrays,
    refused at the first degenerate field."""
    g, refusals = _ground(p.bx, p.bz, *triplet_spectrum(p))
    _refuse(refusals)
    return g


def _ground(bx: float, bz, w: np.ndarray, v: np.ndarray) -> tuple[GroundState, list]:
    """Ground state at the field bz from its triplet eigenpairs w, v, and its
    refusal message if degenerate, else None.  For a 1-D array bz (w (N, 3),
    v (N, 3, 3)) the amplitudes are arrays and there is one message per
    field; nothing is raised."""
    w, vec = np.reshape(w, (-1, 3)), np.reshape(v, (-1, 3, 3))[:, :, 0]
    refusals = [f"ground state degenerate at bx={bx}, bz={b} (gap {gap:.2e})" if gap < 1e-12 else None
                for b, gap in zip(np.reshape(bz, -1).tolist(), (w[:, 1] - w[:, 0]).tolist())]
    # np.hypot is abs() of one complex bit for bit; np.abs of an array is not
    mag = np.hypot(vec.real, vec.imag)
    # the phase reference is c0, unless |c0| <= 1e-12: then cplus or c1 is nonzero
    on_c0 = mag[:, 0] > _PHASE_TOL
    ref = (slice(None), 0) if on_c0.all() else (
        np.arange(len(vec)), np.where(on_c0, 0, np.where(vec[:, 1] != 0, 1, 2)))
    amps = (vec * (vec[ref].conj() / mag[ref])[:, None]).real
    return GroundState(*(amps.T if np.ndim(bz) else amps[0].tolist())), refusals


def _refuse(refusals) -> None:
    """Raise the first refusal message of ``refusals`` as KzsimError, if any."""
    refusal = next(filter(None, refusals), None)
    if refusal:
        raise KzsimError(refusal)


def ground_vector(p: ModelParams) -> np.ndarray:
    """Ground state as a normalized 4-component state vector."""
    return ground_state(p).vector()


def relaxation_time(p: ModelParams) -> float | np.ndarray:
    """Inverse gap w1 - w0 between the two lowest triplet levels w of
    ``triplet_spectrum``."""
    w, _ = triplet_spectrum(p)
    gap = w[..., 1] - w[..., 0]
    closed = gap <= 1e-14
    if closed.any():
        raise KzsimError(f"gap closed at bx={p.bx}, bz={np.extract(closed, p.bz)[0]}")
    return 1.0 / gap

