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

from .errors import DegenerateGround, GapClosed, InvalidParam
from .smallmat import SpectralData, hermitian_eig

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENT2 = np.eye(2, dtype=complex)

# computational basis order |00>, |01>, |10>, |11>, qubit 1 on the left
KET_00 = np.array([1, 0, 0, 0], dtype=complex)
KET_11 = np.array([0, 0, 0, 1], dtype=complex)
PHI_PLUS = np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2)
PHI_MINUS = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)

X1X2 = np.kron(SIGMA_X, IDENT2) + np.kron(IDENT2, SIGMA_X)
Z1Z2_SUM = np.kron(SIGMA_Z, IDENT2) + np.kron(IDENT2, SIGMA_Z)
ZZ = np.kron(SIGMA_Z, SIGMA_Z)

_PHASE_TOL = 1e-12
# largest |bx| and |bz| accepted, in coupling units.  Squares of fields
# (bx^2 in the Landau-Zener exponent and in tau_q / tau_0 = 4 bx^2 / k) stay
# below 1e300, and Hamiltonian entries far below the ~9e307 at which the
# eigensolver's symmetrization (M + M^dag)/2 overflows.
FIELD_LIMIT = 1e150


def _first_outside(value):
    """The first field of ``value`` (a number or an array) that is not
    finite or exceeds FIELD_LIMIT in magnitude, or None."""
    if isinstance(value, np.ndarray):
        bad = value[~(np.abs(value) <= FIELD_LIMIT)]
        return bad[0] if bad.size else None
    return None if abs(value) <= FIELD_LIMIT else value


@dataclass(frozen=True)
class ModelParams:
    """Transverse field bx >= 0 and control field bz, both in coupling units
    and at most FIELD_LIMIT in magnitude.

    ``bz`` may also be a 1-D array of fields; the Hamiltonian builders,
    ``triplet_spectrum`` and ``relaxation_time`` then return one result per
    field, stacked.
    """

    bx: float
    bz: float | np.ndarray

    def __post_init__(self) -> None:
        if isinstance(self.bz, np.ndarray) and self.bz.ndim != 1:
            raise InvalidParam(f"bz must be a number or a 1-D array, got shape {self.bz.shape}")
        for name, value in (("bx", self.bx), ("bz", self.bz)):
            bad = _first_outside(value)
            if bad is not None:
                raise InvalidParam(f"{name} must be finite with |{name}| <= {FIELD_LIMIT:g}, got {bad}")
        if self.bx < 0:
            raise InvalidParam(f"transverse field must be >= 0, got {self.bx}")


@dataclass(frozen=True)
class GroundState:
    """Instantaneous ground state over {|00>, |phi+>, |11>}.

    The amplitudes are real by the phase convention: c0 >= 0 whenever
    |c0| > 1e-12, otherwise the first nonzero of cplus and c1 is positive.
    """

    c0: float
    cplus: float
    c1: float

    def vector(self) -> np.ndarray:
        """Embedding into the 4-dimensional computational basis."""
        return self.c0 * KET_00 + self.cplus * PHI_PLUS + self.c1 * KET_11


def _per_matrix(field):
    """An array of fields as (N, 1, 1), so that it scales a matrix into a
    stack; a single field as it is."""
    return field[:, None, None] if isinstance(field, np.ndarray) else field


def _rotation(axis: str, flip: float) -> np.ndarray:
    """The one-spin pulse exp(-i flip/2 sigma_axis) about "x" or "y"."""
    c, s = math.cos(flip / 2), math.sin(flip / 2)
    if axis == "x":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _both(axis: str, flip: float) -> np.ndarray:
    """The same pulse on both spins, a 4x4 unitary."""
    r = _rotation(axis, flip)
    return (r[:, None, :, None] * r[None, :, None, :]).reshape(4, 4)


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


def triplet_spectrum(p: ModelParams) -> SpectralData:
    """Spectral data of the triplet block (ascending, orthonormal columns)."""
    return hermitian_eig(triplet_block(p))


def ground_state(p: ModelParams) -> GroundState:
    """Lowest triplet eigenstate with the fixed real phase convention."""
    sd = triplet_spectrum(p)
    return _ground(p.bx, p.bz, sd.eigenvalues, sd.eigenvectors)


def _ground(bx: float, bz: float, w: np.ndarray, v: np.ndarray) -> GroundState:
    """Ground state at one field from its triplet eigenpairs w, v, unless degenerate."""
    gap = w[1] - w[0]
    if gap < 1e-12:
        raise DegenerateGround(
            f"ground state degenerate at bx={bx}, bz={bz} (gap {gap:.2e})"
        )
    vec = v[:, 0]
    # a unit vector with |c0| <= 1e-12 has a nonzero cplus or c1
    ref = vec[0] if abs(vec[0]) > _PHASE_TOL else next(x for x in vec[1:] if x != 0)
    vec = vec * (ref.conjugate() / abs(ref))
    c0, cplus, c1 = (float(x.real) for x in vec)
    return GroundState(c0=c0, cplus=cplus, c1=c1)


def ground_vector(p: ModelParams) -> np.ndarray:
    """Ground state as a normalized 4-component state vector."""
    return ground_state(p).vector()


def relaxation_time(p: ModelParams) -> float | np.ndarray:
    """Inverse gap between the two lowest triplet levels."""
    gap = triplet_spectrum(p).gap
    closed = np.asarray(gap) <= 1e-14
    if closed.any():
        raise GapClosed(f"gap closed at bx={p.bx}, bz={np.extract(closed, p.bz)[0]}")
    return 1.0 / gap

