"""Dense complex linear algebra for Hermitian matrices of dimension 2 to 4.

Everything the sweep machinery needs from linear algebra lives here:
eigendecomposition and unitary exponentials exp(-i*delta*H).  The
eigensolver is a cyclic complex Jacobi iteration, which at these dimensions
converges to machine precision in a handful of sweeps and does not depend on
LAPACK, so golden files built on top of it are stable for a given numpy and
platform libm.

All functions are pure; matrices and vectors are plain numpy arrays and are
never mutated in place.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonHermitianInput

HERMITIAN_TOL = 1e-12
# off-diagonal Frobenius norm at which the Jacobi iteration stops
JACOBI_TOL = 1e-14
_JACOBI_MAX_SWEEPS = 60
# eigenvalues closer than this (relative to the spectral scale) are treated
# as one degenerate cluster when ordering eigenvectors
DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class SpectralData:
    """Eigensystem of a Hermitian matrix, sorted by ascending eigenvalue.

    ``eigenvectors`` holds orthonormal columns; ``gap`` is the splitting
    between the two lowest levels and ``tau`` its inverse (the relaxation
    time when the matrix is a Hamiltonian in units of the coupling).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    gap: float
    tau: float


def _check_matrix(m: np.ndarray) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if not 2 <= n <= 4:
        raise DimensionMismatch(f"dimension {n} outside the supported range 2..4")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise NonHermitianInput("matrix entries must be finite")
    return a


def _jacobi(a: list[list[complex]]) -> tuple[list[float], list[list[complex]]]:
    """Cyclic Jacobi on a Hermitian matrix given as nested lists.

    Returns eigenvalues (unsorted) and the accumulated unitary V as rows of
    components, i.e. eigenvector i is [V[0][i], V[1][i], ...].
    """
    n = len(a)
    v = [[1.0 + 0j if i == j else 0.0 + 0j for j in range(n)] for i in range(n)]
    tol2 = JACOBI_TOL * JACOBI_TOL
    for _ in range(_JACOBI_MAX_SWEEPS):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                x = a[p][q]
                off += x.real * x.real + x.imag * x.imag
        if off <= tol2:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                mag = abs(apq)
                if mag < 1e-300:
                    continue
                app = a[p][p].real
                aqq = a[q][q].real
                phase = apq / mag
                tau = (aqq - app) / (2.0 * mag)
                t = (1.0 if tau >= 0 else -1.0) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c * phase
                sc = s.conjugate()
                for i in range(n):
                    aip = a[i][p]
                    aiq = a[i][q]
                    a[i][p] = c * aip - sc * aiq
                    a[i][q] = s * aip + c * aiq
                for i in range(n):
                    api = a[p][i]
                    aqi = a[q][i]
                    a[p][i] = c * api - s * aqi
                    a[q][i] = sc * api + c * aqi
                for i in range(n):
                    vip = v[i][p]
                    viq = v[i][q]
                    v[i][p] = c * vip - sc * viq
                    v[i][q] = s * vip + c * viq
    w = [a[i][i].real for i in range(n)]
    return w, v


def _order_with_clusters(w: np.ndarray, v: np.ndarray, prev: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalue order; inside degenerate clusters the order is
    fixed either by overlap with ``prev`` columns (adiabatic continuity) or,
    lacking that, by the basis index of each vector's largest component."""
    order = np.argsort(w, kind="stable")
    w = w[order]
    v = v[:, order]
    scale = max(1.0, float(np.max(np.abs(w))))
    # find maximal runs of near-equal eigenvalues
    start = 0
    while start < len(w) - 1:
        end = start
        while end + 1 < len(w) and abs(w[end + 1] - w[end]) <= DEGENERACY_TOL * scale:
            end += 1
        if end > start:
            idx = list(range(start, end + 1))
            if prev is not None:
                chosen: list[int] = []
                remaining = idx[:]
                for pos in idx:
                    ref = prev[:, pos]
                    best = max(remaining, key=lambda j: abs(np.vdot(ref, v[:, j])))
                    chosen.append(best)
                    remaining.remove(best)
            else:
                chosen = sorted(idx, key=lambda j: int(np.argmax(np.abs(v[:, j]))))
            v[:, idx] = v[:, chosen]
            w[idx] = w[chosen]
        start = end + 1
    return w, v


def _fix_phases(v: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component of each column real and positive."""
    out = v.copy()
    for j in range(v.shape[1]):
        col = out[:, j]
        i = int(np.argmax(np.abs(col)))
        ref = col[i]
        if abs(ref) > 0:
            out[:, j] = col * (ref.conjugate() / abs(ref))
    return out


def hermitian_eig(m: np.ndarray, prev: np.ndarray | None = None) -> SpectralData:
    """Eigendecomposition of a Hermitian matrix of dimension 2..4.

    ``prev`` optionally carries the eigenvector columns from a neighbouring
    parameter point; it only matters when eigenvalues are degenerate, where
    it keeps the returned order continuous along a sweep.

    Raises NonHermitianInput when max|M - M^dag| exceeds 1e-12.
    """
    a = _check_matrix(m)
    defect = float(np.max(np.abs(a - a.conj().T)))
    if defect > HERMITIAN_TOL:
        raise NonHermitianInput(f"max|M - M^dag| = {defect:.3e} exceeds {HERMITIAN_TOL}")
    sym = (a + a.conj().T) / 2.0
    w_raw, v_raw = _jacobi([list(row) for row in sym])
    w = np.array(w_raw, dtype=float)
    v = np.array(v_raw, dtype=complex)
    w, v = _order_with_clusters(w, v, prev)
    v = _fix_phases(v)
    gap = float(w[1] - w[0])
    tau = 1.0 / gap if gap > 0.0 else math.inf
    return SpectralData(eigenvalues=w, eigenvectors=v, gap=gap, tau=tau)


def unitary_step(h: np.ndarray, delta: float) -> np.ndarray:
    """exp(-i * delta * h) for Hermitian h, via eigendecomposition."""
    if not math.isfinite(delta):
        raise ValueError(f"time step must be finite, got {delta}")
    sd = hermitian_eig(h)
    phases = np.exp(-1j * delta * sd.eigenvalues)
    return (sd.eigenvectors * phases) @ sd.eigenvectors.conj().T
