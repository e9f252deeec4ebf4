"""Dense complex linear algebra for Hermitian matrices of dimension 2 to 4.

Eigendecomposition and unitary exponentials exp(-i*delta*H), of one matrix
or of each matrix of a stack (N, n, n), in the style of numpy.linalg.  The
eigensolver is LAPACK's (``np.linalg.eigh``); a single matrix runs as a
stack of one, so a stack member gets the bits a call on it alone would give,
and eigenpairs get an order and phase that depend on the matrix alone.
Input range: finite entries, Hermitian to 1e-12, and a finite (M + M^dag)/2,
that is entries below ~9e307.  Functions are pure and mutate no argument.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NonHermitianInput

HERMITIAN_TOL = 1e-12
# eigenvalues closer than this (relative to the spectral scale) are treated
# as one degenerate cluster when ordering eigenvectors
DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class SpectralData:
    """Eigensystem of a Hermitian matrix, sorted by ascending eigenvalue.

    ``eigenvectors`` holds orthonormal columns; ``gap`` is the splitting
    between the two lowest levels.  For a stack every field gains a leading
    axis over its members.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    gap: float


def _order(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort the eigenpairs (w ascending on the last axis, as ``eigh``
    returns it, v by columns; either may be a stack) inside each degenerate
    cluster by the basis index of each vector's largest component."""
    scale = np.maximum(1.0, np.max(np.abs(w), axis=-1, keepdims=True))
    # clusters are maximal runs of near-equal eigenvalues
    breaks = np.abs(np.diff(w, axis=-1)) > DEGENERACY_TOL * scale
    if breaks.all():  # no cluster; skips the cost below on most calls
        return w, v
    cluster = np.cumsum(np.concatenate([np.zeros_like(breaks[..., :1]), breaks], axis=-1), axis=-1)
    order = np.lexsort((np.argmax(np.abs(v), axis=-2), cluster), axis=-1)
    return (np.take_along_axis(w, order, axis=-1),
            np.take_along_axis(v, order[..., None, :], axis=-1))


def _fix_phases(v: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component of each column real and positive
    (columns of the last axis; v may be a stack).  The columns are those of
    a unitary, so none is zero."""
    row = np.argmax(np.abs(v), axis=-2)[..., None, :]
    ref = np.take_along_axis(v, row, axis=-2)
    return v * (ref.conj() / np.abs(ref))


def hermitian_eig(m: np.ndarray) -> SpectralData:
    """Eigendecomposition of a Hermitian matrix of dimension 2..4, or of
    each matrix of a stack (N, n, n), ordered by ``_order`` and phased by
    ``_fix_phases``.

    Raises NonHermitianInput for a non-finite entry, max|M - M^dag| above
    1e-12 or an overflowing (M + M^dag)/2 (in any member of a stack), and
    NoConvergence when LAPACK fails or returns a non-finite result.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix or a stack of them, got shape {a.shape}")
    n = a.shape[-1]
    if not 2 <= n <= 4:
        raise DimensionMismatch(f"dimension {n} outside the supported range 2..4")
    if not np.all(np.isfinite(a)):
        raise NonHermitianInput("matrix entries must be finite")
    stack = a.reshape(-1, n, n)  # a single matrix as a stack of one
    herm = np.swapaxes(stack.conj(), -1, -2)
    defect = float(np.max(np.abs(stack - herm), initial=0.0))
    if defect > HERMITIAN_TOL:
        raise NonHermitianInput(f"max|M - M^dag| = {defect:.3e} exceeds {HERMITIAN_TOL}")
    with np.errstate(over="ignore", invalid="ignore"):  # checked on the next line
        sym = (stack + herm) / 2.0
    if not np.all(np.isfinite(sym)):
        raise NonHermitianInput("(M + M^dag)/2 overflows; entries must stay below ~9e307")
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigendecomposition of a {n}x{n} matrix failed: {exc}") from None
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(v))):
        raise NoConvergence(f"eigendecomposition of a {n}x{n} matrix is not finite")
    w, v = _order(w, v)
    v = _fix_phases(v)
    gap = w[:, 1] - w[:, 0]
    if a.ndim == 2:
        return SpectralData(w[0], v[0], float(gap[0]))
    return SpectralData(w, v, gap)


def unitary_step(h: np.ndarray, delta: float) -> np.ndarray:
    """exp(-i * delta * h) for Hermitian h, or for each matrix of a stack
    (N, n, n), via eigendecomposition."""
    if not math.isfinite(delta):
        raise ValueError(f"time step must be finite, got {delta}")
    sd = hermitian_eig(h)
    phases = np.exp(-1j * delta * sd.eigenvalues)
    v = sd.eigenvectors
    return (v * phases[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)
