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

from .errors import KzsimError

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
    """Sort the eigenpairs of a stack (w (N, n) ascending on the last axis,
    as ``eigh`` returns it, v (N, n, n) by columns) inside each degenerate
    cluster by the basis index of each vector's largest component."""
    # clusters: maximal runs of near-equal eigenvalues; w ascends, so max|w| is at an end
    scale = np.maximum(1.0, np.maximum(-w[..., :1], w[..., -1:]))
    breaks = w[..., 1:] - w[..., :-1] > DEGENERACY_TOL * scale  # np.diff, without its wrapper
    if breaks.all():  # no cluster; skips the cost below on most calls
        return w, v
    n = w.shape[-1]
    cluster = np.cumsum(np.concatenate([np.zeros_like(breaks[..., :1]), breaks], axis=-1), axis=-1)
    # a stable sort of one key is lexsort's order of (cluster, argmax row)
    order = np.argsort(cluster * n + np.abs(v).argmax(axis=-2), axis=-1, kind="stable")
    k = np.arange(len(w))[:, None]
    return w[k, order], v[k[..., None], np.arange(n)[:, None], order[:, None, :]]


def _fix_phases(v: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component of each column real and positive
    (columns of each matrix of a stack (N, n, n)).  The columns are those of
    a unitary, so none is zero."""
    a = np.abs(v)
    k, col = np.arange(len(v))[:, None], np.arange(v.shape[-1])
    row = a.argmax(axis=-2)
    return v * (v[k, row, col].conj() / a[k, row, col])[:, None, :]


def hermitian_eig(m: np.ndarray) -> SpectralData:
    """Eigendecomposition of a Hermitian matrix of dimension 2..4, or of
    each matrix of a stack (N, n, n), ordered by ``_order`` and phased by
    ``_fix_phases``.

    Raises KzsimError for any other shape, a non-finite entry, max|M - M^dag|
    above 1e-12 or an overflowing (M + M^dag)/2 (in any member of a stack),
    and when LAPACK fails or returns a non-finite result.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise KzsimError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    n = a.shape[-1]
    if not 2 <= n <= 4:
        raise KzsimError(f"dimension {n} outside the supported range 2..4")
    stack = a.reshape(-1, n, n)  # a single matrix as a stack of one
    herm = np.swapaxes(stack.conj(), -1, -2)
    with np.errstate(over="ignore", invalid="ignore"):  # both checked below
        sym = (stack + herm) / 2.0
        # an exactly Hermitian stack (every Hamiltonian) has no defect to measure
        defect = 0.0 if (stack == herm).all() else float(np.max(np.abs(stack - herm), initial=0.0))
    finite = np.isfinite(sym).all()  # a non-finite entry of a makes one of sym
    if not (finite or np.isfinite(a).all()):
        raise KzsimError("matrix entries must be finite")
    if defect > HERMITIAN_TOL:
        raise KzsimError(f"max|M - M^dag| = {defect:.3e} exceeds {HERMITIAN_TOL}")
    if not finite:
        raise KzsimError("(M + M^dag)/2 overflows; entries must stay below ~9e307")
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise KzsimError(f"eigendecomposition of a {n}x{n} matrix failed: {exc}") from None
    if not (np.isfinite(w).all() and np.isfinite(v).all()):
        raise KzsimError(f"eigendecomposition of a {n}x{n} matrix is not finite")
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
        raise KzsimError(f"time step must be finite, got {delta}")
    sd = hermitian_eig(h)
    phases = np.exp(-1j * delta * sd.eigenvalues)
    v = sd.eigenvectors
    return (v * phases[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)
