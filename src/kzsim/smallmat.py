"""Dense complex linear algebra for Hermitian matrices of dimension 2 to 4.

Everything the sweep machinery needs from linear algebra lives here:
eigendecomposition and unitary exponentials exp(-i*delta*H).  The
eigensolver is a cyclic complex Jacobi iteration, which at these dimensions
converges to machine precision in a handful of sweeps and does not depend on
LAPACK, so golden files built on top of it are stable for a given numpy and
platform libm.

Both public functions also take a stack (N, n, n), in the style of
numpy.linalg.  A stack runs the same Jacobi vectorized over its members, on
separate real and imaginary arrays that repeat numpy's complex scalar
arithmetic operation for operation, so every member gets the bits a call on
that matrix alone would give.  The order of degenerate eigenvectors depends
on the matrix alone (the basis index of each one's largest component), so
how matrices are grouped into stacks never changes a result.

All functions are pure; matrices and vectors are plain numpy arrays and are
never mutated in place.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NonHermitianInput

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
    time when the matrix is a Hamiltonian in units of the coupling).  For a
    stack every field gains a leading axis over its members.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    gap: float
    tau: float


def _check_matrix(m: np.ndarray) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(
            f"expected a square matrix or a stack of them, got shape {a.shape}")
    n = a.shape[-1]
    if not 2 <= n <= 4:
        raise DimensionMismatch(f"dimension {n} outside the supported range 2..4")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise NonHermitianInput("matrix entries must be finite")
    return a


def _no_convergence(n: int) -> NoConvergence:
    return NoConvergence(
        f"Jacobi iteration on a {n}x{n} matrix did not converge in"
        f" {_JACOBI_MAX_SWEEPS} sweeps")


def _jacobi(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi on a Hermitian matrix, in numpy's complex scalars.

    Returns the eigenvalues (unsorted) and the accumulated unitary V, whose
    columns are the eigenvectors.  Raises NoConvergence when the
    off-diagonal norm is still above JACOBI_TOL after _JACOBI_MAX_SWEEPS
    sweeps.
    """
    a = [list(row) for row in m]
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
    else:
        raise _no_convergence(n)
    return np.array([a[i][i].real for i in range(n)]), np.array(v)


def _mul(ar, ai, br, bi):
    """(ar + i ai)(br + i bi) as numpy's complex scalar product computes it;
    a real factor r enters as r + 0i."""
    return ar * br - ai * bi, ar * bi + ai * br


def _rotate(re, im, ip, iq, c, sr, si, do) -> None:
    """(x, y) <- (c x - conj(s) y, s x + c y) for real c and s = sr + i si,
    on the slices ip, iq of the real and imaginary parts, where ``do``
    (everywhere when ``do`` is None)."""
    xr, xi, yr, yi = re[ip], im[ip], re[iq], im[iq]
    cxr, cxi = _mul(c, 0.0, xr, xi)
    cyr, cyi = _mul(c, 0.0, yr, yi)
    syr, syi = _mul(sr, -si, yr, yi)
    sxr, sxi = _mul(sr, si, xr, xi)
    new = ((re, ip, cxr - syr), (im, ip, cxi - syi), (re, iq, sxr + cyr), (im, iq, sxi + cyi))
    for part, idx, value in new:
        part[idx] = value if do is None else np.where(do, value, part[idx])


def _jacobi_stack(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_jacobi`` on every member of a stack (N, n, n) at once, same bits.

    Each member stops rotating once it has converged, and an element below
    1e-300 is skipped, as in the scalar loop.  Returns eigenvalues (N, n),
    unsorted, and the accumulated unitaries (N, n, n).
    """
    size, n = a.shape[0], a.shape[-1]
    # members on the last axis; rows 0..n-1 hold the matrix, rows n..2n-1
    # the accumulated V, whose columns rotate with the matrix's
    re, im = np.zeros((2 * n, n, size)), np.zeros((2 * n, n, size))
    re[:n], im[:n] = np.moveaxis(a.real, 0, -1), np.moveaxis(a.imag, 0, -1)
    re[n:] = np.eye(n)[:, :, None]
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    active = np.ones(size, dtype=bool)
    tol2 = JACOBI_TOL * JACOBI_TOL
    for _ in range(_JACOBI_MAX_SWEEPS):
        off = 0.0
        for p, q in pairs:
            off = off + (re[p, q] * re[p, q] + im[p, q] * im[p, q])
        active &= ~(off <= tol2)
        if not active.any():
            break
        for p, q in pairs:
            xr, xi = re[p, q], im[p, q]
            mag = np.hypot(xr, xi)
            do = active & ~(mag < 1e-300)
            mag = np.where(do, mag, 1.0)
            # phase = apq / mag, numpy's complex division by mag + 0i
            rat = 0.0 / mag
            scl = 1.0 / (mag + 0.0 * rat)
            pr, pi = (xr + xi * rat) * scl, (xi - xr * rat) * scl
            tau = (re[q, q] - re[p, p]) / (2.0 * mag)
            t = np.where(tau >= 0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            sr, si = _mul(t * c, 0.0, pr, pi)
            do = None if do.all() else do
            _rotate(re, im, (slice(None), p), (slice(None), q), c, sr, si, do)
            _rotate(re, im, p, q, c, sr, -si, do)
    else:
        if active.any():
            raise _no_convergence(n)
    v = np.empty(a.shape, dtype=complex)
    v.real, v.imag = np.moveaxis(re[n:], -1, 0), np.moveaxis(im[n:], -1, 0)
    return re[range(n), range(n)].T, v


def _order(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort the eigenpairs (w on the last axis, v by columns; either may be
    a stack) by ascending eigenvalue, and inside a degenerate cluster by the
    basis index of each vector's largest component."""
    def take(order):
        return (np.take_along_axis(w, order, axis=-1),
                np.take_along_axis(v, order[..., None, :], axis=-1))

    w, v = take(np.argsort(w, axis=-1, kind="stable"))
    scale = np.maximum(1.0, np.max(np.abs(w), axis=-1, keepdims=True))
    # clusters are maximal runs of near-equal eigenvalues
    breaks = np.abs(np.diff(w, axis=-1)) > DEGENERACY_TOL * scale
    if breaks.all():  # no cluster; skips the cost below on most calls
        return w, v
    cluster = np.cumsum(np.concatenate([np.zeros_like(breaks[..., :1]), breaks], axis=-1), axis=-1)
    return take(np.lexsort((np.argmax(np.abs(v), axis=-2), cluster), axis=-1))


def _fix_phases(v: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component of each column real and positive
    (columns of the last axis; v may be a stack).  The columns are those of
    a unitary, so none is zero."""
    row = np.argmax(np.abs(v), axis=-2)[..., None, :]
    ref = np.take_along_axis(v, row, axis=-2)
    # |ref| as the scalar abs() computes it, which np.abs does not
    return v * (ref.conj() / np.hypot(ref.real, ref.imag))


def hermitian_eig(m: np.ndarray) -> SpectralData:
    """Eigendecomposition of a Hermitian matrix of dimension 2..4, or of
    each matrix of a stack (N, n, n).

    Eigenvalues ascend; the vectors of a degenerate cluster are ordered by
    the basis index of their largest component, and each vector's largest
    component is real and positive.

    Raises NonHermitianInput when max|M - M^dag| exceeds 1e-12 (for any
    member of a stack) and NoConvergence when the Jacobi iteration stalls.
    """
    a = _check_matrix(m)
    herm = np.swapaxes(a.conj(), -1, -2)
    defect = float(np.max(np.abs(a - herm), initial=0.0))
    if defect > HERMITIAN_TOL:
        raise NonHermitianInput(f"max|M - M^dag| = {defect:.3e} exceeds {HERMITIAN_TOL}")
    sym = (a + herm) / 2.0
    w, v = _order(*(_jacobi(sym) if a.ndim == 2 else _jacobi_stack(sym)))
    gap = w[..., 1] - w[..., 0]
    tau = np.divide(1.0, gap, out=np.full(gap.shape, math.inf), where=gap > 0.0)
    if a.ndim == 2:
        gap, tau = float(gap), float(tau)
    return SpectralData(eigenvalues=w, eigenvectors=_fix_phases(v), gap=gap, tau=tau)


def unitary_step(h: np.ndarray, delta: float) -> np.ndarray:
    """exp(-i * delta * h) for Hermitian h, or for each matrix of a stack
    (N, n, n), via eigendecomposition."""
    if not math.isfinite(delta):
        raise ValueError(f"time step must be finite, got {delta}")
    sd = hermitian_eig(h)
    phases = np.exp(-1j * delta * sd.eigenvalues)
    v = sd.eigenvectors
    return (v * phases[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)
