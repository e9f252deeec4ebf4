"""Independent numerical oracles used to freeze expected values.

These deliberately avoid the package's own linear algebra: eigenvalues of
real symmetric 3x3 matrices come from the trigonometric solution of the
characteristic cubic, eigenvectors from row cross products, Hermitian
eigensystems of dimension 2..4 from a cyclic complex Jacobi iteration that
does not use LAPACK, and matrix exponentials from a plain Taylor series.
The effective two-level relaxation time is the closed form of the
Landau-Zener reduction.
"""
import math

import numpy as np

# off-diagonal Frobenius norm at which the Jacobi iteration stops
JACOBI_TOL = 1e-14
JACOBI_MAX_SWEEPS = 60


def cardano_eigvals3(m: np.ndarray) -> np.ndarray:
    """Eigenvalues (ascending) of a real symmetric 3x3 matrix.

    Trigonometric solution of the characteristic polynomial; exact up to
    floating point for the well-conditioned matrices used in tests.
    """
    a = np.asarray(m, dtype=float)
    assert a.shape == (3, 3)
    q = np.trace(a) / 3.0
    b = a - q * np.eye(3)
    p2 = np.sum(b * b) / 6.0
    p = math.sqrt(p2)
    if p == 0.0:
        return np.full(3, q)
    c = b / p
    det = (c[0, 0] * (c[1, 1] * c[2, 2] - c[1, 2] * c[2, 1])
           - c[0, 1] * (c[1, 0] * c[2, 2] - c[1, 2] * c[2, 0])
           + c[0, 2] * (c[1, 0] * c[2, 1] - c[1, 1] * c[2, 0]))
    r = det / 2.0
    r = min(1.0, max(-1.0, r))
    phi = math.acos(r) / 3.0
    e1 = q + 2.0 * p * math.cos(phi)
    e3 = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    e2 = 3.0 * q - e1 - e3
    return np.sort(np.array([e1, e2, e3]))


def cardano_eigvec3(m: np.ndarray, lam: float) -> np.ndarray:
    """Unit eigenvector of a real symmetric 3x3 for a simple eigenvalue,
    from the cross product of two rows of (m - lam I)."""
    a = np.asarray(m, dtype=float) - lam * np.eye(3)
    candidates = [np.cross(a[i], a[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
    v = max(candidates, key=lambda c: float(np.dot(c, c)))
    n = math.sqrt(float(np.dot(v, v)))
    assert n > 0
    return v / n


def series_expm_minus_i(h: np.ndarray, delta: float, terms: int = 30) -> np.ndarray:
    """Taylor series for exp(-i*delta*h), summed to ``terms`` orders."""
    a = np.asarray(h, dtype=complex) * (-1j * delta)
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for n in range(1, terms + 1):
        term = term @ a / n
        out = out + term
    return out


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    m = rng.normal(size=(dim, dim), scale=scale) + 1j * rng.normal(size=(dim, dim), scale=scale)
    return (m + m.conj().T) / 2.0


def jacobi(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi on a Hermitian matrix, in numpy's complex scalars.

    Returns the eigenvalues (unsorted) and the accumulated unitary V, whose
    columns are the eigenvectors.  Raises ArithmeticError when the
    off-diagonal norm is still above JACOBI_TOL after JACOBI_MAX_SWEEPS
    sweeps.
    """
    a = [list(row) for row in m]
    n = len(a)
    v = [[1.0 + 0j if i == j else 0.0 + 0j for j in range(n)] for i in range(n)]
    tol2 = JACOBI_TOL * JACOBI_TOL
    for _ in range(JACOBI_MAX_SWEEPS):
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
        raise ArithmeticError(
            f"Jacobi iteration on a {n}x{n} matrix did not converge in"
            f" {JACOBI_MAX_SWEEPS} sweeps")
    return np.array([a[i][i].real for i in range(n)]), np.array(v)


def effective_relaxation_time(bx: float, bz: float) -> float:
    """Relaxation time of the two-level reduction, tau0 / sqrt(1 + eps^2)
    with eps = |bz + 1| / (sqrt(2) bx) and tau0 = 1 / (2 sqrt(2) bx)."""
    assert bx > 0, "effective model needs bx > 0"
    eps = abs(bz + 1.0) / (math.sqrt(2) * bx)
    tau0 = 1.0 / (2.0 * math.sqrt(2) * bx)
    return tau0 / math.sqrt(1.0 + eps * eps)
