"""Independent numerical oracles used to freeze expected values.

These deliberately avoid the package's own linear algebra: eigenvalues of
real symmetric 3x3 matrices come from the trigonometric solution of the
characteristic cubic, eigenvectors from row cross products, Hermitian
eigensystems of dimension 2..4 from a cyclic complex Jacobi iteration that
does not use LAPACK, and matrix exponentials from a plain Taylor series.
The effective two-level relaxation time is the closed form of the
Landau-Zener reduction.  The freeze-out instant is found by plain bisection
of tau(t) = alpha t, and a pulse schedule is simulated entry by entry from
explicit 2x2 rotations and Kronecker products.  The eigenpair ordering and
phasing rules of ``kzsim.smallmat`` are kept here in their first, plainer
form (``lexsort`` and ``take_along_axis``), to which the package's must
stay equal bit for bit.
"""
import math

import numpy as np

from kzsim.smallmat import DEGENERACY_TOL

# off-diagonal Frobenius norm at which the Jacobi iteration stops
JACOBI_TOL = 1e-14
JACOBI_MAX_SWEEPS = 60

# the singlet (|01> - |10>)/sqrt(2), which every Hamiltonian of the model
# leaves uncoupled from the triplet
PHI_MINUS = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)


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


def freeze_out_bisection(p) -> tuple[float, float]:
    """Root (t_hat, eps_hat) of tau_0/sqrt(1+(t/tau_q)^2) = alpha*t for a
    KzmParams ``p``, by plain bisection."""

    def f(t: float) -> float:
        return p.tau_0 / math.sqrt(1.0 + (t / p.tau_q) ** 2) - p.alpha * t

    lo = 0.0
    hi = 10.0 * p.tau_0 / p.alpha
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    t_hat = 0.5 * (lo + hi)
    return t_hat, t_hat / p.tau_q


def rx(flip: float) -> np.ndarray:
    """One-spin pulse exp(-i flip/2 sigma_x)."""
    c, s = math.cos(flip / 2), math.sin(flip / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ry(flip: float) -> np.ndarray:
    """One-spin pulse exp(-i flip/2 sigma_y)."""
    c, s = math.cos(flip / 2), math.sin(flip / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def simulate_entries(entries, j_hz: float) -> np.ndarray:
    """Unitary realized by a run of pulse/offset/delay schedule entries.

    Delays evolve under pi*nu*(sz1+sz2) + (pi*J/2)*sz1*sz2 at the current
    offset nu; pulses are instantaneous rotations of spin 1 or 2.  Crush
    markers raise ValueError (they are not unitary).
    """
    u = np.eye(4, dtype=complex)
    nu = 0.0
    ident = np.eye(2, dtype=complex)
    zsum = np.array([2.0, 0.0, 0.0, -2.0])
    zz = np.array([1.0, -1.0, -1.0, 1.0])
    for e in entries:
        if e[0] == "offset":
            nu = e[1]
        elif e[0] == "pulse":
            rot = {"x": rx, "y": ry}[e[2]](e[3])
            u = (np.kron(rot, ident) if e[1] == 1 else np.kron(ident, rot)) @ u
        elif e[0] == "delay":
            phases = math.pi * nu * zsum + (math.pi * j_hz / 2.0) * zz
            u = np.diag(np.exp(-1j * e[1] * phases)) @ u
        elif e[0] == "crush":
            raise ValueError("crush is not unitary; simulate blocks around it")
        else:
            raise ValueError(f"unknown schedule entry {e!r}")
    return u


def lexsort_order(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigenpairs of ``np.linalg.eigh`` (w ascending on the last axis,
    v by columns; either may be a stack), sorted inside each cluster of
    eigenvalues closer than DEGENERACY_TOL x max(1, max|w|) by the basis
    index of each vector's largest component, ties kept in eigh's order."""
    scale = np.maximum(1.0, np.maximum(-w[..., :1], w[..., -1:]))
    breaks = np.diff(w, axis=-1) > DEGENERACY_TOL * scale
    if breaks.all():
        return w, v
    cluster = np.cumsum(np.concatenate([np.zeros_like(breaks[..., :1]), breaks], axis=-1), axis=-1)
    order = np.lexsort((np.argmax(np.abs(v), axis=-2), cluster), axis=-1)
    return (np.take_along_axis(w, order, axis=-1),
            np.take_along_axis(v, order[..., None, :], axis=-1))


def lead_phases(v: np.ndarray) -> np.ndarray:
    """The columns of v (or of each matrix of a stack) rephased so that each
    one's largest-magnitude component is real and positive."""
    row = np.argmax(np.abs(v), axis=-2)[..., None, :]
    ref = np.take_along_axis(v, row, axis=-2)
    return v * (ref.conj() / np.abs(ref))
