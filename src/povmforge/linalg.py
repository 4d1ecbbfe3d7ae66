"""Dense complex linear algebra primitives.

Tensor ordering is system-major throughout the package: the first factor
of a Kronecker product indexes the system, the second the ancilla.
`tensor` and `partial_trace_ancilla` are the dense reference for the
program map: the package programs detectors by one contraction instead, and
the tests compare that contraction against these two.
"""

import numpy as np

HERM_TOL = 1e-10


class CapacityError(ValueError):
    """Raised when an input exceeds a documented size cap."""


class Rng:
    """Seeded random stream.

    Wraps numpy's Generator so every experiment is replayable from a single
    integer. Instances are single-owner; use :meth:`child` to derive
    independent streams for parallel or per-row work instead of sharing one.
    """

    def __init__(self, seed):
        self.seed = int(seed)
        if self.seed < 0 or self.seed >= 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")
        self.generator = np.random.default_rng(self.seed)

    def child(self, index):
        """Deterministic sub-stream, distinct per index."""
        child_seed = np.random.SeedSequence([self.seed, int(index)])
        return Rng(child_seed.generate_state(1, dtype=np.uint64)[0])

    def __repr__(self):
        return f"Rng(seed={self.seed})"


def as_matrix(m):
    """Coerce to a 2-d complex ndarray, rejecting NaN/Inf entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def tensor(a, b):
    """Kronecker product, system factor first."""
    return np.kron(as_matrix(a), as_matrix(b))


def partial_trace_ancilla(m, n, d):
    """Trace out the second (ancilla) factor of an (n*d) x (n*d) matrix.

    out[i, j] = sum_a m[i*d + a, j*d + a]
    """
    a = as_matrix(m)
    if a.shape != (n * d, n * d):
        raise ValueError(f"expected shape {(n * d, n * d)}, got {a.shape}")
    return np.einsum("iaja->ij", a.reshape(n, d, n, d))


def check_hermitian(m):
    """Validate hermiticity within HERM_TOL (max-entry) and return (m+m†)/2.

    Symmetrizing keeps downstream eigensolves and positivity checks stable
    when the input carries roundoff from matrix products.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError("hermitian check requires a square matrix")
    dev = np.abs(a - a.conj().T).max() if a.size else 0.0
    if dev > HERM_TOL:
        raise ValueError(f"matrix is not hermitian: max deviation {dev:.3e} > {HERM_TOL:.0e}")
    return (a + a.conj().T) / 2


def herm_eigs(m):
    """Ascending real eigenvalues of a Hermitian matrix."""
    return np.linalg.eigvalsh(check_hermitian(m))


def herm_eigh(m):
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix."""
    return np.linalg.eigh(check_hermitian(m))


def op_norm(m):
    """Largest singular value."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError("operator norm defined here for square matrices only")
    return float(np.linalg.norm(a, 2))


def fro_norm(m):
    """Frobenius norm, sqrt(Tr[m† m])."""
    return float(np.linalg.norm(as_matrix(m)))


def haar_unitary(n, rng):
    """Haar-distributed n x n unitary.

    QR of a complex Ginibre matrix with the diagonal of R phase-fixed; this
    is exactly Haar, not just approximately (Mezzadri's construction).
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    g = rng.generator
    z = (g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases
