"""Dense complex linear algebra primitives.

Tensor ordering is system-major throughout the package: the first factor
of a Kronecker product indexes the system, the second the ancilla.
`tensor` and `partial_trace_ancilla` are the dense reference for the
program map. The package never forms I ⊗ σ: it contracts σ with a dense
joint, maps σ through the sparse rows of an isometry detector, or weighs a
controlled-unitary detector's branch unitaries by σ's diagonal, and the
tests compare each path against these two.
"""

import numbers
import operator

import numpy as np

HERM_TOL = 1e-10


class CapacityError(ValueError):
    """Raised when an input exceeds a documented size cap."""


class Rng:
    """Seeded random stream.

    Wraps numpy's Generator so every experiment is replayable from a single
    integer in [0, 2^64); floats, strings and bools are refused. Instances
    are single-owner; use :meth:`child` to derive independent streams for
    parallel or per-row work instead of sharing one.
    """

    def __init__(self, seed):
        self.seed = as_seed(seed)
        self.generator = np.random.default_rng(self.seed)

    def child(self, index):
        """Deterministic sub-stream, distinct per integer index."""
        child_seed = np.random.SeedSequence([self.seed, as_int(index, "index")])
        return Rng(child_seed.generate_state(1, dtype=np.uint64)[0])

    def __repr__(self):
        return f"Rng(seed={self.seed})"


def as_int(value, name):
    """`value` as an int, refusing bools, NaN, floats and other non-integers."""
    # operator.index takes True as 1: a flag is not a size, a count or a seed.
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def as_seed(value):
    """`value` as a seed: an integer in [0, 2^64), as :func:`as_int` reads it."""
    seed = as_int(value, "seed")
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed must fit in 64 unsigned bits")
    return seed


def as_real(value):
    """`value` as a float if it is a Python or numpy real, else NaN.

    A real is a `numbers.Real` other than a bool. A bool (np.True_ too), a
    string, None, a complex or an int past the largest double reads as NaN,
    which each caller's finiteness check then refuses.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    return np.nan


def as_array(value, ndim):
    """`value` as a complex ndarray with `ndim` (1, 2 or 3) axes and finite entries.

    The one parse of array input: it reads entries that numpy stores as bool, integer,
    float or complex. Strings (numeric ones too), None, dicts and other objects, ints
    past 64 bits, ragged lists, another number of axes, NaN and Inf raise ValueError.
    """
    a = _as_complex(value, ndim)
    if not np.isfinite(a).all():
        raise ValueError("array entries must be finite")
    return a


def _as_complex(value, ndim):
    # as_array without its finiteness pass, for checks that fold it into their own.
    a = np.asarray(value)  # a ragged list raises ValueError here
    if a.dtype.kind not in "biufc":
        raise ValueError(f"array entries must be numbers, got dtype {a.dtype}")
    if a.ndim != ndim:
        shape = {1: "a vector", 2: "a matrix", 3: "a stack of nonempty square matrices"}[ndim]
        raise ValueError(f"expected {shape}, got ndim={a.ndim}")
    return np.asarray(a, dtype=complex)


def as_matrix(m):
    """`m` as a finite complex 2-d ndarray, as :func:`as_array` reads it."""
    return as_array(m, 2)


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

    The one-matrix case of :func:`check_hermitians`. Symmetrizing keeps
    downstream eigensolves and positivity checks stable when the input carries
    roundoff from matrix products.
    """
    return check_hermitians(as_matrix(m)[None])[0]


def check_hermitians(ms, out=None):
    """Validate a (k, n, n) stack's hermiticity and return (m+m†)/2 of each matrix.

    Each matrix is judged as :func:`check_hermitian` judges it, finiteness
    first, and the first one that fails raises with its own max-entry
    deviation. The result is written to `out` when given, a complex (k, n, n)
    array; the only temporaries are m − m† and its absolute values, so none is
    larger than the stack.
    """
    a = _as_complex(ms, 3)
    if a.shape[1] != a.shape[2] or a.shape[1] == 0:
        raise ValueError("hermitian check requires a nonempty square matrix")
    h = np.conjugate(a.transpose(0, 2, 1), out=out)
    # A NaN or Inf entry makes its matrix's deviation NaN or Inf (Inf − Inf
    # quietly), so one comparison clears finiteness and hermiticity together.
    with np.errstate(invalid="ignore"):
        dev = np.abs(a - h).max(axis=(1, 2))
    bad = ~(dev <= HERM_TOL)
    if bad.any():
        i = bad.argmax()
        if not np.isfinite(a[i]).all():
            raise ValueError("array entries must be finite")
        raise ValueError(f"matrix is not hermitian: max deviation {dev[i]:.3e} > {HERM_TOL:.0e}")
    h += a
    h /= 2
    return h


def herm_eigs(m):
    """Ascending real eigenvalues of a Hermitian matrix."""
    return np.linalg.eigvalsh(check_hermitian(m))


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
    """Haar-distributed n x n unitary: the one-draw case of :func:`haar_unitaries`."""
    return haar_unitaries(n, 1, rng)[0]


def haar_unitaries(n, count, rng):
    """`count` Haar-distributed n x n unitaries, as a (count, n, n) stack.

    QR of complex Ginibre matrices with the diagonal of R phase-fixed; this
    is exactly Haar, not just approximately (Mezzadri's construction). One
    (count, 2, n, n) normal block holds the real and imaginary parts in the
    order `count` single draws take them, and the stacked QR factors each
    matrix alone, so the stack and the generator's final state are bit for
    bit those of `count` one-draw calls.
    """
    if as_int(n, "dimension") < 1:
        raise ValueError("dimension must be positive")
    if as_int(count, "count") < 0:
        raise ValueError("count must be nonnegative")
    parts = rng.generator.standard_normal((count, 2, n, n))
    z = (parts[:, 0] + 1j * parts[:, 1]) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r, axis1=1, axis2=2).copy()
    phases /= np.abs(phases)
    return q * phases[:, None, :]
