"""POVMs, Born-rule statistics and exact distance between measurements.

A POVM is stored as one complex (k, n, n) array of its k effects, so the
Born rule, distances and norm bounds act on the whole stack at once.
Distances pair outcomes by index; there is no relabeling optimization.
"""

import numpy as np

from .linalg import CapacityError, as_matrix, check_hermitian, op_norm

PSD_TOL = 1e-9
SUM_TOL = 1e-9
UNITARY_TOL = 1e-10

SIGN_ENUM_CAP = 20
# Matrix entries held per block of signed sums in the sign enumeration: the
# block takes max(1, SIGN_BLOCK_ENTRIES // (m·n²)) sign vectors at a time for
# m difference stacks on dimension n (512 at m = 1, n = 4).
SIGN_BLOCK_ENTRIES = 8192


def _residual_norm(residual, tol):
    # ‖A‖₂ of a Hermitian residual A, or ‖A‖_F ≥ ‖A‖₂ when that is within tol:
    # the cheap Frobenius norm settles most residuals with no eigensolve.
    fro = np.linalg.norm(residual)
    return fro if fro <= tol else np.abs(np.linalg.eigvalsh(residual)).max()


def check_unitary(u):
    """Validate ‖U†U − I‖₂ ≤ UNITARY_TOL and return U as a complex ndarray."""
    a = as_matrix(u)
    if a.shape[0] != a.shape[1]:
        raise ValueError("unitary must be square")
    dev = _residual_norm(a.conj().T @ a - np.eye(a.shape[0]), UNITARY_TOL)
    if dev > UNITARY_TOL:
        raise ValueError(f"matrix is not unitary: ‖U†U−I‖ = {dev:.3e} > {UNITARY_TOL:.0e}")
    return a


class Povm:
    """Positive operator-valued measure on a finite dimension.

    `effects` is a complex (k, n, n) array, effect i at `effects[i]`.
    Validates hermiticity (1e-10 max-entry), positivity (min eigenvalue
    >= -1e-9, tolerating roundoff from constructions) and completeness
    (effects sum to the identity within 1e-9 in operator norm).

    Projective POVMs built from a factor (:func:`projector_pair` from an
    isometry; the controlled-unitary joint, built once from its unitaries,
    and its one-branch case :func:`observable_from_unitary`) check that
    factor instead of running the positivity eigensolve on the effects;
    hermiticity and completeness are checked all the same.
    """

    def __init__(self, effects):
        self._set(effects)
        low = np.linalg.eigvalsh(self.effects)[:, 0].min()
        if low < -PSD_TOL:
            raise ValueError(f"effect has negative eigenvalue {low:.3e}")

    def _set(self, effects):
        """Stack and hermitize `effects`, check completeness, and store them."""
        effects = list(effects)
        if not effects:
            raise ValueError("a POVM needs at least one effect")
        dim = as_matrix(effects[0]).shape[0]
        # Each effect is hermitized straight into the preallocated stack, so
        # no second stack-sized copy is ever held.
        stack = np.empty((len(effects), dim, dim), dtype=complex)
        for k, e in enumerate(effects):
            e = check_hermitian(e)
            if e.shape != (dim, dim):
                raise ValueError("all effects must share one dimension")
            stack[k] = e
        total = stack.sum(axis=0)
        total[np.diag_indices(dim)] -= 1.0
        dev = _residual_norm(total, SUM_TOL)
        if dev > SUM_TOL:
            raise ValueError(f"effects do not sum to identity: deviation {dev:.3e}")
        self.dim = dim
        self.effects = stack
        return self

    def __len__(self):
        return len(self.effects)

    def __iter__(self):
        return iter(self.effects)

    def __repr__(self):
        return f"Povm(dim={self.dim}, outcomes={len(self.effects)})"


class DensityState:
    """Density matrix: Hermitian, positive semidefinite, unit trace."""

    def __init__(self, matrix):
        m = check_hermitian(matrix)
        low = np.linalg.eigvalsh(m)[0]
        if low < -PSD_TOL:
            raise ValueError(f"state has negative eigenvalue {low:.3e}")
        self._set(m)

    def _set(self, m):
        """Check the unit trace of a Hermitian PSD `m` and store it."""
        tr = np.trace(m).real
        if abs(tr - 1.0) > SUM_TOL:
            raise ValueError(f"state trace is {tr}, expected 1")
        self.dim = m.shape[0]
        self.matrix = m
        return self

    def __repr__(self):
        return f"DensityState(dim={self.dim})"


def pure_state(vector):
    """Rank-1 density matrix |v⟩⟨v| from a (normalized) vector."""
    v = np.asarray(vector, dtype=complex).reshape(-1)
    nrm = np.linalg.norm(v)
    if nrm == 0:
        raise ValueError("cannot normalize the zero vector")
    v = v / nrm
    # |v⟩⟨v| of a unit vector is PSD by construction, so the full eigvalsh
    # that DensityState runs is skipped; hermiticity and trace are checked.
    state = DensityState.__new__(DensityState)
    return state._set(check_hermitian(np.outer(v, v.conj())))


def maximally_mixed(n):
    return DensityState(np.eye(n) / n)


def born_probabilities(rho, p):
    """Outcome probabilities Re Tr[ρ P_i]."""
    if rho.dim != p.dim:
        raise ValueError(f"state dim {rho.dim} does not match POVM dim {p.dim}")
    return np.einsum("ij,kji->k", rho.matrix, p.effects).real.tolist()


def projector_pair(v):
    """Two-outcome POVM {VV†, I − VV†} of an isometry V with orthonormal columns.

    Positivity is certified from the small Gram matrix instead of the
    effects: eig(VV†) = eig(V†V) ∪ {0} and eig(I − VV†) = 1 − eig(V†V) ∪ {1},
    so every eigenvalue of V†V within PSD_TOL of 1 bounds both effects'
    eigenvalues below by −PSD_TOL. Otherwise raises ValueError.
    """
    v = np.asarray(v)
    if v.ndim != 2 or not np.isfinite(v).all():
        raise ValueError("isometry must be a finite matrix")
    # For a real V, V.conj() is V itself: no complex copy is made, and V @ V.T
    # is bit for bit the symmetric projector a caller forms from the same V.
    vh = v.conj().T
    dev = np.abs(np.linalg.eigvalsh(vh @ v) - 1.0).max(initial=0.0)
    if dev > PSD_TOL:
        raise ValueError(f"columns are not orthonormal: Gram eigenvalue off 1 by {dev:.3e}")
    z = v @ vh
    return Povm.__new__(Povm)._set([z, np.eye(z.shape[0]) - z])


def _controlled_observable(ws):
    """Joint POVM F_i = Σ_k W_k†|i⟩⟨i|W_k ⊗ |k⟩⟨k| of d unitaries, as (n, nd, nd).

    Each block is an outer product of rows of a unitary that check_unitary
    accepted, so F is positive by construction. Its hermiticity and
    completeness checks are exactly the per-block ones: the blocks off the
    diagonal are exact zeros, so the completeness residual is the direct sum
    of the block residuals and its ‖·‖₂ is the largest block's.
    """
    ws = [check_unitary(w) for w in ws]
    if not ws:
        raise ValueError("need at least one unitary")
    n = ws[0].shape[0]
    if any(w.shape != (n, n) for w in ws):
        raise ValueError("all unitaries must share one dimension")
    ws = np.stack(ws)
    d = len(ws)
    joint = np.zeros((n, n, d, n, d), dtype=complex)
    ks = np.arange(d)
    joint[:, :, ks, :, ks] = np.einsum("kia,kib->kiab", ws.conj(), ws)
    return Povm.__new__(Povm)._set(joint.reshape(n, n * d, n * d))


def observable_from_unitary(w):
    """Rank-1 projector POVM with effects W†|i⟩⟨i|W.

    As W ranges over U(n) these cover every orthonormal measurement basis:
    the basis B's observable W†|b_i⟩⟨b_i|W is that of B†W. It is the
    one-branch controlled-unitary joint: each effect is an outer product,
    PSD by construction, so only hermiticity and completeness are checked on
    the effects.
    """
    return _controlled_observable([w])


def _check_comparable(p, q):
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    if len(p.effects) != len(q.effects):
        raise ValueError("POVMs must have the same number of outcomes")


def check_enumerable(p, q):
    """Check that :func:`povm_distance` accepts the pair; return the outcome count."""
    _check_comparable(p, q)
    k = len(p.effects)
    if k > SIGN_ENUM_CAP:
        raise CapacityError(
            f"{k} outcomes exceeds the sign-enumeration cap of {SIGN_ENUM_CAP}; "
            "use distance_bounds for an upper bound"
        )
    return k


def _signed_extremes(deltas):
    """max over sign vectors of ‖Σ_i s_i Δ_i‖, for an (m, k, n, n) stack.

    Returns, per stack, the largest |eigenvalue| over s ∈ {±1}^k with
    s_0 = +1, and the first signed sum that attains it. Sign tails follow
    ``itertools.product((1, -1), repeat=k - 1)``, a block at a time: one
    matrix product forms the block's signed sums and one batched eigvalsh
    scores them. A block holds at most max(SIGN_BLOCK_ENTRIES, m·n²) entries.
    """
    m, k, n, _ = deltas.shape
    # Real and imaginary parts side by side, so the signed sums are one real
    # matrix product; the result views back as complex.
    flat = np.ascontiguousarray(deltas).view(float).reshape(m, k, 2 * n * n)
    count = 1 << (k - 1)
    rows = min(count, max(1, SIGN_BLOCK_ENTRIES // (m * n * n)))
    shifts = np.arange(k - 2, -1, -1)
    best = np.full(m, -np.inf)
    winner = np.empty((m, n, n), dtype=complex)
    for start in range(0, count, rows):
        index = np.arange(start, min(start + rows, count))
        signs = np.ones((len(index), k))
        signs[:, 1:] -= 2 * ((index[:, None] >> shifts) & 1)
        sums = (signs @ flat).view(complex).reshape(m, len(index), n, n)
        vals = np.linalg.eigvalsh(sums)
        score = np.maximum(vals[..., -1], -vals[..., 0])
        top = score.argmax(axis=1)
        value = score[np.arange(m), top]
        better = value > best
        best[better] = value[better]
        winner[better] = sums[better, top[better]]
    return best, winner


def povm_distance(p, q, return_witness=False):
    """Exact measurement distance max_ρ Σ_i |Tr[ρ (P_i − Q_i)]|.

    The sum of absolute values equals the maximum over sign vectors
    s ∈ {±1}^k of Tr[ρ Σ_i s_i Δ_i], and maximizing a Hermitian expectation
    over states lands on the top eigenvector. Enumerating sign vectors is
    exact; the global ± symmetry halves the enumeration to 2^(k−1). They are
    scored in blocks of at most max(SIGN_BLOCK_ENTRIES, n²) matrix entries
    (512 signed sums at n = 4), one matrix product and one batched eigvalsh
    per block, so memory does not grow with k. Capped at 20 outcomes; beyond
    that use :func:`distance_bounds`.

    With `return_witness` the maximizing pure state is returned alongside,
    from one eigh of the winning signed sum.
    """
    check_enumerable(p, q)
    best, winner = _signed_extremes((p.effects - q.effects)[None])
    if not return_witness:
        return float(best[0])
    vals, vecs = np.linalg.eigh(winner[0])
    vec = vecs[:, -1] if vals[-1] >= -vals[0] else vecs[:, 0]
    return float(best[0]), pure_state(vec)


def two_outcome_distance(p, q):
    """Closed form 2‖P₀ − Q₀‖ for two-outcome POVMs.

    Valid because Δ₁ = −Δ₀ when both POVMs are complete, so the signed sum
    is ±2Δ₀ and the distance is twice the largest absolute eigenvalue.
    """
    _check_comparable(p, q)
    if len(p.effects) != 2:
        raise ValueError("two_outcome_distance requires exactly 2 outcomes")
    return 2.0 * op_norm(p.effects[0] - q.effects[0])


def distance_bounds(p, q):
    """Upper bounds (Σ_i ‖Δ_i‖, Σ_i ‖Δ_i‖₂) on the measurement distance."""
    _check_comparable(p, q)
    deltas = p.effects - q.effects
    sum_op = np.linalg.norm(deltas, 2, axis=(1, 2)).sum()
    sum_fro = np.linalg.norm(deltas, axis=(1, 2)).sum()
    return float(sum_op), float(sum_fro)
