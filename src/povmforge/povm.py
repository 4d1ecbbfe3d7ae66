"""POVMs, Born-rule statistics and exact distance between measurements.

A POVM is stored as one complex (k, n, n) array of its k effects, so the
Born rule, distances and norm bounds act on the whole stack at once.
Distances pair outcomes by index; there is no relabeling optimization.
"""

from functools import cached_property

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
    """Validate ‖U†U − I‖₂ ≤ UNITARY_TOL and return U as a complex ndarray.

    The one-matrix case of :func:`check_unitaries`.
    """
    return check_unitaries(as_matrix(u)[None])[0]


def check_unitaries(us):
    """Validate a (d, n, n) stack of unitaries and return it as a complex ndarray.

    The Frobenius norm of the stacked residual U†U − I bounds every matrix's,
    so one norm within UNITARY_TOL clears the whole stack. Otherwise each
    matrix is judged by its own residual's ‖·‖₂ (:func:`_residual_norm`).
    """
    a = np.asarray(us, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[1] == 0:
        raise ValueError("unitary must be a nonempty square matrix")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    d, n, _ = a.shape
    residual = a.conj().transpose(0, 2, 1) @ a
    residual.reshape(d, n * n)[:, :: n + 1] -= 1.0
    if not np.linalg.norm(residual) <= UNITARY_TOL:
        for k in range(d):
            dev = _residual_norm(residual[k], UNITARY_TOL)
            if not dev <= UNITARY_TOL:  # NaN, from an overflowed residual, is refused
                raise ValueError(
                    f"matrix is not unitary: ‖U†U−I‖ = {dev:.3e} > {UNITARY_TOL:.0e}"
                )
    return a


class Povm:
    """Positive operator-valued measure on a finite dimension.

    `effects` is a complex (k, n, n) array, effect i at `effects[i]`.
    `Povm(effects)` validates outside input: each effect is checked Hermitian
    (1e-10 max-entry) and symmetrized into the stack, which is then checked
    for completeness (sum to I within 1e-9 in operator norm) and positivity
    (min eigenvalue >= -1e-9). `_set(stack)` stores, uncopied and after the
    completeness check alone, a stack the package built from a checked factor
    (an isometry detector's joint, the controlled-unitary joint and its branch).
    """

    def __init__(self, effects):
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
        self._set(stack)
        low = np.linalg.eigvalsh(stack)[:, 0].min()
        if low < -PSD_TOL:
            raise ValueError(f"effect has negative eigenvalue {low:.3e}")

    def _set(self, stack):
        """Check that a complex (k, n, n) stack sums to I, and store it uncopied."""
        dim = stack.shape[1]
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
    """Density matrix: Hermitian, positive semidefinite, unit trace.

    A :func:`pure_state` holds its unit `vector` and forms `matrix` on first
    access; other states have `vector` None.
    """

    vector = None

    def __init__(self, matrix):
        m = check_hermitian(matrix)
        low = np.linalg.eigvalsh(m)[0]
        if low < -PSD_TOL:
            raise ValueError(f"state has negative eigenvalue {low:.3e}")
        tr = np.trace(m).real
        if abs(tr - 1.0) > SUM_TOL:
            raise ValueError(f"state trace is {tr}, expected 1")
        self.dim = m.shape[0]
        self.matrix = m

    @cached_property
    def matrix(self):
        return np.einsum("i,j->ij", self.vector, self.vector.conj())

    def __repr__(self):
        return f"DensityState(dim={self.dim})"


def _unit_vector(vector):
    """`vector` as a complex unit vector; refuses non-1-d, non-finite or zero input."""
    v = np.asarray(vector, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got ndim={v.ndim}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    parts = np.ascontiguousarray(v).view(float)
    top = np.abs(parts).max(initial=0.0)
    if top == 0:
        raise ValueError("cannot normalize the zero vector")
    # An exact power-of-two scale puts the largest part in [1/2, 1): no over- or underflow.
    v = np.ldexp(parts, -np.frexp(top)[1]).view(complex)
    return v / np.linalg.norm(v)


def pure_state(vector):
    """Rank-1 density matrix |v⟩⟨v| of a one-dimensional vector, normalized.

    The state holds the unit vector v, which the sparse-row program map of
    an `IsometryDetector` reads. Its `matrix` |v⟩⟨v| is formed on first
    access, PSD by construction, and Hermitian bit for bit, as einsum forms
    the products without fused multiply-add: neither the eigensolve nor the
    hermiticity pass of DensityState runs.
    """
    v = _unit_vector(vector)
    state = DensityState.__new__(DensityState)
    state.dim, state.vector = len(v), v
    return state


def maximally_mixed(n):
    if n < 1:
        raise ValueError("dimension must be positive")
    return DensityState(np.eye(n) / n)


def born_probabilities(rho, p):
    """Outcome probabilities Re Tr[ρ P_i]."""
    if rho.dim != p.dim:
        raise ValueError(f"state dim {rho.dim} does not match POVM dim {p.dim}")
    return np.einsum("ij,kji->k", rho.matrix, p.effects).real.tolist()


def _controlled_observable(ws):
    """Joint POVM F_i = Σ_k W_k†|i⟩⟨i|W_k ⊗ |k⟩⟨k| of d unitaries, as (n, nd, nd).

    Each block is an outer product of rows of a unitary that
    :func:`check_unitaries` accepted, so F is positive, and Hermitian bit for
    bit (entry (b, a) is the exact conjugate of conj(w_ia)·w_ib). Its
    completeness check is the per-block one: the off-diagonal blocks are exact zeros, so the residual
    is the direct sum of the block residuals and its ‖·‖₂ the largest block's.
    """
    ws = [np.asarray(w, dtype=complex) for w in ws]
    if not ws:
        raise ValueError("need at least one unitary")
    if len({w.shape for w in ws}) > 1:
        raise ValueError("all unitaries must share one dimension")
    ws = check_unitaries(np.array(ws))
    d, n, _ = ws.shape
    joint = np.zeros((n, n, d, n, d), dtype=complex)
    ks = np.arange(d)
    joint[:, :, ks, :, ks] = np.einsum("kia,kib->kiab", ws.conj(), ws)
    return Povm.__new__(Povm)._set(joint.reshape(n, n * d, n * d))


def observable_from_unitary(w):
    """Rank-1 projector POVM with effects W†|i⟩⟨i|W.

    As W ranges over U(n) these cover every orthonormal measurement basis:
    the basis B's observable W†|b_i⟩⟨b_i|W is that of B†W. It is the
    one-branch controlled-unitary joint: each effect is an outer product,
    Hermitian and PSD by construction, so only completeness is checked on
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
        # + 0.0 turns a zero spectrum's −0.0 score into +0.0 and moves no other bit.
        score = np.maximum(vals[..., -1], -vals[..., 0]) + 0.0
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
