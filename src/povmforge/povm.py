"""POVMs, Born-rule statistics and exact distance between measurements.

A POVM is stored as one complex (k, n, n) array of its k effects, so the
Born rule, distances and norm bounds act on the whole stack at once.
Distances pair outcomes by index; there is no relabeling optimization.
"""

from functools import cached_property

import numpy as np

from .linalg import (
    CapacityError,
    _as_complex,
    as_array,
    as_int,
    as_matrix,
    check_hermitian,
    check_hermitians,
    op_norm,
)

PSD_TOL = 1e-9
SUM_TOL = 1e-9
UNITARY_TOL = 1e-10

SIGN_ENUM_CAP = 20
# Matrix entries per block of signed sums in the sign enumeration. Stacks
# whose whole enumerations fit one block share it; a longer enumeration runs
# alone, on blocks of the largest power of two of sign vectors within
# max(1, SIGN_BLOCK_ENTRIES // n²) (512 at n = 4), bounding its sums in chunks
# of as many floats and eigensolving only those that reach the floor and best.
SIGN_BLOCK_ENTRIES = 8192
# Matrix entries per group of effects that Povm checks and symmetrizes at once;
# an effect larger than that is a group of its own.
_HERM_GROUP_ENTRIES = 1 << 16


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
    """Validate a (d, n, n) stack of unitaries, read by `linalg.as_array`, and return it.

    The Frobenius norm of the stacked residual U†U − I bounds every matrix's,
    so one norm within UNITARY_TOL clears the whole stack. Otherwise each
    matrix is judged by its own residual's ‖·‖₂ (:func:`_residual_norm`).
    """
    a = as_array(us, 3)
    if a.shape[1] != a.shape[2] or a.shape[1] == 0:
        raise ValueError("unitary must be a nonempty square matrix")
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
    `Povm(effects)` validates outside input, read by `linalg.as_array`: the
    effects are checked Hermitian (1e-10 max-entry) and symmetrized into the stack
    a group at a time (:func:`check_hermitians`), with no temporary beyond one
    group, and the first bad effect raises its own error. The stack is then
    checked for completeness (sum to I within 1e-9 in operator norm) and
    positivity (min eigenvalue >= -1e-9). `_set(stack)` stores, uncopied and after
    the completeness check alone, a stack the package built from a checked factor
    (an isometry detector's joint, the controlled-unitary joint and its branch).
    """

    def __init__(self, effects):
        # A (k, n, n) array is sliced a group at a time; anything else is
        # taken as a sequence of effects.
        if not (isinstance(effects, np.ndarray) and effects.ndim == 3):
            effects = list(effects)
        if not len(effects):
            raise ValueError("a POVM needs at least one effect")
        dim = as_matrix(effects[0]).shape[0]
        stack = np.empty((len(effects), dim, dim), dtype=complex)
        step = max(1, _HERM_GROUP_ENTRIES // max(1, dim * dim))
        for lo in range(0, len(stack), step):
            group = effects[lo : lo + step]
            try:
                # One effect is viewed, not copied into a stack of one.
                a = _as_complex(group[0], 2)[None] if len(group) == 1 else _as_complex(group, 3)
            except ValueError:
                a = None
            if a is not None and a.shape[1:] == (dim, dim):
                check_hermitians(a, out=stack[lo : lo + step])
                continue
            # A group that does not stack into (dim, dim) effects is checked
            # one effect at a time, so its first bad effect raises.
            for k, e in enumerate(group, lo):
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
    """`vector` as a complex unit vector: `linalg.as_array`'s 1-d rule, nonzero."""
    v = as_array(vector, 1)
    parts = np.ascontiguousarray(v).view(float)
    top = np.abs(parts).max(initial=0.0)
    if top == 0:
        raise ValueError("cannot normalize the zero vector")
    # An exact power-of-two scale puts the largest part in [1/2, 1): no over- or underflow.
    v = np.ldexp(parts, -np.frexp(top)[1]).view(complex)
    return v / np.linalg.norm(v)


def pure_state(vector):
    """Rank-1 density matrix |v⟩⟨v| of a vector read by `linalg.as_array`, normalized.

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
    if as_int(n, "dimension") < 1:
        raise ValueError("dimension must be positive")
    return DensityState(np.eye(n) / n)


def born_probabilities(rho, p):
    """Outcome probabilities Re Tr[ρ P_i]."""
    if rho.dim != p.dim:
        raise ValueError(f"state dim {rho.dim} does not match POVM dim {p.dim}")
    return np.einsum("ij,kji->k", rho.matrix, p.effects).real.tolist()


def observable_from_unitary(w):
    """Rank-1 projector POVM with effects W†|i⟩⟨i|W.

    As W ranges over U(n) these cover every orthonormal measurement basis:
    the basis B's observable W†|b_i⟩⟨b_i|W is that of B†W. Each effect is
    an outer product of rows of a validated unitary, Hermitian bit for bit
    (entry (b, a) is the exact conjugate of conj(w_ia)·w_ib) and PSD, so
    only completeness is checked on the effects.
    """
    w = check_unitary(w)
    return Povm.__new__(Povm)._set(np.einsum("ia,ib->iab", w.conj(), w))


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


def _signs(index, k):
    # Sign vectors number `index` of the enumeration, as rows: s_0 = +1, and
    # the tails follow itertools.product((1, -1), repeat=k - 1).
    signs = np.ones((len(index), k))
    signs[:, 1:] -= 2 * ((index[:, None] >> np.arange(k - 2, -1, -1)) & 1)
    return signs


def _scores(sums):
    # ‖S‖₂ of each Hermitian S in a stack, from one batched eigvalsh; + 0.0 turns
    # a zero spectrum's −0.0 score into +0.0 and moves no other bit.
    vals = np.linalg.eigvalsh(sums)
    return np.maximum(vals[..., -1], -vals[..., 0]) + 0.0


def _floor(deltas):
    """Best Σ_i |⟨ψ|Δ_i|ψ⟩| of an ascent over states ψ of a (k, n, n) stack: ≤ δ.

    From each Δ_i's top eigenvector, set s_i = sign⟨ψ|Δ_i|ψ⟩ and move ψ to the
    top eigenvector of S = Σ_i s_i Δ_i, so Σ_i |⟨ψ|Δ_i|ψ⟩| ≥ ⟨ψ|S|ψ⟩ never falls.
    Stop when the best value stops rising; finitely many signs fix each ψ.
    Each step's k expectations and k signed sums are two real matrix
    products with the stack. The floor only decides which sign vectors are
    pruned, never the value returned.
    """
    k, n, _ = deltas.shape
    # Real and imaginary parts side by side: Re⟨ψ|Δ_i|ψ⟩ is the real dot
    # product of ψψ̄ᵀ with Δ_i, and both the expectations and the signed sums
    # are real matrix products with this (k, 2n²) view.
    flat = np.ascontiguousarray(deltas).view(float).reshape(k, 2 * n * n)
    vals, vecs = np.linalg.eigh(deltas)
    psi = vecs[np.arange(k), :, np.abs(vals).argmax(axis=1)]
    floor = -np.inf
    while True:
        outer = psi[:, :, None] * psi.conj()[:, None, :]
        e = outer.view(float).reshape(len(psi), 2 * n * n) @ flat.T
        value = np.abs(e).sum(axis=1).max()
        if not value > floor:
            return floor
        floor = value
        sums = (np.sign(e) @ flat).view(complex).reshape(-1, n, n)
        psi = np.linalg.eigh(sums)[1][..., -1]


def _quartic(sums, frob):
    # (Tr S⁴)^¼ = ‖S²‖_F^½ ≥ ‖S²‖₂^½ = ‖S‖₂ of each Hermitian S in a stack whose
    # ‖S‖_F are at most frob, from one batched matmul and a norm. S is first
    # scaled by the power of two 2^-e with frob·2^-e in [1/2, 1), so that the
    # fourth powers of tiny entries (‖S‖₂ near 1e-150, say) do not vanish.
    scale = np.ldexp(1.0, -np.frexp(frob)[1])
    scaled = sums * scale
    return np.sqrt(np.linalg.norm(scaled @ scaled, axis=(1, 2))) / scale


def _slack(n, k, frob):
    # The rounding slack of the three screens in _signed_extremes, for sums of k
    # (n, n) terms Δ_i with F = frob = Σ_i ‖Δ_i‖_F: a row's computed score never
    # exceeds its computed bound plus the slack. Let u be the unit roundoff;
    # |G_ij| sums to at most F² and |τ_i| ≤ √n‖Δ_i‖_F. For Samuelson's bound:
    # - G_ij is a dot product of length 2n², off by ≤ 2n²·u·‖Δ_i‖_F‖Δ_j‖_F;
    #   f then nests sums of ≤ k terms two deep and adds its three parts, so
    #   it is off by ≤ (2n² + 2k + 2)·u·F²;
    # - t is off by ≤ (n + k)·u·√n·F, so t²/n is off by ≤ 2(n + k)·u·F²;
    # - √ turns the resulting error of ≤ c·u·F² under the root, with
    #   c = 2n² + 2n + 4k + 2, into ≤ √(c·u)·F on the bound (√(a+e) ≤ √a + √e);
    # - the rest is linear in u: |t|/n, the k-term sums that form S (‖·‖_F
    #   error ≤ k·u·F) and eigvalsh's backward error (≤ p(n)·u·‖S‖₂). Each is
    #   below √u ≈ 1e-8 times the root term, so doubling that term covers them.
    # At n = 4, k = 16 that is 2.2e-7·F. Products that underflow to subnormals
    # are off by up to 2^-1075 in absolute terms; the 2k²n² of them in f amount
    # to far below the absolute 1e-150 under the root.
    # The Frobenius screen ‖S‖₂ ≤ √f, run before Samuelson's bound, needs no
    # more: f alone is off by ≤ (2n² + 2k + 2)·u·F², below c·u·F², so √f is off
    # by ≤ √(c·u)·F, half the slack, and the linear terms above fit in the
    # other half. A row it drops, √f + slack < least, scores below least.
    # The quartic bound of a formed sum S (‖S‖_F ≤ F to first order): complex
    # products give |fl(S·S) − S·S| ≤ γ_{n+2}|S||S| entrywise, and
    # ‖|S||S|‖_F ≤ F², so ‖S‖₂ ≤ ‖fl(S²)‖_F^½ + √γ_{n+2}·F, below √(c·u)·F as
    # c ≥ 2n²; the norm, its roots and eigvalsh are off by multiples of u,
    # covered by the doubling. Squares and products that underflow in the
    # scaled S² are off by at most 2^-1074 each: (2n²·2^-1074)^¼·2^e, under
    # 1e-78·F, in all.
    # The maximizing row clears the floor too: exact bound ≥ δ ≥ exact floor,
    # and the floor's rounding, about (2n² + 2n + k)·u·F (k dot products of
    # ψψ̄ᵀ's 2n² parts, ‖ψ‖ = 1 to n·u), is within c·u·F, far below the doubling.
    c = 2 * n * n + 2 * n + 4 * k + 2
    return 2 * np.sqrt(c * np.finfo(float).eps / 2) * frob + 1e-150


def _signed_extremes(deltas):
    """max over sign vectors of ‖Σ_i s_i Δ_i‖, for an (m, k, n, n) stack.

    Returns, per stack, the largest |eigenvalue| over s ∈ {±1}^k with
    s_0 = +1, and the first signed sum that attains it. Outcomes whose Δ_i
    is exactly zero in every stack add nothing to any sum and are dropped
    first (one is kept if all are), so s_0 is the first outcome kept. Sign
    tails follow ``itertools.product((1, -1), repeat=k - 1)``, and matrix
    products of sign rows with the Δ_i form the signed sums.

    Stacks share a block only where their whole enumerations fit it: the
    call runs on groups of max(1, SIGN_BLOCK_ENTRIES // (n²·2^(k−1)))
    stacks, each group's sums formed whole and scored by one batched
    eigvalsh. A longer enumeration runs alone, by branch and bound:
    Samuelson's inequality bounds ‖S‖₂ ≤ |t|/n + √((n−1)/n · (f − t²/n))
    from t = s·τ (τ_i = Re Tr Δ_i) and f = ‖S‖_F² = sᵀGs (G_ij = Re Tr Δ_iΔ_j)
    with no eigensolve, in chunks of at most max(SIGN_BLOCK_ENTRIES, block)
    rows. One loop in enumeration order visits each chunk once. Let least be
    the larger of the best score so far and the floor (:func:`_floor`), a
    value some state attains. Each chunk is screened first: as ‖S‖₂ ≤
    Samuelson's bound ≤ √f, a row with √f plus a rounding slack below least
    is dropped before its t is read (about 95% of rows on a random
    16-outcome pair on dimension 4), and then a row whose Samuelson bound
    plus the slack is below least. The rows left are formed at most a block
    at a time, each formed sum S is screened again by ‖S‖₂ ≤ (Tr S⁴)^¼ =
    ‖S²‖_F^½, from one batched matmul, with the same slack against least as
    it then stands, and only the sums that pass are eigensolved. Samuelson's
    bound uses two moments of the spectrum, so past n = 2 it is loose, and
    the quartic bound rejects nearly every sum it lets through. On a random
    16-outcome pair on dimension 4, 64 of the 70 eigensolves left are the
    floor's. A pruned row scores below the best or below δ, so the
    maximizing sign vector (the first enumerated, on ties) is the full
    enumeration's. That sum's rounding depends on the number of sign rows
    in the product forming it: it is the full enumeration's within
    2k·u·Σ_i‖Δ_i‖_F in ‖·‖_F (u the unit roundoff), and so is the value up
    to eigvalsh's rounding; every n = 4 case checked is bit for bit.
    """
    m, k, n, _ = deltas.shape
    kept = deltas.reshape(m, k, n * n).any(axis=(0, 2))
    if not kept.all():
        kept[0] |= not kept.any()
        deltas = deltas[:, kept]
        k = deltas.shape[1]
    group = max(1, SIGN_BLOCK_ENTRIES // (n * n << (k - 1)))
    if m > group:
        parts = [_signed_extremes(deltas[i : i + group]) for i in range(0, m, group)]
        return tuple(np.concatenate(part) for part in zip(*parts))
    # Real and imaginary parts side by side, so the signed sums are one real
    # matrix product; the result views back as complex.
    flat = np.ascontiguousarray(deltas).view(float).reshape(m, k, 2 * n * n)
    # A block holds 2^low sign vectors, all that share its head: s_0 = +1 and
    # the signs of outcomes 1 … h−1 (h = k − low), from the bits of the block
    # index. Its tail, outcomes h … k−1, runs through all 2^low patterns.
    low = min(k - 1, max(1, SIGN_BLOCK_ENTRIES // (m * n * n)).bit_length() - 1)
    h, rows = k - low, 1 << low

    if h == 1:
        sums = (_signs(np.arange(rows), k) @ flat).view(complex).reshape(m, rows, n, n)
        score = _scores(sums)
        at = np.arange(m), score.argmax(axis=1)
        return score[at], sums[at]

    # Branch and bound, on the one stack of this call.
    flat, tau = flat[0], np.trace(deltas[0], axis1=1, axis2=2).real
    tail = _signs(np.arange(rows), low + 1)[:, 1:]
    # Every chunk's cross term reads the tail transposed: copy it once, contiguous.
    tail_t = np.ascontiguousarray(tail.T)
    gram = flat @ flat.T
    t_tail = tau[h:] @ tail_t
    f_tail = ((tail @ gram[h:, h:]) * tail).sum(axis=-1)
    blocks = 1 << (h - 1)
    per = max(1, SIGN_BLOCK_ENTRIES // rows)
    frob = np.sqrt(np.diagonal(gram)).sum()
    slack = _slack(n, k, frob)

    # Rows ascend, argmax takes the first maximum, and only a greater score wins.
    floor, best, winner = _floor(deltas[0]), -np.inf, None
    for start in range(0, blocks, per):
        # One chunk of blocks: t and f split into head, tail and head × tail
        # parts. ‖S‖₂ ≤ √f, so a row with √f + slack < least is dropped before
        # its t and Samuelson's bound are formed.
        head = _signs(np.arange(start, min(start + per, blocks)), h)
        f = (
            ((head @ gram[:h, :h]) * head).sum(axis=-1)[:, None]
            + f_tail
            + 2 * (head @ gram[:h, h:]) @ tail_t
        ).ravel()
        least = max(floor, best)
        cut = least - slack
        at = np.flatnonzero(f >= cut * cut) if cut > 0 else np.arange(len(f))
        t = (tau[:h] @ head.T)[at // rows] + t_tail[at % rows]
        f = f[at]
        b = np.abs(t) / n + np.sqrt(np.maximum((n - 1) / n * (f - t * t / n), 0.0))
        keep = start * rows + at[b + slack >= least]
        # The rows left are formed at most a block at a time (the memory
        # guard), screened by the quartic bound, and only then eigensolved.
        for pos in range(0, len(keep), rows):
            sums = (_signs(keep[pos : pos + rows], k) @ flat).view(complex).reshape(-1, n, n)
            sums = sums[_quartic(sums, frob) + slack >= max(floor, best)]
            if len(sums):
                score = _scores(sums)
                if score.max() > best:
                    best, winner = score.max(), sums[score.argmax()]
    return np.array([best]), winner[None]


def povm_distance(p, q, return_witness=False):
    """Exact measurement distance max_ρ Σ_i |Tr[ρ (P_i − Q_i)]|.

    The sum of absolute values equals the maximum over sign vectors
    s ∈ {±1}^k of Tr[ρ Σ_i s_i Δ_i], and maximizing a Hermitian expectation
    over states lands on the top eigenvector. Enumerating sign vectors is
    exact; the global ± symmetry halves the enumeration to 2^(k−1), and
    outcomes with P_i = Q_i exactly are dropped first (a swap pair keeps
    two). An enumeration that fits one block (512 signed sums at n = 4) is
    formed by one matrix product and eigensolved whole; a longer one is
    branch and bound (:func:`_signed_extremes`). Against the best so far
    and a floor some state attains, it drops most sign vectors by ‖S‖_F
    alone, forms only the sums whose trace-and-Frobenius bound reaches both,
    and eigensolves only those whose (Tr S⁴)^¼ bound reaches them too, so
    memory does not grow with k. The maximizing sign vector is the
    full enumeration's, and δ is too up to the rounding of its one signed
    sum. Capped at 20 outcomes; beyond that use :func:`distance_bounds`.

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
    """Upper bounds (Σ_i ‖Δ_i‖, Σ_i ‖Δ_i‖₂) on the measurement distance.

    Stored effects are Hermitian, so each Δ_i is too, and one batched
    eigvalsh gives every ‖Δ_i‖.
    """
    _check_comparable(p, q)
    deltas = p.effects - q.effects
    sum_op = _scores(deltas).sum()
    sum_fro = np.linalg.norm(deltas, axis=(1, 2)).sum()
    return float(sum_op), float(sum_fro)
