"""Programmable detectors: joint POVMs programmed through an ancilla state.

A detector is a joint POVM F on system ⊗ ancilla. Feeding it an ancilla
state σ realizes the system POVM with effects Tr_A[(I ⊗ σ) F_i]. Which
POVMs are reachable, and how close they come to a target, is the whole
game; the helpers here hold two families by their factors, the isometry
detectors {VVᵀ, I − VVᵀ} (`IsometryDetector`) and the controlled-unitary
detectors as their branch unitaries, each with its dense joint built only
when read, and score accuracy against target lists.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import as_int
from .povm import (
    PSD_TOL,
    DensityState,
    Povm,
    _signed_extremes,
    check_enumerable,
    check_unitaries,
    povm_distance,
)


class Detector:
    """Joint POVM on a system ⊗ ancilla tensor product.

    Its program map contracts the dense joint stack (:func:`_contract`); the
    isometry and controlled-unitary families below map through their factors.
    """

    def __init__(self, sys_dim, anc_dim, joint):
        if not isinstance(joint, Povm):
            raise ValueError(f"joint must be a Povm, got {type(joint).__name__}")
        self._set_shape(sys_dim, anc_dim, joint.dim, len(joint))
        self.joint = joint

    def _set_shape(self, sys_dim, anc_dim, dim, outcomes):
        sys_dim, anc_dim = as_int(sys_dim, "sys_dim"), as_int(anc_dim, "anc_dim")
        if sys_dim < 1 or anc_dim < 1:
            raise ValueError("dimensions must be positive")
        if dim != sys_dim * anc_dim:
            raise ValueError(
                f"joint POVM dim {dim} is not sys_dim*anc_dim = {sys_dim * anc_dim}"
            )
        self.sys_dim = sys_dim
        self.anc_dim = anc_dim
        self.outcomes = outcomes

    def _program_map(self, state):
        """Effect stack Tr_A[(I ⊗ σ) F_k] for a DensityState σ."""
        return _contract(self.joint.effects, state.matrix, self.sys_dim, self.anc_dim)

    def __repr__(self):
        return (
            f"{type(self).__name__}(sys_dim={self.sys_dim}, anc_dim={self.anc_dim}, "
            f"outcomes={self.outcomes})"
        )


class IsometryDetector(Detector):
    """Two-outcome detector {VVᵀ, I − VVᵀ} of a real isometry V with one nonzero per row.

    Row (i, a) of V, system major, holds `weights[i, a]` in column `cols[i, a]`,
    so VᵀV is the diagonal bincount(cols, weights²): all of it within PSD_TOL
    of 1 certifies both effects positive, as eig(VVᵀ) = eig(VᵀV) ∪ {0}. The
    map is Q₁ = I − Q₀ and Q₀[i, j] = Σ_{a,b} w[i, a]·w[j, b]·σ[b, a] over the
    pairs with cols[i, a] = cols[j, b], for w = `weights`. A pure program v
    runs it as Q₀ = X̄·Xᵀ for X[i, r] = (M_i v)[r], M_i[r, a] = V[(i, a), r], in
    O(n·d): the weights are real, so M_i v̄ is the conjugate of M_i v. A mixed
    one reads σ through each block's d × d boolean pattern, in O(n²·d²)
    time. `joint` is built when first read.
    """

    def __init__(self, sys_dim, anc_dim, cols, weights):
        cols, weights = np.asarray(cols), np.asarray(weights)
        if cols.shape != weights.shape or cols.dtype.kind not in "iu":
            raise ValueError("cols must be an integer array shaped like weights")
        if weights.dtype.kind not in "biuf" or not np.isfinite(weights).all():
            raise ValueError("weights must be real and finite: a complex VVᵀ is not Hermitian")
        self._set_shape(sys_dim, anc_dim, cols.size, 2)
        gram = np.bincount(cols.ravel(), weights.ravel() ** 2)
        dev = np.abs(gram - 1.0).max()
        if dev > PSD_TOL:
            raise ValueError(f"columns are not orthonormal: Gram entry off 1 by {dev:.3e}")
        self.cols = cols.reshape(sys_dim, anc_dim)
        self.weights = weights.reshape(sys_dim, anc_dim)
        self.rank = len(gram)

    @cached_property
    def joint(self):
        # numpy forms V @ V.T as a symmetric product, so the effects are
        # exactly Hermitian; `Povm._set` checks completeness.
        v = _dense_isometry(self.cols, self.weights)
        stack = np.empty((2, len(v), len(v)), dtype=complex)
        stack[0] = v @ v.T
        np.subtract(np.eye(len(v)), stack[0].real, out=stack[1])
        return Povm.__new__(Povm)._set(stack)

    def _program_map(self, state):
        n = self.sys_dim
        out = np.empty((2, n, n), dtype=complex)
        if state.vector is None:
            sigma, cols, w = state.matrix, self.cols, self.weights
            # Q₀ is Hermitian: each block below the diagonal mirrors one above.
            for i in range(n):
                for j in range(i, n):
                    pattern = cols[j][:, None] == cols[i]
                    out[0, i, j] = np.einsum("b,ba,ba,a->", w[j], pattern, sigma, w[i])
                    out[0, j, i] = out[0, i, j].conj()
        else:
            slot, size = (np.arange(n)[:, None] * self.rank + self.cols).ravel(), n * self.rank
            re, im = (np.bincount(slot, (self.weights * p).ravel(), size)
                      for p in (state.vector.real, state.vector.imag))
            x = (re + 1j * im).reshape(n, self.rank)
            out[0] = x.conj() @ x.T
        out[1] = np.eye(n) - out[0]
        return out


class ControlledUnitaryDetector(Detector):
    """Detector measuring basis state i after a unitary selected by the ancilla.

    The interaction U = Σ_k W_k ⊗ |k⟩⟨k| applies W_k when the ancilla sits in
    basis state k; absorbed into the measurement, it gives the joint effects
    F_i = U†(|i⟩⟨i| ⊗ I)U = Σ_k W_k†|i⟩⟨i|W_k ⊗ |k⟩⟨k|, block diagonal in k. So
    the map reads σ's diagonal alone, Q_i = Σ_k σ_kk W_k†|i⟩⟨i|W_k with
    σ_kk = |v_k|² for a pure program v, and |k⟩⟨k| programs the observable of
    W_k; for basis B after W_k, pass B†W_k. `unitaries` is the validated
    (d, n, n) stack, which certifies F positive; `joint` is built when first read.
    """

    def __init__(self, ws):
        ws = list(ws)
        if not ws or len({np.shape(w) for w in ws}) > 1:
            raise ValueError("need at least one unitary, and all must share one dimension")
        self.unitaries = check_unitaries(ws)
        d, n, _ = self.unitaries.shape
        self._set_shape(n, d, n * d, n)

    @cached_property
    def joint(self):
        # Block k is `observable_from_unitary(W_k)` bit for bit; the rest are exact zeros.
        ws, (d, n, _) = self.unitaries, self.unitaries.shape
        joint = np.zeros((n, n, d, n, d), dtype=complex)
        joint[:, :, np.arange(d), :, np.arange(d)] = np.einsum("kia,kib->kiab", ws.conj(), ws)
        return Povm.__new__(Povm)._set(joint.reshape(n, n * d, n * d))

    def _program_map(self, state):
        v = state.vector
        p = np.diag(state.matrix).real if v is None else np.abs(v) ** 2
        return np.einsum("k,kia,kib->iab", p, self.unitaries.conj(), self.unitaries)


def _dense_isometry(cols, weights):
    """The real matrix V whose row k holds `weights.flat[k]` in column `cols.flat[k]`."""
    v = np.zeros((cols.size, cols.max() + 1))
    v[np.arange(cols.size), cols.ravel()] = weights.ravel()
    return v


@dataclass
class PerTargetResult:
    target_id: int
    delta: float
    program_index: int
    program: DensityState


@dataclass
class AccuracyReport:
    """Worst-case programming accuracy over a target list.

    epsilon is the maximum over targets of the best (minimum) distance each
    target achieved over the supplied program states.
    """

    epsilon: float
    worst_index: int
    worst_target: Povm
    per_target: list


def _contract(effects, sigma, n, d):
    """Tr_A[(I ⊗ σ) F_k] for a (k, n·d, n·d) stack of joint operators.

    One contraction, out_k[i, j] = Σ_ab σ_ab F_k[(i, b), (j, a)], without
    forming I ⊗ σ; `sigma` is a plain d × d array.
    """
    # σ is passed transposed and contiguous so both operands run along a
    # with unit stride: numpy then sums with its vectorized kernel, which is
    # faster and accumulates less roundoff than the strided loop.
    sigma_t = np.ascontiguousarray(sigma.T)
    return np.einsum("ba,kibja->kij", sigma_t, effects.reshape(-1, n, d, n, d))


def program(f, sigma):
    """System POVM realized by detector `f` with ancilla state `sigma`.

    The effects Tr_A[(I ⊗ σ) F_k] come from the detector family's program
    map: one contraction of `sigma.matrix` with the dense joint stack
    (:func:`_contract`), an :class:`IsometryDetector`'s sparse rows, or a
    :class:`ControlledUnitaryDetector`'s unitaries weighed by σ's diagonal.
    That the output is again a valid POVM is a theorem (the programming map
    sends states into the POVM set); the Povm constructor re-checks it
    rather than assuming it.
    """
    if sigma.dim != f.anc_dim:
        raise ValueError(f"program state dim {sigma.dim} != ancilla dim {f.anc_dim}")
    return Povm(f._program_map(sigma))


def controlled_unitary_detector(ws):
    """The :class:`ControlledUnitaryDetector` of the unitaries `ws`."""
    return ControlledUnitaryDetector(ws)


def accuracy_for_program(f, target, sigma):
    """Distance between `target` and the POVM programmed by `sigma`."""
    return povm_distance(target, program(f, sigma))


def estimate_accuracy(f, targets, programs):
    """Score a detector against targets, minimizing over a program strategy.

    `programs` is either an explicit list of ancilla states or a rule
    mapping a target POVM to a single matched state. The result is an upper
    estimate of the true worst-case accuracy whenever the strategy spans
    only part of the ancilla state space; for constructions with matched
    programs it is exact.

    Targets must share the detector's dimension and outcome count; past the
    sign-enumeration cap they are refused with CapacityError before any
    program state is made or programmed.

    An explicit list is programmed once into an (m, k, n, n) effect stack,
    and each target is scored against it by the sign enumeration of
    :func:`povm_distance`: up to SIGN_BLOCK_ENTRIES // (n²·2^(k−1))
    candidates share a block of signed sums; a longer enumeration runs by
    branch and bound on one candidate at a time.
    """
    targets = list(targets)
    if not targets:
        raise ValueError("need at least one target")
    if any((t.dim, len(t)) != (f.sys_dim, f.outcomes) for t in targets):
        raise ValueError(f"targets must have dimension {f.sys_dim} and {f.outcomes} outcomes")
    # Every target and programmed POVM shares the detector's dimension and
    # outcome count, so one check covers each pair, before anything is programmed.
    check_enumerable(targets[0], targets[0])

    if callable(programs):
        def strategy(target):
            state = programs(target)
            return [state], program(f, state).effects[None]
    else:
        states = list(programs)
        if not states:
            raise ValueError("program strategy is empty")
        # Programmed POVMs do not depend on the target; compute each once.
        programmed = np.stack([program(f, s).effects for s in states])

        def strategy(target):
            return states, programmed

    results = []
    for tid, target in enumerate(targets):
        candidates, stack = strategy(target)
        deltas, _ = _signed_extremes(target.effects - stack)
        k = int(np.argmin(deltas))
        results.append(PerTargetResult(tid, float(deltas[k]), k, candidates[k]))

    worst = max(range(len(results)), key=lambda i: results[i].delta)
    return AccuracyReport(
        epsilon=results[worst].delta,
        worst_index=worst,
        worst_target=targets[worst],
        per_target=results,
    )
