"""Programmable detectors: joint POVMs programmed through an ancilla state.

A detector is a joint POVM F on system ⊗ ancilla. Feeding it an ancilla
state σ realizes the system POVM with effects Tr_A[(I ⊗ σ) F_i]. Which
POVMs are reachable, and how close they come to a target, is the whole
game; the helpers here build the controlled-unitary family and score
accuracy against target lists.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .povm import (
    DensityState,
    Povm,
    _controlled_observable,
    _signed_extremes,
    check_enumerable,
    check_isometry,
    povm_distance,
    projector_pair,
)


class Detector:
    """Joint POVM on a system ⊗ ancilla tensor product.

    Its program map contracts the dense joint stack (:func:`_contract`);
    :class:`IsometryDetector` is the family programmed through a factor.
    """

    def __init__(self, sys_dim, anc_dim, joint):
        self._set_shape(sys_dim, anc_dim, joint.dim, len(joint))
        self.joint = joint

    def _set_shape(self, sys_dim, anc_dim, dim, outcomes):
        if sys_dim < 1 or anc_dim < 1:
            raise ValueError("dimensions must be positive")
        if dim != sys_dim * anc_dim:
            raise ValueError(
                f"joint POVM dim {dim} is not sys_dim*anc_dim = {sys_dim * anc_dim}"
            )
        self.sys_dim = sys_dim
        self.anc_dim = anc_dim
        self.outcomes = outcomes

    def _program_map(self, sigma):
        """Effect stack Tr_A[(I ⊗ σ) F_k] for a d × d array `sigma`."""
        return _contract(self.joint.effects, sigma, self.sys_dim, self.anc_dim)

    def __repr__(self):
        return (
            f"{type(self).__name__}(sys_dim={self.sys_dim}, anc_dim={self.anc_dim}, "
            f"outcomes={self.outcomes})"
        )


class IsometryDetector(Detector):
    """Two-outcome detector {VVᵀ, I − VVᵀ}, held as its real isometry V.

    V is (n·d, r), system major, and is certified at construction by
    :func:`check_isometry`. The program map reads only V: with
    y[(j, r), b] = Σ_a V[(j, a), r] σ_ab, the first effect is
    out₀[i, j] = Σ_rb V[(i, b), r] y[(j, r), b], two real matrix products
    over σ's float view, and out₁ = I − out₀. They take n·r·d² multiply-adds
    in place of a pass over the 2·n²·d² entries of the dense joint, which
    pays while r stays small: r = N + 2 for the Dicke basis at d = 2^N, but
    r = d + 1 for the covariant detector's isometry, O(d³) against O(d²).
    The dense joint (`projector_pair(V)`) is built on first access of
    `joint`, for serialization and as the test oracle.
    """

    def __init__(self, sys_dim, anc_dim, v):
        self.isometry = check_isometry(v)
        self._set_shape(sys_dim, anc_dim, len(self.isometry), 2)

    @cached_property
    def joint(self):
        return projector_pair(self.isometry)

    def _program_map(self, sigma):
        n, d = self.sys_dim, self.anc_dim
        # a[(i, r), b] = V[(i, b), r]: a small copy, n·r·d entries.
        a = self.isometry.reshape(n, d, -1).transpose(0, 2, 1).reshape(-1, d)
        # Real times complex as one real product: σ's float view interleaves
        # real and imaginary parts along its columns.
        y = (a @ np.ascontiguousarray(sigma, dtype=complex).view(float)).view(complex)
        yt = np.ascontiguousarray(y.reshape(n, -1).T)
        out = np.empty((2, n, n), dtype=complex)
        out[0] = (a.reshape(n, -1) @ yt.view(float)).view(complex)
        out[1] = np.eye(n) - out[0]
        return out


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
    map: one contraction over the dense joint stack (:func:`_contract`), or
    for an :class:`IsometryDetector` two products with its factor. That the
    output is again a valid POVM is a theorem (the programming map sends
    states into the POVM set); the Povm constructor re-checks it rather than
    assuming it.
    """
    if sigma.dim != f.anc_dim:
        raise ValueError(f"program state dim {sigma.dim} != ancilla dim {f.anc_dim}")
    return Povm(f._program_map(sigma.matrix))


def controlled_unitary_detector(ws):
    """Detector measuring basis state i after a unitary selected by the ancilla.

    The interaction U = Σ_k W_k ⊗ |φ_k⟩⟨φ_k| applies W_k when the ancilla
    sits in computational basis state k; absorbing U into the measurement
    gives joint effects F_i = U†(|i⟩⟨i| ⊗ I)U = Σ_k W_k†|i⟩⟨i|W_k ⊗ |k⟩⟨k|.
    Programming with the ancilla state |φ_k⟩⟨φ_k| then reproduces the
    observable of W_k exactly. To measure in another basis B after W_k, pass
    B†W_k.

    The joint is built once from the validated unitaries, which certify its
    positivity; :func:`observable_from_unitary` is its one-branch case.
    """
    joint = _controlled_observable(ws)
    n = len(joint)
    return Detector(n, joint.dim // n, joint)


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

    An explicit list is programmed once into an (m, k, n, n) effect stack,
    and each target is scored against all m candidates in one run of the
    blocked sign enumeration of :func:`povm_distance`; a block then holds
    at most max(SIGN_BLOCK_ENTRIES, m·n²) matrix entries.
    """
    targets = list(targets)
    if not targets:
        raise ValueError("need at least one target")

    states = None
    if not callable(programs):
        states = list(programs)
        if not states:
            raise ValueError("program strategy is empty")
        # Programmed POVMs do not depend on the target; compute each once.
        povms = [program(f, s) for s in states]
        stack = np.stack([q.effects for q in povms])

    results = []
    for tid, target in enumerate(targets):
        if states is None:
            candidates = [programs(target)]
            povms = [program(f, candidates[0])]
            stack = povms[0].effects[None]
        else:
            candidates = states
        # Every programmed POVM shares the detector's dimension and outcomes.
        check_enumerable(target, povms[0])
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
