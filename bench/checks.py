"""Output checks for the benchmark, computed with numpy apart from povmforge.

Every check raises :class:`CheckError` when an output breaks a property
the method guarantees; none compares against a stored copy of an output.
"""

import math

import numpy as np

LAW_TOL = 1e-9
EXACT_TOL = 1e-12


class CheckError(AssertionError):
    """An output broke a property the method guarantees."""


def check_law(name, value, expected, tol=LAW_TOL):
    """|value − expected| ≤ tol, for closed-form laws such as 2/(N+1)."""
    if not abs(value - expected) <= tol:
        raise CheckError(f"{name}: {value!r} differs from {expected!r} by more than {tol:g}")


def check_equal(name, value, expected):
    if value != expected:
        raise CheckError(f"{name}: got {value!r}, expected {expected!r}")


def check_projector(p, rank, tol=LAW_TOL):
    """p is a Hermitian idempotent with trace `rank`."""
    p = np.asarray(p)
    herm = np.abs(p - p.conj().T).max()
    idem = np.abs(p @ p - p).max()
    if not (herm <= tol and idem <= tol):
        raise CheckError(f"projector: hermiticity {herm:.3e}, idempotency {idem:.3e} > {tol:g}")
    check_law("projector trace", float(np.trace(p).real), float(rank), tol)


def outcome_sum(rho, deltas):
    """Σ_i |Tr[ρ Δ_i]| for a density matrix ρ and a stack of differences."""
    return float(np.abs(np.einsum("ij,kji->k", rho, deltas)).sum())


def check_distance(delta, witness, bounds, p_effects, q_effects, probes, tol=EXACT_TOL):
    """Exact distance δ between two POVMs, its witness and its bounds.

    * the witness state attains δ: Σ_i |Tr ρ Δ_i| recomputed equals δ;
    * no probe pure state (rows of `probes`) exceeds δ;
    * the returned bounds equal Σ‖Δ_i‖ and Σ‖Δ_i‖₂ recomputed, and
      δ ≤ Σ‖Δ_i‖ ≤ Σ‖Δ_i‖₂.
    """
    deltas = np.asarray(p_effects) - np.asarray(q_effects)
    attained = outcome_sum(np.asarray(witness), deltas)
    if not abs(attained - delta) <= tol:
        raise CheckError(f"witness attains {attained!r}, distance is {delta!r}")
    # Σ_i |<v|Δ_i|v>| for every probe v.
    per_probe = np.abs(np.einsum("rj,kjl,rl->rk", probes.conj(), deltas, probes)).sum(axis=1)
    reached = float(per_probe.max())
    if not reached <= delta + tol:
        raise CheckError(f"a probe state reaches {reached!r} > distance {delta!r}")
    sum_op = float(sum(np.abs(np.linalg.eigvalsh(d)).max() for d in deltas))
    sum_fro = float(np.linalg.norm(deltas, axis=(1, 2)).sum())
    b_op, b_fro = bounds
    check_law("sum of operator norms", b_op, sum_op, tol * max(1.0, sum_op))
    check_law("sum of Frobenius norms", b_fro, sum_fro, tol * max(1.0, sum_fro))
    if not (delta <= sum_op + tol and sum_op <= sum_fro + tol):
        raise CheckError(f"bound chain broken: {delta!r} <= {sum_op!r} <= {sum_fro!r}")


def check_swap(delta, pa, pb, tol=EXACT_TOL):
    """Distance between P and P with outcomes a, b swapped is 2‖P_a − P_b‖."""
    expected = 2.0 * float(np.abs(np.linalg.eigvalsh(np.asarray(pa) - np.asarray(pb))).max())
    check_law("swap-pair distance", delta, expected, tol)


def quotient_distances(w, centres):
    """min_D ‖W − D C_k‖_F over diagonal phases D, against each centre C_k.

    Row i of W pairs with row i of C_k, so the closed form is
    sqrt(2n − 2 Σ_i |⟨c_ki, w_i⟩|).
    """
    n = w.shape[-1]
    overlaps = np.abs(np.einsum("kij,ij->ki", centres, w.conj())).sum(axis=1)
    return np.sqrt(np.maximum(2 * n - 2 * overlaps, 0.0))


def check_packing(centres, radius):
    """Every pair of distinct centres lies farther apart than `radius`."""
    centres = np.asarray(centres)
    for a in range(1, len(centres)):
        closest = float(quotient_distances(centres[a], centres[:a]).min())
        if not closest > radius:
            raise CheckError(f"centre {a} lies {closest!r} from an earlier one, radius {radius!r}")


def haar_unitary(g, n):
    """Haar n x n unitary from a numpy Generator (QR of Ginibre, phase-fixed R)."""
    z = (g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def coverage_count(centres, radius, samples, seed):
    """Haar samples from `seed` that fall within `radius` of some centre."""
    g = np.random.default_rng(seed)
    centres = np.asarray(centres)
    n = centres.shape[-1]
    return sum(
        int(quotient_distances(haar_unitary(g, n), centres).min() <= radius)
        for _ in range(samples)
    )


def check_coverage(rate, centres, radius, samples, seed):
    """The reported coverage rate equals a recount over the same seeded samples."""
    hits = coverage_count(centres, radius, samples, seed)
    if not abs(rate * samples - hits) < 0.5:
        raise CheckError(f"coverage {rate!r} x {samples} samples, recount finds {hits}")


def check_net_bound(deltas, target_unitaries, centres):
    """δ_t ≤ √(2n) · min_k d_q(U_t, C_k) for every target observable of U_t."""
    centres = np.asarray(centres)
    scale = math.sqrt(2 * centres.shape[-1])
    for t, (delta, u) in enumerate(zip(deltas, target_unitaries)):
        bound = scale * float(quotient_distances(np.asarray(u), centres).min())
        if not delta <= bound + LAW_TOL:
            raise CheckError(f"target {t}: distance {delta!r} above net bound {bound!r}")


def observable_effects(w):
    """Effects W†|i⟩⟨i|W of the sharp observable of W, as a (n, n, n) stack."""
    rows = np.asarray(w).conj()  # row i of W, conjugated, is W†|i⟩
    return np.einsum("ij,ik->ijk", rows, rows.conj())


def check_programmed(programmed, centres, tol=LAW_TOL):
    """Programming basis state k reproduces the observable of centre k."""
    for k, (effects, c) in enumerate(zip(programmed, centres)):
        dev = np.abs(np.asarray(effects) - observable_effects(c)).max()
        if not dev <= tol:
            raise CheckError(f"basis program {k} misses its centre's observable by {dev:.3e}")
