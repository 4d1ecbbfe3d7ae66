import itertools

import numpy as np
import pytest

from povmforge.linalg import CapacityError, Rng, fro_norm, haar_unitary
from povmforge.povm import (
    SUM_TOL,
    UNITARY_TOL,
    DensityState,
    Povm,
    born_probabilities,
    check_unitary,
    distance_bounds,
    maximally_mixed,
    observable_from_unitary,
    povm_distance,
    pure_state,
    two_outcome_distance,
)

KET_PLUS = np.array([1.0, 1.0]) / np.sqrt(2)


def random_two_outcome(rng_seed):
    # E0 = V diag(u) V† with u in [0,1] keeps both effects positive.
    rng = Rng(rng_seed)
    u = haar_unitary(2, rng)
    vals = rng.generator.uniform(0.0, 1.0, size=2)
    e0 = u @ np.diag(vals) @ u.conj().T
    return Povm([e0, np.eye(2) - e0])


def random_povm(dim, outcomes, rng):
    gs = [
        rng.generator.standard_normal((dim, dim))
        + 1j * rng.generator.standard_normal((dim, dim))
        for _ in range(outcomes)
    ]
    parts = [g.conj().T @ g for g in gs]
    total = sum(parts)
    vals, vecs = np.linalg.eigh(total)
    inv_sqrt = vecs @ np.diag(vals ** -0.5) @ vecs.conj().T
    return Povm([inv_sqrt @ p @ inv_sqrt for p in parts])


def test_povm_validation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        Povm([np.array([[0.0, 1.0], [0.0, 0.0]])])  # not hermitian
    with pytest.raises(ValueError):
        Povm([np.diag([1.0, -0.5]), np.diag([0.0, 1.5])])  # negative effect
    with pytest.raises(ValueError):
        Povm([np.diag([0.5, 0.5])])  # incomplete
    with pytest.raises(ValueError):
        Povm([])


def test_povm_completeness_is_judged_by_operator_norm():
    # The residual 5e-10·I on dimension 100 has Frobenius norm 5e-9, past
    # SUM_TOL, but operator norm 5e-10, within it: the POVM is complete.
    p = Povm([np.eye(100) * (1 + 5e-10)])
    assert p.dim == 100
    over = np.eye(100)
    over[0, 0] += 1.1 * SUM_TOL
    with pytest.raises(ValueError, match="do not sum to identity"):
        Povm([over])


def test_povm_effects_are_one_complex_stack():
    p = Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.zeros((2, 2))])
    assert isinstance(p.effects, np.ndarray)
    assert p.effects.dtype == complex
    assert p.effects.shape == (3, 2, 2)
    assert len(p) == 3
    assert np.abs(sum(p) - np.eye(2)).max() == 0.0
    # Effects are stored exactly Hermitian, bit for bit, even when the input
    # carries roundoff from matrix products.
    for q in (p, random_povm(3, 4, Rng(5))):
        assert np.array_equal(q.effects, q.effects.conj().transpose(0, 2, 1))


def test_povm_rejects_ragged_and_nonsquare_effects():
    with pytest.raises(ValueError):
        Povm([np.eye(2) / 2, np.eye(3) / 2])
    with pytest.raises(ValueError):
        Povm([np.ones((2, 3))])
    with pytest.raises(ValueError):
        Povm([np.eye(2)[0]])


def test_density_state_validation():
    with pytest.raises(ValueError):
        DensityState(np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(ValueError):
        DensityState(np.diag([1.5, -0.5]))  # negative eigenvalue
    s = maximally_mixed(3)
    assert s.dim == 3
    assert np.trace(s.matrix).real == pytest.approx(1.0)


def test_pure_state_normalizes():
    s = pure_state([2.0, 0.0])
    assert np.allclose(s.matrix, np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        pure_state([0.0, 0.0])
    # pure_state skips the positivity eigensolve; it matches the checked path.
    v = haar_unitary(5, Rng(6))[:, 0]
    v = v / np.linalg.norm(v)
    assert np.array_equal(pure_state(v).matrix, DensityState(np.outer(v, v.conj())).matrix)


def test_born_eigenstate():
    p = observable_from_unitary(np.eye(2))
    probs = born_probabilities(pure_state([1.0, 0.0]), p)
    assert probs == pytest.approx([1.0, 0.0])


def test_born_maximally_mixed():
    p = observable_from_unitary(haar_unitary(2, Rng(2)))
    assert born_probabilities(maximally_mixed(2), p) == pytest.approx([0.5, 0.5])


def test_born_plus_state():
    p = observable_from_unitary(np.eye(2))
    assert born_probabilities(pure_state(KET_PLUS), p) == pytest.approx([0.5, 0.5])


def test_born_sums_to_one():
    rng = Rng(40)
    p = random_povm(3, 4, rng)
    rho = pure_state(haar_unitary(3, rng)[:, 0])
    probs = born_probabilities(rho, p)
    assert all(-1e-9 <= x <= 1 + 1e-9 for x in probs)
    assert sum(probs) == pytest.approx(1.0, abs=1e-9)


def test_born_dimension_mismatch():
    with pytest.raises(ValueError):
        born_probabilities(maximally_mixed(3), observable_from_unitary(np.eye(2)))


def test_observable_identity_and_hadamard():
    comp = observable_from_unitary(np.eye(3))
    for i, e in enumerate(comp.effects):
        expect = np.zeros((3, 3))
        expect[i, i] = 1.0
        assert np.abs(e - expect).max() <= 1e-12
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    had = observable_from_unitary(h)
    plus = np.outer(KET_PLUS, KET_PLUS)
    assert np.abs(had.effects[0] - plus).max() <= 1e-12


def test_observable_effects_are_rank_one_and_complete():
    w = haar_unitary(4, Rng(8))
    p = observable_from_unitary(w)
    total = sum(p.effects)
    assert np.abs(total - np.eye(4)).max() <= 1e-10
    for e in p.effects:
        vals = np.linalg.eigvalsh(e)
        assert vals[-1] == pytest.approx(1.0, abs=1e-10)
        assert abs(vals[-2]) <= 1e-10


def test_check_unitary_is_judged_by_operator_norm():
    # U = diag(sqrt(1 + 0.9·tol)) on dimension 100: U†U − I = 0.9·tol·I has
    # Frobenius norm 9·tol, past the tolerance, so the eigensolve decides.
    near = np.eye(100) * np.sqrt(1 + 0.9 * UNITARY_TOL)
    assert np.linalg.norm(near.conj().T @ near - np.eye(100)) > UNITARY_TOL
    assert np.array_equal(check_unitary(near), near)
    far = np.eye(100) * np.sqrt(1 + 1.1 * UNITARY_TOL)
    with pytest.raises(ValueError, match="not unitary"):
        check_unitary(far)


def test_check_unitary_rejects_malformed_input():
    with pytest.raises(ValueError, match="square"):
        check_unitary(np.ones((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        check_unitary(np.array([[1.0, 0.0], [0.0, np.nan]]))


def test_observable_rejects_nonunitary():
    with pytest.raises(ValueError):
        observable_from_unitary(np.diag([1.0, 0.5]))


def test_distance_identical_is_zero():
    p = observable_from_unitary(haar_unitary(3, Rng(55)))
    assert povm_distance(p, p) == pytest.approx(0.0, abs=1e-12)


def bloch_grid_distance(p, q, steps=100):
    # Brute-force max over pure qubit states on a theta/phi grid.
    best = 0.0
    for theta in np.linspace(0.0, np.pi, steps):
        for phi in np.linspace(0.0, 2 * np.pi, steps, endpoint=False):
            v = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
            rho = np.outer(v, v.conj())
            total = sum(
                abs(np.trace(rho @ (pe - qe)).real)
                for pe, qe in zip(p.effects, q.effects)
            )
            best = max(best, total)
    return best


def test_distance_standard_pair():
    p = observable_from_unitary(np.eye(2))
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    q = observable_from_unitary(h)
    d = povm_distance(p, q)
    assert d == pytest.approx(np.sqrt(2), abs=1e-12)
    assert bloch_grid_distance(p, q) <= d + 1e-9
    assert bloch_grid_distance(p, q) >= d - 1e-3


def test_distance_is_symmetric_pseudometric():
    rng = Rng(60)
    ps = [observable_from_unitary(haar_unitary(2, rng)) for _ in range(3)]
    d01 = povm_distance(ps[0], ps[1])
    assert d01 == pytest.approx(povm_distance(ps[1], ps[0]), abs=1e-12)
    d12 = povm_distance(ps[1], ps[2])
    d02 = povm_distance(ps[0], ps[2])
    assert d02 <= d01 + d12 + 1e-9
    assert d01 <= 2.0 + 1e-12


def test_distance_witness_reproduces_value():
    rng = Rng(61)
    p = random_povm(2, 3, rng)
    q = random_povm(2, 3, rng)
    d, witness = povm_distance(p, q, return_witness=True)
    probs_p = born_probabilities(witness, p)
    probs_q = born_probabilities(witness, q)
    assert sum(abs(a - b) for a, b in zip(probs_p, probs_q)) == pytest.approx(
        d, abs=1e-9
    )


def test_distance_capacity_cap():
    effects = [np.eye(2) / 21] * 21
    p = Povm(effects)
    with pytest.raises(CapacityError, match="distance_bounds"):
        povm_distance(p, p)


@pytest.mark.parametrize("seed", range(20))
def test_two_outcome_matches_enumeration(seed):
    p = random_two_outcome(seed)
    q = random_two_outcome(seed + 1000)
    assert two_outcome_distance(p, q) == pytest.approx(
        povm_distance(p, q), abs=1e-10
    )


def test_two_outcome_wrong_count():
    p = observable_from_unitary(np.eye(3))
    with pytest.raises(ValueError):
        two_outcome_distance(p, p)


def test_bounds_identical():
    p = observable_from_unitary(haar_unitary(2, Rng(3)))
    assert distance_bounds(p, p) == (0.0, 0.0)


def test_bounds_standard_pair():
    p = observable_from_unitary(np.eye(2))
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    q = observable_from_unitary(h)
    sum_op, sum_fro = distance_bounds(p, q)
    assert sum_op == pytest.approx(np.sqrt(2), abs=1e-12)
    assert sum_fro == pytest.approx(2.0, abs=1e-12)


def test_bound_chain_on_random_observables():
    rng = Rng(70)
    for _ in range(100):
        p = observable_from_unitary(haar_unitary(2, rng))
        q = observable_from_unitary(haar_unitary(2, rng))
        d = povm_distance(p, q)
        sum_op, sum_fro = distance_bounds(p, q)
        assert d <= sum_op + 1e-9
        assert sum_op <= sum_fro + 1e-9


def test_jensen_with_ambient_frobenius():
    # Observable distance never beats sqrt(2n) times the unitary gap.
    rng = Rng(71)
    for n in (2, 3):
        for _ in range(25):
            w = haar_unitary(n, rng)
            v = haar_unitary(n, rng)
            d = povm_distance(
                observable_from_unitary(w), observable_from_unitary(v)
            )
            assert d <= np.sqrt(2 * n) * fro_norm(w - v) + 1e-9


def loop_distance(p, q):
    """Reference sign loop: one eigensolve per sign vector, in the order
    itertools.product enumerates them."""
    k = len(p.effects)
    deltas = list(p.effects - q.effects)
    best = 0.0
    for tail in itertools.product((1.0, -1.0), repeat=k - 1):
        signed = deltas[0].copy()
        for s, d in zip(tail, deltas[1:]):
            signed += s * d
        vals = np.linalg.eigvalsh(signed)
        best = max(best, float(vals[-1]), float(-vals[0]))
    return best


def assert_matches_loop(p, q):
    want = loop_distance(p, q)
    d, witness = povm_distance(p, q, return_witness=True)
    assert abs(d - want) <= 1e-12
    gap = np.abs(np.subtract(born_probabilities(witness, p), born_probabilities(witness, q)))
    assert abs(gap.sum() - d) <= 1e-12


# (4, 12) spans four blocks of 512 sign vectors; at n = 91, n² exceeds
# SIGN_BLOCK_ENTRIES and each block holds a single signed sum.
@pytest.mark.parametrize(
    "n, k", [(2, 1), (2, 2), (2, 3), (3, 5), (4, 8), (4, 12), (8, 6), (91, 3)]
)
def test_distance_matches_loop_oracle(n, k):
    rng = Rng(1000 + 32 * n + k)
    assert_matches_loop(random_povm(n, k, rng), random_povm(n, k, rng))


def test_distance_matches_loop_oracle_on_swap_pair():
    # Swapping two outcomes gives δ = 2‖P_a − P_b‖ and many tied sign vectors.
    p = random_povm(3, 6, Rng(73))
    q = Povm(p.effects[[0, 4, 2, 3, 1, 5]])
    assert_matches_loop(p, q)
    assert povm_distance(p, q) == pytest.approx(
        2 * np.linalg.norm(p.effects[1] - p.effects[4], 2), abs=1e-12
    )


def test_distance_maximizer_in_last_block():
    # Δ_0 = A and Δ_i = −A/(k−1): only s = (+1, −1, …, −1), the last sign
    # vector enumerated, reaches δ = 2‖A‖.
    k = 12
    a = np.diag([0.04, -0.02, 0.01, -0.03]) + 0.01 * np.eye(4)[::-1]
    q = Povm([np.eye(4) / k] * k)
    p = Povm([np.eye(4) / k + a] + [np.eye(4) / k - a / (k - 1)] * (k - 1))
    assert_matches_loop(p, q)
    assert povm_distance(p, q) == pytest.approx(2 * np.linalg.norm(a, 2), abs=1e-12)


def test_sign_enumeration_matches_exhaustive():
    # Independent oracle: enumerate all sign vectors without the +/- trick.
    rng = Rng(72)
    p = random_povm(2, 4, rng)
    q = random_povm(2, 4, rng)
    deltas = [pe - qe for pe, qe in zip(p.effects, q.effects)]
    best = 0.0
    for signs in itertools.product((1.0, -1.0), repeat=4):
        m = sum(s * d for s, d in zip(signs, deltas))
        best = max(best, float(np.linalg.eigvalsh(m)[-1]))
    assert povm_distance(p, q) == pytest.approx(best, abs=1e-12)
