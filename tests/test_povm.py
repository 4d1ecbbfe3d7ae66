import itertools
import math
import warnings

import numpy as np
import pytest

from povmforge.detector import IsometryDetector, controlled_unitary_detector
from povmforge.linalg import CapacityError, Rng, fro_norm, haar_unitary
from povmforge.povm import (
    SUM_TOL,
    UNITARY_TOL,
    DensityState,
    Povm,
    _unit_vector,
    born_probabilities,
    check_unitaries,
    check_unitary,
    distance_bounds,
    maximally_mixed,
    observable_from_unitary,
    povm_distance,
    pure_state,
    two_outcome_distance,
)
from povmforge.su2 import covariant_qubit_detector, fiurasek_detector, fiurasek_program

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


@pytest.mark.parametrize("vector", [np.eye(2), 3.0, [[1.0, 0.0]], np.ones((2, 1))])
def test_pure_state_refuses_non_vectors(vector):
    # The stored vector is what the sparse-row program map reads.
    with pytest.raises(ValueError, match="expected a vector"):
        pure_state(vector)


def test_pure_state_normalizes():
    s = pure_state([2.0, 0.0])
    assert np.allclose(s.matrix, np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        pure_state([0.0, 0.0])
    # pure_state is the einsum outer product, bit for bit, with neither the
    # eigensolve nor the symmetrization of the checked path, which it matches
    # to roundoff.
    g = Rng(6).generator
    for n in (5, 1024):
        raw = g.standard_normal(n) + 1j * g.standard_normal(n)
        v = _unit_vector(raw)
        state = pure_state(raw).matrix
        assert np.array_equal(state, np.einsum("i,j->ij", v, v.conj()))
        assert np.abs(state - DensityState(np.outer(v, v.conj())).matrix).max() <= 1e-15


def test_empty_inputs_are_refused():
    with pytest.raises(ValueError, match="dimension must be positive"):
        maximally_mixed(0)
    with pytest.raises(ValueError, match="nonempty square"):
        DensityState(np.zeros((0, 0)))
    with pytest.raises(ValueError, match="nonempty square"):
        Povm([np.zeros((0, 0))])


@pytest.mark.parametrize("vector", [[np.inf, 0.0], [np.nan, 1.0], [1.0, -np.inf]])
def test_pure_state_refuses_nonfinite_entries(vector):
    # Refused before the normalization divides by an infinite or NaN norm.
    with pytest.raises(ValueError, match="must be finite"):
        pure_state(vector)


@pytest.mark.parametrize(
    "vector,expected",
    [
        ([1e308, 1e308], [[0.5, 0.5], [0.5, 0.5]]),
        ([1e-320, 0.0], [[1.0, 0.0], [0.0, 0.0]]),
        ([5e-324, 5e-324j], [[0.5, -0.5j], [0.5j, 0.5]]),
    ],
)
def test_pure_state_normalizes_at_extreme_scales(vector, expected):
    # Finite nonzero vectors whose unscaled norm overflows or underflows.
    assert np.allclose(pure_state(vector).matrix, expected, rtol=0, atol=1e-15)


def test_unit_vector_scaling_moves_no_bits():
    # Scaling by a power of two is exact: wherever the plain norm neither
    # overflows nor underflows, the unit vector is v / ‖v‖ bit for bit.
    g = Rng(7300).generator
    for n in (1, 2, 7, 64, 2048):
        for scale in (1e-150, 1e-20, 1.0, 1e20, 1e150):
            v = (g.standard_normal(n) + 1j * g.standard_normal(n)) * scale
            assert np.array_equal(_unit_vector(v), v / np.linalg.norm(v))
            # A strided real view, coerced to complex as before normalizing.
            real = v.real[::2]
            c = real.astype(complex)
            assert np.array_equal(_unit_vector(real), c / np.linalg.norm(c))


def _sparse_isometry_detector(order):
    # Twelve rows over five columns, each column a random real unit vector.
    cols = np.arange(12) % 5
    weights = Rng(7200).generator.standard_normal(12)
    weights /= np.sqrt(np.bincount(cols, weights ** 2))[cols]
    return IsometryDetector(
        3, 4, *(np.asarray(x.reshape(3, 4), order=order) for x in (cols, weights))
    )


# Every way a POVM or state is built, down to the array it stores.
STORED_MATRICES = {
    "Povm": lambda: random_povm(4, 3, Rng(5)).effects,
    "pure_state": lambda: pure_state(haar_unitary(6, Rng(6))[:, 0]).matrix[None],
    "projector_pair": lambda: _sparse_isometry_detector("C").joint.effects,
    "projector_pair_fortran": lambda: _sparse_isometry_detector("F").joint.effects,
    "observable_from_unitary": lambda: observable_from_unitary(haar_unitary(5, Rng(7))).effects,
    "controlled_unitary_detector": lambda: controlled_unitary_detector(
        [haar_unitary(3, Rng(8 + k)) for k in range(4)]
    ).joint.effects,
    "fiurasek_detector": lambda: fiurasek_detector(6).joint.effects,
    "fiurasek_program": lambda: fiurasek_program(haar_unitary(2, Rng(9))[:, 0], 10).matrix[None],
    "covariant_qubit_detector": lambda: covariant_qubit_detector(40.5).joint.effects,
}


@pytest.mark.parametrize("name", STORED_MATRICES)
def test_constructors_store_exactly_hermitian_matrices(name):
    # Only Povm(...) and DensityState symmetrize; pure_state and the
    # factor-built constructions are Hermitian bit for bit as built.
    for e in STORED_MATRICES[name]():
        assert np.array_equal(e, e.conj().T)


def test_set_checks_completeness_and_stores_the_stack():
    stack = np.array([np.eye(3), np.eye(3)], dtype=complex)
    with pytest.raises(ValueError, match="do not sum to identity"):
        Povm.__new__(Povm)._set(stack)
    half = stack / 2
    assert Povm.__new__(Povm)._set(half).effects is half


def haar_isometry(dim, cols, rng, real=False):
    # The first `cols` columns of a Haar unitary, or of a real orthogonal QR.
    if real:
        return np.linalg.qr(rng.generator.standard_normal((dim, dim)))[0][:, :cols]
    return haar_unitary(dim, rng)[:, :cols]


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("dim,cols", [(1, 1), (2, 1), (4, 0), (5, 3), (16, 7), (64, 64)])
def test_povm_validates_isometry_projector_pairs(dim, cols, real):
    # Full validation accepts the pair {VV†, I − VV†} of a real or complex
    # isometry and stores it as a fixed point; scaled by 1 + 1e-8, I − VV†
    # has eigenvalue −2e-8 and is refused.
    v = haar_isometry(dim, cols, Rng(7000 + dim + cols), real)
    z = v @ v.conj().T
    full = Povm([z, np.eye(dim) - z])
    assert np.array_equal(full.effects, Povm(list(full.effects)).effects)
    assert full.dim == dim and len(full) == 2
    if cols:
        z = z * (1 + 1e-8) ** 2
        with pytest.raises(ValueError, match="negative eigenvalue"):
            Povm([z, np.eye(dim) - z])


def test_projector_pair_rejects_non_isometries():
    # The isometry V of a detector is stored as sparse rows: row r holds
    # weights[r] in column cols[r]. A V that is not an isometry is refused
    # both as factors and, densified, as the pair {VV†, I − VV†}.
    det = _sparse_isometry_detector("C")
    cols, weights = det.cols.ravel(), det.weights.ravel()

    def dense(w):
        v = np.zeros((12, 5), dtype=w.dtype)
        v[np.arange(12), cols] = w
        return v

    scaled = weights * (1 + 1e-8)
    # I − VV† then has eigenvalue −2e-8, so full validation refuses it too.
    for bad, message in ((scaled, "not orthonormal"), (scaled.astype(complex), "real and finite")):
        with pytest.raises(ValueError, match=message):
            IsometryDetector(3, 4, cols, bad)
        z = dense(bad) @ dense(bad).conj().T
        with pytest.raises(ValueError, match="negative eigenvalue"):
            Povm([z, np.eye(12) - z])
    nan = weights.copy()
    nan[0] = np.nan
    with pytest.raises(ValueError, match="real and finite"):
        IsometryDetector(3, 4, cols, nan)
    # Unit columns that are not orthogonal: VV† has eigenvalue 1 + 1/√2.
    v = dense(weights)
    v[:, 1] = (v[:, 0] + v[:, 1]) / np.sqrt(2)
    z = v @ v.T
    with pytest.raises(ValueError, match="negative eigenvalue"):
        Povm([z, np.eye(12) - z])


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
def test_observable_from_unitary_matches_full_validation(n):
    rng = Rng(7100 + n)
    for _ in range(10):
        p = observable_from_unitary(haar_unitary(n, rng))
        assert np.array_equal(p.effects, Povm(list(p.effects)).effects)


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
    # An empty product has a zero residual; the 0×0 matrix is refused first.
    for make in (check_unitary, observable_from_unitary):
        with pytest.raises(ValueError, match="nonempty square"):
            make(np.zeros((0, 0)))
    with pytest.raises(ValueError, match="finite"):
        check_unitary(np.array([[1.0, 0.0], [0.0, np.nan]]))


def test_check_unitaries_screens_the_stack_then_judges_by_operator_norm():
    stack = np.stack([haar_unitary(3, Rng(70 + k)) for k in range(40)])
    assert np.array_equal(check_unitaries(stack), stack)
    assert check_unitaries(np.zeros((0, 3, 3))).shape == (0, 3, 3)
    # Past the Frobenius screen, the matrix's own ‖U†U − I‖₂ decides, as in
    # check_unitary.
    near = np.eye(100) * np.sqrt(1 + 0.9 * UNITARY_TOL)
    far = np.eye(100) * np.sqrt(1 + 1.1 * UNITARY_TOL)
    assert np.array_equal(check_unitaries(np.stack([np.eye(100), near])), [np.eye(100), near])
    with pytest.raises(ValueError, match="not unitary"):
        check_unitaries(np.stack([near, far, np.eye(100)]))


def test_check_unitary_refuses_an_overflowed_residual():
    # U†U overflows to inf, and the eigensolve of the residual gives NaN.
    huge = np.diag([1e200, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for check in (check_unitary, lambda u: check_unitaries(u[None])):
            with pytest.raises(ValueError, match="not unitary"):
                check(huge)


def test_check_unitaries_rejects_malformed_input():
    for bad in (np.eye(2), np.ones((1, 2, 3)), np.zeros((1, 0, 0))):
        with pytest.raises(ValueError, match="nonempty square"):
            check_unitaries(bad)
    stack = np.stack([np.eye(2)] * 3)
    stack[2, 1, 1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        check_unitaries(stack)


def test_observable_rejects_nonunitary():
    with pytest.raises(ValueError):
        observable_from_unitary(np.diag([1.0, 0.5]))
    # Its effects skip the positivity eigensolve, so unitarity must hold.
    with pytest.raises(ValueError, match="not unitary"):
        observable_from_unitary(haar_unitary(3, Rng(42)) * (1 + 1e-8))


def test_distance_identical_is_zero():
    p = observable_from_unitary(haar_unitary(3, Rng(55)))
    assert povm_distance(p, p) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_distance_identical_is_positive_zero(k):
    # Every signed sum is the zero matrix, whose −(lowest eigenvalue) is −0.0.
    p = random_povm(2, k, Rng(70 + k))
    d = povm_distance(p, p)
    assert d == 0.0 and math.copysign(1.0, d) == 1.0


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
