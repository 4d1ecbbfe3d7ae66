import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from povmforge import povm
from povmforge.detector import (
    Detector,
    IsometryDetector,
    controlled_unitary_detector,
    estimate_accuracy,
    program,
)
from povmforge.linalg import (
    HERM_TOL,
    CapacityError,
    Rng,
    as_matrix,
    check_hermitian,
    check_hermitians,
    fro_norm,
    haar_unitaries,
    haar_unitary,
)
from povmforge.povm import (
    SIGN_BLOCK_ENTRIES,
    SUM_TOL,
    UNITARY_TOL,
    DensityState,
    Povm,
    _floor,
    _quartic,
    _scores,
    _signed_extremes,
    _signs,
    _slack,
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


def loop_check_hermitian(m):
    # The one-matrix check that Povm ran per effect before its grouped checks.
    a = as_matrix(m)
    if a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError("hermitian check requires a nonempty square matrix")
    dev = np.abs(a - a.conj().T).max()
    if dev > HERM_TOL:
        raise ValueError(f"matrix is not hermitian: max deviation {dev:.3e} > {HERM_TOL:.0e}")
    return (a + a.conj().T) / 2


def loop_effect_stack(effects):
    # Oracle: Povm's per-effect validation loop, each effect checked alone in
    # order and symmetrized into the preallocated stack.
    effects = list(effects)
    if not effects:
        raise ValueError("a POVM needs at least one effect")
    dim = as_matrix(effects[0]).shape[0]
    stack = np.empty((len(effects), dim, dim), dtype=complex)
    for k, e in enumerate(effects):
        e = loop_check_hermitian(e)
        if e.shape != (dim, dim):
            raise ValueError("all effects must share one dimension")
        stack[k] = e
    return stack


def raised(call, *args):
    """The type and message of the exception `call(*args)` raises."""
    with pytest.raises(Exception) as info:
        call(*args)
    return type(info.value), str(info.value)


def noisy_povm_effects(k, n, seed):
    # A random POVM (G_i G_i†, normalized by the inverse square root of their
    # sum) whose effects carry 1e-12 of non-Hermitian noise.
    g = np.random.default_rng([seed, k, n])
    z = g.standard_normal((k, n, n)) + 1j * g.standard_normal((k, n, n))
    parts = z @ z.conj().transpose(0, 2, 1)
    w, v = np.linalg.eigh(parts.sum(axis=0))
    isq = (v / np.sqrt(w)) @ v.conj().T
    return isq @ parts @ isq + 1e-12 * (g.standard_normal((k, n, n)) + 1j * g.standard_normal((k, n, n)))


# None keeps the default group; 1 checks one effect a group, 50 a few.
@pytest.mark.parametrize("entries", [None, 1, 50])
@pytest.mark.parametrize("k, n", [(2, 2), (16, 4), (3, 8), (40, 16), (2, 100), (300, 16), (3, 300)])
def test_grouped_validation_matches_the_per_effect_loop(k, n, entries, monkeypatch):
    if entries is not None:
        monkeypatch.setattr(povm, "_HERM_GROUP_ENTRIES", entries)
    effects = noisy_povm_effects(k, n, 3101)
    want = loop_effect_stack(effects)
    assert not np.array_equal(want, effects)
    for given in (effects, list(effects)):
        got = Povm(given).effects
        assert got.dtype == complex and np.array_equal(got, want)


GOOD = np.diag([0.5, 0.0])
NON_HERMITIAN = np.array([[0.0, 1.0], [0.0, 0.0]])
NAN = np.array([[np.nan, 0.0], [0.0, 1.0]])
BAD_EFFECTS = {
    "non-hermitian-then-nan": [GOOD, NON_HERMITIAN, NAN, GOOD],
    "nan-then-non-hermitian": [GOOD, NAN, NON_HERMITIAN, GOOD],
    "non-hermitian-first-then-nan": [NON_HERMITIAN, NAN],
    "inf": [GOOD, np.diag([np.inf, 0.0])],
    "ragged-third": [GOOD, GOOD, [[1.0, 0.0], [0.0]]],
    "non-hermitian-then-ragged": [GOOD, NON_HERMITIAN, [[1.0, 0.0], [0.0]]],
    "ragged-then-non-hermitian": [GOOD, [[1.0, 0.0], [0.0]], NON_HERMITIAN],
    "other-dimension-third": [GOOD, GOOD, np.eye(3)],
    "non-square": [GOOD, np.ones((2, 3))],
    "non-square-first": [np.ones((2, 3)), GOOD],
    "one-dimensional": [GOOD, np.array([1.0, 0.0])],
    "empty": [GOOD, np.zeros((0, 0))],
    "empty-first": [np.zeros((0, 0)), GOOD],
    "non-numeric": [GOOD, [["a", "b"], ["c", "d"]]],
    "no-effects": [],
}


@pytest.mark.parametrize("entries", [None, 1, 4])
@pytest.mark.parametrize("name", BAD_EFFECTS)
def test_grouped_validation_raises_the_per_effect_loops_error(name, entries, monkeypatch):
    # The first bad effect in order raises, with its first failing check in
    # the order ndim, finite, nonempty square, hermiticity, then shape.
    if entries is not None:
        monkeypatch.setattr(povm, "_HERM_GROUP_ENTRIES", entries)
    effects = BAD_EFFECTS[name]
    want = raised(loop_effect_stack, effects)
    assert raised(Povm, effects) == want
    try:
        stacked = np.array(effects, dtype=complex)
    except ValueError:
        return
    assert raised(Povm, stacked) == want


def test_grouped_validation_raises_in_a_later_group(monkeypatch):
    # Groups of two effects: the non-Hermitian fifth effect is in the third group.
    monkeypatch.setattr(povm, "_HERM_GROUP_ENTRIES", 8)
    effects = np.stack([GOOD] * 4 + [NON_HERMITIAN * 1e-9, NAN])
    want = raised(loop_effect_stack, effects)
    assert want[1].startswith("matrix is not hermitian: max deviation 1.000e-09")
    assert raised(Povm, effects) == want == raised(Povm, list(effects))


def test_check_hermitians_judges_each_matrix_as_check_hermitian_does():
    stack = noisy_povm_effects(5, 3, 3102)
    got = check_hermitians(stack)
    assert np.array_equal(got, np.stack([check_hermitian(m) for m in stack]))
    assert np.array_equal(got, np.stack([loop_check_hermitian(m) for m in stack]))
    out = np.empty_like(got)
    assert check_hermitians(stack, out=out) is out and np.array_equal(out, got)
    for bad in ([GOOD, NON_HERMITIAN, NAN], [GOOD, NAN, NON_HERMITIAN]):
        assert raised(check_hermitians, bad) == raised(loop_effect_stack, bad)
    for malformed in (GOOD, np.zeros((2, 0, 0)), np.ones((1, 2, 3))):
        with pytest.raises(ValueError, match="nonempty square"):
            check_hermitians(malformed)


def test_check_hermitians_refuses_entries_that_are_not_numbers():
    for bad in ([[[10**400]]], [[["1"]]], [[[None]]]):
        with pytest.raises(ValueError, match="must be numbers"):
            check_hermitians(bad)
    assert raised(check_hermitians, [GOOD, NON_HERMITIAN, NAN])[1].startswith(
        "matrix is not hermitian")
    # A group that holds such an entry is checked one effect at a time, so
    # the first bad effect still raises its own error.
    huge = [[10**400, 0], [0, 0]]
    assert raised(Povm, [GOOD, NON_HERMITIAN, huge]) == raised(loop_effect_stack, [GOOD, NON_HERMITIAN])
    assert raised(Povm, [GOOD, huge, NON_HERMITIAN])[0] is ValueError


def test_povm_validation_holds_no_temporary_beyond_one_group():
    # At dimension 512 each effect (4 MiB) is a group of its own. The
    # per-effect loop peaked at 16.13 MiB (the 8 MiB stack and two effects of
    # temporaries); the grouped check holds the stack, m − m† and its absolute
    # values, 14 MiB.
    n = 512
    z = np.diag(np.linspace(0.0, 1.0, n)).astype(complex)
    effects = [z, np.eye(n) - z]
    peaks = []
    for call in (loop_effect_stack, Povm):
        tracemalloc.start()
        try:
            call(effects)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    oracle, grouped = peaks
    assert grouped <= oracle
    assert grouped <= (2 + 1.5) * z.nbytes + 2**16


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


@pytest.mark.parametrize("n, k, seed", [(2, 2, 0), (3, 5, 1), (4, 16, 2), (8, 6, 3)])
def test_distance_bounds_operator_norms_match_svd(n, k, seed):
    # The eigvalsh norms of the Hermitian Δ_i agree with the SVD ones, and
    # the chain δ ≤ Σ‖Δ‖ ≤ Σ‖Δ‖₂ holds.
    rng = Rng(1960 + seed)
    p, q = random_povm(n, k, rng), random_povm(n, k, rng)
    sum_op, sum_fro = distance_bounds(p, q)
    svd = np.linalg.norm(p.effects - q.effects, 2, axis=(1, 2)).sum()
    assert abs(sum_op - svd) <= 1e-14 * svd
    assert povm_distance(p, q) <= sum_op <= sum_fro
    swapped = Povm(p.effects[::-1])
    sum_op, _ = distance_bounds(p, swapped)
    svd = np.linalg.norm(p.effects - swapped.effects, 2, axis=(1, 2)).sum()
    assert abs(sum_op - svd) <= 1e-14 * svd


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


def exhaustive_extremes(deltas, rows=512):
    """Reference blocked enumeration of an (m, k, n, n) stack: every signed
    sum is formed and eigensolved, `rows` sign vectors at a time, and the
    first one that attains each stack's maximum is kept."""
    m, k, n, _ = deltas.shape
    flat = np.ascontiguousarray(deltas).view(float).reshape(m, k, 2 * n * n)
    count = 1 << (k - 1)
    shifts = np.arange(k - 2, -1, -1)
    best = np.full(m, -np.inf)
    winner = np.empty((m, n, n), dtype=complex)
    for start in range(0, count, rows):
        index = np.arange(start, min(start + rows, count))
        signs = np.ones((len(index), k))
        signs[:, 1:] -= 2 * ((index[:, None] >> shifts) & 1)
        sums = (signs @ flat).view(complex).reshape(m, len(index), n, n)
        vals = np.linalg.eigvalsh(sums)
        score = np.maximum(vals[..., -1], -vals[..., 0]) + 0.0
        top = score.argmax(axis=1)
        value = score[np.arange(m), top]
        better = value > best
        best[better] = value[better]
        winner[better] = sums[better, top[better]]
    return best, winner


def assert_witness_attains(p, q, d, witness):
    gap = np.abs(np.subtract(born_probabilities(witness, p), born_probabilities(witness, q)))
    assert abs(gap.sum() - d) <= 1e-12


def assert_matches_loop(p, q):
    want = loop_distance(p, q)
    d, witness = povm_distance(p, q, return_witness=True)
    assert abs(d - want) <= 1e-12
    assert_witness_attains(p, q, d, witness)


def assert_matches_exhaustive(p, q):
    want, _ = exhaustive_extremes((p.effects - q.effects)[None])
    d, witness = povm_distance(p, q, return_witness=True)
    assert abs(d - want[0]) <= 1e-12
    assert_witness_attains(p, q, d, witness)
    return d


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
    k = 16
    a = np.diag([0.04, -0.02, 0.01, -0.03]) + 0.01 * np.eye(4)[::-1]
    q = Povm([np.eye(4) / k] * k)
    p = Povm([np.eye(4) / k + a] + [np.eye(4) / k - a / (k - 1)] * (k - 1))
    assert_matches_exhaustive(p, q)
    assert povm_distance(p, q) == pytest.approx(2 * np.linalg.norm(a, 2), abs=1e-12)


# Random 16- and 20-outcome pairs on dimension 4, as the benchmark draws them;
# the pruned enumeration must agree with the exhaustive one.
@pytest.mark.parametrize("k, seed", [(16, 0), (16, 1), (16, 2), (20, 3)])
def test_pruned_distance_matches_exhaustive_enumeration(k, seed):
    rng = Rng(1900 + seed)
    assert_matches_exhaustive(random_povm(4, k, rng), random_povm(4, k, rng))


@pytest.mark.parametrize("rank_one", [False, True])
def test_pruned_enumeration_where_the_bound_is_tight(rank_one):
    # Δ_i = c_i·A with A = |v⟩⟨v| − I/n (trace 0) or |v⟩⟨v|: every signed sum
    # is a multiple of A, whose spectrum meets Samuelson's bound with equality,
    # so each row's bound is its score and only the slack keeps the winner.
    n, k = 4, 16
    g = Rng(1910 + rank_one).generator
    v = g.standard_normal(n) + 1j * g.standard_normal(n)
    a = np.outer(v, v.conj()) / np.vdot(v, v).real
    if not rank_one:
        a -= np.eye(n) / n
    deltas = (g.uniform(-1, 1, k)[:, None, None] * a)[None]
    got, winner = _signed_extremes(deltas)
    want, first = exhaustive_extremes(deltas)
    assert abs(got[0] - want[0]) <= 1e-12
    assert np.abs(winner - first).max() <= 1e-12
    assert np.abs(np.linalg.eigvalsh(winner[0])).max() == got[0]


@pytest.mark.parametrize("seed, n", [(0, 3), (73, 4), (91, 3), (81, 3)])
def test_pruned_enumeration_keeps_the_first_of_tied_sums(seed, n):
    # Each Δ_i is (±1, ±2 or ±3)/8 in one diagonal entry, so every signed sum
    # and its spectrum are exact, many distinct sums tie at the maximum, and
    # a sum with a single nonzero entry meets its bound with equality. On
    # these draws a later tied sum lies in a block visited first: the first
    # one enumerated must still win, which takes a slack of at least zero.
    # At seed 81 the first tied sum's computed bound falls below its score,
    # so it survives only by the slack.
    g = Rng(seed).generator
    deltas = np.zeros((1, 16, n, n), dtype=complex)
    at = g.integers(0, n, 16)
    deltas[0, np.arange(16), at, at] = g.integers(1, 4, 16) * g.choice([-1, 1], 16) / 8
    got, winner = _signed_extremes(deltas)
    want, first = exhaustive_extremes(deltas)
    assert got[0] == want[0] and np.array_equal(winner, first)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
@pytest.mark.parametrize("kind", ["random", "near_rank_one", "tiny"])
def test_quartic_bound_plus_slack_covers_every_score(n, kind):
    # Every signed sum of a 10-outcome Hermitian stack, formed as the pruned
    # enumeration forms it, scores at most its computed (Tr S⁴)^¼ plus the
    # slack. Near-rank-one sums meet the bound but for their 1e-12 noise, so
    # rounding decides; at entries near 1e-150 the fourth powers lie far
    # below the smallest double.
    k = 10
    g = np.random.default_rng([2010, n])
    z = g.standard_normal((k, n, n)) + 1j * g.standard_normal((k, n, n))
    deltas = (z + z.conj().transpose(0, 2, 1)) / 2
    if kind != "random":
        v = g.standard_normal(n) + 1j * g.standard_normal(n)
        ray = np.outer(v, v.conj()) / np.vdot(v, v).real
        deltas = g.uniform(-1, 1, k)[:, None, None] * ray + 1e-12 * deltas
    if kind == "tiny":
        deltas *= 1e-150
    flat = deltas.view(float).reshape(k, 2 * n * n)
    sums = (_signs(np.arange(1 << (k - 1)), k) @ flat).view(complex).reshape(-1, n, n)
    frob = np.linalg.norm(deltas, axis=(1, 2)).sum()
    score, quartic = _scores(sums), _quartic(sums, frob)
    assert (score <= quartic + _slack(n, k, frob)).all()
    if kind != "random":
        # The bound is tight here, so the check above is not vacuous.
        assert (quartic - score <= 1e-9 * frob).all()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
@pytest.mark.parametrize("kind", ["random", "near_rank_one", "tiny"])
def test_frobenius_bound_plus_slack_covers_every_score(n, kind):
    # Every signed sum of a 10-outcome Hermitian stack scores at most √f plus
    # the slack, with f = ‖S‖_F² formed as the pruned enumeration's first
    # screen forms it: head, tail and head × tail parts of sᵀGs. Near-rank-one
    # sums have ‖S‖₂ = ‖S‖_F but for their 1e-12 noise, so rounding decides.
    k, h = 10, 4
    g = np.random.default_rng([2015, n])
    z = g.standard_normal((k, n, n)) + 1j * g.standard_normal((k, n, n))
    deltas = (z + z.conj().transpose(0, 2, 1)) / 2
    if kind != "random":
        v = g.standard_normal(n) + 1j * g.standard_normal(n)
        ray = np.outer(v, v.conj()) / np.vdot(v, v).real
        deltas = g.uniform(-1, 1, k)[:, None, None] * ray + 1e-12 * deltas
    if kind == "tiny":
        deltas *= 1e-150
    flat = deltas.view(float).reshape(k, 2 * n * n)
    gram = flat @ flat.T
    head = _signs(np.arange(1 << (h - 1)), h)
    tail = _signs(np.arange(1 << (k - h)), k - h + 1)[:, 1:]
    f = (
        ((head @ gram[:h, :h]) * head).sum(axis=-1)[:, None]
        + ((tail @ gram[h:, h:]) * tail).sum(axis=-1)
        + 2 * (head @ gram[:h, h:]) @ tail.T
    ).ravel()
    sums = (_signs(np.arange(1 << (k - 1)), k) @ flat).view(complex).reshape(-1, n, n)
    frob = np.linalg.norm(deltas, axis=(1, 2)).sum()
    score, root = _scores(sums), np.sqrt(np.maximum(f, 0.0))
    assert (score <= root + _slack(n, k, frob)).all()
    if kind != "random":
        # The bound is tight here, so the check above is not vacuous.
        assert (root - score <= 1e-9 * frob).all()


def einsum_floor(deltas):
    """Reference ascent of :func:`_floor`, its expectations and signed sums
    formed by complex einsums over the (k, n, n) stack."""
    k = len(deltas)
    vals, vecs = np.linalg.eigh(deltas)
    psi = vecs[np.arange(k), :, np.abs(vals).argmax(axis=1)]
    floor = -np.inf
    while True:
        e = np.einsum("ja,iab,jb->ji", psi.conj(), deltas, psi).real
        value = np.abs(e).sum(axis=1).max()
        if not value > floor:
            return floor
        floor = value
        psi = np.linalg.eigh(np.einsum("ji,iab->jab", np.sign(e), deltas))[1][..., -1]


@pytest.mark.parametrize("n, k", [(2, 14), (3, 12), (4, 16), (5, 12)])
def test_floor_matches_the_einsum_ascent(n, k):
    # The floor's real matrix products round differently from the einsums:
    # within k·n·u·F (u the unit roundoff, F = Σ_i ‖Δ_i‖_F), 0.023·k·n·u·F at
    # most on these draws.
    u = np.finfo(float).eps / 2
    for seed in range(10):
        g = np.random.default_rng([1990, n, k, seed])
        p, q = bench_povm(g, k, n), bench_povm(g, k, n)
        deltas = p.effects - q.effects
        frob = np.linalg.norm(deltas, axis=(1, 2)).sum()
        assert abs(_floor(deltas) - einsum_floor(deltas)) <= k * n * u * frob


def count_eigensolves(monkeypatch):
    """Patch eigvalsh and eigh to record the matrices each call solves."""
    solved = []
    for name in ("eigvalsh", "eigh"):

        def counting(a, solve=getattr(np.linalg, name)):
            solved.append(np.prod(np.shape(a)[:-2], dtype=int))
            return solve(a)

        monkeypatch.setattr(np.linalg, name, counting)
    return solved


def test_pruned_enumeration_eigensolves_few_sums(monkeypatch):
    # A random 16-outcome pair eigensolves at most 86 matrices, floor
    # included, against its 2^15 sums: 70 measured (64 of them the floor's,
    # four ascent steps of 16), plus one more floor step of margin. A swap
    # pair, with 14 zero Δ_i dropped, eigensolves its 2.
    rng = Rng(1925)
    p, q = random_povm(4, 16, rng), random_povm(4, 16, rng)
    order = np.arange(16)
    order[[2, 9]] = [9, 2]
    swapped = Povm(p.effects[order])
    solved = count_eigensolves(monkeypatch)
    povm_distance(p, q)
    assert 0 < sum(solved) <= 86
    solved.clear()
    povm_distance(p, swapped)
    assert sum(solved) == 2


def test_pruned_enumeration_eigensolves_few_sums_at_the_cap(monkeypatch):
    # A random 20-outcome pair eigensolves at most 102 matrices, floor
    # included, against its 2^19 sums: 82 measured, plus one more floor step
    # of 20 matrices of margin.
    rng = Rng(1903)
    p, q = random_povm(4, 20, rng), random_povm(4, 20, rng)
    solved = count_eigensolves(monkeypatch)
    povm_distance(p, q)
    assert 0 < sum(solved) <= 102


def test_pruned_enumeration_memory_at_the_cap():
    # Bounds, survivors and signed sums are held a chunk or a block at a time:
    # a 20-outcome call on dimension 4 peaks well under 1 MiB.
    rng = Rng(1903)
    p, q = random_povm(4, 20, rng), random_povm(4, 20, rng)
    tracemalloc.start()
    try:
        povm_distance(p, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


def bench_povm(g, k, n=4):
    # Random POVM as the distance benchmark draws it: the G G† parts,
    # normalized by the inverse square root of their sum, then symmetrized.
    z = g.standard_normal((k, n, n)) + 1j * g.standard_normal((k, n, n))
    parts = z @ z.conj().transpose(0, 2, 1)
    w, v = np.linalg.eigh(parts.sum(axis=0))
    isq = (v / np.sqrt(w)) @ v.conj().T
    e = isq @ parts @ isq
    return Povm((e + e.conj().transpose(0, 2, 1)) / 2)


# k = 16 spans four chunks of 8192 bounds, k = 20 sixty-four.
@pytest.mark.parametrize("k, seed", [(16, 0), (16, 1), (16, 2), (16, 3), (20, 0), (20, 1)])
def test_chunked_enumeration_matches_exhaustive_bit_for_bit(k, seed):
    g = np.random.default_rng([1950, k, seed])
    p, q = bench_povm(g, k), bench_povm(g, k)
    deltas = (p.effects - q.effects)[None]
    got, winner = _signed_extremes(deltas)
    want, first = exhaustive_extremes(deltas)
    assert got[0] == want[0] and np.array_equal(winner, first)


# k = 14 fits one chunk of 8192 bounds, k = 17 spans eight and k = 19 thirty-two.
@pytest.mark.parametrize("k", [14, 17, 19])
def test_pruned_enumeration_matches_exhaustive_bit_for_bit_at_other_chunk_counts(k):
    for seed in range(4):
        g = np.random.default_rng([1950, k, seed])
        p, q = bench_povm(g, k), bench_povm(g, k)
        deltas = (p.effects - q.effects)[None]
        got, winner = _signed_extremes(deltas)
        want, first = exhaustive_extremes(deltas)
        assert got[0] == want[0] and np.array_equal(winner, first)


@pytest.mark.parametrize("scale", [1e-90, 1e-140, 1e-300])
def test_pruned_enumeration_of_tiny_differences_matches_exhaustive(scale):
    # Tr S⁴ of these sums lies below the smallest double, so the quartic
    # screen must scale each sum up before squaring it; at 1e-300 every sum
    # falls under the slack's absolute term and is eigensolved.
    g = np.random.default_rng([1955, 16])
    p, q = bench_povm(g, 16), bench_povm(g, 16)
    deltas = (p.effects - q.effects)[None] * scale
    got, winner = _signed_extremes(deltas)
    want, first = exhaustive_extremes(deltas)
    assert got[0] == want[0] and np.array_equal(winner, first)


def test_pruned_enumeration_memory_when_every_sum_survives(monkeypatch):
    # Scaled by 1e-300, every bound falls under the slack's absolute term, so
    # all 2^13 sums of an n = 8, k = 14 pair pass every screen and are
    # eigensolved. They are formed a block at a time: the whole chunk's sums
    # would take 8 MiB.
    g = np.random.default_rng([1965, 8, 14])
    p, q = bench_povm(g, 14, 8), bench_povm(g, 14, 8)
    deltas = (p.effects - q.effects)[None] * 1e-300
    want, first = exhaustive_extremes(deltas)
    solved = count_eigensolves(monkeypatch)
    tracemalloc.start()
    try:
        got, winner = _signed_extremes(deltas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got[0] == want[0] and np.array_equal(winner, first)
    assert sum(solved) >= 2**13
    assert peak <= 2 * 2**20


@pytest.mark.parametrize("n, k", [(2, 14), (3, 12), (5, 12)])
def test_pruned_enumeration_within_rounding_of_exhaustive(n, k):
    # Off n = 4 the pruned and the full enumeration form the winning sum in
    # products of different row counts, so it may differ in the last bits.
    # Each computed k-term sum is within k·u·F of the exact one in ‖·‖_F
    # (u the unit roundoff, F = Σ_i ‖Δ_i‖_F), so the two are within 2k·u·F;
    # each eigvalsh adds a backward error of about n·u·‖S‖₂ ≤ n·u·F. A
    # different winning sign vector would be off by far more.
    u = np.finfo(float).eps / 2
    for seed in range(10):
        g = np.random.default_rng([1960, n, k, seed])
        p, q = bench_povm(g, k, n), bench_povm(g, k, n)
        deltas = (p.effects - q.effects)[None]
        frob = np.linalg.norm(deltas[0], axis=(1, 2)).sum()
        got, winner = _signed_extremes(deltas)
        want, first = exhaustive_extremes(deltas)
        assert np.linalg.norm(winner - first) <= 2 * k * u * frob
        assert abs(got[0] - want[0]) <= 2 * (k + n) * u * frob


@pytest.mark.parametrize("n, k", [(2, 14), (3, 12), (4, 16), (5, 12)])
def test_floor_never_exceeds_the_distance(n, k):
    # The floor is a value some state attains, so at most δ. Its own rounding
    # (expectations of k effects, summed) measures under 0.2·k·n·u·F on these
    # draws, where it meets δ.
    u = np.finfo(float).eps / 2
    for seed in range(10):
        g = np.random.default_rng([1980, n, k, seed])
        p, q = bench_povm(g, k, n), bench_povm(g, k, n)
        deltas = p.effects - q.effects
        frob = np.linalg.norm(deltas, axis=(1, 2)).sum()
        want, _ = exhaustive_extremes(deltas[None])
        assert _floor(deltas) <= want[0] + k * n * u * frob


@pytest.mark.parametrize("n, k, seed", [(3, 12, 1995), (4, 16, 1987)])
def test_enumeration_where_the_floor_stops_below_the_distance(n, k, seed):
    # On these draws the ascent stops at a local maximum, 6.4% and 2.5% below
    # δ, so the bounds alone must find the maximizer: bit for bit at n = 4,
    # within the rounding of test_pruned_enumeration_within_rounding_of_exhaustive
    # otherwise.
    rng = Rng(seed)
    p, q = random_povm(n, k, rng), random_povm(n, k, rng)
    deltas = (p.effects - q.effects)[None]
    got, winner = _signed_extremes(deltas)
    want, first = exhaustive_extremes(deltas)
    assert _floor(deltas[0]) < 0.98 * want[0]
    if n == 4:
        assert got[0] == want[0] and np.array_equal(winner, first)
    u = np.finfo(float).eps / 2
    frob = np.linalg.norm(deltas[0], axis=(1, 2)).sum()
    assert np.linalg.norm(winner - first) <= 2 * k * u * frob
    assert abs(got[0] - want[0]) <= 2 * (k + n) * u * frob


@pytest.mark.parametrize("m", [226, 227, 228, 455])
def test_stacks_share_a_block_where_their_enumerations_fit(m):
    # At k = 3, n = 3 a block holds the 4 signed sums of 227 stacks: 228 and
    # 455 stacks run as two and three groups, each formed whole.
    assert SIGN_BLOCK_ENTRIES // (3 * 3 << 2) == 227
    target = observable_from_unitary(haar_unitary(3, Rng(1970)))
    deltas = target.effects - np.stack(
        [observable_from_unitary(u).effects for u in haar_unitaries(3, m, Rng(1971))]
    )
    got, winner = _signed_extremes(deltas)
    want, first = exhaustive_extremes(deltas)
    assert np.array_equal(got, want) and np.array_equal(winner, first)


@pytest.mark.parametrize("m, k, n", [(3, 16, 4), (5, 12, 3)])
def test_pruned_stacks_each_run_alone(m, k, n):
    # Enumerations too long for one block are pruned one stack at a time:
    # each stack's value is its pair's distance, bit for bit.
    rng = Rng(1972 + n)
    pairs = [(random_povm(n, k, rng), random_povm(n, k, rng)) for _ in range(m)]
    got, _ = _signed_extremes(np.stack([p.effects - q.effects for p, q in pairs]))
    assert got.tolist() == [povm_distance(p, q) for p, q in pairs]


def test_many_stack_memory():
    # The observables of 995 qutrit centres against one target: groups of
    # 227 stacks, each one block, peak well under 512 KiB.
    target = observable_from_unitary(haar_unitary(3, Rng(1973)))
    deltas = target.effects - np.stack(
        [observable_from_unitary(u).effects for u in haar_unitaries(3, 995, Rng(1974))]
    )
    tracemalloc.start()
    try:
        _signed_extremes(deltas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 512 * 1024


def test_zero_outcomes_are_dropped_before_enumerating():
    # P against itself has no nonzero Δ_i; a swap pair has two. Either way the
    # result equals the full 2^15-sum enumeration's.
    p = random_povm(4, 16, Rng(1920))
    d = povm_distance(p, p)
    assert d == 0.0 and math.copysign(1.0, d) == 1.0
    order = np.arange(16)
    order[[3, 11]] = [11, 3]
    q = Povm(p.effects[order])
    deltas = (p.effects - q.effects)[None]
    got, winner = _signed_extremes(deltas)
    want, first = exhaustive_extremes(deltas)
    assert got[0] == want[0] and np.array_equal(winner, first)
    assert assert_matches_exhaustive(p, q) == pytest.approx(
        2 * np.linalg.norm(p.effects[3] - p.effects[11], 2), abs=1e-12
    )


def test_estimate_accuracy_prunes_a_stack_across_blocks():
    # Four candidate programs of a 12-outcome detector make an (m, k, n, n) =
    # (4, 12, 4, 4) stack, pruned one stack at a time: 512 sign vectors a
    # block, 4 blocks.
    rng = Rng(1930)
    det = Detector(4, 2, random_povm(8, 12, rng))
    states = [DensityState(np.diag(w)) for w in ((1, 0), (0, 1), (0.5, 0.5), (0.8, 0.2))]
    targets = [random_povm(4, 12, rng) for _ in range(3)]
    report = estimate_accuracy(det, targets, states)
    stack = np.stack([program(det, s).effects for s in states])
    for target, result in zip(targets, report.per_target):
        want, _ = exhaustive_extremes(target.effects - stack, rows=128)
        assert abs(result.delta - want.min()) <= 1e-12
        assert result.program_index == int(np.argmin(want))


def test_estimate_accuracy_prunes_a_stack_across_chunks():
    # Two candidate programs of a 16-outcome detector make a (2, 16, 4, 4)
    # stack, whose enumerations are too long to share a block: each stack is
    # pruned alone, 512 sign vectors a block, 16 blocks a chunk, 4 chunks.
    rng = Rng(1931)
    det = Detector(4, 2, random_povm(8, 16, rng))
    states = [DensityState(np.diag(w)) for w in ((1, 0), (0.3, 0.7))]
    targets = [random_povm(4, 16, rng) for _ in range(3)]
    report = estimate_accuracy(det, targets, states)
    stack = np.stack([program(det, s).effects for s in states])
    for target, result in zip(targets, report.per_target):
        got, winner = _signed_extremes(target.effects - stack)
        want, first = exhaustive_extremes(target.effects - stack, rows=256)
        assert np.array_equal(got, want) and np.array_equal(winner, first)
        assert result.delta == want.min()
        assert result.program_index == int(np.argmin(want))


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
