import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povmforge.covariant import CovariantSeed, covariant_density, double_ket
from povmforge.detector import ControlledUnitaryDetector, Detector, IsometryDetector
from povmforge.linalg import (
    Rng,
    as_array,
    as_matrix,
    as_real,
    check_hermitian,
    check_hermitians,
    fro_norm,
    haar_unitaries,
    haar_unitary,
    herm_eigs,
    op_norm,
    partial_trace_ancilla,
    tensor,
)
from povmforge.povm import (
    DensityState,
    Povm,
    check_unitaries,
    check_unitary,
    maximally_mixed,
    observable_from_unitary,
    pure_state,
)
from povmforge.serialize import matrix_from_json
from povmforge.su2 import (
    GroupElement,
    dicke_state,
    fiurasek_detector,
    fiurasek_program,
    symmetric_projector,
)
from povmforge.unet import UnitaryNet, build_net, quotient_distance


def rand_herm(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def test_tensor_identity():
    assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_basis_projectors():
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    assert np.array_equal(tensor(p0, p1), np.diag([0.0, 1.0, 0.0, 0.0]))


def test_tensor_index_formula():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    t = tensor(a, b)
    for i in range(2):
        for j in range(2):
            for k in range(3):
                for l in range(3):
                    assert t[3 * i + k, 3 * j + l] == pytest.approx(a[i, j] * b[k, l])


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2 ** 31))
def test_tensor_associative(da, db, dc, seed):
    rng = np.random.default_rng(seed)
    a, b, c = (rand_herm(rng, d) for d in (da, db, dc))
    lhs = tensor(tensor(a, b), c)
    rhs = tensor(a, tensor(b, c))
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_partial_trace_product_state():
    rng = np.random.default_rng(3)
    rho = rand_herm(rng, 3)
    sigma = rand_herm(rng, 4)
    out = partial_trace_ancilla(tensor(rho, sigma), 3, 4)
    assert np.abs(out - np.trace(sigma) * rho).max() <= 1e-12


def test_partial_trace_identity():
    assert np.abs(partial_trace_ancilla(np.eye(6), 2, 3) - 3 * np.eye(2)).max() == 0


def test_partial_trace_matches_index_sum():
    rng = np.random.default_rng(5)
    m = rand_herm(rng, 4)
    out = partial_trace_ancilla(m, 2, 2)
    expect = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for a in range(2):
                expect[i, j] += m[i * 2 + a, j * 2 + a]
    assert np.abs(out - expect).max() <= 1e-14


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(6)
    m = rand_herm(rng, 12)
    out = partial_trace_ancilla(m, 3, 4)
    assert abs(np.trace(out) - np.trace(m)) <= 1e-12


def test_partial_trace_shape_error():
    with pytest.raises(ValueError):
        partial_trace_ancilla(np.eye(5), 2, 2)


def test_herm_eigs_diagonal():
    assert np.allclose(herm_eigs(np.diag([3.0, 1.0, 2.0])), [1, 2, 3])


def test_herm_eigs_flip():
    assert np.allclose(herm_eigs(np.array([[0.0, 1.0], [1.0, 0.0]])), [-1, 1])


def test_herm_eigs_conjugation_invariant():
    rng = np.random.default_rng(9)
    m = rand_herm(rng, 5)
    u = haar_unitary(5, Rng(9))
    before = herm_eigs(m)
    after = herm_eigs(u @ m @ u.conj().T)
    assert np.abs(before - after).max() <= 1e-9


def test_herm_eigs_rejects_nonhermitian():
    with pytest.raises(ValueError):
        herm_eigs(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_projector_spectrum():
    v = np.array([1.0, 1j]) / np.sqrt(2)
    proj = np.outer(v, v.conj())
    vals = herm_eigs(proj)
    assert all(min(abs(x), abs(x - 1)) <= 1e-9 for x in vals)


def test_op_norm_cases():
    assert op_norm(np.eye(4)) == pytest.approx(1.0)
    assert op_norm(np.diag([-2.0, 1.0])) == pytest.approx(2.0)


def test_op_norm_below_fro():
    rng = np.random.default_rng(13)
    for _ in range(100):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert op_norm(m) <= fro_norm(m) + 1e-12


def test_fro_norm_cases():
    assert fro_norm(np.eye(2)) == pytest.approx(np.sqrt(2))
    assert fro_norm(np.zeros((3, 3))) == 0.0
    rng = np.random.default_rng(17)
    u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    assert fro_norm(np.outer(u, v.conj())) == pytest.approx(1.0)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_haar_unitary_is_unitary(n):
    u = haar_unitary(n, Rng(21))
    assert op_norm(u.conj().T @ u - np.eye(n)) <= 1e-10


def test_haar_unitary_deterministic():
    a = haar_unitary(4, Rng(99))
    b = haar_unitary(4, Rng(99))
    assert np.array_equal(a, b)


def test_haar_moment():
    # E|U_00|^2 = 1/n for Haar; empirical mean over 10^4 draws at n=2.
    rng = Rng(31)
    total = 0.0
    for _ in range(10_000):
        total += abs(haar_unitary(2, rng)[0, 0]) ** 2
    assert abs(total / 10_000 - 0.5) <= 0.02


def test_rng_children_are_independent_and_deterministic():
    root = Rng(7)
    c0, c0_again = root.child(0), Rng(7).child(0)
    c1 = root.child(1)
    assert c0.seed == c0_again.seed
    assert c0.seed != c1.seed
    assert np.array_equal(
        c0.generator.standard_normal(5), c0_again.generator.standard_normal(5)
    )


def test_rng_rejects_bad_seed():
    with pytest.raises(ValueError):
        Rng(-1)
    with pytest.raises(ValueError):
        Rng(2 ** 64)


@pytest.mark.parametrize("seed", [2.7, float("nan"), "3", True])
def test_rng_refuses_seeds_that_are_not_integers(seed):
    # int() would truncate 2.7 to 2 and read True as 1.
    with pytest.raises(ValueError, match="seed must be an integer"):
        Rng(seed)


@pytest.mark.parametrize("call", [
    lambda: maximally_mixed(2.0),
    lambda: haar_unitaries(2.5, 3, Rng(1)),
    lambda: haar_unitaries(2, 3.0, Rng(1)),
    lambda: haar_unitary(2.5, Rng(1)),
    lambda: dicke_state(2.0, 1),
    lambda: dicke_state(2, 1.0),
    lambda: symmetric_projector(2.0),
    lambda: Detector(True, 1, observable_from_unitary(np.eye(1))),
    lambda: build_net(2, 1.5, True, Rng(1)),
    lambda: fiurasek_detector(True),
    lambda: Rng(1).child(2.7),
    lambda: Rng(1).child(True),
], ids=[
    "maximally_mixed", "haar_unitaries-dim", "haar_unitaries-count", "haar_unitary",
    "dicke_state-qubits", "dicke_state-excited", "symmetric_projector",
    "Detector-bool", "build_net-bool", "fiurasek_detector-bool",
    "Rng.child-float", "Rng.child-bool",
])
def test_sizes_and_counts_must_be_integers(call):
    # A float size fails inside numpy or is silently taken as an integer, and
    # True reads as 1: each is refused up front.
    with pytest.raises(ValueError, match="must be an integer"):
        call()


def test_rng_takes_numpy_unsigned_seeds():
    # Rng.child passes its derived seed as an np.uint64.
    assert Rng(np.uint64(2 ** 64 - 1)).seed == 2 ** 64 - 1


@pytest.mark.parametrize(("value", "want"), [
    (1, 1.0), (-2.5, -2.5), (math.inf, math.inf), (np.float32(0.25), 0.25),
    (np.int64(-3), -3.0), (np.uint8(7), 7.0), (Fraction(3, 2), 1.5),
])
def test_as_real_reads_python_and_numpy_reals_as_floats(value, want):
    got = as_real(value)
    assert got == want and type(got) is float


@pytest.mark.parametrize("value", [
    True, np.True_, "1.5", None, 1 + 0j, np.complex128(1), 10**400, -(10**400),
    Fraction(10**400), np.array(1.5), [1.0],
])
def test_as_real_reads_everything_else_as_nan(value):
    assert math.isnan(as_real(value))


@pytest.mark.parametrize("value", [
    [True, False], np.arange(4).reshape(2, 2), np.arange(6, dtype=np.uint8),
    np.linspace(0, 1, 4, dtype=np.float32), np.array([1 + 2j, 3 - 4j], dtype=np.complex64),
    (np.arange(16.0) + 1j).reshape(4, 4)[::2, 1::2], np.eye(3)[:, ::-1], 2**63, [[1.5, -0.0]],
])
def test_as_array_reads_numbers_bit_for_bit_as_asarray_does(value):
    want = np.asarray(value, dtype=complex)
    got = as_array(value, want.ndim)
    assert got.dtype == complex and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def with_entry(e):
    # The 2 x 2 identity with entry (0, 0) replaced; a list entry makes it ragged.
    return [[e, 0.0], [0.0, 1.0]]


# Each entry point, called with entry 1.0 in its array input, accepts it.
ARRAY_ENTRY_POINTS = {
    "as_matrix": lambda e: as_matrix(with_entry(e)),
    "tensor": lambda e: tensor(np.eye(2), with_entry(e)),
    "partial_trace_ancilla": lambda e: partial_trace_ancilla(with_entry(e), 2, 1),
    "op_norm": lambda e: op_norm(with_entry(e)),
    "fro_norm": lambda e: fro_norm(with_entry(e)),
    "herm_eigs": lambda e: herm_eigs(with_entry(e)),
    "check_hermitian": lambda e: check_hermitian(with_entry(e)),
    "check_hermitians": lambda e: check_hermitians([with_entry(e)]),
    "DensityState": lambda e: DensityState([[e, 0.0], [0.0, 0.0]]),
    "Povm": lambda e: Povm([with_entry(e), np.zeros((2, 2))]),
    "Povm-one-effect": lambda e: Povm([with_entry(e)]),
    "check_unitary": lambda e: check_unitary(with_entry(e)),
    "check_unitaries": lambda e: check_unitaries([with_entry(e)]),
    "observable_from_unitary": lambda e: observable_from_unitary(with_entry(e)),
    "quotient_distance": lambda e: quotient_distance(np.eye(2), with_entry(e)),
    "GroupElement.from_matrix": lambda e: GroupElement.from_matrix(with_entry(e)),
    "double_ket": lambda e: double_ket(with_entry(e)),
    "covariant-rep": lambda e: covariant_density(
        CovariantSeed(maximally_mixed(2)), GroupElement.identity(), rep=lambda g: with_entry(e)),
    "UnitaryNet": lambda e: UnitaryNet(2, 0.5, [with_entry(e)], 1),
    "ControlledUnitaryDetector": lambda e: ControlledUnitaryDetector([with_entry(e), np.eye(2)]),
    "matrix_from_json": lambda e: matrix_from_json(
        {"rows": 2, "cols": 2, "re": [e, 0.0, 0.0, 1.0], "im": [0.0] * 4}),
    "pure_state": lambda e: pure_state([e, 0.0]),
    "fiurasek_program": lambda e: fiurasek_program([e, 0.0], 2),
    "IsometryDetector": lambda e: IsometryDetector(1, 2, [0, 1], [e, 1.0]),
}


@pytest.mark.parametrize("entry", [10**400, "1", None, {}, [0.0, 1.0]],
                         ids=["huge-int", "numeric-string", "None", "dict", "ragged"])
@pytest.mark.parametrize("call", ARRAY_ENTRY_POINTS.values(), ids=ARRAY_ENTRY_POINTS.keys())
def test_array_inputs_that_are_not_arrays_of_numbers_raise_value_error(call, entry):
    call(1.0)
    with pytest.raises(ValueError):
        call(entry)
