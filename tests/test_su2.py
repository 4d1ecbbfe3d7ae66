import math
import re
import tracemalloc
import warnings
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import binom
from sympy import Rational
from sympy.physics.quantum.cg import CG as SympyCG

from povmforge.detector import estimate_accuracy, program
from povmforge.linalg import CapacityError, Rng, as_real, haar_unitary, op_norm, tensor
from povmforge.povm import Povm, observable_from_unitary, povm_distance
from povmforge.su2 import (
    COVARIANT_TWICE_J_CAP,
    FIURASEK_COPY_CAP,
    SYMMETRIC_QUBIT_CAP,
    AngularMomentum,
    GroupElement,
    _coherent_amplitudes,
    _dicke_factors,
    clebsch_gordan,
    compose,
    coupling_isometry,
    covariant_qubit_detector,
    covariant_target,
    dicke_state,
    fiurasek_detector,
    fiurasek_program,
    irrep_matrix,
    matched_covariant_rule,
    matched_fiurasek_rule,
    rotated_highest_weight,
    symmetric_projector,
)


def spin_operators(twice_j):
    # Jz and Jy in the m-descending basis, for the exponential oracle.
    dim = twice_j + 1
    j = twice_j / 2
    ms = np.arange(twice_j, -twice_j - 1, -2) / 2
    jz = np.diag(ms)
    jp = np.zeros((dim, dim))
    for k in range(1, dim):
        m = ms[k]
        jp[k - 1, k] = math.sqrt(j * (j + 1) - m * (m + 1))
    jy = (jp - jp.T) / 2j
    return jz, jy


def coupled_coherent_amplitudes(twice_j, v):
    # W|j,j> coupled one spin-1/2 at a time, each step an isometry: the
    # O(j^2) oracle for the closed form of _coherent_amplitudes.
    c = np.ones(1, dtype=complex)
    for n in range(1, twice_j + 1):
        w = np.sqrt(np.arange(n + 1) / n)
        c = v[0] * w[::-1] * np.append(c, 0) + v[1] * w * np.append(0, c)
    return c


def permutation_operator(num_qubits, perm):
    dim = 2 ** num_qubits
    op = np.zeros((dim, dim))
    for idx in range(dim):
        bits = [(idx >> (num_qubits - 1 - k)) & 1 for k in range(num_qubits)]
        out = 0
        for k, b in enumerate(bits):
            out |= b << (num_qubits - 1 - perm[k])
        op[out, idx] = 1.0
    return op


def test_huge_int_spin_is_refused_not_overflowed():
    # float(10**400) overflows; the value is refused as a non-finite half-integer.
    for call in (lambda: covariant_qubit_detector(10**400),
                 lambda: matched_covariant_rule(10**400),
                 lambda: rotated_highest_weight(10**400, GroupElement.identity()),
                 lambda: clebsch_gordan(10**400, 0, 0, 0, 10**400, 0),
                 lambda: AngularMomentum.coerce(-(10**400)),
                 lambda: irrep_matrix(10**400, GroupElement.identity()),
                 lambda: coupling_isometry(0.5, 10**400),
                 lambda: clebsch_gordan(0.5, 10**400, 0.5, -0.5, 1, 0)):
        with pytest.raises(ValueError, match="not a finite half-integer"):
            call()


def spin_takers(bad):
    # Each of the seven spin-taking functions, given `bad` as a spin or a magnetic number.
    g = GroupElement.identity()
    return (
        lambda: AngularMomentum.coerce(bad),
        lambda: covariant_qubit_detector(bad),
        lambda: matched_covariant_rule(bad),
        lambda: rotated_highest_weight(bad, g),
        lambda: irrep_matrix(bad, g),
        lambda: clebsch_gordan(bad, 0.5, 0.5, -0.5, 1, 0),
        lambda: clebsch_gordan(0.5, bad, 0.5, -0.5, 1, 0),
        lambda: clebsch_gordan(0.5, 0.5, 0.5, -0.5, 1, bad),
        lambda: coupling_isometry(bad, 0.5),
        lambda: coupling_isometry(0.5, bad),
    )


@pytest.mark.parametrize("bad", ["1.5", "1", None, 1 + 0j, np.True_])
def test_spin_that_is_not_a_real_is_refused(bad):
    # float() read "1.5" as spin 3/2 and np.True_ as 1, and leaked a TypeError on None.
    for call in spin_takers(bad):
        with pytest.raises(ValueError, match=re.escape(f"{bad!r} is not a finite half-integer")):
            call()


@pytest.mark.parametrize(("convert", "spin", "angles"), [
    (np.float64, 1.5, (0.3, 1.1, -0.8)),
    (np.float32, 1.5, (0.25, 1.5, -0.75)),
    (np.int64, 3, (1, -2, 3)),
    (Fraction, 1.5, (0.3, 1.1, -0.8)),
])
def test_numpy_and_fraction_reals_read_as_the_equal_float(convert, spin, angles):
    assert [as_real(convert(x)) for x in (spin, *angles)] == [spin, *angles]
    assert AngularMomentum.coerce(convert(spin)) == AngularMomentum.coerce(float(spin))
    g = GroupElement(*map(convert, angles))
    want = GroupElement(*map(float, angles))
    assert g.euler_angles == want.euler_angles
    assert all(type(a) is float for a in g.euler_angles)
    assert np.array_equal(g.matrix, want.matrix)
    assert np.array_equal(irrep_matrix(convert(spin), g), irrep_matrix(float(spin), want))


def test_angular_momentum_basics():
    j = AngularMomentum(3)
    assert j.j == 1.5
    assert j.dim == 4
    assert AngularMomentum.coerce(1.5).twice_j == 3
    assert AngularMomentum.coerce(j) is j
    with pytest.raises(ValueError):
        AngularMomentum(-1)
    with pytest.raises(ValueError):
        AngularMomentum.coerce(0.3)
    for bad in (math.inf, -math.inf, math.nan, 1e308):
        with pytest.raises(ValueError):
            AngularMomentum.coerce(bad)
    # A flag is no spin: True used to read as 2j = 1 and as j = 1.
    g = GroupElement.identity()
    for call in (
        lambda: AngularMomentum(True),
        lambda: AngularMomentum.coerce(True),
        lambda: covariant_qubit_detector(True),
        lambda: irrep_matrix(True, g),
        lambda: rotated_highest_weight(True, g),
        lambda: clebsch_gordan(True, 0, 0, 0, True, 0),
    ):
        with pytest.raises(ValueError):
            call()


def test_group_element_identity():
    g = GroupElement.identity()
    assert np.abs(g.matrix - np.eye(2)).max() <= 1e-12


def test_group_element_matrix_round_trip():
    rng = Rng(5)
    for _ in range(20):
        g = GroupElement.random(rng)
        back = GroupElement.from_matrix(g.matrix)
        assert np.abs(back.matrix - g.matrix).max() <= 1e-12


def test_group_element_rejects_non_special():
    with pytest.raises(ValueError):
        GroupElement.from_matrix(np.diag([1j, 1j]))  # unitary, det -1
    with pytest.raises(ValueError):
        GroupElement.from_matrix(np.diag([1.0, 2.0]))


@pytest.mark.parametrize("angles", [(math.inf, 0, 0), (0, math.nan, 0), (0, 0, -math.inf),
                                    ("0.5", 0, 0), (0, True, 0), (0, 0, None), (1 + 0j, 0, 0),
                                    (10**400, 0, 0), (0, np.True_, 0)])
def test_group_element_refuses_nonfinite_angles(angles):
    with pytest.raises(ValueError, match="Euler angles must be finite"):
        GroupElement(*angles)


def test_beta_rotation_matrix():
    g = GroupElement(0.0, 0.7, 0.0)
    c, s = math.cos(0.35), math.sin(0.35)
    assert np.abs(g.matrix - np.array([[c, -s], [s, c]])).max() <= 1e-12


def test_irrep_identity():
    g = GroupElement.identity()
    for twice_j in (1, 2, 5):
        assert np.abs(irrep_matrix(twice_j / 2, g) - np.eye(twice_j + 1)).max() <= 1e-12


@pytest.mark.parametrize("twice_j", [1, 2, 3, 4, 6])
def test_irrep_matches_exponential(twice_j):
    g = GroupElement(0.3, 1.1, -0.8)
    jz, jy = spin_operators(twice_j)
    oracle = (
        scipy.linalg.expm(-1j * 0.3 * jz)
        @ scipy.linalg.expm(-1j * 1.1 * jy)
        @ scipy.linalg.expm(-1j * (-0.8) * jz)
    )
    assert np.abs(irrep_matrix(twice_j / 2, g) - oracle).max() <= 1e-12


@pytest.mark.parametrize("twice_j", [1, 2, 3])
def test_irrep_homomorphism(twice_j):
    rng = Rng(31 + twice_j)
    g1, g2 = GroupElement.random(rng), GroupElement.random(rng)
    lhs = irrep_matrix(twice_j / 2, g1) @ irrep_matrix(twice_j / 2, g2)
    rhs = irrep_matrix(twice_j / 2, compose(g1, g2))
    # Half-integer reps may pick up a global sign through the 2x2 product.
    flat = np.argmax(np.abs(rhs))
    phase = lhs.reshape(-1)[flat] / rhs.reshape(-1)[flat]
    assert abs(abs(phase) - 1.0) <= 1e-9
    assert np.abs(lhs - phase * rhs).max() <= 1e-9


@pytest.mark.parametrize("twice_j", range(1, 13))
def test_irrep_unitary(twice_j):
    g = GroupElement.random(Rng(100 + twice_j))
    u = irrep_matrix(twice_j / 2, g)
    assert op_norm(u.conj().T @ u - np.eye(twice_j + 1)) <= 1e-10


@pytest.mark.parametrize("twice_j", [61, 81, 99, 161, 200])
def test_irrep_unitary_at_large_spin(twice_j):
    rng = Rng(400 + twice_j)
    for _ in range(5):
        u = irrep_matrix(twice_j / 2, GroupElement.random(rng))
        assert op_norm(u.conj().T @ u - np.eye(twice_j + 1)) <= 1e-12


def test_cg_selection_rules():
    assert clebsch_gordan(0.5, 0.5, 1.0, 0.0, 1.5, 1.5) == 0.0  # M mismatch
    assert clebsch_gordan(0.5, 0.5, 1.0, 1.0, 2.5, 1.5) == 0.0  # triangle


def test_cg_malformed_inputs():
    with pytest.raises(ValueError):
        clebsch_gordan(0.5, 1.5, 1.0, 0.0, 1.5, 1.5)  # |m| > j
    with pytest.raises(ValueError):
        clebsch_gordan(0.3, 0.3, 1.0, 0.0, 1.0, 0.3)  # not half-integer
    with pytest.raises(ValueError):
        clebsch_gordan(1.0, 0.5, 1.0, 0.0, 2.0, 0.5)  # parity
    for bad in (math.inf, math.nan):  # not finite, as m or as j
        with pytest.raises(ValueError):
            clebsch_gordan(0.5, bad, 1.0, 0.0, 1.5, 0.5)
        with pytest.raises(ValueError):
            clebsch_gordan(0.5, 0.5, bad, 0.0, 1.5, 0.5)


@pytest.mark.parametrize("twice_j", range(1, 13))
def test_cg_stretched_weights(twice_j):
    j = twice_j / 2
    jp = j + 0.5
    c1 = clebsch_gordan(0.5, 0.5, j, j, jp, jp)
    c2 = clebsch_gordan(0.5, -0.5, j, j, jp, j - 0.5)
    assert c1 ** 2 == pytest.approx(1.0, abs=1e-10)
    assert c2 ** 2 == pytest.approx(1.0 / (twice_j + 1), abs=1e-10)


def test_cg_against_sympy():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 40:
        tj1, tj2 = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        tJ = int(rng.integers(abs(tj1 - tj2), tj1 + tj2 + 1))
        if (tj1 + tj2 + tJ) % 2:
            continue
        tm1 = int(rng.integers(-tj1, tj1 + 1))
        tm2 = int(rng.integers(-tj2, tj2 + 1))
        if (tj1 - tm1) % 2 or (tj2 - tm2) % 2 or abs(tm1 + tm2) > tJ:
            continue
        mine = clebsch_gordan(
            tj1 / 2, tm1 / 2, tj2 / 2, tm2 / 2, tJ / 2, (tm1 + tm2) / 2
        )
        ref = float(
            SympyCG(
                Rational(tj1, 2), Rational(tm1, 2),
                Rational(tj2, 2), Rational(tm2, 2),
                Rational(tJ, 2), Rational(tm1 + tm2, 2),
            ).doit()
        )
        assert mine == pytest.approx(ref, abs=1e-12)
        checked += 1


@pytest.mark.parametrize("twice_j", range(1, 13))
def test_cg_orthogonality(twice_j):
    u = coupling_isometry(0.5, twice_j / 2)
    assert np.abs(u @ u.T - np.eye(u.shape[0])).max() <= 1e-10


@pytest.mark.parametrize("twice_j", [99, 161, 200])
def test_cg_orthogonality_at_large_spin(twice_j):
    u = coupling_isometry(0.5, twice_j / 2)
    assert np.abs(u @ u.T - np.eye(u.shape[0])).max() <= 1e-10


def test_coupling_singlet_row():
    u = coupling_isometry(0.5, 0.5)
    # Rows: J=1 (M=1,0,-1), then J=0. Product columns: |00>,|01>,|10>,|11>.
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
    assert np.abs(u[3] - singlet).max() <= 1e-12


@pytest.mark.parametrize("twice_j", [1, 2, 3, 5, 8, 12])
def test_coupling_intertwines(twice_j):
    u = coupling_isometry(0.5, twice_j / 2)
    g = GroupElement.random(Rng(200 + twice_j))
    joint = tensor(irrep_matrix(0.5, g), irrep_matrix(twice_j / 2, g))
    blocks = scipy.linalg.block_diag(
        irrep_matrix((twice_j + 1) / 2, g), irrep_matrix((twice_j - 1) / 2, g)
    )
    assert np.abs(u @ joint @ u.T - blocks).max() <= 1e-9


def test_dicke_states():
    assert np.allclose(dicke_state(2, 1), np.array([0, 1, 1, 0]) / np.sqrt(2))
    v = dicke_state(5, 2)
    assert np.linalg.norm(v) == pytest.approx(1.0)
    assert np.count_nonzero(v) == 10
    with pytest.raises(ValueError):
        dicke_state(2, 3)


@pytest.mark.parametrize("num_qubits", range(1, SYMMETRIC_QUBIT_CAP + 1))
def test_dicke_columns_are_popcounts(num_qubits):
    cols, weights = _dicke_factors(num_qubits)
    assert cols.dtype == np.int64
    assert np.array_equal(cols, [a.bit_count() for a in range(2**num_qubits)])
    assert np.array_equal(weights, 1 / np.sqrt([math.comb(num_qubits, c) for c in cols]))


def test_dicke_state_cap():
    assert np.count_nonzero(dicke_state(SYMMETRIC_QUBIT_CAP, 1)) == SYMMETRIC_QUBIT_CAP
    for num_qubits, num_excited in ((SYMMETRIC_QUBIT_CAP + 1, 0), (40, 0), (64, 1)):
        with pytest.raises(CapacityError):
            dicke_state(num_qubits, num_excited)


def test_symmetric_projector_small_cases():
    assert np.abs(symmetric_projector(1) - np.eye(2)).max() <= 1e-12
    z2 = symmetric_projector(2)
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
    assert np.abs(z2 - (np.eye(4) - np.outer(singlet, singlet))).max() <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symmetric_projector_matches_permutation_average(n):
    z = symmetric_projector(n)
    avg = sum(
        permutation_operator(n, p) for p in permutations(range(n))
    ) / math.factorial(n)
    assert np.abs(z - avg).max() <= 1e-10


@pytest.mark.parametrize("n", [2, 3, 5])
def test_symmetric_projector_structure(n):
    z = symmetric_projector(n)
    assert np.abs(z @ z - z).max() <= 1e-10
    assert np.abs(z - z.T).max() <= 1e-10
    assert round(np.trace(z).real) == n + 1
    for p in (list(range(1, n)) + [0], list(reversed(range(n)))):
        op = permutation_operator(n, p)
        assert np.abs(op @ z - z @ op).max() <= 1e-10


def test_symmetric_projector_cap():
    with pytest.raises(CapacityError):
        symmetric_projector(13)


def test_fiurasek_known_program():
    det = fiurasek_detector(1)
    out = program(det, fiurasek_program([1.0, 0.0], 1))
    assert np.abs(out.effects[0] - np.diag([1.0, 0.5])).max() <= 1e-10


def test_fiurasek_programmed_form():
    rng = Rng(17)
    for n in (1, 2, 3):
        det = fiurasek_detector(n)
        psi = haar_unitary(2, rng)[:, 0]
        out = program(det, fiurasek_program(psi, n))
        proj = np.outer(psi, psi.conj())
        want = proj + (np.eye(2) - proj) / (n + 1)
        assert np.abs(out.effects[0] - want).max() <= 1e-10


def test_fiurasek_accuracy_and_dimension_identity():
    rng = Rng(18)
    for n in (1, 3, 5):
        det = fiurasek_detector(n)
        eps = 2.0 / (n + 1)
        for _ in range(20):
            psi = haar_unitary(2, rng)[:, 0]
            proj = np.outer(psi, psi.conj())
            sharp = Povm([proj, np.eye(2) - proj])
            d = povm_distance(sharp, program(det, fiurasek_program(psi, n)))
            assert abs(d - eps) <= 1e-9
        assert det.anc_dim == pytest.approx(0.5 * 4.0 ** (1.0 / eps))


def test_fiurasek_cap():
    with pytest.raises(CapacityError):
        fiurasek_detector(12)


def test_covariant_cap():
    # The covariant joint, 2(2j+1)-dimensional, may not outgrow the
    # 2^SYMMETRIC_QUBIT_CAP-dimensional joint the Fiurasek reference allows.
    assert 2 * (COVARIANT_TWICE_J_CAP + 1) == 2 ** SYMMETRIC_QUBIT_CAP
    for twice_j in (COVARIANT_TWICE_J_CAP + 1, 2 * 10**6):
        with pytest.raises(CapacityError, match="cap"):
            covariant_qubit_detector(twice_j / 2)


def test_irrep_matrix_shares_the_detector_cap():
    # Past the cap the dense (2j+1)² rotation is refused before any allocation:
    # at j = 10^6 it would need 29.1 TiB.
    g = GroupElement.identity()
    for j in ((COVARIANT_TWICE_J_CAP + 1) / 2, 10**6):
        with pytest.raises(CapacityError, match="cap"):
            irrep_matrix(j, g)


def test_matched_covariant_programs_share_the_detector_cap():
    # The matched programs feed only the covariant detector, so they stop at
    # its cap rather than allocate (2j+1)-entry arrays it cannot use.
    g = GroupElement.random(Rng(1903))
    j = COVARIANT_TWICE_J_CAP / 2
    assert rotated_highest_weight(j, g).dim == COVARIANT_TWICE_J_CAP + 1
    assert matched_covariant_rule(j)(covariant_target(g)).dim == COVARIANT_TWICE_J_CAP + 1
    for twice_j in (COVARIANT_TWICE_J_CAP + 1, 2 * 10**6, 2 * 10**300):
        with pytest.raises(CapacityError, match="cap"):
            rotated_highest_weight(twice_j / 2, g)
        with pytest.raises(CapacityError, match="cap"):
            matched_covariant_rule(twice_j / 2)


@pytest.mark.parametrize("n_copies", range(1, 11))
def test_fiurasek_joint_matches_full_validation(n_copies):
    # The Gram-certified joint is the fully validated pair on the symmetric
    # projector, bit for bit.
    z = symmetric_projector(n_copies + 1)
    want = Povm([z, np.eye(z.shape[0]) - z]).effects
    assert np.array_equal(fiurasek_detector(n_copies).joint.effects, want)


def test_fiurasek_program_path_holds_no_joint():
    # The dense pair at N = 10 holds 2 x 2048^2 complex entries (128 MiB); the
    # program path holds the 1024^2 program state and the 2048 x 12 Dicke basis.
    n = 10
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        det = fiurasek_detector(n)
        repr(det)
        target = observable_from_unitary(haar_unitary(2, Rng(1900)))
        out = program(det, matched_fiurasek_rule(n)(target))
        delta = povm_distance(target, out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20
    assert abs(delta - 2 / (n + 1)) <= 1e-9


def test_covariant_program_path_at_cap_holds_no_matrix():
    # At 2j = 2047 the joint would hold 2 x 4096^2 complex entries (512 MiB)
    # and |v><v| 2048^2 (64 MiB); the program path holds only vectors.
    twice_j = COVARIANT_TWICE_J_CAP
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        det = covariant_qubit_detector(twice_j / 2)
        target = covariant_target(GroupElement.random(Rng(1902)))
        out = program(det, matched_covariant_rule(twice_j / 2)(target))
        delta = povm_distance(target, out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert abs(delta - 2 / (twice_j + 1)) <= 1e-9


def test_fiurasek_accuracy_at_copy_cap_without_joint(monkeypatch):
    # At the cap the joint would be 4096-dimensional; scoring never builds it.
    dims = []
    set_effects = Povm._set

    def recording_set(self, stack):
        dims.append(stack.shape[1])
        return set_effects(self, stack)

    monkeypatch.setattr(Povm, "_set", recording_set)
    n = FIURASEK_COPY_CAP
    det = fiurasek_detector(n)
    assert "outcomes=2" in repr(det)
    rng = Rng(1901)
    targets = [observable_from_unitary(haar_unitary(2, rng)) for _ in range(3)]
    report = estimate_accuracy(det, targets, matched_fiurasek_rule(n))
    for result in report.per_target:
        assert abs(result.delta - 2 / (n + 1)) <= 1e-9
    assert dims and max(dims) == 2


def test_fiurasek_program_validation():
    with pytest.raises(ValueError):
        fiurasek_program([1.0, 0.0, 0.0], 2)
    sigma = fiurasek_program([0.6, 0.8], 3)
    assert sigma.dim == 8


@pytest.mark.parametrize("make", [
    fiurasek_detector,
    lambda n: fiurasek_program([1.0, 0.0], n),
    matched_fiurasek_rule,
], ids=["detector", "program", "rule"])
@pytest.mark.parametrize("n", [2.0, 2.5, float("nan"), "2"])
def test_non_integer_copy_counts_are_refused(make, n):
    with pytest.raises(ValueError, match="copy count must be an integer"):
        make(n)


def test_fiurasek_program_rejects_bad_inputs():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for make in (lambda n: fiurasek_program([1.0, 0.0], n), matched_fiurasek_rule):
            with pytest.raises(ValueError, match="below 0"):
                make(-3)
            for n in (FIURASEK_COPY_CAP + 1, 70):
                with pytest.raises(CapacityError):
                    make(n)
        for n in (0, 1, 3):
            with pytest.raises(ValueError, match="cannot normalize the zero vector"):
                fiurasek_program([0.0, 0.0], n)
            # Refused before the normalization divides by a non-finite norm.
            # So is anything but a length-2 vector of numbers.
            for psi in ([math.inf, 0.0], [math.nan, 1.0], [[1.0], [0.0]], [[1.0, 0.0]],
                        ["1", "0"], [10**400, 0.0], [None, 1.0], [[1.0, 0.0], [0.0]]):
                with pytest.raises(ValueError, match="finite qubit"):
                    fiurasek_program(psi, n)


def test_fiurasek_program_normalizes_huge_vector():
    # ‖(1e308, 1e308)‖ overflows unscaled; the program is |+⟩⟨+| twice over.
    sigma = fiurasek_program([1e308, 1e308], 2)
    assert np.allclose(sigma.matrix, np.full((4, 4), 0.25), rtol=0, atol=1e-15)


@pytest.mark.parametrize("n_copies", [0, 1, 3, 6])
def test_fiurasek_program_matches_kron_loop(n_copies):
    # Oracle: N-fold Kronecker product of the one-copy density matrix.
    g = Rng(19).generator
    psi = g.standard_normal(2) + 1j * g.standard_normal(2)
    v = psi / np.linalg.norm(psi)
    want = np.ones((1, 1), dtype=complex)
    for _ in range(n_copies):
        want = tensor(want, np.outer(v, v.conj()))
    got = fiurasek_program(psi, n_copies).matrix
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("n_copies", range(1, 9))
def test_fiurasek_restricts_to_covariant(n_copies):
    # Dicke column k (k excitations) is the spin-N/2 state m = N/2 - k, so
    # I (x) D carries the covariant detector into the symmetric subspace.
    j = n_copies / 2
    dicke = np.column_stack([dicke_state(n_copies, k) for k in range(n_copies + 1)])
    embed = np.kron(np.eye(2), dicke)
    dense, cov = fiurasek_detector(n_copies), covariant_qubit_detector(j)
    for f_dense, f_cov in zip(dense.joint.effects, cov.joint.effects):
        assert np.abs(embed.T @ f_dense @ embed - f_cov).max() <= 1e-12

    dense_rule, cov_rule = matched_fiurasek_rule(n_copies), matched_covariant_rule(j)
    rng = Rng(500 + n_copies)
    targets = [observable_from_unitary(haar_unitary(2, rng)) for _ in range(10)]
    for t in targets:
        sigma_dense, sigma_cov = dense_rule(t), cov_rule(t)
        restricted = dicke.T @ sigma_dense.matrix @ dicke
        assert np.abs(restricted - sigma_cov.matrix).max() <= 1e-12
        got = program(dense, sigma_dense).effects
        assert np.abs(got - program(cov, sigma_cov).effects).max() <= 1e-12
    dense_report = estimate_accuracy(dense, targets, dense_rule)
    cov_report = estimate_accuracy(cov, targets, cov_rule)
    for a, b in zip(dense_report.per_target, cov_report.per_target):
        assert abs(a.delta - b.delta) <= 1e-12


def test_covariant_highest_weight_program():
    det = covariant_qubit_detector(0.5)
    sigma = rotated_highest_weight(0.5, GroupElement.identity())
    out = program(det, sigma)
    assert np.abs(out.effects[0] - np.diag([1.0, 0.5])).max() <= 1e-10


@pytest.mark.parametrize("twice_j", [1, 2, 3, 5, 9])
def test_covariant_programmed_form(twice_j):
    det = covariant_qubit_detector(twice_j / 2)
    g = GroupElement.random(Rng(300 + twice_j))
    out = program(det, rotated_highest_weight(twice_j / 2, g))
    v = g.matrix
    want = v @ np.diag([1.0, 1.0 / (twice_j + 1)]) @ v.conj().T
    assert np.abs(out.effects[0] - want).max() <= 1e-9


@pytest.mark.parametrize("twice_j", [1, 2, 4, 7])
def test_covariant_detector_is_covariant(twice_j):
    det = covariant_qubit_detector(twice_j / 2)
    f0 = det.joint.effects[0]
    rng = Rng(400 + twice_j)
    for _ in range(20):
        g = GroupElement.random(rng)
        joint = tensor(irrep_matrix(0.5, g), irrep_matrix(twice_j / 2, g))
        assert np.abs(joint @ f0 @ joint.conj().T - f0).max() <= 1e-9


def test_covariant_residual_structure():
    twice_j = 5
    det = covariant_qubit_detector(twice_j / 2)
    g = GroupElement.random(Rng(55))
    out = program(det, rotated_highest_weight(twice_j / 2, g))
    target = covariant_target(g)
    residual = out.effects[0] - target.effects[0]
    v = g.matrix
    want = v @ np.diag([0.0, 1.0 / (twice_j + 1)]) @ v.conj().T
    assert np.abs(residual - want).max() <= 1e-9


def test_covariant_accuracy_and_linear_dimension():
    twice_j = 9  # d = 10, eps = 0.2
    det = covariant_qubit_detector(twice_j / 2)
    rng = Rng(66)
    for _ in range(10):
        g = GroupElement.random(rng)
        d = povm_distance(
            covariant_target(g), program(det, rotated_highest_weight(twice_j / 2, g))
        )
        assert abs(d - 0.2) <= 1e-9
    assert det.anc_dim == 10
    assert det.anc_dim == pytest.approx(2.0 / 0.2)


def test_covariant_accuracy_at_large_spin():
    # d = 100, eps = 0.02; and 2j = 400, which covariant-scan --j-max allows.
    for twice_j in (99, 400):
        det = covariant_qubit_detector(twice_j / 2)
        rule = matched_covariant_rule(twice_j / 2)
        rng = Rng(67)
        for _ in range(5):
            target = covariant_target(GroupElement.random(rng))
            d = povm_distance(target, program(det, rule(target)))
            assert abs(d - 2.0 / (twice_j + 1)) <= 1e-9


@pytest.mark.parametrize("twice_j", [*range(1, 13), 81, 99, 161, 200])
def test_covariant_detector_matches_coupling_oracle(twice_j):
    # The projector of the explicit coupled isometry against the one Racah's
    # formula gives.
    top = coupling_isometry(0.5, twice_j / 2)[: twice_j + 2]
    f0 = covariant_qubit_detector(twice_j / 2).joint.effects[0]
    assert np.abs(f0 - top.T @ top).max() <= 1e-12


@pytest.mark.parametrize("twice_j", [*range(1, 13), 81, 200])
def test_covariant_joint_matches_full_validation(twice_j):
    # The Gram-certified joint passes the full check, positivity eigensolve
    # included, and comes back bit for bit.
    joint = covariant_qubit_detector(twice_j / 2).joint
    assert np.array_equal(Povm(list(joint.effects)).effects, joint.effects)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("twice_j", [*range(1, 13), 81, 99, 161, 200, 400, 1100])
def test_coherent_programs_match_irrep_oracle(twice_j):
    # Identity has b = 0 exactly and beta = pi has a ~ 6e-17, whose powers
    # underflow; the covariant rule is checked on the same oracle states.
    j = twice_j / 2
    rule = matched_covariant_rule(j)
    rng = Rng(900 + twice_j)
    elements = [GroupElement.identity(), GroupElement(0.7, math.pi, -0.4),
                GroupElement.random(rng), GroupElement.random(rng)]
    for g in elements:
        c = irrep_matrix(j, g)[:, 0]
        want = np.outer(c, c.conj())
        state = rotated_highest_weight(j, g).matrix
        assert np.abs(state - want).max() <= 1e-12
        assert abs(np.trace(state) - 1.0) <= 1e-12
        assert np.abs(rule(covariant_target(g)).matrix - want).max() <= 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("twice_j", [0, *range(1, 13), 81, 200, 1023, 2047])
def test_coherent_closed_form_matches_coupled_oracle(twice_j):
    # Identity (b = 0), beta = pi (a ~ 6e-17) and the flipped target (a = 0)
    # besides Haar draws; the two differ by roundoff that grows with 2j, to ~1e-14 at 2047.
    rng = Rng(950 + twice_j)
    vs = [g.matrix[:, 0] for g in (GroupElement.identity(), GroupElement(0.7, math.pi, -0.4),
                                   GroupElement.random(rng), GroupElement.random(rng))]
    for v in (*vs, np.array([0.0, 1.0])):
        got = _coherent_amplitudes(twice_j, v)
        want = coupled_coherent_amplitudes(twice_j, v)
        got, want = got / np.linalg.norm(got), want / np.linalg.norm(want)
        assert np.abs(np.outer(got, got.conj()) - np.outer(want, want.conj())).max() <= 1e-13


@pytest.mark.filterwarnings("error")
def test_coherent_weights_are_binomial_at_huge_spin():
    # |c_k|^2 is the binomial law of k flips at |b|^2, far past the cap.
    twice_j = 10**5
    for g in (GroupElement(0.3, 1.1, -2.0), GroupElement.random(Rng(960))):
        v = g.matrix[:, 0]
        c = _coherent_amplitudes(twice_j, v)
        weights = np.abs(c) ** 2 / np.sum(np.abs(c) ** 2)
        want = binom.pmf(np.arange(twice_j + 1), twice_j, abs(v[1]) ** 2)
        assert np.abs(weights - want).max() <= 1e-12


def test_covariant_rule_on_exactly_flipped_target():
    # The target |1><1| has top eigenvector (0, 1) exactly, so a = 0.
    c = irrep_matrix(3.5, GroupElement(0.0, math.pi, 0.0))[:, 0]
    target = observable_from_unitary(np.array([[0.0, 1.0], [1.0, 0.0]]))
    got = matched_covariant_rule(3.5)(target).matrix
    assert np.abs(got - np.outer(c, c.conj())).max() <= 1e-12


def test_covariant_requires_positive_spin():
    with pytest.raises(ValueError):
        covariant_qubit_detector(0)


def test_exponential_beats_linear_dimension():
    # At matched accuracy the symmetric scheme pays exponentially more.
    for n in range(1, 7):
        eps = 2.0 / (n + 1)
        assert 0.5 * 4.0 ** (1.0 / eps) >= 2.0 / eps


def test_matched_rules_recover_programs():
    rng = Rng(77)
    w = haar_unitary(2, rng)
    proj = np.outer(w[:, 0], w[:, 0].conj())
    sharp = Povm([proj, np.eye(2) - proj])
    sigma = matched_fiurasek_rule(2)(sharp)
    want = fiurasek_program(w[:, 0], 2)
    assert np.abs(sigma.matrix - want.matrix).max() <= 1e-9

    g = GroupElement.random(rng)
    sigma2 = matched_covariant_rule(1.5)(covariant_target(g))
    want2 = rotated_highest_weight(1.5, g)
    assert np.abs(sigma2.matrix - want2.matrix).max() <= 1e-9
