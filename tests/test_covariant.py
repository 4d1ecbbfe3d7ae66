import numpy as np
import pytest

from povmforge.covariant import (
    CovariantSeed,
    bell_program_check,
    covariant_density,
    double_ket,
)
from povmforge.linalg import Rng, fro_norm, haar_unitary, partial_trace_ancilla, tensor
from povmforge.povm import DensityState, maximally_mixed, pure_state
from povmforge.su2 import GroupElement, compose, irrep_matrix


def random_mixed(dim, rng):
    g = rng.generator.standard_normal((dim, dim)) + 1j * rng.generator.standard_normal(
        (dim, dim)
    )
    m = g @ g.conj().T
    return DensityState(m / np.trace(m).real)


def test_double_ket_identity():
    v = double_ket(np.eye(2)) / np.sqrt(2)
    assert np.allclose(v, np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))


def test_double_ket_norm_of_unitary():
    u = haar_unitary(3, Rng(1))
    assert np.linalg.norm(double_ket(u)) ** 2 == pytest.approx(3.0)


def test_double_ket_inner_product_is_trace():
    rng = Rng(2).generator
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    lhs = np.vdot(double_ket(a), double_ket(b))
    assert lhs == pytest.approx(np.trace(a.conj().T @ b))


def test_covariant_density_invariant_seed():
    seed = CovariantSeed(maximally_mixed(2))
    g = GroupElement.random(Rng(3))
    assert np.abs(covariant_density(seed, g) - np.eye(2) / 2).max() <= 1e-12


def test_covariant_density_at_identity():
    nu = random_mixed(2, Rng(4))
    seed = CovariantSeed(nu)
    out = covariant_density(seed, GroupElement.identity())
    assert np.abs(out - nu.matrix).max() <= 1e-12


def test_covariant_density_stays_a_state():
    rng = Rng(5)
    seed = CovariantSeed(random_mixed(2, rng))
    for _ in range(10):
        out = covariant_density(seed, GroupElement.random(rng))
        DensityState(out)  # validates positivity and trace


def test_covariant_density_haar_average():
    # Schur orthogonality: averaging over the group washes out the seed.
    rng = Rng(6)
    seed = CovariantSeed(pure_state([1.0, 0.0]))
    total = np.zeros((2, 2), dtype=complex)
    samples = 10_000
    for _ in range(samples):
        total += covariant_density(seed, GroupElement.random(rng))
    assert np.abs(total / samples - np.eye(2) / 2).max() <= 0.02


def test_bell_check_mixed_seed():
    seed = CovariantSeed(maximally_mixed(2))
    assert bell_program_check(seed, GroupElement.random(Rng(7))) <= 1e-12


def test_bell_check_random_pairs():
    rng = Rng(8)
    for _ in range(50):
        seed = CovariantSeed(pure_state(haar_unitary(2, rng)[:, 0]))
        g = GroupElement.random(rng)
        assert bell_program_check(seed, g) <= 1e-10


def test_bell_check_negative_control_value():
    rng = Rng(9)
    nu = random_mixed(2, rng)
    seed = CovariantSeed(nu)
    g = GroupElement.random(rng)
    got = bell_program_check(seed, g, use_transpose=False)
    # Dropping the transpose leaves exactly the antisymmetric part of nu.
    assert got == pytest.approx(fro_norm(nu.matrix - nu.matrix.T), abs=1e-12)


def test_bell_check_residual_group_invariant():
    rng = Rng(10)
    seed = CovariantSeed(pure_state(haar_unitary(2, rng)[:, 0]))
    g = GroupElement.random(rng)
    h = GroupElement.random(rng)
    a = bell_program_check(seed, g, use_transpose=False)
    b = bell_program_check(seed, compose(h, g), use_transpose=False)
    assert a == pytest.approx(b, abs=1e-12)


def test_bell_check_custom_representation():
    # Spin-1 representation on a qutrit seed exercises the general-n path.
    rng = Rng(11)
    nu = random_mixed(3, rng)
    seed = CovariantSeed(nu)
    g = GroupElement.random(rng)
    rep = lambda elem: irrep_matrix(1, elem)
    assert bell_program_check(seed, g, rep=rep) <= 1e-10
    assert np.abs(
        covariant_density(seed, g, rep=rep)
        - irrep_matrix(1, g) @ nu.matrix @ irrep_matrix(1, g).conj().T
    ).max() <= 1e-12


def dense_bell_residual(seed, v, use_transpose):
    # The dense program map: Tr_A[(I ⊗ ν^⊤)|V⟩⟩⟨⟨V|] against V ν V†.
    n = seed.dim
    ket = double_ket(v)
    nu = seed.nu.matrix
    programmed = partial_trace_ancilla(
        tensor(np.eye(n), nu.T if use_transpose else nu)
        @ np.outer(ket, ket.conj()),
        n,
        n,
    )
    return fro_norm(v @ nu @ v.conj().T - programmed)


@pytest.mark.parametrize("use_transpose", [True, False])
def test_bell_check_matches_dense_program_map(use_transpose):
    rng = Rng(13)
    spin_one = lambda elem: irrep_matrix(1, elem)
    cases = [
        (CovariantSeed(pure_state(haar_unitary(2, rng)[:, 0])), None)
        for _ in range(10)
    ]
    cases += [(CovariantSeed(random_mixed(2, rng)), None) for _ in range(5)]
    cases += [(CovariantSeed(random_mixed(3, rng)), spin_one) for _ in range(5)]
    for seed, rep in cases:
        g = GroupElement.random(rng)
        kwargs = {} if rep is None else {"rep": rep}
        v = g.matrix if rep is None else rep(g)
        got = bell_program_check(seed, g, use_transpose=use_transpose, **kwargs)
        assert abs(got - dense_bell_residual(seed, v, use_transpose)) <= 1e-12


@pytest.mark.parametrize("nu", [np.eye(2) / 2, maximally_mixed(2).matrix, None])
def test_seed_must_be_a_density_state(nu):
    # A bare matrix used to fail later, with an AttributeError from nu.dim.
    with pytest.raises(ValueError, match="seed must be a DensityState"):
        CovariantSeed(nu)


def test_rep_dimension_mismatch():
    seed = CovariantSeed(maximally_mixed(3))
    with pytest.raises(ValueError):
        covariant_density(seed, GroupElement.identity())
    with pytest.raises(ValueError):
        bell_program_check(seed, GroupElement.identity())


def test_programmed_density_positive_unit_trace():
    rng = Rng(12)
    for _ in range(25):
        nu = random_mixed(2, rng)
        g = GroupElement.random(rng)
        v = g.matrix
        ket = double_ket(v)
        joint = np.outer(ket, ket.conj())
        programmed = partial_trace_ancilla(
            tensor(np.eye(2), nu.matrix.T) @ joint, 2, 2
        )
        DensityState(programmed)  # hermitian, positive, trace one
