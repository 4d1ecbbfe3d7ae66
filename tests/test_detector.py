import tracemalloc

import numpy as np
import pytest

from povmforge.detector import (
    Detector,
    IsometryDetector,
    _contract,
    accuracy_for_program,
    controlled_unitary_detector,
    estimate_accuracy,
    program,
)
from povmforge import detector
from povmforge.linalg import CapacityError, Rng, haar_unitary, partial_trace_ancilla, tensor
from povmforge.povm import (
    DensityState,
    Povm,
    maximally_mixed,
    observable_from_unitary,
    povm_distance,
    pure_state,
)

from povmforge import DEFAULT_SEED
from povmforge.su2 import (
    COVARIANT_TWICE_J_CAP,
    GroupElement,
    covariant_qubit_detector,
    covariant_target,
    fiurasek_detector,
    matched_covariant_rule,
    matched_fiurasek_rule,
)
from povmforge.unet import build_net, net_detector

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)


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


def random_detector(sys_dim, anc_dim, outcomes, rng):
    return Detector(sys_dim, anc_dim, random_povm(sys_dim * anc_dim, outcomes, rng))


def random_state(dim, rng):
    g = rng.generator.standard_normal((dim, dim)) + 1j * rng.generator.standard_normal(
        (dim, dim)
    )
    m = g @ g.conj().T
    return DensityState(m / np.trace(m).real)


def rank_two_state(dim, rng):
    # An equal mixture of two random pure states: mixed, neither diagonal nor full rank.
    g = rng.generator
    vs = g.standard_normal((2, dim)) + 1j * g.standard_normal((2, dim))
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    return DensityState(np.einsum("ka,kb->ab", vs, vs.conj()) / 2)


def test_detector_shape_validation():
    with pytest.raises(ValueError):
        Detector(2, 3, observable_from_unitary(np.eye(4)))


@pytest.mark.parametrize("sys_dim,anc_dim", [(2.0, 1), (2, 1.0), (1.5, 1), (2, "1")])
def test_detector_refuses_non_integer_dimensions(sys_dim, anc_dim):
    with pytest.raises(ValueError, match="must be an integer"):
        Detector(sys_dim, anc_dim, observable_from_unitary(np.eye(2)))


@pytest.mark.parametrize("joint", [np.eye(2)[None], None, [np.eye(2)], 5])
def test_detector_refuses_a_joint_that_is_not_a_povm(joint):
    with pytest.raises(ValueError, match=f"joint must be a Povm, got {type(joint).__name__}"):
        Detector(2, 1, joint)


def test_program_ignores_decoupled_ancilla():
    sys_povm = observable_from_unitary(haar_unitary(2, Rng(1)))
    joint = Povm([tensor(e, np.eye(3)) for e in sys_povm.effects])
    det = Detector(2, 3, joint)
    for seed in (2, 3):
        sigma = random_state(3, Rng(seed))
        out = program(det, sigma)
        for got, want in zip(out.effects, sys_povm.effects):
            assert np.abs(got - want).max() <= 1e-12


def dense_program_effects(f, sigma):
    """Oracle: Tr_A[(I ⊗ σ) F_k] with the dense I ⊗ σ, effect by effect."""
    iotimes = tensor(np.eye(f.sys_dim), sigma.matrix)
    return [
        partial_trace_ancilla(iotimes @ fk, f.sys_dim, f.anc_dim)
        for fk in f.joint.effects
    ]


@pytest.mark.parametrize("n,d,k", [(2, 2, 2), (2, 3, 3), (3, 2, 4), (3, 5, 3), (4, 4, 5)])
def test_program_matches_dense_oracle(n, d, k):
    rng = Rng(1000 + 100 * n + 10 * d + k)
    det = random_detector(n, d, k, rng)
    for _ in range(3):
        sigma = random_state(d, rng)
        out = program(det, sigma)
        want = dense_program_effects(det, sigma)
        assert out.effects.shape == (k, n, n)
        assert np.abs(out.effects - np.asarray(want)).max() <= 1e-12


@pytest.mark.parametrize("n_copies", [3, 6, 8])
def test_program_matches_dense_oracle_fiurasek(n_copies):
    det = fiurasek_detector(n_copies)
    rng = Rng(1100 + n_copies)
    rule = matched_fiurasek_rule(n_copies)
    for _ in range(3):
        sigma = rule(observable_from_unitary(haar_unitary(2, rng)))
        out = program(det, sigma)
        want = dense_program_effects(det, sigma)
        assert np.abs(out.effects - np.asarray(want)).max() <= 1e-12
    mixed = random_state(2 ** n_copies, rng)
    out = program(det, mixed)
    assert np.abs(out.effects - np.asarray(dense_program_effects(det, mixed))).max() <= 1e-12


@pytest.mark.parametrize("n_copies", range(1, 11))
def test_fiurasek_program_matches_dense_contraction(n_copies):
    # The program map through the Dicke basis against the contraction of the
    # materialized joint, on matched pure, maximally mixed, full-rank and
    # rank-two states.
    det = fiurasek_detector(n_copies)
    d = 2 ** n_copies
    rng = Rng(1200 + n_copies)
    rule = matched_fiurasek_rule(n_copies)
    states = [rule(observable_from_unitary(haar_unitary(2, rng))) for _ in range(2)]
    states += [maximally_mixed(d), random_state(d, rng), rank_two_state(d, rng)]
    joint = det.joint.effects
    for sigma in states:
        want = _contract(joint, sigma.matrix, 2, d)
        assert np.abs(program(det, sigma).effects - want).max() <= 1e-12


@pytest.mark.parametrize("twice_j", [*range(1, 13), 81, 200, 1023])
def test_covariant_program_matches_dense_contraction(twice_j):
    # The sparse-row map against the contraction of the materialized joint,
    # on matched pure, maximally mixed, full-rank and rank-two states.
    j = twice_j / 2
    det = covariant_qubit_detector(j)
    d = twice_j + 1
    rng = Rng(1250 + twice_j)
    rule = matched_covariant_rule(j)
    states = [rule(covariant_target(GroupElement.random(rng))) for _ in range(2)]
    states += [maximally_mixed(d), random_state(d, rng), rank_two_state(d, rng)]
    joint = det.joint.effects
    for sigma in states:
        want = _contract(joint, sigma.matrix, 2, d)
        assert np.abs(program(det, sigma).effects - want).max() <= 1e-12


def test_covariant_program_at_cap_meets_closed_form():
    # Q0 = psi psi† + (I − psi psi†)/(2j+1) for the matched coherent program.
    twice_j = COVARIANT_TWICE_J_CAP
    det = covariant_qubit_detector(twice_j / 2)
    rng = Rng(1260)
    for _ in range(3):
        g = GroupElement.random(rng)
        target = covariant_target(g)
        psi = np.outer(g.matrix[:, 0], g.matrix[:, 0].conj())
        want = psi + (np.eye(2) - psi) / (twice_j + 1)
        out = program(det, matched_covariant_rule(twice_j / 2)(target))
        assert np.abs(out.effects[0] - want).max() <= 1e-12


def test_mixed_program_holds_a_fraction_of_sigma():
    # The map holds one d × d boolean pattern at a time, not index arrays of
    # several times σ's size.
    det = covariant_qubit_detector(511 / 2)
    sigma = maximally_mixed(512)
    tracemalloc.start()
    try:
        program(det, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= sigma.matrix.nbytes / 2


@pytest.mark.parametrize("make,rule", [
    (lambda: fiurasek_detector(10), lambda: matched_fiurasek_rule(10)),
    (lambda: covariant_qubit_detector(COVARIANT_TWICE_J_CAP / 2),
     lambda: matched_covariant_rule(COVARIANT_TWICE_J_CAP / 2)),
], ids=["fiurasek", "covariant"])
def test_pure_program_forms_no_state_matrix(make, rule):
    det = make()
    target = observable_from_unitary(haar_unitary(2, Rng(1270)))
    state = rule()(target)
    program(det, state)
    assert "matrix" not in state.__dict__
    assert "joint" not in det.__dict__


def test_isometry_detector_refuses_bad_factors():
    # Eight rows over three columns, each column a real unit vector.
    cols = np.array([0, 1, 2, 0, 1, 2, 0, 1])
    weights = Rng(1300).generator.standard_normal(8)
    weights /= np.sqrt(np.bincount(cols, weights ** 2))[cols]
    det = IsometryDetector(2, 4, cols, weights)
    assert (det.outcomes, det.rank, det.cols.shape) == (2, 3, (2, 4))
    uncovered = np.where(cols == 1, 3, cols)  # column 1 is reached by no row
    nan = weights.copy()
    nan[3] = np.nan
    for c, w, message in (
        (cols, weights * (1 + 1e-8), "not orthonormal"),
        (uncovered, weights, "not orthonormal"),
        (cols, weights.astype(complex), "real and finite"),
        (cols, nan, "real and finite"),
        (cols, np.full(8, np.inf), "real and finite"),
        (cols, [None] * 8, "real and finite"),
        (cols, ["1"] * 8, "real and finite"),
        (cols, [10**400] * 8, "real and finite"),
        (cols, weights[:6], "shaped like weights"),
        (cols.reshape(2, 4), weights, "shaped like weights"),
        (cols.astype(float), weights, "integer array"),
    ):
        with pytest.raises(ValueError, match=message):
            IsometryDetector(2, 4, c, w)
    with pytest.raises(ValueError, match="sys_dim\\*anc_dim"):
        IsometryDetector(2, 3, cols, weights)


def test_program_dimension_mismatch():
    det = random_detector(2, 3, 2, Rng(4))
    with pytest.raises(ValueError):
        program(det, maximally_mixed(2))


def test_program_is_affine():
    rng = Rng(5)
    det = random_detector(2, 2, 3, rng)
    s1, s2 = random_state(2, Rng(6)), random_state(2, Rng(7))
    lam = 0.3
    mix = DensityState(lam * s1.matrix + (1 - lam) * s2.matrix)
    left = program(det, mix)
    q1, q2 = program(det, s1), program(det, s2)
    for e_mix, e1, e2 in zip(left.effects, q1.effects, q2.effects):
        assert np.abs(e_mix - (lam * e1 + (1 - lam) * e2)).max() <= 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_program_outputs_valid_povm(seed):
    rng = Rng(100 + seed)
    det = random_detector(2, 3, 3, rng)
    sigma = random_state(3, rng)
    out = program(det, sigma)  # Povm constructor re-validates
    assert out.dim == 2
    total = sum(out.effects)
    assert np.abs(total - np.eye(2)).max() <= 1e-9


def test_controlled_unitary_single_identity():
    det = controlled_unitary_detector([np.eye(2)])
    out = program(det, pure_state([1.0]))
    comp = observable_from_unitary(np.eye(2))
    for got, want in zip(out.effects, comp.effects):
        assert np.abs(got - want).max() <= 1e-12


def test_controlled_unitary_hadamard_branch():
    det = controlled_unitary_detector([np.eye(2), HADAMARD])
    out = program(det, pure_state([0.0, 1.0]))
    want = observable_from_unitary(HADAMARD)
    for got, exp in zip(out.effects, want.effects):
        assert np.abs(got - exp).max() <= 1e-10


def test_controlled_unitary_reproduces_each_branch():
    rng = Rng(8)
    ws = [haar_unitary(3, rng) for _ in range(4)]
    det = controlled_unitary_detector(ws)
    for k, w in enumerate(ws):
        basis_state = np.zeros(4)
        basis_state[k] = 1.0
        out = program(det, pure_state(basis_state))
        want = observable_from_unitary(w)
        for got, exp in zip(out.effects, want.effects):
            assert np.abs(got - exp).max() <= 1e-10


@pytest.mark.parametrize("n,d", [(2, 1), (2, 3), (3, 4)])
def test_controlled_unitary_matches_dense_interaction(n, d):
    rng = Rng(1200 + 10 * n + d)
    ws = [haar_unitary(n, rng) for _ in range(d)]
    basis = haar_unitary(n, rng)
    # Measuring basis B after W_k is the computational observable of B†W_k.
    det = controlled_unitary_detector([basis.conj().T @ w for w in ws])
    u = np.zeros((n, d, n, d), dtype=complex)
    for k, w in enumerate(ws):
        u[:, k, :, k] = w
    u = u.reshape(n * d, n * d)
    for i in range(n):
        proj = tensor(np.outer(basis[:, i], basis[:, i].conj()), np.eye(d))
        assert np.abs(det.joint.effects[i] - u.conj().T @ proj @ u).max() <= 1e-12


def test_controlled_unitary_rejects_nonunitary():
    with pytest.raises(ValueError):
        controlled_unitary_detector([np.eye(2), np.diag([1.0, 2.0])])
    rng = Rng(1310)
    ws = [haar_unitary(2, rng) for _ in range(3)]
    ws[1] = ws[1] * (1 + 1e-8)
    with pytest.raises(ValueError, match="not unitary"):
        controlled_unitary_detector(ws)


@pytest.mark.parametrize("n,d", [(1, 3), (2, 5), (3, 4), (5, 2)])
def test_controlled_unitary_joint_matches_full_validation(n, d):
    # The joint skips the positivity eigensolve; full validation agrees bit for bit.
    rng = Rng(1300 + 10 * n + d)
    joint = controlled_unitary_detector([haar_unitary(n, rng) for _ in range(d)]).joint
    assert np.array_equal(joint.effects, Povm(list(joint.effects)).effects)


def test_controlled_unitary_rejects_mixed_dims():
    with pytest.raises(ValueError, match="share one dimension"):
        controlled_unitary_detector([np.eye(2), np.eye(3)])


def test_controlled_unitary_rejects_empty():
    with pytest.raises(ValueError, match="at least one unitary"):
        controlled_unitary_detector([])


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_observable_is_the_one_branch_detector(n):
    w = haar_unitary(n, Rng(1400 + n))
    det = controlled_unitary_detector([w])
    assert (det.sys_dim, det.anc_dim) == (n, 1)
    assert np.array_equal(observable_from_unitary(w).effects, det.joint.effects)


@pytest.mark.parametrize("n,d", [(1, 2), (2, 2), (2, 4), (3, 4)])
def test_controlled_unitary_blocks_are_the_branch_observables(n, d):
    rng = Rng(1500 + 10 * n + d)
    ws = [haar_unitary(n, rng) for _ in range(d)]
    joint = controlled_unitary_detector(ws).joint.effects.reshape(n, n, d, n, d)
    for k, w in enumerate(ws):
        assert np.array_equal(joint[:, :, k, :, k], observable_from_unitary(w).effects)
        off = np.delete(joint[:, :, k], k, axis=-1)
        assert not off.any()


def test_controlled_unitary_builds_one_povm(monkeypatch):
    built = []
    set_effects = Povm._set

    def counting_set(self, effects):
        built.append(self)
        return set_effects(self, effects)

    monkeypatch.setattr(Povm, "_set", counting_set)
    rng = Rng(1600)
    det = controlled_unitary_detector([haar_unitary(3, rng) for _ in range(4)])
    assert built == [det.joint]


@pytest.mark.parametrize("n,d", [(1, 1), (1, 3), (2, 1), (2, 5), (3, 4), (5, 7), (8, 3)])
def test_controlled_unitary_map_matches_the_dense_contraction(n, d):
    rng = Rng(1700 + 10 * n + d)
    det = controlled_unitary_detector([haar_unitary(n, rng) for _ in range(d)])
    v = rng.generator.standard_normal(d) + 1j * rng.generator.standard_normal(d)
    states = [pure_state(v), maximally_mixed(d), random_state(d, rng), rank_two_state(d, rng)]
    assert "joint" not in det.__dict__
    for state in states:
        got = program(det, state).effects
        want = _contract(det.joint.effects, state.matrix, n, d)
        assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("n,d", [(1, 2), (2, 3), (3, 5), (4, 2)])
def test_controlled_unitary_basis_programs_are_the_branch_observables(n, d):
    rng = Rng(1800 + 10 * n + d)
    ws = [haar_unitary(n, rng) for _ in range(d)]
    det = controlled_unitary_detector(ws)
    for k, w in enumerate(ws):
        out = program(det, pure_state(np.eye(d)[k]))
        assert np.array_equal(out.effects, observable_from_unitary(w).effects)
    assert "joint" not in det.__dict__


def test_accuracy_for_matching_program_is_zero():
    rng = Rng(9)
    det = random_detector(2, 2, 2, rng)
    sigma = random_state(2, rng)
    target = program(det, sigma)
    assert accuracy_for_program(det, target, sigma) <= 1e-12


def test_estimate_accuracy_realizable_targets():
    rng = Rng(10)
    det = controlled_unitary_detector([haar_unitary(2, rng) for _ in range(3)])
    states = [pure_state(np.eye(3)[:, k]) for k in range(3)]
    targets = [program(det, s) for s in states]
    report = estimate_accuracy(det, targets, states)
    assert report.epsilon <= 1e-10
    assert len(report.per_target) == 3


def test_estimate_accuracy_monotone_in_strategy():
    rng = Rng(11)
    det = controlled_unitary_detector([haar_unitary(2, rng) for _ in range(4)])
    targets = [observable_from_unitary(haar_unitary(2, rng)) for _ in range(5)]
    states = [pure_state(np.eye(4)[:, k]) for k in range(4)]
    small = estimate_accuracy(det, targets, states[:2])
    full = estimate_accuracy(det, targets, states)
    assert full.epsilon <= small.epsilon + 1e-12


def test_estimate_accuracy_with_rule():
    rng = Rng(12)
    det = controlled_unitary_detector([haar_unitary(2, rng) for _ in range(3)])
    targets = [program(det, pure_state(np.eye(3)[:, 1]))]

    def rule(_target):
        return pure_state(np.eye(3)[:, 1])

    report = estimate_accuracy(det, targets, rule)
    assert report.epsilon <= 1e-10
    assert report.per_target[0].program_index == 0


def test_estimate_accuracy_report_shape():
    rng = Rng(13)
    det = controlled_unitary_detector([haar_unitary(2, rng) for _ in range(2)])
    targets = [observable_from_unitary(haar_unitary(2, rng)) for _ in range(4)]
    states = [pure_state(np.eye(2)[:, k]) for k in range(2)]
    report = estimate_accuracy(det, targets, states)
    deltas = [r.delta for r in report.per_target]
    assert report.epsilon == pytest.approx(max(deltas))
    assert report.worst_index == int(np.argmax(deltas))
    assert report.worst_target is targets[report.worst_index]
    for r in report.per_target:
        assert r.delta == pytest.approx(
            povm_distance(targets[r.target_id], program(det, r.program)), abs=1e-12
        )


def c8_case():
    # Acceptance C8's net detector, its basis programs and its Haar targets.
    rng = Rng(DEFAULT_SEED).child(8)
    net = build_net(2, 0.7 / 2, 4000, rng.child(0))
    child = rng.child(1)
    targets = [observable_from_unitary(haar_unitary(2, child)) for _ in range(200)]
    states = [pure_state(np.eye(len(net))[:, k]) for k in range(len(net))]
    return net_detector(net), targets, states


def many_outcome_case():
    # 12 outcomes and 3 programs: the enumeration spans several blocks.
    rng = Rng(14)
    det = random_detector(2, 3, 12, rng)
    targets = [random_povm(2, 12, rng) for _ in range(4)]
    return det, targets, [random_state(3, rng) for _ in range(3)]


@pytest.mark.parametrize("case", [c8_case, many_outcome_case])
def test_estimate_accuracy_list_matches_per_state_distances(case):
    det, targets, states = case()
    report = estimate_accuracy(det, targets, states)
    programmed = [program(det, s) for s in states]
    for r, target in zip(report.per_target, targets):
        deltas = [povm_distance(target, q) for q in programmed]
        k = int(np.argmin(deltas))
        assert r.program_index == k
        assert abs(r.delta - deltas[k]) <= 1e-12


@pytest.mark.parametrize(
    "det, rule",
    [
        (covariant_qubit_detector(1.5), matched_covariant_rule(1.5)),
        (fiurasek_detector(2), matched_fiurasek_rule(2)),
    ],
)
def test_estimate_accuracy_refuses_a_mismatched_target_before_programming(det, rule):
    # A qutrit target, or a qubit one with three outcomes, is refused before
    # the rule runs; a matched rule called directly names the dimension.
    calls = []

    def spy(target):
        calls.append(target)
        return rule(target)

    qutrit = observable_from_unitary(np.eye(3))
    for target in (qutrit, random_povm(2, 3, Rng(15))):
        for programs in (spy, [pure_state(np.eye(det.anc_dim)[:, 0])]):
            with pytest.raises(ValueError, match="targets must have dimension 2 and 2 outcomes"):
                estimate_accuracy(det, [observable_from_unitary(np.eye(2)), target], programs)
    assert not calls
    with pytest.raises(ValueError, match="not dimension 3"):
        rule(qutrit)


def test_estimate_accuracy_refuses_past_the_outcome_cap_before_programming(monkeypatch):
    # 21 outcomes exceed the sign-enumeration cap: neither the rule nor the
    # program map runs before the CapacityError.
    det = controlled_unitary_detector([np.eye(21)])
    target = observable_from_unitary(np.eye(21))

    def spy(*args):
        raise AssertionError("programmed past the outcome cap")

    with pytest.raises(CapacityError, match="sign-enumeration cap"):
        estimate_accuracy(det, [target], spy)
    monkeypatch.setattr(detector, "program", spy)
    with pytest.raises(CapacityError, match="sign-enumeration cap"):
        estimate_accuracy(det, [target], [pure_state([1.0])])


def test_estimate_accuracy_rejects_empty():
    det = controlled_unitary_detector([np.eye(2)])
    with pytest.raises(ValueError):
        estimate_accuracy(det, [], [pure_state([1.0])])
    with pytest.raises(ValueError):
        estimate_accuracy(det, [observable_from_unitary(np.eye(2))], [])
