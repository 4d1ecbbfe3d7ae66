import numpy as np
import pytest

from povmforge import unet
from povmforge.detector import program
from povmforge.linalg import Rng, haar_unitaries, haar_unitary
from povmforge.povm import Povm, observable_from_unitary, povm_distance, pure_state
from povmforge.unet import (
    UnitaryNet,
    build_net,
    certify_coverage,
    net_detector,
    quotient_distance,
    scaling_scan,
)


def sequential_haar(n, rng):
    # One Haar draw at a time: two (n, n) normal draws, one QR and the
    # phase fix of R's diagonal.
    g = rng.generator
    z = (g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def sequential_distances(w, centers):
    # The closed form for one candidate, as an einsum over a (k, n, n) stack.
    n = w.shape[0]
    overlaps = np.abs(np.einsum("kij,ij->ki", centers, w.conj())).sum(axis=1)
    return np.sqrt(np.maximum(2 * n - 2 * overlaps, 0.0))


def sequential_build_net(n, radius, budget, rng):
    # The greedy loop one candidate at a time: the oracle for build_net.
    centers = np.zeros((0, n, n), dtype=complex)
    consecutive = tested = 0
    while consecutive < budget:
        cand = sequential_haar(n, rng)
        tested += 1
        if len(centers) == 0 or sequential_distances(cand, centers).min() > radius:
            centers = np.concatenate([centers, cand[None]], axis=0)
            consecutive = 0
        else:
            consecutive += 1
    return centers, tested


def sequential_hits(centers, radius, samples, rng):
    # The coverage loop one sample at a time: the oracle for certify_coverage.
    n = centers.shape[1]
    return sum(
        bool(sequential_distances(sequential_haar(n, rng), centers).min() <= radius)
        for _ in range(samples)
    )


def assert_same_as_sequential(n, radius, budget, seed):
    want_rng, got_rng = Rng(seed), Rng(seed)
    centers, tested = sequential_build_net(n, radius, budget, want_rng)
    net = build_net(n, radius, budget, got_rng)
    assert np.array_equal(net.centers, centers)
    assert net.candidates_tested == tested
    assert got_rng.generator.bit_generator.state == want_rng.generator.bit_generator.state
    return net


def random_phase_diag(n, rng):
    return np.diag(np.exp(1j * rng.generator.uniform(0.0, 2 * np.pi, n)))


def grid_minimum(w, v, points=64):
    # Joint minimization over an n=3 phase grid, the slow way.
    theta = 2 * np.pi * np.arange(points) / points
    rows = []
    for i in range(3):
        diff = w[i][None, :] - np.exp(1j * theta)[:, None] * v[i][None, :]
        rows.append((np.abs(diff) ** 2).sum(axis=1))
    total = rows[0][:, None, None] + rows[1][None, :, None] + rows[2][None, None, :]
    return float(np.sqrt(total.min()))


def test_quotient_distance_gauge_invariance():
    rng = Rng(1)
    w = haar_unitary(3, rng)
    v = haar_unitary(3, rng)
    base = quotient_distance(w, v)
    # the sqrt amplifies eps-level cancellation noise to ~1e-8 at zero
    assert quotient_distance(w, w) <= 1e-7
    assert quotient_distance(w, random_phase_diag(3, rng) @ w) <= 1e-7
    shifted = quotient_distance(
        random_phase_diag(3, rng) @ w, random_phase_diag(3, rng) @ v
    )
    assert abs(shifted - base) <= 1e-10


def test_quotient_distance_trivial_dimension():
    assert quotient_distance(np.array([[1j]]), np.array([[-1.0]])) <= 1e-12


def test_quotient_distance_matches_grid():
    rng = Rng(2)
    for _ in range(5):
        w = haar_unitary(3, rng)
        v = haar_unitary(3, rng)
        assert quotient_distance(w, v) == pytest.approx(
            grid_minimum(w, v), abs=2e-3
        )


def test_quotient_distance_with_basis():
    rng = Rng(3)
    w, v = haar_unitary(3, rng), haar_unitary(3, rng)
    b = haar_unitary(3, rng)
    # Phases diagonal in basis b, minimized the slow way on the grid of
    # grid_minimum: B·D_θ·B†·V = Σ_i e^{iθ_i}|b_i⟩⟨b_i|V, with B left in place.
    phases = np.exp(2j * np.pi * np.arange(64) / 64)
    terms = [np.outer(b[:, i], b[:, i].conj() @ v) for i in range(3)]
    want = np.inf
    for p0 in phases:
        diff = (w - p0 * terms[0] - phases[:, None, None, None] * terms[1]
                - phases[None, :, None, None] * terms[2])
        want = min(want, np.linalg.norm(diff, axis=(2, 3)).min())
    got = quotient_distance(b.conj().T @ w, b.conj().T @ v)
    assert got == pytest.approx(want, abs=2e-3)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_quotient_distance_matches_closed_form(n):
    # Squared distance 2n − 2 Σ_i |⟨ψ_i|V W†|ψ_i⟩|, one basis vector at a
    # time; phases diagonal in basis B are passed as B†W and B†V. Squares
    # are compared because at n = 1 the distance is zero and the square
    # root would turn 1e-16 roundoff into 1e-8.
    rng = Rng(4)
    for _ in range(5):
        w, v, b = (haar_unitary(n, rng) for _ in range(3))
        for cols in (np.eye(n), b):
            overlaps = sum(
                abs(np.vdot(cols[:, i], v @ w.conj().T @ cols[:, i]))
                for i in range(n)
            )
            want = max(2 * n - 2 * overlaps, 0.0)
            got = quotient_distance(cols.conj().T @ w, cols.conj().T @ v)
            assert abs(got ** 2 - want) <= 1e-12


def test_quotient_distance_shape_error():
    with pytest.raises(ValueError):
        quotient_distance(np.eye(2), np.eye(3))
    # Refused as input, not scored as a distance of 0 between empty matrices.
    with pytest.raises(ValueError, match="nonempty square"):
        quotient_distance(np.zeros((0, 0)), np.zeros((0, 0)))


def test_build_net_single_center_at_diameter():
    net = build_net(2, 2 * np.sqrt(2), 50, Rng(4))
    assert len(net) == 1


def test_build_net_deterministic():
    a = build_net(2, 0.5, 300, Rng(5))
    b = build_net(2, 0.5, 300, Rng(5))
    assert len(a) == len(b)
    assert np.array_equal(a.centers, b.centers)
    assert a.candidates_tested == b.candidates_tested


def test_build_net_budget_monotone():
    small = build_net(2, 0.5, 200, Rng(6))
    large = build_net(2, 0.5, 400, Rng(6))
    assert len(large) >= len(small)
    # Greedy consumes one candidate stream, so the smaller net is a prefix.
    assert np.array_equal(large.centers[: len(small)], small.centers)


def test_build_net_packing_property():
    net = build_net(2, 0.6, 300, Rng(7))
    k = len(net)
    assert k >= 2
    for i in range(k):
        for j in range(i + 1, k):
            assert quotient_distance(net.centers[i], net.centers[j]) > net.radius


def test_build_net_validation():
    with pytest.raises(ValueError):
        build_net(2, 0.0, 10, Rng(8))
    with pytest.raises(ValueError):
        build_net(2, 0.5, 0, Rng(8))


@pytest.mark.parametrize("radius", [float("nan"), float("inf"), float("-inf")])
def test_build_net_rejects_nonfinite_radius_before_drawing(radius):
    rng = Rng(1)
    before = rng.generator.bit_generator.state
    with pytest.raises(ValueError, match="radius"):
        build_net(2, radius, 5, rng)
    assert rng.generator.bit_generator.state == before


def test_unitary_net_validates_centers():
    with pytest.raises(ValueError):
        UnitaryNet(dim=2, radius=0.5, centers=np.zeros((1, 2, 2)), seed=0)
    with pytest.raises(ValueError):
        UnitaryNet(dim=2, radius=0.5, centers=np.eye(2), seed=0)


@pytest.mark.parametrize("radius", [float("nan"), float("inf"), float("-inf")])
def test_unitary_net_rejects_nonfinite_radius(radius):
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        UnitaryNet(dim=2, radius=radius, centers=np.eye(2)[None], seed=0)


@pytest.mark.parametrize("radius", [0.0, -1.0])
def test_unitary_net_rejects_nonpositive_radius(radius):
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        UnitaryNet(dim=2, radius=radius, centers=np.eye(2)[None], seed=0)


def test_certify_single_center():
    net = UnitaryNet(dim=2, radius=3.0, centers=np.eye(2)[None], seed=0)
    assert certify_coverage(net, 200, Rng(9)) == 1.0


def test_certify_well_built_net():
    net = build_net(2, 0.35, 2000, Rng(10))
    assert certify_coverage(net, 1000, Rng(11)) >= 0.99


def test_certify_halved_radius_drops():
    net = build_net(2, 0.5, 800, Rng(12))
    full = certify_coverage(net, 500, Rng(13))
    halved = UnitaryNet(
        dim=2, radius=net.radius / 2, centers=net.centers, seed=net.seed
    )
    assert certify_coverage(halved, 500, Rng(13)) < full


def test_net_detector_identity_net():
    net = UnitaryNet(dim=2, radius=1.0, centers=np.eye(2)[None], seed=0)
    det = net_detector(net)
    out = program(det, pure_state([1.0]))
    comp = observable_from_unitary(np.eye(2))
    for got, want in zip(out.effects, comp.effects):
        assert np.abs(got - want).max() <= 1e-12


def test_net_detector_reproduces_centers():
    net = build_net(2, 0.8, 200, Rng(14))
    det = net_detector(net)
    for k in range(len(net)):
        e = np.zeros(len(net))
        e[k] = 1.0
        out = program(det, pure_state(e))
        want = observable_from_unitary(net.centers[k])
        for got, exp in zip(out.effects, want.effects):
            assert np.abs(got - exp).max() <= 1e-10


def test_qutrit_net_detector_matches_full_validation():
    # A few hundred qutrit centres: the joint built without the positivity
    # eigensolve is the fully validated one, bit for bit.
    net = build_net(3, 1.6 / np.sqrt(6), 5, Rng(11))
    assert len(net) == 205
    joint = net_detector(net).joint
    assert np.array_equal(joint.effects, Povm(list(joint.effects)).effects)


def test_net_detector_rejects_empty():
    net = UnitaryNet(dim=2, radius=0.5, centers=np.zeros((0, 2, 2)), seed=0)
    with pytest.raises(ValueError):
        net_detector(net)


def test_jensen_chain_with_quotient_metric():
    rng = Rng(15)
    for n in (2, 3):
        bound_scale = np.sqrt(2 * n)
        for _ in range(20):
            w, v = haar_unitary(n, rng), haar_unitary(n, rng)
            d = povm_distance(
                observable_from_unitary(w), observable_from_unitary(v)
            )
            assert d <= bound_scale * quotient_distance(w, v) + 1e-9


def test_scaling_scan_shape_and_monotonicity():
    result = scaling_scan(2, [1.2, 0.8, 0.6], 400, Rng(16), samples=300)
    sizes = [row.net_size for row in result.rows]
    # Larger epsilon means larger balls, so sizes grow as epsilon shrinks.
    assert sizes[0] <= sizes[1] <= sizes[2]
    for row in result.rows:
        assert row.radius == pytest.approx(row.epsilon / 2.0)
        assert row.coverage_rate >= 0.99
    assert np.isfinite(result.exponent)
    assert result.kappa > 0


def test_scaling_scan_validation():
    with pytest.raises(ValueError):
        scaling_scan(2, [], 100, Rng(17))
    with pytest.raises(ValueError):
        scaling_scan(2, [2.5], 100, Rng(17))
    # One distinct epsilon leaves the exponent fit undetermined.
    for eps_list in ([0.9], [0.9, 0.9]):
        with pytest.raises(ValueError):
            scaling_scan(2, eps_list, 100, Rng(17))
    # Refused up front, not a ZeroDivisionError from eps / sqrt(2n).
    for n in (0, -1):
        with pytest.raises(ValueError, match="dimension"):
            scaling_scan(n, [1.0, 0.5], 5, Rng(1))


@pytest.mark.parametrize("samples", [0, -3])
def test_scaling_scan_refuses_no_samples_before_building(monkeypatch, samples):
    def reached(*args):
        raise AssertionError("build_net ran before samples were checked")

    monkeypatch.setattr(unet, "build_net", reached)
    with pytest.raises(ValueError, match="at least one sample"):
        scaling_scan(2, [0.5, 0.4], 100, Rng(1), samples=samples)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("count", [0, 1, 7, 64])
def test_haar_unitaries_match_sequential_draws(n, count):
    want_rng, got_rng = Rng(300 + count), Rng(300 + count)
    want = [sequential_haar(n, want_rng) for _ in range(count)]
    got = haar_unitaries(n, count, got_rng)
    assert got.shape == (count, n, n)
    assert np.array_equal(got, np.reshape(want, (count, n, n)))
    assert got_rng.generator.bit_generator.state == want_rng.generator.bit_generator.state
    assert np.array_equal(haar_unitary(n, got_rng), sequential_haar(n, want_rng))


def test_haar_unitaries_validation():
    with pytest.raises(ValueError, match="dimension"):
        haar_unitaries(0, 3, Rng(1))
    with pytest.raises(ValueError, match="count"):
        haar_unitaries(2, -1, Rng(1))


@pytest.mark.parametrize("n,radius", [(1, 0.5), (2, 0.5), (3, 1.2), (5, 2.2)])
@pytest.mark.parametrize("budget", [1, 5, 60, 2000])
def test_build_net_matches_sequential_loop(n, radius, budget):
    # Budgets of 1 and 5 stop inside the first blocks, which are then redrawn
    # up to the stop; at n = 3 and 5 the nets outgrow the first buffer.
    assert_same_as_sequential(n, radius, budget, 100 * n + budget)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("budget", [1, 5, 60, 2000])
def test_build_net_at_diameter_matches_sequential_loop(n, budget):
    # No quotient distance exceeds sqrt(2n): the first draw is the net.
    net = assert_same_as_sequential(n, np.sqrt(2 * n), budget, 200 * n + budget)
    assert len(net) == 1
    assert net.candidates_tested == budget + 1


@pytest.mark.parametrize(
    "n,radius,budget,seed,size,tested",
    [
        # The qutrit nets of the benchmark's first round, and its C8 qubit net.
        (3, 1.6 / np.sqrt(6), 60, 1000, 653, 2785),
        (3, 1.6 / np.sqrt(6), 60, 1001, 730, 4339),
        (2, 0.35, 4000, 77, 34, 11297),
    ],
)
def test_pinned_nets_match_sequential_loop(n, radius, budget, seed, size, tested):
    net = assert_same_as_sequential(n, radius, budget, seed)
    assert len(net) == size
    assert net.candidates_tested == tested


@pytest.mark.parametrize("n,radius", [(1, 0.5), (2, 0.5), (3, 1.2), (5, 2.2)])
def test_certify_coverage_matches_sequential_loop(n, radius):
    built = build_net(n, radius, 60, Rng(400 + n))
    # At half the radius a good share of the samples miss.
    halved = UnitaryNet(dim=n, radius=radius / 2, centers=built.centers, seed=0)
    block = unet._block_size(n)
    for net in (built, halved):
        for samples in sorted({1, max(block - 1, 1), block + 1, 1000}):
            want_rng, got_rng = Rng(500 + samples), Rng(500 + samples)
            hits = sequential_hits(net.centers, net.radius, samples, want_rng)
            assert certify_coverage(net, samples, got_rng) == hits / samples
            state = got_rng.generator.bit_generator.state
            assert state == want_rng.generator.bit_generator.state


def test_certify_coverage_of_empty_net_is_zero():
    net = UnitaryNet(dim=2, radius=0.5, centers=np.zeros((0, 2, 2)), seed=0)
    assert certify_coverage(net, 40, Rng(1)) == 0.0


def test_unitary_net_refuses_one_bad_center():
    centers = haar_unitaries(3, 50, Rng(600))
    centers[17] *= 1 + 1e-8
    with pytest.raises(ValueError, match="not unitary"):
        UnitaryNet(dim=3, radius=0.5, centers=centers, seed=0)
    centers[17, 0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        UnitaryNet(dim=3, radius=0.5, centers=centers, seed=0)
