import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from povmforge import unet
from povmforge.detector import program
from povmforge.linalg import CapacityError, Rng, haar_unitaries, haar_unitary
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


@pytest.mark.parametrize(
    "n,budget,match",
    [
        # Not a ZeroDivisionError from the block size, nor numpy's
        # "negative dimensions" from the draw.
        (0, 5, "dimension must be positive"),
        (-1, 5, "dimension must be positive"),
        (2.0, 5, "dimension must be an integer"),
        # NaN used to give an empty net, and 2.5 used to run as 3.
        (2, float("nan"), "budget must be an integer"),
        (2, 2.5, "budget must be an integer"),
        (2, 3.0, "budget must be an integer"),
    ],
)
def test_build_net_refuses_bad_arguments_before_drawing(n, budget, match):
    rng = Rng(1)
    before = rng.generator.bit_generator.state
    with pytest.raises(ValueError, match=match):
        build_net(n, 0.5, budget, rng)
    assert rng.generator.bit_generator.state == before


def test_nets_past_the_dimension_cap_are_refused_before_drawing(monkeypatch):
    # The float32 slack of the Gram bounds holds up to n = 161. No net past it
    # constructs; certify_coverage still refuses one whose dim is raised
    # after construction. That net is empty, so no 162 × 162 matrix is formed.
    def reached(*args):
        raise AssertionError("build_net ran past the dimension cap")

    n = unet.NET_DIM_CAP + 1
    with pytest.raises(CapacityError, match="net cap"):
        UnitaryNet(dim=n, radius=0.5, centers=np.zeros((0, n, n)), seed=0)
    empty = UnitaryNet(dim=1, radius=0.5, centers=np.zeros((0, 1, 1)), seed=0)
    empty.dim = n
    rng = Rng(1)
    before = rng.generator.bit_generator.state
    with pytest.raises(CapacityError, match="net cap"):
        build_net(n, 0.5, 5, rng)
    with pytest.raises(CapacityError, match="net cap"):
        certify_coverage(empty, 5, rng)
    monkeypatch.setattr(unet, "build_net", reached)
    with pytest.raises(CapacityError, match="net cap"):
        scaling_scan(n, [1.0, 0.5], 5, rng)
    assert rng.generator.bit_generator.state == before


def test_draws_settle_in_one_product_up_to_the_cap():
    for n in range(1, unet.NET_DIM_CAP + 1):
        assert unet._draw_size(n) ** 2 <= unet._SCREEN_ENTRIES


def test_build_net_takes_numpy_integers():
    got = build_net(np.int64(2), 0.5, np.int64(40), Rng(8))
    want = build_net(2, 0.5, 40, Rng(8))
    assert np.array_equal(got.centers, want.centers)
    assert got.candidates_tested == want.candidates_tested


@pytest.mark.parametrize("samples", [2.5, float("nan"), 10.0])
def test_certify_coverage_refuses_non_integer_samples(samples):
    net = UnitaryNet(dim=2, radius=0.5, centers=np.eye(2)[None], seed=0)
    rng = Rng(1)
    before = rng.generator.bit_generator.state
    with pytest.raises(ValueError, match="samples must be an integer"):
        certify_coverage(net, samples, rng)
    assert rng.generator.bit_generator.state == before


@pytest.mark.parametrize("radius", [
    float("nan"), float("inf"), float("-inf"),
    # An OverflowError and a TypeError from the Gram bounds, before.
    pytest.param(10 ** 400, id="1e400"), pytest.param("0.5", id="string"),
])
def test_build_net_rejects_nonfinite_radius_before_drawing(radius):
    rng = Rng(1)
    before = rng.generator.bit_generator.state
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        build_net(2, radius, 5, rng)
    assert rng.generator.bit_generator.state == before


@pytest.mark.parametrize(
    "dim,match",
    [
        (2.0, "dimension must be an integer"),
        (float("nan"), "dimension must be an integer"),
        (0, "dimension must be positive"),
        (-1, "dimension must be positive"),
    ],
)
def test_unitary_net_refuses_bad_dimensions(dim, match):
    with pytest.raises(ValueError, match=match):
        UnitaryNet(dim=dim, radius=0.5, centers=np.eye(2)[None], seed=0)


def test_unitary_net_validates_centers():
    with pytest.raises(ValueError):
        UnitaryNet(dim=2, radius=0.5, centers=np.zeros((1, 2, 2)), seed=0)
    with pytest.raises(ValueError):
        UnitaryNet(dim=2, radius=0.5, centers=np.eye(2), seed=0)


def test_unitary_net_reads_centres_as_a_stack_of_numbers():
    # None or a scalar is no stack, and an empty sequence is the empty one.
    for centers in (None, 2.0):
        with pytest.raises(ValueError, match="centers must be"):
            UnitaryNet(2, 0.5, centers, 1)
    for empty in ([], (), np.zeros(0)):
        assert UnitaryNet(2, 0.5, empty, 1).centers.shape == (0, 2, 2)
    # numpy would read these strings as the identity's entries.
    with pytest.raises(ValueError, match="must be numbers"):
        UnitaryNet(2, 0.5, [[["1", "0"], ["0", "1"]]], 1)


@pytest.mark.parametrize("radius", [float("nan"), float("inf"), float("-inf")])
def test_unitary_net_rejects_nonfinite_radius(radius):
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        UnitaryNet(dim=2, radius=radius, centers=np.eye(2)[None], seed=0)


@pytest.mark.parametrize("radius", [0.0, -1.0])
def test_unitary_net_rejects_nonpositive_radius(radius):
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        UnitaryNet(dim=2, radius=radius, centers=np.eye(2)[None], seed=0)


@pytest.mark.parametrize("field,value,match", [
    ("seed", True, "seed must be an integer"),
    ("seed", 2.5, "seed must be an integer"),
    ("seed", -1, "64 unsigned bits"),
    ("seed", 2 ** 64, "64 unsigned bits"),
    ("radius", True, "radius must be positive and finite"),
    ("radius", "0.8", "radius must be positive and finite"),
    ("radius", 10 ** 400, "radius must be positive and finite"),
    ("candidates_tested", -3, "candidates_tested must be nonnegative"),
    ("candidates_tested", 1.5, "candidates_tested must be an integer"),
], ids=[
    "seed-bool", "seed-2.5", "seed-negative", "seed-2**64", "radius-bool", "radius-string",
    "radius-1e400", "tested-negative", "tested-1.5",
])
def test_unitary_net_refuses_what_json_could_not_hold(field, value, match):
    # Each of these constructed before, and then failed to be written or read.
    fields = dict(dim=2, radius=0.5, centers=np.eye(2)[None], seed=0)
    with pytest.raises(ValueError, match=match):
        UnitaryNet(**{**fields, field: value})


def test_unitary_net_stores_plain_python_values():
    net = UnitaryNet(
        dim=np.int64(2), radius=np.float32(0.5), centers=[], seed=np.uint64(7),
        candidates_tested=np.int32(3),
    )
    assert [type(v) for v in (net.dim, net.radius, net.seed, net.candidates_tested)] == [
        int, float, int, int
    ]
    assert net.centers.shape == (0, 2, 2) and net.centers.dtype == complex


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


def test_qutrit_net_detector_programs_without_its_joint():
    # 995 qutrit centres: the dense joint would hold 3·(3·995)² complex
    # entries, 408 MiB; a basis program reads the (995, 3, 3) stack alone.
    net = build_net(3, 1.6 / np.sqrt(6), 500, Rng(11))
    assert len(net) == 995
    basis_state = pure_state(np.arange(len(net)) == 700)
    tracemalloc.start()
    try:
        det = net_detector(net)
        out = program(det, basis_state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "joint" not in det.__dict__
    assert peak <= 4 * 2**20
    assert np.array_equal(out.effects, observable_from_unitary(net.centers[700]).effects)


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


@pytest.mark.parametrize("samples", [0, -3, 2.5, float("nan"), 10.0])
def test_scaling_scan_refuses_no_samples_before_building(monkeypatch, samples):
    def reached(*args):
        raise AssertionError("build_net ran before samples were checked")

    monkeypatch.setattr(unet, "build_net", reached)
    if isinstance(samples, int):
        match = "at least one sample"
    else:  # NaN and 2.5 used to reach build_net, and 10.0 to run as 10
        match = "samples must be an integer"
    with pytest.raises(ValueError, match=match):
        scaling_scan(2, [0.5, 0.4], 100, Rng(1), samples=samples)


@pytest.mark.parametrize("eps", [True, "1.0", 10 ** 400, 2.5], ids=["bool", "string", "1e400", "2.5"])
def test_scaling_scan_refuses_non_real_epsilons_before_building(monkeypatch, eps):
    # float() read True as 1.0 and "1.0" as 1.0, so both used to build nets.
    def reached(*args):
        raise AssertionError("build_net ran before the epsilons were checked")

    monkeypatch.setattr(unet, "build_net", reached)
    with pytest.raises(ValueError, match="epsilon must be positive and at most 2"):
        scaling_scan(2, [eps, 0.5], 100, Rng(1))


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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_build_net_stopping_at_draw_ends_matches_sequential_loop(n):
    # At the diameter every draw after the first is rejected, so the stop
    # lands on draw budget + 1: the last draw of the first Haar call, the
    # first of the second, and the last of the second.
    draw = unet._draw_size(n)
    for budget in (draw - 1, draw, 2 * draw - 1):
        net = assert_same_as_sequential(n, np.sqrt(2 * n), budget, 700 + budget)
        assert net.candidates_tested == budget + 1


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("factor", [1.01, 3.0])
def test_nets_past_the_diameter_match_sequential_loop(n, factor):
    # Past sqrt(2n) the near bound θ + slack is negative: every pair clears it
    # and is settled near before the floor is consulted, so _within sees none.
    radius = factor * np.sqrt(2 * n)
    for budget in (1, 60):
        net = assert_same_as_sequential(n, radius, budget, 800 + budget)
        assert len(net) == 1
        want_rng, got_rng = Rng(900 + n), Rng(900 + n)
        hits = sequential_hits(net.centers, radius, 100, want_rng)
        assert hits == 100
        assert certify_coverage(net, 100, got_rng) == 1.0
        assert got_rng.generator.bit_generator.state == want_rng.generator.bit_generator.state


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_gram_product_is_the_sum_of_squared_overlaps(n):
    rng = Rng(1000 + n)
    ws, cs = haar_unitaries(n, 7, rng), haar_unitaries(n, 5, rng)
    overlaps = np.einsum("aij,kij->aki", ws.conj(), cs)
    want = (np.abs(overlaps) ** 2).sum(axis=2)
    got = unet._grams(ws) @ unet._grams(cs).T
    assert got.shape == (7, 5)
    assert np.abs(got - want).max() <= 1e-14
    # Left diagonal phases on either side leave the product unchanged.
    dws = np.stack([random_phase_diag(n, rng) @ w for w in ws])
    dcs = np.stack([random_phase_diag(n, rng) @ c for c in cs])
    assert np.abs(unet._grams(dws) @ unet._grams(dcs).T - want).max() <= 1e-14


def fourier_twist(n, distance):
    # U = F·diag(e^{iα}, e^{−iα}, 1, …)·F† has every diagonal entry equal to
    # m = (n − 2 + 2 cos α)/n, so U·W sits at quotient distance
    # sqrt(2n − 2n|m|) from W with all n overlaps of modulus |m|: the pair on
    # which Cauchy–Schwarz, and so the Gram floor, is tight.
    m = 1 - distance ** 2 / (2 * n)
    alpha = np.arccos((n * m - (n - 2)) / 2)
    phases = np.ones(n, dtype=complex)
    phases[:2] = np.exp(1j * alpha), np.exp(-1j * alpha)
    f = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / np.sqrt(n)
    return f @ np.diag(phases) @ f.conj().T


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("radius", [0.3, 1.0, 1.6])
def test_gram_screen_never_prunes_a_near_pair(n, radius):
    rng = Rng(1100 + n)
    ws = haar_unitaries(n, 12, rng)
    for scale, near in ((1 - 1e-9, True), (1 + 1e-9, False)):
        u = fourier_twist(n, radius * scale)
        for w in ws:
            c = random_phase_diag(n, rng) @ u @ w
            got = quotient_distance(w, c)
            assert abs(got - radius * scale) <= 1e-13
            # Against the centre alone, the screen and the closed form
            # must put it within the radius exactly when it is.
            assert unet._near(
                w[None], unet._grams(w[None]), c[None], unet._grams(c[None]), radius
            )[0] == near


@pytest.mark.parametrize("n", [2, 3, 5])
def test_gram_near_bound_settles_its_tight_case(monkeypatch, n):
    # Rows 0 and 1 exchanged: the overlaps are 0, 0, 1, …, 1, an integer
    # vertex of the near bound Σᵢ|oᵢ| ≥ ⌊G⌋ + √(G − ⌊G⌋). Σᵢ|oᵢ| and
    # G = Σᵢ|oᵢ|² are both n − 2, so the bound is tight, and the quotient
    # distance is exactly 2.
    ws = haar_unitaries(n, 12, Rng(1200 + n))
    swap = [1, 0] + list(range(2, n))
    pairs = [(w[None], w[swap][None]) for w in ws]

    def near(w, c, radius):
        gw, gc = (unet._grams(u).astype(np.float32) for u in (w, c))
        return unet._near(w, gw, c, gc, radius)[0]

    for w, c in pairs:
        assert not near(w, c, 2 * (1 - 1e-9))
        assert near(w, c, 2 * (1 + 1e-9))

    def closed_form(*args):
        raise AssertionError("the closed form ran on a pair past the near bound")

    # Past the bound's slack the pair is near without the closed form.
    monkeypatch.setattr(unet, "_distances", closed_form)
    for w, c in pairs:
        assert near(w, c, 2 * (1 + 1e-3))


def screened_near(w, c, radius):
    # `_near` of the single candidate w against the single centre c.
    gw, gc = (unet._grams(u).astype(np.float32) for u in (w, c))
    return unet._near(w, gw, c, gc, radius)[0]


def fractional_vertex(n, x):
    # U = [[x, √(1 − x²), 0], [0, 0, 1], [√(1 − x²), −x, 0]] ⊕ I_{n−3}: for
    # C = U·W the row overlaps are U's diagonal x, 0, 0, 1, …, 1.
    s = np.sqrt(1 - x * x)
    u = np.eye(n)
    u[:3, :3] = [[x, s, 0], [0, 0, 1], [s, -x, 0]]
    return u


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("x", [0.3, 0.6, 0.9])
def test_gram_near_bound_settles_its_fractional_tight_case(monkeypatch, n, x):
    # The overlaps x, 0, 0, 1, …, 1 are the vertex of the near bound with one
    # fractional coordinate: Σᵢ|oᵢ| = n − 3 + x and G = n − 3 + x², so
    # Σᵢ|oᵢ| ≥ ⌊G⌋ + √(G − ⌊G⌋) is tight at radius √(6 − 2x), where
    # Σᵢ|oᵢ| ≥ G would leave a gap of x − x².
    rng = Rng(1500 + n)
    radius = np.sqrt(6 - 2 * x)
    u = fractional_vertex(n, x)
    pairs = [
        (w[None], (random_phase_diag(n, rng) @ u @ w)[None])
        for w in haar_unitaries(n, 12, rng)
    ]
    for w, c in pairs:
        for scale in (1 - 1e-9, 1 + 1e-9):
            within = quotient_distance(w[0], c[0]) <= radius * scale
            assert within == (scale > 1)
            assert screened_near(w, c, radius * scale) == within

    def closed_form(*args):
        raise AssertionError("the closed form ran on a pair past the near bound")

    monkeypatch.setattr(unet, "_distances", closed_form)
    for w, c in pairs:
        assert screened_near(w, c, radius * (1 + 1e-3))


def phi_parts(g):
    # φ(G) = ⌊G⌋ + √(G − ⌊G⌋) as its two parts ⌊G⌋ and G − ⌊G⌋, exact for
    # rational G.
    whole = math.floor(g)
    return whole, g - whole


@given(st.lists(st.floats(0, 1), min_size=1, max_size=6))
def test_overlap_sums_clear_the_bound_from_their_squares(xs):
    # Σx ≥ φ(Σx²) for x in [0, 1]ⁿ, in exact rationals: with φ(Σx²) =
    # k + √f, Σx ≥ k and (Σx − k)² ≥ f.
    total = sum(map(Fraction, xs))
    whole, frac = phi_parts(sum(Fraction(x) ** 2 for x in xs))
    assert total >= whole and (total - whole) ** 2 >= frac


@given(st.integers(1, 6), st.integers(0, 5), st.floats(0, 1, exclude_max=True))
def test_overlap_sum_bound_is_tight_at_its_vertices(n, ones, x):
    # Equality at (1, …, 1, √f, 0, …, 0), here with √f = x.
    ones = min(ones, n - 1)
    xs = [1.0] * ones + [x] + [0.0] * (n - ones - 1)
    total = sum(map(Fraction, xs))
    whole, frac = phi_parts(sum(Fraction(v) ** 2 for v in xs))
    assert whole == ones and (total - whole) ** 2 == frac


def test_near_bound_never_falls_below_the_floor():
    # For θ = n − r²/2 > 0, ψ(θ) ≥ θ²/n since φ(G) ≤ √(nG). From √(2n) on,
    # every pair is within the radius: the floor prunes none, and the near
    # bound, θ + slack, is at most the slack.
    for n in range(1, unet.NET_DIM_CAP + 1):
        for radius in np.sqrt(2 * n) * np.linspace(0, 3, 31)[1:]:
            floor, sure = unet._bounds(n, radius)
            if radius * radius < 2 * n:
                assert floor <= sure
            else:
                assert floor < 0 and sure <= -floor


@pytest.mark.parametrize(
    "n,radius,budget,seed,most",
    [
        # 272 pairs, against 3 397 with the near bound Σᵢ|oᵢ| ≥ G.
        (3, 1.6 / np.sqrt(6), 60, 11, 400),
        # The benchmark's C8 qubit net: 36 pairs, against 4 884.
        (2, 0.35, 4000, 77, 100),
    ],
)
def test_near_bound_leaves_few_pairs_to_the_closed_form(
    monkeypatch, n, radius, budget, seed, most
):
    pairs = []
    within = unet._within

    def counted(ws, cs, a, c, radius):
        pairs.append(len(a))
        return within(ws, cs, a, c, radius)

    monkeypatch.setattr(unet, "_within", counted)
    assert_same_as_sequential(n, radius, budget, seed)
    assert sum(pairs) <= most


@pytest.mark.parametrize("n,radius", [(1, 0.5), (2, 0.5), (3, 1.2), (5, 2.2)])
def test_screen_in_tiny_products_matches_sequential_loop(monkeypatch, n, radius):
    # 40 entries: draws of 6, products of 6 centres and one 6 × 6 product
    # of a draw's clear candidates, and exact distances in chunks of a few
    # pairs.
    monkeypatch.setattr(unet, "_SCREEN_ENTRIES", 40)
    built = assert_same_as_sequential(n, radius, 60, 1300 + n)
    halved = UnitaryNet(dim=n, radius=radius / 2, centers=built.centers, seed=0)
    samples = unet._draw_size(n) + 1
    for net in (built, halved):
        want_rng, got_rng = Rng(1400 + n), Rng(1400 + n)
        hits = sequential_hits(net.centers, net.radius, samples, want_rng)
        assert certify_coverage(net, samples, got_rng) == hits / samples


def traced_peak(run):
    """`run()` and the peak bytes tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "n,radius,budget,seed",
    [
        # At n = 1 every pair is near: each draw's 362 candidates are
        # settled against each other in one 362² product.
        (1, 0.5, 2000, 3),
        # The benchmark's C8 qubit net.
        (2, 0.35, 4000, 77),
    ],
)
def test_build_net_memory_stays_bounded(n, radius, budget, seed):
    _, peak = traced_peak(lambda: build_net(n, radius, budget, Rng(seed)))
    assert peak <= 3 << 20


def test_certify_coverage_of_dense_centres_stays_small():
    # 3000 random qutrit centres at radius 2.0: the Gram floor, 1/3, passes
    # most pairs, and the near bound settles most samples in the first slice.
    centers = haar_unitaries(3, 3000, Rng(5))
    net = UnitaryNet(dim=3, radius=2.0, centers=centers, seed=0)
    rate, peak = traced_peak(lambda: certify_coverage(net, 320, Rng(6)))
    assert rate * 320 == sequential_hits(centers, 2.0, 320, Rng(6))
    assert peak <= 8 << 20


def test_certify_coverage_of_a_large_net_stays_small():
    # 20 000 qutrit centres take 4.3 MB of float32 Gram vectors; their
    # complex row projectors, 8.6 MB, are formed a draw's worth at a time.
    centers = haar_unitaries(3, 20000, Rng(5))
    net = UnitaryNet(dim=3, radius=1 / np.sqrt(6), centers=centers, seed=0)
    rate, peak = traced_peak(lambda: certify_coverage(net, 1, Rng(6)))
    assert rate == sequential_hits(centers, net.radius, 1, Rng(6))
    assert peak <= 7 << 20


@pytest.mark.parametrize("n,radius", [(1, 0.5), (2, 0.5), (3, 1.2), (5, 2.2)])
def test_certify_coverage_matches_sequential_loop(n, radius):
    built = build_net(n, radius, 60, Rng(400 + n))
    # At half the radius a good share of the samples miss.
    halved = UnitaryNet(dim=n, radius=radius / 2, centers=built.centers, seed=0)
    draw = unet._draw_size(n)
    quarter = draw // 4
    for net in (built, halved):
        for samples in sorted({1, max(quarter - 1, 1), quarter + 1, draw - 1, draw + 1, 1000}):
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
