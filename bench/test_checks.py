"""Each output check of the benchmark accepts a right output and rejects a wrong one.

Run from the repository root: python3 -m pytest bench/test_checks.py
"""

import itertools
import math

import numpy as np
import pytest

import checks
from checks import CheckError


def rng(seed=0):
    return np.random.default_rng(seed)


def random_povm(g, k=3, n=2):
    z = g.standard_normal((k, n, n)) + 1j * g.standard_normal((k, n, n))
    a = z @ z.conj().transpose(0, 2, 1)
    w, v = np.linalg.eigh(a.sum(axis=0))
    isq = (v / np.sqrt(w)) @ v.conj().T
    e = isq @ a @ isq
    return (e + e.conj().transpose(0, 2, 1)) / 2


def brute_distance(p, q):
    """Exact distance and witness by enumerating every sign vector."""
    deltas = p - q
    best, vec = -1.0, None
    for signs in itertools.product((1.0, -1.0), repeat=len(deltas)):
        vals, vecs = np.linalg.eigh(np.einsum("k,kij->ij", signs, deltas))
        if vals[-1] > best:
            best, vec = vals[-1], vecs[:, -1]
    return float(best), np.outer(vec, vec.conj())


def bounds(p, q):
    d = p - q
    return (sum(np.abs(np.linalg.eigvalsh(x)).max() for x in d),
            np.linalg.norm(d, axis=(1, 2)).sum())


def probes(g, count=64, n=2):
    v = g.standard_normal((count, n)) + 1j * g.standard_normal((count, n))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@pytest.fixture
def pair():
    g = rng(1)
    p, q = random_povm(g), random_povm(g)
    delta, witness = brute_distance(p, q)
    return p, q, delta, witness, probes(g)


def test_law_accepts_exact_and_rejects_shift():
    checks.check_law("d", 2 / 11, 2 / 11)
    with pytest.raises(CheckError):
        checks.check_law("d", 2 / 11 + 1e-6, 2 / 11)


def test_distance_accepts_exact_result(pair):
    p, q, delta, witness, probe_states = pair
    checks.check_distance(delta, witness, bounds(p, q), p, q, probe_states)


def test_distance_rejects_shifted_delta(pair):
    p, q, delta, witness, probe_states = pair
    with pytest.raises(CheckError):
        checks.check_distance(delta + 1e-6, witness, bounds(p, q), p, q, probe_states)


def test_distance_rejects_witness_that_misses_delta(pair):
    p, q, delta, _, probe_states = pair
    with pytest.raises(CheckError):
        checks.check_distance(delta, np.eye(2) / 2, bounds(p, q), p, q, probe_states)


def test_distance_rejects_wrong_bound(pair):
    p, q, delta, witness, probe_states = pair
    b_op, b_fro = bounds(p, q)
    with pytest.raises(CheckError):
        checks.check_distance(delta, witness, (b_op * 1.01, b_fro), p, q, probe_states)


def test_swap_pair_value():
    p = random_povm(rng(2), k=4)
    q = p.copy()
    q[[0, 2]] = p[[2, 0]]
    delta, _ = brute_distance(p, q)
    checks.check_swap(delta, p[0], p[2])
    with pytest.raises(CheckError):
        checks.check_swap(delta / 2, p[0], p[2])
    with pytest.raises(CheckError):
        checks.check_swap(delta, p[0], p[1])


def greedy_packing(g, n, radius, count):
    centres = [checks.haar_unitary(g, n)]
    while len(centres) < count:
        w = checks.haar_unitary(g, n)
        if checks.quotient_distances(w, np.array(centres)).min() > radius:
            centres.append(w)
    return np.array(centres)


def test_packing_rejects_close_centres():
    g = rng(3)
    centres = greedy_packing(g, 2, 0.5, 12)
    checks.check_packing(centres, 0.5)
    # A left diagonal phase leaves the quotient point unchanged: distance 0.
    twin = np.diag(np.exp(1j * g.uniform(0, 2 * math.pi, 2))) @ centres[4]
    with pytest.raises(CheckError):
        checks.check_packing(np.concatenate([centres, twin[None]]), 0.5)


def test_coverage_rejects_count_off_by_one():
    g = rng(4)
    centres = greedy_packing(g, 2, 0.6, 8)
    hits = checks.coverage_count(centres, 0.6, 200, seed=99)
    assert 0 < hits < 200
    checks.check_coverage(hits / 200, centres, 0.6, 200, seed=99)
    for wrong in (hits - 1, hits + 1):
        with pytest.raises(CheckError):
            checks.check_coverage(wrong / 200, centres, 0.6, 200, seed=99)


def test_net_bound_and_programmed_observables():
    g = rng(5)
    centres = greedy_packing(g, 2, 0.5, 6)
    targets = [checks.haar_unitary(g, 2) for _ in range(5)]
    exact = [min(brute_distance(checks.observable_effects(u), checks.observable_effects(c))[0]
                 for c in centres) for u in targets]
    checks.check_net_bound(exact, targets, centres)
    with pytest.raises(CheckError):
        checks.check_net_bound([d + 2.0 for d in exact], targets, centres)
    programmed = [checks.observable_effects(c) for c in centres]
    checks.check_programmed(programmed, centres)
    with pytest.raises(CheckError):
        checks.check_programmed(programmed[1:] + programmed[:1], centres)


def test_projector_trace_and_idempotency():
    v = np.linalg.qr(rng(6).standard_normal((8, 3)))[0]
    p = v @ v.T
    checks.check_projector(p, 3)
    with pytest.raises(CheckError):
        checks.check_projector(p, 4)
    with pytest.raises(CheckError):
        checks.check_projector(1.01 * p, 3)
