"""Greedy nets over the unitary group modulo diagonal phases.

Two unitaries define the same rank-1 observable exactly when they differ by
a diagonal phase matrix on the left (in the observable basis), so the
natural metric for net construction lives on that quotient. Packing greedily
until a rejection budget is exhausted yields an approximate covering whose
quality is certified statistically, and whose size growth against the
target accuracy gives the empirical scaling exponent.

Haar candidates are drawn, QR-factored and screened in blocks, while the
greedy decisions and the random stream stay those of one draw at a time.
"""

import math
from dataclasses import dataclass

import numpy as np

from .detector import controlled_unitary_detector
from .linalg import haar_unitaries
from .povm import check_unitaries, check_unitary

# Matrix entries per block of Haar draws: a block takes
# max(1, _BLOCK_ENTRIES // n²) draws (32 at n = 3). Screening it against
# k centres holds a few (block, k) temporaries, which set the peak memory of
# a large net.
_BLOCK_ENTRIES = 288


def _block_size(n):
    return max(1, _BLOCK_ENTRIES // (n * n))


def quotient_distance(w, v):
    """Frobenius distance minimized over left diagonal phases.

    min_D ‖W − D·V‖_F over diagonal unitaries D, which separates per basis
    vector and evaluates in closed form to sqrt(2n − 2 Σ_i |⟨i| V W† |i⟩|).
    For phases diagonal in another basis B, pass B†W and B†V.
    """
    w = check_unitary(w)
    v = check_unitary(v)
    if w.shape != v.shape:
        raise ValueError(f"dimension mismatch: {w.shape} vs {v.shape}")
    return float(_distances(w[None], v[:, None])[0, 0])


def _distances(ws, rows):
    """Quotient distances from a (b, n, n) stack to k centres, as a (b, k) array.

    `rows` holds the centres row-major, as (n, k, n): rows[i] stacks row i of
    every centre, so term i of the closed form, |⟨i| C W† |i⟩| for each pair,
    is one (b, n) × (n, k) product.
    """
    n = ws.shape[1]
    conj = ws.conj()
    overlaps = np.abs(conj[:, 0] @ rows[0].T)
    for i in range(1, n):
        overlaps += np.abs(conj[:, i] @ rows[i].T)
    return np.sqrt(np.maximum(2 * n - 2 * overlaps, 0.0))


@dataclass
class UnitaryNet:
    """Packing of unitaries at pairwise quotient distance above `radius`.

    `centers` is a (k, n, n) complex array; `candidates_tested` counts the
    Haar draws consumed during construction.
    """

    dim: int
    radius: float
    centers: np.ndarray
    seed: int
    candidates_tested: int = 0

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=complex)
        if self.centers.ndim != 3 or self.centers.shape[1:] != (self.dim, self.dim):
            raise ValueError("centers must be a (k, dim, dim) array")
        if not 0 < self.radius < math.inf:
            raise ValueError("radius must be positive and finite")
        check_unitaries(self.centers)

    def __len__(self):
        return self.centers.shape[0]


def build_net(n, radius, budget, rng):
    """Greedy packing: keep Haar candidates that clear `radius` to all centers.

    Stops once `budget` consecutive candidates are rejected. A packing that
    rejects everything thrown at it is close to maximal, and a maximal
    packing at radius r is automatically an r-covering; coverage is still
    certified separately rather than assumed.

    Candidates come in blocks of :func:`~povmforge.linalg.haar_unitaries`
    draws, screened against the centres at once; inside a block they are
    settled in draw order, against the centres and the block's earlier
    acceptances. When the stop falls inside a block, the generator is reset
    to the block's start and only the draws used are drawn again, so the
    net, `candidates_tested` and the state `rng` is left in are those of
    drawing one candidate at a time. The distances come from matrix
    products, whose roundoff differs from a one-candidate sum by about
    1e-14, so only a distance that close to `radius` could be settled
    differently.
    """
    if not 0 < radius < math.inf:
        raise ValueError("radius must be positive and finite")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    block = _block_size(n)
    rows = np.empty((n, block, n), dtype=complex)  # centres, row-major; doubles when full
    size = 0
    consecutive = 0
    tested = 0
    while consecutive < budget:
        start = rng.generator.bit_generator.state
        cands = haar_unitaries(n, block, rng)
        clear = _distances(cands, rows[:, :size]).min(axis=1, initial=np.inf) > radius
        near = _distances(cands, cands.transpose(1, 0, 2)) <= radius
        kept = []
        for t in range(block):
            if clear[t] and not near[t, kept].any():
                kept.append(t)
                consecutive = 0
            else:
                consecutive += 1
                if consecutive == budget:
                    break
        used = t + 1
        tested += used
        if size + len(kept) > rows.shape[1]:
            grown = np.empty((n, 2 * rows.shape[1], n), dtype=complex)
            grown[:, :size] = rows[:, :size]
            rows = grown
        rows[:, size:size + len(kept)] = cands[kept].transpose(1, 0, 2)
        size += len(kept)
        if used < block:
            rng.generator.bit_generator.state = start
            haar_unitaries(n, used, rng)
    return UnitaryNet(
        dim=n,
        radius=radius,
        centers=rows[:, :size].transpose(1, 0, 2).copy(),
        seed=rng.seed,
        candidates_tested=tested,
    )


def certify_coverage(net, samples, rng):
    """Fraction of fresh Haar samples within `net.radius` of some center.

    Samples come in the blocks :func:`build_net` draws, with the same
    outcome and the same use of `rng` as one sample at a time.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rows = np.ascontiguousarray(net.centers.transpose(1, 0, 2))
    block = _block_size(net.dim)
    hits = 0
    for start in range(0, samples, block):
        ws = haar_unitaries(net.dim, min(block, samples - start), rng)
        nearest = _distances(ws, rows).min(axis=1, initial=np.inf)
        hits += int(np.count_nonzero(nearest <= net.radius))
    return hits / samples


def net_detector(net):
    """Controlled-unitary detector whose program basis enumerates the net.

    For another measurement basis B, pass a net whose centers are B†W_k.
    """
    return controlled_unitary_detector(list(net.centers))


@dataclass
class NetScanRow:
    epsilon: float
    radius: float
    net_size: int
    coverage_rate: float
    seed: int


@dataclass
class ScanResult:
    rows: list
    exponent: float
    kappa: float


def scaling_scan(n, eps_list, budget, rng, samples=1000):
    """Net size against target accuracy, with a log-log exponent fit.

    Each accuracy ε maps to a net radius ε/sqrt(2n) (the factor under
    which unitary closeness controls observable distance). Per-row seeds
    derive deterministically from `rng` so rows are independent and
    replayable. The exponent is the least-squares slope of log(size)
    against log(1/ε), so it needs at least two distinct ε; kappa is the
    fitted prefactor exp(intercept).
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    eps_list = [float(e) for e in eps_list]
    for e in eps_list:
        if not 0 < e <= 2:
            raise ValueError(f"epsilon {e} outside (0, 2]")
    if len(set(eps_list)) < 2:
        raise ValueError("the exponent fit needs at least two distinct epsilons")
    if samples < 1:
        raise ValueError("need at least one sample")
    rows = []
    scale = math.sqrt(2 * n)
    for i, eps in enumerate(eps_list):
        build_rng = rng.child(2 * i)
        net = build_net(n, eps / scale, budget, build_rng)
        rate = certify_coverage(net, samples, rng.child(2 * i + 1))
        rows.append(
            NetScanRow(
                epsilon=eps,
                radius=eps / scale,
                net_size=len(net),
                coverage_rate=rate,
                seed=build_rng.seed,
            )
        )
    x = np.log([1.0 / r.epsilon for r in rows])
    y = np.log([r.net_size for r in rows])
    slope, intercept = np.polyfit(x, y, 1)
    return ScanResult(rows=rows, exponent=float(slope), kappa=float(math.exp(intercept)))
