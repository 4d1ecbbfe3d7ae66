"""Greedy nets over the unitary group modulo diagonal phases.

Two unitaries define the same rank-1 observable exactly when they differ by
a diagonal phase matrix on the left (in the observable basis), so the
natural metric for net construction lives on that quotient. Packing greedily
until a rejection budget is exhausted yields an approximate covering whose
quality is certified statistically, and whose size growth against the
target accuracy gives the empirical scaling exponent.
"""

import math
from dataclasses import dataclass

import numpy as np

from .detector import controlled_unitary_detector
from .linalg import haar_unitary
from .povm import check_unitary


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
    return float(_distances_to_centers(w, v[None])[0])


def _distances_to_centers(w, centers):
    # Vectorized closed form against a (k, n, n) stack; diag(C_k W†) rows.
    n = w.shape[0]
    overlaps = np.abs(np.einsum("kij,ij->ki", centers, w.conj())).sum(axis=1)
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
        if not math.isfinite(self.radius):
            raise ValueError("radius must be finite")
        for c in self.centers:
            check_unitary(c)

    def __len__(self):
        return self.centers.shape[0]


def build_net(n, radius, budget, rng):
    """Greedy packing: keep Haar candidates that clear `radius` to all centers.

    Stops once `budget` consecutive candidates are rejected. A packing that
    rejects everything thrown at it is close to maximal, and a maximal
    packing at radius r is automatically an r-covering; coverage is still
    certified separately rather than assumed.
    """
    if not 0 < radius < math.inf:
        raise ValueError("radius must be positive and finite")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    centers = np.zeros((0, n, n), dtype=complex)
    consecutive = 0
    tested = 0
    while consecutive < budget:
        cand = haar_unitary(n, rng)
        tested += 1
        if len(centers) == 0 or _distances_to_centers(cand, centers).min() > radius:
            centers = np.concatenate([centers, cand[None]], axis=0)
            consecutive = 0
        else:
            consecutive += 1
    return UnitaryNet(
        dim=n, radius=radius, centers=centers, seed=rng.seed, candidates_tested=tested
    )


def certify_coverage(net, samples, rng):
    """Fraction of fresh Haar samples within `net.radius` of some center."""
    if samples < 1:
        raise ValueError("need at least one sample")
    hits = 0
    for _ in range(samples):
        w = haar_unitary(net.dim, rng)
        if _distances_to_centers(w, net.centers).min() <= net.radius:
            hits += 1
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
