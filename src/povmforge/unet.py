"""Greedy nets over the unitary group modulo diagonal phases.

Two unitaries define the same rank-1 observable exactly when they differ by
a diagonal phase matrix on the left (in the observable basis), so the
natural metric for net construction lives on that quotient. Packing greedily
until a rejection budget is exhausted yields an approximate covering whose
quality is certified statistically, and whose size growth against the
target accuracy gives the empirical scaling exponent.

Haar candidates are drawn, QR-factored and screened in blocks, while the
greedy decisions and the random stream stay those of one draw at a time.
A block is screened against every centre by one real GEMM of phase-invariant
Gram vectors: with oᵢ = ⟨wᵢ, cᵢ⟩ for row i of W and C, Σᵢ|oᵢ|² is the inner
product of g(W) and g(C), the real and imaginary parts of the n row
projectors (2n³ reals), and Cauchy–Schwarz bounds Σᵢ|oᵢ| by √(n·Σᵢ|oᵢ|²).
A pair within radius r has Σᵢ|oᵢ| ≥ n − r²/2, so a pair whose Gram product
falls below max(n − r²/2, 0)²/n is far; only the pairs that clear this floor
get the exact closed-form distance, a fraction of a percent in a large net.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .detector import controlled_unitary_detector
from .linalg import haar_unitaries
from .povm import check_unitaries, check_unitary

# Matrix entries per screening block of Haar draws: a block takes
# max(1, _BLOCK_ENTRIES // n²) draws (32 at n = 3). Screening it against
# k centres holds a (block, k) Gram product, which sets the peak memory of
# a large net. One `haar_unitaries` call draws _DRAW_BLOCKS blocks.
_BLOCK_ENTRIES = 288
_DRAW_BLOCKS = 4

# Slack on the Gram floor, relative to n, the largest Gram product of two
# unitaries. The GEMM's roundoff is at most 2n³·u·n (‖g(U)‖² = n), and the
# closed form's at most a few n·u, both far below 1e-9·n for any n a net can
# hold, so no pair that the closed form puts within the radius is pruned.
_FLOOR_SLACK = 1e-9


def _block_size(n):
    return max(1, _BLOCK_ENTRIES // (n * n))


def _count(value, name):
    """`value` as an int, refusing NaN, floats and other non-integers."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


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
    return float(_distances(w, v))


def _distances(ws, cs):
    """Quotient distances between two broadcast stacks of (n, n) unitaries.

    Term i of the closed form, |⟨i| C W† |i⟩|, is the overlap of row i of W
    with row i of C.
    """
    n = ws.shape[-1]
    overlaps = np.abs((ws.conj() * cs).sum(axis=-1)).sum(axis=-1)
    return np.sqrt(np.maximum(2 * n - 2 * overlaps, 0.0))


def _grams(us):
    """g(U) for a (b, n, n) stack: its n row projectors as (b, 2n³) reals.

    ⟨g(W), g(C)⟩ = Σᵢ Tr(wᵢwᵢ† cᵢcᵢ†) = Σᵢ|⟨wᵢ, cᵢ⟩|², and g is unchanged by
    left diagonal phases.
    """
    b, n = us.shape[:2]
    projectors = us[:, :, :, None] * us[:, :, None, :].conj()
    return projectors.view(float).reshape(b, 2 * n ** 3)


def _near(ws, gws, centres, grams, radius):
    """Whether each of a (b, n, n) stack lies within `radius` of some centre.

    `gws` and `grams` are the Gram vectors of `ws` and of the (k, n, n)
    `centres`. Pairs whose Gram product falls below the floor are far; the
    rest get the exact distance.
    """
    n = ws.shape[1]
    theta = max(n - radius * radius / 2, 0.0)
    floor = theta * theta / n - _FLOOR_SLACK * n
    a, c = np.divmod(np.flatnonzero(gws @ grams.T >= floor), len(centres))
    near = np.zeros(len(ws), dtype=bool)
    near[a[_distances(ws[a], centres[c]) <= radius]] = True
    return near


def _grown(buf, size, need):
    """`buf` with its first `size` rows kept and room for at least `need`."""
    if need <= len(buf):
        return buf
    out = np.empty((max(need, 2 * len(buf)),) + buf.shape[1:], dtype=buf.dtype)
    out[:size] = buf[:size]
    return out


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

    Each :func:`~povmforge.linalg.haar_unitaries` call draws several
    screening blocks. A block is screened against the centres at once, and
    its clear candidates are settled in draw order against the block's
    earlier acceptances, counting the rejected draws between them. When the
    stop falls inside a draw, the generator is reset to the draw's start and
    only the draws used are drawn again, so the net, `candidates_tested` and
    the state `rng` is left in are those of drawing one candidate at a time.
    The distances come from elementwise products, whose roundoff differs
    from a one-candidate sum by about 1e-14, so only a distance that close
    to `radius` could be settled differently.
    """
    if _count(n, "dimension") < 1:
        raise ValueError("dimension must be positive")
    if not 0 < radius < math.inf:
        raise ValueError("radius must be positive and finite")
    if _count(budget, "budget") < 1:
        raise ValueError("budget must be at least 1")
    block = _block_size(n)
    draw = _DRAW_BLOCKS * block
    centres = np.empty((block, n, n), dtype=complex)  # doubles when full
    grams = np.empty((block, 2 * n ** 3))
    size = 0
    run = 0  # index in the current draw where the rejections began; < 0 if earlier
    tested = 0
    while True:
        start = rng.generator.bit_generator.state
        cands = haar_unitaries(n, draw, rng)
        for lo in range(0, draw, block):
            ws = cands[lo:lo + block]
            gws = _grams(ws)
            clear = np.flatnonzero(~_near(ws, gws, centres[:size], grams[:size], radius))
            near = _distances(ws[clear, None], ws[None, clear]) <= radius
            blocked = np.zeros(len(clear), dtype=bool)  # near a kept one
            kept = []
            for j, t in enumerate(clear.tolist()):
                if lo + t >= run + budget:
                    break
                if not blocked[j]:
                    kept.append(j)
                    blocked |= near[j]
                    run = lo + t + 1
            centres = _grown(centres, size, size + len(kept))
            grams = _grown(grams, size, size + len(kept))
            centres[size:size + len(kept)] = ws[clear[kept]]
            grams[size:size + len(kept)] = gws[clear[kept]]
            size += len(kept)
            if run + budget <= lo + len(ws):
                break
        if run + budget <= draw:
            break
        tested += draw
        run -= draw
    used = run + budget
    tested += used
    if used < draw:
        rng.generator.bit_generator.state = start
        haar_unitaries(n, used, rng)
    return UnitaryNet(
        dim=n,
        radius=radius,
        centers=centres[:size].copy(),
        seed=rng.seed,
        candidates_tested=tested,
    )


def certify_coverage(net, samples, rng):
    """Fraction of fresh Haar samples within `net.radius` of some center.

    Samples come in the draws and blocks :func:`build_net` takes, with the
    same outcome and the same use of `rng` as one sample at a time.
    """
    if _count(samples, "samples") < 1:
        raise ValueError("need at least one sample")
    centres = net.centers
    grams = _grams(centres)
    block = _block_size(net.dim)
    draw = _DRAW_BLOCKS * block
    hits = 0
    for start in range(0, samples, draw):
        ws = haar_unitaries(net.dim, min(draw, samples - start), rng)
        for lo in range(0, len(ws), block):
            part = ws[lo:lo + block]
            near = _near(part, _grams(part), centres, grams, net.radius)
            hits += int(np.count_nonzero(near))
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
