"""Greedy nets over the unitary group modulo diagonal phases.

Two unitaries define the same rank-1 observable exactly when they differ by
a diagonal phase matrix on the left (in the observable basis), so the
natural metric for net construction lives on that quotient. Packing greedily
until a rejection budget is exhausted yields an approximate covering whose
quality is certified statistically, and whose size growth against the
target accuracy gives the empirical scaling exponent.

Haar candidates are drawn and QR-factored many at a time, while the greedy
decisions and the random stream stay those of one draw at a time. A draw is
screened against the centres by single-precision products of
phase-invariant Gram vectors: with oᵢ = ⟨wᵢ, cᵢ⟩ for row i of W and C, the
Gram product G = Σᵢ|oᵢ|² is the inner product of g(W) and g(C), the real and
imaginary parts of the n row projectors (2n³ reals). A pair lies within
radius r exactly when Σᵢ|oᵢ| ≥ θ = n − r²/2. Cauchy–Schwarz bounds Σᵢ|oᵢ|
by √(n·G), so a pair with G below max(θ, 0)²/n is far. Since no |oᵢ|
exceeds 1, Σᵢ|oᵢ| ≥ ⌊G⌋ + √(G − ⌊G⌋), so for θ > 0 a pair with
G ≥ ⌊θ⌋ + (θ − ⌊θ⌋)² is near; for θ ≤ 0 every pair is. Only the pairs
between the two bounds, of candidates not already settled, get the exact
closed-form distance. The draw's clear candidates are screened against each
other the same way, in one product that the draw size keeps within the
screen's cap, and settled in draw order.
"""

import math
from dataclasses import dataclass

import numpy as np

from .detector import controlled_unitary_detector
from .linalg import CapacityError, as_int, as_real, as_seed, haar_unitaries
from .povm import UNITARY_TOL, check_unitaries, check_unitary

# Entries in one Gram product of the screen (512 KiB in float32): a draw of
# b candidates meets max(1, _SCREEN_ENTRIES // b) centres per product, and
# its clear candidates meet each other in one product, since no draw exceeds
# √_SCREEN_ENTRIES candidates. The closed form takes the pairs between the
# bounds in chunks of _SCREEN_ENTRIES // n², so its (p, n, n) stacks hold as
# many entries.
_SCREEN_ENTRIES = 1 << 17

# Largest net dimension: the slack of `_bounds` is derived for 2n³·2⁻²⁴ ≤ ½.
NET_DIM_CAP = 161

# Slack on both Gram bounds. With u = 2⁻²⁴, w = 2n³ the Gram width and rows
# within τ = UNITARY_TOL of unit norm, so that ‖g(U)‖² = Σᵢ‖uᵢ‖⁴ ≤ n(1 + τ)²:
# casting the two Gram vectors to float32 moves each term of the product by
# at most 2u, and the float32 dot adds at most γ_w = wu/(1 − wu) ≤ 2wu (for
# wu ≤ ½, so n ≤ 161), both relative to Σₖ|g(W)ₖ·g(C)ₖ| ≤ n(1 + τ)².
# Comparing with a bound rounds the bound to float32, u·n more, and the
# float64 Gram vectors and closed form add a few n·2⁻⁵³. With the
# second-order terms the product P̃ is within (2w + 7)·u·n + 3τn of G.
#
# For θ = n − r²/2 > 0 the near bound is ψ(θ) = ⌊θ⌋ + (θ − ⌊θ⌋)², the
# inverse of φ(G) = ⌊G⌋ + √(G − ⌊G⌋). For |oᵢ| in [0, 1] with Σᵢ|oᵢ|² = G,
# Σᵢ|oᵢ| ≥ φ(G): Σᵢ√yᵢ is concave over the polytope {0 ≤ yᵢ ≤ 1, Σᵢyᵢ = G},
# so its minimum sits at a vertex, and a vertex has at most one fractional
# coordinate. Rows within τ of unit norm allow |oᵢ| ≤ 1 + τ, which gives
# Σᵢ|oᵢ| ≥ φ(G/(1 + τ)²) with G/(1 + τ)² ≥ G − (2τ + τ²)n. φ is increasing
# with slope at least ½, so P̃ ≥ ψ(θ) + slack gives Σᵢ|oᵢ| ≥ θ after the
# product error and the τ term: the margin the slack leaves over is at worst
# halved, and still far above the closed form's few n·2⁻⁵³. And
# φ(G) ≤ √(nG), the floor's Cauchy–Schwarz bound, so ψ(θ) ≥ θ²/n and the
# near bound never falls below the floor. So no pair that the closed form
# puts within the radius falls below the floor, and every pair that clears
# the near bound is one it puts within. For θ ≤ 0 every pair is within the
# radius and the near bound stays θ, below every product once θ < −slack;
# it may then sit below the floor, which only decides pairs that the near
# bound has not.
def _bounds(n, radius):
    """The Gram floor, below which a pair is far, and the near bound."""
    theta = n - radius * radius / 2
    whole = math.floor(theta)
    near = whole + (theta - whole) ** 2 if theta > 0 else theta
    slack = ((4 * n ** 3 + 8) * 2.0 ** -24 + 5 * UNITARY_TOL) * n
    return max(theta, 0.0) ** 2 / n - slack, near + slack


def _draw_size(n):
    """Haar draws per `haar_unitaries` call: 4·max(1, 288 // n²) up to √_SCREEN_ENTRIES."""
    return min(math.isqrt(_SCREEN_ENTRIES), 4 * max(1, 288 // (n * n)))


def _check_dim(n):
    """`n` as an int, refused below 1, and past NET_DIM_CAP with CapacityError."""
    n = as_int(n, "dimension")
    if n < 1:
        raise ValueError("dimension must be positive")
    if n > NET_DIM_CAP:
        raise CapacityError(f"dimension {n} exceeds the net cap ({NET_DIM_CAP})")
    return n


def _positive_real(value, name, most=math.inf):
    """`value` as a finite float in (0, `most`], read by `linalg.as_real`."""
    x = as_real(value)
    if not (0 < x <= most and math.isfinite(x)):
        bound = "finite" if most == math.inf else f"at most {most:g}"
        raise ValueError(f"{name} must be positive and {bound}")
    return x


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


def _within(ws, cs, a, c, radius):
    """Whether each pair (ws[a], cs[c]) lies within `radius`, by the closed form."""
    step = max(1, _SCREEN_ENTRIES // ws.shape[1] ** 2)
    out = np.empty(len(a), dtype=bool)
    for lo in range(0, len(a), step):
        pairs = slice(lo, lo + step)
        out[pairs] = _distances(ws[a[pairs]], cs[c[pairs]]) <= radius
    return out


def _near(ws, gws, centres, grams, radius):
    """Whether each of a (b, n, n) stack lies within `radius` of some centre.

    `gws` and `grams` are the Gram vectors of `ws` and of the (k, n, n)
    `centres`. The centres are met in slices; a candidate found near in one
    is not screened again, and only pairs between the floor and the near
    bound get the exact distance.
    """
    floor, sure = _bounds(ws.shape[1], radius)
    near = np.zeros(len(ws), dtype=bool)
    step = max(1, _SCREEN_ENTRIES // len(ws))
    for lo in range(0, len(centres), step):
        rows = np.flatnonzero(~near)
        if not len(rows):
            break
        prod = gws[rows] @ grams[lo:lo + step].T
        hit = (prod >= sure).any(axis=1)
        near[rows[hit]] = True
        rows = rows[~hit]
        a, c = np.divmod(np.flatnonzero(prod[~hit] >= floor), prod.shape[1])
        near[rows[a[_within(ws, centres[lo:lo + step], rows[a], c, radius)]]] = True
    return near


def _settle(ws, gws, clear, radius, run, budget):
    """Greedy pass over the clear candidates `clear` of a draw `ws`.

    In draw order, a clear candidate is kept unless it lies within `radius`
    of one kept before it in the draw; the pass stops at the first one
    `budget` or more draws after `run`, where the rejections began. The
    clear candidates meet each other in one Gram product, and the pairs
    between the floor and the near bound, earlier candidate first, get the
    exact distance. Returns the kept draw indices and the index after the
    last of them (`run` if none).
    """
    floor, sure = _bounds(ws.shape[1], radius)
    prod = gws[clear] @ gws[clear].T
    near = prod >= sure
    a, c = np.nonzero(np.triu((prod >= floor) & ~near, 1))
    near[a, c] = _within(ws, ws, clear[a], clear[c], radius)
    kept = []
    hit = np.zeros(len(clear), dtype=bool)  # near a kept candidate
    for i, t in enumerate(clear.tolist()):
        if t >= run + budget:
            break
        if not hit[i]:
            kept.append(t)
            run = t + 1
            hit |= near[i]
    return kept, run


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

    The constructor alone checks the fields and stores each as a plain
    Python value, so every net that constructs can be written to JSON and
    read back. `dim`, `radius` and `seed` follow :func:`build_net` and `Rng`;
    `candidates_tested`, the Haar draws consumed during construction, is an
    int ≥ 0; `centers` is a (k, n, n) unitary stack read by `linalg.as_array`, k = 0 if empty.
    """

    dim: int
    radius: float
    centers: np.ndarray
    seed: int
    candidates_tested: int = 0

    def __post_init__(self):
        n = self.dim = _check_dim(self.dim)
        self.radius = _positive_real(self.radius, "radius")
        self.seed = as_seed(self.seed)
        self.candidates_tested = as_int(self.candidates_tested, "candidates_tested")
        if self.candidates_tested < 0:
            raise ValueError("candidates_tested must be nonnegative")
        centers = np.empty((0, n, n)) if np.shape(self.centers) == (0,) else self.centers
        if np.shape(centers)[1:] != (n, n):
            raise ValueError("centers must be a (k, dim, dim) array")
        self.centers = check_unitaries(centers)

    def __len__(self):
        return self.centers.shape[0]


def build_net(n, radius, budget, rng):
    """Greedy packing: keep Haar candidates that clear `radius` to all centers.

    Stops once `budget` consecutive candidates are rejected. A packing that
    rejects everything thrown at it is close to maximal, and a maximal
    packing at radius r is automatically an r-covering; coverage is still
    certified separately rather than assumed.

    Each :func:`~povmforge.linalg.haar_unitaries` call draws many candidates.
    The draw is screened against the centres at once, and its clear
    candidates are settled in draw order against the draw's earlier
    acceptances, counting the rejected draws between them. When the stop
    falls inside a draw, the generator is reset to the draw's start and only
    the draws used are drawn again, so the net, `candidates_tested` and the
    state `rng` is left in are those of drawing one candidate at a time.
    The Gram bounds settle only pairs on which the closed form agrees, and
    the closed form comes from elementwise products, whose roundoff differs
    from a one-candidate sum by about 1e-14, so only a distance that close
    to `radius` could be settled differently. Refused with CapacityError
    past NET_DIM_CAP.
    """
    n, radius = _check_dim(n), _positive_real(radius, "radius")
    if as_int(budget, "budget") < 1:
        raise ValueError("budget must be at least 1")
    draw = _draw_size(n)
    centres = np.empty((draw, n, n), dtype=complex)  # doubles when full
    grams = np.empty((draw, 2 * n ** 3), dtype=np.float32)
    size = 0
    run = 0  # index in the current draw where the rejections began; < 0 if earlier
    tested = 0
    while True:
        start = rng.generator.bit_generator.state
        ws = haar_unitaries(n, draw, rng)
        gws = _grams(ws).astype(np.float32)
        clear = np.flatnonzero(~_near(ws, gws, centres[:size], grams[:size], radius))
        kept, run = _settle(ws, gws, clear, radius, run, budget)
        centres = _grown(centres, size, size + len(kept))
        grams = _grown(grams, size, size + len(kept))
        centres[size:size + len(kept)] = ws[kept]
        grams[size:size + len(kept)] = gws[kept]
        size += len(kept)
        if run + budget <= draw:
            break
        tested += draw
        run -= draw
    used = run + budget
    tested += used
    if used < draw:
        rng.generator.bit_generator.state = start
        haar_unitaries(n, used, rng)
    return UnitaryNet(n, radius, centres[:size].copy(), rng.seed, tested)


def certify_coverage(net, samples, rng):
    """Fraction of fresh Haar samples within `net.radius` of some center.

    Samples come in the draws :func:`build_net` takes and are screened the
    same way, with the same outcome and the same use of `rng` as one sample
    at a time. Refused with CapacityError past NET_DIM_CAP.
    """
    _check_dim(net.dim)
    if as_int(samples, "samples") < 1:
        raise ValueError("need at least one sample")
    centres = net.centers
    draw = _draw_size(net.dim)
    grams = np.empty((len(centres), 2 * net.dim ** 3), dtype=np.float32)
    for lo in range(0, len(centres), draw):  # no complex stack of the whole net
        grams[lo:lo + draw] = _grams(centres[lo:lo + draw])
    hits = 0
    for start in range(0, samples, draw):
        ws = haar_unitaries(net.dim, min(draw, samples - start), rng)
        near = _near(ws, _grams(ws).astype(np.float32), centres, grams, net.radius)
        hits += int(np.count_nonzero(near))
    return hits / samples


def net_detector(net):
    """Controlled-unitary detector whose program basis enumerates the net.

    It is programmed from the centre stack; its dense (n, n·d, n·d) joint
    is built only when `joint` is read. For another measurement basis B,
    pass a net whose centers are B†W_k.
    """
    return controlled_unitary_detector(net.centers)


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
    n = _check_dim(n)
    eps_list = [_positive_real(e, "epsilon", 2) for e in eps_list]
    if len(set(eps_list)) < 2:
        raise ValueError("the exponent fit needs at least two distinct epsilons")
    if as_int(samples, "samples") < 1:
        raise ValueError("need at least one sample")
    rows = []
    scale = math.sqrt(2 * n)
    for i, eps in enumerate(eps_list):
        net = build_net(n, eps / scale, budget, rng.child(2 * i))
        rate = certify_coverage(net, samples, rng.child(2 * i + 1))
        rows.append(NetScanRow(eps, net.radius, len(net), rate, net.seed))
    x = np.log([1.0 / r.epsilon for r in rows])
    y = np.log([r.net_size for r in rows])
    slope, intercept = np.polyfit(x, y, 1)
    return ScanResult(rows=rows, exponent=float(slope), kappa=float(math.exp(intercept)))
