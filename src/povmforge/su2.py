"""SU(2) representation machinery and two explicit qubit detector schemes.

Conventions, fixed once and shared by everything basis-dependent here:

* angular momentum values are stored as twice their value (``twice_j``), so
  half-integers stay exact;
* magnetic quantum numbers run descending, m = j, j-1, ..., -j, and the
  spin-1/2 basis identifies ``|1/2,+1/2> == |0>`` and ``|1/2,-1/2> == |1>``;
* Clebsch-Gordan coefficients follow the Condon-Shortley phase convention
  (they come out real, highest-weight couplings positive);
* rotation matrices use the z-y-z Euler decomposition
  D(a,b,g) = exp(-i a Jz) exp(-i b Jy) exp(-i g Jz).

Programmed POVMs are insensitive to the phase conventions; the tests pin
them anyway so every basis-dependent intermediate is reproducible.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .detector import IsometryDetector, _dense_isometry
from .linalg import CapacityError, as_array, as_int, as_real
from .povm import _unit_vector, check_unitary, observable_from_unitary, pure_state

# The caps guard only the dense joints, built when `joint` is read, and the
# 2^N-entry symmetric reference: the covariant joint, of dimension 2(2j+1), fits
# in the 2^SYMMETRIC_QUBIT_CAP = 4096 dimensions the Fiurasek one may hold.
SYMMETRIC_QUBIT_CAP = 12
FIURASEK_COPY_CAP = SYMMETRIC_QUBIT_CAP - 1
COVARIANT_TWICE_J_CAP = 2 ** (SYMMETRIC_QUBIT_CAP - 1) - 1


@dataclass(frozen=True)
class AngularMomentum:
    """Spin quantum number j, stored as the integer 2j."""

    twice_j: int

    def __post_init__(self):
        if as_int(self.twice_j, "twice_j") < 0:
            raise ValueError("twice_j must be a nonnegative integer")

    @property
    def j(self):
        return self.twice_j / 2

    @property
    def dim(self):
        return self.twice_j + 1

    @staticmethod
    def coerce(value):
        """An AngularMomentum as is, else a half-integer real as `linalg.as_real` reads it."""
        if isinstance(value, AngularMomentum):
            return value
        return AngularMomentum(_twice_half_integer(value))


def _twice_half_integer(value):
    twice = 2 * as_real(value)
    if not math.isfinite(twice) or abs(twice - round(twice)) > 1e-9:
        raise ValueError(f"{value!r} is not a finite half-integer")
    return int(round(twice))


class GroupElement:
    """SU(2) element carrying both Euler angles and its 2x2 matrix.

    Building from angles (finite reals as `linalg.as_real` reads them)
    computes the matrix; building from the matrix recovers angles that
    reproduce it exactly, including the overall sign, so half-integer
    representations evaluate without ambiguity.
    """

    def __init__(self, alpha, beta, gamma):
        self.euler_angles = tuple(map(as_real, (alpha, beta, gamma)))
        if not all(map(math.isfinite, self.euler_angles)):
            raise ValueError(f"Euler angles must be finite reals, got {(alpha, beta, gamma)!r}")
        self.matrix = _irrep_from_euler(1, *self.euler_angles)

    @classmethod
    def identity(cls):
        return cls(0.0, 0.0, 0.0)

    @classmethod
    def from_matrix(cls, u):
        u = check_unitary(u)
        if u.shape != (2, 2):
            raise ValueError("group element matrix must be 2x2")
        det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
        if abs(det - 1.0) > 1e-10:
            raise ValueError(f"matrix determinant {det} is not 1")
        beta = 2.0 * math.atan2(abs(u[1, 0]), abs(u[0, 0]))
        p = float(np.angle(u[1, 1])) if abs(u[1, 1]) > 1e-12 else 0.0
        q = float(np.angle(u[1, 0])) if abs(u[1, 0]) > 1e-12 else 0.0
        return cls(p + q, beta, p - q)

    @classmethod
    def random(cls, rng):
        """Haar-distributed element: uniform alpha, uniform cos(beta), gamma over 4 pi."""
        g = rng.generator
        alpha = g.uniform(0.0, 2.0 * math.pi)
        beta = math.acos(g.uniform(-1.0, 1.0))
        gamma = g.uniform(0.0, 4.0 * math.pi)
        return cls(alpha, beta, gamma)

    def __repr__(self):
        a, b, g = self.euler_angles
        return f"GroupElement(alpha={a:.4f}, beta={b:.4f}, gamma={g:.4f})"


def compose(g, h):
    """Group product g∘h, recovered through the 2x2 matrices."""
    return GroupElement.from_matrix(g.matrix @ h.matrix)


def _coherent_amplitudes(twice_j, v):
    # W|j,j> for a rotation W with first column v = (a, b): c_k ∝ sqrt(C(2j, k)) a^(2j-k) b^k
    # at m = j - k, in log space and scaled to max |c_k| = 1, so no power over- or underflows.
    a, b = v
    k = np.arange(twice_j + 1)
    if a == 0 or b == 0:
        return (k == (twice_j if a == 0 else 0)).astype(complex)
    half_log_binom = np.log(np.append(1.0, (twice_j + 1 - k[1:]) / k[1:])).cumsum() / 2
    logs = half_log_binom + (twice_j - k) * np.log(a) + k * np.log(b)
    return np.exp(logs - logs.real.max())


def _irrep_from_euler(twice_j, alpha, beta, gamma):
    # d^j(beta) = exp(-i beta J_y), from the eigenvectors of J_y = (J+ - J-)/2i
    # at m = j, ..., -j; Condon-Shortley makes <m+1|J+|m> = sqrt(j(j+1) - m(m+1)).
    j = twice_j / 2.0
    ms = np.arange(twice_j, -twice_j - 1, -2) / 2.0
    j_plus = np.diag(np.sqrt(j * (j + 1) - ms[1:] * (ms[1:] + 1)), 1)
    vals, vecs = np.linalg.eigh((j_plus - j_plus.T) / 2j)
    d = ((vecs * np.exp(-1j * beta * vals)) @ vecs.conj().T).real
    return np.exp(-1j * ms[:, None] * alpha) * d * np.exp(-1j * ms[None, :] * gamma)


def irrep_matrix(j, g):
    """Spin-j rotation, m-descending basis; its column 0 is the coherent-state oracle.

    Refused with CapacityError past the covariant detector's cap, 2j = 2047.
    """
    j = _covariant_spin(j)
    return _irrep_from_euler(j.twice_j, *g.euler_angles)


def _cg_exact(tj1, tm1, tj2, tm2, tJ, tM):
    # Racah's closed form. Everything under the square root and the
    # alternating sum are exact rationals; only the final sqrt is floating.
    if tM != tm1 + tm2:
        return 0.0
    if tJ < abs(tj1 - tj2) or tJ > tj1 + tj2 or (tj1 + tj2 + tJ) % 2 != 0:
        return 0.0

    def fac(twice):
        return Fraction(math.factorial(twice // 2))

    pref = (
        Fraction(tJ + 1)
        * fac(tj1 + tj2 - tJ)
        * fac(tj1 - tj2 + tJ)
        * fac(-tj1 + tj2 + tJ)
        / fac(tj1 + tj2 + tJ + 2)
    )
    pref *= (
        fac(tJ + tM)
        * fac(tJ - tM)
        * fac(tj1 - tm1)
        * fac(tj1 + tm1)
        * fac(tj2 - tm2)
        * fac(tj2 + tm2)
    )
    kmin = max(0, (tj2 - tJ - tm1) // 2, (tj1 - tJ + tm2) // 2)
    kmax = min((tj1 + tj2 - tJ) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    total = Fraction(0)
    for k in range(kmin, kmax + 1):
        den = (
            fac(2 * k)
            * fac(tj1 + tj2 - tJ - 2 * k)
            * fac(tj1 - tm1 - 2 * k)
            * fac(tj2 + tm2 - 2 * k)
            * fac(tJ - tj2 + tm1 + 2 * k)
            * fac(tJ - tj1 - tm2 + 2 * k)
        )
        total += Fraction((-1) ** k) / den
    # total**2 * pref is the squared coefficient, at most 1, so unlike
    # total and pref alone it always converts to a float.
    value = math.sqrt(total * total * pref)
    return value if total >= 0 else -value


def _coerce_pair(j, m, names):
    jj = AngularMomentum.coerce(j)
    tm = _twice_half_integer(m)
    if abs(tm) > jj.twice_j:
        raise ValueError(f"|{names[1]}| exceeds {names[0]}")
    if (jj.twice_j - tm) % 2 != 0:
        raise ValueError(f"{names[0]} and {names[1]} must differ by an integer")
    return jj.twice_j, tm


def clebsch_gordan(j1, m1, j2, m2, big_j, big_m):
    """Coupling coefficient <J,M | j1,m1; j2,m2>, Condon-Shortley phases.

    Returns 0 when M != m1+m2 or the triangle rule fails; raises on
    malformed quantum numbers (non-half-integers, |m| > j, parity).
    """
    tj1, tm1 = _coerce_pair(j1, m1, ("j1", "m1"))
    tj2, tm2 = _coerce_pair(j2, m2, ("j2", "m2"))
    tJ, tM = _coerce_pair(big_j, big_m, ("J", "M"))
    return _cg_exact(tj1, tm1, tj2, tm2, tJ, tM)


def coupling_isometry(j1, j2):
    """Unitary change of basis from |j1,m1>|j2,m2> to the coupled basis.

    Rows are coupled states ordered by J descending from j1+j2 to |j1-j2|,
    M descending inside each block; columns are the product basis with m1
    major, m2 minor, both descending. Entries are Clebsch-Gordan
    coefficients, so unitarity is their orthogonality. The general coupling,
    and for 1/2 x j the test oracle of `covariant_qubit_detector`.
    """
    j1 = AngularMomentum.coerce(j1)
    j2 = AngularMomentum.coerce(j2)
    tj1, tj2 = j1.twice_j, j2.twice_j
    size = j1.dim * j2.dim
    u = np.zeros((size, size))
    row = 0
    for tJ in range(tj1 + tj2, abs(tj1 - tj2) - 1, -2):
        for tM in range(tJ, -tJ - 1, -2):
            # Only m1 + m2 = M couples; the other entries stay zero.
            for tm1 in range(tj1, -tj1 - 1, -2):
                tm2 = tM - tm1
                if abs(tm2) <= tj2:
                    col = (tj1 - tm1) // 2 * j2.dim + (tj2 - tm2) // 2
                    u[row, col] = _cg_exact(tj1, tm1, tj2, tm2, tJ, tM)
            row += 1
    return u


def _check_copies(n_copies, least):
    if as_int(n_copies, "program copy count") < least:
        raise ValueError(f"program copy count {n_copies} is below {least}")
    if n_copies > FIURASEK_COPY_CAP:
        raise CapacityError(
            f"{n_copies} copies exceeds the joint-space cap ({FIURASEK_COPY_CAP})"
        )


def _dicke_factors(num_qubits):
    # Row a of the real (2^N, N+1) Dicke basis has one nonzero, in column
    # k = popcount(a): C(N, k)^(-1/2), for the C(N, k) rows in that column.
    if num_qubits > SYMMETRIC_QUBIT_CAP:
        raise CapacityError(
            f"{num_qubits} qubits exceeds the 2^N memory cap ({SYMMETRIC_QUBIT_CAP})"
        )
    # popcount by doubling: the indices with a new top bit set repeat the
    # counts below them, plus one.
    cols = np.zeros(1, dtype=np.int64)
    for _ in range(num_qubits):
        cols = np.concatenate([cols, cols + 1])
    return cols, (1 / np.sqrt(np.bincount(cols)))[cols]


def dicke_state(num_qubits, num_excited):
    """Equal superposition of all computational states with k qubits set.

    Qubit 0 is the most significant bit of the index, matching the
    system-major tensor ordering.
    """
    if not 0 <= as_int(num_excited, "excitation count") <= as_int(num_qubits, "qubit count"):
        raise ValueError("excitation count out of range")
    cols, weights = _dicke_factors(num_qubits)
    return np.where(cols == num_excited, weights, 0.0)


def symmetric_projector(num_qubits):
    """Orthogonal projector onto the permutation-symmetric subspace.

    Built from the Dicke basis, which spans that subspace with rank N+1;
    averaging the N! permutation operators gives the same operator and
    serves as the test oracle for small N.
    """
    if as_int(num_qubits, "qubit count") < 1:
        raise ValueError("need at least one qubit")
    basis = _dense_isometry(*_dicke_factors(num_qubits))
    return basis @ basis.T


def fiurasek_detector(n_copies):
    """Two-outcome detector projecting system + N program copies symmetrically.

    The first outcome is the symmetric projector on N+1 qubits, system
    qubit first. Its matched program, N copies of a pure state psi, realizes
    Q0 = psi + (I - psi)/(N+1), missing the sharp target observable by
    exactly 2/(N+1) while the ancilla dimension grows as 2^N. This
    exponential form is the reference; on the symmetric subspace the N-copy
    programs live in, it equals `covariant_qubit_detector(N/2)`.

    The joint {VV^T, I - VV^T} of the (N+1)-qubit Dicke basis V is held as
    an `IsometryDetector`, the sparse rows of V: row (i, a) has weight
    C(N+1, c)^(-1/2) in column c = i + popcount(a).
    """
    _check_copies(n_copies, 1)
    return IsometryDetector(2, 2 ** n_copies, *_dicke_factors(n_copies + 1))


def fiurasek_program(psi, n_copies):
    """Matched program state: N copies of |psi><psi| (N = 0 gives the 1-dim state).

    psi^(x)N = sum_k c_k |D_k>: `rotated_highest_weight`'s vector c in the Dicke basis.
    """
    _check_copies(n_copies, 0)
    try:
        v = as_array(psi, 1).reshape(2)
    except ValueError as exc:
        raise ValueError("program vector must be a finite qubit") from exc
    cols, weights = _dicke_factors(n_copies)
    return pure_state(_coherent_amplitudes(n_copies, _unit_vector(v))[cols] * weights)


def _covariant_spin(j):
    # The covariant detector's cap bounds its matched programs and the dense
    # irrep, their oracle, too: they have no other consumer, and (2j+1)-entry
    # arrays past it are as out of reach.
    j = AngularMomentum.coerce(j)
    if j.twice_j > COVARIANT_TWICE_J_CAP:
        raise CapacityError(
            f"twice_j {j.twice_j} exceeds the joint-space cap ({COVARIANT_TWICE_J_CAP})"
        )
    return j


def covariant_qubit_detector(j):
    """Two-outcome detector from the 1/2 x j angular momentum coupling.

    The first outcome projects onto the j+ = j + 1/2 irreducible block,
    P+ = ((j+1) I + 2 S.J)/(2j+1), which commutes with the joint rotation
    U_g x W_g and so forces the programmed POVM into covariant form. As in
    `fiurasek_detector`, the joint {VV^T, I - VV^T} is held as the sparse
    rows of the real (2n, n+1) isometry V onto that block, n = 2j+1 the
    ancilla dimension (2j at most COVARIANT_TWICE_J_CAP = 2047): its column k
    is the top-J Clebsch-Gordan state sqrt((n-k)/n)|0>|k> + sqrt(k/n)|1>|k-1>.
    """
    j = _covariant_spin(j)
    if j.twice_j < 1:
        raise ValueError("need twice_j >= 1")
    n = j.dim
    w, a = np.sqrt(np.arange(n + 1) / n), np.arange(n)
    return IsometryDetector(2, n, np.stack([a, a + 1]), np.stack([w[:0:-1], w[1:]]))


def rotated_highest_weight(j, g):
    """Matched covariant program W_g|j,j><j,j|W_g†, a spin-coherent state.

    Amplitudes sqrt(C(2j, k)) a^(2j-k) b^k at m = j - k, with (a, b) = g's
    first column; a phase on (a, b) is a global phase, so it drops out.
    2j is capped as in `covariant_qubit_detector`.
    """
    return pure_state(_coherent_amplitudes(_covariant_spin(j).twice_j, g.matrix[:, 0]))


def covariant_target(g):
    """Sharp qubit observable {V_g|0><0|V_g†, V_g|1><1|V_g†}, that of W = V_g†."""
    return observable_from_unitary(g.matrix.conj().T)


def _sharp_rule(state):
    # A sharp target's first effect is rank 1 (and stored exactly Hermitian,
    # as every Povm's is): program its top eigenvector.
    def rule(target):
        if target.dim != 2:
            raise ValueError(f"matched rules program qubit targets, not dimension {target.dim}")
        _, vecs = np.linalg.eigh(target.effects[0])
        return state(vecs[:, -1])

    return rule


def matched_fiurasek_rule(n_copies):
    """Program rule for sharp qubit targets: recover psi, repeat it N times."""
    _check_copies(n_copies, 0)
    return _sharp_rule(lambda psi: fiurasek_program(psi, n_copies))


def matched_covariant_rule(j):
    """Program rule for sharp qubit targets at fixed ancilla spin j.

    Programs W|j,j>, amplitudes sqrt(C(2j, k)) a^(2j-k) b^k at m = j - k, for
    the target's top eigenvector psi = (a, b); psi's phase drops out.
    2j is capped as in `covariant_qubit_detector`.
    """
    twice_j = _covariant_spin(j).twice_j
    return _sharp_rule(lambda psi: pure_state(_coherent_amplitudes(twice_j, psi)))
