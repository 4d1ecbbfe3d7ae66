"""Exact programming of covariant measurement densities via the Bell POVM.

A covariant POVM density has the form V_g ν V_g† with ν a state. Measuring
system and ancilla with the projectors onto |V_g⟩⟩ and programming with ν
transposed reproduces that density exactly: no approximation enters at any
dimension. The check here evaluates both sides pointwise at sampled group
elements, programming the Bell effect through the same contraction as
:func:`povmforge.detector.program`.

The transpose lives in the same basis that defines the double-ket; dropping
it is the standard convention mistake, kept available as a negative
control.
"""

import numpy as np

from .detector import _contract
from .linalg import as_matrix
from .povm import DensityState
from .su2 import GroupElement


class CovariantSeed:
    """Seed state ν, a DensityState, of a covariant density family, with its dimension."""

    def __init__(self, nu):
        if not isinstance(nu, DensityState):
            raise ValueError(f"seed must be a DensityState, got {type(nu).__name__}")
        self.nu = nu
        self.dim = nu.dim

    def __repr__(self):
        return f"CovariantSeed(dim={self.dim})"


def _default_rep(g):
    if not isinstance(g, GroupElement):
        raise ValueError("default representation expects a GroupElement")
    return g.matrix


def _rep_matrix(rep, g, dim):
    v = as_matrix(rep(g))
    if v.shape != (dim, dim):
        raise ValueError(
            f"representation output {v.shape} does not match seed dim {dim}"
        )
    return v


def double_ket(v):
    """Vectorization |V⟩⟩ = Σ_mn V[m,n] |m⟩⊗|n⟩ (row index on the system)."""
    return as_matrix(v).reshape(-1)


def covariant_density(seed, g, rep=_default_rep):
    """Density V_g ν V_g† at group element g.

    `rep` maps a group element to its unitary representative and defaults
    to the defining spin-1/2 matrix; supply another callable for different
    dimensions or representations.
    """
    v = _rep_matrix(rep, g, seed.dim)
    return v @ seed.nu.matrix @ v.conj().T


def bell_program_check(seed, g, rep=_default_rep, use_transpose=True):
    """Residual between V_g ν V_g† and its Bell-POVM programming.

    Programs the rank-one joint effect |V_g⟩⟩⟨⟨V_g| with ν^⊤ through the
    contraction behind :func:`povmforge.detector.program`, and compares
    against the direct density. The identity is exact, so the residual is
    numerical noise; with `use_transpose` off the comparison deliberately
    uses ν itself and the residual equals ‖ν − ν^⊤‖_F, which is zero only
    for ν symmetric in this basis (independent of g, so the control can sit
    below any fixed threshold for states with small antisymmetric part).
    For a pure qubit seed ν = (I + r·σ)/2 the control is
    2√2·|Im ν₀₁| = √2·|r_y|; over Haar-random pure seeds it is uniform on
    [0, √2] with mean ≈ 0.71.
    """
    n = seed.dim
    v = _rep_matrix(rep, g, n)
    ket = double_ket(v)
    joint = np.outer(ket, ket.conj())
    nu = seed.nu.matrix
    programmed = _contract(joint[None], nu.T if use_transpose else nu, n, n)[0]
    direct = v @ nu @ v.conj().T
    return float(np.linalg.norm(direct - programmed))
