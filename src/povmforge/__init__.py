"""Numerical toolkit for programmable quantum detectors.

Exact POVM distances, ancilla-programmed measurements, two explicit qubit
detector families with opposite dimension-accuracy scaling, greedy unitary
nets realizing approximate universal programming, and exact programming of
covariant measurement densities.
"""

from .covariant import CovariantSeed, bell_program_check, covariant_density, double_ket
from .detector import (
    AccuracyReport,
    Detector,
    PerTargetResult,
    accuracy_for_program,
    controlled_unitary_detector,
    estimate_accuracy,
    program,
)
from .linalg import (
    CapacityError,
    Rng,
    fro_norm,
    haar_unitaries,
    haar_unitary,
    herm_eigs,
    op_norm,
    partial_trace_ancilla,
    tensor,
)
from .povm import (
    DensityState,
    Povm,
    born_probabilities,
    distance_bounds,
    maximally_mixed,
    observable_from_unitary,
    povm_distance,
    pure_state,
    two_outcome_distance,
)
from .su2 import (
    AngularMomentum,
    GroupElement,
    clebsch_gordan,
    compose,
    coupling_isometry,
    covariant_qubit_detector,
    covariant_target,
    dicke_state,
    fiurasek_detector,
    fiurasek_program,
    irrep_matrix,
    matched_covariant_rule,
    matched_fiurasek_rule,
    rotated_highest_weight,
    symmetric_projector,
)
from .unet import (
    NetScanRow,
    ScanResult,
    UnitaryNet,
    build_net,
    certify_coverage,
    net_detector,
    quotient_distance,
    scaling_scan,
)

__version__ = "0.1.0"

DEFAULT_SEED = 1729

__all__ = [
    "AccuracyReport",
    "AngularMomentum",
    "CapacityError",
    "CovariantSeed",
    "DEFAULT_SEED",
    "DensityState",
    "Detector",
    "GroupElement",
    "NetScanRow",
    "PerTargetResult",
    "Povm",
    "Rng",
    "ScanResult",
    "UnitaryNet",
    "accuracy_for_program",
    "bell_program_check",
    "born_probabilities",
    "build_net",
    "certify_coverage",
    "clebsch_gordan",
    "compose",
    "controlled_unitary_detector",
    "coupling_isometry",
    "covariant_density",
    "covariant_qubit_detector",
    "covariant_target",
    "dicke_state",
    "distance_bounds",
    "double_ket",
    "estimate_accuracy",
    "fiurasek_detector",
    "fiurasek_program",
    "fro_norm",
    "haar_unitaries",
    "haar_unitary",
    "herm_eigs",
    "irrep_matrix",
    "matched_covariant_rule",
    "matched_fiurasek_rule",
    "maximally_mixed",
    "net_detector",
    "observable_from_unitary",
    "op_norm",
    "partial_trace_ancilla",
    "povm_distance",
    "program",
    "pure_state",
    "quotient_distance",
    "rotated_highest_weight",
    "scaling_scan",
    "symmetric_projector",
    "tensor",
    "two_outcome_distance",
]
