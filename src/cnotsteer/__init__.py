"""Calibration and verification of CNOT gates for detuned, weakly coupled
phase qubits in the rotating-wave approximation.

The package computes closed-form gate times, propagators and rotations
for the two-step (entangle / pi-pulse / entangle) sequence, numerically
calibrates the single-step (drive plus coupling) sequence, tracks local
equivalence classes through Makhlin invariants and Weyl-chamber
coordinates, computes in closed form (KAK decomposition; Kraus & Cirac
2001, Zhang et al. 2003) the local rotations that take a single-step
entangler closest to the canonical CNOT, and evaluates the intrinsic gate
fidelity.  A CLI (``cnotsteer``) regenerates the reference tables, gates,
and steering trajectories as CSV/JSON.

Each sequence family has one one-point call, in ``sequences``:
``entangling_u`` for the two-step segments and ``single_step_u`` for the
single-step evolution.
``calibrate_single_step`` reports T1 in units of pi/2g, found by a root
solve up to g and by a d^2 minimisation beyond it.
"""

from .equivclass import (
    canonical_class_gate,
    cnot_distance,
    makhlin_invariants,
    weyl_coordinates,
)
from .optimize import CalibrationResult, calibrate_single_step
from .qmat import ContractViolationError, expm_skew, frob_dist, kron2
from .sequences import (
    CNOT,
    DetuningOutOfRangeError,
    LocalRotationSpec,
    SystemParams,
    UnsupportedCouplingError,
    entangling_u,
    fidelity,
    fit_local_rotations,
    single_step_u,
    two_step_rotations,
    two_step_time,
    weyl_trajectory,
)

__version__ = "0.1.0"

__all__ = [
    "CNOT",
    "CalibrationResult",
    "ContractViolationError",
    "DetuningOutOfRangeError",
    "LocalRotationSpec",
    "SystemParams",
    "UnsupportedCouplingError",
    "calibrate_single_step",
    "canonical_class_gate",
    "cnot_distance",
    "entangling_u",
    "expm_skew",
    "fidelity",
    "fit_local_rotations",
    "frob_dist",
    "kron2",
    "makhlin_invariants",
    "single_step_u",
    "two_step_rotations",
    "two_step_time",
    "weyl_coordinates",
    "weyl_trajectory",
    "__version__",
]
