"""System parameters and the generator constants the maps use.

The physical setting is a pair of weakly coupled phase qubits, one of them
driven by a resonant Rabi pulse.  After moving to a rotating frame and
dropping fast-oscillating terms (rotating-wave approximation), the dynamics
is generated by skew-Hermitian combinations of the scaled Pauli products
X_k = (i/2) sigma_k^x, ..., XX = (i/2) sigma_2^x sigma_1^x, ..., in two frames:

* frame 1 -- both qubits rotate at the drive frequency; the generator
  ``-delta*Z2 + omega1*X1 + (XX + YY) + g_tilde*ZZ`` is time-independent;
* frame 2 -- each qubit rotates at its own splitting; the detuning moves
  into a transverse coupling rotating with period ``2*pi/|delta|``.

All rates are in units of the transverse coupling ``g``; time is in units
of ``1/g``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qmat import ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, ContractViolationError, Generator4, kron2


@dataclass(frozen=True)
class SystemParams:
    """Rates of the coupled pair in units of the transverse coupling ``g``.

    ``g`` itself is the unit, so it has no field.  All rates are finite.

    Attributes:
        delta: qubit-qubit detuning over g, signed.
        omega1: Rabi amplitude of the drive on qubit 1 over g, >= 0.
        g_tilde: longitudinal ZZ coupling over g, >= 0 (zero for capacitive
            coupling).
    """

    delta: float = 0.0
    omega1: float = 0.0
    g_tilde: float = 0.0

    def __post_init__(self) -> None:
        # Each comparison is false for NaN, so these also reject NaN rates.
        if not math.isfinite(self.delta):
            raise ContractViolationError(f"detuning delta must be finite, got {self.delta}")
        if not 0.0 <= self.omega1 < math.inf:
            raise ContractViolationError(f"drive omega1 must be finite and >= 0, got {self.omega1}")
        if not 0.0 <= self.g_tilde < math.inf:
            raise ContractViolationError(f"g_tilde must be finite and >= 0, got {self.g_tilde}")


def _scaled_product(a2: np.ndarray, b1: np.ndarray) -> Generator4:
    """Read-only (i/2) a2 (x) b1, with ``a2`` on qubit 2 and ``b1`` on qubit 1."""
    m = 0.5j * kron2(a2, b1)
    m.setflags(write=False)
    return m


X1 = _scaled_product(ID2, SIGMA_X)
Z2 = _scaled_product(SIGMA_Z, ID2)
XX = _scaled_product(SIGMA_X, SIGMA_X)
YY = _scaled_product(SIGMA_Y, SIGMA_Y)
ZZ = _scaled_product(SIGMA_Z, SIGMA_Z)

