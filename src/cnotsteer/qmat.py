"""Dense complex linear algebra for two-qubit gates and generators.

Everything in this package lives in the 4-dimensional computational space
spanned by |00>, |01>, |10>, |11>, with qubit 1 the least significant bit.
A two-qubit operator that factors as ``A`` on qubit 2 and ``B`` on qubit 1
is therefore ``kron2(A, B) = np.kron(A, B)``.

Gates are plain complex ndarrays ("Operator4"); Lie-algebra elements are
skew-Hermitian ndarrays ("Generator4").  Matrix exponentials of generators
are computed through the eigendecomposition of the associated Hermitian
matrix, which keeps the result unitary to rounding.
"""

from __future__ import annotations

import numpy as np

# Annotation aliases; both are ordinary (4, 4) complex ndarrays.
Operator4 = np.ndarray
Generator4 = np.ndarray

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)

#: Largest ||U^dag U - I||_F accepted as unitary by ``require_unitary``.
UNITARITY_TOL = 1e-8
#: Largest ||G + G^dag||_F accepted as skew-Hermitian by ``expm_skew``.
SKEWNESS_TOL = 1e-10


class ContractViolationError(ValueError):
    """An input does not satisfy the operation's stated contract.

    The package's one class of deliberate rejections: detunings beyond a
    sequence's bound, unsupported couplings, non-finite rates, non-unitary
    gates.  The CLI reports it as a domain error.
    """


def kron2(a2: np.ndarray, b1: np.ndarray) -> Operator4:
    """Tensor product with ``a2`` acting on qubit 2 and ``b1`` on qubit 1.

    Equal entry for entry to ``np.kron`` of two 2x2 matrices (the same
    products), without its general-shape overhead.
    """
    a2 = np.asarray(a2, dtype=complex)
    b1 = np.asarray(b1, dtype=complex)
    return (a2[:, None, :, None] * b1[None, :, None, :]).reshape(4, 4)


def frob_dist(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance ||a - b||_F = sqrt(tr[(a-b)^dag (a-b)])."""
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


def unitarity_defect(u: np.ndarray) -> float:
    """||U^dag U - I||_F, zero for exactly unitary ``u``."""
    u = np.asarray(u)
    return float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])))


def require_unitary(u: np.ndarray, what: str) -> Operator4:
    """``u`` as a complex array, if it is unitary within ``UNITARITY_TOL``.

    Raises:
        ContractViolationError: the unitarity defect exceeds ``UNITARITY_TOL``
            or is NaN.
    """
    u = np.asarray(u, dtype=complex)
    defect = unitarity_defect(u)
    if not defect <= UNITARITY_TOL:
        raise ContractViolationError(
            f"{what} is not unitary: ||U^dag U - I||_F = {defect:.3e} > {UNITARITY_TOL:.1e}"
        )
    return u


def skewness_defect(g: np.ndarray) -> float:
    """||G + G^dag||_F, zero for exactly skew-Hermitian ``g``."""
    g = np.asarray(g)
    return float(np.linalg.norm(g + g.conj().T))


def expm_skew(g: Generator4) -> Operator4:
    """Exponential of a skew-Hermitian generator.

    Diagonalizes the Hermitian matrix ``iG`` and exponentiates the
    eigenphases, so the result is unitary to rounding regardless of the
    generator norm.

    Raises:
        ContractViolationError: ``g`` is not skew-Hermitian within
            ``SKEWNESS_TOL``, or has a NaN entry.
    """
    g = np.asarray(g, dtype=complex)
    defect = skewness_defect(g)
    if not defect <= SKEWNESS_TOL:
        raise ContractViolationError(
            f"generator is not skew-Hermitian: ||G + G^dag||_F = {defect:.3e}"
        )
    h = 1j * g  # Hermitian
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w)) @ v.conj().T
