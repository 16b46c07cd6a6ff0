"""Dense complex linear algebra for two-qubit gates and generators.

Everything in this package lives in the 4-dimensional computational space
spanned by |00>, |01>, |10>, |11>, with qubit 1 the least significant bit.
A two-qubit operator that factors as ``A`` on qubit 2 and ``B`` on qubit 1
is therefore ``kron2(A, B) = np.kron(A, B)``.

Gates are plain complex ndarrays ("Operator4"); Lie-algebra elements are
skew-Hermitian ndarrays ("Generator4").  The read-only generators ``X1``,
``Z2``, ``XX``, ``YY`` and ``ZZ`` are the scaled Pauli products that the
sequences' generators are built from, e.g. ``X1 = (i/2) sigma_1^x`` and
``XX = (i/2) sigma_2^x sigma_1^x``.  Matrix exponentials of generators
are computed through the eigendecomposition of the associated Hermitian
matrix, which keeps the result unitary to rounding.

Stacks: ``unitarity_defect``, ``require_unitary``, ``skewness_defect`` and
``expm_skew`` take one matrix or a stack of shape ``(..., n, n)`` and work
on each member, with the same arithmetic, so a member of a stack gets the
bits it would get alone.  One matrix gives a defect as a float; a stack
gives an array over the stack axes.  Every contract holds per member: a
stack is rejected if any member is, NaN included, and the error names the
worst member's index and defect.
"""

from __future__ import annotations

import functools

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
    products), without its general-shape overhead.  Stacks of shape
    ``(..., 2, 2)`` broadcast to a stack of shape ``(..., 4, 4)``.
    """
    a2 = np.asarray(a2, dtype=complex)
    b1 = np.asarray(b1, dtype=complex)
    k = a2[..., :, None, :, None] * b1[..., None, :, None, :]
    return k.reshape(k.shape[:-4] + (4, 4))


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


def frob_dist(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance ||a - b||_F = sqrt(tr[(a-b)^dag (a-b)])."""
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


@functools.cache
def _identity(n: int) -> np.ndarray:
    """Read-only n x n identity."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def _frobenius(a: np.ndarray) -> np.ndarray:
    """||a||_F over the last two axes (a float for one matrix)."""
    flat = a.reshape(a.shape[:-2] + (a.shape[-2] * a.shape[-1],))
    return np.sqrt(np.vecdot(flat, flat).real)


def worst_failure(ok: np.ndarray, excess: np.ndarray) -> tuple[int, ...] | None:
    """Index of the worst member that fails a per-member check, else None.

    ``ok`` and ``excess`` hold one value per matrix: scalars for one matrix
    (whose index is ``()``), arrays over the stack axes for a stack.  A
    member fails where ``ok`` is false; the failures are ranked by
    ``excess``, a NaN first.
    """
    if ok if ok.ndim == 0 else ok.all():
        return None
    rank = np.where(ok, -np.inf, np.where(np.isnan(excess), np.inf, excess))
    return tuple(int(i) for i in np.unravel_index(np.argmax(rank), np.shape(ok)))


def member_name(index: tuple[int, ...]) -> str:
    """How an error names a member: nothing for one matrix, else its index."""
    if not index:
        return ""
    return f" {index[0]}" if len(index) == 1 else f" {index}"


def unitarity_defect(u: np.ndarray) -> float | np.ndarray:
    """||U^dag U - I||_F, zero for exactly unitary ``u``; per member of a stack."""
    u = np.asarray(u)
    return _frobenius(u.conj().swapaxes(-1, -2) @ u - _identity(u.shape[-1]))


def require_unitary(u: np.ndarray, what: str) -> Operator4:
    """``u`` as a complex array, if it is unitary within ``UNITARITY_TOL``.

    A stack passes only if every member does.

    Raises:
        ContractViolationError: the unitarity defect of a member exceeds
            ``UNITARITY_TOL`` or is NaN.
    """
    u = np.asarray(u, dtype=complex)
    defect = unitarity_defect(u)
    bad = worst_failure(defect <= UNITARITY_TOL, defect)
    if bad is not None:
        raise ContractViolationError(
            f"{what}{member_name(bad)} is not unitary: "
            f"||U^dag U - I||_F = {defect[bad]:.3e} > {UNITARITY_TOL:.1e}"
        )
    return u


def skewness_defect(g: np.ndarray) -> float | np.ndarray:
    """||G + G^dag||_F, zero for exactly skew-Hermitian ``g``; per member of a stack."""
    g = np.asarray(g)
    return _frobenius(g + g.conj().swapaxes(-1, -2))


def expm_skew(g: Generator4) -> Operator4:
    """Exponential of a skew-Hermitian generator, or of each in a stack.

    Diagonalizes the Hermitian matrix ``iG`` and exponentiates the
    eigenphases, so the result is unitary to rounding regardless of the
    generator norm.

    Raises:
        ContractViolationError: a member is not skew-Hermitian within
            ``SKEWNESS_TOL``, or has a NaN entry.
    """
    g = np.asarray(g, dtype=complex)
    defect = skewness_defect(g)
    bad = worst_failure(defect <= SKEWNESS_TOL, defect)
    if bad is not None:
        raise ContractViolationError(
            f"generator{member_name(bad)} is not skew-Hermitian: "
            f"||G + G^dag||_F = {defect[bad]:.3e}"
        )
    h = 1j * g  # Hermitian
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)
