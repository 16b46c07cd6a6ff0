"""Local-equivalence-class machinery for two-qubit gates.

Two gates that differ only by single-qubit rotations (and a global phase)
are *locally equivalent*; the hard, entangling content of a gate is its
equivalence class.  Classes are labelled here in two interchangeable ways:

* **Makhlin invariants** ``(G1, G2)`` with ``G1`` complex and ``G2`` real,
  computed from the gate in the magic (Bell) basis.  The controlled-NOT
  class is ``(0, 1)``; the identity class is ``(1, 3)``.
* **Weyl-chamber coordinates** ``(c1, c2, c3)``: the class of
  ``exp(-c1*XX - c2*YY - c3*ZZ)`` folded into the reduced chamber
  ``pi/2 >= c1 >= c2 >= c3 >= 0``.  CNOT sits at ``(pi/2, 0, 0)``.

The CNOT and SWAP classes are the roots of ``cnot_residual``; it, the invariants
and the coordinates share one magic-basis ``m = U_B^T U_B`` (``_magic_gram``).
No sequence is built here; the classes the sequences reach are in ``sequences``.

Conventions
-----------
The magic-basis transform is fixed once (module constant ``MAGIC_BASIS``)
and pinned by the CNOT -> (0, 1) unit test.  Determinant normalization
makes both labels insensitive to a global phase, so inputs may be U(4).

Coordinates are read off the spectrum of ``m / sqrt(det U)`` in closed form:
a spectral representative is folded into the chamber by the class
symmetries -- shifts by pi, sign flips and permutations of the coordinates
(Zhang, Vala, Sastry & Whaley, PRA 67, 042313, 2003), so the result is
a deterministic function of the spectrum.

The reduced chamber identifies mirror-image classes: a single sign flip
maps a class to its complex conjugate (same Re(G1), |Im(G1)| and G2, the
opposite sign of Im(G1)), and both land on the same point.  Classes with
Im(G1) = 0 -- in particular every gate produced by the sequences in this
package, which stay on the c3 = 0 face -- are represented exactly.

Stacks
------
``to_magic``, ``makhlin_invariants``, ``cnot_residual`` and
``weyl_coordinates`` take one gate or a stack of shape ``(..., 4, 4)``;
``canonical_class_gate`` takes one point or points of shape ``(..., 3)``,
and ``cnot_distance`` takes invariants of any shape.  Results are arrays
over the stack axes: ``makhlin_invariants`` gives ``(G1, G2)``,
``weyl_coordinates`` gives points of shape ``(..., 3)``, and one gate gives
0-d invariants and a point of shape ``(3,)``.  Each member gets the bits
it would get alone, and every contract holds per member: the unitarity
tolerance, the G2-reality bound and the chamber bounds.  The chamber bounds
are ``_require_chamber``'s, the package's one chamber check, which
``weyl_coordinates`` makes once per call.  A stack with a failing member,
NaN included, is rejected, and the error names the worst member's index and
defect.  Callers that report a class (``cli``, ``CalibrationResult``) take
Python numbers off the arrays with ``.item()`` or ``.tolist()``.
"""

from __future__ import annotations

import math

import numpy as np

from .qmat import (
    UNITARITY_TOL,
    XX,
    YY,
    ZZ,
    ContractViolationError,
    Operator4,
    _identity,
    expm_skew,
    member_name,
    require_unitary,
    worst_failure,
)

#: Magic-basis column vectors (Bell states with fixed phases), indexed by
#: computational basis rows |00>, |01>, |10>, |11>.
MAGIC_BASIS = (1.0 / np.sqrt(2.0)) * np.array(
    [
        [1, 0, 0, 1j],
        [0, 1j, 1, 0],
        [0, 1j, -1, 0],
        [1, 0, 0, -1j],
    ],
    dtype=complex,
)
_MAGIC_DAG = MAGIC_BASIS.conj().T

#: Rows pick the pairwise sums (s1 + s2, s1 + s3, s2 + s3) of three phases.
_COMBINE = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])

_WEYL_TOL = 1e-9
_HALF_PI = math.pi / 2


def to_magic(u: np.ndarray) -> np.ndarray:
    """Rewrite a computational-basis matrix, or each in a stack, in the magic basis."""
    return _MAGIC_DAG @ u @ MAGIC_BASIS


def _magic_gram(u: Operator4) -> tuple[np.ndarray, np.ndarray]:
    """``m = U_B^T U_B`` in the magic basis and ``det U``, for ``u`` checked unitary.

    The invariants, ``cnot_residual`` and the Weyl coordinates all start here.
    """
    u = require_unitary(u, what="gate")
    ub = to_magic(u)
    return ub.swapaxes(-1, -2) @ ub, np.linalg.det(u)


def makhlin_invariants(u: Operator4) -> tuple[np.ndarray, np.ndarray]:
    """Makhlin invariants (G1, G2) of a two-qubit unitary, or of each in a stack.

    Forms ``m = U_B^T U_B`` in the magic basis and evaluates

        G1 = tr(m)^2 / (16 det U),
        G2 = (tr(m)^2 - tr(m^2)) / (4 det U).

    Both are unchanged under left/right multiplication by single-qubit
    rotations and under global phases.  G2 is real for unitary input; a
    unitarity defect e moves it off the real axis by at most
    sqrt(3) * e * max(1, |G2|) to first order, inside the
    2 * UNITARITY_TOL * max(1, |G2|) accepted here.

    Returns G1 (complex) and G2 (real) as arrays over the stack axes, 0-d
    for one gate.

    Raises:
        ContractViolationError: a member is not unitary within
            ``UNITARITY_TOL``, or its G2 is further from real than that defect
            allows.
    """
    m, det = _magic_gram(u)
    # np.power squares each element as a scalar does; ``**`` on an array
    # takes a vectorized square whose last bit can differ.
    tr2 = np.power(m.trace(axis1=-2, axis2=-1), 2)
    g1 = tr2 / (16.0 * det)
    g2 = (tr2 - (m @ m).trace(axis1=-2, axis2=-1)) / (4.0 * det)
    # |Im G2| <= 2 tol max(1, |G2|), one comparison per branch of the max.
    im = abs(g2.imag)
    bad = worst_failure((im <= 2.0 * UNITARITY_TOL) | (im <= 2.0 * UNITARITY_TOL * abs(g2)), im)
    if bad is not None:
        raise ContractViolationError(f"G2 of gate{member_name(bad)} is not real: {g2[bad]!r}")
    return g1, g2.real


def canonical_class_gate(point: np.ndarray | tuple[float, float, float]) -> Operator4:
    """The representative gate exp(-c1*XX - c2*YY - c3*ZZ).

    Points given as an array of shape ``(..., 3)`` give a stack of gates.
    """
    c1, c2, c3 = np.moveaxis(np.asarray(point, dtype=float), -1, 0)[..., None, None]
    return expm_skew(-(c1 * XX + c2 * YY + c3 * ZZ))


def cnot_distance(g1: np.ndarray | complex, g2: np.ndarray | float) -> np.ndarray:
    """Squared invariant distance d^2 = |G1|^2 + |G2 - 1|^2 to the CNOT class, elementwise.

    Takes ``makhlin_invariants``' arrays (``cnot_distance(*makhlin_invariants(u))``)
    and gives each member the bits of the Python scalar ``abs(g1) ** 2 +
    abs(g2 - 1.0) ** 2``: ``np.hypot(g1.real, g1.imag)`` rounds as ``abs`` of
    a Python complex and ``np.float_power(x, 2.0)`` as ``x ** 2`` of a Python
    float; ``np.abs`` of a complex array and ``x * x`` do not.
    """
    return np.float_power(np.hypot(g1.real, g1.imag), 2.0) + np.float_power(abs(g2 - 1.0), 2.0)


def cnot_residual(u: Operator4) -> np.ndarray:
    """Real and imaginary parts of ``R = m^2 / det U + I``: 32 values, or ``(..., 32)``.

    R vanishes exactly where ``m / sqrt(det U)`` has only +-i in its
    spectrum: on the CNOT class (i, i, -i, -i) and the SWAP class (four equal
    entries).  On the c3 = 0 face, where single-step gates lie, only CNOT is
    a root, and R is linear in the distance from it.

    Raises:
        ContractViolationError: a member is not unitary within ``UNITARITY_TOL``.
    """
    m, det = _magic_gram(u)
    r = (m @ m / det[..., None, None] + _identity(4)).reshape(m.shape[:-2] + (16,))
    return np.concatenate([r.real, r.imag], axis=-1)


def _raw_coordinates(u: Operator4) -> np.ndarray:
    """Some representative (c1, c2, c3) of the class of ``u``, in radians.

    Spectral extraction: the eigenphases of ``m / sqrt(det U)``, with ``m``
    from ``_magic_gram``, are the exponent combinations +/-c1 -/+c2 +/-c3;
    half-angle bookkeeping on the sorted phases recovers a representative,
    which may have c3 < 0 (the fold removes the sign).  Works on the last two
    axes, so a stack of gates gives one row per member.
    """
    m, det = _magic_gram(u)
    ev = np.linalg.eigvals(m / np.sqrt(det)[..., None, None])
    two_s = np.angle(ev) / math.pi
    two_s[two_s <= -0.5] += 2.0
    s = np.sort(two_s / 2.0, axis=-1)[..., ::-1]
    # The phases sum to an integer n: take 1 off the n largest, then rotate
    # them to the end.
    n = np.rint(s.sum(axis=-1)).astype(int)[..., None]
    k = np.arange(4)
    s = np.take_along_axis(s - (k < n), (k + n) % 4, axis=-1)
    return (s[..., :3] @ _COMBINE.T) * math.pi


def _require_chamber(c: np.ndarray) -> None:
    """Refuse a point, or rows of points, outside the chamber by more than ``_WEYL_TOL``.

    Raises:
        ValueError: a row lies outside the chamber (or has a NaN); the error
            names the worst row and how far out it lies.
    """
    c1, c2, c3 = np.moveaxis(c, -1, 0)
    excess = np.max([-c3, c3 - c2, c2 - c1, c1 - _HALF_PI], axis=0) - _WEYL_TOL
    bad = worst_failure(excess <= 0.0, excess)
    if bad is not None:
        raise ValueError(
            f"Weyl point{member_name(bad)} {c[bad].tolist()} is outside the chamber "
            f"by {excess[bad]:.3e}"
        )


def _chamber_coordinates(u: Operator4) -> np.ndarray:
    """The folded (c1, c2, c3) of ``weyl_coordinates``, shape ``(..., 3)``; checks unitarity.

    The check is ``_magic_gram``'s, the one the invariants make.
    """
    c = np.mod(_raw_coordinates(u), math.pi)
    c = np.sort(np.minimum(c, math.pi - c), axis=-1)[..., ::-1]
    c[np.abs(c - _HALF_PI) <= _WEYL_TOL] = _HALF_PI
    return c


def weyl_coordinates(u: Operator4) -> np.ndarray:
    """Canonical Weyl-chamber coordinates of the class of ``u``, or of each in a stack.

    Folds the spectral representative into the reduced chamber with the
    class symmetries (Zhang, Vala, Sastry & Whaley, PRA 67, 042313, 2003):
    each coordinate is reduced mod pi, replaced by ``min(c, pi - c)`` (a sign
    flip; a single one maps to the mirror image, which the reduced chamber
    identifies -- see module docstring), and the three are sorted in
    descending order.  Values within ``_WEYL_TOL`` of pi/2 are set to pi/2,
    so that a class on the c1 = pi/2 face, CNOT's among them, reads pi/2
    exactly whatever the rounding of the spectrum.

    Returns the points ``(c1, c2, c3)``, pi/2 >= c1 >= c2 >= c3 >= 0 in
    radians, as an array of shape ``(..., 3)``, ``(3,)`` for one gate.  They
    are checked against the chamber bounds once, as a stack.

    Raises:
        ContractViolationError: a member is not unitary within
            ``UNITARITY_TOL``.
        ValueError: a point lies outside the chamber (or has a NaN); the
            error names the worst member and how far out it lies.
    """
    c = _chamber_coordinates(u)
    _require_chamber(c)
    return c
