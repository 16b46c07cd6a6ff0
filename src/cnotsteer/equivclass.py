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

The CNOT and SWAP classes are the roots of ``cnot_residual``; it and the
invariants share one magic-basis ``m = U_B^T U_B`` (``_magic_gram``).
No sequence is built here; the classes the sequences reach are in ``sequences``.

Conventions
-----------
The magic-basis transform is fixed once (module constant ``MAGIC_BASIS``)
and pinned by the CNOT -> (0, 1) unit test.  Determinant normalization
makes both labels insensitive to a global phase, so inputs may be U(4).

Coordinates are read off the spectrum of the gate in closed form: a
spectral representative is folded into the chamber by the class
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
``weyl_coordinates`` take one gate or a stack of shape ``(..., 4, 4)``, and
``canonical_class_gate`` takes one point or points of shape ``(..., 3)``.
One gate gives one array, pair or point; a stack gives an array of the same
stack shape, or a list of pairs or points in C order of the stack axes.
Each member gets the bits it would get alone, and every contract holds per
member: the unitarity tolerance, the G2-reality bound and the chamber
bounds of ``WeylPoint``.  A stack with a failing member, NaN included, is
rejected, and the error names the worst member's index and defect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import XX, YY, ZZ
from .qmat import (
    UNITARITY_TOL,
    ContractViolationError,
    Operator4,
    SIGMA_Y,
    expm_skew,
    kron2,
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

_SYSY = kron2(SIGMA_Y, SIGMA_Y)
#: Rows pick the pairwise sums (s1 + s2, s1 + s3, s2 + s3) of three phases.
_COMBINE = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])

_WEYL_TOL = 1e-9
_HALF_PI = math.pi / 2


@dataclass(frozen=True)
class InvariantPair:
    """Makhlin invariants of a local equivalence class."""

    g1: complex
    g2: float


@dataclass(frozen=True)
class WeylPoint:
    """Canonical class coordinates, pi/2 >= c1 >= c2 >= c3 >= 0 (radians)."""

    c1: float
    c2: float
    c3: float

    def __post_init__(self) -> None:
        ok = (
            -_WEYL_TOL <= self.c3 <= self.c2 + _WEYL_TOL
            and self.c2 <= self.c1 + _WEYL_TOL
            and self.c1 <= _HALF_PI + _WEYL_TOL
        )
        if not ok:
            raise ValueError(f"({self.c1}, {self.c2}, {self.c3}) is outside the chamber")

    def as_array(self) -> np.ndarray:
        return np.array([self.c1, self.c2, self.c3])


def to_magic(u: np.ndarray) -> np.ndarray:
    """Rewrite a computational-basis matrix, or each in a stack, in the magic basis."""
    return _MAGIC_DAG @ u @ MAGIC_BASIS


def _magic_gram(u: Operator4) -> tuple[np.ndarray, np.ndarray]:
    """``m = U_B^T U_B`` in the magic basis and ``det U``, for ``u`` checked unitary."""
    u = require_unitary(u, what="gate")
    ub = to_magic(u)
    return ub.swapaxes(-1, -2) @ ub, np.linalg.det(u)


def makhlin_invariants(u: Operator4) -> InvariantPair | list[InvariantPair]:
    """Makhlin invariants (G1, G2) of a two-qubit unitary, or of each in a stack.

    Forms ``m = U_B^T U_B`` in the magic basis and evaluates

        G1 = tr(m)^2 / (16 det U),
        G2 = (tr(m)^2 - tr(m^2)) / (4 det U).

    Both are unchanged under left/right multiplication by single-qubit
    rotations and under global phases.  G2 is real for unitary input; a
    unitarity defect e moves it off the real axis by at most
    sqrt(3) * e * max(1, |G2|) to first order, inside the
    2 * UNITARITY_TOL * max(1, |G2|) accepted here.

    One gate gives one pair; a stack gives a list of pairs, one per member.

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
    if u.ndim == 2:
        return InvariantPair(g1=complex(g1), g2=float(g2.real))
    return [
        InvariantPair(g1=a, g2=b)
        for a, b in zip(g1.ravel().tolist(), g2.real.ravel().tolist())
    ]


def invariants_from_weyl(point: WeylPoint | tuple[float, float, float]) -> InvariantPair:
    """Invariants of the canonical gate exp(-c1*XX - c2*YY - c3*ZZ)."""
    c1, c2, c3 = (point.c1, point.c2, point.c3) if isinstance(point, WeylPoint) else point
    re = (
        math.cos(c1) ** 2 * math.cos(c2) ** 2 * math.cos(c3) ** 2
        - math.sin(c1) ** 2 * math.sin(c2) ** 2 * math.sin(c3) ** 2
    )
    im = -0.25 * math.sin(2 * c1) * math.sin(2 * c2) * math.sin(2 * c3)
    g2 = 4.0 * re - math.cos(2 * c1) * math.cos(2 * c2) * math.cos(2 * c3)
    return InvariantPair(g1=re + 1j * im, g2=g2)


def canonical_class_gate(point: WeylPoint | tuple[float, float, float]) -> Operator4:
    """The representative gate exp(-c1*XX - c2*YY - c3*ZZ).

    Points given as an array of shape ``(..., 3)`` give a stack of gates.
    """
    if isinstance(point, WeylPoint):
        point = point.as_array()
    c1, c2, c3 = np.moveaxis(np.asarray(point, dtype=float), -1, 0)[..., None, None]
    return expm_skew(-(c1 * XX + c2 * YY + c3 * ZZ))


def cnot_distance(inv: InvariantPair) -> float:
    """Squared invariant distance d^2 = |G1|^2 + |G2 - 1|^2 to the CNOT class."""
    return abs(inv.g1) ** 2 + abs(inv.g2 - 1.0) ** 2


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
    r = (m @ m / det[..., None, None] + np.eye(4)).reshape(m.shape[:-2] + (16,))
    return np.concatenate([r.real, r.imag], axis=-1)


def _raw_coordinates(u: np.ndarray) -> np.ndarray:
    """Some representative (c1, c2, c3) of the class of ``u``, in radians.

    Spectral extraction: the eigenphases of U (sy sy U^T sy sy) / sqrt(det U)
    are the exponent combinations +/-c1 -/+c2 +/-c3; half-angle bookkeeping
    on the sorted phases recovers a representative with c3 >= 0.  Works on
    the last two axes, so a stack of gates gives one row per member.
    """
    u_tilde = _SYSY @ u.swapaxes(-1, -2) @ _SYSY
    root_det = np.sqrt(np.linalg.det(u))[..., None, None]
    ev = np.linalg.eigvals((u @ u_tilde) / root_det)
    two_s = np.angle(ev) / math.pi
    two_s[two_s <= -0.5] += 2.0
    s = np.sort(two_s / 2.0, axis=-1)[..., ::-1]
    # The phases sum to an integer n: take 1 off the n largest, then rotate
    # them to the end.
    n = np.rint(s.sum(axis=-1)).astype(int)[..., None]
    k = np.arange(4)
    s = np.take_along_axis(s - (k < n), (k + n) % 4, axis=-1)
    c = s[..., :3] @ _COMBINE.T
    flip = c[..., 2] < 0
    c[flip, 0] = 1.0 - c[flip, 0]
    c[flip, 2] = -c[flip, 2]
    return c * math.pi


def _weyl_points(c: np.ndarray) -> list[WeylPoint]:
    """One ``WeylPoint`` per row of ``c``, whose trailing axis is (c1, c2, c3).

    Raises:
        ValueError: a row lies outside the chamber (or has a NaN); the error
            names the worst row and how far out it lies.
    """
    try:
        return [WeylPoint(*row) for row in c.reshape(-1, 3).tolist()]
    except ValueError:
        c1, c2, c3 = np.moveaxis(c, -1, 0)
        excess = np.max([-c3, c3 - c2, c2 - c1, c1 - _HALF_PI], axis=0) - _WEYL_TOL
        bad = worst_failure(excess <= 0.0, excess)
        raise ValueError(
            f"Weyl point{member_name(bad)} {c[bad].tolist()} is outside the chamber "
            f"by {excess[bad]:.3e}"
        ) from None


def weyl_coordinates(u: Operator4) -> WeylPoint | list[WeylPoint]:
    """Canonical Weyl-chamber coordinates of the class of ``u``, or of each in a stack.

    Folds the spectral representative into the reduced chamber with the
    class symmetries (Zhang, Vala, Sastry & Whaley, PRA 67, 042313, 2003):
    each coordinate is reduced mod pi, replaced by ``min(c, pi - c)`` (a sign
    flip; a single one maps to the mirror image, which the reduced chamber
    identifies -- see module docstring), and the three are sorted in
    descending order.  Values within ``_WEYL_TOL`` of pi/2 are set to pi/2,
    so that a class on the c1 = pi/2 face, CNOT's among them, reads pi/2
    exactly whatever the rounding of the spectrum.

    One gate gives one point; a stack gives a list of points, one per member.

    Raises:
        ContractViolationError: a member is not unitary within
            ``UNITARITY_TOL``.
    """
    u = require_unitary(u, what="gate")
    c = np.mod(_raw_coordinates(u), math.pi)
    c = np.sort(np.minimum(c, math.pi - c), axis=-1)[..., ::-1]
    c[np.abs(c - _HALF_PI) <= _WEYL_TOL] = _HALF_PI
    points = _weyl_points(c)
    return points[0] if u.ndim == 2 else points
