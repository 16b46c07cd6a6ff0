"""CNOT control sequences: assembly, local rotations, and gate fidelity.

Two sequence families generate the controlled-NOT class:

* **two-step** -- entangle with the drive off, apply a local pi pulse on
  qubit 1, entangle again, then dress with local rotations:
  ``e^{i pi/4} R_post [U(t2) e^{-pi X1} U(t2)] R_pre``.  The required
  entangling time has a closed form and exists for ``|delta| <= 2g``.  The
  segments are ``propagate.entangling_u``, and ``two_step_product`` forms
  the product of one segment or of a stack.
* **single-step** -- one continuous evolution under drive plus coupling,
  ``e^{i 5 pi/4} R_post U(t1) R_pre``, with ``(omega1, t1)`` calibrated
  numerically; an exact CNOT requires ``|delta| <= g`` and capacitive
  (``g_tilde = 0``) coupling.  Its one gate map is ``single_step_gates``,
  with the one-point call ``single_step_u`` and the path ``weyl_trajectory``.

Local rotations are parameterized per qubit as z-y-z Euler triples on each
side of the entangler plus one global phase (13 parameters total), which
spans all of SU(2) x SU(2) x U(1).  Two-step gates take the paper's
closed-form rotations, ``two_step_rotations``.  One-step gates take the
dressing closest to the target, ``fit_local_rotations``, computed in closed
form from the KAK (Cartan) decomposition read off the magic basis (Kraus &
Cirac, PRA 63, 062309 (2001); Zhang, Vala, Sastry & Whaley, PRA 67, 042313
(2003)).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .equivclass import MAGIC_BASIS, InvariantPair, WeylPoint, to_magic, weyl_coordinates
from .model import SystemParams, X1, XX, YY, Z2
from .propagate import checked_time, entangling_u
from .qmat import (
    ContractViolationError,
    Generator4,
    Operator4,
    expm_skew,
    frob_dist,
    kron2,
    require_unitary,
)


class DetuningOutOfRangeError(ContractViolationError):
    """Detuning exceeds the validity bound of the requested sequence."""


class UnsupportedCouplingError(ContractViolationError):
    """The sequence does not support a nonzero longitudinal coupling."""


class FidelityUndefinedError(ContractViolationError):
    """The intrinsic fidelity formula is only meaningful near the target."""


#: Canonical controlled-NOT: control = qubit 2, target = qubit 1.
CNOT = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)
CNOT.setflags(write=False)

#: Local pi pulse on qubit 1, exp(-pi X1) = -i (I (x) sigma_x).
PI_PULSE_X1 = expm_skew(-math.pi * X1)
PI_PULSE_X1.setflags(write=False)


def euler_u2(
    z1: float | np.ndarray, y: float | np.ndarray, z2: float | np.ndarray
) -> np.ndarray:
    """SU(2) matrix exp(-z1*Z) exp(-y*Y) exp(-z2*Z) for Lie generators (i/2)sigma.

    Angle arrays broadcast to a stack of shape ``(..., 2, 2)``; each member
    gets the bits that one triple gets.
    """
    cb, sb = np.cos(y / 2.0), np.sin(y / 2.0)
    m = np.array(
        [
            [np.exp(-0.5j * (z1 + z2)) * cb, -np.exp(-0.5j * (z1 - z2)) * sb],
            [np.exp(0.5j * (z1 - z2)) * sb, np.exp(0.5j * (z1 + z2)) * cb],
        ],
        dtype=complex,
    )
    return m.transpose(*range(2, m.ndim), 0, 1)


def zyz_angles(u: np.ndarray) -> tuple[float, float, float]:
    """Invert ``euler_u2`` for an SU(2) matrix (det must be 1)."""
    u = np.asarray(u, dtype=complex)
    det = np.linalg.det(u)
    if abs(det - 1.0) > 1e-10:
        raise ValueError(f"zyz extraction requires det = 1, got {det!r}")
    if abs(u[0, 0]) < 1e-12:
        half_diff = float(np.angle(u[1, 0]))
        return half_diff, math.pi, -half_diff
    y = 2.0 * math.atan2(abs(u[1, 0]), abs(u[0, 0]))
    z_sum = -2.0 * float(np.angle(u[0, 0]))
    z_diff = 2.0 * float(np.angle(u[1, 0])) if abs(u[1, 0]) > 1e-12 else 0.0
    return 0.5 * (z_sum + z_diff), y, 0.5 * (z_sum - z_diff)


@dataclass(frozen=True)
class LocalRotationSpec:
    """Pre/post local rotations around an entangler, plus a global phase.

    Each of ``post2, post1, pre2, pre1`` is a z-y-z Euler triple (radians)
    realized by ``euler_u2``; the dressed gate is
    ``e^{i phase} (post2 (x) post1) U (pre2 (x) pre1)``.
    """

    post2: tuple[float, float, float] = (0.0, 0.0, 0.0)
    post1: tuple[float, float, float] = (0.0, 0.0, 0.0)
    pre2: tuple[float, float, float] = (0.0, 0.0, 0.0)
    pre1: tuple[float, float, float] = (0.0, 0.0, 0.0)
    phase: float = 0.0

    def as_vector(self) -> np.ndarray:
        return np.array(
            [*self.post2, *self.post1, *self.pre2, *self.pre1, self.phase], dtype=float
        )

    def post_matrix(self) -> Operator4:
        return kron2(euler_u2(*self.post2), euler_u2(*self.post1))

    def pre_matrix(self) -> Operator4:
        return kron2(euler_u2(*self.pre2), euler_u2(*self.pre1))

    def realize(self, entangler: Operator4) -> Operator4:
        """Dress ``entangler`` with these rotations and the global phase."""
        return np.exp(1j * self.phase) * self.post_matrix() @ entangler @ self.pre_matrix()


def _two_step_angles(p: SystemParams) -> tuple[float, float]:
    """The paper's two-step angles (alpha1, beta); see ``two_step_rotations``."""
    return p.delta * two_step_time(p) / math.pi, 2.0 / math.pi * math.asin(p.delta / 2.0)


def _paper_rotations(a: float, b: float, c: float, x1: float, phase: float) -> LocalRotationSpec:
    """The paper's dressing ``e^{i phase} R_post U R_pre`` of both sequences.

    ``R_post = e^{-(pi/2) Y2} e^{-(pi/2)(a Z2 + c Z1)}`` and ``R_pre =
    e^{-(pi/2)((1+b) Z2 + c Z1)} e^{(pi/2)(X2 + x1 X1)}``, written as
    ``euler_u2`` triples with h = pi/2: as [Z, Y] = X for its generators,
    ``e^{theta X} = e^{h Z} e^{theta Y} e^{-h Z}``, so the X factors of R_pre
    give ``e^{-s Z} e^{theta X} = e^{(h - s) Z} e^{theta Y} e^{-h Z}``.
    """
    h = math.pi / 2.0
    return LocalRotationSpec(
        post2=(0.0, h, h * a),
        post1=(h * c, 0.0, 0.0),
        pre2=(h * b, -h, h),
        pre1=(h * c - h, -h * x1, h),
        phase=phase,
    )


def two_step_rotations(p: SystemParams, frame: int) -> LocalRotationSpec:
    """The paper's closed-form dressing of the two-step entangler.

    The form of ``_paper_rotations`` with global phase pi/4, x1 = 1 and
    ``(a, b, c) = (alpha1 + beta, alpha1 + beta, alpha1)`` in frame 1 (a is
    the paper's alpha2) and ``(beta - 2 alpha1, beta, 0)`` in frame 2 (a is
    its beta_tilde); ``alpha1 = delta t2 / pi``, ``sin(pi beta/2) = delta/2``.

    Derivation: split ``Z2 = (Z1 + Z2)/2 + (Z2 - Z1)/2``.  ``Z1 + Z2`` and
    ``ZZ`` commute with the undriven generator, so ``U1 = D B e^{-g_tilde t
    ZZ}``, with the local ``D = e^{(delta t/2)(Z1 + Z2)}`` and B the
    {|01>, |10>} block [[u, -iv], [-iv, u*]].  ``P = e^{-pi X1}`` flips Z1
    and ZZ: g_tilde drops out, ``U1 P U1 = D (B P B) D`` and, as
    ``U2 = e^{-delta t Z2} U1``, ``U2 P U2 = e^{-delta t Z2} (B P B)``.  The
    alpha1 terms undo D and ``e^{-delta t Z2}``; the Z2 phases beta and
    1 + beta turn the u entries of ``B P B`` into ``u e^{-i pi beta/2}`` and
    keep its v entries.  So the gate is CNOT when ``|u| = |v| = 1/sqrt(2)``
    (``t2``) and ``sin(pi beta/2) = Im u / |u| = delta / 2`` (``Re u >= 0``).

    Raises:
        DetuningOutOfRangeError: ``|delta| > 2g`` (no exact CNOT exists).
        ValueError: ``frame`` is not 1 or 2.
    """
    if frame not in (1, 2):
        raise ValueError(f"frame must be 1 or 2, got {frame}")
    alpha1, beta = _two_step_angles(p)
    frame1 = alpha1 + beta, alpha1 + beta, alpha1
    a, b, c = frame1 if frame == 1 else (beta - 2.0 * alpha1, beta, 0.0)
    return _paper_rotations(a, b, c, x1=1.0, phase=math.pi / 4.0)


def single_step_rotations(
    alpha2: float = 0.0, alpha1: float = 0.0, gamma1: float = 0.0
) -> LocalRotationSpec:
    """Single-step dressing rotations.

    The form of ``_paper_rotations`` with global phase 5 pi/4,
    ``(a, b, c) = (alpha2, alpha2, alpha1)`` and ``x1 = -(1 + gamma1)``.
    Defaults give the resonant rotations.
    """
    return _paper_rotations(alpha2, alpha2, alpha1, x1=-(1.0 + gamma1), phase=5.0 * math.pi / 4.0)


def two_step_time(p: SystemParams) -> float:
    """Closed-form entangling time of the two-step sequence, in units of 1/g.

    With delta in units of g, ``t2 = (pi - arccos(delta^2 / 4)) /
    sqrt(delta^2 + 4)``, which reduces to pi/4 at zero detuning.

    Raises:
        DetuningOutOfRangeError: ``|delta| > 2g`` (no exact CNOT exists).
    """
    if abs(p.delta) > 2.0:
        raise DetuningOutOfRangeError(
            f"two-step sequence requires |delta| <= 2g, got delta/g = {p.delta}"
        )
    return (math.pi - math.acos(p.delta**2 / 4.0)) / math.hypot(p.delta, 2.0)


def two_step_product(u: Operator4) -> Operator4:
    """The two-step product U e^{-pi X1} U of a segment U, or of each in a stack.

    One broadcast matmul, so each member of a ``(..., 4, 4)`` stack gets
    the bits that it gets alone.
    """
    return u @ PI_PULSE_X1 @ u


def two_step_entangler(p: SystemParams, frame: int) -> Operator4:
    """The entangling core U(t2) e^{-pi X1} U(t2) in the chosen frame."""
    return two_step_product(entangling_u(two_step_time(p), p, frame))


def two_step_invariants_closed(t: float, p: SystemParams) -> InvariantPair:
    """Closed-form invariants of the two-step entangler U(t) e^{-pi X1} U(t).

    Valid for any detuning and independent of the ZZ coupling and of the
    frame in which the segments are evolved.
    """
    d2 = p.delta**2
    lam2 = d2 + 4.0
    lam = math.sqrt(lam2)
    g1 = ((d2 + 8.0 * math.cos(0.5 * lam * t) ** 2 - 4.0) / lam2) ** 2
    g2 = (
        3.0 * d2**2
        + 8.0 * d2 * (1.0 + 2.0 * math.cos(lam * t))
        + 16.0 * (2.0 + math.cos(2.0 * lam * t))
    ) / lam2**2
    return InvariantPair(g1=complex(g1), g2=g2)


#: The exchange term XX + YY of the single-step generator, summed once.
_EXCHANGE = XX + YY


def _single_step_generator(delta: float | np.ndarray, omega1: float | np.ndarray) -> Generator4:
    """The single-step generator -delta Z2 + omega1 X1 + (XX + YY), terms in that order."""
    return -delta * Z2 + omega1 * X1 + _EXCHANGE


def _require_capacitive(p: SystemParams) -> None:
    """Refuse ``g_tilde != 0``: the single-drive sequence reaches CNOT only without it."""
    if p.g_tilde != 0.0:
        raise UnsupportedCouplingError(
            "single-step sequence requires g_tilde = 0; an additional drive on "
            "qubit 2 would be needed otherwise"
        )


def single_step_gates(
    delta: float | np.ndarray, omega1: float | np.ndarray, t: float | np.ndarray
) -> Operator4:
    """Single-step evolution exp(-t * [-delta Z2 + omega1 X1 + (XX + YY)]).

    The generator is ``h_rwa_frame1`` at ``g_tilde = 0``, with its terms in
    that order.  One ``(delta, omega1, t)`` gives one gate; arrays broadcast
    to a stack of gates, each member with the bits it gets alone.  Units of
    g.
    """
    delta, omega1, t = (np.asarray(a)[..., None, None] for a in (delta, omega1, t))
    return expm_skew(-t * _single_step_generator(delta, omega1))


def single_step_u(t: float, p: SystemParams) -> Operator4:
    """Single-step evolution ``single_step_gates(p.delta, p.omega1, t)``.

    Raises:
        UnsupportedCouplingError: ``g_tilde != 0`` (the single-drive sequence
            only reaches the CNOT class for capacitive coupling).
        ValueError: ``t`` is not finite or is negative.
    """
    _require_capacitive(p)
    return single_step_gates(p.delta, p.omega1, checked_time(t))


@dataclass(frozen=True)
class TrajectorySample:
    """One steering-trajectory sample: time (units of 1/g) and class point."""

    t: float
    point: WeylPoint


def weyl_trajectory(p: SystemParams, t_max: float, n_samples: int) -> list[TrajectorySample]:
    """Steering trajectory of the single-step evolution through the chamber.

    Samples a uniform time grid from 0 to ``t_max`` (inclusive); the first
    sample is the origin.  Each gate is a member of ``single_step_gates``,
    built from its generator one sample at a time, and canonicalized on its
    own, so apparent kinks can only occur at chamber boundaries; the CLI's
    default of 2048 samples is fine enough to render the curves smoothly.

    Raises:
        ContractViolationError: ``n_samples < 2``.
        UnsupportedCouplingError: ``g_tilde != 0``.
        ValueError: ``t_max`` is not finite or is negative.
    """
    if n_samples < 2:
        raise ContractViolationError(f"n_samples must be >= 2, got {n_samples}")
    _require_capacitive(p)
    gen = _single_step_generator(p.delta, p.omega1)
    out: list[TrajectorySample] = []
    for t in np.linspace(0.0, checked_time(t_max), n_samples):
        point = weyl_coordinates(expm_skew(-t * gen))
        out.append(TrajectorySample(t=float(t), point=point))
    return out


def fidelity(u: Operator4, target: Operator4) -> float:
    """Intrinsic fidelity F = sqrt(1 - tr[(U - T)^dag (U - T)]).

    Only meaningful for gates close to the target (the radicand must stay
    nonnegative); the trace is the squared Frobenius distance.

    Raises:
        FidelityUndefinedError: the radicand is negative.
    """
    u = require_unitary(u, what="gate")
    target = require_unitary(target, what="target")
    radicand = 1.0 - frob_dist(u, target) ** 2
    if radicand < 0.0:
        raise FidelityUndefinedError(
            f"1 - ||U - T||_F^2 = {radicand:.4f} < 0; gate is too far from target"
        )
    return math.sqrt(radicand)


@dataclass(frozen=True)
class FitResult:
    """Outcome of the local dressing of an entangler."""

    rotations: LocalRotationSpec
    gate: Operator4 = field(compare=False, repr=False)  # the dressed gate that was scored
    distance: float  # Frobenius distance of the dressed gate to the target
    fidelity: float | None  # None when the intrinsic fidelity is undefined

    @classmethod
    def of(cls, rotations: LocalRotationSpec, entangler: Operator4, target: Operator4) -> FitResult:
        """``rotations.realize(entangler)`` and its figures against ``target``."""
        gate = rotations.realize(entangler)
        try:
            fid = fidelity(gate, target)
        except FidelityUndefinedError:
            fid = None
        return cls(rotations=rotations, gate=gate, distance=frob_dist(gate, target), fidelity=fid)


# Mixing constants c for eigh(Re m + c Im m).  Each pair of distinct
# eigenvalues e^{ia}, e^{ib} of m rules out only c = tan((a + b) / 2), so at
# most six of these eight can fail; none is the tangent of a multiple of
# pi/8, where the named gates put their eigenphases.
_KAK_MIX = (
    0.6180339887498949,
    -2.718281828459045,
    0.3183098861837907,
    -0.7390851332151607,
    4.66920160910299,
    -1.2020569031595942,
    0.915965594177219,
    -2.6854520010653062,
)
_KAK_TOL = 1e-10
_KAK_TIE = 1e-12
# The Weyl-group images of a magic-basis spectrum: every permutation of the
# four entries, times every sign pattern with an even number of flips.
_KAK_PERMS = np.array(list(itertools.permutations(range(4))))
_KAK_SIGNS = np.array([s for s in itertools.product((1, -1), repeat=4) if math.prod(s) == 1])


def _kak(u: Operator4) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Magic-basis KAK factors of ``u`` normalized to SU(4).

    Returns ``(o1, d, o2)`` with ``o1, o2`` real SO(4) matrices and ``d`` a
    unit-modulus vector with product 1, such that the magic-basis form of
    ``u / det(u)^(1/4)`` is ``o1 @ diag(d) @ o2``.  ``o2`` diagonalizes the
    symmetric unitary ``m = U_B^T U_B``: its real and imaginary parts commute,
    so a real combination of them shares their eigenvectors, and the first
    mixing constant that diagonalizes ``m`` is kept (degenerate spectra, as
    for I, CNOT, SWAP and the c3 = 0 face, need no randomness).
    """
    ub = to_magic(u / np.linalg.det(u) ** 0.25)
    m = ub.T @ ub
    best = None
    for c in _KAK_MIX:
        v = np.linalg.eigh(m.real + c * m.imag)[1]
        mv = v.T @ m @ v
        off = float(np.linalg.norm(mv - np.diag(np.diag(mv))))
        if best is None or off < best[0]:
            best = (off, v, np.diag(mv))
        if off < _KAK_TOL:
            break
    _, v, spectrum = best
    if np.linalg.det(v) < 0.0:
        v[:, 0] = -v[:, 0]
    d = np.sqrt(spectrum)
    o1 = ub @ v / d
    # det(o1) = 1 / prod(d) = +-1; one square-root sign fixes it.
    if np.linalg.det(o1).real < 0.0:
        d[0], o1[:, 0] = -d[0], -o1[:, 0]
    return o1.real, d, v.T


def _local_factors(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split the magic-basis SO(4) matrix ``q`` into SU(2) factors (qubit 2, qubit 1).

    In the computational basis ``k = a (x) b`` up to a sign, so the
    rearrangement ``M[(i,k),(j,l)] = a[i,k] b[j,l]`` has rank one and is read
    off its largest entry.
    """
    k = MAGIC_BASIS @ q @ MAGIC_BASIS.conj().T
    m = k.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    r, c = np.unravel_index(np.argmax(np.abs(m)), m.shape)
    a, b = m[:, c].reshape(2, 2), (m[r, :] / m[r, c]).reshape(2, 2)
    return a / np.sqrt(np.linalg.det(a)), b / np.sqrt(np.linalg.det(b))


def fit_local_rotations(u_ent: Operator4, target: Operator4) -> FitResult:
    """Closest local dressing of ``u_ent`` to ``target``, in closed form.

    Both gates are written in KAK form ``K1 A K2`` through the magic basis
    (Kraus & Cirac, PRA 63, 062309 (2001); Zhang, Vala, Sastry & Whaley,
    PRA 67, 042313 (2003)), with ``A`` diagonal there.  Of the Weyl-group
    images of the entangler's ``A`` (24 permutations times 8 even sign
    patterns of its spectrum), the one with the largest trace overlap with
    the target's ``A``, that is the one closest to it after a global phase,
    fixes the pre and post rotations; the global phase then makes that
    overlap real.  The result is deterministic, and the distance and
    fidelity are those of ``rotations.realize(u_ent)``.

    Returns the spec together with the achieved distance and, when the
    radicand is nonnegative, the intrinsic fidelity.
    """
    u_ent = require_unitary(u_ent, what="entangler")
    target = require_unitary(target, what="target")
    o1e, de, o2e = _kak(u_ent)
    o1t, dt, o2t = _kak(target)

    aligned = _KAK_SIGNS[:, None, :] * de[_KAK_PERMS][None, :, :]
    # Distance of each image to dt after its best phase.  Summing the squared
    # residuals directly, rather than taking 8 - 2 |overlap|, keeps images
    # apart that are closer than ~1e-8, where the subtraction cancels.
    best_phase = np.exp(-1j * np.angle(aligned @ dt.conj()))
    residual = np.sum(np.abs(best_phase[..., None] * aligned - dt) ** 2, axis=-1)
    # Several images can tie to rounding; taking the first of those within a
    # relative _KAK_TIE of the best keeps the choice off the last bits.
    tied = np.flatnonzero(residual <= residual.min() * (1.0 + _KAK_TIE))
    i_sign, i_perm = np.unravel_index(tied[0], residual.shape)
    perm = np.eye(4)[_KAK_PERMS[i_perm]]
    # Both sides stay in SO(4): the det(perm) sign on one axis cancels
    # between them, and the sign pattern is even.
    fix = np.diag([1.0, 1.0, 1.0, np.linalg.det(perm)])
    post2, post1 = _local_factors(o1t @ np.diag(_KAK_SIGNS[i_sign]) @ fix @ perm @ o1e.T)
    pre2, pre1 = _local_factors(o2e.T @ perm.T @ fix @ o2t)

    spec = LocalRotationSpec(*map(zyz_angles, (post2, post1, pre2, pre1)))
    overlap_phase = float(np.angle(np.trace(target.conj().T @ spec.realize(u_ent))))
    return FitResult.of(replace(spec, phase=-overlap_phase), u_ent, target)
