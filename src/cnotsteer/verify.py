"""Self-contained property suite behind the ``verify`` CLI command.

Each check draws deterministic random samples and returns an array of
deviations, one per comparison, in the order a loop over the samples would
yield them.  A check draws all its samples first, in the order such a loop
would draw them, then builds all its gates in one call to a map over
broadcast arrays (``sequences.undriven_propagators``, ``undriven_uv``,
``two_step_product`` and ``single_step_gates``, and
``LocalRotationSpec.realize`` for the local dressings).  It evaluates their
unitarity defects, invariants or chamber points as stacks: the arrays of
``qmat.unitarity_defect``, ``equivclass.makhlin_invariants`` and
``equivclass._chamber_coordinates``, the fold of ``weyl_coordinates``
without its chamber check, so that a point off the chamber is a deviation
and not an error.  A member of a stack gets the bits it would get alone.
Where a check compares two gates, it evaluates each side as one stack.
``run_checks`` is the one loop that runs the checks: it takes the worst
deviation of each check and compares it against the check's tolerance, so
a NaN deviation is the worst and fails.
The suite covers the cross-cutting guarantees of the package: unitarity of
the propagators, frame independence and ZZ independence of the class
invariants, invariance under local dressing, Weyl round trips, planarity
of both sequence families, and normalization of the oscillation amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equivclass import _chamber_coordinates, canonical_class_gate, makhlin_invariants
from .qmat import unitarity_defect
from .sequences import (
    LocalRotationSpec,
    single_step_gates,
    two_step_product,
    undriven_propagators,
    undriven_uv,
)

_HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    tolerance: float


def _haar_unitaries(z: np.ndarray) -> np.ndarray:
    """Haar-random unitaries from a stack of complex Gaussian matrices."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _invariant_gaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``|G1(a) - G1(b)|, |G2(a) - G2(b)|`` of each pair of broadcast gates, pair by pair.

    ``np.hypot`` of the parts is the complex ``abs`` of one pair, bit for bit.
    """
    (g1a, g2a), (g1b, g2b) = makhlin_invariants(a), makhlin_invariants(b)
    d1 = g1a - g1b
    return np.stack([np.hypot(d1.real, d1.imag), abs(g2a - g2b)], axis=-1).ravel()


def _draw(rng: np.random.Generator, n: int, *bounds: tuple[float, float]) -> np.ndarray:
    """``n`` samples of one ``rng.uniform(lo, hi)`` per bound, drawn sample by sample.

    Returns one array per bound, with the values a loop over the samples
    would draw.
    """
    lo, hi = np.array(bounds).T
    return rng.uniform(lo, hi, size=(n, len(bounds))).T


def _unitarity(rng: np.random.Generator) -> np.ndarray:
    t, delta, gtilde = _draw(rng, 100, (0.0, 4.0), (-3.0, 3.0), (0.0, 0.1))
    gates = [undriven_propagators(delta, gtilde, t, frame) for frame in (1, 2)]
    return unitarity_defect(np.stack(gates, axis=1)).ravel()


def _frame_equivalence(rng: np.random.Generator) -> np.ndarray:
    t, delta = _draw(rng, 100, (0.0, 3.0), (0.0, 3.0))
    frame1, frame2 = (undriven_propagators(delta, 0.0, t, frame) for frame in (1, 2))
    return _invariant_gaps(two_step_product(frame1), two_step_product(frame2))


def _zz_independence(rng: np.random.Generator) -> np.ndarray:
    # Per sample: each coupling in both frames against the reference (no ZZ
    # coupling, frame 1).
    t, delta = (a[:, None] for a in _draw(rng, 34, (0.0, 3.0), (0.0, 3.0)))
    frame1 = undriven_propagators(delta, np.array([0.0, 0.05, 0.1]), t, frame=1)
    frame2 = undriven_propagators(delta, np.array([0.05, 0.1]), t, frame=2)
    coupled = np.stack([frame1[:, 1], frame2[:, 0], frame1[:, 2], frame2[:, 1]], axis=1)
    return _invariant_gaps(two_step_product(coupled), two_step_product(frame1[:, :1]))


def _local_invariance(rng: np.random.Generator) -> np.ndarray:
    # Per sample: a Gaussian matrix (real, then imaginary part), then a
    # global phase and the six angles of each of the two local rotations.
    z, angles = [], []
    for _ in range(100):
        z.append(rng.normal(size=(2, 4, 4)))
        angles.append(rng.uniform(-math.pi, math.pi, size=13))
    z, angles = np.array(z), np.array(angles)
    u = _haar_unitaries(z[:, 0] + 1j * z[:, 1])
    a = angles.T
    dressed = LocalRotationSpec(a[1:4], a[4:7], a[7:10], a[10:13], phase=a[0]).realize(u)
    return _invariant_gaps(u, dressed)


def _interior_points(rng: np.random.Generator, n: int) -> np.ndarray:
    """The first ``n`` chamber points at least ``1e-3`` inside every face, ``(n, 3)``.

    Rejection sampling in blocks of ``n`` rows of three uniforms: the same
    doubles, in the same order, as one draw of three per try.
    """
    margin = 1e-3
    found = np.empty((0, 3))
    while len(found) < n:
        c = np.sort(rng.uniform(margin, _HALF_PI - margin, size=(n, 3)), axis=-1)[:, ::-1]
        inside = (c[:, 0] - c[:, 1] > margin) & (c[:, 1] - c[:, 2] > margin)
        found = np.concatenate([found, c[inside]])
    return found[:n]


def _weyl_roundtrip(rng: np.random.Generator) -> np.ndarray:
    points = _interior_points(rng, 100)
    return np.abs(_chamber_coordinates(canonical_class_gate(points)) - points).ravel()


def _planarity(rng: np.random.Generator) -> np.ndarray:
    # Per sample: a two-step product, then a single-step gate of the same t.
    t, delta2, delta1, omega1 = _draw(rng, 40, (0.0, 3.0), (0.0, 3.0), (0.0, 2.0), (0.5, 8.0))
    two_step = two_step_product(undriven_propagators(delta2, 0.0, t, frame=1))
    gates = [two_step, single_step_gates(delta1, omega1, t)]
    return _chamber_coordinates(np.stack(gates, axis=1))[..., 2].ravel()


def _uv_normalization(rng: np.random.Generator) -> np.ndarray:
    delta, t = _draw(rng, 200, (-3.0, 3.0), (0.0, 5.0))
    u, v = undriven_uv(delta, t)
    # The scalar |u|^2 + v^2 of each point: np.hypot is the complex abs and
    # np.float_power(., 2.0) is ``** 2``, bit for bit.
    norm = np.float_power(np.hypot(u.real, u.imag), 2.0) + np.float_power(v, 2.0)
    return abs(norm - 1.0)


#: (name, tolerance, deviations) of every check, in report order.
_CHECKS = (
    ("propagator unitarity", 1e-12, _unitarity),
    ("frame-1 vs frame-2 invariants", 1e-10, _frame_equivalence),
    ("ZZ-coupling independence of invariants", 1e-9, _zz_independence),
    ("local-dressing invariance", 1e-10, _local_invariance),
    ("Weyl-coordinate round trip", 1e-8, _weyl_roundtrip),
    ("c3 = 0 along both sequence families", 1e-8, _planarity),
    ("|u|^2 + v^2 = 1", 1e-12, _uv_normalization),
)


def run_checks(seed: int) -> list[CheckResult]:
    """Run the full suite; check k (from 1) draws from ``default_rng(seed + k)``.

    ``np.max`` keeps a NaN deviation, and ``NaN < tol`` is false, so a NaN
    fails its check instead of being dropped.
    """
    results = []
    for k, (name, tol, deviations) in enumerate(_CHECKS, start=1):
        worst = float(np.max(deviations(np.random.default_rng(seed + k))))
        results.append(CheckResult(name, worst < tol, worst, tol))
    return results
