"""Self-contained property suite behind the ``verify`` CLI command.

Each check is a generator that draws deterministic random samples and
yields one deviation per comparison.  A check that compares gates draws all
its samples first, in a fixed order, and then evaluates the unitarity
defects, invariants or Weyl points of all its gates in one stacked call; a
member of a stack gets the bits it would get alone.  ``run_checks`` is the
one loop that runs them: it takes the worst deviation of each check and
compares it against the check's tolerance, so a NaN deviation is the worst
and fails.
The suite covers the cross-cutting guarantees of the package: unitarity of
the propagators, frame independence and ZZ independence of the class
invariants, invariance under local dressing, Weyl round trips, planarity
of both sequence families, and normalization of the oscillation amplitudes.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .equivclass import (
    InvariantPair,
    canonical_class_gate,
    makhlin_invariants,
    weyl_coordinates,
)
from .model import SystemParams
from .propagate import entangling_u_frame1, entangling_u_frame2, uv_coefficients
from .qmat import kron2, unitarity_defect
from .sequences import euler_u2, single_step_u, two_step_sandwich

_HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    tolerance: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: worst {self.worst:.3e} (tol {self.tolerance:.1e})"


def _random_local(rng: np.random.Generator) -> np.ndarray:
    angles = rng.uniform(-math.pi, math.pi, size=6)
    return kron2(euler_u2(*angles[:3]), euler_u2(*angles[3:]))


def _haar_unitaries(z: np.ndarray) -> np.ndarray:
    """Haar-random unitaries from a stack of complex Gaussian matrices."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _invariant_gaps(a: InvariantPair, b: InvariantPair) -> tuple[float, float]:
    return abs(a.g1 - b.g1), abs(a.g2 - b.g2)


def _unitarity(rng: np.random.Generator) -> Iterator[float]:
    gates = []
    for _ in range(100):
        t = rng.uniform(0.0, 4.0)
        p = SystemParams(delta=rng.uniform(-3.0, 3.0), g_tilde=rng.uniform(0.0, 0.1))
        gates += [entangling_u_frame1(t, p), entangling_u_frame2(t, p)]
    yield from unitarity_defect(np.array(gates))


def _frame_equivalence(rng: np.random.Generator) -> Iterator[float]:
    gates = []
    for _ in range(100):
        t = rng.uniform(0.0, 3.0)
        p = SystemParams(delta=rng.uniform(0.0, 3.0))
        gates += [two_step_sandwich(t, p, frame=1), two_step_sandwich(t, p, frame=2)]
    invs = makhlin_invariants(np.array(gates))
    for frame1, frame2 in zip(invs[::2], invs[1::2]):
        yield from _invariant_gaps(frame1, frame2)


def _zz_independence(rng: np.random.Generator) -> Iterator[float]:
    # Per sample: the reference (no ZZ coupling, frame 1), then each coupling
    # in both frames.
    gates = []
    for _ in range(34):
        t = rng.uniform(0.0, 3.0)
        delta = rng.uniform(0.0, 3.0)
        gates.append(two_step_sandwich(t, SystemParams(delta=delta), frame=1))
        for gtilde in (0.05, 0.1):
            p = SystemParams(delta=delta, g_tilde=gtilde)
            for frame in (1, 2):
                gates.append(two_step_sandwich(t, p, frame=frame))
    invs = makhlin_invariants(np.array(gates))
    for k in range(0, len(invs), 5):
        ref = invs[k]
        for inv in invs[k + 1 : k + 5]:
            yield from _invariant_gaps(inv, ref)


def _local_invariance(rng: np.random.Generator) -> Iterator[float]:
    # Per sample: a Gaussian matrix, a global phase and the two local
    # rotations around the unitary made from it.
    z, phase, left, right = [], [], [], []
    for _ in range(100):
        z.append(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        phase.append(np.exp(1j * rng.uniform(-math.pi, math.pi)))
        left.append(_random_local(rng))
        right.append(_random_local(rng))
    u = _haar_unitaries(np.array(z))
    dressed = np.array(phase)[:, None, None] * np.array(left) @ u @ np.array(right)
    invs = makhlin_invariants(np.stack([u, dressed], axis=1))
    for u_inv, dressed_inv in zip(invs[::2], invs[1::2]):
        yield from _invariant_gaps(u_inv, dressed_inv)


def _interior_point(rng: np.random.Generator) -> tuple[float, float, float]:
    margin = 1e-3
    while True:
        c = np.sort(rng.uniform(margin, _HALF_PI - margin, size=3))[::-1]
        if c[0] - c[1] > margin and c[1] - c[2] > margin:
            return float(c[0]), float(c[1]), float(c[2])


def _weyl_roundtrip(rng: np.random.Generator) -> Iterator[float]:
    points = [_interior_point(rng) for _ in range(100)]
    found = weyl_coordinates(canonical_class_gate(np.array(points)))
    for c, point in zip(points, found):
        yield from np.abs(point.as_array() - np.array(c))


def _planarity(rng: np.random.Generator) -> Iterator[float]:
    gates = []
    for _ in range(40):
        t = rng.uniform(0.0, 3.0)
        p2 = SystemParams(delta=rng.uniform(0.0, 3.0))
        gates.append(two_step_sandwich(t, p2, frame=1))
        p1 = SystemParams(delta=rng.uniform(0.0, 2.0), omega1=rng.uniform(0.5, 8.0))
        gates.append(single_step_u(t, p1))
    for point in weyl_coordinates(np.array(gates)):
        yield point.c3


def _uv_normalization(rng: np.random.Generator) -> Iterator[float]:
    for _ in range(200):
        p = SystemParams(delta=rng.uniform(-3.0, 3.0))
        u, v = uv_coefficients(rng.uniform(0.0, 5.0), p)
        yield abs(abs(u) ** 2 + v**2 - 1.0)


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
        worst = float(np.max(list(deviations(np.random.default_rng(seed + k)))))
        results.append(CheckResult(name, worst < tol, worst, tol))
    return results
