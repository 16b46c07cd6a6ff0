"""Self-contained property suite behind the ``verify`` CLI command.

Each check is a generator that draws deterministic random samples and
yields one deviation per comparison.  A check draws all its samples first,
in the order a loop over the samples would draw them, then builds all its
gates in one call to a map over broadcast arrays
(``propagate.undriven_propagators`` and ``undriven_uv``,
``sequences.two_step_product`` and ``single_step_gates``, and
``euler_u2`` with ``kron2`` for the local dressings), and evaluates the
unitarity defects, invariants or Weyl points of all of them in one stacked
call; a member of a stack gets the bits it would get alone.  ``run_checks``
is the one loop that runs them: it takes the worst deviation of each check
and compares it against the check's tolerance, so a NaN deviation is the
worst and fails.
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
from .propagate import undriven_propagators, undriven_uv
from .qmat import kron2, unitarity_defect
from .sequences import euler_u2, single_step_gates, two_step_product

_HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    tolerance: float


def _random_locals(angles: np.ndarray) -> np.ndarray:
    """Local rotations ``kron2(euler_u2(*a[:3]), euler_u2(*a[3:]))`` for angles ``(..., 6)``."""
    a = np.moveaxis(angles, -1, 0)
    return kron2(euler_u2(*a[:3]), euler_u2(*a[3:]))


def _haar_unitaries(z: np.ndarray) -> np.ndarray:
    """Haar-random unitaries from a stack of complex Gaussian matrices."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _invariant_gaps(a: InvariantPair, b: InvariantPair) -> tuple[float, float]:
    return abs(a.g1 - b.g1), abs(a.g2 - b.g2)


def _draw(rng: np.random.Generator, n: int, *bounds: tuple[float, float]) -> np.ndarray:
    """``n`` samples of one ``rng.uniform(lo, hi)`` per bound, drawn sample by sample.

    Returns one array per bound, with the values a loop over the samples
    would draw.
    """
    lo, hi = np.array(bounds).T
    return rng.uniform(lo, hi, size=(n, len(bounds))).T


def _unitarity(rng: np.random.Generator) -> Iterator[float]:
    t, delta, gtilde = _draw(rng, 100, (0.0, 4.0), (-3.0, 3.0), (0.0, 0.1))
    gates = [undriven_propagators(delta, gtilde, t, frame) for frame in (1, 2)]
    yield from unitarity_defect(np.stack(gates, axis=1)).ravel()


def _frame_equivalence(rng: np.random.Generator) -> Iterator[float]:
    t, delta = _draw(rng, 100, (0.0, 3.0), (0.0, 3.0))
    segments = [undriven_propagators(delta, 0.0, t, frame) for frame in (1, 2)]
    invs = makhlin_invariants(two_step_product(np.stack(segments, axis=1)))
    for frame1, frame2 in zip(invs[::2], invs[1::2]):
        yield from _invariant_gaps(frame1, frame2)


def _zz_independence(rng: np.random.Generator) -> Iterator[float]:
    # Per sample: the reference (no ZZ coupling, frame 1), then each coupling
    # in both frames.
    t, delta = (a[:, None] for a in _draw(rng, 34, (0.0, 3.0), (0.0, 3.0)))
    frame1 = undriven_propagators(delta, np.array([0.0, 0.05, 0.1]), t, frame=1)
    frame2 = undriven_propagators(delta, np.array([0.05, 0.1]), t, frame=2)
    order = [frame1[:, 0], frame1[:, 1], frame2[:, 0], frame1[:, 2], frame2[:, 1]]
    invs = makhlin_invariants(two_step_product(np.stack(order, axis=1)))
    for k in range(0, len(invs), 5):
        ref = invs[k]
        for inv in invs[k + 1 : k + 5]:
            yield from _invariant_gaps(inv, ref)


def _local_invariance(rng: np.random.Generator) -> Iterator[float]:
    # Per sample: a Gaussian matrix (real, then imaginary part), then a
    # global phase and the six angles of each of the two local rotations.
    z, angles = [], []
    for _ in range(100):
        z.append(rng.normal(size=(2, 4, 4)))
        angles.append(rng.uniform(-math.pi, math.pi, size=13))
    z, angles = np.array(z), np.array(angles)
    u = _haar_unitaries(z[:, 0] + 1j * z[:, 1])
    phase = np.exp(1j * angles[:, 0])[:, None, None]
    dressed = phase * _random_locals(angles[:, 1:7]) @ u @ _random_locals(angles[:, 7:])
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
    # Per sample: a two-step product, then a single-step gate of the same t.
    t, delta2, delta1, omega1 = _draw(rng, 40, (0.0, 3.0), (0.0, 3.0), (0.0, 2.0), (0.5, 8.0))
    two_step = two_step_product(undriven_propagators(delta2, 0.0, t, frame=1))
    gates = [two_step, single_step_gates(delta1, omega1, t)]
    for point in weyl_coordinates(np.stack(gates, axis=1)):
        yield point.c3


def _uv_normalization(rng: np.random.Generator) -> Iterator[float]:
    delta, t = _draw(rng, 200, (-3.0, 3.0), (0.0, 5.0))
    u, v = undriven_uv(delta, t)
    # Python scalars: abs() and ** round as one point does, np.abs and
    # np.power of arrays do not.
    for u_k, v_k in zip(u.tolist(), v.tolist()):
        yield abs(abs(u_k) ** 2 + v_k**2 - 1.0)


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
