"""Per-sample reference for the ``verify`` checks.

These are the check generators of ``cnotsteer.verify`` as they were before
the checks collected their gates into stacks: each sample's unitarity
defect, invariants or Weyl point comes from its own single-matrix call, in
the order the samples are drawn.  The undriven propagators, their two-step
products and their (u, v) come from ``propagator_oracle``, which shares no
code with the map that ``verify`` uses.  ``run_checks`` here is the same
runner.  The stacked suite must return ``CheckResult``s equal to these,
``worst`` included, bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from cnotsteer.equivclass import canonical_class_gate, makhlin_invariants, weyl_coordinates
from cnotsteer.qmat import kron2, unitarity_defect
from cnotsteer.sequences import SystemParams, euler_u2, single_step_u
from cnotsteer.verify import CheckResult

from propagator_oracle import (
    entangling_u_frame1,
    entangling_u_frame2,
    two_step_sandwich,
    uv_coefficients,
)

_HALF_PI = math.pi / 2.0


def _random_local(rng: np.random.Generator) -> np.ndarray:
    angles = rng.uniform(-math.pi, math.pi, size=6)
    return kron2(euler_u2(*angles[:3]), euler_u2(*angles[3:]))


def _random_unitary(rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _invariants(u: np.ndarray) -> tuple[complex, float]:
    """``makhlin_invariants`` of one gate as Python numbers ``(G1, G2)``."""
    g1, g2 = makhlin_invariants(u)
    return g1.item(), g2.item()


def _invariant_gaps(a: tuple[complex, float], b: tuple[complex, float]) -> tuple[float, float]:
    return abs(a[0] - b[0]), abs(a[1] - b[1])


def _unitarity(rng: np.random.Generator) -> Iterator[float]:
    for _ in range(100):
        t = rng.uniform(0.0, 4.0)
        delta, g_tilde = rng.uniform(-3.0, 3.0), rng.uniform(0.0, 0.1)
        yield unitarity_defect(entangling_u_frame1(t, delta, g_tilde))
        yield unitarity_defect(entangling_u_frame2(t, delta, g_tilde))


def _frame_equivalence(rng: np.random.Generator) -> Iterator[float]:
    for _ in range(100):
        t = rng.uniform(0.0, 3.0)
        delta = rng.uniform(0.0, 3.0)
        yield from _invariant_gaps(
            _invariants(two_step_sandwich(t, delta, 0.0, frame=1)),
            _invariants(two_step_sandwich(t, delta, 0.0, frame=2)),
        )


def _zz_independence(rng: np.random.Generator) -> Iterator[float]:
    for _ in range(34):
        t = rng.uniform(0.0, 3.0)
        delta = rng.uniform(0.0, 3.0)
        ref = _invariants(two_step_sandwich(t, delta, 0.0, frame=1))
        for gtilde in (0.05, 0.1):
            for frame in (1, 2):
                inv = _invariants(two_step_sandwich(t, delta, gtilde, frame=frame))
                yield from _invariant_gaps(inv, ref)


def _local_invariance(rng: np.random.Generator) -> Iterator[float]:
    for _ in range(100):
        u = _random_unitary(rng)
        dressed = (
            np.exp(1j * rng.uniform(-math.pi, math.pi))
            * _random_local(rng)
            @ u
            @ _random_local(rng)
        )
        yield from _invariant_gaps(_invariants(u), _invariants(dressed))


def _interior_point(rng: np.random.Generator) -> tuple[float, float, float]:
    margin = 1e-3
    while True:
        c = np.sort(rng.uniform(margin, _HALF_PI - margin, size=3))[::-1]
        if c[0] - c[1] > margin and c[1] - c[2] > margin:
            return float(c[0]), float(c[1]), float(c[2])


def _weyl_roundtrip(rng: np.random.Generator) -> Iterator[float]:
    for _ in range(100):
        c = _interior_point(rng)
        yield from np.abs(weyl_coordinates(canonical_class_gate(c)) - np.array(c))


def _planarity(rng: np.random.Generator) -> Iterator[float]:
    for _ in range(40):
        t = rng.uniform(0.0, 3.0)
        yield weyl_coordinates(two_step_sandwich(t, rng.uniform(0.0, 3.0), 0.0, frame=1))[2]
        p1 = SystemParams(delta=rng.uniform(0.0, 2.0), omega1=rng.uniform(0.5, 8.0))
        yield weyl_coordinates(single_step_u(t, p1))[2]


def _uv_normalization(rng: np.random.Generator) -> Iterator[float]:
    for _ in range(200):
        delta = rng.uniform(-3.0, 3.0)
        u, v = uv_coefficients(rng.uniform(0.0, 5.0), delta)
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
