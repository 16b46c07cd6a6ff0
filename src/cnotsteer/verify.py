"""Self-contained property suite behind the ``verify`` CLI command.

Each check draws its own deterministic random samples, records the worst
observed deviation, and compares it against the check's tolerance.  The
suite covers the cross-cutting guarantees of the package: unitarity of the
propagators, frame independence and ZZ independence of the class
invariants, invariance under local dressing, Weyl round trips, planarity
of both sequence families, and normalization of the oscillation amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equivclass import (
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


def _random_unitary(rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def check_unitarity(seed: int) -> CheckResult:
    tol = 1e-12
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        t = rng.uniform(0.0, 4.0)
        p = SystemParams(delta=rng.uniform(-3.0, 3.0), g_tilde=rng.uniform(0.0, 0.1))
        worst = max(worst, unitarity_defect(entangling_u_frame1(t, p)))
        worst = max(worst, unitarity_defect(entangling_u_frame2(t, p)))
    return CheckResult("propagator unitarity", worst < tol, worst, tol)


def check_frame_equivalence(seed: int) -> CheckResult:
    tol = 1e-10
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        t = rng.uniform(0.0, 3.0)
        p = SystemParams(delta=rng.uniform(0.0, 3.0))
        a = makhlin_invariants(two_step_sandwich(t, p, frame=1))
        b = makhlin_invariants(two_step_sandwich(t, p, frame=2))
        worst = max(worst, abs(a.g1 - b.g1), abs(a.g2 - b.g2))
    return CheckResult("frame-1 vs frame-2 invariants", worst < tol, worst, tol)


def check_zz_independence(seed: int) -> CheckResult:
    tol = 1e-9
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(34):
        t = rng.uniform(0.0, 3.0)
        delta = rng.uniform(0.0, 3.0)
        ref = makhlin_invariants(two_step_sandwich(t, SystemParams(delta=delta), frame=1))
        for gtilde in (0.05, 0.1):
            p = SystemParams(delta=delta, g_tilde=gtilde)
            for frame in (1, 2):
                inv = makhlin_invariants(two_step_sandwich(t, p, frame=frame))
                worst = max(worst, abs(inv.g1 - ref.g1), abs(inv.g2 - ref.g2))
    return CheckResult("ZZ-coupling independence of invariants", worst < tol, worst, tol)


def check_local_invariance(seed: int) -> CheckResult:
    tol = 1e-10
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        u = _random_unitary(rng)
        dressed = (
            np.exp(1j * rng.uniform(-math.pi, math.pi))
            * _random_local(rng)
            @ u
            @ _random_local(rng)
        )
        a, b = makhlin_invariants(u), makhlin_invariants(dressed)
        worst = max(worst, abs(a.g1 - b.g1), abs(a.g2 - b.g2))
    return CheckResult("local-dressing invariance", worst < tol, worst, tol)


def _interior_point(rng: np.random.Generator) -> tuple[float, float, float]:
    margin = 1e-3
    while True:
        c = np.sort(rng.uniform(margin, _HALF_PI - margin, size=3))[::-1]
        if c[0] - c[1] > margin and c[1] - c[2] > margin:
            return float(c[0]), float(c[1]), float(c[2])


def check_weyl_roundtrip(seed: int) -> CheckResult:
    tol = 1e-8
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        c = _interior_point(rng)
        got = weyl_coordinates(canonical_class_gate(c))
        worst = max(worst, float(np.max(np.abs(got.as_array() - np.array(c)))))
    return CheckResult("Weyl-coordinate round trip", worst < tol, worst, tol)


def check_planarity(seed: int) -> CheckResult:
    tol = 1e-8
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(40):
        t = rng.uniform(0.0, 3.0)
        p2 = SystemParams(delta=rng.uniform(0.0, 3.0))
        worst = max(worst, weyl_coordinates(two_step_sandwich(t, p2, frame=1)).c3)
        p1 = SystemParams(delta=rng.uniform(0.0, 2.0), omega1=rng.uniform(0.5, 8.0))
        worst = max(worst, weyl_coordinates(single_step_u(t, p1)).c3)
    return CheckResult("c3 = 0 along both sequence families", worst < tol, worst, tol)


def check_uv_normalization(seed: int) -> CheckResult:
    tol = 1e-12
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(200):
        p = SystemParams(delta=rng.uniform(-3.0, 3.0))
        uv = uv_coefficients(rng.uniform(0.0, 5.0), p)
        worst = max(worst, abs(abs(uv.u) ** 2 + uv.v**2 - 1.0))
    return CheckResult("|u|^2 + v^2 = 1", worst < tol, worst, tol)


def run_checks(seed: int) -> list[CheckResult]:
    """Run the full suite; child seeds are derived deterministically."""
    return [
        check_unitarity(seed + 1),
        check_frame_equivalence(seed + 2),
        check_zz_independence(seed + 3),
        check_local_invariance(seed + 4),
        check_weyl_roundtrip(seed + 5),
        check_planarity(seed + 6),
        check_uv_normalization(seed + 7),
    ]
