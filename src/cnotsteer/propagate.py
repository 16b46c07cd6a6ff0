"""Time-evolution operators for the entangling segments, in both frames.

With the drive off, the frame-1 generator restricted to the single-excitation
block {|01>, |10>} is a static two-level problem, so the propagator has a
closed form built from

    u = cos(L t / 2) + (i delta / L) sin(L t / 2),
    v = (2 g / L) sin(L t / 2),          L = sqrt(delta^2 + 4 g^2),

with |u|^2 + v^2 = 1 (checked by the ``verify`` suite, not on return).  A
longitudinal coupling only multiplies it by the diagonal phase factor
exp(-t * g_tilde * ZZ).  The frame-2 propagator is exp(-delta t Z2) U1(t),
with U1 the frame-1 one, so its corners are 1 instead of
exp(+/- i delta t / 2).

``evolve_stepwise`` integrates the time-dependent frame-2 generator directly
(midpoint product formula).  It is deliberately independent of the closed
forms above and serves as their numerical cross-check; the error falls off
as O(steps^-2).
"""

from __future__ import annotations

import math

import numpy as np

from .model import SystemParams, h_rwa_frame2
from .qmat import Operator4, expm_skew


def uv_coefficients(t: float, p: SystemParams) -> tuple[complex, float]:
    """Oscillation amplitudes (u, v) of the single-excitation block at time t."""
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    lam = math.hypot(p.delta, 2.0)
    half = 0.5 * lam * t
    u = math.cos(half) + 1j * (p.delta / lam) * math.sin(half)
    v = (2.0 / lam) * math.sin(half)
    return u, v


def entangling_u_frame1(t: float, p: SystemParams) -> Operator4:
    """Frame-1 entangling propagator (drive off) for duration ``t``.

    Corners carry exp(+/- i delta t / 2); the central block is
    [[u, -iv], [-iv, u*]].  ``p.omega1`` is ignored.
    """
    u, v = uv_coefficients(t, p)
    corner = np.exp(0.5j * p.delta * t)
    m = np.array(
        [
            [corner, 0, 0, 0],
            [0, u, -1j * v, 0],
            [0, -1j * v, np.conj(u), 0],
            [0, 0, 0, np.conj(corner)],
        ],
        dtype=complex,
    )
    zz = np.exp(-0.5j * p.g_tilde * t)  # the diagonal of exp(-t * g_tilde * ZZ)
    return np.array([zz, zz.conjugate(), zz.conjugate(), zz])[:, None] * m


def entangling_u_frame2(t: float, p: SystemParams) -> Operator4:
    """Frame-2 entangling propagator (drive off): exp(-delta t Z2) U1(t).

    U1 is ``entangling_u_frame1``, and the factor puts the phase
    exp(-/+ i delta t / 2) on the rows where qubit 2 is |0> / |1>.
    """
    row = np.exp(-0.5j * p.delta * t)
    phases = np.array([row, row, row.conjugate(), row.conjugate()])
    return phases[:, None] * entangling_u_frame1(t, p)


def entangling_u(t: float, p: SystemParams, frame: int) -> Operator4:
    """Entangling propagator for duration ``t`` in frame 1 or frame 2."""
    if frame == 1:
        return entangling_u_frame1(t, p)
    if frame == 2:
        return entangling_u_frame2(t, p)
    raise ValueError(f"frame must be 1 or 2, got {frame}")


def evolve_stepwise(p: SystemParams, t: float, steps: int) -> Operator4:
    """Integrate the frame-2 evolution as a midpoint-rule product formula.

    Splits [0, t] into ``steps`` uniform slices and accumulates
    exp(-dt * H(t_mid)) in time order.  With the drive off this converges to
    ``entangling_u_frame2`` at second order in the step size; with a static
    generator a single step is already exact.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    dt = t / steps
    u = np.eye(4, dtype=complex)
    for k in range(steps):
        t_mid = (k + 0.5) * dt
        u = expm_skew(-dt * h_rwa_frame2(p, t_mid)) @ u
    return u
