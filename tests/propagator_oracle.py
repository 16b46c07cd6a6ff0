"""Independent reference for the propagators and the single-step map.

The closed forms below are those of ``cnotsteer.sequences`` as they were
before they became maps over broadcast arrays: one point per call, (u, v) in
Python scalars through ``math``, and each matrix assembled from a nested
list.  They share no code with the maps, so a stack built by
``undriven_propagators`` or ``undriven_uv``, and its two-step products
``two_step_product``, must equal them member by member, byte for byte.

The RWA Hamiltonians ``h_rwa_frame1`` and ``h_rwa_frame2`` are the generators
of the two frames, written from the scaled Pauli products.  The single-step
map ``sequences.single_step_gates`` must equal ``expm_skew(-t *
h_rwa_frame1(p))`` bit for bit, and the closed-form propagators must match
its exponential.

``evolve_stepwise`` integrates the time-dependent frame-2 generator directly
(midpoint product formula).  It is deliberately independent of the closed
forms and serves as their numerical cross-check; the error falls off as
O(steps^-2).

``two_step_invariants_closed`` gives the Makhlin invariants of the two-step
entangler in closed form, for any detuning, apart from any propagator.
"""

from __future__ import annotations

import math

import numpy as np

from cnotsteer.qmat import (
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    X1,
    XX,
    YY,
    Z2,
    ZZ,
    Generator4,
    Operator4,
    _scaled_product,
    expm_skew,
)
from cnotsteer.sequences import PI_PULSE_X1, SystemParams, checked_time, two_step_time

# The scaled Pauli products that no map uses; qmat holds the others.
Y1 = _scaled_product(ID2, SIGMA_Y)
Z1 = _scaled_product(ID2, SIGMA_Z)
X2 = _scaled_product(SIGMA_X, ID2)
Y2 = _scaled_product(SIGMA_Y, ID2)
XY = _scaled_product(SIGMA_X, SIGMA_Y)
YX = _scaled_product(SIGMA_Y, SIGMA_X)


def h_rwa_frame1(p: SystemParams) -> Generator4:
    """Time-independent frame-1 generator.

    Returns ``-delta*Z2 + omega1*X1 + (XX + YY) + g_tilde*ZZ`` in units of
    g; the evolution operator over a time ``t`` (units of 1/g) is
    ``expm_skew(-t * h_rwa_frame1(p))``.
    """
    return -p.delta * Z2 + p.omega1 * X1 + (XX + YY) + p.g_tilde * ZZ


def h_rwa_frame2(p: SystemParams, t: float) -> Generator4:
    """Frame-2 generator at time ``t``.

    The detuning appears as a rotating transverse coupling, in units of g:
    ``omega1*X1 + [(XX+YY)cos(delta t) + (YX-XY)sin(delta t)] + g_tilde*ZZ``.
    Periodic in ``t`` (units of 1/g) with period ``2*pi/|delta|`` for
    nonzero detuning.
    """
    phase = p.delta * t
    coupling = (XX + YY) * math.cos(phase) + (YX - XY) * math.sin(phase)
    return p.omega1 * X1 + coupling + p.g_tilde * ZZ


def evolve_stepwise(p: SystemParams, t: float, steps: int) -> Operator4:
    """Integrate the frame-2 evolution as a midpoint-rule product formula.

    Splits [0, t] into ``steps`` uniform slices and accumulates
    exp(-dt * H(t_mid)) in time order.  With the drive off this converges to
    ``entangling_u(t, p, 2)`` at second order in the step size; with a static
    generator a single step is already exact.

    Raises:
        ValueError: ``steps < 1``, or ``t`` is not finite or is negative.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    checked_time(t)
    dt = t / steps
    u = np.eye(4, dtype=complex)
    for k in range(steps):
        t_mid = (k + 0.5) * dt
        u = expm_skew(-dt * h_rwa_frame2(p, t_mid)) @ u
    return u


def uv_coefficients(t: float, delta: float) -> tuple[complex, float]:
    """Oscillation amplitudes (u, v) of the single-excitation block at time t."""
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    lam = math.hypot(delta, 2.0)
    half = 0.5 * lam * t
    u = math.cos(half) + 1j * (delta / lam) * math.sin(half)
    v = (2.0 / lam) * math.sin(half)
    return u, v


def entangling_u_frame1(t: float, delta: float, g_tilde: float) -> np.ndarray:
    """Frame-1 propagator: corners exp(+/- i delta t / 2), block [[u, -iv], [-iv, u*]]."""
    u, v = uv_coefficients(t, delta)
    corner = np.exp(0.5j * delta * t)
    m = np.array(
        [
            [corner, 0, 0, 0],
            [0, u, -1j * v, 0],
            [0, -1j * v, np.conj(u), 0],
            [0, 0, 0, np.conj(corner)],
        ],
        dtype=complex,
    )
    zz = np.exp(-0.5j * g_tilde * t)  # the diagonal of exp(-t * g_tilde * ZZ)
    return np.array([zz, zz.conjugate(), zz.conjugate(), zz])[:, None] * m


def entangling_u_frame2(t: float, delta: float, g_tilde: float) -> np.ndarray:
    """Frame-2 propagator: exp(-delta t Z2) times the frame-1 one."""
    row = np.exp(-0.5j * delta * t)
    phases = np.array([row, row, row.conjugate(), row.conjugate()])
    return phases[:, None] * entangling_u_frame1(t, delta, g_tilde)


def entangling_u(t: float, delta: float, g_tilde: float, frame: int) -> np.ndarray:
    return (entangling_u_frame1 if frame == 1 else entangling_u_frame2)(t, delta, g_tilde)


def two_step_sandwich(t: float, delta: float, g_tilde: float, frame: int) -> np.ndarray:
    u = entangling_u(t, delta, g_tilde, frame)
    return u @ PI_PULSE_X1 @ u


def two_step_entangler(p: SystemParams, frame: int) -> np.ndarray:
    """The two-step entangling core U(t2) e^{-pi X1} U(t2) at ``two_step_time(p)``."""
    return two_step_sandwich(two_step_time(p), p.delta, p.g_tilde, frame)


def two_step_invariants_closed(t: float, p: SystemParams) -> tuple[complex, float]:
    """Closed-form invariants ``(G1, G2)`` of the two-step entangler U(t) e^{-pi X1} U(t).

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
    return complex(g1), g2
