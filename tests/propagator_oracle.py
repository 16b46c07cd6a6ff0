"""Per-point reference for the undriven propagators.

These are the closed forms of ``cnotsteer.propagate`` as they were before
they became maps over broadcast arrays: one point per call, (u, v) in
Python scalars through ``math``, and each matrix assembled from a nested
list.  They share no code with the maps, so a stack built by
``undriven_propagators`` or ``undriven_uv``, and its two-step products
``two_step_product``, must equal them member by member, byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

from cnotsteer.sequences import PI_PULSE_X1


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
