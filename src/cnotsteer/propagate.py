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

That closed form is written once, as maps over broadcast arrays:
``undriven_uv(delta, t)`` gives (u, v) and ``undriven_propagators(delta,
g_tilde, t, frame)`` a stack of shape ``(..., 4, 4)``.  Each member of a
stack gets the bits that one point gets.  ``entangling_u(t, p, frame)`` is
its one-point call.

The closed form is written here, not derived from a generator at run time;
``tests/propagator_oracle.py`` holds the frame generators and a stepwise
integrator as the independent reference that tests compare it against.
"""

from __future__ import annotations

import math

import numpy as np

from .model import SystemParams
from .qmat import Operator4


def checked_time(t: float | np.ndarray) -> np.ndarray:
    """``t`` as a float array: the one check of every evolution time.

    Raises:
        ValueError: a time is not finite, or is negative.
    """
    t = np.asarray(t, dtype=float)
    finite = np.isfinite(t)
    if not finite.all():
        raise ValueError(f"time must be finite, got {t[~finite][0]}")
    if (t < 0).any():
        raise ValueError(f"time must be >= 0, got {t.min()}")
    return t


def undriven_uv(
    delta: float | np.ndarray, t: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes (u, v) of the single-excitation block at broadcast ``delta`` and ``t``.

    Returns complex u and real v arrays of the broadcast shape; each member
    gets the bits that one point gets.  L is taken point by point with
    ``math.hypot``: ``np.hypot`` rounds differently in ~0.6 % of inputs.

    Raises:
        ValueError: a time is not finite, or is negative.
    """
    delta, t = np.asarray(delta, dtype=float), checked_time(t)
    lam = np.array([math.hypot(d, 2.0) for d in delta.ravel().tolist()]).reshape(delta.shape)
    half = 0.5 * lam * t
    sin = np.sin(half)
    return np.cos(half) + 1j * (delta / lam) * sin, (2.0 / lam) * sin


def undriven_propagators(
    delta: float | np.ndarray, g_tilde: float | np.ndarray, t: float | np.ndarray, frame: int
) -> np.ndarray:
    """Entangling propagators (drive off) at broadcast ``(delta, g_tilde, t)``.

    The frame-1 propagator has the corners exp(+/- i delta t / 2) and the
    central block [[u, -iv], [-iv, u*]], times the diagonal of
    exp(-t * g_tilde * ZZ).  Frame 2 multiplies it by exp(-delta t Z2), the
    phase exp(-/+ i delta t / 2) on the rows where qubit 2 is |0> / |1>.
    Returns shape ``(..., 4, 4)``; each member gets the bits that one point
    gets.

    Raises:
        ValueError: ``frame`` is not 1 or 2, or a time is not finite or is
            negative.
    """
    if frame not in (1, 2):
        raise ValueError(f"frame must be 1 or 2, got {frame}")
    delta, t = np.asarray(delta, dtype=float), np.asarray(t, dtype=float)
    u, v = undriven_uv(delta, t)
    corner = np.exp(0.5j * delta * t)
    m = np.zeros(u.shape + (16,), dtype=complex)  # the entries, row by row
    m[..., 0] = corner
    m[..., 5] = u
    m[..., 6] = m[..., 9] = -1j * v
    m[..., 10] = u.conj()
    m[..., 15] = corner.conj()
    zz = np.exp(-0.5j * np.asarray(g_tilde, dtype=float) * t)[..., None]
    m = _row_factors(zz, zz.conj(), zz.conj(), zz) * m.reshape(u.shape + (4, 4))
    if frame == 2:
        row = np.exp(-0.5j * delta * t)[..., None]
        m = _row_factors(row, row, row.conj(), row.conj()) * m
    return m


def _row_factors(*rows: np.ndarray) -> np.ndarray:
    """Factors of shape ``(..., 4, 1)`` for the four rows, each given as ``(..., 1)``."""
    return np.concatenate(rows, axis=-1)[..., None]


def entangling_u(t: float, p: SystemParams, frame: int) -> Operator4:
    """Entangling propagator (drive off) for duration ``t`` in frame 1 or frame 2.

    One point of ``undriven_propagators``; ``p.omega1`` is ignored.
    """
    return undriven_propagators(p.delta, p.g_tilde, t, frame)

