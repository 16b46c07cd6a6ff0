"""Reference searches for the single-step calibration.

``minimize_single_step`` is the three-pass bounded Nelder-Mead on d^2 that
``optimize.calibrate_single_step`` used beyond ``|delta| = g`` before Newton
steps on d^2 replaced it.  It is kept as a test oracle: the in-bound root
solve must reach at least the d^2 it reaches, and beyond the bound the Newton
minimum must reach it too, on the same branch.  Its objective,
``single_step_d2``, is built from public calls.

``solve_single_step`` is the in-bound Gauss-Newton root solve as it was
before each step evaluated its three residuals as one stack: one
single-gate residual per point, x first, then each forward difference.  The
stacked solve must return the same root, bit for bit, the same iteration
count and the same flag.  Its per-point gate, ``single_step_gate``, goes
through ``single_step_u``, and its residual, ``single_step_residual``, is
formed here, apart from ``equivclass.cnot_residual``.

``newton_single_step`` is the damped Newton minimiser of d^2 beyond the bound
as it was before each step evaluated its 8-point stencil ring as one request:
the same loop, with one ``single_step_d2`` call per point, the stencil filled
point by point in (i, j) order.  The minimiser must return the same point,
bit for bit, the same iteration count and the same flag.
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace

import numpy as np

from cnotsteer.equivclass import cnot_distance, makhlin_invariants, to_magic
from cnotsteer.model import SystemParams
from cnotsteer.optimize import (
    _HESSIAN_FLOOR,
    _NEWTON_MAX_ITERATIONS,
    _NEWTON_STEP,
    _NEWTON_TOL,
    _ROOT_MAX_ITERATIONS,
    _ROOT_STEP,
    _ROOT_TOL,
    SINGLE_STEP_BOUNDS,
    SINGLE_STEP_START,
)
from cnotsteer.qmat import require_unitary
from cnotsteer.sequences import single_step_u
from nelder_mead import NMOptions, nelder_mead

_SEARCH = NMOptions(bounds=SINGLE_STEP_BOUNDS)

#: Initial-simplex edges for the polish passes that resolve flat basins.
_POLISH_EDGES = (0.002, 0.0001)


def minimize_single_step(
    delta_over_g: float, start: tuple[float, float] = SINGLE_STEP_START
) -> tuple[np.ndarray, int, bool]:
    """Closest class by bounded Nelder-Mead on d^2 from ``start``, polished twice."""
    objective = functools.partial(single_step_d2, delta_over_g)

    res = nelder_mead(objective, np.array(start), _SEARCH)
    iterations = res.iterations
    converged = res.converged
    for edge in _POLISH_EDGES:
        res = nelder_mead(objective, res.x, replace(_SEARCH, initial_edge=edge))
        iterations += res.iterations
        converged = converged and res.converged
    return res.x, iterations, converged


def single_step_gate(delta_over_g: float, x: np.ndarray) -> np.ndarray:
    """The single-step gate at one point ``x = (omega1/g, T1)``, T1 in units of pi/2g."""
    p = SystemParams(delta=delta_over_g, omega1=float(x[0]))
    return single_step_u(float(x[1]) * math.pi / 2.0, p)


def single_step_d2(delta_over_g: float, x: np.ndarray) -> float:
    """d^2 = |G1|^2 + |G2 - 1|^2 of the single-step gate at ``x = (omega1/g, T1)``."""
    return cnot_distance(makhlin_invariants(single_step_gate(delta_over_g, x)))


def single_step_residual(delta_over_g: float, x: np.ndarray) -> np.ndarray:
    """Real and imaginary parts of ``m^2 / det U + I`` at ``x = (omega1/g, T1)``."""
    u = require_unitary(single_step_gate(delta_over_g, x), what="single-step gate")
    ub = to_magic(u)
    m = ub.T @ ub
    r = m @ m / np.linalg.det(u) + np.eye(4)
    return np.concatenate([r.real.ravel(), r.imag.ravel()])


def solve_single_step(delta_over_g: float) -> tuple[np.ndarray, int, bool]:
    """Gauss-Newton root of the single-step residual, one point per call."""
    x = np.array(SINGLE_STEP_START)
    r = single_step_residual(delta_over_g, x)
    iterations = 0
    while np.linalg.norm(r) > _ROOT_TOL:
        if iterations == _ROOT_MAX_ITERATIONS:
            return x, iterations, False
        jac = np.empty((r.size, 2))
        for k in range(2):
            xk = x.copy()
            xk[k] += _ROOT_STEP
            jac[:, k] = (single_step_residual(delta_over_g, xk) - r) / _ROOT_STEP
        x = x - np.linalg.lstsq(jac, r, rcond=None)[0]
        r = single_step_residual(delta_over_g, x)
        iterations += 1
    return x, iterations, True


def newton_single_step(delta_over_g: float) -> tuple[np.ndarray, int, bool]:
    """Damped Newton on d^2 from ``SINGLE_STEP_START``, one point per call."""
    h = _NEWTON_STEP
    lo, hi = np.array(SINGLE_STEP_BOUNDS).T
    x = np.array(SINGLE_STEP_START)
    fx = single_step_d2(delta_over_g, x)
    for iterations in range(_NEWTON_MAX_ITERATIONS):
        f = np.empty((3, 3))  # f[i, j] = d^2 at x + h * (i - 1, j - 1)
        for i in range(3):
            for j in range(3):
                point = x + h * np.array([i - 1.0, j - 1.0])
                f[i, j] = fx if i == j == 1 else single_step_d2(delta_over_g, point)
        grad = np.array([f[2, 1] - f[0, 1], f[1, 2] - f[1, 0]]) / (2.0 * h)
        cross = (f[2, 2] - f[2, 0] - f[0, 2] + f[0, 0]) / 4.0
        hess = np.array([
            [f[2, 1] - 2.0 * fx + f[0, 1], cross],
            [cross, f[1, 2] - 2.0 * fx + f[1, 0]],
        ]) / (h * h)
        low, high = np.linalg.eigvalsh(hess)
        if low <= 0.0:
            hess += (_HESSIAN_FLOOR * max(1.0, abs(high)) - low) * np.eye(2)
        step = -np.linalg.solve(hess, grad)
        while np.max(np.abs(step)) > _NEWTON_TOL:
            trial = x + step
            if np.all(trial >= lo) and np.all(trial <= hi):
                f_trial = single_step_d2(delta_over_g, trial)
                if f_trial < fx:
                    break
            step = step / 2.0
        else:
            return x, iterations, True
        x, fx = trial, f_trial
    return x, _NEWTON_MAX_ITERATIONS, False
