"""Reference searches for the single-step calibration.

``minimize_single_step`` is the three-pass bounded Nelder-Mead on d^2 that
``optimize.calibrate_single_step`` used beyond ``|delta| = g`` before Newton
steps on d^2 replaced it.  It is kept as a test oracle: the in-bound root
solve must reach at least the d^2 it reaches, and beyond the bound the Newton
minimum must reach it too, on the same branch.  Its objective,
``single_step_d2``, is built from public calls.

``solve_single_step`` is the in-bound Gauss-Newton root solve as it was
before each step evaluated its three residuals as one stack: one
single-gate residual per point, x first, then each forward difference, with
the same doubled-step rule (a step about half the one before is also tried
doubled, and the point with the smaller ``||R||`` is kept).  The stacked
solve must return the same root, bit for bit, the same iteration count and
the same flag.  Its per-point gate, ``single_step_gate``, goes through
``single_step_u``, and its residual, ``single_step_residual``, is formed
here, apart from ``equivclass.cnot_residual``.

``fold_point`` locates the single-step fold at delta = +-g, where the two
exact-CNOT branches of (omega1, T1) merge, without solving at the fold
itself: just below it, plain Gauss-Newton finds the lower and the upper root
from starts on either side, and the fold is their midpoint.

``newton_single_step`` is the damped Newton minimiser of d^2 beyond the bound
as it was before each step evaluated its 8-point stencil ring as one request:
the same loop, with one ``single_step_d2`` call per point, the stencil filled
point by point in (i, j) order.  The minimiser must return the same point,
bit for bit, the same iteration count and the same flag.

``richardson_minimum`` is a reference for where that minimum truly lies.
The minimiser's central differences at step h = ``_NEWTON_STEP`` place it
O(h^2), about 1e-8, off; Newton steps on derivatives extrapolated from two
central differences are O(h^4) accurate, so the reference does not share
that bias.  Halving its step moves it by at most 1.1e-9 at 1.05-3g, and the
minimiser's offsets from it match, to the two digits kept, those measured
against a 50-digit minimum at 1.1, 1.5, 1.8, 2.0 and 3.0g.
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace

import numpy as np

from cnotsteer.equivclass import cnot_distance, makhlin_invariants, to_magic
from cnotsteer.optimize import (
    _HESSIAN_FLOOR,
    _NEWTON_MAX_ITERATIONS,
    _NEWTON_STEP,
    _NEWTON_TOL,
    _ROOT_DOUBLING,
    _ROOT_MAX_ITERATIONS,
    _ROOT_STEP,
    _ROOT_TOL,
    SINGLE_STEP_BOUNDS,
    SINGLE_STEP_START,
)
from cnotsteer.qmat import require_unitary
from cnotsteer.sequences import SystemParams, single_step_u
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
    return float(cnot_distance(*makhlin_invariants(single_step_gate(delta_over_g, x))))


def single_step_residual(delta_over_g: float, x: np.ndarray) -> np.ndarray:
    """Real and imaginary parts of ``m^2 / det U + I`` at ``x = (omega1/g, T1)``."""
    u = require_unitary(single_step_gate(delta_over_g, x), what="single-step gate")
    ub = to_magic(u)
    m = ub.T @ ub
    r = m @ m / np.linalg.det(u) + np.eye(4)
    return np.concatenate([r.real.ravel(), r.imag.ravel()])


def solve_single_step(
    delta_over_g: float,
    start: tuple[float, float] = SINGLE_STEP_START,
    doubling: tuple[float, float] | None = _ROOT_DOUBLING,
) -> tuple[np.ndarray, int, bool]:
    """Gauss-Newton root of the single-step residual, one point per call.

    A step whose size over the previous step's lies inside ``doubling`` is
    also tried doubled, and the doubled point is kept if its ``||R||`` is
    smaller; ``doubling=None`` gives plain Gauss-Newton.
    """
    x = np.array(start)
    r = single_step_residual(delta_over_g, x)
    previous = math.inf
    iterations = 0
    while np.linalg.norm(r) > _ROOT_TOL:
        if iterations == _ROOT_MAX_ITERATIONS:
            return x, iterations, False
        jac = np.empty((r.size, 2))
        for k in range(2):
            xk = x.copy()
            xk[k] += _ROOT_STEP
            jac[:, k] = (single_step_residual(delta_over_g, xk) - r) / _ROOT_STEP
        step = np.linalg.lstsq(jac, r, rcond=None)[0]
        size = np.linalg.norm(step)
        doubled = x - 2.0 * step
        x = x - step
        r = single_step_residual(delta_over_g, x)
        if doubling is not None and doubling[0] < size / previous < doubling[1]:
            r_doubled = single_step_residual(delta_over_g, doubled)
            if np.linalg.norm(r_doubled) < np.linalg.norm(r):
                x, r = doubled, r_doubled
        previous = size
        iterations += 1
    return x, iterations, True


#: Near the fold, at delta = g - eps, the two roots lie about 1.27 sqrt(eps)
#: apart in T1, on either side of the fold's T1 = 1.2753711 (omega1 = 3.7781357).
FOLD_GUESS = (3.7781357, 1.2753711)
FOLD_EPS = 1e-10


def fold_point(sign: float = 1.0, eps: float = FOLD_EPS) -> np.ndarray:
    """The fold ``(omega1/g, T1)`` at delta = sign * g, T1 in units of pi/2g.

    Plain Gauss-Newton at delta = sign * (1 - eps), started 3 * 1.27 * sqrt(eps)
    below and above ``FOLD_GUESS`` in T1, converges to the lower and the upper
    root, which are simple there; the fold is their midpoint, to O(eps).
    """
    delta = sign * (1.0 - eps)
    offset = 3.0 * 1.27 * math.sqrt(eps)
    roots = []
    for side in (-1.0, 1.0):
        start = (FOLD_GUESS[0], FOLD_GUESS[1] + side * offset)
        x, _, converged = solve_single_step(delta, start, doubling=None)
        if not converged:
            raise RuntimeError(f"fold oracle: no root from {start} at delta/g = {delta!r}")
        roots.append(x)
    lower, upper = roots
    if not upper[1] > lower[1]:
        raise RuntimeError(f"fold oracle: both starts reached one root at delta/g = {delta!r}")
    return (lower + upper) / 2.0


def _central_model(delta_over_g: float, x: np.ndarray, fx: float, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of d^2 at ``x`` from central differences with step ``h``."""
    f = np.empty((3, 3))  # f[i, j] = d^2 at x + h * (i - 1, j - 1)
    for i in range(3):
        for j in range(3):
            f[i, j] = fx if i == j == 1 else single_step_d2(delta_over_g, x + h * np.array([i - 1.0, j - 1.0]))
    grad = np.array([f[2, 1] - f[0, 1], f[1, 2] - f[1, 0]]) / (2.0 * h)
    cross = (f[2, 2] - f[2, 0] - f[0, 2] + f[0, 0]) / 4.0
    hess = np.array([
        [f[2, 1] - 2.0 * fx + f[0, 1], cross],
        [cross, f[1, 2] - 2.0 * fx + f[1, 0]],
    ]) / (h * h)
    return grad, hess


def newton_single_step(delta_over_g: float) -> tuple[np.ndarray, int, bool]:
    """Damped Newton on d^2 from ``SINGLE_STEP_START``, one point per call."""
    lo, hi = np.array(SINGLE_STEP_BOUNDS).T
    x = np.array(SINGLE_STEP_START)
    fx = single_step_d2(delta_over_g, x)
    for iterations in range(_NEWTON_MAX_ITERATIONS):
        grad, hess = _central_model(delta_over_g, x, fx, _NEWTON_STEP)
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


#: Richardson reference minimum: the smaller central-difference step (the
#: larger is twice it); Newton stops after a step no larger than
#: _RICHARDSON_TOL in every component, above the ~6e-12 its rounding noise
#: leaves at 3g; iteration cap.
RICHARDSON_STEP = 1e-3
_RICHARDSON_TOL = 1e-10
_RICHARDSON_MAX_ITERATIONS = 10


def richardson_minimum(delta_over_g: float, start: np.ndarray, h: float = RICHARDSON_STEP) -> np.ndarray:
    """A local minimum of d^2 near ``start``, free of the package's h^2 bias.

    Plain Newton steps on the gradient and Hessian Richardson-extrapolated
    from central differences at steps 2h and h, ``(4 D(h) - D(2h)) / 3``,
    which are O(h^4) accurate; the package's model, one central difference
    at ``_NEWTON_STEP``, is O(h^2).  ``start`` must lie in the basin where
    the Hessian is positive definite, as a calibrated point does.  Raises
    once ``_RICHARDSON_MAX_ITERATIONS`` steps do not shrink below
    ``_RICHARDSON_TOL``.
    """
    x = np.array(start, dtype=float)
    for _ in range(_RICHARDSON_MAX_ITERATIONS):
        fx = single_step_d2(delta_over_g, x)
        (g1, h1), (g2, h2) = (_central_model(delta_over_g, x, fx, s) for s in (h, 2.0 * h))
        step = -np.linalg.solve((4.0 * h1 - h2) / 3.0, (4.0 * g1 - g2) / 3.0)
        x = x + step
        if np.max(np.abs(step)) <= _RICHARDSON_TOL:
            return x
    raise RuntimeError(f"Richardson reference: no convergence from {start} at delta/g = {delta_over_g!r}")
