"""Reference searches for the single-step calibration.

``minimize_single_step`` is the three-pass bounded Nelder-Mead on d^2 that
``optimize.calibrate_single_step`` used beyond ``|delta| = g`` before Newton
steps on d^2 replaced it.  It is kept as a test oracle: the in-bound root
solve must reach at least the d^2 it reaches, and beyond the bound the Newton
minimum must reach it too, on the same branch.  Its objective,
``single_step_d2``, is built from public calls.

``numpy_solve_single_step`` and ``numpy_minimize_single_step`` are the one
numpy reference of each package solver: ``optimize._solve_single_step``
(the in-bound Gauss-Newton root solve) and ``optimize._minimize_single_step``
(damped Newton on d^2 beyond the bound), as generators with the same
protocol, written with numpy elementwise arithmetic where the package uses
Python floats.  They take the steps and the Hessian's spectrum from the
package's closed forms (``_least_squares_step``, ``_newton_step`` and
``_spectrum``), which ``test_solver_steps.py`` holds to ``numpy.linalg``,
and read ``optimize``'s constants when they run, so that a patched cap
holds for both.  ``test_solver_steps.py`` drives them with drawn replies.
``solve_single_step`` and ``newton_single_step`` drive them with one
evaluation per point, through ``single_step_residual`` and
``single_step_d2``; the stacked calibration must return the same point, bit
for bit, the same iteration count and the same flag.  The per-point gate,
``single_step_gate``, goes through ``single_step_u``, and the residual is
formed here, apart from ``equivclass.cnot_residual``.

``fold_point`` locates the single-step fold at delta = +-g, where the two
exact-CNOT branches of (omega1, T1) merge, without solving at the fold
itself: just below it, plain Gauss-Newton finds the lower and the upper root
from starts on either side, and the fold is their midpoint.

``richardson_minimum`` is a reference for where the Newton minimum truly lies.
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

import cnotsteer.optimize as optimize
from cnotsteer.equivclass import cnot_distance, makhlin_invariants, to_magic
from cnotsteer.optimize import SINGLE_STEP_BOUNDS, SINGLE_STEP_START
from cnotsteer.qmat import require_unitary
from cnotsteer.sequences import SystemParams, single_step_u
from nelder_mead import NMOptions, nelder_mead

_SEARCH = NMOptions(bounds=SINGLE_STEP_BOUNDS)

#: Offsets of the points at which each Gauss-Newton step evaluates the
#: residual: x itself, then x + h e0 and x + h e1.
ROOT_STENCIL = np.array([[0.0, 0.0], [optimize._ROOT_STEP, 0.0], [0.0, optimize._ROOT_STEP]])

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


def numpy_solve_single_step(start=SINGLE_STEP_START, doubling=True):
    """``optimize._solve_single_step`` with numpy elementwise arithmetic, from ``start``.

    With ``doubling=False`` no step is tried doubled: plain Gauss-Newton.
    """
    low, high = optimize._ROOT_DOUBLING
    trials = np.array([start])
    previous = math.inf
    iterations = 0
    while True:
        replies = np.reshape((yield trials[:, None] + ROOT_STENCIL), (len(trials), 3, -1))
        norms = [np.linalg.norm(reply[0]) for reply in replies]
        best = int(np.argmin(norms))
        x, (r, *shifted) = trials[best], replies[best]
        converged = not norms[best] > optimize._ROOT_TOL
        if converged or iterations == optimize._ROOT_MAX_ITERATIONS:
            return x, iterations, converged
        jac = [(r_k - r) / optimize._ROOT_STEP for r_k in shifted]
        step = np.array(optimize._least_squares_step(np.stack([r, *jac])))
        size = np.sqrt(np.sum(step * step))
        doubled = doubling and low < size / previous < high
        trials = np.array([x - step, x - 2.0 * step] if doubled else [x - step])
        previous = size
        iterations += 1


def _central_model(f: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of d^2 from central differences, ``f[i, j]`` at ``x + h * (i - 1, j - 1)``."""
    fx = f[1, 1]
    grad = np.array([f[2, 1] - f[0, 1], f[1, 2] - f[1, 0]]) / (2.0 * h)
    cross = (f[2, 2] - f[2, 0] - f[0, 2] + f[0, 0]) / 4.0
    hess = np.array([
        [f[2, 1] - 2.0 * fx + f[0, 1], cross],
        [cross, f[1, 2] - 2.0 * fx + f[1, 0]],
    ]) / (h * h)
    return grad, hess


def numpy_minimize_single_step():
    """``optimize._minimize_single_step`` with numpy elementwise arithmetic."""
    h = optimize._NEWTON_STEP
    lo, hi = np.array(SINGLE_STEP_BOUNDS).T
    stencil = h * optimize._NEWTON_STENCIL
    x = np.array(SINGLE_STEP_START)
    f = np.reshape((yield x + stencil), (3, 3))
    for iterations in range(optimize._NEWTON_MAX_ITERATIONS):
        grad, hess = _central_model(f, h)
        (h00, cross), (_, h11) = hess.tolist()
        low, high = optimize._spectrum(h00, cross, h11)
        if low <= 0.0:
            hess += (optimize._HESSIAN_FLOOR * max(1.0, abs(high)) - low) * np.eye(2)
            (h00, cross), (_, h11) = hess.tolist()
        step = np.array(optimize._newton_step(h00, cross, h11, *grad.tolist()))
        while np.max(np.abs(step)) > optimize._NEWTON_TOL:
            trial = x + step
            if np.all(trial >= lo) and np.all(trial <= hi):
                f_trial = np.reshape((yield trial + stencil), (3, 3))
                if f_trial[1, 1] < f[1, 1]:
                    break
            step = step / 2.0
        else:
            return x, iterations, True
        x, f = trial, f_trial
    return x, optimize._NEWTON_MAX_ITERATIONS, False


def _per_point(solver, evaluate):
    """Run a reference solver to its result, evaluating one point per call."""
    reply = None
    while True:
        try:
            request = solver.send(reply)
        except StopIteration as done:
            return done.value
        reply = np.array([evaluate(x) for x in request.reshape(-1, 2)])


def solve_single_step(
    delta_over_g: float, start: tuple[float, float] = SINGLE_STEP_START, doubling: bool = True
) -> tuple[np.ndarray, int, bool]:
    """Gauss-Newton root of the single-step residual, one ``single_step_residual`` per point."""
    residual = functools.partial(single_step_residual, delta_over_g)
    return _per_point(numpy_solve_single_step(start, doubling), residual)


def newton_single_step(delta_over_g: float) -> tuple[np.ndarray, int, bool]:
    """Damped Newton on d^2 from ``SINGLE_STEP_START``, one ``single_step_d2`` per point."""
    return _per_point(numpy_minimize_single_step(), functools.partial(single_step_d2, delta_over_g))


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
        x, _, converged = solve_single_step(delta, start, doubling=False)
        if not converged:
            raise RuntimeError(f"fold oracle: no root from {start} at delta/g = {delta!r}")
        roots.append(x)
    lower, upper = roots
    if not upper[1] > lower[1]:
        raise RuntimeError(f"fold oracle: both starts reached one root at delta/g = {delta!r}")
    return (lower + upper) / 2.0


def _d2_stencil(delta_over_g: float, x: np.ndarray, h: float) -> np.ndarray:
    """d^2 at ``x + h * (i - 1, j - 1)``, as ``f[i, j]``."""
    return np.reshape([single_step_d2(delta_over_g, p) for p in x + h * optimize._NEWTON_STENCIL], (3, 3))


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
        (g1, h1), (g2, h2) = (_central_model(_d2_stencil(delta_over_g, x, s), s) for s in (h, 2.0 * h))
        step = -np.linalg.solve((4.0 * h1 - h2) / 3.0, (4.0 * g1 - g2) / 3.0)
        x = x + step
        if np.max(np.abs(step)) <= _RICHARDSON_TOL:
            return x
    raise RuntimeError(f"Richardson reference: no convergence from {start} at delta/g = {delta_over_g!r}")
