"""Calibration of the single-step sequence: find the gate parameters that reach
(or best approach) the CNOT class at a given detuning.

``calibrate_single_step`` picks its method from the detuning.  Both
methods search ``x = (omega1/g, T1)``, T1 in units of pi/2g, and take each
gate from ``sequences.single_step_gates``.  For ``|delta| <=
SINGLE_STEP_BOUND`` (that is, ``|delta| <= g``) an exact CNOT-class gate
exists, and Gauss-Newton from the resonant solution finds it in a few steps
as a root of ``equivclass.cnot_residual``, ``R = m^2 / det U + I``.  R also
vanishes on the SWAP class, which single-step gates, on the c3 = 0 face,
never reach.  Each step reads its 32 x 2 forward-difference Jacobian off one
stacked evaluation at x, x + h e0 and x + h e1.  Beyond the bound the driver
minimizes ``d^2 = |G1|^2 + |G2 - 1|^2`` instead, for the closest class on the
resonant branch, by damped Newton steps on a central-difference model: each
step reads it off one stacked evaluation of the 8 points around x, a Hessian
that is not positive definite is shifted, and each step is halved until it
stays in the search box and lowers d^2.  Both methods start from the
resonant solution, which keeps them on the lowest branch; only the
minimisation checks the box.

``calibrate_single_step`` also takes a sequence of detunings, as the tables
do.  Each method's solvers are generators that yield the points they need
and take back plain numbers (the residuals R of a stencil, the d^2 of a
stencil ring, or one d^2); ``_lockstep`` runs all rows of one method
together, evaluating every pending request of a round, whatever its size, in
one stacked ``single_step_gates`` call.  One last stacked call gives every
row its invariants.  The kernels give each stack member the bits it gets
alone, so each row returns the bits it returns when calibrated alone, with
the same iteration count and flag.

The two-step sequence needs no calibration: ``sequences.two_step_time`` is
its closed-form gate time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Generator, Sequence

import numpy as np

from .equivclass import InvariantPair, cnot_distance, cnot_residual, makhlin_invariants
from .model import SystemParams
from .sequences import single_step_gates

__all__ = [
    "CalibrationResult",
    "calibrate_single_step",
    "SINGLE_STEP_BOUND",
    "SINGLE_STEP_BOUNDS",
    "SINGLE_STEP_START",
]

#: Largest |delta|/g at which the single-step sequence reaches the CNOT class
#: exactly; up to it the calibration is a root solve, beyond it a d^2 search.
SINGLE_STEP_BOUND = 1.0

#: Search box for (omega1/g, T1) and the resonant-branch starting point.
SINGLE_STEP_BOUNDS = ((0.5, 8.0), (0.5, 2.5))
SINGLE_STEP_START = (math.sqrt(15.0), 1.0)

#: Damped Newton on d^2 beyond the bound: central-difference step (the bias
#: of the minimum it finds goes as its square: ~1e-8 at 1.1-2g, 5e-7 at 3g);
#: stop once every step component is below _NEWTON_TOL; floor of the shifted
#: Hessian spectrum, relative to its larger eigenvalue; iteration cap
#: (hitting it clears the converged flag).
_NEWTON_STEP = 1e-4
_NEWTON_TOL = 1e-10
_HESSIAN_FLOOR = 1e-3
_NEWTON_MAX_ITERATIONS = 60
#: Offsets, in units of _NEWTON_STEP, of the eight points around x at which
#: each Newton step evaluates d^2: the 3 x 3 stencil (i - 1, j - 1) in row
#: order, without its centre (flat index 4), which is x itself.
_NEWTON_RING = np.array([(i - 1.0, j - 1.0) for i in range(3) for j in range(3) if (i, j) != (1, 1)])

#: Gauss-Newton controls of the root solve: stop once ||R||_F is at rounding
#: level; forward-difference step; iteration cap (hitting it clears the
#: converged flag).  The fold at delta = g, where the Jacobian loses rank and
#: convergence turns linear, takes the most iterations, about 20.
_ROOT_TOL = 1e-12
_ROOT_STEP = 1e-7
_ROOT_MAX_ITERATIONS = 50
#: Offsets of the points at which each Gauss-Newton step evaluates the
#: residual: x itself, then x + h e0 and x + h e1.
_ROOT_STENCIL = np.array([[0.0, 0.0], [_ROOT_STEP, 0.0], [0.0, _ROOT_STEP]])


@dataclass(frozen=True)
class CalibrationResult:
    """Calibrated gate parameters and the achieved class data.

    ``t_units`` is the single-step gate time T1 in units of pi/2g.
    ``method`` names how the parameters were found: ``"root solve"`` or
    ``"d^2 minimisation"``.
    """

    delta_over_g: float
    t_units: float
    omega1_over_g: float
    invariants: InvariantPair
    distance: float
    iterations: int
    converged: bool
    method: str


def _gates(delta_over_g: float | np.ndarray, x: np.ndarray) -> np.ndarray:
    """Single-step gates at points ``x = (omega1/g, T1)`` of shape ``(..., 2)``, T1 in pi/2g."""
    return single_step_gates(delta_over_g, x[..., 0], x[..., 1] * math.pi / 2.0)


def _residuals(delta_over_g: float | np.ndarray, x: np.ndarray) -> np.ndarray:
    """Residuals R at root-solve stencils ``x`` of shape ``(..., 3, 2)``: ``(..., 3, 32)``."""
    return cnot_residual(_gates(delta_over_g, x))


def _distances(delta_over_g: float | np.ndarray, x: np.ndarray) -> float | list[float]:
    """d^2 of the single-step gate at one point ``x``, or of each in a stack."""
    inv = makhlin_invariants(_gates(delta_over_g, x))
    return cnot_distance(inv) if x.ndim == 1 else [cnot_distance(i) for i in inv]


#: A solver run by ``_lockstep``: it yields points of shape ``(..., 2)``, is
#: sent their residuals R or d^2, and returns the point it found, its
#: iteration count and its converged flag.
_Solver = Generator[np.ndarray, object, tuple[np.ndarray, int, bool]]


def _solve_single_step() -> _Solver:
    """Gauss-Newton root of the single-step residual from ``SINGLE_STEP_START``.

    A generator run by ``_lockstep``: each step yields x and its two
    forward-difference neighbours as one stencil, takes back their
    residuals, and solves the 32 x 2 linearization in the least-squares
    sense.  Returns the root (the first point of the last stencil), the
    iteration count and whether ``||R||_F <= _ROOT_TOL`` was reached.
    """
    x = np.array(SINGLE_STEP_START)
    iterations = 0
    while True:
        r, *shifted = yield x + _ROOT_STENCIL
        converged = not np.linalg.norm(r) > _ROOT_TOL
        if converged or iterations == _ROOT_MAX_ITERATIONS:
            return x, iterations, converged
        jac = np.stack([(r_k - r) / _ROOT_STEP for r_k in shifted], axis=1)
        x = x - np.linalg.lstsq(jac, r, rcond=None)[0]
        iterations += 1


def _minimize_single_step() -> _Solver:
    """Closest class: damped Newton on d^2 from ``SINGLE_STEP_START``.

    A generator run by ``_lockstep``: each Newton step yields the 8 points
    of the 3 x 3 stencil around ``x`` but its centre (``x + h *
    _NEWTON_RING``) as one request and takes back their d^2, and each
    step-halving trial yields one point and takes back one d^2.  The step
    reads the gradient and Hessian off the central differences of the
    stencil, whose centre is the d^2 already known at ``x``.  A Hessian
    that is not positive definite has its spectrum shifted so that its
    smallest eigenvalue becomes ``_HESSIAN_FLOOR * max(1, |larger
    eigenvalue|)``.  The step is halved until the trial lies in the search
    box and lowers d^2, and the loop ends converged once the step, taken or
    halved, is no larger than ``_NEWTON_TOL`` in every component.  Just
    beyond g, where d^2 is flat to rounding, that monotone guard is what
    ends it.
    Returns the point, the number of Newton steps and whether it converged.
    """
    h = _NEWTON_STEP
    lo, hi = np.array(SINGLE_STEP_BOUNDS).T
    x = np.array(SINGLE_STEP_START)
    fx = yield x
    for iterations in range(_NEWTON_MAX_ITERATIONS):
        ring = yield x + h * _NEWTON_RING
        f = np.insert(ring, 4, fx).reshape(3, 3)  # d^2 at x + h * (i - 1, j - 1)
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
                f_trial = yield trial
                if f_trial < fx:
                    break
            step = step / 2.0
        else:
            return x, iterations, True
        x, fx = trial, f_trial
    return x, _NEWTON_MAX_ITERATIONS, False


def _lockstep(steps: list[_Solver], evaluate: Callable, deltas: list[float]) -> list[tuple]:
    """Run one solver generator per detuning together; return their results in order.

    A request is one point of shape ``(2,)`` or several of shape ``(..., 2)``,
    of any size.  Each round gathers the pending request of every unfinished
    solver, flattens each to rows of points, concatenates them with each
    row's detuning repeated over its points, and evaluates them in one
    ``evaluate(deltas, points)`` call; each solver is sent its own slice of
    the values, one number for a one-point request.  A lone request is
    evaluated as it is, as a solver run alone evaluates it.  The kernels give
    each stack member the bits it gets alone, so every solver takes the same
    path and returns the same bits as it would alone.
    """
    results = [None] * len(steps)
    pending = {k: next(step) for k, step in enumerate(steps)}
    while pending:
        rows = list(pending)
        if len(rows) == 1:
            replies = [evaluate(deltas[rows[0]], pending[rows[0]])]
        else:
            points = [pending[k].reshape(-1, 2) for k in rows]
            sizes = [len(p) for p in points]
            # One detuning per row, repeated over the points of its request.
            values = evaluate(np.repeat([deltas[k] for k in rows], sizes), np.concatenate(points))
            starts = np.cumsum([0] + sizes)
            replies = [  # a one-point request takes back one number, as alone
                values[a] if pending[k].ndim == 1 else values[a:b]
                for k, a, b in zip(rows, starts, starts[1:])
            ]
        for k, reply in zip(rows, replies):
            try:
                pending[k] = steps[k].send(reply)
            except StopIteration as done:
                results[k] = done.value
                del pending[k]
    return results


def calibrate_single_step(
    delta_over_g: float | Sequence[float],
) -> CalibrationResult | list[CalibrationResult]:
    """Calibrate (omega1, t1) of the single-step sequence at the given detuning.

    For ``|delta| <= SINGLE_STEP_BOUND`` an exact CNOT-class gate exists, and
    it is found as the Gauss-Newton root of the magic-basis residual; the
    achieved distance is at rounding level and ``iterations`` counts
    Gauss-Newton steps.  Beyond the bound the result is the closest class on
    the resonant branch: the local minimum of d^2 that damped Newton steps
    reach from the resonant solution, which need not be the smallest d^2 in
    the search box (at 1.1g another basin, near omega1 = 6.13g, lies lower),
    and ``iterations`` counts those steps.  Both start from the resonant
    solution.  The invariants are those of the gate at the returned point,
    with the bits of the last evaluation the solver made there.

    One detuning gives one result; a sequence of detunings gives a list of
    results, one per detuning in order (an empty sequence gives ``[]``).
    The rows of each method run in lockstep: each solver round makes one
    stacked kernel call for all of them, and one last call builds every
    row's gate for its invariants.  Each row gets the bits it gets alone.

    The sign of the detuning is irrelevant to the class data and to the
    calibrated parameters.

    Raises:
        ContractViolationError: a detuning is not finite (checked for every
            detuning before any search), or a returned drive is negative.
    """
    one = np.ndim(delta_over_g) == 0
    deltas = [delta_over_g] if one else list(delta_over_g)
    for delta in deltas:
        SystemParams(delta=delta)  # rejects a non-finite detuning before the search
    found = [None] * len(deltas)
    for method, solver, evaluate, rows in (
        ("root solve", _solve_single_step, _residuals,
         [k for k, d in enumerate(deltas) if abs(d) <= SINGLE_STEP_BOUND]),
        ("d^2 minimisation", _minimize_single_step, _distances,
         [k for k, d in enumerate(deltas) if not abs(d) <= SINGLE_STEP_BOUND]),
    ):
        solved = _lockstep([solver() for _ in rows], evaluate, [deltas[k] for k in rows])
        for k, (x, iterations, converged) in zip(rows, solved):
            found[k] = (x, iterations, converged, method)
    # Every row's gate at its point in one call.  A stack member gets the bits
    # it gets alone, and x + 0.0 == x, so each row gets the bits of the last
    # gate its solver evaluated there.
    points = np.array([x for x, *_ in found]).reshape(-1, 2)
    if one:
        invariants = [makhlin_invariants(_gates(deltas[0], points[0]))]
    else:
        invariants = makhlin_invariants(_gates(np.array(deltas), points))
    results = []
    for delta, (x, iterations, converged, method), inv in zip(deltas, found, invariants):
        p = SystemParams(delta=delta, omega1=float(x[0]))  # and a negative drive after the search
        results.append(CalibrationResult(
            delta_over_g=delta, t_units=float(x[1]), omega1_over_g=p.omega1,
            invariants=inv, distance=cnot_distance(inv),
            iterations=iterations, converged=converged, method=method,
        ))
    return results[0] if one else results
