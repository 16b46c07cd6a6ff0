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
minimizes ``d^2 = |G1|^2 + |G2 - 1|^2`` instead, for the closest class, by
damped Newton steps on a central-difference model: a Hessian that is not
positive definite is shifted, and each step is halved until it stays in the
search box and lowers d^2.  Both methods start from the resonant solution,
which keeps them on the lowest branch; only the minimisation checks the box.

``calibrate_single_step`` also takes a sequence of detunings, as the tables
do.  Each method's solvers are generators that yield the points they need,
and ``_lockstep`` runs all rows of one method together: each round it
evaluates every pending request in one stacked ``single_step_gates`` call
and one ``cnot_residual`` or ``makhlin_invariants`` call.  The kernels give
each stack member the bits it gets alone, so each row returns the bits it
returns when calibrated alone, with the same iteration count and flag.

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


def _invariants(delta_over_g: float | np.ndarray, x: np.ndarray) -> InvariantPair | list[InvariantPair]:
    """Invariants of the single-step gate at one point ``x``, or of each in a stack."""
    return makhlin_invariants(_gates(delta_over_g, x))


def _d2(delta_over_g: float, x: np.ndarray) -> float:
    """The objective beyond the bound: d^2 of the single-step gate at ``x``."""
    return cnot_distance(_invariants(delta_over_g, x))


#: A solver run by ``_lockstep``: it yields points of shape ``(..., 2)``, is
#: sent what ``evaluate`` gives for them, and returns the point it found,
#: the invariants of its gate, its iteration count and its converged flag.
_Solver = Generator[np.ndarray, object, tuple[np.ndarray, InvariantPair, int, bool]]


def _residuals(delta_over_g: float | np.ndarray, x: np.ndarray) -> tuple | list[tuple]:
    """Gates at one root-solve stencil ``x`` of shape ``(3, 2)`` and their residuals.

    A stack of stencils gives a list of ``(gates, R)`` pairs, one per stencil.
    """
    gates = _gates(delta_over_g, x)
    r = cnot_residual(gates)
    return (gates, r) if x.ndim == 2 else list(zip(gates, r))


def _solve_single_step() -> _Solver:
    """Gauss-Newton root of the single-step residual from ``SINGLE_STEP_START``.

    A generator run by ``_lockstep``: each step yields x and its two
    forward-difference neighbours as one stencil, takes back their gates and
    residuals, and solves the 32 x 2 linearization in the least-squares
    sense.  Returns the root, the invariants of its gate (member 0 of the
    last stencil), the iteration count and whether ``||R||_F <= _ROOT_TOL``
    was reached.
    """
    x = np.array(SINGLE_STEP_START)
    iterations = 0
    while True:
        gates, (r, *shifted) = yield x + _ROOT_STENCIL
        converged = not np.linalg.norm(r) > _ROOT_TOL
        if converged or iterations == _ROOT_MAX_ITERATIONS:
            return x, makhlin_invariants(gates[0]), iterations, converged
        jac = np.stack([(r_k - r) / _ROOT_STEP for r_k in shifted], axis=1)
        x = x - np.linalg.lstsq(jac, r, rcond=None)[0]
        iterations += 1


def _minimize_single_step() -> _Solver:
    """Closest class: damped Newton on d^2 from ``SINGLE_STEP_START``.

    A generator run by ``_lockstep``: each evaluation yields one point and
    takes back the invariants of its gate.  Each step reads the gradient and
    Hessian off the central differences of the 3 x 3 stencil around ``x``
    (8 new evaluations).  A Hessian that is not positive definite has its
    spectrum shifted so that its smallest eigenvalue becomes
    ``_HESSIAN_FLOOR * max(1, |larger eigenvalue|)``.  The step is halved
    until the trial lies in the search box and lowers d^2, and the loop ends
    converged once the step, taken or halved, is no larger than
    ``_NEWTON_TOL`` in every component.  Just beyond g, where d^2 is flat to
    rounding, that monotone guard is what ends it.
    Returns the point, the invariants of its gate, the number of Newton
    steps and whether it converged.
    """
    h = _NEWTON_STEP
    lo, hi = np.array(SINGLE_STEP_BOUNDS).T
    x = np.array(SINGLE_STEP_START)
    inv = yield x
    fx = cnot_distance(inv)
    for iterations in range(_NEWTON_MAX_ITERATIONS):
        f = np.empty((3, 3))  # f[i, j] = d^2 at x + h * (i - 1, j - 1)
        for i in range(3):
            for j in range(3):
                f[i, j] = fx if i == j == 1 else cnot_distance(
                    (yield x + h * np.array([i - 1.0, j - 1.0]))
                )
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
                inv_trial = yield trial
                f_trial = cnot_distance(inv_trial)
                if f_trial < fx:
                    break
            step = step / 2.0
        else:
            return x, inv, iterations, True
        x, fx, inv = trial, f_trial, inv_trial
    return x, inv, _NEWTON_MAX_ITERATIONS, False


def _lockstep(steps: list[_Solver], evaluate: Callable, deltas: list[float]) -> list[tuple]:
    """Run one solver generator per detuning together; return their results in order.

    Each round gathers the pending request of every unfinished solver and
    evaluates all of them in one stacked ``evaluate(deltas, points)`` call,
    then sends each solver its own member.  A lone request is evaluated
    without a stack axis, as a solver run alone evaluates it.  The kernels
    give each stack member the bits it gets alone, so every solver takes the
    same path and returns the same bits as it would alone.
    """
    results = [None] * len(steps)
    pending = {k: next(step) for k, step in enumerate(steps)}
    while pending:
        rows = list(pending)
        if len(rows) == 1:
            replies = [evaluate(deltas[rows[0]], pending[rows[0]])]
        else:
            x = np.stack([pending[k] for k in rows])
            # One detuning per row, broadcast over the points of its request.
            delta = np.array([deltas[k] for k in rows]).reshape((-1,) + (1,) * (x.ndim - 2))
            replies = evaluate(delta, x)
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
    Gauss-Newton steps.  Beyond the bound the result is the closest class,
    the minimum of d^2 in the search box reached by damped Newton steps, and
    ``iterations`` counts those steps.  Both start from the resonant
    solution.  The invariants are those of the last gate the solver built at
    the returned point.

    One detuning gives one result; a sequence of detunings gives a list of
    results, one per detuning in order (an empty sequence gives ``[]``).
    The rows of each method run in lockstep: each solver round makes one
    stacked kernel call for all of them, and each row gets the bits it gets
    alone.

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
    results = [None] * len(deltas)
    for method, solver, evaluate, rows in (
        ("root solve", _solve_single_step, _residuals,
         [k for k, d in enumerate(deltas) if abs(d) <= SINGLE_STEP_BOUND]),
        ("d^2 minimisation", _minimize_single_step, _invariants,
         [k for k, d in enumerate(deltas) if not abs(d) <= SINGLE_STEP_BOUND]),
    ):
        found = _lockstep([solver() for _ in rows], evaluate, [deltas[k] for k in rows])
        for k, (x, inv, iterations, converged) in zip(rows, found):
            p = SystemParams(delta=deltas[k], omega1=float(x[0]))  # and a negative drive after it
            results[k] = CalibrationResult(
                delta_over_g=deltas[k],
                t_units=float(x[1]),
                omega1_over_g=p.omega1,
                invariants=inv,
                distance=cnot_distance(inv),
                iterations=iterations,
                converged=converged,
                method=method,
            )
    return results[0] if one else results
