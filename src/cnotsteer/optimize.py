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
stacked evaluation at x, x + h e0 and x + h e1.  At the fold delta = g the
root is double and Gauss-Newton only halves its error each step; once a step
is about half the one before, the next request also holds the stencil at the
doubled step, and the solver keeps whichever point has the smaller ||R||
(Griewank, SIAM Review 27, 1985), so the fold takes 7 steps, not 20.  Beyond
the bound the calibration minimizes ``d^2 = |G1|^2 + |G2 - 1|^2`` instead, for
the closest class on the resonant branch, by damped Newton steps on a
central-difference model: the model is read off one stacked evaluation of
the 3 x 3 stencil around x, a Hessian that is not positive definite is
shifted, and each step is halved until it stays in the search box and
lowers d^2.  The model's central differences place the minimum only to
O(h^2), so the search stops once a step, taken or halved, is no larger than
h^2 in every component: a finer step cannot bring the point closer to the
true minimum.  Each trial is evaluated with its whole stencil, so an
accepted trial's evaluation is already the model of the next step.  Both
methods start from the resonant solution, which keeps them on the lowest
branch; only the minimisation checks the box.

``calibrate_single_step`` also takes a sequence of detunings, as the tables
do.  Each method's solvers are generators that yield the points they need
and take back plain numbers (the residuals R or the d^2 of a stencil);
``_lockstep`` runs all rows of one method together, evaluating every pending
request of a round, whatever its size, in one stacked ``single_step_gates``
call.  One last stacked call, a one-row stack for one detuning, gives
every row its invariants and d^2.  The kernels give each stack member the
bits it gets alone, so each row returns the bits it returns when calibrated
alone, with the same iteration count and flag.

The solvers do their step arithmetic on Python floats, taken off each reply
with ``.tolist()`` or ``r.dot(r)``: the residual norms and step sizes, the
choice of trial, the nine stencil cells, the gradient and Hessian entries,
the steps themselves, and the stopping and box tests.  Both steps have two
unknowns and are taken in closed form, with no LAPACK call: the
Gauss-Newton step from the 2 x 2 Gram of the Jacobian's columns, which one
matrix product of the reply rows gives (``_least_squares_step``), and the
Newton step from the explicit inverse of the 2 x 2 Hessian
(``_newton_step``).  ``eigvalsh`` runs only for a Hessian that is not
plainly positive definite (``_plainly_positive_definite``), to decide and
size its shift.  Every Hessian on a 0.01g grid up to 2g is, and one or
two are not at 2.5, 3.0, 5.0, 7.4 and 8.0g.  So numpy does only the
stacked kernels and that product on every row of ``table1`` and
``table2``.  A Python float operation rounds as numpy's elementwise float64
operation does (IEEE-754 round to nearest, nothing fused),
``math.sqrt(r.dot(r))`` is what ``np.linalg.norm`` computes for a 1-D real
array, and on finite values the comparisons decide as ``np.argmin`` and
``np.max`` do; the kernels' contracts keep NaN out.  So every request keeps
the bits of the same steps written in numpy, at less cost per row.

The two-step sequence needs no calibration: ``sequences.two_step_time`` is
its closed-form gate time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Generator, Sequence

import numpy as np

from .equivclass import cnot_distance, cnot_residual, makhlin_invariants
from .sequences import SystemParams, single_step_gates

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

#: Damped Newton on d^2 beyond the bound: central-difference step h (the
#: bias of the minimum it finds goes as h^2: ~1.5e-8 at 1.05-2g, 2.7e-7 at
#: 3g); stop once every step component is at most _NEWTON_TOL = h^2, the
#: bias scale, as finer steps only halve toward a point the model misplaces;
#: floor of the shifted Hessian spectrum, relative to its larger eigenvalue;
#: iteration cap (hitting it clears the converged flag).
_NEWTON_STEP = 1e-4
_NEWTON_TOL = _NEWTON_STEP ** 2
_HESSIAN_FLOOR = 1e-3
_NEWTON_MAX_ITERATIONS = 60
#: Offsets, in units of _NEWTON_STEP, of the points around x at which the
#: Newton model evaluates d^2: the 3 x 3 stencil (i - 1, j - 1) in row order,
#: whose centre (flat index 4) is x + 0.0 == x itself.
_NEWTON_STENCIL = np.array([(i - 1.0, j - 1.0) for i in range(3) for j in range(3)])

#: Gauss-Newton controls of the root solve: stop once ||R||_F is at rounding
#: level; forward-difference step; iteration cap (hitting it clears the
#: converged flag).  Near the fold at delta = g the Jacobian loses rank and
#: convergence turns linear, each step about half the one before; a step whose
#: size over the previous step's lies inside _ROOT_DOUBLING is also tried
#: doubled.  With it the fold takes 7 steps (20 without); the most any
#: detuning in the tests takes is 11, at (1 - 1e-6) g.
_ROOT_TOL = 1e-12
_ROOT_STEP = 1e-7
_ROOT_MAX_ITERATIONS = 50
_ROOT_DOUBLING = (0.4, 0.6)
#: Jacobian columns whose Gram determinant is at most _PARALLEL times the
#: product of their squared norms are parallel to rounding (sin^2 of their
#: angle at most 1e-12), or one of them is zero: the Gauss-Newton step is
#: then lstsq's minimum-norm one.
_PARALLEL = 1e-12
#: A symmetric 2 x 2 Hessian with h00 > 0 and a determinant above
#: _DEFINITE_MARGIN times its squared trace is positive definite by a margin
#: no rounding of its eigenvalues can cross, so the minimiser takes it
#: unshifted without calling eigvalsh.
_DEFINITE_MARGIN = 1e-12


@dataclass(frozen=True)
class CalibrationResult:
    """Calibrated gate parameters and the achieved class data.

    ``t_units`` is the single-step gate time T1 in units of pi/2g.  ``g1``
    (complex), ``g2`` and ``distance`` are the Makhlin invariants and d^2 of
    the gate at the returned point, as Python numbers.  ``method`` names how
    the parameters were found: ``"root solve"`` or ``"d^2 minimisation"``.
    """

    delta_over_g: float
    t_units: float
    omega1_over_g: float
    g1: complex
    g2: float
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


def _distances(delta_over_g: float | np.ndarray, x: np.ndarray) -> np.ndarray:
    """d^2 of the single-step gate at each point of a stack ``x`` of shape ``(n, 2)``."""
    return cnot_distance(*makhlin_invariants(_gates(delta_over_g, x)))


def _least_squares_step(system: np.ndarray) -> tuple[float, float]:
    """Least-squares solution s of ``J s = R``, as Python floats.

    ``system`` has shape ``(3, n)``: R, then the two columns of the n x 2
    Jacobian J.  One product gives the Gram ``J^T J`` and ``J^T R``, and
    Cramer's rule solves the 2 x 2 normal equations.  That form is invariant
    under scaling either column, so it keeps its accuracy where J is
    ill-conditioned through one column shrinking, as at the fold; its error
    grows as 1/sin^2 of the columns' angle, and the root solve's columns lie
    about 45 degrees apart or more.  Where the columns are parallel to rounding or
    one is zero, s is the minimum-norm solution ``J^T R / ||J||_F^2`` (zero
    for J = 0), as ``lstsq(rcond=None)`` gives.
    """
    (p, a, b), (q, _, c) = (system[1:] @ system.T).tolist()
    det = a * c - b * b
    if det > _PARALLEL * a * c:
        return (c * p - b * q) / det, (a * q - b * p) / det
    norm = a + c
    return (p / norm, q / norm) if norm > 0.0 else (0.0, 0.0)


def _plainly_positive_definite(h00: float, cross: float, h11: float) -> bool:
    """Whether ``[[h00, cross], [cross, h11]]`` is positive definite beyond rounding.

    True only where its determinant exceeds ``_DEFINITE_MARGIN`` times its
    squared trace, which leaves its smaller eigenvalue at least about 1e-12
    times its trace: far above the rounding of ``eigvalsh``, whose smaller
    eigenvalue is then positive too.  False says nothing; ``eigvalsh``
    decides.  Products, not powers: a Python float power raises on
    overflow.
    """
    trace = h00 + h11
    return h00 > 0.0 and h00 * h11 - cross * cross > _DEFINITE_MARGIN * trace * trace


def _newton_step(h00: float, cross: float, h11: float, g0: float, g1: float) -> tuple[float, float]:
    """``-H^-1 g`` for ``H = [[h00, cross], [cross, h11]]``, by its explicit inverse.

    Cramer's rule, which is forward stable for 2 x 2 systems (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002, section 1.10.1).
    """
    det = h00 * h11 - cross * cross
    return (cross * g1 - h11 * g0) / det, (cross * g0 - h00 * g1) / det


#: A solver run by ``_lockstep``: it yields points of shape ``(..., 2)``, is
#: sent their residuals R or d^2, and returns the point it found, its
#: iteration count and its converged flag.
_Solver = Generator[np.ndarray, object, tuple[np.ndarray, int, bool]]


def _solve_single_step() -> _Solver:
    """Gauss-Newton root of the single-step residual from ``SINGLE_STEP_START``.

    A generator run by ``_lockstep``: each step yields x and its two
    forward-difference neighbours as one stencil, takes back their
    residuals, and solves the 32 x 2 linearization in the least-squares
    sense for the step Delta.  The next request is the stencil at x - Delta,
    unless Delta is about half the previous step (its size ratio inside
    ``_ROOT_DOUBLING``), the linear regime of a double root: then it holds
    the stencils at x - Delta and at x - 2 Delta, and the solver goes on from
    whichever centre has the smaller ``||R||_F``, x - Delta on a tie.  Kept
    without that comparison, a doubled step can land between the two roots
    that lie close together just below the fold.  Returns the root (the centre of the last
    stencil kept), the iteration count and whether ``||R||_F <= _ROOT_TOL``
    was reached.

    The step arithmetic runs on Python floats, and the step is
    ``_least_squares_step``'s closed form; ``||R||_F`` is
    ``math.sqrt(r.dot(r))``, the bits of ``np.linalg.norm``.
    """
    low, high = _ROOT_DOUBLING
    trials = [SINGLE_STEP_START]
    previous = math.inf
    iterations = 0
    while True:
        request = np.array([
            ((x0 + 0.0, x1 + 0.0), (x0 + _ROOT_STEP, x1 + 0.0), (x0 + 0.0, x1 + _ROOT_STEP))
            for x0, x1 in trials
        ])
        replies = (yield request).reshape(len(trials), 3, -1)
        norms = [math.sqrt(reply[0].dot(reply[0])) for reply in replies]
        best = norms.index(min(norms))
        (x0, x1), reply = trials[best], replies[best]
        converged = not norms[best] > _ROOT_TOL
        if converged or iterations == _ROOT_MAX_ITERATIONS:
            return np.array((x0, x1)), iterations, converged
        system = reply - reply[0]  # the rows R(x + h e_k) - R become J's columns
        system[0] = reply[0]
        system[1:] /= _ROOT_STEP
        s0, s1 = _least_squares_step(system)
        size = math.sqrt(s0 * s0 + s1 * s1)
        trials = [(x0 - s0, x1 - s1)]
        # After a zero step numpy's ratio is inf or nan, which never doubles;
        # a Python float division by zero would raise.
        if previous > 0.0 and low < size / previous < high:
            trials.append((x0 - 2.0 * s0, x1 - 2.0 * s1))
        previous = size
        iterations += 1


def _minimize_single_step() -> _Solver:
    """Closest class: damped Newton on d^2 from ``SINGLE_STEP_START``.

    A generator run by ``_lockstep``: the start and each step-halving trial
    inside the search box yield the 3 x 3 stencil around the point (``x +
    stencil``) as one request and take back its 9 d^2; a trial is judged by
    the centre.  An accepted trial's stencil is the next Newton step's
    model, so a step makes no request of its own.  The step reads the
    gradient and Hessian off the central differences of the stencil.  A
    Hessian that is not positive definite has its spectrum shifted so that
    its smallest eigenvalue becomes ``_HESSIAN_FLOOR * max(1, |larger
    eigenvalue|)``.  The step is halved until the trial lies in the search
    box and lowers d^2, and the loop ends converged once the step, taken or
    halved, is no larger than ``_NEWTON_TOL`` in every component.  Just
    beyond g, where d^2 is flat to rounding, that monotone guard is what
    ends it.
    Returns the point, the number of Newton steps and whether it converged.

    The 9 d^2 of a reply are Python floats, at flat index ``3 i + j``, and so
    are the gradient, Hessian entries and step.  The step is
    ``_newton_step``'s explicit inverse, and ``eigvalsh`` runs only where
    ``_plainly_positive_definite`` fails; where it holds, ``eigvalsh``'s
    smaller eigenvalue would be positive too, so no shift is skipped.  The
    shift adds to the diagonal alone, which is what adding ``shift *
    eye(2)`` does: d^2 >= +0.0 and exact cancellation rounds to +0.0, so the
    cross term is never -0.0.
    """
    h = _NEWTON_STEP
    (lo0, hi0), (lo1, hi1) = SINGLE_STEP_BOUNDS
    stencil = h * _NEWTON_STENCIL
    x0, x1 = SINGLE_STEP_START
    f = (yield np.array((x0, x1)) + stencil).tolist()  # d^2 at x + h * (i - 1, j - 1)
    for iterations in range(_NEWTON_MAX_ITERATIONS):
        fx = f[4]
        g0, g1 = (f[7] - f[1]) / (2.0 * h), (f[5] - f[3]) / (2.0 * h)
        cross = (f[8] - f[6] - f[2] + f[0]) / 4.0 / (h * h)
        h00 = (f[7] - 2.0 * fx + f[1]) / (h * h)
        h11 = (f[5] - 2.0 * fx + f[3]) / (h * h)
        if not _plainly_positive_definite(h00, cross, h11):
            low, high = np.linalg.eigvalsh([[h00, cross], [cross, h11]]).tolist()
            if low <= 0.0:
                shift = _HESSIAN_FLOOR * max(1.0, abs(high)) - low
                h00, h11 = h00 + shift, h11 + shift
        s0, s1 = _newton_step(h00, cross, h11, g0, g1)
        while max(abs(s0), abs(s1)) > _NEWTON_TOL:
            t0, t1 = x0 + s0, x1 + s1
            if lo0 <= t0 <= hi0 and lo1 <= t1 <= hi1:
                f_trial = (yield np.array((t0, t1)) + stencil).tolist()
                if f_trial[4] < fx:
                    break
            s0, s1 = s0 / 2.0, s1 / 2.0
        else:
            return np.array((x0, x1)), iterations, True
        x0, x1, f = t0, t1, f_trial
    return np.array((x0, x1)), _NEWTON_MAX_ITERATIONS, False


def _lockstep(steps: list[_Solver], evaluate: Callable, deltas: list[float]) -> list[tuple]:
    """Run one solver generator per detuning together; return their results in order.

    A request is a stack of points of shape ``(..., 2)``, of any size.  Each
    round gathers the pending request of every unfinished solver, flattens
    each to rows of points, concatenates them with each row's detuning
    repeated over its points, and evaluates them in one ``evaluate(deltas,
    points)`` call; each solver is sent its own slice of the values.  A lone
    request is evaluated as it is, as a solver run alone evaluates it.  The
    kernels give each stack member the bits it gets alone, so every solver
    takes the same path and returns the same bits as it would alone.
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
            starts = list(itertools.accumulate(sizes, initial=0))
            replies = [values[a:b] for a, b in zip(starts, starts[1:])]
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
    solution.  The invariants and d^2 are those of the gate at the returned
    point, with the bits of the last evaluation the solver made there.

    One detuning gives one result; a sequence of detunings gives a list of
    results, one per detuning in order (an empty sequence gives ``[]``).
    The rows of each method run in lockstep: each solver round makes one
    stacked kernel call for all of them, and one last stacked call builds
    every row's gate for its invariants and d^2.  Each row gets the bits it
    gets alone.

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
    # Every row's gate at its point in one call, a one-row stack for one
    # detuning.  A stack member gets the bits it gets alone, and x + 0.0 == x,
    # so each row gets the bits of the last gate its solver evaluated there.
    points = np.array([x for x, *_ in found]).reshape(-1, 2)
    g1, g2 = makhlin_invariants(_gates(np.array(deltas), points))
    class_data = zip(g1.tolist(), g2.tolist(), cnot_distance(g1, g2).tolist())
    results = []
    for delta, (x, iterations, converged, method), (g1_k, g2_k, d2) in zip(deltas, found, class_data):
        p = SystemParams(delta=delta, omega1=float(x[0]))  # and a negative drive after the search
        results.append(CalibrationResult(
            delta_over_g=delta, t_units=float(x[1]), omega1_over_g=p.omega1,
            g1=g1_k, g2=g2_k, distance=d2,
            iterations=iterations, converged=converged, method=method,
        ))
    return results[0] if one else results
