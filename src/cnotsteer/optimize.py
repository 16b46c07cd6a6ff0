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
do.  Each method's solvers are generators that yield the centres they need,
tuples of Python floats, one per trial (two for a doubled root step), and
take back one row of Python floats per centre.  Each round is one array
program: ``_lockstep`` gathers the pending centres of all rows of one
method, and its round function (``_root_round`` or ``_distance_round``)
builds their stencils in one broadcast, evaluates them in one stacked
``single_step_gates`` call and reduces the reply in one pass, to the
``||R||^2``, ``J^T R`` and ``J^T J`` or the nine d^2 of each stencil.  One
last stacked call, a one-row stack for one detuning, gives every row its
invariants and d^2.  The kernels give each stack member the bits it gets
alone, and so does the reduction (``np.vecdot`` gives each row the bits of
``ndarray.dot``, a stacked product each slice those of its 2-D product), so
each row returns the bits, iteration count and flag it gets alone.

The solvers call numpy only to build the point they return, and step on
Python floats: the residual norms and step sizes, the choice of trial, the
gradient and Hessian entries, the Hessian's eigenvalues, the steps
themselves, and the stopping and box tests.  Each step has two unknowns and
is taken in closed form, with no LAPACK call: the Gauss-Newton step from the
2 x 2 Gram of the Jacobian's columns (``_least_squares_step``), and the
Newton step from the explicit inverse of the 2 x 2 Hessian
(``_newton_step``).  The Hessian's eigenvalues, which decide and size its
shift, are the closed form of a symmetric 2 x 2 matrix (``_spectrum``).  So
numpy does only the rounds, and ``optimize`` makes no ``numpy.linalg``
call.  A Python float operation rounds as numpy's elementwise float64
operation does (IEEE-754 round to nearest, nothing fused),
``math.sqrt(r.dot(r))`` is what ``np.linalg.norm`` computes for a 1-D real
array, and on finite values the comparisons decide as ``np.argmin`` and
``np.max`` do; the kernels' contracts keep NaN out.  So every request keeps
the bits of the same steps written in numpy, at less cost per row.

The two-step sequence needs no calibration: ``sequences.two_step_time`` is
its closed-form gate time.
"""

from __future__ import annotations

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
#: Offsets of the points around x at which the Newton model evaluates d^2:
#: the 3 x 3 stencil h (i - 1, j - 1) in row order, whose centre (flat index
#: 4) is x + 0.0 == x itself.
_NEWTON_STENCIL = _NEWTON_STEP * np.array([(i - 1.0, j - 1.0) for i in range(3) for j in range(3)])

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
#: Offsets of the points at which each Gauss-Newton step evaluates the
#: residual: x itself (x + 0.0 == x), then x + h e0 and x + h e1.
_ROOT_STENCIL = np.array([(0.0, 0.0), (_ROOT_STEP, 0.0), (0.0, _ROOT_STEP)])
#: Jacobian columns whose Gram determinant is at most _PARALLEL times the
#: product of their squared norms are parallel to rounding (sin^2 of their
#: angle at most 1e-12), or one of them is zero: the Gauss-Newton step is
#: then lstsq's minimum-norm one.
_PARALLEL = 1e-12


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
    """Residuals R at points ``x`` of shape ``(..., 2)``: ``(..., 32)``."""
    return cnot_residual(_gates(delta_over_g, x))


def _distances(delta_over_g: float | np.ndarray, x: np.ndarray) -> np.ndarray:
    """d^2 of the single-step gate at each point of ``x``, of shape ``(..., 2)``."""
    return cnot_distance(*makhlin_invariants(_gates(delta_over_g, x)))


def _stencils(deltas: float | list[float], centres: list, stencil: np.ndarray) -> tuple:
    """Detunings and points of all centres' stencils, one flat stack; ``deltas``: per centre, or one for all."""
    points = (np.array(centres)[:, None, :] + stencil).reshape(-1, 2)
    return (np.repeat(deltas, len(stencil)) if isinstance(deltas, list) else deltas), points


def _root_round(deltas: float | list[float], centres: list) -> list[list[float]]:
    """One Gauss-Newton round: each centre's row ``[||R||^2, J^T R[0], (J^T J)[0], J^T R[1], (J^T J)[1]]``.

    Seven Python floats, with R at the centre and J's columns ``(R(x + h e_k)
    - R) / h``: one ``np.vecdot`` of the R rows and one stacked product
    ``J^T [R, J]`` give them for all centres.
    """
    reply = _residuals(*_stencils(deltas, centres, _ROOT_STENCIL)).reshape(-1, 3, 32)
    system = reply - reply[:, :1]  # the rows R(x + h e_k) - R become J's columns
    system[:, 0] = reply[:, 0]
    system[:, 1:] /= _ROOT_STEP
    gram = system[:, 1:] @ system.transpose(0, 2, 1)
    return np.concatenate([np.vecdot(reply[:, :1], reply[:, :1]), gram.reshape(-1, 6)], axis=1).tolist()


def _distance_round(deltas: float | list[float], centres: list) -> list[list[float]]:
    """One Newton round: the 9 d^2 of the 3 x 3 stencil around each centre, at flat index ``3 i + j``."""
    return _distances(*_stencils(deltas, centres, _NEWTON_STENCIL)).reshape(-1, 9).tolist()


def _least_squares_step(p: float, q: float, a: float, b: float, c: float) -> tuple[float, float]:
    """Least-squares solution s of ``J s = R``, from ``J^T R = (p, q)`` and ``J^T J = [[a, b], [b, c]]``.

    Cramer's rule solves the 2 x 2 normal equations.  That form is
    invariant under scaling either column, so it keeps its accuracy where J
    is ill-conditioned through one column shrinking, as at the fold; its
    error grows as 1/sin^2 of the columns' angle, and the root solve's
    columns lie about 45 degrees apart or more.  Where the columns are
    parallel to rounding or one is zero, s is the minimum-norm solution
    ``J^T R / ||J||_F^2`` (zero for J = 0), as ``lstsq(rcond=None)`` gives.
    """
    det = a * c - b * b
    if det > _PARALLEL * a * c:
        return (c * p - b * q) / det, (a * q - b * p) / det
    norm = a + c
    return (p / norm, q / norm) if norm > 0.0 else (0.0, 0.0)


def _spectrum(h00: float, cross: float, h11: float) -> tuple[float, float]:
    """Eigenvalues ``(low, high)`` of ``[[h00, cross], [cross, h11]]``, in closed form.

    ``mean -+ hypot(half_diff, cross)``.  Each entry is halved before it is
    added or subtracted, which is exact above the subnormal range, so that
    entries near the largest float do not overflow.  Both eigenvalues are accurate to a few ulps of
    the larger magnitude, as ``eigvalsh``'s are.
    """
    mean = 0.5 * h00 + 0.5 * h11
    radius = math.hypot(0.5 * h00 - 0.5 * h11, cross)
    return mean - radius, mean + radius


def _newton_step(h00: float, cross: float, h11: float, g0: float, g1: float) -> tuple[float, float]:
    """``-H^-1 g`` for ``H = [[h00, cross], [cross, h11]]``, by its explicit inverse.

    Cramer's rule, which is forward stable for 2 x 2 systems (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002, section 1.10.1).
    """
    det = h00 * h11 - cross * cross
    return (cross * g1 - h11 * g0) / det, (cross * g0 - h00 * g1) / det


#: A solver run by ``_lockstep``: it yields a list of centres, is sent one
#: row of Python floats per centre, and returns the point it found, its
#: iteration count and its converged flag.
_Solver = Generator[list, list, tuple[np.ndarray, int, bool]]


def _solve_single_step() -> _Solver:
    """Gauss-Newton root of the single-step residual from ``SINGLE_STEP_START``.

    A generator run by ``_lockstep`` with ``_root_round``: each step yields
    x, the centre of a forward-difference stencil, takes back the stencil's
    reduced residuals, and solves the 32 x 2 linearization in the
    least-squares sense for the step Delta.  The next request is the centre
    x - Delta, unless Delta is about half the previous step (its size ratio
    inside ``_ROOT_DOUBLING``), the linear regime of a double root: then it
    holds the centres x - Delta and x - 2 Delta, and the solver goes on from
    whichever has the smaller ``||R||_F``, x - Delta on a tie.  Kept without
    that comparison, a doubled step can land between the two roots that lie
    close together just below the fold.  Returns the root (the last centre
    kept), the iteration count and whether ``||R||_F <= _ROOT_TOL`` was
    reached.

    The step arithmetic runs on the rows' Python floats, and the step is
    ``_least_squares_step``'s closed form; ``||R||_F`` is the square root of
    the row's ``||R||^2``, the bits of ``np.linalg.norm``.
    """
    low, high = _ROOT_DOUBLING
    trials = [SINGLE_STEP_START]
    previous = math.inf
    iterations = 0
    while True:
        rows = yield trials
        norms = [math.sqrt(row[0]) for row in rows]
        best = norms.index(min(norms))
        (x0, x1), (_, p, a, b, q, _, c) = trials[best], rows[best]
        converged = not norms[best] > _ROOT_TOL
        if converged or iterations == _ROOT_MAX_ITERATIONS:
            return np.array((x0, x1)), iterations, converged
        s0, s1 = _least_squares_step(p, q, a, b, c)
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

    A generator run by ``_lockstep`` with ``_distance_round``: the start and
    each step-halving trial inside the search box yield the point, the
    centre of a 3 x 3 stencil, and take back the stencil's 9 d^2; a trial is
    judged by the centre.  An accepted trial's stencil is the next Newton
    step's model, so a step makes no request of its own.  The step reads the
    gradient and Hessian off the central differences of the stencil.  A
    Hessian that is not positive definite has its spectrum shifted so that
    its smallest eigenvalue becomes ``_HESSIAN_FLOOR * max(1, |larger
    eigenvalue|)``.  The step is halved until the trial lies in the search
    box and lowers d^2, and the loop ends converged once the step, taken or
    halved, is no larger than ``_NEWTON_TOL`` in every component.  Just
    beyond g, where d^2 is flat to rounding, that monotone guard is what
    ends it.
    Returns the point, the number of Newton steps and whether it converged.

    The 9 d^2 of a row are Python floats, at flat index ``3 i + j``, and so
    are the gradient, Hessian entries, eigenvalues and step.  The
    eigenvalues are ``_spectrum``'s closed form, on every step, and the step
    is ``_newton_step``'s explicit inverse.  The shift adds to the diagonal
    alone, which is what adding ``shift * eye(2)`` does: d^2 >= +0.0 and
    exact cancellation rounds to +0.0, so the cross term is never -0.0.
    """
    h = _NEWTON_STEP
    (lo0, hi0), (lo1, hi1) = SINGLE_STEP_BOUNDS
    x0, x1 = SINGLE_STEP_START
    (f,) = yield [(x0, x1)]  # d^2 at x + h * (i - 1, j - 1)
    for iterations in range(_NEWTON_MAX_ITERATIONS):
        fx = f[4]
        g0, g1 = (f[7] - f[1]) / (2.0 * h), (f[5] - f[3]) / (2.0 * h)
        cross = (f[8] - f[6] - f[2] + f[0]) / 4.0 / (h * h)
        h00 = (f[7] - 2.0 * fx + f[1]) / (h * h)
        h11 = (f[5] - 2.0 * fx + f[3]) / (h * h)
        low, high = _spectrum(h00, cross, h11)
        if low <= 0.0:
            shift = _HESSIAN_FLOOR * max(1.0, abs(high)) - low
            h00, h11 = h00 + shift, h11 + shift
        s0, s1 = _newton_step(h00, cross, h11, g0, g1)
        while max(abs(s0), abs(s1)) > _NEWTON_TOL:
            t0, t1 = x0 + s0, x1 + s1
            if lo0 <= t0 <= hi0 and lo1 <= t1 <= hi1:
                (f_trial,) = yield [(t0, t1)]
                if f_trial[4] < fx:
                    break
            s0, s1 = s0 / 2.0, s1 / 2.0
        else:
            return np.array((x0, x1)), iterations, True
        x0, x1, f = t0, t1, f_trial
    return np.array((x0, x1)), _NEWTON_MAX_ITERATIONS, False


def _lockstep(steps: list[_Solver], round_: Callable, deltas: list[float]) -> list[tuple]:
    """Run one solver generator per detuning together; return their results in order.

    Plumbing that knows no method.  Each round gathers the pending centres
    of every unfinished solver and their detunings, one per centre (a lone
    solver's as one number), makes one ``round_(detunings, centres)`` call,
    which evaluates and reduces them all and returns one row per centre, and
    sends each solver the rows of its own centres.  The kernels and the
    reduction give each stack member the bits it gets alone, so every solver
    takes the same path and returns the same bits as it would alone.
    """
    results = [None] * len(steps)
    pending = {k: next(step) for k, step in enumerate(steps)}
    while pending:
        rows = list(pending)
        detunings = deltas[rows[0]] if len(rows) == 1 else [deltas[k] for k in rows for _ in pending[k]]
        replies = iter(round_(detunings, [centre for k in rows for centre in pending[k]]))
        for k in rows:
            reply = [next(replies) for _ in pending[k]]
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
    for method, solver, round_, rows in (
        ("root solve", _solve_single_step, _root_round,
         [k for k, d in enumerate(deltas) if abs(d) <= SINGLE_STEP_BOUND]),
        ("d^2 minimisation", _minimize_single_step, _distance_round,
         [k for k, d in enumerate(deltas) if not abs(d) <= SINGLE_STEP_BOUND]),
    ):
        solved = _lockstep([solver() for _ in rows], round_, [deltas[k] for k in rows])
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
