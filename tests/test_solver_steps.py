"""The calibration solvers' step arithmetic keeps its bits on any reply.

``optimize._solve_single_step`` and ``optimize._minimize_single_step`` do
their elementwise step arithmetic on Python floats and leave only ``lstsq``,
``eigvalsh`` and ``solve`` to numpy.  Each generator here is driven by hand
with Hypothesis-drawn replies, side by side with a test-local copy of the
same solver written with numpy arithmetic throughout, and every request it
yields, every return value and every error must have the reference's bits.
The per-point oracle tests in ``test_optimize.py`` see only the replies that
real detunings produce; these draws also give rank-deficient Jacobians,
zero and overflowing steps, flat stencils and Hessians that are not positive
definite.
"""

import math
from unittest import mock

import numpy as np
import pytest

import cnotsteer.optimize as optimize
from cnotsteer.optimize import SINGLE_STEP_BOUNDS, SINGLE_STEP_START

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

#: Requests driven per example before both generators are closed.
MAX_REQUESTS = 40


def numpy_solve_single_step():
    """``optimize._solve_single_step`` with numpy elementwise arithmetic: the reference."""
    low, high = optimize._ROOT_DOUBLING
    trials = np.array([SINGLE_STEP_START])
    previous = math.inf
    iterations = 0
    while True:
        replies = np.reshape((yield trials[:, None] + optimize._ROOT_STENCIL), (len(trials), 3, -1))
        norms = [np.linalg.norm(reply[0]) for reply in replies]
        best = int(np.argmin(norms))
        x, (r, *shifted) = trials[best], replies[best]
        converged = not norms[best] > optimize._ROOT_TOL
        if converged or iterations == optimize._ROOT_MAX_ITERATIONS:
            return x, iterations, converged
        jac = np.stack([(r_k - r) / optimize._ROOT_STEP for r_k in shifted], axis=1)
        step = np.linalg.lstsq(jac, r, rcond=None)[0]
        size = np.linalg.norm(step)
        trials = np.array([x - step, x - 2.0 * step] if low < size / previous < high else [x - step])
        previous = size
        iterations += 1


def numpy_minimize_single_step():
    """``optimize._minimize_single_step`` with numpy elementwise arithmetic: the reference."""
    h = optimize._NEWTON_STEP
    lo, hi = np.array(SINGLE_STEP_BOUNDS).T
    stencil = h * optimize._NEWTON_STENCIL
    x = np.array(SINGLE_STEP_START)
    f = np.reshape((yield x + stencil), (3, 3))
    for iterations in range(optimize._NEWTON_MAX_ITERATIONS):
        fx = f[1, 1]
        grad = np.array([f[2, 1] - f[0, 1], f[1, 2] - f[1, 0]]) / (2.0 * h)
        cross = (f[2, 2] - f[2, 0] - f[0, 2] + f[0, 0]) / 4.0
        hess = np.array([
            [f[2, 1] - 2.0 * fx + f[0, 1], cross],
            [cross, f[1, 2] - 2.0 * fx + f[1, 0]],
        ]) / (h * h)
        low, high = np.linalg.eigvalsh(hess)
        if low <= 0.0:
            hess += (optimize._HESSIAN_FLOOR * max(1.0, abs(high)) - low) * np.eye(2)
        step = -np.linalg.solve(hess, grad)
        while np.max(np.abs(step)) > optimize._NEWTON_TOL:
            trial = x + step
            if np.all(trial >= lo) and np.all(trial <= hi):
                f_trial = np.reshape((yield trial + stencil), (3, 3))
                if f_trial[1, 1] < fx:
                    break
            step = step / 2.0
        else:
            return x, iterations, True
        x, f = trial, f_trial
    return x, optimize._NEWTON_MAX_ITERATIONS, False


def _bits(value):
    """A comparable form of an outcome: arrays as dtype, shape and bytes."""
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return type(value).__name__, value


def _send(solver, reply):
    """What the solver does with a reply: yields a request, returns, or raises."""
    try:
        return "request", solver.send(reply)
    except StopIteration as done:
        return "return", done.value
    except np.linalg.LinAlgError as error:
        return "error", str(error)


def _drive(solver, reference, reply_for):
    """Send both solvers the same replies; return the outcome of each step.

    ``reply_for(request, step)`` draws the reply to the ``step``-th request.
    numpy's floating-point warnings are off, as the values compared are the
    ones numpy computes whether it warns or not.
    """
    outcomes = []
    reply = None
    with np.errstate(all="ignore"):
        for step in range(MAX_REQUESTS):
            kind, want = _send(reference, reply)
            got = _send(solver, reply)
            assert _bits(got) == _bits((kind, want)), (step, got, want)
            outcomes.append((kind, want))
            if kind != "request":
                return outcomes
            reply = reply_for(want, step)
    solver.close()
    reference.close()
    return outcomes


residual_values = st.floats(-1e2, 1e2, allow_nan=False)
residual_stencils = arrays(np.float64, (3, 32), elements=residual_values)


@pytest.mark.parametrize("doubled", [False, True])
@PROPERTY
@given(data=st.data(), cap=st.integers(0, 6))
def test_root_solve_steps_keep_their_bits(doubled, data, cap):
    # Replies are arbitrary 3 x 32 stencils.  With ``doubled``, the second is
    # the first with its centre scaled by c near 1/2 and the same differences,
    # so the second step is about c times the first and the third request
    # holds the stencil at the doubled step too.
    first = None
    if doubled:
        r = data.draw(arrays(np.float64, 32, elements=st.floats(0.5, 1.0)))
        pattern = np.array([np.ones(32), np.resize([1.0, -1.0], 32)])
        scales = data.draw(arrays(np.float64, (2, 1), elements=st.floats(0.5, 2.0)))
        wobble = data.draw(arrays(np.float64, (2, 32), elements=st.floats(-0.1, 0.1)))
        differences = scales * pattern + wobble
        c = data.draw(st.floats(0.45, 0.55))
        first = np.stack([r, r + differences[0], r + differences[1]])
        second = np.stack([c * r, c * r + differences[0], c * r + differences[1]])
        cap = max(cap, 2)

    def reply_for(request, step):
        if doubled and step < 2:
            return (first, second)[step][None]
        return np.stack([data.draw(residual_stencils) for _ in request])

    with mock.patch.object(optimize, "_ROOT_MAX_ITERATIONS", cap):
        outcomes = _drive(optimize._solve_single_step(), numpy_solve_single_step(), reply_for)
    if doubled:
        assert outcomes[2][0] == "request" and outcomes[2][1].shape == (2, 3, 2)


d2_values = st.floats(1e-30, 1e2)


@st.composite
def d2_stencils(draw, curvature):
    """A 3 x 3 d^2 stencil, flat; a quadratic with the given curvature, or any values."""
    if curvature == "any":
        return draw(arrays(np.float64, 9, elements=d2_values))
    g0, g1, cross = (draw(st.floats(-10.0, 10.0)) for _ in range(3))
    if curvature == "positive definite":
        a, b = (draw(st.floats(0.5, 10.0)) for _ in range(2))
        cross = cross / 100.0
    else:
        a, b = draw(st.floats(-10.0, -0.01)), draw(st.floats(-10.0, 10.0))
    i, j = np.divmod(np.arange(9), 3) - np.ones((2, 1))
    return 50.0 + g0 * i + g1 * j + a * i * i + b * j * j + cross * i * j


@pytest.mark.parametrize("curvature", ["any", "positive definite", "not positive definite"])
@PROPERTY
@given(data=st.data(), cap=st.integers(0, 4))
def test_minimisation_steps_keep_their_bits(curvature, data, cap):
    # The first stencil has the given curvature; every later reply, to the
    # step-halving trials and the steps after them, is any 9 d^2.
    def reply_for(request, step):
        return data.draw(d2_stencils(curvature if step == 0 else "any"))

    with mock.patch.object(optimize, "_NEWTON_MAX_ITERATIONS", cap):
        _drive(optimize._minimize_single_step(), numpy_minimize_single_step(), reply_for)
