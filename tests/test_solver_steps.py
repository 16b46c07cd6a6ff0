"""The calibration solvers' step arithmetic keeps its bits on any reply, and
their closed-form steps hold to ``numpy.linalg``.

``optimize._solve_single_step`` and ``optimize._minimize_single_step`` do
their step arithmetic on Python floats.  Each generator here is driven by
hand with Hypothesis-drawn replies, side by side with a test-local copy of
the same solver written with numpy arithmetic throughout, and every request
it yields, every return value and every error must have the reference's
bits.  The copies take their steps from the package's closed forms, as the
solvers do: ``_least_squares_step`` for the Gauss-Newton step,
``_plainly_positive_definite`` to decide whether ``eigvalsh`` runs, and
``_newton_step`` for the Newton step.  The per-point oracle tests in
``test_optimize.py`` see only the replies that real detunings produce; these
draws also give rank-deficient Jacobians, zero and overflowing steps, flat
stencils and Hessians that are not positive definite.

The closed forms themselves are held to LAPACK, through ``numpy.linalg``'s
``lstsq``, ``eigvalsh`` and ``solve``, on drawn systems: the root solve's
Jacobians and the minimiser's Hessians, well and badly conditioned, and
singular.
"""

import math
from unittest import mock

import numpy as np
import pytest

import cnotsteer.cli as cli
import cnotsteer.optimize as optimize
from cnotsteer.optimize import SINGLE_STEP_BOUND, SINGLE_STEP_BOUNDS, SINGLE_STEP_START, calibrate_single_step

from calibration_oracle import ROOT_STENCIL

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
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
        (h00, cross), (_, h11) = hess.tolist()
        if not optimize._plainly_positive_definite(h00, cross, h11):
            low, high = np.linalg.eigvalsh(hess)
            if low <= 0.0:
                hess += (optimize._HESSIAN_FLOOR * max(1.0, abs(high)) - low) * np.eye(2)
                (h00, cross), (_, h11) = hess.tolist()
        step = np.array(optimize._newton_step(h00, cross, h11, *grad.tolist()))
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
    except (np.linalg.LinAlgError, ZeroDivisionError) as error:
        return "error", repr(error)


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


def _unit_pair(seed):
    """Two orthonormal vectors of length 32."""
    return np.linalg.qr(np.random.default_rng(seed).normal(size=(32, 2)))[0].T


@st.composite
def residuals(draw, jt):
    """R for the Jacobian columns ``jt``: from consistent (R = J x) to any, at any scale."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fitted, other = jt.T @ rng.normal(size=2), rng.normal(size=32)
    mix = draw(st.sampled_from([0.0, 1e-6, 0.5, 1.0]))
    r = (1.0 - mix) * fitted / np.linalg.norm(fitted) + mix * other / np.linalg.norm(other)
    return 10.0 ** draw(st.floats(-8.0, 8.0)) * r


#: The least-squares step is held to lstsq where the two columns lie at least
#: arccos(0.9), about 26 degrees, apart; the root solve's lie about 45 degrees
#: apart or more (``test_root_solve_jacobians_lie_where_the_step_is_held``).
COLUMN_COSINE = 0.9


@PROPERTY
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), cosine=st.floats(-COLUMN_COSINE, COLUMN_COSINE),
       scale=st.floats(-3.0, 3.0), ratio=st.floats(0.0, 6.0), small_first=st.booleans())
def test_least_squares_step_holds_to_lstsq(data, seed, cosine, scale, ratio, small_first):
    # kappa(J) up to 1e6, through the ratio of the column norms, as near the
    # fold.  Each coefficient is compared in units of its column, |J_k| |s_k -
    # lstsq_k| <= 1e-12 |R|: there both forms are accurate to rounding, while
    # lstsq's own coefficient of a column 1e-6 the other's carries an error
    # of ~kappa * eps relative to the whole step, ~1e-10 against a
    # 50-digit solution.
    u, v = _unit_pair(seed)
    jt = 10.0 ** scale * np.array([u, 10.0 ** -ratio * (cosine * u + math.sqrt(1.0 - cosine * cosine) * v)])
    if small_first:
        jt = jt[::-1]
    assume(np.linalg.cond(jt.T) <= 1e6)
    r = data.draw(residuals(jt))
    s = np.array(optimize._least_squares_step(np.vstack([r, jt])))
    want = np.linalg.lstsq(jt.T, r, rcond=None)[0]
    assert np.all(np.linalg.norm(jt, axis=1) * np.abs(s - want) <= 1e-12 * np.linalg.norm(r)), (s, want)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), sine=st.floats(-5.4, -2.0), scale=st.floats(-3.0, 3.0),
       x=st.tuples(*[st.floats(0.1, 10.0) | st.floats(-10.0, -0.1)] * 2))
def test_least_squares_step_is_full_rank_on_nearly_parallel_columns(seed, sine, scale, x):
    # Columns 1e-2 to 4e-6 rad apart, kappa(J) up to 1e6: still the full-rank
    # step, not the minimum-norm one, though the Gram form's accuracy falls
    # there as eps kappa^2 (2e-6 at kappa = 2e5, where lstsq keeps ~1e-12).
    u, v = _unit_pair(seed)
    sin = 10.0 ** sine
    jt = 10.0 ** scale * np.array([u, math.sqrt(1.0 - sin * sin) * u + sin * v])
    kappa = np.linalg.cond(jt.T)
    assume(kappa <= 1e6)
    r = jt.T @ np.array(x)
    s = np.array(optimize._least_squares_step(np.vstack([r, jt])))
    want = np.linalg.lstsq(jt.T, r, rcond=None)[0]
    assert np.linalg.norm(s - want) <= 1e-15 * kappa * kappa * np.linalg.norm(want), (s, want, kappa)


@PROPERTY
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), scale=st.floats(-3.0, 3.0),
       kind=st.sampled_from(["first zero", "second zero", "both zero", "parallel"]),
       factor=st.sampled_from([1.0, -1.0, 2.0, 3.0]) | st.floats(-1e3, 1e3).filter(lambda f: abs(f) >= 1e-3))
def test_least_squares_step_is_lstsqs_minimum_norm_step_on_dependent_columns(data, seed, scale, kind,
                                                                             factor):
    # lstsq(rcond=None) drops a singular value below 32 eps of the largest and
    # returns the minimum-norm solution; a bare Gram inverse would give NaN.
    column = 10.0 ** scale * _unit_pair(seed)[0]
    jt = {
        "first zero": np.array([0.0 * column, column]),
        "second zero": np.array([column, 0.0 * column]),
        "both zero": np.zeros((2, 32)),
        "parallel": np.array([column, factor * column]),
    }[kind]
    r = data.draw(residuals(np.array([column, column])))
    s = np.array(optimize._least_squares_step(np.vstack([r, jt])))
    want = np.linalg.lstsq(jt.T, r, rcond=None)[0]
    assert np.all(np.isfinite(s))
    if kind == "both zero":
        assert s.tolist() == want.tolist() == [0.0, 0.0]
    else:
        # The minimum-norm step has size |R| / |J|_F at most.
        assert np.linalg.norm(s - want) <= 1e-12 * np.linalg.norm(r) / np.linalg.norm(jt), (s, want)


def test_root_solve_jacobians_lie_where_the_step_is_held(monkeypatch):
    # The Gram form loses accuracy as the Jacobian's columns turn parallel.
    # On every step of Table 1's rows, of -g and of the detunings just below
    # the fold, they stay within the angles drawn above (|cos| <= 0.71 is
    # measured), and the step is within 1e-12 of lstsq's in the plain
    # relative norm.
    systems = []
    real = optimize._least_squares_step
    monkeypatch.setattr(optimize, "_least_squares_step", lambda s: systems.append(s) or real(s))
    table1 = [d for d in cli._TABLE_GRID if abs(d) <= SINGLE_STEP_BOUND]
    calibrate_single_step([*table1, -1.0, *(1.0 - 10.0 ** -k for k in (3, 4, 6, 8, 10))])
    assert len(systems) > 50
    for system in systems:
        r, j0, j1 = system
        assert abs(j0 @ j1) <= COLUMN_COSINE * np.linalg.norm(j0) * np.linalg.norm(j1)
        want = np.linalg.lstsq(system[1:].T, r, rcond=None)[0]
        assert np.linalg.norm(np.array(real(system)) - want) <= 1e-12 * np.linalg.norm(want)


@st.composite
def symmetric_2x2(draw, max_condition=1e17):
    """(h00, cross, h11) of a spectrum of any signs and scales 1e-20-1e20, condition up to ``max_condition``."""
    sign = st.sampled_from([1.0, -1.0])
    larger = draw(sign) * 10.0 ** draw(st.floats(-20.0, 20.0))
    smaller = larger * draw(sign) * 10.0 ** -draw(st.floats(0.0, math.log10(max_condition)))
    angle = draw(st.floats(0.0, math.pi))
    c, s = math.cos(angle), math.sin(angle)
    return larger * c * c + smaller * s * s, (larger - smaller) * c * s, larger * s * s + smaller * c * c


@PROPERTY
@given(hessian=st.one_of(
    symmetric_2x2(),
    st.tuples(*[st.floats(-1e20, 1e20, allow_nan=False)] * 3),
    st.tuples(*[st.sampled_from([0.0, 1.0, -1.0, 1e-300, 5e-324, 1e150])] * 3),
))
def test_plainly_positive_definite_never_contradicts_eigvalsh(hessian):
    h00, cross, h11 = hessian
    if optimize._plainly_positive_definite(h00, cross, h11):
        assert np.linalg.eigvalsh([[h00, cross], [cross, h11]])[0] > 0.0


@PROPERTY
@given(hessian=symmetric_2x2(max_condition=1e10), gradient=st.tuples(*[st.floats(-1e3, 1e3)] * 2))
def test_newton_step_holds_to_solve(hessian, gradient):
    h00, cross, h11 = hessian
    matrix = np.array([[h00, cross], [cross, h11]])
    kappa = np.linalg.cond(matrix)
    want = -np.linalg.solve(matrix, gradient)
    s = np.array(optimize._newton_step(h00, cross, h11, *gradient))
    assert np.linalg.norm(s - want) <= 1e-12 * kappa * np.linalg.norm(want), (s, want, kappa)
