"""The calibration solvers' step arithmetic keeps its bits on any reply, and
their closed forms hold to ``numpy.linalg``.

``optimize._solve_single_step`` and ``optimize._minimize_single_step`` step
on Python floats, fed by their round functions (``optimize._root_round`` and
``optimize._distance_round``), which reduce a whole round's kernel reply in
one pass.  Each solver is run here through ``optimize._lockstep`` and its
round function with the kernel replaced by Hypothesis-drawn values, side by
side with its numpy reference in ``calibration_oracle``
(``numpy_solve_single_step`` and ``numpy_minimize_single_step``, the same
solver written with numpy arithmetic throughout, reducing each stencil on
its own), and every request it evaluates, every return value and every error
must have the reference's bits.  The references take their steps and the
Hessian's spectrum from the package's closed forms, as the solvers do:
``_least_squares_step`` for the Gauss-Newton step, ``_spectrum`` for the
eigenvalues that decide and size the shift, and ``_newton_step`` for the
Newton step.  The per-point oracle tests in ``test_optimize.py`` drive the
same references with real detunings' replies; these draws also give
rank-deficient Jacobians, zero and overflowing steps, flat stencils and
Hessians that are not positive definite.  The round reduction itself is held
to the per-stencil numpy form on drawn stacks, and the solvers are driven
with plain Python lists and no numpy but the call that builds their point.

The closed forms themselves are held to LAPACK, through ``numpy.linalg``'s
``lstsq``, ``eigvalsh`` and ``solve``, on drawn systems: the root solve's
Jacobians and the minimiser's Hessians, well and badly conditioned, and
singular, up to entries near the largest float.
"""

import math
import sys
import types
from unittest import mock

import numpy as np
import pytest

import cnotsteer.cli as cli
import cnotsteer.optimize as optimize
from cnotsteer.optimize import SINGLE_STEP_BOUND, calibrate_single_step

from calibration_oracle import least_squares_step, numpy_minimize_single_step, numpy_solve_single_step

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

#: Requests answered per example before a drive ends.
MAX_REQUESTS = 40

#: Each solver's generator, its round function, the kernel that round
#: function calls and the shape of the kernel's value at one point.
METHODS = {
    "root solve": (optimize._solve_single_step, optimize._root_round, "_residuals", (32,)),
    "minimisation": (optimize._minimize_single_step, optimize._distance_round, "_distances", ()),
}


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
    except ZeroDivisionError as error:
        return "error", repr(error)


class _Enough(Exception):
    """Ends a drive once MAX_REQUESTS requests have been answered."""


def _drive(method, reference, reply_for):
    """Run the package's solver and its reference on the same replies; return the reference's outcomes.

    The package's solver runs alone through ``_lockstep`` and its round
    function, with the kernel replaced: the points of each request it
    evaluates must have the bytes of the reference's request, and
    ``reply_for(request, step)`` draws the kernel's values for both.  Its
    result or error must then be the reference's, bit for bit.  numpy's
    floating-point warnings are off, as the values compared are the ones
    numpy computes whether it warns or not.
    """
    solver, round_, kernel, shape = METHODS[method]
    outcomes = [_send(reference, None)]

    def evaluate(deltas, points):
        kind, want = outcomes[-1]
        assert kind == "request" and _bits(points) == _bits(want.reshape(-1, 2)), (len(outcomes), points, want)
        if len(outcomes) == MAX_REQUESTS:
            raise _Enough
        reply = reply_for(want, len(outcomes) - 1)
        outcomes.append(_send(reference, reply))
        return np.reshape(reply, (len(points), *shape))

    with mock.patch.object(optimize, kernel, evaluate), np.errstate(all="ignore"):
        try:
            got = "return", optimize._lockstep([solver()], round_, [0.0])[0]
        except ZeroDivisionError as error:
            got = "error", repr(error)
        except _Enough:
            reference.close()
            return outcomes
    assert _bits(got) == _bits(outcomes[-1]), (got, outcomes[-1])
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
        outcomes = _drive("root solve", numpy_solve_single_step(), reply_for)
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
        _drive("minimisation", numpy_minimize_single_step(), reply_for)


#: Residual entries for the round reduction's draws, signed zeros included.
reduction_values = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0])


@st.composite
def root_stencils(draw):
    """A residual stencil R, R + h J0, R + h J1 (3 x 32) whose Jacobian columns are any, zero or parallel."""
    r, d, e = (draw(arrays(np.float64, 32, elements=reduction_values)) for _ in range(3))
    c = draw(st.floats(-3.0, 3.0))
    first, second = {
        "any": (r + d, r + e),
        "first zero": (r, r + e),
        "second zero": (r + d, r),
        "both zero": (r, r),
        "parallel": (r + d, r + c * d),
    }[draw(st.sampled_from(["any", "first zero", "second zero", "both zero", "parallel"]))]
    return np.stack([r, first, second])


def _echo(count):
    """A solver that requests ``count`` centres once and returns the rows it is sent."""
    rows = yield [(1.0, 1.0)] * count
    return rows


@PROPERTY
@given(sizes=st.lists(st.sampled_from([1, 2]), min_size=1, max_size=6), data=st.data())
def test_root_round_gives_each_stencil_the_bits_of_its_own_reduction(sizes, data):
    # One round of rows that each request one stencil, or two after a doubled
    # step.  Every stencil's row must hold the bits of the per-stencil numpy
    # form, R.R by ndarray.dot and the Gram by one 2-D product, as Python
    # floats, and each row must be sent the rows of its own stencils.
    stack = np.array([data.draw(root_stencils()) for _ in range(sum(sizes))])
    with mock.patch.object(optimize, "_residuals", lambda deltas, points: stack.reshape(len(points), 32)):
        found = optimize._lockstep([_echo(n) for n in sizes], optimize._root_round, [0.0] * len(sizes))
    rows = [row for solver_rows in found for row in solver_rows]
    assert [len(solver_rows) for solver_rows in found] == sizes
    for row, reply in zip(rows, stack, strict=True):
        system = reply - reply[0]
        system[0] = reply[0]
        system[1:] /= optimize._ROOT_STEP
        want = [reply[0].dot(reply[0]), *(system[1:] @ system.T).ravel()]
        assert all(type(v) is float for v in row)
        assert np.array(row).tobytes() == np.array(want).tobytes(), (row, want)


def _rounds(method, delta):
    """Every round of one detuning calibrated alone, as (centres, rows) pairs, and the solver's result."""
    solver, round_, _, _ = METHODS[method]
    rounds = []

    def recording(deltas, centres):
        rounds.append((centres, round_(deltas, centres)))
        return rounds[-1][1]

    return rounds, optimize._lockstep([solver()], recording, [delta])[0]


@pytest.mark.parametrize("method, delta", [
    ("root solve", 0.5), ("root solve", 1.0), ("root solve", 1.0 - 1e-10),
    ("minimisation", 1.5), ("minimisation", 3.0), ("minimisation", 7.4),
])
def test_solvers_step_on_plain_python_lists(monkeypatch, method, delta):
    # The rows of a real calibration are plain lists of Python floats.  Sent
    # them again with numpy in optimize cut down to np.array, which builds
    # the returned point, a fresh solver yields the same centres, as tuples
    # of Python floats, and returns the same point, count and flag.
    rounds, want = _rounds(method, delta)
    assert all(type(row) is list and all(type(v) is float for v in row) for _, rows in rounds for row in rows)
    monkeypatch.setattr(optimize, "np", types.SimpleNamespace(array=np.array))
    solver = METHODS[method][0]()
    outcome = "request", next(solver)
    for k, (centres, rows) in enumerate(rounds):
        assert outcome == ("request", centres), k
        assert all(type(c) is tuple and all(type(v) is float for v in c) for c in centres), k
        outcome = _send(solver, rows)
    assert _bits(outcome) == _bits(("return", want))


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
    s = np.array(least_squares_step(np.vstack([r, jt])))
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
    s = np.array(least_squares_step(np.vstack([r, jt])))
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
    s = np.array(least_squares_step(np.vstack([r, jt])))
    want = np.linalg.lstsq(jt.T, r, rcond=None)[0]
    assert np.all(np.isfinite(s))
    if kind == "both zero":
        assert s.tolist() == want.tolist() == [0.0, 0.0]
    else:
        # The minimum-norm step has size |R| / |J|_F at most.
        assert np.linalg.norm(s - want) <= 1e-12 * np.linalg.norm(r) / np.linalg.norm(jt), (s, want)


def test_root_solve_jacobians_lie_where_the_step_is_held(monkeypatch):
    # The Gram form loses accuracy as the Jacobian's columns turn parallel.
    # On every stencil that Table 1's rows, -g and the detunings just below
    # the fold evaluate, the steps taken among them, the columns stay within
    # the angles drawn above (|cos| <= 0.71 is measured), and the step is
    # within 1e-12 of lstsq's in the plain relative norm.
    stencils = []
    real = optimize._residuals
    monkeypatch.setattr(optimize, "_residuals", lambda *a: stencils.extend((r := real(*a)).reshape(-1, 3, 32)) or r)
    table1 = [d for d in cli._TABLE_GRID if abs(d) <= SINGLE_STEP_BOUND]
    calibrate_single_step([*table1, -1.0, *(1.0 - 10.0 ** -k for k in (3, 4, 6, 8, 10))])
    assert len(stencils) > 50
    for r, *shifted in stencils:
        system = np.stack([r, *((r_k - r) / optimize._ROOT_STEP for r_k in shifted)])
        _, j0, j1 = system
        assert abs(j0 @ j1) <= COLUMN_COSINE * np.linalg.norm(j0) * np.linalg.norm(j1)
        want = np.linalg.lstsq(system[1:].T, r, rcond=None)[0]
        assert np.linalg.norm(np.array(least_squares_step(system)) - want) <= 1e-12 * np.linalg.norm(want)


@st.composite
def symmetric_2x2(draw, max_condition=1e17, max_exponent=20.0):
    """(h00, cross, h11) of a spectrum of any signs, scales 10^+-max_exponent, condition up to max_condition."""
    sign = st.sampled_from([1.0, -1.0])
    larger = draw(sign) * 10.0 ** draw(st.floats(-max_exponent, max_exponent))
    smaller = larger * draw(sign) * 10.0 ** -draw(st.floats(0.0, math.log10(max_condition)))
    angle = draw(st.floats(0.0, math.pi))
    c, s = math.cos(angle), math.sin(angle)
    return larger * c * c + smaller * s * s, (larger - smaller) * c * s, larger * s * s + smaller * c * c


#: (h00, cross, h11) = 2^e (p^2, p q, q^2): exactly singular, every entry exact.
singular_2x2 = st.builds(lambda p, q, e: (p * p * 2.0 ** e, p * q * 2.0 ** e, q * q * 2.0 ** e),
                         st.integers(-2**26, 2**26), st.integers(-2**26, 2**26), st.integers(-600, 600))

#: The closed-form spectrum lies within SPECTRUM_TOL times the larger
#: eigenvalue magnitude of eigvalsh's (2.5 eps is the largest seen over 10^5
#: draws of these kinds with entries spanning 1e+-300), plus four of the
#: smallest subnormal, 5e-324, the rounding of entries below the normal range.
SPECTRUM_TOL = 4.0 * np.finfo(float).eps


@PROPERTY
@given(hessian=st.one_of(
    symmetric_2x2(max_exponent=300.0),
    singular_2x2,
    st.tuples(*[st.floats(-1e308, 1e308)] * 3),
    st.tuples(*[st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, 5e-324, 1e150, 1e308, -1e308])] * 3),
))
def test_spectrum_holds_to_eigvalsh(hessian):
    # The minimiser shifts a Hessian whose smaller eigenvalue is <= 0; where
    # that eigenvalue stands clear of rounding the closed form decides as
    # eigvalsh does.  An eigenvalue beyond the largest float is inf in both.
    h00, cross, h11 = hessian
    low, high = optimize._spectrum(h00, cross, h11)
    want = np.linalg.eigvalsh([[h00, cross], [cross, h11]]).tolist()
    tol = SPECTRUM_TOL * min(max(map(abs, want)), sys.float_info.max) + 4.0 * 5e-324
    for got, ref in zip((low, high), want):
        assert got == ref or abs(got - ref) <= tol, (got, want)
    if abs(low) > tol:
        assert (low <= 0.0) == (want[0] <= 0.0), (low, want)


@PROPERTY
@given(hessian=symmetric_2x2(max_condition=1e10), gradient=st.tuples(*[st.floats(-1e3, 1e3)] * 2))
def test_newton_step_holds_to_solve(hessian, gradient):
    h00, cross, h11 = hessian
    matrix = np.array([[h00, cross], [cross, h11]])
    kappa = np.linalg.cond(matrix)
    want = -np.linalg.solve(matrix, gradient)
    s = np.array(optimize._newton_step(h00, cross, h11, *gradient))
    assert np.linalg.norm(s - want) <= 1e-12 * kappa * np.linalg.norm(want), (s, want, kappa)
