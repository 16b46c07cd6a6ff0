import dataclasses
import itertools
import math
import random
import sys

import numpy as np
import pytest

import cnotsteer.cli as cli
import cnotsteer.optimize as optimize
from cnotsteer.equivclass import cnot_distance, makhlin_invariants
from cnotsteer.optimize import SINGLE_STEP_BOUND, SINGLE_STEP_BOUNDS, calibrate_single_step
from cnotsteer.qmat import ContractViolationError, frob_dist
from cnotsteer.sequences import CNOT, SystemParams, fit_local_rotations, single_step_u

from calibration_oracle import (
    RICHARDSON_STEP,
    fold_point,
    minimize_single_step,
    newton_single_step,
    richardson_minimum,
    single_step_d2,
    solve_single_step,
)
from nelder_mead import NMOptions, nelder_mead
from reference_data import TABLE1_SINGLE, TABLE2


def test_nm_quadratic():
    res = nelder_mead(lambda x: (x[0] - 1.0) ** 2, [0.0], NMOptions(bounds=[(-10.0, 10.0)]))
    assert res.converged
    assert abs(res.x[0] - 1.0) < 1e-6


def test_nm_boundary_minimum():
    res = nelder_mead(lambda x: x[0], [2.5], NMOptions(bounds=[(2.0, 3.0)]))
    assert abs(res.x[0] - 2.0) < 1e-6


def test_nm_rosenbrock():
    def rosen(x):
        return (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2

    res = nelder_mead(rosen, [-1.0, 1.0], NMOptions(bounds=[(-5.0, 5.0)] * 2))
    assert np.max(np.abs(res.x - 1.0)) < 1e-4


def test_nm_monotone_best_so_far():
    seen = []

    def f(x):
        seen.append(float((x[0] - 0.3) ** 2 + (x[1] + 0.4) ** 2))
        return seen[-1]

    nelder_mead(f, [2.0, 2.0], NMOptions(bounds=[(-4.0, 4.0)] * 2, max_iterations=200))
    best = np.minimum.accumulate(seen)
    assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))


def test_nm_iteration_cap_clears_converged_flag():
    res = nelder_mead(
        lambda x: (x[0] - 1.0) ** 2,
        [-9.0],
        NMOptions(bounds=[(-10.0, 10.0)], max_iterations=3),
    )
    assert not res.converged
    assert res.iterations == 3


def test_nm_options_validation():
    with pytest.raises(ValueError):
        NMOptions(bounds=[])
    with pytest.raises(ValueError):
        NMOptions(bounds=[(1.0, 0.0)])
    with pytest.raises(ValueError):
        nelder_mead(lambda x: x[0], [5.0], NMOptions(bounds=[(0.0, 1.0)]))


def test_calibration_is_deterministic():
    a = calibrate_single_step(0.7)
    b = calibrate_single_step(0.7)
    assert dataclasses.asdict(a) == dataclasses.asdict(b)


def test_calibrate_single_step_resonant():
    cal = calibrate_single_step(0.0)
    assert abs(cal.t_units - 1.0) < 5e-3
    assert abs(cal.omega1_over_g - math.sqrt(15.0)) < 5e-3
    assert cal.distance < 1e-10
    assert cal.converged
    assert (type(cal.g1), type(cal.g2), type(cal.distance)) == (complex, float, float)
    assert abs(cal.distance - cnot_distance(cal.g1, cal.g2)) < 1e-12


def test_calibrate_single_step_at_bound():
    cal = calibrate_single_step(1.0)
    t_ref, om_ref = TABLE1_SINGLE[1.0]
    assert abs(cal.t_units - t_ref) < 5e-3
    assert abs(cal.omega1_over_g - om_ref) < 5e-3
    assert cal.distance < 1e-10


def test_calibrate_single_step_beyond_bound():
    cal = calibrate_single_step(1.5)
    t_ref, om_ref, g1_ref, g2_ref = TABLE2[1.5]
    assert abs(cal.t_units - t_ref) < 5e-3
    assert abs(cal.omega1_over_g - om_ref) < 5e-3
    assert abs(cal.g1.real - g1_ref) < 2e-3
    assert abs(cal.g2 - g2_ref) < 2e-3
    assert cal.distance > 1e-4


def test_calibration_symmetric_in_detuning_sign():
    plus = calibrate_single_step(0.8)
    minus = calibrate_single_step(-0.8)
    assert abs(plus.distance - minus.distance) < 1e-9
    assert abs(plus.g1 - minus.g1) < 1e-9
    assert abs(plus.g2 - minus.g2) < 1e-9


def test_crossover_bounds():
    for delta in (0.0, 0.5, 1.0):
        assert calibrate_single_step(delta).distance < 1e-10
    for delta in (1.2, 1.5, 2.0):
        assert calibrate_single_step(delta).distance > 1e-4


def test_single_step_gap_opens_as_the_fourth_power_beyond_g():
    for cal in calibrate_single_step([0.9, 0.99, 1.0]):
        assert cal.method == "root solve", cal.delta_over_g
        assert cal.distance <= 1e-24, cal.delta_over_g
    # Just past the bound the closest class misses CNOT by d^2 ~ 0.1 (delta - g)^4.
    for cal in calibrate_single_step([1.01, 1.02, 1.05]):
        ratio = cal.distance / (cal.delta_over_g - 1.0) ** 4
        assert 0.08 <= ratio <= 0.13, (cal.delta_over_g, ratio)


def test_single_step_bounds_exposed():
    (om_lo, om_hi), (t_lo, t_hi) = SINGLE_STEP_BOUNDS
    assert om_lo < math.sqrt(15.0) < om_hi
    assert t_lo < 1.0 < t_hi


#: Detunings just below the fold, where the two roots lie ~1.27 sqrt(g - delta)
#: apart in T1 and a doubled Gauss-Newton step could jump to the upper one.
NEAR_FOLD = [1.0 - 10.0 ** -k for k in (3, 4, 6, 8, 10)]


def test_single_step_root_stays_on_the_lower_branch():
    # The upper branch meets the lower one at the fold delta = g; a jump to
    # it shows as a T1 above its neighbours (as Nelder-Mead's 1.387 at 0.98g),
    # or, just below the fold, as a T1 above the fold's.
    magnitudes = sorted([*np.linspace(0.0, SINGLE_STEP_BOUND, 101), *NEAR_FOLD])
    for sign in (1.0, -1.0):
        t_fold = fold_point(sign)[1]
        grid = [calibrate_single_step(sign * float(d)) for d in magnitudes]
        t1 = [cal.t_units for cal in grid]
        assert all(b > a for a, b in zip(t1, t1[1:])), sign
        for cal in grid:
            assert cal.converged, cal.delta_over_g
            assert cal.distance < 1e-20, cal.delta_over_g
            assert cal.iterations <= 25, cal.delta_over_g
            if abs(cal.delta_over_g) < SINGLE_STEP_BOUND:
                assert cal.t_units < t_fold, cal.delta_over_g


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_single_step_root_at_the_bound_is_the_fold(sign):
    # At delta = g the two branches merge and the root is double; the
    # calibration must still land on the fold, located apart from it as the
    # midpoint of the two simple roots just below it.
    cal = calibrate_single_step(sign * SINGLE_STEP_BOUND)
    omega_fold, t_fold = fold_point(sign)
    assert abs(cal.t_units - t_fold) <= 1e-7
    assert abs(cal.omega1_over_g - omega_fold) <= 1e-7
    assert cal.distance <= 1e-24
    assert cal.iterations <= 8


def test_fold_oracle_is_stable_in_its_offset():
    # The midpoint is the fold to O(eps): moving 100 times closer to the
    # fold moves it by less than 1e-8.
    assert np.max(np.abs(fold_point(1.0, 1e-8) - fold_point(1.0))) < 1e-8


def test_single_step_rows_match_paper_to_four_decimals():
    for delta, (t_ref, om_ref) in TABLE1_SINGLE.items():
        if delta > 0.9:
            continue
        cal = calibrate_single_step(delta)
        assert round(cal.t_units, 4) == t_ref, (delta, cal.t_units)
        assert round(cal.omega1_over_g, 4) == om_ref, (delta, cal.omega1_over_g)


def _dressed_quality(delta, omega, t_units):
    p = SystemParams(delta=delta, omega1=float(omega))
    u = single_step_u(float(t_units) * math.pi / 2.0, p)
    return cnot_distance(*makhlin_invariants(u)), frob_dist(fit_local_rotations(u, CNOT).realize(u), CNOT)


@pytest.mark.parametrize("delta", [0.5, 0.9, 0.98, 1.0])
def test_single_step_root_no_worse_than_nelder_mead_oracle(delta):
    cal = calibrate_single_step(delta)
    d2, dressed = _dressed_quality(delta, cal.omega1_over_g, cal.t_units)
    x, _, _ = minimize_single_step(delta)
    d2_oracle, dressed_oracle = _dressed_quality(delta, *x)
    assert d2 <= d2_oracle
    assert dressed <= dressed_oracle
    assert dressed < 1e-12


ROOT_DELTAS = [0.0, 0.3, -0.3, 0.5, 0.9, 0.98, 1.0, -1.0, *NEAR_FOLD]


@pytest.mark.parametrize("delta", ROOT_DELTAS)
def test_single_step_root_matches_the_per_point_oracle(delta):
    # Each step evaluates its three residuals as one stack, and a grid call
    # stacks the stencils of all its rows; the root, the step count and the
    # flag must be those of one evaluation per point, alone and in the grid.
    x_ref, iterations_ref, converged_ref = solve_single_step(delta)
    alone = calibrate_single_step(delta)
    in_grid = calibrate_single_step(ROOT_DELTAS)[ROOT_DELTAS.index(delta)]
    for cal in (alone, in_grid):
        x = np.array([cal.omega1_over_g, cal.t_units])
        assert np.array_equal(x, x_ref) and x.tobytes() == x_ref.tobytes()
        assert (cal.iterations, cal.converged) == (iterations_ref, converged_ref)


def test_single_step_root_cap_clears_converged_flag(monkeypatch):
    monkeypatch.setattr(optimize, "_ROOT_MAX_ITERATIONS", 1)
    cal = calibrate_single_step(0.5)
    assert not cal.converged
    assert cal.iterations == 1


def test_single_step_method_switches_at_the_bound(monkeypatch):
    # Within the bound only the root solve runs; beyond it only the minimiser.
    calls = []
    for name in ("_solve_single_step", "_minimize_single_step"):
        method = getattr(optimize, name)

        def counting(name=name, method=method):
            calls.append(name)
            return method()

        monkeypatch.setattr(optimize, name, counting)
    for delta in (SINGLE_STEP_BOUND, -SINGLE_STEP_BOUND):
        assert calibrate_single_step(delta).method == "root solve"
    assert calls == ["_solve_single_step"] * 2
    calls.clear()
    assert calibrate_single_step(1.1).method == "d^2 minimisation"
    assert calls == ["_minimize_single_step"]
    calls.clear()
    grid = [1.1, SINGLE_STEP_BOUND, -1.1, -SINGLE_STEP_BOUND]
    assert [cal.method for cal in calibrate_single_step(grid)] == ["d^2 minimisation", "root solve"] * 2
    assert calls == ["_solve_single_step"] * 2 + ["_minimize_single_step"] * 2


BEYOND_THE_BOUND = [d for d in TABLE2 if d > SINGLE_STEP_BOUND] + [
    1.001, 1.01, 1.05, 2.2, 2.4, 2.5, 2.6, 2.8, 3.0, -1.5, -2.5, -3.0,
]


@pytest.mark.parametrize("delta", BEYOND_THE_BOUND)
def test_single_step_minimum_no_worse_than_nelder_mead_oracle(delta):
    cal = calibrate_single_step(delta)
    x = (cal.omega1_over_g, cal.t_units)
    x_oracle, _, _ = minimize_single_step(delta)
    assert cal.converged
    assert cal.distance == single_step_d2(delta, x)
    # 1e-14 leaves room for the h^2 bias of the central differences.
    assert cal.distance <= single_step_d2(delta, x_oracle) + 1e-14
    if abs(delta) >= 1.1:
        # Same branch.  Nearer the fold the oracle itself stops early: it is
        # 3.6e-6 off in T1 at 1.05g and 3.6e-5 at 1.01g.
        assert np.max(np.abs(np.array(x) - x_oracle)) < 2e-6


#: How far each 1e-6 ring rise must stand above the rounding noise of d^2
#: at the point, the spread of d^2 over its +-3-ulp nudges.  The smallest
#: margins measured are 97x at 2.6g, 118x at -2.5g and 424x at 1.05g, the
#: flattest row (a rise of 1.9e-16 against a spread of 4.5e-19).
RISE_OVER_ROUNDING = 50.0


def _rounding_spread(delta, x):
    ulp = np.spacing(x)
    nudged = [single_step_d2(delta, x + np.array(k) * ulp) for k in itertools.product(range(-3, 4), repeat=2)]
    return max(nudged) - min(nudged)


@pytest.mark.parametrize("delta", [d for d in BEYOND_THE_BOUND if abs(d) >= 1.05])
def test_single_step_minimum_is_a_local_minimum(delta):
    cal = calibrate_single_step(delta)
    x = np.array([cal.omega1_over_g, cal.t_units])
    spread = _rounding_spread(delta, x)
    for direction in ((1, 0), (0, 1), (1, 1), (1, -1)):
        for sign in (1.0, -1.0):
            moved = x + sign * 1e-6 * np.array(direction, dtype=float)
            rise = single_step_d2(delta, moved) - cal.distance
            assert rise > RISE_OVER_ROUNDING * spread, (direction, sign, rise, spread)


#: Largest distance, in omega1 or T1, of the calibrated minimum from the
#: Richardson reference: the h^2 bias of the central differences, measured
#: at up to 1.6e-8 (T1 at 2g) at 1.05-2g and 2.73e-7 at 3g.  A stop looser
#: than the bias would add its own error on top.
RICHARDSON_BOUNDS = {1.05: 2e-8, 1.1: 2e-8, 1.2: 2e-8, 1.5: 2e-8, 1.8: 2e-8, 2.0: 2e-8, 3.0: 3e-7}


@pytest.mark.parametrize("delta", RICHARDSON_BOUNDS)
def test_single_step_minimum_lies_within_its_bias_of_the_richardson_reference(delta):
    cal = calibrate_single_step(delta)
    x = np.array([cal.omega1_over_g, cal.t_units])
    assert np.max(np.abs(x - richardson_minimum(delta, x))) <= RICHARDSON_BOUNDS[delta]


def test_richardson_reference_is_stable_in_its_step():
    # Halving h moves the reference by about its own O(h^4) error, at most
    # 1.1e-9 (at 1.05g): an order below the bounds it checks.
    for delta in RICHARDSON_BOUNDS:
        cal = calibrate_single_step(delta)
        ref = richardson_minimum(delta, np.array([cal.omega1_over_g, cal.t_units]))
        halved = richardson_minimum(delta, ref, h=RICHARDSON_STEP / 2.0)
        assert np.max(np.abs(halved - ref)) <= 2e-9, delta


@pytest.mark.parametrize("delta", [1.0000001, 1.00001])
def test_single_step_minimum_just_beyond_the_bound(delta):
    # d^2 <= 1e-16 up to 1.0001g: the landscape is flat to rounding, and a
    # Newton step that raises d^2 must not be kept.
    cal = calibrate_single_step(delta)
    assert cal.method == "d^2 minimisation"
    assert cal.converged
    assert cal.distance <= 1e-16


NEWTON_DELTAS = [d for d in TABLE2 if d > SINGLE_STEP_BOUND] + [1.0000001, 1.00001, -1.5, 2.5, 3.0, 7.4, 8.0]


@pytest.mark.parametrize("delta", NEWTON_DELTAS)
def test_single_step_minimum_matches_the_per_point_oracle(delta):
    # Each Newton step evaluates its 8-point stencil ring as one request, and
    # a grid call stacks the requests of all its rows; the point, the step
    # count and the flag must be those of one evaluation per point.
    x_ref, iterations_ref, converged_ref = newton_single_step(delta)
    alone = calibrate_single_step(delta)
    in_grid = calibrate_single_step(NEWTON_DELTAS)[NEWTON_DELTAS.index(delta)]
    for cal in (alone, in_grid):
        x = np.array([cal.omega1_over_g, cal.t_units])
        assert x.tobytes() == x_ref.tobytes()
        assert (cal.iterations, cal.converged) == (iterations_ref, converged_ref)


def test_single_step_minimum_is_local_not_global():
    # The minimiser follows the resonant branch.  At 1.1g another basin, far
    # from it in omega1, lies lower: the result is the local minimum on the
    # resonant branch, not the smallest d^2 in the search box.
    cal = calibrate_single_step(1.1)
    assert (round(cal.omega1_over_g, 3), round(cal.t_units, 3)) == (3.747, 1.233)
    assert round(cal.distance, 9) == 9.144e-6
    x, _, _ = minimize_single_step(1.1, start=(6.1, 1.33))
    assert (round(x[0], 3), round(x[1], 3)) == (6.127, 1.326)
    assert round(single_step_d2(1.1, x), 9) == 8.601e-6
    assert single_step_d2(1.1, x) < cal.distance


def test_single_step_newton_cap_clears_converged_flag(monkeypatch):
    monkeypatch.setattr(optimize, "_NEWTON_MAX_ITERATIONS", 1)
    assert not calibrate_single_step(1.5).converged


def _bits(cal):
    """Everything a calibration reports, as bytes where it is a number."""
    numbers = (cal.delta_over_g, cal.t_units, cal.omega1_over_g, cal.g1, cal.g2, cal.distance)
    return [np.asarray(v).tobytes() for v in numbers] + [cal.iterations, cal.converged, cal.method]


_MIXED = [round(-3.0 + 0.05 * k, 2) for k in range(121)]  # [-3g, 3g] in 0.05g steps
random.Random(0).shuffle(_MIXED)
GRIDS = {
    "table1": cli._TABLE_GRID,
    "table2": cli._TABLE2_GRID,
    "mixed": _MIXED,
    "repeated": [0.5, 1.5, 0.5, 1.5, 1.5, 0.5],
    "one root row": [0.7],
    "one minimiser row": [1.7],
}


@pytest.mark.parametrize("name", GRIDS)
def test_grid_call_gives_each_row_the_bits_it_gets_alone(name):
    grid = GRIDS[name]
    found = calibrate_single_step(grid)
    assert isinstance(found, list) and len(found) == len(grid)
    for delta, cal in zip(grid, found):
        assert _bits(cal) == _bits(calibrate_single_step(delta)), delta


def test_iteration_caps_inside_a_grid(monkeypatch):
    # With lower caps some rows of each method stop at the cap while the
    # others converge; each row keeps the bits, count and flag it gets alone.
    monkeypatch.setattr(optimize, "_ROOT_MAX_ITERATIONS", 4)
    monkeypatch.setattr(optimize, "_NEWTON_MAX_ITERATIONS", 6)
    grid = [0.0, 0.9, 1.5, 0.3, 1.05, 1.0, 3.0, 1.8, -0.5, 0.98, 1.1, 2.0]
    found = calibrate_single_step(grid)
    for delta, cal in zip(grid, found):
        assert _bits(cal) == _bits(calibrate_single_step(delta)), delta
    for method, cap in (("root solve", 4), ("d^2 minimisation", 6)):
        rows = [cal for cal in found if cal.method == method]
        assert {cal.converged for cal in rows} == {True, False}, method
        assert all(cal.iterations == cap for cal in rows if not cal.converged), method
        assert all(cal.iterations < cap for cal in rows if cal.converged), method


def test_mixed_grid_interleaves_both_methods():
    inside = [abs(d) <= SINGLE_STEP_BOUND for d in _MIXED]
    assert sum(a != b for a, b in zip(inside, inside[1:])) > 20
    assert {-2.0, -1.0, 0.0, 1.0, 2.0} <= set(_MIXED)


def _counting_gates(monkeypatch):
    """The list of ``single_step_gates`` calls the calibration makes from now on."""
    calls = []
    real = optimize.single_step_gates
    monkeypatch.setattr(optimize, "single_step_gates", lambda *a: calls.append(a) or real(*a))
    return calls


def test_grid_call_edge_inputs(monkeypatch):
    assert calibrate_single_step([]) == []
    assert calibrate_single_step(()) == []
    calls = _counting_gates(monkeypatch)
    for bad, name in ((math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")):
        for grid in ([bad], [0.5, bad], [0.5, 1.5, bad, 2.0]):
            with pytest.raises(ContractViolationError, match=f"got {name}$"):
                calibrate_single_step(grid)
    assert calls == []  # rejected before any search


def _gate_call_args(monkeypatch, deltas):
    """The arguments of each ``single_step_gates`` call that calibrating ``deltas`` makes."""
    calls = _counting_gates(monkeypatch)
    calibrate_single_step(deltas)
    monkeypatch.undo()
    return calls


def _gate_calls(monkeypatch, deltas):
    return len(_gate_call_args(monkeypatch, deltas))


def _gate_points(monkeypatch, deltas):
    """Gates the calibration builds: the broadcast sizes of its ``single_step_gates`` calls."""
    return sum(np.broadcast(*args).size for args in _gate_call_args(monkeypatch, deltas))


#: single_step_gates calls of one detuning alone: one per Gauss-Newton step
#: plus the last stencil (a step tried doubled near the fold requests both
#: stencils at once); for the minimiser, one 3 x 3 stencil at the start
#: and one per step-halving trial inside the search box (an accepted trial's
#: stencil is the next step's model); then one final call that builds the
#: gate at the returned point for its invariants.
ALONE_CALLS = {
    0.0: 2, 0.5: 5, -0.5: 5, 0.9: 7, 1.0: 9, -1.0: 9,
    1.1: 10, 1.2: 9, 1.5: 7, 1.8: 6, 2.0: 7, -2.0: 7, 3.0: 15,
}


def test_one_detuning_makes_one_kernel_call_per_solver_request(monkeypatch):
    for delta, calls in ALONE_CALLS.items():
        assert _gate_calls(monkeypatch, delta) == calls, delta


#: Gates built for one detuning alone, and for the rows the ``table1`` command
#: (those within the bound) and the ``table2`` command calibrate.  A trial
#: the minimiser rejects costs its 8 off-centre points too, so 3.0g, which
#: halves often, builds the most.
POINTS = {1.1: 82, 1.5: 55, 2.0: 55, 3.0: 127}
GRID_POINTS = {"table1": 167, "table2": 620}


def test_calibration_evaluates_the_pinned_number_of_points(monkeypatch):
    for delta, points in POINTS.items():
        assert _gate_points(monkeypatch, delta) == points, delta
    table1 = [d for d in cli._TABLE_GRID if abs(d) <= SINGLE_STEP_BOUND]
    assert _gate_points(monkeypatch, table1) == GRID_POINTS["table1"]
    assert _gate_points(monkeypatch, cli._TABLE2_GRID) == GRID_POINTS["table2"]


def _linalg_calls(monkeypatch, deltas):
    """The ``numpy.linalg`` calls that ``optimize`` makes while calibrating ``deltas``.

    Every public function of ``numpy.linalg`` is wrapped, and a call counts
    when its caller is ``optimize``; the kernels' own calls are the stacked
    work the calibration is made of.  Returns (name, result) pairs.
    """
    calls = []
    for name in np.linalg.__all__:
        real = getattr(np.linalg, name)
        if isinstance(real, type):  # LinAlgError
            continue

        def counting(*args, name=name, real=real, **kwargs):
            result = real(*args, **kwargs)
            if sys._getframe(1).f_globals["__name__"] == optimize.__name__:
                calls.append((name, result))
            return result

        monkeypatch.setattr(np.linalg, name, counting)
    calibrate_single_step(deltas)
    monkeypatch.undo()
    return calls


#: Hessians of one detuning alone that are not positive definite and are
#: shifted (two at 7.4g); none are on Table 1's and Table 2's grids or at
#: 1.2, 1.5 and 1.8g.
SHIFTED_HESSIANS = {2.5: 1, 3.0: 1, 5.0: 1, 7.4: 2, 8.0: 1}


def test_solvers_make_no_numpy_linalg_call(monkeypatch):
    # Every step and every Hessian spectrum is a closed form on Python
    # floats, on positive definite Hessians and on shifted ones alike.
    table1 = [d for d in cli._TABLE_GRID if abs(d) <= SINGLE_STEP_BOUND]
    real = optimize._spectrum
    for deltas, shifted in [(table1, 0), (cli._TABLE2_GRID, 0), (1.2, 0), (1.5, 0), (1.8, 0),
                            *SHIFTED_HESSIANS.items()]:
        lows = []
        monkeypatch.setattr(optimize, "_spectrum", lambda *h: lows.append((found := real(*h))[0]) or found)
        assert _linalg_calls(monkeypatch, deltas) == [], deltas
        assert sum(low <= 0.0 for low in lows) == shifted, deltas


@pytest.mark.parametrize("name", [*ALONE_CALLS, "table1", "table2"])
def test_no_point_is_evaluated_twice_in_a_calibration(monkeypatch, name):
    # An accepted trial's stencil is already the next Newton step's model;
    # asking for it again would build its 9 gates twice.  The final call
    # rebuilds each returned point for its invariants and is left out.
    *solver_calls, _ = _gate_call_args(monkeypatch, GRIDS.get(name, name))
    points = np.concatenate([np.stack(np.broadcast_arrays(*args), axis=-1).reshape(-1, 3) for args in solver_calls])
    assert len(np.unique(points, axis=0)) == len(points)


@pytest.mark.parametrize("name", ["table1", "table2", "mixed", "repeated"])
def test_grid_call_makes_one_kernel_call_per_solver_round(monkeypatch, name):
    # A silent return to per-row loops would make the sum of the rows' calls.
    # Each row alone makes one final call after its solver rounds; the grid
    # makes one final call for all of its rows.
    grid = GRIDS[name]
    rounds = {delta: _gate_calls(monkeypatch, delta) - 1 for delta in set(grid)}
    slowest = [
        max([rounds[d] for d in grid if (abs(d) <= SINGLE_STEP_BOUND) == inside], default=0)
        for inside in (True, False)
    ]
    assert _gate_calls(monkeypatch, grid) == sum(slowest) + 1
    if name == "table2":
        assert slowest == [rounds[1.0], max(rounds[d] for d in grid if d > 1.0)]
        assert sum(slowest) == 8 + 9


@pytest.mark.parametrize("name", ["table1", "table2", "mixed", "alone"])
def test_invariants_are_those_of_the_gate_at_the_returned_point(name):
    # cli.cmd_gate rebuilds the one-step gate from (t_units, omega1_over_g);
    # the class data reported with them must be that gate's, bit for bit.
    if name == "alone":
        found = [calibrate_single_step(delta) for delta in ALONE_CALLS]
    else:
        found = calibrate_single_step(GRIDS[name])
    for cal in found:
        p = SystemParams(delta=cal.delta_over_g, omega1=cal.omega1_over_g)
        g1, g2 = makhlin_invariants(single_step_u(cal.t_units * math.pi / 2.0, p))
        got = (cal.g1, cal.g2, cal.distance)
        want = (g1, g2, cnot_distance(g1, g2))
        assert [np.asarray(v).tobytes() for v in got] == [np.asarray(v).tobytes() for v in want], cal.delta_over_g
