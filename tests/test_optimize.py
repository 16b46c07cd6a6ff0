import dataclasses
import math
import random

import numpy as np
import pytest

import cnotsteer.cli as cli
import cnotsteer.optimize as optimize
from cnotsteer.equivclass import cnot_distance, makhlin_invariants
from cnotsteer.model import SystemParams
from cnotsteer.optimize import SINGLE_STEP_BOUND, SINGLE_STEP_BOUNDS, calibrate_single_step
from cnotsteer.qmat import ContractViolationError
from cnotsteer.sequences import CNOT, fit_local_rotations, single_step_u

from calibration_oracle import minimize_single_step, newton_single_step, single_step_d2, solve_single_step
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
    from cnotsteer.equivclass import cnot_distance

    assert abs(cal.distance - cnot_distance(cal.invariants)) < 1e-12


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
    assert cal.invariants is not None
    assert abs(cal.invariants.g1.real - g1_ref) < 2e-3
    assert abs(cal.invariants.g2 - g2_ref) < 2e-3
    assert cal.distance > 1e-4


def test_calibration_symmetric_in_detuning_sign():
    plus = calibrate_single_step(0.8)
    minus = calibrate_single_step(-0.8)
    assert abs(plus.distance - minus.distance) < 1e-9
    assert plus.invariants is not None and minus.invariants is not None
    assert abs(plus.invariants.g1 - minus.invariants.g1) < 1e-9
    assert abs(plus.invariants.g2 - minus.invariants.g2) < 1e-9


def test_crossover_bounds():
    for delta in (0.0, 0.5, 1.0):
        assert calibrate_single_step(delta).distance < 1e-10
    for delta in (1.2, 1.5, 2.0):
        assert calibrate_single_step(delta).distance > 1e-4


def test_single_step_bounds_exposed():
    (om_lo, om_hi), (t_lo, t_hi) = SINGLE_STEP_BOUNDS
    assert om_lo < math.sqrt(15.0) < om_hi
    assert t_lo < 1.0 < t_hi


def test_single_step_root_stays_on_the_lower_branch():
    # The upper branch meets the lower one at the fold delta = g; a jump to
    # it shows as a T1 above its neighbours (as Nelder-Mead's 1.387 at 0.98g).
    grid = [calibrate_single_step(float(d)) for d in np.linspace(0.0, SINGLE_STEP_BOUND, 101)]
    t1 = [cal.t_units for cal in grid]
    assert all(b > a for a, b in zip(t1, t1[1:]))
    for cal in grid:
        assert cal.converged, cal.delta_over_g
        assert cal.distance < 1e-20, cal.delta_over_g
        assert cal.iterations <= 25, cal.delta_over_g


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
    return cnot_distance(makhlin_invariants(u)), fit_local_rotations(u, CNOT).distance


@pytest.mark.parametrize("delta", [0.5, 0.9, 0.98, 1.0])
def test_single_step_root_no_worse_than_nelder_mead_oracle(delta):
    cal = calibrate_single_step(delta)
    d2, dressed = _dressed_quality(delta, cal.omega1_over_g, cal.t_units)
    x, _, _ = minimize_single_step(delta)
    d2_oracle, dressed_oracle = _dressed_quality(delta, *x)
    assert d2 <= d2_oracle
    assert dressed <= dressed_oracle
    assert dressed < 1e-12


ROOT_DELTAS = [0.0, 0.3, -0.3, 0.5, 0.9, 0.98, 1.0]


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


@pytest.mark.parametrize("delta", [d for d in BEYOND_THE_BOUND if abs(d) >= 1.05])
def test_single_step_minimum_is_a_local_minimum(delta):
    cal = calibrate_single_step(delta)
    x = np.array([cal.omega1_over_g, cal.t_units])
    for direction in ((1, 0), (0, 1), (1, 1), (1, -1)):
        for sign in (1.0, -1.0):
            moved = x + sign * 1e-6 * np.array(direction, dtype=float)
            assert single_step_d2(delta, moved) >= cal.distance, (direction, sign)


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
    inv = cal.invariants
    numbers = (cal.delta_over_g, cal.t_units, cal.omega1_over_g, inv.g1, inv.g2, cal.distance)
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
#: plus the last stencil; for the minimiser, the start point, then one call
#: per Newton step for its 8-point stencil ring and one per step-halving
#: trial; then one final call that builds the gate at the returned point for
#: its invariants.
ALONE_CALLS = {0.0: 2, 0.5: 5, -0.5: 5, 0.9: 7, 1.0: 22, 1.1: 21, 1.5: 13, 2.0: 13, -2.0: 13, 3.0: 45}


def test_one_detuning_makes_one_kernel_call_per_solver_request(monkeypatch):
    for delta, calls in ALONE_CALLS.items():
        assert _gate_calls(monkeypatch, delta) == calls, delta


#: Gates built for one detuning alone, and for the rows the ``table1`` command
#: (those within the bound) and the ``table2`` command calibrate.  Stacking
#: the stencil ring changes how many calls build them, not how many there are.
POINTS = {1.1: 91, 1.5: 55, 2.0: 55, 3.0: 108}
GRID_POINTS = {"table1": 197, "table2": 694}


def test_stacking_the_ring_evaluates_no_extra_points(monkeypatch):
    for delta, points in POINTS.items():
        assert _gate_points(monkeypatch, delta) == points, delta
    table1 = [d for d in cli._TABLE_GRID if abs(d) <= SINGLE_STEP_BOUND]
    assert _gate_points(monkeypatch, table1) == GRID_POINTS["table1"]
    assert _gate_points(monkeypatch, cli._TABLE2_GRID) == GRID_POINTS["table2"]


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
        assert sum(slowest) == 21 + 20


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
        inv = makhlin_invariants(single_step_u(cal.t_units * math.pi / 2.0, p))
        got = (cal.invariants.g1, cal.invariants.g2, cal.distance)
        want = (inv.g1, inv.g2, cnot_distance(inv))
        assert [np.asarray(v).tobytes() for v in got] == [np.asarray(v).tobytes() for v in want], cal.delta_over_g
