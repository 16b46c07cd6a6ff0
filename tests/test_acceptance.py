"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -v`` or ``-s`` to see them)."""

import math

import numpy as np
import pytest

from cnotsteer.equivclass import (
    cnot_distance,
    invariants_from_weyl,
    makhlin_invariants,
    weyl_coordinates,
)
from cnotsteer.model import SystemParams
from cnotsteer.propagate import entangling_u, evolve_stepwise
from cnotsteer.optimize import calibrate_single_step
from cnotsteer.qmat import frob_dist
from cnotsteer.sequences import (
    CNOT,
    DetuningOutOfRangeError,
    fit_local_rotations,
    single_step_rotations,
    single_step_u,
    two_step_entangler,
    two_step_rotations,
    two_step_time,
    weyl_trajectory,
)
from cnotsteer.verify import run_checks

from reference_data import (
    ENTANGLER_FRAME1_DELTA1,
    ENTANGLER_FRAME2_DELTA1,
    FIDELITY_DELTA15,
    SINGLE_STEP_U_DELTA1,
    TABLE1_SINGLE,
    TABLE1_T2,
    TABLE2,
)

HALF_PI = math.pi / 2.0


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def single_step_table():
    """Single-step calibrations over the full 0.0-2.0 grid (shared by 2, 3, 7)."""
    grid = [round(0.1 * k, 1) for k in range(21)]
    return {delta: calibrate_single_step(delta) for delta in grid}


def test_criterion_01_closed_form_gate_time():
    worst = 0.0
    for delta, t2_ref in TABLE1_T2.items():
        t2 = two_step_time(SystemParams(delta=delta)) / (math.pi / 4.0)
        worst = max(worst, abs(t2 - t2_ref))
    exact0 = two_step_time(SystemParams(delta=0.0)) == pytest.approx(
        math.pi / 4.0, abs=1e-15
    )
    _report(1, worst < 1e-4 and exact0,
            f"two-step gate time vs 21 reference rows, worst |dT2| = {worst:.2e}")


def test_criterion_02_single_step_calibration(single_step_table):
    worst_t = worst_om = worst_d2 = 0.0
    for delta, (t_ref, om_ref) in TABLE1_SINGLE.items():
        cal = single_step_table[delta]
        worst_t = max(worst_t, abs(cal.t_units - t_ref))
        worst_om = max(worst_om, abs(cal.omega1_over_g - om_ref))
        worst_d2 = max(worst_d2, cal.distance)
    ok = worst_t < 5e-3 and worst_om < 5e-3 and worst_d2 < 1e-10
    _report(2, ok, f"11 calibrated rows: worst |dT1| = {worst_t:.2e}, "
                   f"|dOmega| = {worst_om:.2e}, d2 = {worst_d2:.2e}")


def test_criterion_03_large_detuning_calibration(single_step_table):
    worst_t = worst_om = worst_g1 = worst_g2 = 0.0
    for delta, (t_ref, om_ref, g1_ref, g2_ref) in TABLE2.items():
        cal = single_step_table[delta]
        assert cal.invariants is not None
        worst_t = max(worst_t, abs(cal.t_units - t_ref))
        worst_om = max(worst_om, abs(cal.omega1_over_g - om_ref))
        worst_g1 = max(worst_g1, abs(cal.invariants.g1.real - g1_ref))
        worst_g2 = max(worst_g2, abs(cal.invariants.g2 - g2_ref))
    ok = worst_t < 5e-3 and worst_om < 5e-3 and worst_g1 < 2e-3 and worst_g2 < 2e-3
    _report(3, ok, f"11 closest-class rows: worst |dT1| = {worst_t:.2e}, "
                   f"|dOmega| = {worst_om:.2e}, |dG1| = {worst_g1:.2e}, |dG2| = {worst_g2:.2e}")


def test_criterion_04_worked_matrices():
    p = SystemParams(delta=1.0)
    t2 = two_step_time(p)
    err1 = float(np.max(np.abs(entangling_u(t2, p, 1) - ENTANGLER_FRAME1_DELTA1)))
    err2 = float(np.max(np.abs(entangling_u(t2, p, 2) - ENTANGLER_FRAME2_DELTA1)))
    ps = SystemParams(delta=1.0, omega1=3.7781)
    err3 = float(np.max(np.abs(single_step_u(1.2753 * HALF_PI, ps) - SINGLE_STEP_U_DELTA1)))
    ok = max(err1, err2, err3) < 1e-3
    _report(4, ok, f"delta = g propagators entrywise: frame1 {err1:.2e}, "
                   f"frame2 {err2:.2e}, single-step {err3:.2e}")


def test_criterion_05_fidelity_at_delta_15(single_step_table):
    cal = single_step_table[1.5]
    p = SystemParams(delta=1.5, omega1=cal.omega1_over_g)
    u = single_step_u(cal.t_units * HALF_PI, p)
    fit = fit_local_rotations(u, CNOT)
    ok = fit.fidelity is not None and abs(fit.fidelity - FIDELITY_DELTA15) < 1e-3
    _report(5, ok, f"optimized delta = 1.5g gate fidelity = "
                   f"{fit.fidelity:.4f} (reference {FIDELITY_DELTA15})")


def test_criterion_06_exact_cnot_assembly(single_step_table):
    # resonance: analytic rotations, both sequences
    p0 = SystemParams(delta=0.0)
    d_two = frob_dist(two_step_rotations(p0, 1).realize(two_step_entangler(p0, frame=1)), CNOT)
    p0s = SystemParams(delta=0.0, omega1=math.sqrt(15.0))
    d_one = frob_dist(single_step_rotations().realize(single_step_u(HALF_PI, p0s)), CNOT)

    # delta = g: closed-form rotation dressing, both sequences
    p1 = SystemParams(delta=1.0)
    fit_two = fit_local_rotations(two_step_entangler(p1, frame=1), CNOT)
    cal = single_step_table[1.0]
    p1s = SystemParams(delta=1.0, omega1=cal.omega1_over_g)
    fit_one = fit_local_rotations(single_step_u(cal.t_units * HALF_PI, p1s), CNOT)

    ok = (
        d_two < 1e-10
        and d_one < 1e-10
        and fit_two.distance < 1e-3
        and fit_one.distance < 1e-3
        and fit_two.fidelity is not None and 1.0 - fit_two.fidelity < 1e-6
        and fit_one.fidelity is not None and 1.0 - fit_one.fidelity < 1e-6
    )
    _report(6, ok, f"resonant analytic: {d_two:.1e} / {d_one:.1e}; "
                   f"delta = g fitted: {fit_two.distance:.1e} / {fit_one.distance:.1e}")


def test_criterion_07_crossover_bounds(single_step_table):
    ok_small = all(single_step_table[d].distance < 1e-10 for d in (0.0, 0.5, 1.0))
    ok_large = all(single_step_table[d].distance > 1e-4 for d in (1.2, 1.5, 2.0))
    two_step_time(SystemParams(delta=2.0))  # must not raise at the bound
    raised = False
    try:
        two_step_time(SystemParams(delta=2.0 + 1e-9))
    except DetuningOutOfRangeError:
        raised = True
    ok = ok_small and ok_large and raised
    _report(7, ok, "d2 crossover at |delta| = g and hard bound at |delta| = 2g")


def test_criterion_08_property_suite():
    results = run_checks(seed=42)
    for r in results:
        print("   ", f"{r.name}: worst {r.worst:.3e} (tol {r.tolerance:.1e})")
    ok = all(r.passed for r in results)
    _report(8, ok, f"{sum(r.passed for r in results)}/{len(results)} property checks passed")


def test_criterion_09_trajectory_endpoints(single_step_table):
    cal1 = single_step_table[1.0]
    p1 = SystemParams(delta=1.0, omega1=cal1.omega1_over_g)
    end1 = weyl_trajectory(p1, cal1.t_units * HALF_PI, n_samples=33)[-1].point
    err1 = max(abs(end1.c1 - HALF_PI), abs(end1.c2), abs(end1.c3))

    cal15 = single_step_table[1.5]
    p15 = SystemParams(delta=1.5, omega1=cal15.omega1_over_g)
    end15 = weyl_trajectory(p15, cal15.t_units * HALF_PI, n_samples=33)[-1].point
    inv15 = invariants_from_weyl(end15)
    err15 = max(abs(inv15.g1 - 0.0476), abs(inv15.g2 - 0.9898))

    ok = err1 < 2e-3 and err15 < 2e-3
    _report(9, ok, f"delta = g endpoint off CNOT by {err1:.2e}; "
                   f"delta = 1.5g final invariants off by {err15:.2e}")


def test_criterion_10_oracle_equivalence():
    p = SystemParams(delta=1.0)
    t = math.pi / 4.0
    ref = entangling_u(t, p, 2)
    err = frob_dist(evolve_stepwise(p, t, steps=4096), ref)

    p2 = SystemParams(delta=1.3, g_tilde=0.05)
    ref2 = entangling_u(2.0, p2, 2)
    ratio = frob_dist(evolve_stepwise(p2, 2.0, steps=128), ref2) / frob_dist(
        evolve_stepwise(p2, 2.0, steps=256), ref2
    )
    ok = err < 1e-6 and abs(ratio - 4.0) < 0.8
    _report(10, ok, f"stepwise vs closed form: {err:.2e} at 4096 steps; "
                    f"halving ratio {ratio:.3f}")
