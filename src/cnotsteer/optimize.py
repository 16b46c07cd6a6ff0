"""Calibration drivers: find gate parameters that reach (or best approach)
the CNOT class at a given detuning.

``calibrate_single_step`` minimizes the squared invariant distance
``d^2 = |G1|^2 + |G2 - 1|^2`` of the single-step evolution over the Rabi
amplitude and the gate time.  The objective is oscillatory -- resonant
solutions exist for a whole family of drive amplitudes -- and the bounds
plus the starting point pin the search to the lowest branch.  Near the
largest detuning that still admits an exact CNOT the minimum sits in an
extremely flat basin, so the driver polishes the first solution with two
progressively smaller restarts; this keeps the reported parameters stable
to well below table precision.

``calibrate_two_step`` needs no search: the entangling time has a closed
form, which is cross-validated against the invariants of the assembled
sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .equivclass import InvariantPair, cnot_distance, csv_text, makhlin_invariants
from .model import SystemParams
from .qmat import ContractViolationError
from .sequences import single_step_u, two_step_entangler, two_step_time
from .simplex import NMOptions, nelder_mead

__all__ = [
    "CalibrationResult",
    "calibrate_single_step",
    "calibrate_two_step",
    "sweep",
    "results_to_csv",
    "SINGLE_STEP_BOUNDS",
    "SINGLE_STEP_START",
]

#: Search box for (omega1/g, T1) and the resonant-branch starting point.
SINGLE_STEP_BOUNDS = ((0.5, 8.0), (0.5, 2.5))
SINGLE_STEP_START = (math.sqrt(15.0), 1.0)

#: Search controls of the first pass; the polish passes shrink its edge.
_SEARCH = NMOptions(bounds=SINGLE_STEP_BOUNDS)
#: Initial-simplex edges for the polish passes that resolve flat basins.
_POLISH_EDGES = (0.002, 0.0001)


@dataclass(frozen=True)
class CalibrationResult:
    """Calibrated gate parameters and the achieved class data.

    ``t_units`` is the gate time as a multiple of the sequence's canonical
    unit (pi/2g for one-step, pi/4g for two-step).  ``fidelity`` is filled
    in only by callers that also dress with local rotations.  A failed row
    (for example a two-step request beyond the detuning bound) carries the
    message in ``error`` and NaN numeric fields.
    """

    delta_over_g: float
    kind: str  # "one-step" | "two-step"
    t_units: float
    omega1_over_g: float
    invariants: InvariantPair | None
    distance: float
    iterations: int
    converged: bool
    fidelity: float | None = None
    error: str | None = None


def _single_step_objective(delta_over_g: float):
    def objective(x: np.ndarray) -> float:
        p = SystemParams.from_ratios(delta_over_g=delta_over_g, omega1_over_g=float(x[0]))
        u = single_step_u(float(x[1]) * math.pi / 2.0, p)
        return cnot_distance(makhlin_invariants(u))

    return objective


def calibrate_single_step(delta_over_g: float) -> CalibrationResult:
    """Calibrate (omega1, t1) of the single-step sequence at the given detuning.

    Searches the lowest-branch box with bounded Nelder-Mead from the
    resonant solution, then polishes with two smaller restarts.  For
    ``|delta| <= g`` the achieved distance is numerically zero (an exact
    CNOT-class gate exists); beyond that the result is the closest class.

    The sign of the detuning is irrelevant to the class data and to the
    calibrated parameters.
    """
    objective = _single_step_objective(delta_over_g)

    res = nelder_mead(objective, np.array(SINGLE_STEP_START), _SEARCH)
    iterations = res.iterations
    converged = res.converged
    for edge in _POLISH_EDGES:
        res = nelder_mead(objective, res.x, replace(_SEARCH, initial_edge=edge))
        iterations += res.iterations
        converged = converged and res.converged

    omega, t_units = float(res.x[0]), float(res.x[1])
    p = SystemParams.from_ratios(delta_over_g=delta_over_g, omega1_over_g=omega)
    inv = makhlin_invariants(single_step_u(t_units * math.pi / 2.0, p))
    return CalibrationResult(
        delta_over_g=delta_over_g,
        kind="one-step",
        t_units=t_units,
        omega1_over_g=omega,
        invariants=inv,
        distance=cnot_distance(inv),
        iterations=iterations,
        converged=converged,
    )


def calibrate_two_step(delta_over_g: float) -> CalibrationResult:
    """Two-step gate time from the closed form, cross-checked by assembly.

    Raises:
        DetuningOutOfRangeError: ``|delta| > 2g``.
    """
    p = SystemParams.from_ratios(delta_over_g=delta_over_g)
    t2 = two_step_time(p)
    inv = makhlin_invariants(two_step_entangler(p, frame=1))
    return CalibrationResult(
        delta_over_g=delta_over_g,
        kind="two-step",
        t_units=t2 / (math.pi / 4.0),
        omega1_over_g=0.0,
        invariants=inv,
        distance=cnot_distance(inv),
        iterations=0,
        converged=True,
    )


def sweep(delta_values: list[float], mode: str) -> list[CalibrationResult]:
    """Calibrate a list of detunings; per-row failures are recorded, not raised."""
    if mode not in ("one-step", "two-step"):
        raise ValueError(f"mode must be 'one-step' or 'two-step', got {mode!r}")
    out: list[CalibrationResult] = []
    for delta in delta_values:
        try:
            if mode == "one-step":
                out.append(calibrate_single_step(delta))
            else:
                out.append(calibrate_two_step(delta))
        except ContractViolationError as exc:
            out.append(
                CalibrationResult(
                    delta_over_g=delta,
                    kind=mode,
                    t_units=math.nan,
                    omega1_over_g=math.nan,
                    invariants=None,
                    distance=math.nan,
                    iterations=0,
                    converged=False,
                    error=str(exc),
                )
            )
    return out


def results_to_csv(results: list[CalibrationResult]) -> str:
    """Serialize calibration rows; failed rows have blank numeric fields."""
    header = "delta_over_g,T,omega1_over_g,G1_re,G1_im,G2,d2,fidelity,converged".split(",")
    rows = []
    for r in results:
        inv = r.invariants
        rows.append([
            r.delta_over_g,
            r.t_units,
            r.omega1_over_g,
            inv.g1.real if inv else None,
            inv.g1.imag if inv else None,
            inv.g2 if inv else None,
            r.distance,
            r.fidelity,
            str(r.converged).lower(),
        ])
    return csv_text(header, rows)
