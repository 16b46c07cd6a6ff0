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

from .equivclass import InvariantPair, cnot_distance, makhlin_invariants
from .model import SystemParams
from .sequences import DetuningOutOfRangeError, single_step_u, two_step_entangler, two_step_time
from .simplex import NMOptions, NMResult, nelder_mead

__all__ = [
    "NMOptions",
    "NMResult",
    "nelder_mead",
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


def calibrate_single_step(delta_over_g: float, opts: NMOptions | None = None) -> CalibrationResult:
    """Calibrate (omega1, t1) of the single-step sequence at the given detuning.

    Searches the lowest-branch box with bounded Nelder-Mead from the
    resonant solution, then polishes with two smaller restarts.  For
    ``|delta| <= g`` the achieved distance is numerically zero (an exact
    CNOT-class gate exists); beyond that the result is the closest class.

    The sign of the detuning is irrelevant to the class data and to the
    calibrated parameters.
    """
    if opts is None:
        opts = NMOptions(bounds=SINGLE_STEP_BOUNDS)
    objective = _single_step_objective(delta_over_g)

    res = nelder_mead(objective, np.array(SINGLE_STEP_START), opts)
    iterations = res.iterations
    converged = res.converged
    for edge in _POLISH_EDGES:
        res = nelder_mead(objective, res.x, replace(opts, initial_edge=edge))
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
        except DetuningOutOfRangeError as exc:
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


def _fmt(value: float | None) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return f"{value:.6f}"


def results_to_csv(results: list[CalibrationResult]) -> str:
    """Serialize calibration rows; failed rows have blank numeric fields."""
    lines = ["delta_over_g,T,omega1_over_g,G1_re,G1_im,G2,d2,fidelity,converged"]
    for r in results:
        g1_re = r.invariants.g1.real if r.invariants else math.nan
        g1_im = r.invariants.g1.imag if r.invariants else math.nan
        g2 = r.invariants.g2 if r.invariants else math.nan
        fields = [
            _fmt(r.delta_over_g),
            _fmt(r.t_units),
            _fmt(r.omega1_over_g),
            _fmt(g1_re),
            _fmt(g1_im),
            _fmt(g2),
            _fmt(r.distance),
            _fmt(r.fidelity),
            str(r.converged).lower(),
        ]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"
