"""Reference search for the single-step calibration beyond the bound.

This is the three-pass bounded Nelder-Mead on d^2 that
``optimize.calibrate_single_step`` used beyond ``|delta| = g`` before Newton
steps on d^2 replaced it.  It is kept as a test oracle: the in-bound root
solve must reach at least the d^2 it reaches, and beyond the bound the Newton
minimum must reach it too, on the same branch.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from cnotsteer.optimize import SINGLE_STEP_BOUNDS, SINGLE_STEP_START, _single_step_objective
from nelder_mead import NMOptions, nelder_mead

_SEARCH = NMOptions(bounds=SINGLE_STEP_BOUNDS)

#: Initial-simplex edges for the polish passes that resolve flat basins.
_POLISH_EDGES = (0.002, 0.0001)


def minimize_single_step(delta_over_g: float) -> tuple[np.ndarray, int, bool]:
    """Closest class by bounded Nelder-Mead on d^2, polished twice."""
    objective = _single_step_objective(delta_over_g)

    res = nelder_mead(objective, np.array(SINGLE_STEP_START), _SEARCH)
    iterations = res.iterations
    converged = res.converged
    for edge in _POLISH_EDGES:
        res = nelder_mead(objective, res.x, replace(_SEARCH, initial_edge=edge))
        iterations += res.iterations
        converged = converged and res.converged
    return res.x, iterations, converged
