"""Bounded Nelder-Mead simplex minimizer.

Standard reflect / expand / contract / shrink iteration with box constraints
enforced by coordinate clipping of every proposed vertex.  Clipping (rather
than penalties) is appropriate here because all calibration objectives are
smooth inside the box and their minima are interior.

The search is fully deterministic: the initial simplex steps along the
coordinate axes by a fixed fraction of each box width, and ties in the
vertex ordering are broken stably.

It drives the test oracles ``calibration_oracle`` and ``fit_oracle``, the
searches that the package's calibration and rotation dressing replaced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


#: The search stops when the simplex diameter falls below _X_TOLERANCE or the
#: spread of its vertex values below _F_TOLERANCE.
_X_TOLERANCE = 1e-10
_F_TOLERANCE = 1e-14


@dataclass(frozen=True)
class NMOptions:
    """Search controls.

    Attributes:
        bounds: per-dimension (lower, upper) closed intervals.
        max_iterations: iteration cap; hitting it clears the converged flag.
        initial_edge: initial simplex edge length as a fraction of box width.
    """

    bounds: Sequence[tuple[float, float]] = ()
    max_iterations: int = 5000
    initial_edge: float = 0.05

    def __post_init__(self) -> None:
        if not self.bounds:
            raise ValueError("bounds must be nonempty")
        for lo, hi in self.bounds:
            if lo > hi:
                raise ValueError(f"invalid interval ({lo}, {hi})")


@dataclass(frozen=True)
class NMResult:
    x: np.ndarray = field(repr=False)
    fun: float = np.inf
    iterations: int = 0
    converged: bool = False


def nelder_mead(f: Callable[[np.ndarray], float], x0: Sequence[float], opts: NMOptions) -> NMResult:
    """Minimize ``f`` over the box in ``opts`` starting from ``x0``.

    ``x0`` must lie inside the box.  Returns the best vertex, its value, the
    iteration count, and whether a tolerance (rather than the iteration cap)
    ended the search.
    """
    lo = np.array([b[0] for b in opts.bounds], dtype=float)
    hi = np.array([b[1] for b in opts.bounds], dtype=float)
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    if n != lo.size:
        raise ValueError(f"x0 has {n} entries but bounds describe {lo.size} dimensions")
    if np.any(x0 < lo) or np.any(x0 > hi):
        raise ValueError("x0 is outside the bounds")

    def clip(x: np.ndarray) -> np.ndarray:
        return np.minimum(np.maximum(x, lo), hi)

    verts = [x0.copy()]
    for i in range(n):
        step = opts.initial_edge * (hi[i] - lo[i])
        v = x0.copy()
        v[i] = v[i] + step if v[i] + step <= hi[i] else v[i] - step
        verts.append(clip(v))
    verts = np.array(verts)
    fv = np.array([f(v) for v in verts])

    iterations = 0
    while iterations < opts.max_iterations:
        order = np.argsort(fv, kind="stable")
        verts, fv = verts[order], fv[order]
        diam = float(np.max(np.abs(verts[1:] - verts[0]))) if n else 0.0
        if diam < _X_TOLERANCE or fv[-1] - fv[0] < _F_TOLERANCE:
            return NMResult(x=verts[0], fun=float(fv[0]), iterations=iterations, converged=True)
        iterations += 1

        centroid = verts[:-1].mean(axis=0)
        x_r = clip(centroid + (centroid - verts[-1]))
        f_r = f(x_r)
        if f_r < fv[0]:
            x_e = clip(centroid + 2.0 * (centroid - verts[-1]))
            f_e = f(x_e)
            if f_e < f_r:
                verts[-1], fv[-1] = x_e, f_e
            else:
                verts[-1], fv[-1] = x_r, f_r
        elif f_r < fv[-2]:
            verts[-1], fv[-1] = x_r, f_r
        else:
            if f_r < fv[-1]:
                x_c = clip(centroid + 0.5 * (x_r - centroid))
            else:
                x_c = clip(centroid - 0.5 * (centroid - verts[-1]))
            f_c = f(x_c)
            if f_c < min(f_r, fv[-1]):
                verts[-1], fv[-1] = x_c, f_c
            else:
                for i in range(1, n + 1):
                    verts[i] = clip(verts[0] + 0.5 * (verts[i] - verts[0]))
                    fv[i] = f(verts[i])

    k = int(np.argmin(fv))
    return NMResult(x=verts[k], fun=float(fv[k]), iterations=iterations, converged=False)
