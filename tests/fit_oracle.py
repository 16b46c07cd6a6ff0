"""Reference search for the local dressing of an entangler.

This is the bounded Nelder-Mead search over the 13-parameter rotation spec
that ``sequences.fit_local_rotations`` used before the closed-form KAK
dressing replaced it.  It is kept unchanged as a test oracle: the closed
form must reach at least the distance this search reaches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from cnotsteer.model import SystemParams
from cnotsteer.qmat import Operator4, frob_dist, require_unitary
from cnotsteer.sequences import (
    LocalRotationSpec,
    single_step_rotations,
    two_step_rotations,
)
from conftest import spec_from_vector
from nelder_mead import NMOptions, nelder_mead


@dataclass(frozen=True)
class SearchResult:
    """Outcome of the reference search."""

    rotations: LocalRotationSpec
    distance: float  # Frobenius distance of the dressed gate to the target
    fidelity: float | None  # None when the intrinsic fidelity is undefined
    restarts_used: int
    history: tuple[float, ...]  # best-so-far distance after each restart


_FIT_BOUNDS = tuple((-2.0 * math.pi, 2.0 * math.pi) for _ in range(13))
# Dressed-gate distance below which further restarts cannot matter:
# 1 - F < 1e-8 already.
_FIT_EARLY_STOP = 1e-4


def search_local_rotations(
    u_ent: Operator4,
    target: Operator4,
    seed: int = 42,
    n_restarts: int = 32,
    warm_starts: Sequence[LocalRotationSpec] | None = None,
    max_iterations: int = 4000,
) -> SearchResult:
    """Fit pre/post rotations (and a phase) taking ``u_ent`` to ``target``.

    Minimizes the Frobenius distance of the dressed gate over the
    13-parameter rotation spec with bounded Nelder-Mead, using the resonant
    analytic rotations as warm starts followed by ``n_restarts`` seeded
    random restarts; each restart is polished with a small-edge rerun.  The
    best distance is monotone over restarts, and the search stops early once
    the dressed gate is within 1e-4 of the target (1 - F < 1e-8).
    """
    u_ent = require_unitary(u_ent, what="entangler")
    target = require_unitary(target, what="target")

    def objective(v: np.ndarray) -> float:
        spec = spec_from_vector(v)
        return frob_dist(spec.realize(u_ent), target)

    if warm_starts is None:
        warm_starts = (two_step_rotations(SystemParams(), 1), single_step_rotations())
    rng = np.random.default_rng(seed)
    starts = [w.as_vector() for w in warm_starts]
    starts += [rng.uniform(-math.pi, math.pi, size=13) for _ in range(n_restarts)]

    best_x: np.ndarray | None = None
    best_f = math.inf
    history: list[float] = []
    used = 0
    for x0 in starts:
        used += 1
        res = nelder_mead(
            objective, x0, NMOptions(bounds=_FIT_BOUNDS, max_iterations=max_iterations)
        )
        polished = nelder_mead(
            objective,
            res.x,
            NMOptions(bounds=_FIT_BOUNDS, max_iterations=max_iterations // 2, initial_edge=0.002),
        )
        if polished.fun < best_f:
            best_x, best_f = polished.x, polished.fun
        history.append(best_f)
        if best_f < _FIT_EARLY_STOP:
            break

    assert best_x is not None
    spec = spec_from_vector(best_x)
    radicand = 1.0 - best_f**2
    fid = math.sqrt(radicand) if radicand >= 0.0 else None
    return SearchResult(
        rotations=spec,
        distance=best_f,
        fidelity=fid,
        restarts_used=used,
        history=tuple(history),
    )
