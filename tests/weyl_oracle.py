"""Reference search for the canonical Weyl-chamber coordinates of a gate.

This is the candidate search that ``equivclass.weyl_coordinates`` used before
the closed-form fold replaced it.  It is kept unchanged as a test oracle: it
maps the spectral representative onto every class-preserving image inside
the reduced chamber, scores each image's closed-form invariants against
``makhlin_invariants(u)``, and breaks ties lexicographically.

The closed-form invariants of a chamber point, ``invariants_from_weyl``,
live here too: only this search and the tests use them.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from cnotsteer.equivclass import (
    InvariantPair,
    WeylPoint,
    _HALF_PI,
    _WEYL_TOL,
    _raw_coordinates,
    makhlin_invariants,
)
from cnotsteer.qmat import Operator4, require_unitary

# Even sign changes and permutations generate the class symmetries of the
# canonical coordinates (together with shifts by pi along each axis).
_EVEN_SIGNS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))
_PERMS = tuple(itertools.permutations(range(3)))


def invariants_from_weyl(point: WeylPoint | tuple[float, float, float]) -> InvariantPair:
    """Invariants of the canonical gate exp(-c1*XX - c2*YY - c3*ZZ)."""
    c1, c2, c3 = (point.c1, point.c2, point.c3) if isinstance(point, WeylPoint) else point
    re = (
        math.cos(c1) ** 2 * math.cos(c2) ** 2 * math.cos(c3) ** 2
        - math.sin(c1) ** 2 * math.sin(c2) ** 2 * math.sin(c3) ** 2
    )
    im = -0.25 * math.sin(2 * c1) * math.sin(2 * c2) * math.sin(2 * c3)
    g2 = 4.0 * re - math.cos(2 * c1) * math.cos(2 * c2) * math.cos(2 * c3)
    return InvariantPair(g1=re + 1j * im, g2=g2)


def _chamber_candidates(c: np.ndarray) -> list[np.ndarray]:
    """Class-preserving images of ``c`` that land in the reduced chamber."""
    out: list[np.ndarray] = []
    for perm in _PERMS:
        pc = c[list(perm)]
        for signs in _EVEN_SIGNS:
            v = np.mod(np.array(signs) * pc, math.pi)
            v[v > math.pi - _WEYL_TOL] -= math.pi  # snap values hugging pi to 0
            v = np.clip(v, 0.0, None)
            if (
                np.all(v <= _HALF_PI + _WEYL_TOL)
                and v[0] >= v[1] - _WEYL_TOL
                and v[1] >= v[2] - _WEYL_TOL
            ):
                v = np.minimum(v, _HALF_PI)
                v[1] = min(v[1], v[0])
                v[2] = min(v[2], v[1])
                out.append(v)
    return out


def search_weyl_coordinates(u: Operator4) -> WeylPoint:
    """Canonical Weyl-chamber coordinates of the class of ``u``, by search.

    Extracts the eigenphases of the magic-basis symmetric product, then
    canonicalizes with the class symmetries (coordinate permutations, even
    sign changes, shifts by pi).  Among the candidates inside the chamber
    the one whose closed-form invariants best match ``makhlin_invariants(u)``
    is returned, with lexicographic tie-breaking; mirror-image classes
    therefore come back as their conjugate representative.
    """
    u = require_unitary(u, what="gate")
    target = makhlin_invariants(u)
    raw = _raw_coordinates(u)
    best: np.ndarray | None = None
    best_err = math.inf
    for mirrored in (False, True):
        base = raw.copy()
        if mirrored:
            base[2] = -base[2]
        for cand in _chamber_candidates(base):
            inv = invariants_from_weyl((cand[0], cand[1], cand[2]))
            err = abs(inv.g1 - target.g1) + abs(inv.g2 - target.g2)
            if err < best_err - 1e-12:
                best, best_err = cand, err
            elif err < best_err + 1e-12 and best is not None and tuple(cand) > tuple(best):
                best = cand
    assert best is not None, "canonicalization produced no chamber candidate"
    return WeylPoint(c1=float(best[0]), c2=float(best[1]), c3=float(best[2]))
