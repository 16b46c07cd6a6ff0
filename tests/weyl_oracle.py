"""Reference search for the canonical Weyl-chamber coordinates of a gate.

This is the candidate search that ``equivclass.weyl_coordinates`` used before
the closed-form fold replaced it.  It is kept unchanged as a test oracle: it
maps the spectral representative onto every class-preserving image inside
the reduced chamber, scores each image's closed-form invariants against
``makhlin_invariants(u)``, and breaks ties lexicographically.

The search starts from the package's spectral representative
(``equivclass._raw_coordinates``), so that it checks the fold alone: at a
point on the fold's pi/2 snap threshold, an independent representative that
differs in its last bit can land on the other side of the threshold, and the
two answers then differ by ``_WEYL_TOL`` for no fault of the fold.  The
representative itself is checked against ``raw_coordinates``, the extraction
``equivclass`` used before its coordinates came from the invariants'
magic-basis Gram matrix, kept here unchanged; ``folded_coordinates`` folds it
as ``equivclass._chamber_coordinates`` does.

The closed-form invariants of a chamber point, ``invariants_from_weyl``,
live here too: only this search and the tests use them.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from cnotsteer.equivclass import (
    _HALF_PI,
    _WEYL_TOL,
    _raw_coordinates,
    makhlin_invariants,
)
from cnotsteer.qmat import SIGMA_Y, Operator4, kron2, require_unitary

# Even sign changes and permutations generate the class symmetries of the
# canonical coordinates (together with shifts by pi along each axis).
_EVEN_SIGNS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))
_PERMS = tuple(itertools.permutations(range(3)))

_SYSY = kron2(SIGMA_Y, SIGMA_Y)
#: Rows pick the pairwise sums (s1 + s2, s1 + s3, s2 + s3) of three phases.
_COMBINE = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])


def raw_coordinates(u: np.ndarray) -> np.ndarray:
    """Some representative (c1, c2, c3) of the class of ``u``, in radians.

    Spectral extraction: the eigenphases of U (sy sy U^T sy sy) / sqrt(det U)
    are the exponent combinations +/-c1 -/+c2 +/-c3; half-angle bookkeeping
    on the sorted phases recovers a representative with c3 >= 0.  Works on
    the last two axes, so a stack of gates gives one row per member.
    """
    u_tilde = _SYSY @ u.swapaxes(-1, -2) @ _SYSY
    root_det = np.sqrt(np.linalg.det(u))[..., None, None]
    ev = np.linalg.eigvals((u @ u_tilde) / root_det)
    two_s = np.angle(ev) / math.pi
    two_s[two_s <= -0.5] += 2.0
    s = np.sort(two_s / 2.0, axis=-1)[..., ::-1]
    # The phases sum to an integer n: take 1 off the n largest, then rotate
    # them to the end.
    n = np.rint(s.sum(axis=-1)).astype(int)[..., None]
    k = np.arange(4)
    s = np.take_along_axis(s - (k < n), (k + n) % 4, axis=-1)
    c = s[..., :3] @ _COMBINE.T
    flip = c[..., 2] < 0
    c[flip, 0] = 1.0 - c[flip, 0]
    c[flip, 2] = -c[flip, 2]
    return c * math.pi


def folded_coordinates(u: np.ndarray) -> np.ndarray:
    """``raw_coordinates`` folded into the chamber by the package's own fold."""
    c = np.mod(raw_coordinates(u), math.pi)
    c = np.sort(np.minimum(c, math.pi - c), axis=-1)[..., ::-1]
    c[np.abs(c - _HALF_PI) <= _WEYL_TOL] = _HALF_PI
    return c


def invariants_from_weyl(point: np.ndarray | tuple[float, float, float]) -> tuple[complex, float]:
    """Invariants ``(G1, G2)`` of the canonical gate exp(-c1*XX - c2*YY - c3*ZZ)."""
    c1, c2, c3 = (float(c) for c in point)
    re = (
        math.cos(c1) ** 2 * math.cos(c2) ** 2 * math.cos(c3) ** 2
        - math.sin(c1) ** 2 * math.sin(c2) ** 2 * math.sin(c3) ** 2
    )
    im = -0.25 * math.sin(2 * c1) * math.sin(2 * c2) * math.sin(2 * c3)
    g2 = 4.0 * re - math.cos(2 * c1) * math.cos(2 * c2) * math.cos(2 * c3)
    return re + 1j * im, g2


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


def search_weyl_coordinates(u: Operator4) -> np.ndarray:
    """Canonical Weyl-chamber coordinates of the class of ``u``, by search.

    Extracts the eigenphases of the magic-basis symmetric product, then
    canonicalizes with the class symmetries (coordinate permutations, even
    sign changes, shifts by pi).  Among the candidates inside the chamber
    the one whose closed-form invariants best match ``makhlin_invariants(u)``
    is returned as an array ``(c1, c2, c3)``, with lexicographic
    tie-breaking; mirror-image classes therefore come back as their
    conjugate representative.
    """
    u = require_unitary(u, what="gate")
    g1, g2 = (x.item() for x in makhlin_invariants(u))
    raw = _raw_coordinates(u)
    best: np.ndarray | None = None
    best_err = math.inf
    for mirrored in (False, True):
        base = raw.copy()
        if mirrored:
            base[2] = -base[2]
        for cand in _chamber_candidates(base):
            w1, w2 = invariants_from_weyl((cand[0], cand[1], cand[2]))
            err = abs(w1 - g1) + abs(w2 - g2)
            if err < best_err - 1e-12:
                best, best_err = cand, err
            elif err < best_err + 1e-12 and best is not None and tuple(cand) > tuple(best):
                best = cand
    assert best is not None, "canonicalization produced no chamber candidate"
    return np.array([float(best[0]), float(best[1]), float(best[2])])
