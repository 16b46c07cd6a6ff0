"""Reference search for the local dressing of an entangler.

This is the bounded Nelder-Mead search over the 13-parameter rotation spec
that ``sequences.fit_local_rotations`` used before the closed-form KAK
dressing replaced it.  It is kept unchanged as a test oracle: the closed
form must reach at least the distance this search reaches.

The paper's single-step dressing, ``single_step_rotations``, lives here too:
no command dresses with it, as its three angles cannot reach CNOT between 0
and g.  The search's warm start and the paper-angle checks call it.

``closed_form_reference`` is the closed-form dressing with every sign made
per call: a permutation matrix and ``fix = diag(1, 1, 1, det(perm))``,
``det(o1)`` for the SO(4) sign of the KAK factors, and a LAPACK ``det`` for
the det = 1 check of each Euler extraction.  The package reads these signs
off structure built at import, and its fit must give the reference's bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from cnotsteer.equivclass import MAGIC_BASIS, to_magic
from cnotsteer.qmat import Operator4, frob_dist, require_unitary
from cnotsteer.sequences import (
    _KAK_MIX,
    _KAK_PERMS,
    _KAK_SIGNS,
    _KAK_TIE,
    _KAK_TOL,
    LocalRotationSpec,
    SystemParams,
    _paper_rotations,
    two_step_rotations,
)
from conftest import spec_from_vector
from nelder_mead import NMOptions, nelder_mead


def single_step_rotations(
    alpha2: float = 0.0, alpha1: float = 0.0, gamma1: float = 0.0
) -> LocalRotationSpec:
    """Single-step dressing rotations.

    The form of ``_paper_rotations`` with global phase 5 pi/4,
    ``(a, b, c) = (alpha2, alpha2, alpha1)`` and ``x1 = -(1 + gamma1)``.
    Defaults give the resonant rotations.
    """
    return _paper_rotations(alpha2, alpha2, alpha1, x1=-(1.0 + gamma1), phase=5.0 * math.pi / 4.0)


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


def _zyz_angles(u: np.ndarray) -> tuple[float, float, float]:
    """``sequences.zyz_angles`` with its det = 1 check through LAPACK."""
    u = np.asarray(u, dtype=complex)
    det = np.linalg.det(u)
    if abs(det - 1.0) > 1e-10:
        raise ValueError(f"zyz extraction requires det = 1, got {det!r}")
    if abs(u[0, 0]) < 1e-12:
        half_diff = float(np.angle(u[1, 0]))
        return half_diff, math.pi, -half_diff
    y = 2.0 * math.atan2(abs(u[1, 0]), abs(u[0, 0]))
    z_sum = -2.0 * float(np.angle(u[0, 0]))
    z_diff = 2.0 * float(np.angle(u[1, 0])) if abs(u[1, 0]) > 1e-12 else 0.0
    return 0.5 * (z_sum + z_diff), y, 0.5 * (z_sum - z_diff)


def _kak(u: Operator4) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``sequences._kak`` with the SO(4) sign read off ``det(o1)``."""
    ub = to_magic(u / np.linalg.det(u) ** 0.25)
    m = ub.T @ ub
    best = None
    for c in _KAK_MIX:
        v = np.linalg.eigh(m.real + c * m.imag)[1]
        mv = v.T @ m @ v
        off = float(np.linalg.norm(mv - np.diag(np.diag(mv))))
        if best is None or off < best[0]:
            best = (off, v, np.diag(mv))
        if off < _KAK_TOL:
            break
    _, v, spectrum = best
    if np.linalg.det(v) < 0.0:
        v[:, 0] = -v[:, 0]
    d = np.sqrt(spectrum)
    o1 = ub @ v / d
    if np.linalg.det(o1).real < 0.0:
        d[0], o1[:, 0] = -d[0], -o1[:, 0]
    return o1.real, d, v.T


def _local_factors(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``sequences._local_factors`` with the magic basis's adjoint made per call."""
    k = MAGIC_BASIS @ q @ MAGIC_BASIS.conj().T
    m = k.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    r, c = np.unravel_index(np.argmax(np.abs(m)), m.shape)
    a, b = m[:, c].reshape(2, 2), (m[r, :] / m[r, c]).reshape(2, 2)
    return a / np.sqrt(np.linalg.det(a)), b / np.sqrt(np.linalg.det(b))


def closed_form_reference(u_ent: Operator4, target: Operator4) -> LocalRotationSpec:
    """``sequences.fit_local_rotations`` with the per-call sign bookkeeping."""
    u_ent = require_unitary(u_ent, what="entangler")
    target = require_unitary(target, what="target")
    o1e, de, o2e = _kak(u_ent)
    o1t, dt, o2t = _kak(target)

    aligned = _KAK_SIGNS[:, None, :] * de[_KAK_PERMS][None, :, :]
    best_phase = np.exp(-1j * np.angle(aligned @ dt.conj()))
    residual = np.sum(np.abs(best_phase[..., None] * aligned - dt) ** 2, axis=-1)
    tied = np.flatnonzero(residual <= residual.min() * (1.0 + _KAK_TIE))
    i_sign, i_perm = np.unravel_index(tied[0], residual.shape)
    perm = np.eye(4)[_KAK_PERMS[i_perm]]
    fix = np.diag([1.0, 1.0, 1.0, np.linalg.det(perm)])
    post2, post1 = _local_factors(o1t @ np.diag(_KAK_SIGNS[i_sign]) @ fix @ perm @ o1e.T)
    pre2, pre1 = _local_factors(o2e.T @ perm.T @ fix @ o2t)

    spec = LocalRotationSpec(*map(_zyz_angles, (post2, post1, pre2, pre1)))
    overlap_phase = float(np.angle(np.trace(target.conj().T @ spec.realize(u_ent))))
    return replace(spec, phase=-overlap_phase)
