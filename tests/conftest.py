from __future__ import annotations

from typing import Sequence

import numpy as np
import pytest

from cnotsteer.qmat import Operator4, kron2
from cnotsteer.sequences import LocalRotationSpec, euler_u2


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def random_unitary(rng: np.random.Generator, n: int = 4) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_skew(rng: np.random.Generator, n: int = 4, scale: float = 1.0) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    g = 0.5 * (a - a.conj().T)
    return scale * g / np.linalg.norm(g)


def spec_from_vector(v: Sequence[float]) -> LocalRotationSpec:
    """The rotation spec whose ``as_vector()`` is ``v`` (13 entries)."""
    v = list(map(float, v))
    if len(v) != 13:
        raise ValueError(f"expected 13 parameters, got {len(v)}")
    return LocalRotationSpec(
        post2=(v[0], v[1], v[2]),
        post1=(v[3], v[4], v[5]),
        pre2=(v[6], v[7], v[8]),
        pre1=(v[9], v[10], v[11]),
        phase=v[12],
    )


def post_matrix(spec: LocalRotationSpec) -> Operator4:
    """The rotation ``spec.realize`` applies after the entangler."""
    return kron2(euler_u2(*spec.post2), euler_u2(*spec.post1))


def pre_matrix(spec: LocalRotationSpec) -> Operator4:
    """The rotation ``spec.realize`` applies before the entangler."""
    return kron2(euler_u2(*spec.pre2), euler_u2(*spec.pre1))
