"""The two-step segment's closed form in ``sequences``: ``undriven_uv`` and ``entangling_u``."""

import numpy as np

from cnotsteer.qmat import frob_dist
from cnotsteer.sequences import SystemParams, entangling_u, two_step_time, undriven_uv


def test_uv_at_zero_time():
    u, v = undriven_uv(1.7, 0.0)
    assert u == 1.0 and v == 0.0


def test_uv_resonant_quarter_period():
    u, v = undriven_uv(0.0, np.pi / 4.0)
    assert abs(u - 1.0 / np.sqrt(2.0)) < 1e-12
    assert abs(v - 1.0 / np.sqrt(2.0)) < 1e-12


def test_uv_at_detuning_one():
    p = SystemParams(delta=1.0)
    u, v = undriven_uv(p.delta, two_step_time(p))
    assert abs(u - (0.6124 + 0.3536j)) < 1e-4
    assert abs(v - 0.7071) < 1e-4


def test_uv_normalization(rng):
    for _ in range(100):
        delta = rng.uniform(-3.0, 3.0)
        u, v = undriven_uv(delta, rng.uniform(0.0, 6.0))
        assert abs(abs(u) ** 2 + v**2 - 1.0) < 1e-12


def test_frame1_identity_at_zero_time():
    p = SystemParams(delta=0.4, g_tilde=0.1)
    assert frob_dist(entangling_u(0.0, p, 1), np.eye(4)) < 1e-15
