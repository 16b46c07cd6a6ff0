import numpy as np
import pytest

from cnotsteer.model import SystemParams, h_rwa_frame1
from cnotsteer.propagate import entangling_u, evolve_stepwise, undriven_uv
from cnotsteer.qmat import expm_skew, frob_dist, unitarity_defect
from cnotsteer.sequences import two_step_time

from reference_data import ENTANGLER_FRAME1_DELTA1, ENTANGLER_FRAME2_DELTA1


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


def test_frame1_matches_reference_at_delta_one():
    p = SystemParams(delta=1.0)
    got = entangling_u(two_step_time(p), p, 1)
    assert np.max(np.abs(got - ENTANGLER_FRAME1_DELTA1)) < 2e-4


def test_frame2_matches_reference_at_delta_one():
    p = SystemParams(delta=1.0)
    got = entangling_u(two_step_time(p), p, 2)
    assert np.max(np.abs(got - ENTANGLER_FRAME2_DELTA1)) < 2e-4


def test_frame1_equals_generator_exponential(rng):
    # dual route: closed form vs exponential of the static generator (drive off)
    for _ in range(10):
        p = SystemParams(delta=rng.uniform(-3.0, 3.0), g_tilde=rng.uniform(0.0, 0.1))
        t = rng.uniform(0.0, 3.0)
        assert frob_dist(entangling_u(t, p, 1), expm_skew(-t * h_rwa_frame1(p))) < 1e-12


def test_zz_coupling_factorizes():
    p0 = SystemParams(delta=0.9)
    pz = SystemParams(delta=0.9, g_tilde=0.08)
    t = 1.7
    phase = np.exp(-0.5j * 0.08 * t * np.array([1, -1, -1, 1]))
    for frame in (1, 2):
        want = phase[:, None] * entangling_u(t, p0, frame)
        assert frob_dist(entangling_u(t, pz, frame), want) < 1e-14


def test_frames_coincide_at_zero_detuning():
    p = SystemParams(delta=0.0, g_tilde=0.05)
    for t in (0.3, 1.1, 2.6):
        assert frob_dist(entangling_u(t, p, 1), entangling_u(t, p, 2)) < 1e-14


def test_propagators_unitary(rng):
    for _ in range(50):
        p = SystemParams(delta=rng.uniform(-3.0, 3.0), g_tilde=rng.uniform(0.0, 0.1))
        t = rng.uniform(0.0, 5.0)
        assert unitarity_defect(entangling_u(t, p, 1)) < 1e-12
        assert unitarity_defect(entangling_u(t, p, 2)) < 1e-12


def test_stepwise_single_slice_static_is_exact():
    p = SystemParams(delta=0.0, omega1=0.0, g_tilde=0.06)
    got = evolve_stepwise(p, 1.3, steps=1)
    assert frob_dist(got, expm_skew(-1.3 * h_rwa_frame1(p))) < 1e-13


def test_stepwise_converges_to_closed_form():
    p = SystemParams(delta=1.0)
    t = np.pi / 4.0
    got = evolve_stepwise(p, t, steps=4096)
    assert frob_dist(got, entangling_u(t, p, 2)) < 1e-6


def test_stepwise_static_drive_cross_check():
    p = SystemParams(delta=0.0, omega1=np.sqrt(15.0))
    got = evolve_stepwise(p, np.pi / 2.0, steps=4096)
    assert frob_dist(got, expm_skew(-(np.pi / 2.0) * h_rwa_frame1(p))) < 1e-6


def test_stepwise_second_order_convergence():
    p = SystemParams(delta=1.3, g_tilde=0.05)
    t = 2.0
    ref = entangling_u(t, p, 2)
    err_coarse = frob_dist(evolve_stepwise(p, t, steps=128), ref)
    err_fine = frob_dist(evolve_stepwise(p, t, steps=256), ref)
    ratio = err_coarse / err_fine
    assert abs(ratio - 4.0) < 0.8


def test_stepwise_validates_arguments():
    p = SystemParams()
    with pytest.raises(ValueError):
        evolve_stepwise(p, 1.0, steps=0)
    with pytest.raises(ValueError):
        evolve_stepwise(p, -1.0, steps=4)
