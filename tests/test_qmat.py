import numpy as np
import pytest

from cnotsteer.qmat import (
    ContractViolationError,
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    expm_skew,
    frob_dist,
    kron2,
    unitarity_defect,
)
from cnotsteer.model import X1, XX, YY
from cnotsteer.sequences import CNOT

from conftest import random_skew


def test_expm_zero_is_identity():
    assert frob_dist(expm_skew(np.zeros((4, 4), dtype=complex)), np.eye(4)) == 0.0


def test_expm_pi_pulse_on_qubit1():
    # closed-form 2x2: exp(-i pi sigma_x / 2) = -i sigma_x, embedded on qubit 1
    expected = -1j * kron2(ID2, SIGMA_X)
    assert frob_dist(expm_skew(-np.pi * X1), expected) < 1e-12


def test_expm_quarter_period_coupling():
    got = expm_skew(-(np.pi / 4.0) * (XX + YY))
    s = 1.0 / np.sqrt(2.0)
    expected = np.array(
        [
            [1, 0, 0, 0],
            [0, s, -1j * s, 0],
            [0, -1j * s, s, 0],
            [0, 0, 0, 1],
        ],
        dtype=complex,
    )
    assert frob_dist(got, expected) < 1e-12


def test_expm_rejects_non_skew_input():
    for bad in (np.eye(4, dtype=complex), np.full((4, 4), np.nan, dtype=complex)):
        with pytest.raises(ContractViolationError):
            expm_skew(bad)


def test_expm_inverse_property(rng):
    for _ in range(20):
        g = random_skew(rng, scale=rng.uniform(0.1, 10.0))
        assert frob_dist(expm_skew(g) @ expm_skew(-g), np.eye(4)) < 1e-12


def test_expm_one_parameter_group(rng):
    for _ in range(20):
        g = random_skew(rng, scale=rng.uniform(0.1, 5.0))
        s, t = rng.uniform(-2, 2, size=2)
        lhs = expm_skew(g * s) @ expm_skew(g * t)
        assert frob_dist(lhs, expm_skew(g * (s + t))) < 1e-10


def test_expm_output_unitary(rng):
    for _ in range(20):
        g = random_skew(rng, scale=rng.uniform(0.1, 10.0))
        assert unitarity_defect(expm_skew(g)) < 1e-12


def test_frob_dist_examples():
    assert frob_dist(CNOT, CNOT) == 0.0
    # tr[2I - CNOT - CNOT^dag] = 8 - 2 tr(CNOT) = 4
    assert abs(frob_dist(np.eye(4), CNOT) - 2.0) < 1e-12
    assert abs(frob_dist(np.eye(4), -np.eye(4)) - 4.0) < 1e-12


def test_frob_dist_triangle_inequality(rng):
    for _ in range(50):
        a, b, c = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(3))
        assert frob_dist(a, c) <= frob_dist(a, b) + frob_dist(b, c) + 1e-12


def test_kron2_basics():
    assert frob_dist(kron2(ID2, ID2), np.eye(4)) == 0.0
    assert frob_dist(kron2(SIGMA_Z, SIGMA_Z), np.diag([1, -1, -1, 1])) == 0.0
    assert frob_dist(kron2(SIGMA_X, SIGMA_Y), np.kron(SIGMA_X, SIGMA_Y)) == 0.0
