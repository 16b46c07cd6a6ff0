import numpy as np
import pytest

from cnotsteer import qmat
from cnotsteer.qmat import (
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    X1,
    XX,
    YY,
    Z2,
    ZZ,
    expm_skew,
    frob_dist,
    kron2,
    skewness_defect,
)
from cnotsteer.sequences import SystemParams

import propagator_oracle
from propagator_oracle import XY, YX, Z1, h_rwa_frame1, h_rwa_frame2


_PAULI = {"X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}


def _comm(a, b):
    return a @ b - b @ a


def test_generator_definitions_against_kron():
    for label in ("X1", "Y1", "Z1", "X2", "Y2", "Z2", "XX", "YY", "ZZ", "XY", "YX"):
        if label[1] in "12":  # single-qubit generator, e.g. "X1"
            sigma = _PAULI[label[0]]
            expected = 0.5j * (kron2(ID2, sigma) if label[1] == "1" else kron2(sigma, ID2))
        else:  # two-qubit product, e.g. "XY" acts as sigma^x on qubit 2, sigma^y on qubit 1
            expected = 0.5j * kron2(_PAULI[label[0]], _PAULI[label[1]])
        generator = getattr(qmat if hasattr(qmat, label) else propagator_oracle, label)
        assert frob_dist(generator, expected) == 0.0
        assert skewness_defect(generator) < 1e-15


def test_coupling_matrix_form():
    expected = 1j * np.array(
        [[0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]], dtype=complex
    )
    assert frob_dist(XX + YY, expected) < 1e-15


def test_commutation_structure():
    assert np.all(_comm(XX, YY) == 0)
    assert np.all(_comm(XY, YX) == 0)
    for other in (XX, YY, XY, YX):
        assert np.all(_comm(ZZ, other) == 0)


def test_adjoint_rotation_identity():
    # conjugating the coupling by a qubit-1 z rotation turns XX into XX cos + XY sin
    for theta in np.linspace(0.0, 2.0 * np.pi, 17, endpoint=False):
        lhs = expm_skew(-theta * Z1) @ (2.0 * XX) @ expm_skew(theta * Z1)
        rhs = 2.0 * (XX * np.cos(theta) + XY * np.sin(theta))
        assert frob_dist(lhs, rhs) < 1e-12


def test_frame1_composition():
    p = SystemParams(delta=0.0)
    assert frob_dist(h_rwa_frame1(p), XX + YY) == 0.0

    p = SystemParams(g_tilde=0.07)
    gen = h_rwa_frame1(p) - (XX + YY)
    assert frob_dist(gen, 0.07 * 0.5j * np.diag([1, -1, -1, 1])) < 1e-15

    p = SystemParams(delta=0.8, omega1=2.5, g_tilde=0.05)
    expected = -0.8 * Z2 + 2.5 * X1 + (XX + YY) + 0.05 * ZZ
    assert frob_dist(h_rwa_frame1(p), expected) < 1e-15


def test_frame2_at_zero_time_drops_detuning_term():
    p = SystemParams(delta=1.3, omega1=0.9, g_tilde=0.02)
    p_res = SystemParams(delta=0.0, omega1=0.9, g_tilde=0.02)
    assert frob_dist(h_rwa_frame2(p, 0.0), h_rwa_frame1(p_res)) < 1e-15


def test_frame2_resonant_is_time_independent():
    p = SystemParams(delta=0.0, omega1=1.7)
    for t in (0.0, 0.3, 2.9):
        assert frob_dist(h_rwa_frame2(p, t), h_rwa_frame1(p)) < 1e-15


def test_frame2_quarter_detuning_period():
    p = SystemParams(delta=0.6)
    t = np.pi / (2.0 * 0.6)
    assert frob_dist(h_rwa_frame2(p, t), YX - XY) < 1e-12


def test_frame2_periodicity():
    p = SystemParams(delta=1.1, omega1=0.4, g_tilde=0.03)
    period = 2.0 * np.pi / abs(p.delta)
    for t in (0.0, 0.45, 1.8):
        assert frob_dist(h_rwa_frame2(p, t + period), h_rwa_frame2(p, t)) < 1e-12
