import math

import numpy as np
import pytest

from cnotsteer.equivclass import cnot_distance, makhlin_invariants
from cnotsteer.model import SystemParams, Z1, Z2, Y2, X1, X2, h_rwa_frame1
from cnotsteer.qmat import (
    ContractViolationError,
    expm_skew,
    frob_dist,
    unitarity_defect,
)
from cnotsteer.sequences import (
    CNOT,
    DetuningOutOfRangeError,
    FidelityUndefinedError,
    UnsupportedCouplingError,
    euler_u2,
    fidelity,
    fit_local_rotations,
    single_step_rotations,
    single_step_u,
    _two_step_angles,
    two_step_entangler,
    two_step_rotations,
    two_step_time,
    weyl_trajectory,
    zyz_angles,
)

from conftest import spec_from_vector
from reference_data import (
    SINGLE_STEP_ANGLES,
    SINGLE_STEP_U_DELTA1,
    OPTIMIZED_GATE_DELTA15,
    TWO_STEP_ANGLES_FRAME1,
    TWO_STEP_ANGLES_FRAME2,
)

HALF_PI = math.pi / 2.0


def test_canonical_cnot_properties():
    c = CNOT
    assert frob_dist(c @ c, np.eye(4)) == 0.0
    assert abs(np.linalg.det(c) - (-1.0)) < 1e-12
    inv = makhlin_invariants(c)
    assert abs(inv.g1) < 1e-12 and abs(inv.g2 - 1.0) < 1e-12


def test_two_step_time_values():
    assert two_step_time(SystemParams(delta=0.0)) == pytest.approx(np.pi / 4.0, abs=1e-15)
    t = two_step_time(SystemParams(delta=1.0))
    assert abs(t / (np.pi / 4.0) - 1.0383) < 1e-4
    t = two_step_time(SystemParams(delta=2.0))
    assert abs(t - np.pi / (2.0 * np.sqrt(2.0))) < 1e-14
    # sign of the detuning is immaterial
    assert two_step_time(SystemParams(delta=-1.3)) == two_step_time(
        SystemParams(delta=1.3)
    )


def test_two_step_time_detuning_bound():
    with pytest.raises(DetuningOutOfRangeError):
        two_step_time(SystemParams(delta=2.1))
    # The bound is checked before delta is squared, which overflows here.
    with pytest.raises(DetuningOutOfRangeError, match=r"requires \|delta\| <= 2g"):
        two_step_time(SystemParams(delta=-1e200))


def test_resonant_two_step_assembles_exact_cnot():
    p = SystemParams(delta=0.0)
    gate = two_step_rotations(p, 1).realize(two_step_entangler(p, frame=1))
    assert frob_dist(gate, CNOT) < 1e-10


@pytest.mark.parametrize("g_tilde", [0.0, 0.05, 0.3])
@pytest.mark.parametrize("frame", [1, 2])
def test_two_step_rotations_dress_exact_cnot(g_tilde, frame):
    worst = 0.0
    for delta in np.linspace(-2.0, 2.0, 401):
        p = SystemParams(delta=float(delta), g_tilde=g_tilde)
        gate = two_step_rotations(p, frame).realize(two_step_entangler(p, frame=frame))
        worst = max(worst, frob_dist(gate, CNOT))
    assert worst <= 1e-14


def test_two_step_angles_match_the_paper_at_delta_g():
    alpha1, beta = _two_step_angles(SystemParams(delta=1.0))
    assert beta == pytest.approx(1.0 / 3.0, abs=1e-15)  # arcsin(1/2) = pi/6
    assert np.allclose((alpha1 + beta, alpha1), TWO_STEP_ANGLES_FRAME1, rtol=0.0, atol=5e-5)
    assert np.allclose((beta - 2.0 * alpha1, beta), TWO_STEP_ANGLES_FRAME2, rtol=0.0, atol=5e-5)


def test_two_step_angles_at_the_range_ends_and_resonance():
    for sign in (1.0, -1.0):
        alpha1, beta = _two_step_angles(SystemParams(delta=2.0 * sign))
        assert alpha1 == pytest.approx(sign / math.sqrt(2.0), abs=1e-15)
        assert beta == pytest.approx(sign, abs=1e-15)
    # At resonance both frames give R_post = e^{-(pi/2) Y2} and
    # R_pre = e^{-(pi/2) Z2} e^{(pi/2)(X2 + X1)}, with phase pi/4.
    post = expm_skew(-HALF_PI * Y2)
    pre = expm_skew(-HALF_PI * Z2) @ expm_skew(HALF_PI * (X2 + X1))
    for frame in (1, 2):
        spec = two_step_rotations(SystemParams(), frame)
        assert frob_dist(spec.post_matrix(), post) <= 1e-15
        assert frob_dist(spec.pre_matrix(), pre) <= 1e-15
        assert spec.phase == math.pi / 4.0


@pytest.mark.parametrize("frame", [1, 2])
def test_two_step_recipes_are_continuous_in_delta(frame):
    # The triples are affine in (alpha1, beta), so no entry wraps by 2 pi
    # between neighbouring detunings (steps of 1e-3 g).
    vectors = np.array(
        [
            two_step_rotations(SystemParams(delta=float(d)), frame).as_vector()
            for d in np.linspace(-2.0, 2.0, 4001)
        ]
    )
    assert np.max(np.abs(np.diff(vectors, axis=0))) <= 0.1


def test_two_step_rotations_reject_an_unknown_frame():
    with pytest.raises(ValueError):
        two_step_rotations(SystemParams(delta=1.0), 3)


def test_two_step_class_invariants_across_settings(rng):
    for _ in range(12):
        p = SystemParams(delta=rng.uniform(0.0, 2.0), g_tilde=rng.uniform(0.0, 0.1))
        frame = int(rng.integers(1, 3))
        inv = makhlin_invariants(two_step_entangler(p, frame=frame))
        assert cnot_distance(inv) < 1e-10


def test_rotation_forms_match_generator_exponentials():
    # the Euler-realized specs must equal the explicit exponential products
    p = SystemParams(delta=1.0)
    alpha1, beta = _two_step_angles(p)
    frames = {1: (alpha1 + beta, alpha1 + beta, alpha1), 2: (beta - 2.0 * alpha1, beta, 0.0)}
    for frame, (a, b, c) in frames.items():
        spec = two_step_rotations(p, frame)
        post = expm_skew(-HALF_PI * Y2) @ expm_skew(-HALF_PI * (a * Z2 + c * Z1))
        pre = expm_skew(-HALF_PI * ((1 + b) * Z2 + c * Z1)) @ expm_skew(HALF_PI * (X2 + X1))
        assert frob_dist(spec.post_matrix(), post) < 1e-10
        assert frob_dist(spec.pre_matrix(), pre) < 1e-10

    a2, a1, g1 = SINGLE_STEP_ANGLES
    spec = single_step_rotations(a2, a1, g1)
    post = expm_skew(-HALF_PI * Y2) @ expm_skew(-HALF_PI * (a2 * Z2 + a1 * Z1))
    pre = expm_skew(-HALF_PI * ((1 + a2) * Z2 + a1 * Z1)) @ expm_skew(
        HALF_PI * (X2 - (1 + g1) * X1)
    )
    assert frob_dist(spec.post_matrix(), post) < 1e-10
    assert frob_dist(spec.pre_matrix(), pre) < 1e-10


def test_single_step_identity_at_zero_time():
    p = SystemParams(delta=0.7, omega1=3.8)
    assert frob_dist(single_step_u(0.0, p), np.eye(4)) < 1e-15


@pytest.mark.parametrize("delta", [0.0, -0.0, 1.0, -1.0, 2.0, -2.0])
def test_single_step_gate_is_the_frame1_evolution_bit_for_bit(delta):
    # The drive added to the undriven generator gives the bits of the full one.
    for omega1, t in [(3.8, 0.0), (math.sqrt(15.0), HALF_PI), (0.5, 2.0), (7.25, 0.3)]:
        p = SystemParams(delta=delta, omega1=omega1)
        assert single_step_u(t, p).tobytes() == expm_skew(-t * h_rwa_frame1(p)).tobytes()


def test_single_step_resonant_closed_form():
    p = SystemParams(delta=0.0, omega1=np.sqrt(15.0))
    got = single_step_u(np.pi / 2.0, p)
    corner = np.array(
        [[1, 0, 0, -1j], [0, 1, -1j, 0], [0, -1j, 1, 0], [-1j, 0, 0, 1]], dtype=complex
    ) / np.sqrt(2.0)
    assert frob_dist(got, -corner) < 1e-12


def test_single_step_resonant_sequence_is_exact_cnot():
    p = SystemParams(delta=0.0, omega1=np.sqrt(15.0))
    u = single_step_u(np.pi / 2.0, p)
    gate = single_step_rotations().realize(u)
    assert frob_dist(gate, CNOT) < 1e-12


def test_single_step_matches_reference_at_delta_one():
    p = SystemParams(delta=1.0, omega1=3.7781)
    got = single_step_u(1.2753 * HALF_PI, p)
    assert np.max(np.abs(got - SINGLE_STEP_U_DELTA1)) < 1e-3


def test_single_step_sequence_with_reference_angles():
    p = SystemParams(delta=1.0, omega1=3.7781)
    u = single_step_u(1.2753 * HALF_PI, p)
    gate = single_step_rotations(*SINGLE_STEP_ANGLES).realize(u)
    assert frob_dist(gate, CNOT) < 1e-3


def test_single_step_rejects_zz_coupling():
    p = SystemParams(delta=0.5, omega1=3.0, g_tilde=0.05)
    with pytest.raises(UnsupportedCouplingError):
        single_step_u(1.0, p)
    with pytest.raises(UnsupportedCouplingError):
        weyl_trajectory(p, 1.0, 4)


def test_resonant_drive_family_reaches_cnot_class():
    for n in (1, 2, 3):
        omega = math.sqrt((4 * n) ** 2 - 1)
        p = SystemParams(delta=0.0, omega1=omega)
        inv = makhlin_invariants(single_step_u(np.pi / 2.0, p))
        assert cnot_distance(inv) < 1e-12


def test_fidelity_of_target_is_one():
    assert fidelity(CNOT, CNOT) == 1.0


def test_fidelity_undefined_far_from_target():
    with pytest.raises(FidelityUndefinedError):
        fidelity(np.eye(4, dtype=complex), CNOT)


def test_fidelity_rejects_non_unitary_input():
    with pytest.raises(ContractViolationError):
        fidelity(np.full((4, 4), np.nan, dtype=complex), CNOT)


def test_fidelity_formula_against_reference_gate():
    # direct trace arithmetic on the 4-decimal reference form of the optimized gate
    diff = OPTIMIZED_GATE_DELTA15 - CNOT
    f = math.sqrt(1.0 - float(np.real(np.trace(diff.conj().T @ diff))))
    assert abs(f - 0.9448) < 1e-3


def test_fidelity_matches_frobenius_distance(rng):
    spec = spec_from_vector(rng.uniform(-0.05, 0.05, size=13))
    u = spec.realize(CNOT)
    d = frob_dist(u, CNOT)
    assert abs(fidelity(u, CNOT) - math.sqrt(1.0 - d**2)) < 1e-12


def test_euler_realization_and_extraction(rng):
    for _ in range(50):
        angles = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, size=3)
        u = euler_u2(*angles)
        assert unitarity_defect(u) < 1e-13
        assert abs(np.linalg.det(u) - 1.0) < 1e-12
        back = euler_u2(*zyz_angles(u))
        assert frob_dist(back, u) < 1e-12


def test_zyz_rejects_non_special_unitary():
    with pytest.raises(ValueError):
        zyz_angles(1j * np.eye(2))


def test_rotation_spec_vector_round_trip(rng):
    v = rng.uniform(-2.0, 2.0, size=13)
    spec = spec_from_vector(v)
    assert np.allclose(spec.as_vector(), v)
    with pytest.raises(ValueError):
        spec_from_vector(v[:12])


def test_fit_recovers_exact_cnot_at_resonance():
    p = SystemParams(delta=0.0)
    result = fit_local_rotations(two_step_entangler(p, frame=1), CNOT)
    assert result.fidelity is not None
    assert 1.0 - result.fidelity < 1e-8
    assert frob_dist(result.rotations.realize(two_step_entangler(p, frame=1)), CNOT) < 1e-4
