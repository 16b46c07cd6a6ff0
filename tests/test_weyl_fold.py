"""Closed-form chamber fold (``weyl_coordinates``) against the reference
search it replaced, on random gates, chamber faces and the package's own
entanglers and trajectories; the Gram-matrix coordinates against the
sigma_y-transposed extraction they replaced, and across the sqrt(det U)
branch cut; and both class labels' invariance under local dressing at named
gates and chamber faces."""

import math

import numpy as np
import pytest

from cnotsteer.equivclass import (
    _WEYL_TOL,
    _chamber_coordinates,
    canonical_class_gate,
    makhlin_invariants,
    weyl_coordinates,
)
from cnotsteer.model import SystemParams
from cnotsteer.optimize import calibrate_single_step
from cnotsteer.qmat import expm_skew, kron2
from cnotsteer.sequences import CNOT, euler_u2, single_step_gates, weyl_trajectory

from conftest import random_unitary
from propagator_oracle import h_rwa_frame1, two_step_entangler
from weyl_oracle import folded_coordinates, search_weyl_coordinates

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

HALF_PI = math.pi / 2.0
SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

angle = st.floats(-math.pi, math.pi, allow_nan=False)
haar = st.integers(0, 2**32 - 1).map(lambda seed: random_unitary(np.random.default_rng(seed)))
coordinate = st.floats(0.0, HALF_PI, allow_nan=False)


@st.composite
def dressings(draw):
    """Random single-qubit rotations on both sides and a global phase."""
    a = draw(st.lists(angle, min_size=13, max_size=13))
    left = kron2(euler_u2(*a[0:3]), euler_u2(*a[3:6]))
    right = kron2(euler_u2(*a[6:9]), euler_u2(*a[9:12]))
    return lambda u: np.exp(1j * a[12]) * left @ u @ right


@st.composite
def face_points(draw):
    """Chamber points on one of the faces c3 = 0, c1 = pi/2, c1 = c2, c2 = c3."""
    c = sorted(draw(st.lists(coordinate, min_size=3, max_size=3)), reverse=True)
    face = draw(st.sampled_from(["c3=0", "c1=pi/2", "c1=c2", "c2=c3"]))
    if face == "c3=0":
        c[2] = 0.0
    elif face == "c1=pi/2":
        c[0] = HALF_PI
    elif face == "c1=c2":
        c[1] = c[0]
    else:
        c[2] = c[1]
    return tuple(c)


def _assert_matches_search(u):
    got = weyl_coordinates(u).as_array()
    ref = search_weyl_coordinates(u).as_array()
    err = np.max(np.abs(got - ref))
    if err <= 1e-12:
        return
    # Mirror images meet on the faces c1 = pi/2 and c3 = 0.  Within _WEYL_TOL
    # of them the search keeps the image whose invariants match better (so it
    # may keep pi/2 - e, or snap e to 0), while the fold keeps the image its
    # own snap picks; the two then differ by at most _WEYL_TOL, plus rounding
    # for a point that sits on the snap threshold itself.
    near_mirror_face = HALF_PI - ref[0] <= _WEYL_TOL or ref[2] <= _WEYL_TOL
    assert near_mirror_face and err <= _WEYL_TOL + 1e-12, (got, ref)


@PROPERTY
@given(haar, dressings())
def test_random_dressed_gates(u, dress):
    _assert_matches_search(dress(u))


@PROPERTY
@given(face_points(), dressings())
def test_chamber_face_points(point, dress):
    _assert_matches_search(dress(canonical_class_gate(point)))


@PROPERTY
@given(
    st.one_of(
        st.sampled_from([np.eye(4, dtype=complex), CNOT, SWAP]),
        face_points().map(canonical_class_gate),
    ),
    dressings(),
)
def test_class_labels_are_invariant_under_local_dressing(gate, dress):
    # I, CNOT and SWAP have repeated magic-basis spectra; face points sit
    # where the fold's mirror and permutation symmetries meet.
    dressed = dress(gate)
    a, b = makhlin_invariants(gate), makhlin_invariants(dressed)
    assert abs(a.g1 - b.g1) < 1e-10 and abs(a.g2 - b.g2) < 1e-10
    got, want = weyl_coordinates(dressed).as_array(), weyl_coordinates(gate).as_array()
    assert np.max(np.abs(got - want)) < 1e-10


@pytest.mark.parametrize("eps", [1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_points_near_the_chamber_boundary(eps, sign, rng):
    for _ in range(20):
        a, b = sorted(rng.uniform(0.05, HALF_PI - 0.05, size=2), reverse=True)
        for point in [
            (HALF_PI - sign * eps, a, b),  # c1 = pi/2, and its mirror side
            (HALF_PI, HALF_PI - sign * eps, b),  # c2 = pi/2
            (a, b, sign * eps),  # c3 = 0, and its mirror side
            (a, eps, 0.0),  # c2 = c3 = 0
            (eps, 0.0, 0.0),  # next to the identity
        ]:
            _assert_matches_search(canonical_class_gate(point))


@pytest.mark.parametrize("delta", [0.0, 2.0, -2.0])
@pytest.mark.parametrize("frame", [1, 2])
def test_two_step_entanglers_at_the_range_ends(delta, frame):
    u = two_step_entangler(SystemParams(delta=delta), frame=frame)
    _assert_matches_search(u)


def test_trajectory_samples_including_t0():
    p = SystemParams(delta=1.0, omega1=3.7781)
    t_max = 1.2753 * HALF_PI
    samples = weyl_trajectory(p, t_max, n_samples=2048)
    assert samples[0].t == 0.0 and np.all(samples[0].point.as_array() == 0.0)
    gen = h_rwa_frame1(p)
    for s in samples:
        u = expm_skew(-s.t * gen)
        ref = search_weyl_coordinates(u).as_array()
        assert np.max(np.abs(s.point.as_array() - ref)) <= 1e-12


def _assert_matches_retired_extraction(stack):
    # The eigenphases of m / sqrt(det U) from the invariants' Gram matrix
    # against those of U (sy sy U^T sy sy) / sqrt(det U), both folded alike.
    err = np.max(np.abs(_chamber_coordinates(stack) - folded_coordinates(stack)))
    assert err <= 1e-14, err


def test_gram_coordinates_match_the_retired_extraction_on_haar_gates():
    rng = np.random.default_rng(27)
    _assert_matches_retired_extraction(np.array([random_unitary(rng) for _ in range(2000)]))


def test_gram_coordinates_match_the_retired_extraction_on_chamber_faces():
    c = np.sort(np.random.default_rng(28).uniform(0.0, HALF_PI, size=(4, 500, 3)), axis=-1)
    c = c[..., ::-1].copy()
    c[0, :, 2] = 0.0  # c3 = 0
    c[1, :, 0] = HALF_PI  # c1 = pi/2
    c[2, :, 1] = c[2, :, 0]  # c1 = c2
    c[3, :, 2] = c[3, :, 1]  # c2 = c3
    _assert_matches_retired_extraction(canonical_class_gate(c))


def test_gram_coordinates_match_the_retired_extraction_on_the_artifact_trajectories():
    # The CLI's 2048-sample trajectories, from resonance to the fold.
    deltas = [0.0, 0.3, 0.5, 0.8, 1.0]
    for delta, cal in zip(deltas, calibrate_single_step(deltas)):
        t = np.linspace(0.0, cal.t_units * HALF_PI, 2048)
        _assert_matches_retired_extraction(single_step_gates(delta, cal.omega1_over_g, t))


@pytest.mark.parametrize(
    "gate",
    [np.eye(4, dtype=complex), CNOT, SWAP, single_step_gates(0.5, 3.0, 1.0)],
    ids=["I", "CNOT", "SWAP", "single-step"],
)
def test_global_phase_sweep_across_the_sqrt_det_branch_cut(gate):
    # det(e^{i theta} U) = e^{4 i theta} det U, so sqrt(det) changes sign
    # four times over the sweep; the chamber point must not move.
    theta = np.linspace(-math.pi, math.pi, 4001)
    got = _chamber_coordinates(np.exp(1j * theta)[:, None, None] * gate)
    err = np.max(np.abs(got - _chamber_coordinates(gate)))
    assert err <= 1e-14, err
