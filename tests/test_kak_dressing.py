"""Closed-form local dressing (``fit_local_rotations``) against the
reference search it replaced, plus property tests at degenerate inputs."""

import math

import numpy as np
import pytest

from cnotsteer.equivclass import canonical_class_gate, makhlin_invariants
from cnotsteer.model import SystemParams
from cnotsteer.optimize import calibrate_single_step
from cnotsteer.qmat import expm_skew, frob_dist
from cnotsteer.sequences import (
    CNOT,
    LocalRotationSpec,
    fit_local_rotations,
    single_step_u,
    two_step_entangler,
    two_step_rotations,
)

from conftest import random_unitary, spec_from_vector
from fit_oracle import search_local_rotations

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

HALF_PI = math.pi / 2.0
SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)

angle = st.floats(-math.pi, math.pi, allow_nan=False)
specs = st.lists(angle, min_size=13, max_size=13).map(spec_from_vector)


@st.composite
def unitaries(draw):
    """exp(-iH) for a Hermitian H with entries in [-pi, pi]; H = 0 gives I."""
    re = np.array(draw(st.lists(angle, min_size=16, max_size=16))).reshape(4, 4)
    im = np.array(draw(st.lists(angle, min_size=16, max_size=16))).reshape(4, 4)
    h = (re + re.T) / 2.0 + 1j * (im - im.T) / 2.0
    return expm_skew(-1j * h)


@st.composite
def face_points(draw):
    """Weyl points on the c3 = 0 face, edges included."""
    c1 = draw(st.floats(0.0, HALF_PI, allow_nan=False))
    c2 = draw(st.floats(0.0, 1.0, allow_nan=False)) * c1
    return canonical_class_gate((c1, c2, 0.0))


def _single_step_entangler(delta: float) -> np.ndarray:
    cal = calibrate_single_step(delta)
    return _single_step_entangler_at(delta, cal.omega1_over_g, cal.t_units)


def _single_step_entangler_at(delta: float, omega1_over_g: float, t_units: float) -> np.ndarray:
    p = SystemParams(delta=delta, omega1=omega1_over_g)
    return single_step_u(t_units * HALF_PI, p)


def _two_step_entangler(delta: float, frame: int) -> np.ndarray:
    return two_step_entangler(SystemParams(delta=delta), frame=frame)


@pytest.mark.parametrize(
    "kind, delta, frame",
    [("one-step", d, None) for d in (0.5, 0.9, 1.0, 1.2, 1.5, 1.8, 2.0)]
    + [("two-step", 1.0, f) for f in (1, 2)],
)
def test_closed_form_matches_reference_search(kind, delta, frame):
    u = _single_step_entangler(delta) if kind == "one-step" else _two_step_entangler(delta, frame)
    closed = fit_local_rotations(u, CNOT)
    # No random restarts, and only the first warm start: at every point here
    # the second one halves the search's speed and ends within 4e-15 of it.
    oracle = search_local_rotations(u, CNOT, n_restarts=0, warm_starts=(two_step_rotations(SystemParams(), 1),))
    assert closed.distance <= oracle.distance + 1e-12
    assert (closed.fidelity is None) == (oracle.fidelity is None)
    if closed.fidelity is not None:
        assert abs(closed.fidelity - oracle.fidelity) <= 1e-12
    # the reported gate and figures are those of the realized gate
    assert closed.gate.tobytes() == closed.rotations.realize(u).tobytes()
    assert closed.distance == frob_dist(closed.rotations.realize(u), CNOT)


@pytest.mark.parametrize("delta", [0.0, 1.0, 2.0, -2.0])
@pytest.mark.parametrize("frame", [1, 2])
def test_two_step_gates_reach_cnot_exactly(delta, frame):
    # Every two-step entangler is in the CNOT class.  A dressing at distance
    # <= 1e-12 is within 1e-12 of any search result, since none can go
    # below 0; the search itself runs at delta = g above.
    u = _two_step_entangler(delta, frame)
    fit = fit_local_rotations(u, CNOT)
    assert fit.distance <= 1e-12
    assert fit.fidelity == 1.0


def test_known_figures_beyond_the_single_step_bound():
    # Fixed (omega1/g, T1) entanglers, so that only the dressing is checked:
    # these are the points the three-pass simplex calibration stopped at.
    cases = (
        (1.2, 3.7323370216908534, 1.1945584717122106, 0.988593144276),
        (1.5, 3.715195510949176, 1.0961218656405551, 0.944807801720),
        (1.8, 3.677199133501838, 1.0215652643562585, 0.887411138568),
    )
    for delta, omega, t_units, want in cases:
        u = _single_step_entangler_at(delta, omega, t_units)
        assert fit_local_rotations(u, CNOT).fidelity == pytest.approx(want, abs=1e-11)


@PROPERTY
@given(unitaries(), specs)
def test_undoes_any_local_dressing(u, spec):
    target = spec.realize(u)
    assert fit_local_rotations(u, target).distance <= 1e-10


@PROPERTY
@given(st.sampled_from([np.eye(4, dtype=complex), CNOT, SWAP, np.diag([1, 1, 1, -1]) @ CNOT]), specs)
def test_named_gates_with_degenerate_spectra(gate, spec):
    dressed = spec.realize(gate)
    assert fit_local_rotations(gate, dressed).distance <= 1e-10
    assert fit_local_rotations(dressed, gate).distance <= 1e-10


@PROPERTY
@given(face_points(), specs)
def test_c3_face_points(gate, spec):
    assert fit_local_rotations(gate, spec.realize(gate)).distance <= 1e-10


def test_tells_apart_images_closer_than_the_overlap_resolves():
    # c1 = 1e-8: the mirror image exp(+c1 XX) has the same |overlap| to
    # rounding, but lies 2e-8 away.
    gate = canonical_class_gate((1e-8, 0.0, 0.0))
    dressed = LocalRotationSpec(phase=1.0).realize(gate)
    assert fit_local_rotations(gate, dressed).distance <= 1e-15


@pytest.mark.parametrize("delta", [1.2, 1.5, 2.0])
def test_dressing_beyond_the_bound_is_stable_under_rounding(delta, rng):
    # Beyond g several Weyl images tie to rounding; a 1e-12 nudge of the
    # calibration must not switch the dressing to another of them.
    cal = calibrate_single_step(delta)
    gates = []
    for nudge in rng.uniform(-1e-12, 1e-12, size=(20, 2)):
        u = _single_step_entangler_at(delta, cal.omega1_over_g + nudge[0], cal.t_units + nudge[1])
        gates.append(fit_local_rotations(u, CNOT).rotations.realize(u))
    assert max(frob_dist(g, gates[0]) for g in gates) <= 1e-9


def test_gates_unitary_only_to_the_input_tolerance(rng):
    # A 1e-9 unitarity defect passes the input check, but no mixing constant
    # then diagonalizes m to 1e-10; the best one is kept.
    for _ in range(20):
        u = random_unitary(rng) + 3e-10 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        target = spec_from_vector(rng.uniform(-3, 3, size=13)).realize(u)
        assert fit_local_rotations(u, target).distance <= 1e-8


@PROPERTY
@given(unitaries(), unitaries())
def test_dressed_gate_keeps_the_entangler_class(u, target):
    dressed = fit_local_rotations(u, target).rotations.realize(u)
    a, b = makhlin_invariants(u), makhlin_invariants(dressed)
    assert abs(a.g1 - b.g1) < 1e-10 and abs(a.g2 - b.g2) < 1e-10


_OPTIMALITY_CASES = {
    "one-step 1.5g": lambda rng: (_single_step_entangler(1.5), CNOT),
    "random to CNOT": lambda rng: (random_unitary(rng), CNOT),
    "random to random": lambda rng: (random_unitary(rng), random_unitary(rng)),
    "interior point to SWAP": lambda rng: (canonical_class_gate((1.0, 0.4, 0.1)), SWAP),
}


@pytest.mark.parametrize("case", list(_OPTIMALITY_CASES))
def test_local_rotations_never_lower_the_distance(case, rng):
    u, target = _OPTIMALITY_CASES[case](rng)
    fit = fit_local_rotations(u, target)
    x = fit.rotations.as_vector()
    for scale in (1e-2, 1e-4):
        for _ in range(50):
            moved = spec_from_vector(x + scale * rng.normal(size=13))
            assert frob_dist(moved.realize(u), target) >= fit.distance - 1e-12
