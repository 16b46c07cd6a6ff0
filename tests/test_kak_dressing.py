"""Closed-form local dressing (``fit_local_rotations``) against the
reference search it replaced, plus property tests at degenerate inputs."""

import math

import numpy as np
import pytest

import cnotsteer.cli as cli
import cnotsteer.sequences as sequences
from cnotsteer.equivclass import MAGIC_BASIS, canonical_class_gate, makhlin_invariants
from cnotsteer.optimize import calibrate_single_step
from cnotsteer.qmat import expm_skew, frob_dist
from cnotsteer.sequences import (
    CNOT,
    LocalRotationSpec,
    SystemParams,
    fidelity,
    fit_local_rotations,
    single_step_u,
    two_step_rotations,
)

from conftest import random_unitary, spec_from_vector
from fit_oracle import search_local_rotations
from propagator_oracle import two_step_entangler

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


def _dressed(u: np.ndarray, target: np.ndarray) -> np.ndarray:
    """``u`` dressed with its closed-form fit to ``target``."""
    return fit_local_rotations(u, target).realize(u)


@pytest.mark.parametrize(
    "kind, delta, frame",
    [("one-step", d, None) for d in (0.5, 0.9, 1.0, 1.2, 1.5, 1.8, 2.0)]
    + [("two-step", 1.0, f) for f in (1, 2)],
)
def test_closed_form_matches_reference_search(kind, delta, frame):
    u = _single_step_entangler(delta) if kind == "one-step" else _two_step_entangler(delta, frame)
    gate = _dressed(u, CNOT)
    distance, fid = frob_dist(gate, CNOT), fidelity(gate, CNOT)
    # No random restarts, and only the first warm start: at every point here
    # the second one halves the search's speed and ends within 4e-15 of it.
    oracle = search_local_rotations(u, CNOT, n_restarts=0, warm_starts=(two_step_rotations(SystemParams(), 1),))
    assert distance <= oracle.distance + 1e-12
    assert (fid is None) == (oracle.fidelity is None)
    if fid is not None:
        assert abs(fid - oracle.fidelity) <= 1e-12


@pytest.mark.parametrize("delta", [0.0, 1.0, 2.0, -2.0])
@pytest.mark.parametrize("frame", [1, 2])
def test_two_step_gates_reach_cnot_exactly(delta, frame):
    # Every two-step entangler is in the CNOT class.  A dressing at distance
    # <= 1e-12 is within 1e-12 of any search result, since none can go
    # below 0; the search itself runs at delta = g above.
    gate = _dressed(_two_step_entangler(delta, frame), CNOT)
    assert frob_dist(gate, CNOT) <= 1e-12
    assert fidelity(gate, CNOT) == 1.0


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
        assert fidelity(_dressed(u, CNOT), CNOT) == pytest.approx(want, abs=1e-11)


def test_cnot_factors_are_read_only_and_equal_a_fresh_factoring():
    for cached, fresh in zip(sequences._CNOT_KAK, sequences._kak(CNOT)):
        assert not cached.flags.writeable
        assert cached.tobytes() == fresh.tobytes()


#: The detunings of the one-step gate artifacts (``tools/artifacts.py``).
ARTIFACT_ONE_STEP_DELTAS = [0.5, 0.98, 1.0, 1.01, 1.05, 1.2, 1.5, 1.8, 2.0, 2.5, 3.0]


def test_the_cached_cnot_factors_give_the_fit_to_a_copy_of_cnot():
    # The read-only CNOT takes the factors computed at import; a copy is
    # factored afresh.  Both fits must agree byte for byte.
    cals = calibrate_single_step(ARTIFACT_ONE_STEP_DELTAS)
    entanglers = [
        _single_step_entangler_at(delta, cal.omega1_over_g, cal.t_units)
        for delta, cal in zip(ARTIFACT_ONE_STEP_DELTAS, cals)
    ] + [_two_step_entangler(1.5, frame=1)]
    for u in entanglers:
        fresh_cnot = CNOT.copy()
        cached, fresh = fit_local_rotations(u, CNOT), fit_local_rotations(u, fresh_cnot)
        assert cached.as_vector().tobytes() == fresh.as_vector().tobytes()
        cached_gate, fresh_gate = cached.realize(u), fresh.realize(u)
        assert cached_gate.tobytes() == fresh_gate.tobytes()
        assert repr((frob_dist(cached_gate, CNOT), fidelity(cached_gate, CNOT))) == repr(
            (frob_dist(fresh_gate, fresh_cnot), fidelity(fresh_gate, fresh_cnot))
        )


def test_a_one_step_gate_command_factors_only_its_entangler(monkeypatch, tmp_path):
    factored = []
    kak = sequences._kak
    monkeypatch.setattr(sequences, "_kak", lambda u: factored.append(u) or kak(u))
    out = tmp_path / "gate.json"
    assert cli.main(["gate", "--mode", "one-step", "--delta", "1.5", "--out", str(out)]) == 0
    assert len(factored) == 1


@PROPERTY
@given(unitaries(), specs)
def test_undoes_any_local_dressing(u, spec):
    target = spec.realize(u)
    assert frob_dist(_dressed(u, target), target) <= 1e-10


@PROPERTY
@given(st.sampled_from([np.eye(4, dtype=complex), CNOT, SWAP, np.diag([1, 1, 1, -1]) @ CNOT]), specs)
def test_named_gates_with_degenerate_spectra(gate, spec):
    dressed = spec.realize(gate)
    assert frob_dist(_dressed(gate, dressed), dressed) <= 1e-10
    assert frob_dist(_dressed(dressed, gate), gate) <= 1e-10


@PROPERTY
@given(face_points(), specs)
def test_c3_face_points(gate, spec):
    target = spec.realize(gate)
    assert frob_dist(_dressed(gate, target), target) <= 1e-10


def test_tells_apart_images_closer_than_the_overlap_resolves():
    # c1 = 1e-8: the mirror image exp(+c1 XX) has the same |overlap| to
    # rounding, but lies 2e-8 away.
    gate = canonical_class_gate((1e-8, 0.0, 0.0))
    dressed = LocalRotationSpec(phase=1.0).realize(gate)
    assert frob_dist(_dressed(gate, dressed), dressed) <= 1e-15


@pytest.mark.parametrize("delta", [1.2, 1.5, 2.0])
def test_dressing_beyond_the_bound_is_stable_under_rounding(delta, rng):
    # Beyond g several Weyl images tie to rounding; a 1e-12 nudge of the
    # calibration must not switch the dressing to another of them.
    cal = calibrate_single_step(delta)
    gates = []
    for nudge in rng.uniform(-1e-12, 1e-12, size=(20, 2)):
        u = _single_step_entangler_at(delta, cal.omega1_over_g + nudge[0], cal.t_units + nudge[1])
        gates.append(_dressed(u, CNOT))
    assert max(frob_dist(g, gates[0]) for g in gates) <= 1e-9


def test_gates_unitary_only_to_the_input_tolerance(rng):
    # A 1e-9 unitarity defect passes the input check, but no mixing constant
    # then diagonalizes m to 1e-10; the best one is kept.
    for _ in range(20):
        u = random_unitary(rng) + 3e-10 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        target = spec_from_vector(rng.uniform(-3, 3, size=13)).realize(u)
        assert frob_dist(_dressed(u, target), target) <= 1e-8


def _random_so4(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(4, 4)))
    q = q * np.sign(np.diagonal(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


@pytest.mark.parametrize("eps", [1e-5, 1e-6, 1e-7])
def test_near_degenerate_magic_spectrum(eps, rng):
    # m = U_B^T U_B has the spectrum exp(i phi) for phi = (a, pi - a, c,
    # -pi - c): two pairs with equal imaginary parts, and with a = pi/2 -
    # eps/2 the first pair's real parts differ by ~eps, so eigh(Re m) alone
    # nearly ties them.
    a = HALF_PI - eps / 2.0
    for _ in range(30):
        c = rng.uniform(-math.pi, math.pi)
        phi = np.array([a, math.pi - a, c, -math.pi - c])
        ub = _random_so4(rng) @ np.diag(np.exp(0.5j * phi)) @ _random_so4(rng)
        u = MAGIC_BASIS @ ub @ MAGIC_BASIS.conj().T
        target = spec_from_vector(rng.uniform(-3, 3, size=13)).realize(u)
        assert frob_dist(_dressed(u, target), target) <= 1e-10


@PROPERTY
@given(unitaries(), unitaries())
def test_dressed_gate_keeps_the_entangler_class(u, target):
    dressed = _dressed(u, target)
    (g1a, g2a), (g1b, g2b) = makhlin_invariants(u), makhlin_invariants(dressed)
    assert abs(g1a - g1b) < 1e-10 and abs(g2a - g2b) < 1e-10


_OPTIMALITY_CASES = {
    "one-step 1.5g": lambda rng: (_single_step_entangler(1.5), CNOT),
    "random to CNOT": lambda rng: (random_unitary(rng), CNOT),
    "random to random": lambda rng: (random_unitary(rng), random_unitary(rng)),
    "interior point to SWAP": lambda rng: (canonical_class_gate((1.0, 0.4, 0.1)), SWAP),
}


@pytest.mark.parametrize("case", list(_OPTIMALITY_CASES))
def test_local_rotations_never_lower_the_distance(case, rng):
    u, target = _OPTIMALITY_CASES[case](rng)
    spec = fit_local_rotations(u, target)
    distance, x = frob_dist(spec.realize(u), target), spec.as_vector()
    for scale in (1e-2, 1e-4):
        for _ in range(50):
            moved = spec_from_vector(x + scale * rng.normal(size=13))
            assert frob_dist(moved.realize(u), target) >= distance - 1e-12
