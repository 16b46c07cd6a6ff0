import math

import numpy as np
import pytest

from cnotsteer.equivclass import (
    _WEYL_TOL,
    InvariantPair,
    WeylPoint,
    _require_chamber,
    canonical_class_gate,
    cnot_distance,
    cnot_residual,
    makhlin_invariants,
    weyl_coordinates,
)
from cnotsteer.model import SystemParams
from cnotsteer.qmat import ContractViolationError, frob_dist, kron2, unitarity_defect
from cnotsteer.sequences import (
    CNOT,
    PI_PULSE_X1,
    euler_u2,
    single_step_u,
    two_step_invariants_closed,
    two_step_time,
    weyl_trajectory,
)
from cnotsteer.propagate import entangling_u

from conftest import random_unitary
from weyl_oracle import invariants_from_weyl, search_weyl_coordinates

HALF_PI = math.pi / 2.0
SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
ISWAP = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]])


def _sandwich(t, p, frame=1):
    u = entangling_u(t, p, frame)
    return u @ PI_PULSE_X1 @ u


def _random_local(rng):
    a = rng.uniform(-np.pi, np.pi, size=6)
    return kron2(euler_u2(*a[:3]), euler_u2(*a[3:]))


def _interior_point(rng, margin=1e-3):
    while True:
        c = np.sort(rng.uniform(margin, HALF_PI - margin, size=3))[::-1]
        if c[0] - c[1] > margin and c[1] - c[2] > margin:
            return c


def test_invariants_of_cnot():
    inv = makhlin_invariants(CNOT)
    assert abs(inv.g1) < 1e-12
    assert abs(inv.g2 - 1.0) < 1e-12


def test_invariants_of_identity():
    inv = makhlin_invariants(np.eye(4, dtype=complex))
    assert abs(inv.g1 - 1.0) < 1e-12
    assert abs(inv.g2 - 3.0) < 1e-12


def test_invariants_reject_non_unitary():
    for bad in (np.ones((4, 4), dtype=complex), np.full((4, 4), np.nan, dtype=complex)):
        with pytest.raises(ContractViolationError):
            makhlin_invariants(bad)


def test_invariants_of_gates_unitary_only_to_the_input_tolerance(rng):
    # A defect below the accepted tol moves G2 off the real axis by up to
    # about twice the defect; the invariants must still come back real.
    for _ in range(24):
        u = random_unitary(rng)
        e = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        v = u + 1.5e-9 * e / np.linalg.norm(e)
        assert 5e-10 < unitarity_defect(v) < 5e-9
        w, _, vh = np.linalg.svd(v)
        a, b = makhlin_invariants(v), makhlin_invariants(w @ vh)
        assert isinstance(a.g2, float)
        assert abs(a.g1 - b.g1) < 1e-8 and abs(a.g2 - b.g2) < 1e-8


def test_two_step_sandwich_reaches_cnot_class_at_delta_one():
    p = SystemParams(delta=1.0)
    inv = makhlin_invariants(_sandwich(two_step_time(p), p))
    assert cnot_distance(inv) < 1e-10


def test_closed_form_invariants_special_values():
    p0 = SystemParams(delta=0.7)
    inv = two_step_invariants_closed(0.0, p0)
    assert abs(inv.g1 - 1.0) < 1e-12 and abs(inv.g2 - 3.0) < 1e-12

    inv = two_step_invariants_closed(np.pi / 4.0, SystemParams(delta=0.0))
    assert abs(inv.g1) < 1e-12 and abs(inv.g2 - 1.0) < 1e-12

    inv = two_step_invariants_closed(np.pi / (2.0 * np.sqrt(2.0)), SystemParams(delta=2.0))
    assert abs(inv.g1) < 1e-12 and abs(inv.g2 - 1.0) < 1e-12


def test_two_step_reaches_cnot_exactly_up_to_two_g():
    for delta in (0.0, 0.5, 1.0, 1.5, 2.0, -2.0):
        p = SystemParams(delta=delta)
        assert cnot_distance(two_step_invariants_closed(two_step_time(p), p)) <= 1e-24, delta
    # At the bound, T2 is sqrt(2) in units of pi/4g (Table 1's 1.4142).
    for delta in (2.0, -2.0):
        t_units = two_step_time(SystemParams(delta=delta)) / (math.pi / 4.0)
        assert math.isclose(t_units, math.sqrt(2.0), rel_tol=1e-15)


def test_two_step_misses_cnot_beyond_two_g():
    # Beyond 2g, G1 = ((delta^2 - 4 + 8 cos^2(L t / 2)) / L^2)^2 never drops
    # below ((delta^2 - 4) / L^2)^2, so d^2 >= |G1|^2 has that floor squared.
    for delta in (2.01, 2.5, 3.0):
        p = SystemParams(delta=delta)
        lam2 = delta**2 + 4.0
        floor = ((delta**2 - 4.0) / lam2) ** 4
        assert floor > 0.0
        period = 2.0 * math.pi / math.sqrt(lam2)
        for t in np.linspace(0.0, period, 4001).tolist():
            assert cnot_distance(two_step_invariants_closed(t, p)) >= floor, (delta, t)


def test_closed_form_agrees_with_assembled_product(rng):
    cases = [
        (rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0), rng.uniform(0.0, 0.1), 1)
        for _ in range(100)
    ]
    # t = 0, and the ends of the two-step range (delta = +-2g exactly) at
    # t = 0 and at their gate time: in both frames, with and without ZZ.
    edges = [(0.0, 0.0), (0.0, 1.0)]
    for delta in (2.0, -2.0):
        t2 = two_step_time(SystemParams(delta=delta))
        edges += [(0.0, delta), (t2, delta)]
    cases += [(t, d, gtilde, frame) for t, d in edges for gtilde in (0.0, 0.1) for frame in (1, 2)]
    for t, delta, gtilde, frame in cases:
        p = SystemParams(delta=delta, g_tilde=gtilde)
        closed = two_step_invariants_closed(t, p)
        direct = makhlin_invariants(_sandwich(t, p, frame=frame))
        assert abs(closed.g1 - direct.g1) < 1e-9
        assert abs(closed.g2 - direct.g2) < 1e-9


def test_frame_independence_of_sandwich_invariants(rng):
    for _ in range(25):
        t = rng.uniform(0.0, 3.0)
        p = SystemParams(delta=rng.uniform(0.0, 3.0))
        a = makhlin_invariants(_sandwich(t, p, frame=1))
        b = makhlin_invariants(_sandwich(t, p, frame=2))
        assert abs(a.g1 - b.g1) < 1e-10 and abs(a.g2 - b.g2) < 1e-10


def test_local_dressing_invariance(rng):
    for _ in range(100):
        u = random_unitary(rng)
        phase = np.exp(1j * rng.uniform(-np.pi, np.pi))
        dressed = phase * _random_local(rng) @ u @ _random_local(rng)
        a, b = makhlin_invariants(u), makhlin_invariants(dressed)
        assert abs(a.g1 - b.g1) < 1e-10
        assert abs(a.g2 - b.g2) < 1e-10


def test_weyl_point_validation():
    WeylPoint(c1=1.2, c2=0.7, c3=0.1)
    with pytest.raises(ValueError):
        WeylPoint(c1=0.2, c2=0.7, c3=0.1)  # violates ordering
    with pytest.raises(ValueError):
        WeylPoint(c1=2.0, c2=0.1, c3=0.0)  # c1 > pi/2


def _refused(check, *args) -> bool:
    try:
        check(*args)
    except ValueError:
        return True
    return False


def _face_probes(rng, n=200, ulps=3):
    """Points within +-``ulps`` ulp of each tolerance face, ``n`` seeded points per face.

    The faces are -tol <= c3, c3 <= c2 + tol, c2 <= c1 + tol and
    c1 <= pi/2 + tol; the other two coordinates lie inside the chamber.
    """
    probes = []
    for face in range(4):
        for _ in range(n):
            c1 = rng.uniform(0.1, HALF_PI)
            c2 = rng.uniform(0.0, c1)
            c3 = rng.uniform(0.0, c2)
            if face == 0:
                c3 = -_WEYL_TOL
            elif face == 1:
                c3 = c2 + _WEYL_TOL
            elif face == 2:
                c2, c3 = c1 + _WEYL_TOL, rng.uniform(0.0, c1)
            else:
                c1 = HALF_PI + _WEYL_TOL
            c = [c1, c2, c3]
            axis = (2, 2, 1, 0)[face]  # the coordinate on the face
            for k in range(-ulps, ulps + 1):
                probe = list(c)
                for _ in range(abs(k)):
                    probe[axis] = math.nextafter(probe[axis], math.copysign(math.inf, k))
                probes.append(tuple(probe))
    return probes


def test_weyl_point_refuses_exactly_what_the_chamber_check_refuses():
    # c2 <= c1 + _WEYL_TOL holds in floating point, but the excess
    # (c2 - c1) - _WEYL_TOL rounds to 8.3e-17: the two forms of the bound
    # disagree here, and both checks must refuse the point.
    edge = (1.4688083285730271, 1.4688083295730272, 0.0035094968672881844)
    assert _refused(_require_chamber, np.array(edge)) and _refused(WeylPoint, *edge)
    probes = _face_probes(np.random.default_rng(20261019))
    verdicts = [_refused(_require_chamber, np.array(c)) for c in probes]
    assert 0 < sum(verdicts) < len(probes)
    disagree = [c for c, v in zip(probes, verdicts) if _refused(WeylPoint, *c) != v]
    assert not disagree, (len(disagree), disagree[:3])


def test_weyl_coordinates_of_named_gates():
    c = weyl_coordinates(CNOT)
    assert abs(c.c1 - HALF_PI) < 1e-12 and abs(c.c2) < 1e-12 and abs(c.c3) < 1e-12
    c = weyl_coordinates(np.eye(4, dtype=complex))
    assert np.max(np.abs(c.as_array())) < 1e-12
    # det = -1 for CNOT, SWAP and CZ; the reference search must agree on all.
    named = [
        (np.eye(4, dtype=complex), (0.0, 0.0, 0.0)),
        (CNOT, (HALF_PI, 0.0, 0.0)),
        (np.diag([1, 1, 1, -1]).astype(complex), (HALF_PI, 0.0, 0.0)),
        (SWAP, (HALF_PI, HALF_PI, HALF_PI)),
        (ISWAP, (HALF_PI, HALF_PI, 0.0)),
        (-1j * SWAP @ CNOT, (HALF_PI, HALF_PI, 0.0)),
    ]
    for gate, expected in named:
        got = weyl_coordinates(gate).as_array()
        assert np.max(np.abs(got - expected)) < 1e-12
        assert np.max(np.abs(got - search_weyl_coordinates(gate).as_array())) < 1e-12


def test_weyl_reject_non_unitary():
    for bad in (2.0 * np.eye(4, dtype=complex), np.full((4, 4), np.nan, dtype=complex)):
        with pytest.raises(ContractViolationError):
            weyl_coordinates(bad)


def test_weyl_round_trip_interior(rng):
    for _ in range(50):
        c = _interior_point(rng)
        got = weyl_coordinates(canonical_class_gate(tuple(c)))
        assert np.max(np.abs(got.as_array() - c)) < 1e-8


def test_weyl_invariant_consistency_random_unitaries(rng):
    # Extracted coordinates must reproduce the invariants exactly up to the
    # chamber's mirror identification (conjugate G1); see equivclass docs.
    n_exact = 0
    for _ in range(100):
        u = random_unitary(rng)
        target = makhlin_invariants(u)
        inv = invariants_from_weyl(weyl_coordinates(u))
        err_exact = abs(inv.g1 - target.g1) + abs(inv.g2 - target.g2)
        err_mirror = abs(np.conj(inv.g1) - target.g1) + abs(inv.g2 - target.g2)
        if err_exact < 1e-8:
            n_exact += 1
        assert min(err_exact, err_mirror) < 1e-8
    assert n_exact > 20  # both orientations occur for Haar-random gates


def test_weyl_matches_invariants_from_closed_form(rng):
    for _ in range(30):
        c = _interior_point(rng)
        inv = invariants_from_weyl((c[0], c[1], c[2]))
        direct = makhlin_invariants(canonical_class_gate(tuple(c)))
        assert abs(inv.g1 - direct.g1) < 1e-12
        assert abs(inv.g2 - direct.g2) < 1e-12


def test_single_step_table_point_at_delta_15():
    p = SystemParams(delta=1.5, omega1=3.7152)
    point = weyl_coordinates(single_step_u(1.0961 * HALF_PI, p))
    assert abs(point.c3) < 1e-8
    inv = invariants_from_weyl(point)
    assert abs(inv.g1 - 0.0476) < 2e-3
    assert abs(inv.g2 - 0.9898) < 2e-3


def test_cnot_distance_values():
    assert cnot_distance(InvariantPair(g1=0.0 + 0.0j, g2=1.0)) == 0.0
    assert abs(cnot_distance(InvariantPair(g1=1.0 + 0.0j, g2=3.0)) - 5.0) < 1e-12
    d2 = cnot_distance(InvariantPair(g1=0.1118 + 0.0j, g2=0.9754))
    assert abs(d2 - (0.1118**2 + 0.0246**2)) < 1e-12


def test_trajectory_starts_at_origin_and_reaches_cnot():
    p = SystemParams(delta=1.0, omega1=3.7781)
    t, c = weyl_trajectory(p, 1.2753 * HALF_PI, n_samples=65)
    assert t.shape == (65,) and c.shape == (65, 3)
    assert np.max(np.abs(c[0])) < 1e-12
    assert abs(c[-1, 0] - HALF_PI) < 2e-3
    assert abs(c[-1, 1]) < 2e-3
    assert np.all(np.abs(c[:, 2]) < 1e-8)


def test_trajectory_of_zero_length_stays_at_the_origin():
    t, c = weyl_trajectory(SystemParams(delta=0.5, omega1=3.0), 0.0, 5)
    assert t.tolist() == [0.0] * 5
    assert c.tolist() == [[0.0, 0.0, 0.0]] * 5


def test_trajectory_validates_sample_count():
    with pytest.raises(ValueError):
        weyl_trajectory(SystemParams(), 1.0, n_samples=1)


def _residual_norms(u):
    return np.linalg.norm(cnot_residual(u), axis=-1)


def test_cnot_residual_vanishes_on_the_cnot_and_swap_classes(rng):
    # m / sqrt(det U) has the spectrum (i, i, -i, -i) on the CNOT class and
    # four equal entries +-i on the SWAP class; both give m^2 = -det U I.
    phases = np.exp(1j * rng.uniform(-np.pi, np.pi, size=200))
    dressed = [z * _random_local(rng) @ CNOT @ _random_local(rng) for z in phases]
    assert np.max(_residual_norms(np.array([CNOT, SWAP, *dressed]))) <= 1e-14
    for u in (np.eye(4), canonical_class_gate((math.pi / 4,) * 3)):
        assert _residual_norms(u) >= 1.0


def test_cnot_residual_on_the_c3_zero_face_vanishes_only_at_cnot():
    # Single-step gates stay on this face, where R = 0 picks out CNOT.
    c = np.linspace(0.0, HALF_PI, 41)
    c1, c2 = np.meshgrid(c, c, indexing="ij")
    c1, c2 = c1[c1 >= c2], c2[c1 >= c2]
    norms = _residual_norms(canonical_class_gate(np.stack([c1, c2, np.zeros_like(c1)], axis=-1)))
    distance = np.hypot(c1 - HALF_PI, c2)
    assert np.all(norms >= 2.0 * distance)
