import math

import numpy as np
import pytest

import cnotsteer.equivclass as equivclass
from cnotsteer.equivclass import (
    _WEYL_TOL,
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
    entangling_u,
    euler_u2,
    single_step_u,
    two_step_invariants_closed,
    two_step_time,
    weyl_trajectory,
)

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
    g1, g2 = makhlin_invariants(CNOT)
    assert abs(g1) < 1e-12
    assert abs(g2 - 1.0) < 1e-12
    # One gate gives 0-d arrays, G2 real, and a 0-d d^2.
    assert (g1.ndim, g1.dtype, g2.ndim, g2.dtype) == (0, complex, 0, float)
    assert cnot_distance(g1, g2).ndim == 0


def test_invariants_of_identity():
    g1, g2 = makhlin_invariants(np.eye(4, dtype=complex))
    assert abs(g1 - 1.0) < 1e-12
    assert abs(g2 - 3.0) < 1e-12


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
        (g1a, g2a), (g1b, g2b) = makhlin_invariants(v), makhlin_invariants(w @ vh)
        assert g2a.dtype == float
        assert abs(g1a - g1b) < 1e-8 and abs(g2a - g2b) < 1e-8


def test_two_step_sandwich_reaches_cnot_class_at_delta_one():
    p = SystemParams(delta=1.0)
    assert cnot_distance(*makhlin_invariants(_sandwich(two_step_time(p), p))) < 1e-10


def test_closed_form_invariants_special_values():
    p0 = SystemParams(delta=0.7)
    g1, g2 = two_step_invariants_closed(0.0, p0)
    assert abs(g1 - 1.0) < 1e-12 and abs(g2 - 3.0) < 1e-12

    g1, g2 = two_step_invariants_closed(np.pi / 4.0, SystemParams(delta=0.0))
    assert abs(g1) < 1e-12 and abs(g2 - 1.0) < 1e-12

    g1, g2 = two_step_invariants_closed(np.pi / (2.0 * np.sqrt(2.0)), SystemParams(delta=2.0))
    assert abs(g1) < 1e-12 and abs(g2 - 1.0) < 1e-12


def test_two_step_reaches_cnot_exactly_up_to_two_g():
    for delta in (0.0, 0.5, 1.0, 1.5, 2.0, -2.0):
        p = SystemParams(delta=delta)
        assert cnot_distance(*two_step_invariants_closed(two_step_time(p), p)) <= 1e-24, delta
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
            assert cnot_distance(*two_step_invariants_closed(t, p)) >= floor, (delta, t)


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
        assert abs(closed[0] - direct[0]) < 1e-9
        assert abs(closed[1] - direct[1]) < 1e-9


def test_frame_independence_of_sandwich_invariants(rng):
    for _ in range(25):
        t = rng.uniform(0.0, 3.0)
        p = SystemParams(delta=rng.uniform(0.0, 3.0))
        g1a, g2a = makhlin_invariants(_sandwich(t, p, frame=1))
        g1b, g2b = makhlin_invariants(_sandwich(t, p, frame=2))
        assert abs(g1a - g1b) < 1e-10 and abs(g2a - g2b) < 1e-10


def test_local_dressing_invariance(rng):
    for _ in range(100):
        u = random_unitary(rng)
        phase = np.exp(1j * rng.uniform(-np.pi, np.pi))
        dressed = phase * _random_local(rng) @ u @ _random_local(rng)
        (g1a, g2a), (g1b, g2b) = makhlin_invariants(u), makhlin_invariants(dressed)
        assert abs(g1a - g1b) < 1e-10
        assert abs(g2a - g2b) < 1e-10


def test_weyl_point_validation():
    _require_chamber(np.array([1.2, 0.7, 0.1]))
    with pytest.raises(ValueError):
        _require_chamber(np.array([0.2, 0.7, 0.1]))  # violates ordering
    with pytest.raises(ValueError):
        _require_chamber(np.array([2.0, 0.1, 0.0]))  # c1 > pi/2
    # c2 <= c1 + _WEYL_TOL holds in floating point, but the excess
    # (c2 - c1) - _WEYL_TOL rounds to 8.274e-17: the check goes by the excess.
    edge = np.array([1.4688083285730271, 1.4688083295730272, 0.0035094968672881844])
    assert edge[1] <= edge[0] + _WEYL_TOL
    with pytest.raises(ValueError, match=r"outside the chamber by 8\.274e-17$"):
        _require_chamber(edge)


def test_weyl_coordinates_checks_the_chamber_once_per_call(monkeypatch, rng):
    calls = []
    check = equivclass._require_chamber

    def counted(c):
        calls.append(c.shape)
        check(c)

    monkeypatch.setattr(equivclass, "_require_chamber", counted)
    weyl_coordinates(CNOT)
    assert calls == [(3,)]
    weyl_coordinates(np.array([random_unitary(rng) for _ in range(5)]))
    assert calls == [(3,), (5, 3)]


def test_weyl_coordinates_of_named_gates():
    assert weyl_coordinates(CNOT).shape == (3,)
    c1, c2, c3 = weyl_coordinates(CNOT)
    assert abs(c1 - HALF_PI) < 1e-12 and abs(c2) < 1e-12 and abs(c3) < 1e-12
    assert np.max(np.abs(weyl_coordinates(np.eye(4, dtype=complex)))) < 1e-12
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
        got = weyl_coordinates(gate)
        assert np.max(np.abs(got - expected)) < 1e-12
        assert np.max(np.abs(got - search_weyl_coordinates(gate))) < 1e-12


def test_weyl_reject_non_unitary():
    for bad in (2.0 * np.eye(4, dtype=complex), np.full((4, 4), np.nan, dtype=complex)):
        with pytest.raises(ContractViolationError):
            weyl_coordinates(bad)


def test_weyl_round_trip_interior(rng):
    for _ in range(50):
        c = _interior_point(rng)
        got = weyl_coordinates(canonical_class_gate(tuple(c)))
        assert np.max(np.abs(got - c)) < 1e-8


def test_weyl_invariant_consistency_random_unitaries(rng):
    # Extracted coordinates must reproduce the invariants exactly up to the
    # chamber's mirror identification (conjugate G1); see equivclass docs.
    n_exact = 0
    for _ in range(100):
        u = random_unitary(rng)
        g1, g2 = makhlin_invariants(u)
        w1, w2 = invariants_from_weyl(weyl_coordinates(u))
        err_exact = abs(w1 - g1) + abs(w2 - g2)
        err_mirror = abs(np.conj(w1) - g1) + abs(w2 - g2)
        if err_exact < 1e-8:
            n_exact += 1
        assert min(err_exact, err_mirror) < 1e-8
    assert n_exact > 20  # both orientations occur for Haar-random gates


def test_weyl_matches_invariants_from_closed_form(rng):
    for _ in range(30):
        c = _interior_point(rng)
        w1, w2 = invariants_from_weyl((c[0], c[1], c[2]))
        g1, g2 = makhlin_invariants(canonical_class_gate(tuple(c)))
        assert abs(w1 - g1) < 1e-12
        assert abs(w2 - g2) < 1e-12


def test_single_step_table_point_at_delta_15():
    p = SystemParams(delta=1.5, omega1=3.7152)
    point = weyl_coordinates(single_step_u(1.0961 * HALF_PI, p))
    assert abs(point[2]) < 1e-8
    g1, g2 = invariants_from_weyl(point)
    assert abs(g1 - 0.0476) < 2e-3
    assert abs(g2 - 0.9898) < 2e-3


def test_cnot_distance_values():
    assert cnot_distance(0.0 + 0.0j, 1.0) == 0.0
    assert abs(cnot_distance(1.0 + 0.0j, 3.0) - 5.0) < 1e-12
    d2 = cnot_distance(0.1118 + 0.0j, 0.9754)
    assert abs(d2 - (0.1118**2 + 0.0246**2)) < 1e-12
    # Elementwise over arrays of any shape.
    g1 = np.array([[0.0, 1.0], [0.1118, 0.0]], dtype=complex)
    g2 = np.array([[1.0, 3.0], [0.9754, 1.0]])
    d2 = cnot_distance(g1, g2)
    assert d2.shape == (2, 2) and d2[0, 0] == 0.0 and abs(d2[0, 1] - 5.0) < 1e-12


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
