"""Stacks of matrices through the class kernels and the builders.

Each member of a ``(..., 4, 4)`` stack must get the bits it gets when passed
alone; every contract must hold per member, with the error naming the worst
member; and an empty stack must give empty results.  The undriven
propagators, their two-step products and their (u, v) must equal the
per-point oracle ``propagator_oracle``, byte for byte.
"""

import itertools
import math

import numpy as np
import pytest

import cnotsteer.cli as cli
import cnotsteer.equivclass as equivclass
import cnotsteer.optimize as optimize
from cnotsteer.equivclass import (
    canonical_class_gate,
    cnot_distance,
    cnot_residual,
    makhlin_invariants,
    to_magic,
    weyl_coordinates,
)
from cnotsteer.qmat import (
    XX,
    YY,
    ZZ,
    ContractViolationError,
    expm_skew,
    kron2,
    require_unitary,
    skewness_defect,
    unitarity_defect,
)
from cnotsteer.sequences import (
    CNOT,
    LocalRotationSpec,
    SystemParams,
    entangling_u,
    euler_u2,
    single_step_gates,
    single_step_u,
    two_step_product,
    undriven_propagators,
    undriven_uv,
    weyl_trajectory,
)

import propagator_oracle
from calibration_oracle import single_step_gate, single_step_residual
from propagator_oracle import evolve_stepwise, h_rwa_frame1
from conftest import random_skew, random_unitary, spec_from_vector

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

HALF_PI = math.pi / 2.0
SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
NAMED = (np.eye(4, dtype=complex), CNOT, SWAP)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

angle = st.floats(-math.pi, math.pi, allow_nan=False)
coordinate = st.floats(0.0, HALF_PI, allow_nan=False)
seeds = st.integers(0, 2**32 - 1)


@st.composite
def face_point(draw):
    """A chamber point on one of the faces c3 = 0, c1 = pi/2, c1 = c2, c2 = c3."""
    c = sorted(draw(st.lists(coordinate, min_size=3, max_size=3)), reverse=True)
    face = draw(st.integers(0, 3))
    if face == 0:
        c[2] = 0.0
    elif face == 1:
        c[0] = HALF_PI
    elif face == 2:
        c[1] = c[0]
    else:
        c[2] = c[1]
    return tuple(c)


@st.composite
def gate(draw):
    """A Haar-random gate, or a dressed I, CNOT, SWAP or chamber-face gate."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return random_unitary(np.random.default_rng(draw(seeds)))
    core = draw(st.sampled_from(NAMED)) if kind == 1 else canonical_class_gate(draw(face_point()))
    a = draw(st.lists(angle, min_size=13, max_size=13))
    left = kron2(euler_u2(*a[0:3]), euler_u2(*a[3:6]))
    right = kron2(euler_u2(*a[6:9]), euler_u2(*a[9:12]))
    return np.exp(1j * a[12]) * left @ core @ right


@st.composite
def generator(draw):
    """A random skew-Hermitian generator, or one of a chamber-face class gate."""
    if draw(st.booleans()):
        return random_skew(np.random.default_rng(draw(seeds)), scale=draw(st.floats(0.0, 10.0)))
    c1, c2, c3 = draw(face_point())
    return -(c1 * XX + c2 * YY + c3 * ZZ)


gate_stacks = st.lists(gate(), min_size=1, max_size=6).map(np.array)
generator_stacks = st.lists(generator(), min_size=1, max_size=6).map(np.array)


def _bits(value) -> bytes:
    """The bytes of a value: an array or a float."""
    return np.asarray(value, dtype=float if not np.iscomplexobj(value) else complex).tobytes()


def _invariant_rows(u):
    """``(G1, G2)`` of each member side by side, as one complex row per member."""
    return np.stack(makhlin_invariants(u), axis=-1)


def _assert_members_alone(kernel, stack):
    stacked = kernel(stack)
    assert len(stacked) == len(stack)
    for member, alone in zip(stacked, (kernel(m) for m in stack)):
        assert _bits(member) == _bits(alone)


@PROPERTY
@given(gate_stacks)
def test_gate_kernels_give_each_member_its_own_bits(stack):
    for kernel in (
        unitarity_defect,
        lambda u: require_unitary(u, what="gate"),
        to_magic,
        _invariant_rows,
        cnot_residual,
        weyl_coordinates,
    ):
        _assert_members_alone(kernel, stack)


@PROPERTY
@given(generator_stacks)
def test_generator_kernels_give_each_member_its_own_bits(stack):
    for kernel in (skewness_defect, expm_skew):
        _assert_members_alone(kernel, stack)


def test_named_gates_in_one_stack():
    # I, CNOT and SWAP have degenerate magic-basis spectra.
    stack = np.array(NAMED)
    for kernel in (unitarity_defect, to_magic, _invariant_rows, cnot_residual, weyl_coordinates):
        _assert_members_alone(kernel, stack)
    assert weyl_coordinates(stack).tolist() == [
        [0.0, 0.0, 0.0],
        [HALF_PI, 0.0, 0.0],
        [HALF_PI, HALF_PI, HALF_PI],
    ]


def test_stack_axes_are_kept():
    rng = np.random.default_rng(11)
    stack = np.array([random_unitary(rng) for _ in range(6)]).reshape(2, 3, 4, 4)
    assert unitarity_defect(stack).shape == (2, 3)
    assert expm_skew(np.zeros((2, 3, 4, 4))).shape == (2, 3, 4, 4)
    flat = stack.reshape(6, 4, 4)
    for got, want in zip(makhlin_invariants(stack), makhlin_invariants(flat)):
        assert got.shape == (2, 3) and got.tobytes() == want.tobytes()
    c = weyl_coordinates(stack)
    assert c.shape == (2, 3, 3) and c.tobytes() == weyl_coordinates(flat).tobytes()


def test_empty_stack_gives_empty_results():
    empty = np.empty((0, 4, 4), dtype=complex)
    assert unitarity_defect(empty).shape == (0,)
    assert skewness_defect(empty).shape == (0,)
    assert require_unitary(empty, what="gate").shape == (0, 4, 4)
    assert expm_skew(empty).shape == (0, 4, 4)
    assert to_magic(empty).shape == (0, 4, 4)
    assert cnot_residual(empty).shape == (0, 32)
    assert [g.shape for g in makhlin_invariants(empty)] == [(0,), (0,)]
    assert weyl_coordinates(empty).shape == (0, 3)


def _gates(n=5, seed=3):
    rng = np.random.default_rng(seed)
    return np.array([random_unitary(rng) for _ in range(n)])


_GATE_KERNELS = {
    "require_unitary": lambda u: require_unitary(u, what="gate"),
    "makhlin_invariants": makhlin_invariants,
    "weyl_coordinates": weyl_coordinates,
}


@pytest.mark.parametrize("kernel", _GATE_KERNELS.values(), ids=_GATE_KERNELS.keys())
@pytest.mark.parametrize("bad", ["scaled", "nan"])
def test_one_non_unitary_member_is_named(kernel, bad):
    stack = _gates()
    stack[3] = 1.01 * stack[3] if bad == "scaled" else np.nan
    with pytest.raises(ContractViolationError, match=r"^gate 3 is not unitary"):
        kernel(stack)


@pytest.mark.parametrize("bad", ["hermitian", "nan"])
def test_one_non_skew_member_is_named(bad):
    rng = np.random.default_rng(5)
    stack = np.array([random_skew(rng) for _ in range(4)])
    stack[2] = stack[2] + 1e-3 * np.eye(4) if bad == "hermitian" else np.nan
    with pytest.raises(ContractViolationError, match=r"^generator 2 is not skew-Hermitian"):
        expm_skew(stack)


def test_the_worst_member_is_named():
    stack = _gates(6)
    stack[1] = 1.001 * stack[1]
    stack[4] = 1.1 * stack[4]
    with pytest.raises(ContractViolationError, match=r"^gate 4 is not unitary: .* = 4\.200e-01"):
        require_unitary(stack, what="gate")
    stack[5, 0, 0] = np.nan  # a NaN is worse than any finite defect
    with pytest.raises(ContractViolationError, match=r"^gate 5 is not unitary: .* = nan"):
        require_unitary(stack, what="gate")


def test_a_member_of_a_stack_with_two_axes_is_named_by_its_index():
    stack = _gates(6).reshape(2, 3, 4, 4)
    stack[1, 2] = 2.0 * stack[1, 2]
    with pytest.raises(ContractViolationError, match=r"^gate \(1, 2\) is not unitary"):
        require_unitary(stack, what="gate")


def test_one_member_off_the_g2_reality_bound_is_named(monkeypatch):
    # Tighten only the G2 bound: a member unitary to ~1e-9 passes the
    # unitarity check but its G2 is ~1e-9 off the real axis.
    stack = _gates()
    e = np.random.default_rng(8).normal(size=(4, 4))
    stack[2] = stack[2] + 1.5e-9 * e / np.linalg.norm(e)
    monkeypatch.setattr(equivclass, "UNITARITY_TOL", 1e-13)
    with pytest.raises(ContractViolationError, match=r"^G2 of gate 2 is not real"):
        makhlin_invariants(stack)


def test_one_member_outside_the_chamber_is_named(monkeypatch):
    # The fold keeps every finite point in the chamber; a NaN coordinate is
    # the one way out, and it must fail for its own member.
    raw = equivclass._raw_coordinates

    def nan_in_row_1(u):
        c = raw(u)
        c[1, 0] = np.nan
        return c

    monkeypatch.setattr(equivclass, "_raw_coordinates", nan_in_row_1)
    with pytest.raises(ValueError, match=r"^Weyl point 1 .* is outside the chamber by nan"):
        weyl_coordinates(_gates())


points = st.tuples(st.floats(0.5, 8.0), st.floats(0.5, 2.5))


def _assert_points_alone(delta, x):
    # The solvers' stacked gates and residuals against one call per point.
    gates = optimize._gates(delta, x)
    residuals = cnot_residual(gates)
    for gate, r, point in zip(gates, residuals, x):
        assert gate.tobytes() == single_step_gate(delta, point).tobytes()
        assert r.tobytes() == single_step_residual(delta, point).tobytes()


@PROPERTY
@given(st.floats(-3.0, 3.0), st.lists(points, min_size=1, max_size=4).map(np.array))
def test_single_step_gates_and_residuals_give_each_point_its_own_bits(delta, x):
    _assert_points_alone(delta, x)


@pytest.mark.parametrize("delta", [0.0, -0.0, 1.0, -1.0, 2.0, -2.0])
def test_single_step_stencil_at_named_detunings(delta):
    x = np.array(optimize.SINGLE_STEP_START) + optimize._ROOT_STENCIL
    _assert_points_alone(delta, x)
    # Zero time gives exactly I, alone and in a stack.
    _assert_points_alone(delta, np.array([[3.0, 0.0], [0.5, 0.0], [3.0, 1.0]]))
    assert np.array_equal(single_step_gate(delta, np.array([3.0, 0.0])), np.eye(4))
    assert np.array_equal(single_step_gates(delta, [3.0, 0.5], 0.0), np.array([np.eye(4)] * 2))


def _assert_undriven_members(delta, g_tilde, t):
    # Every member of the maps against the per-point oracle, byte for byte.
    u, v = undriven_uv(delta, t)
    assert u.shape == v.shape == delta.shape
    for index in np.ndindex(delta.shape):
        u_ref, v_ref = propagator_oracle.uv_coefficients(float(t[index]), float(delta[index]))
        assert u[index].tobytes() == np.complex128(u_ref).tobytes()
        assert v[index].tobytes() == np.float64(v_ref).tobytes()
    for frame in (1, 2):
        gates = undriven_propagators(delta, g_tilde, t, frame)
        products = two_step_product(gates)
        assert gates.shape == products.shape == delta.shape + (4, 4)
        for index in np.ndindex(delta.shape):
            point = (float(t[index]), float(delta[index]), float(g_tilde[index]), frame)
            assert gates[index].tobytes() == propagator_oracle.entangling_u(*point).tobytes()
            product = propagator_oracle.two_step_sandwich(*point)
            assert products[index].tobytes() == product.tobytes()


@st.composite
def undriven_points(draw):
    """Arrays (delta, g_tilde, t) of one shape: (n,), (2, 3) or (0,)."""
    shape = draw(st.sampled_from([(draw(st.integers(1, 6)),), (2, 3), (0,)]))
    size = math.prod(shape)
    return [
        np.array(draw(st.lists(values, min_size=size, max_size=size)), dtype=float).reshape(shape)
        for values in (st.floats(-3.0, 3.0), st.floats(0.0, 0.1), st.floats(0.0, 5.0))
    ]


@PROPERTY
@given(undriven_points())
def test_undriven_maps_equal_the_per_point_oracle(points):
    _assert_undriven_members(*points)


def test_undriven_maps_at_named_points():
    # Zero time, signed-zero and bound detunings, no and weak ZZ coupling.
    deltas, g_tildes, times = [0.0, -0.0, 2.0, -2.0, 3.0, -3.0], [0.0, 0.05, 0.1], [0.0, 0.7, 3.1]
    grid = np.array(list(itertools.product(deltas, g_tildes, times)))
    delta, g_tilde, t = grid.T
    _assert_undriven_members(delta, g_tilde, t)
    _assert_undriven_members(*(a.reshape(6, 3, 3) for a in (delta, g_tilde, t)))
    identities = np.array([np.eye(4)] * len(grid))
    assert np.array_equal(undriven_propagators(delta, g_tilde, 0.0, frame=2), identities)
    # The one-point call is the map at one point.
    for d, g, time in grid:
        p = SystemParams(delta=d, g_tilde=g)
        for frame in (1, 2):
            want = propagator_oracle.entangling_u(time, d, g, frame)
            assert entangling_u(time, p, frame).tobytes() == want.tobytes()


def test_undriven_maps_broadcast_their_arguments():
    delta, g_tilde, t = np.array([[0.4], [-1.3]]), np.array([0.0, 0.05, 0.1]), 1.7
    gates = undriven_propagators(delta, g_tilde, t, frame=2)
    assert gates.shape == (2, 3, 4, 4)
    for i, j in np.ndindex(2, 3):
        ref = propagator_oracle.entangling_u_frame2(t, delta[i, 0], g_tilde[j])
        assert gates[i, j].tobytes() == ref.tobytes()


def test_undriven_maps_reject_a_negative_time_and_an_unknown_frame():
    with pytest.raises(ValueError, match=r"^time must be >= 0, got -0.5"):
        undriven_propagators([0.3, 0.4], 0.0, [1.0, -0.5], frame=1)
    with pytest.raises(ValueError, match=r"^frame must be 1 or 2, got 3"):
        undriven_propagators(0.3, 0.0, 1.0, frame=3)
    # A non-finite time, alone or in a stack, is an error and not a NaN matrix.
    non_finite = [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")]
    for t, shown in non_finite + [([1.0, math.nan, 2.0], "nan")]:
        with pytest.raises(ValueError, match=rf"^time must be finite, got {shown}$"):
            undriven_uv(0.5, t)
        for frame in (1, 2):
            with pytest.raises(ValueError, match=rf"^time must be finite, got {shown}$"):
                undriven_propagators(0.5, 0.0, t, frame)
    for frame in (1, 2):
        with pytest.raises(ValueError, match=r"^time must be finite, got nan$"):
            entangling_u(math.nan, SystemParams(delta=0.5), frame)
    # The single-step one-point call, the stepwise integrator and the
    # trajectory's end time share the check.
    p = SystemParams(delta=0.5, omega1=3.0)
    for t, shown in non_finite:
        with pytest.raises(ValueError, match=rf"^time must be finite, got {shown}$"):
            single_step_u(t, p)
        with pytest.raises(ValueError, match=rf"^time must be finite, got {shown}$"):
            evolve_stepwise(p, t, 4)
        with pytest.raises(ValueError, match=rf"^time must be finite, got {shown}$"):
            weyl_trajectory(p, t, 4)
    with pytest.raises(ValueError, match=r"^time must be >= 0, got -1.0$"):
        single_step_u(-1.0, p)
    with pytest.raises(ValueError, match=r"^time must be >= 0, got -1.0$"):
        evolve_stepwise(p, -1.0, 4)
    with pytest.raises(ValueError, match=r"^time must be >= 0, got -1.0$"):
        weyl_trajectory(p, -1.0, 4)


single_step_point = (st.floats(-3.0, 3.0), st.floats(0.5, 8.0), st.floats(0.0, 4.0))

angle_triples = st.lists(st.tuples(angle, angle, angle), min_size=0, max_size=6).map(
    lambda a: np.array(a, dtype=float).reshape(-1, 3)
)


@PROPERTY
@given(angle_triples, angle_triples)
def test_local_dressings_give_each_member_its_own_bits(left, right):
    n = min(len(left), len(right))
    a2, b1 = euler_u2(*left[:n].T), euler_u2(*right[:n].T)
    assert a2.shape == b1.shape == (n, 2, 2)
    dressings = kron2(a2, b1)
    assert dressings.shape == (n, 4, 4)
    for k in range(n):
        alone = euler_u2(*left[k].tolist()), euler_u2(*right[k].tolist())
        assert a2[k].tobytes() == alone[0].tobytes()
        assert dressings[k].tobytes() == kron2(*alone).tobytes()
        assert dressings[k].tobytes() == np.kron(*alone).tobytes()


def test_one_stacked_realize_dresses_each_gate_as_its_own_spec_does(rng):
    # 50 (spec, gate) pairs: the spec of angle arrays against each spec of
    # Python floats alone, then one spec of floats over the whole stack.
    v = rng.uniform(-math.pi, math.pi, size=(50, 13))
    gates = np.array([random_unitary(rng) for _ in v])
    a = v.T
    dressed = LocalRotationSpec(a[0:3], a[3:6], a[6:9], a[9:12], phase=a[12]).realize(gates)
    assert dressed.shape == gates.shape
    for k, gate in enumerate(gates):
        assert dressed[k].tobytes() == spec_from_vector(v[k]).realize(gate).tobytes()
    one = spec_from_vector(v[0])
    for gate, member in zip(gates, one.realize(gates)):
        assert member.tobytes() == one.realize(gate).tobytes()


@PROPERTY
@given(st.lists(st.tuples(*single_step_point), max_size=4))
def test_single_step_gates_take_a_detuning_stack(points):
    # Each member is the frame-1 evolution of its own (delta, omega1).
    delta, omega1, t = np.array(points, dtype=float).reshape(-1, 3).T
    gates = single_step_gates(delta, omega1, t)
    assert gates.shape == (len(points), 4, 4)
    for gate, (d, w, time) in zip(gates, points):
        ref = expm_skew(-time * h_rwa_frame1(SystemParams(delta=d, omega1=w)))
        assert gate.tobytes() == ref.tobytes()


def test_trajectory_samples_are_members_of_the_single_step_map():
    # Each sample is the stacked map's gate at its time, and its point the
    # stacked fold's, bit for bit, at the calibrated recipe of each detuning.
    deltas = [0.0, 0.5, 1.0, 1.5, 2.0]
    for delta, cal in zip(deltas, optimize.calibrate_single_step(deltas)):
        t_max = cal.t_units * HALF_PI
        t, c = weyl_trajectory(SystemParams(delta=delta, omega1=cal.omega1_over_g), t_max, 257)
        times = np.linspace(0.0, t_max, 257)
        points = equivclass._chamber_coordinates(single_step_gates(delta, cal.omega1_over_g, times))
        assert t.tobytes() == times.tobytes()
        assert c.shape == (257, 3) and c.tobytes() == points.tobytes()


def test_stacked_d2_equals_cnot_distance_member_by_member(monkeypatch):
    # Every gate the table2 calibration evaluates, 4,096 seeded single-step
    # gates, 4,096 Haar-random gates (whose G1 has a sizeable imaginary part,
    # unlike the single-step ones), and CNOT, I and SWAP.
    evaluated = []
    distances = optimize._distances

    def record(delta, x):
        evaluated.append(optimize._gates(delta, x).reshape(-1, 4, 4))
        return distances(delta, x)

    monkeypatch.setattr(optimize, "_distances", record)
    optimize.calibrate_single_step(cli._TABLE2_GRID)
    rng = np.random.default_rng(24)
    delta, omega1, t = rng.uniform((-3.0, 0.5, 0.0), (3.0, 8.0, 4.0), size=(4096, 3)).T
    haar = np.array([random_unitary(rng) for _ in range(4096)])
    u = np.concatenate(evaluated + [single_step_gates(delta, omega1, t), haar, np.array(NAMED)])
    # The bit reference is the Python scalar d^2 of each member's invariants.
    g1, g2 = makhlin_invariants(u)
    want = np.array([abs(a.item()) ** 2 + abs(b.item() - 1.0) ** 2 for a, b in zip(g1, g2)])
    assert cnot_distance(g1, g2).tobytes() == want.tobytes()
    # CNOT's G1 is 0 exactly and its d^2 is at rounding level; I and SWAP lie
    # beyond 1.
    identity, cnot, swap = want[-3:]
    assert makhlin_invariants(CNOT)[0] == 0.0
    assert 0.0 < cnot < 1e-30
    assert identity > 1.0 and swap > 1.0


def test_the_array_primitives_round_as_the_scalar_d2():
    # The scalar d^2's complex abs and ** 2, against the array functions
    # cnot_distance uses, over magnitudes from 1e-17 to 10.
    rng = np.random.default_rng(2024)
    n = 100_000
    re, im = rng.normal(size=(2, n)) * 10.0 ** rng.uniform(-17.0, 1.0, size=(2, n))
    scalar_abs = [abs(complex(a, b)) for a, b in zip(re.tolist(), im.tolist())]
    assert np.hypot(re, im).tobytes() == np.array(scalar_abs).tobytes()
    x = rng.normal(size=n) * 10.0 ** rng.uniform(-17.0, 1.0, size=n)
    assert np.float_power(x, 2.0).tobytes() == np.array([v**2 for v in x.tolist()]).tobytes()
