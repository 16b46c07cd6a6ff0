"""The stacked ``verify`` checks against their per-sample reference."""

import numpy as np
import pytest

import cnotsteer.verify as verify
import verify_oracle
from cnotsteer.verify import run_checks


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 7, 42])
def test_stacked_checks_equal_the_per_sample_oracle(seed):
    # Same samples, same deviations: CheckResult equality compares ``worst``
    # with ==.
    assert run_checks(seed) == verify_oracle.run_checks(seed)


@pytest.mark.parametrize("seed", [7, 42])
def test_stacked_checks_yield_the_oracle_deviations(seed):
    # Stronger than the worst: every deviation, in order, bit for bit.
    for k, ((name, _, stacked), (_, _, oracle)) in enumerate(
        zip(verify._CHECKS, verify_oracle._CHECKS), start=1
    ):
        got = np.array(list(stacked(np.random.default_rng(seed + k))))
        want = np.array(list(oracle(np.random.default_rng(seed + k))))
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("seed", [5, 12])
def test_interior_points_drawn_in_blocks_are_the_per_try_points(seed):
    # 3,000 points need more than one block: some tries are rejected.
    n = 3000
    got = verify._interior_points(np.random.default_rng(seed), n)
    rng = np.random.default_rng(seed)
    want = np.array([verify_oracle._interior_point(rng) for _ in range(n)])
    assert got.tobytes() == want.tobytes()
    margin = 1e-3
    tries = np.random.default_rng(seed).uniform(margin, verify._HALF_PI - margin, size=(n, 3))
    assert not np.array_equal(np.sort(tries, axis=-1)[:, ::-1], want)
