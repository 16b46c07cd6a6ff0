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
