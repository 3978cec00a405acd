"""SplitMix64: the array draw is the scalar stream."""

import numpy as np
import pytest

from biaxial.rng import SplitMix64


@pytest.mark.parametrize("bounds", [(0.0, 1.0), (-1, 1), (-0.6, 0.6)])
@pytest.mark.parametrize("n", [0, 1, 3, 15, 16, 256, 1536])
@pytest.mark.parametrize("seed", [0, 1, 2024, 2 ** 64 - 5])
def test_uniform_array_is_the_scalar_stream(seed, n, bounds):
    fast, slow = SplitMix64(seed), SplitMix64(seed)
    got = fast.uniform_array(n, *bounds)
    want = np.array([slow.uniform(*bounds) for _ in range(n)], dtype=np.float64)
    assert got.dtype == np.float64 and got.shape == (n,)
    assert got.tobytes() == want.tobytes()
    # The state advanced by exactly n draws.
    assert fast.next_u64() == slow.next_u64()


def test_uniform_array_continues_the_stream():
    fast, slow = SplitMix64(7), SplitMix64(7)
    got = np.concatenate([fast.uniform_array(5), [fast.uniform()], fast.uniform_array(4)])
    want = np.array([slow.uniform() for _ in range(10)])
    assert got.tobytes() == want.tobytes()
