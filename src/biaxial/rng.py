"""Deterministic splitmix64 generator for reproducible test points.

Uses the published splitmix64 constants, so any implementation seeded the
same way produces the same stream regardless of platform or language.
"""

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    def __init__(self, seed: int):
        self._state = int(seed) & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = self.next_u64() >> 11
        return lo + (hi - lo) * (u * 2.0 ** -53)

    def uniform_array(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """The next n uniform() draws; the state advances by n (uint64 wraps like the masks)."""
        if n < 16:  # below 16 draws numpy's per-call cost exceeds the loop's
            return np.array([self.uniform(lo, hi) for _ in range(n)])
        z = np.arange(1, n + 1, dtype=np.uint64) * _GAMMA + self._state
        self._state = (self._state + n * _GAMMA) & _MASK
        z = (z ^ (z >> 30)) * _MIX1
        z = (z ^ (z >> 27)) * _MIX2
        u = (z ^ (z >> 31)) >> 11
        return lo + (hi - lo) * (u.astype(np.float64) * 2.0 ** -53)

    def unit_vector(self, d: int) -> np.ndarray:
        # Rejection keeps the direction distribution shape-independent of d.
        while True:
            v = self.uniform_array(d, -1.0, 1.0)
            norm = float(np.linalg.norm(v))
            if 0.1 <= norm <= 1.0:
                return v / norm

    def complex_coeffs(self, n: int) -> np.ndarray:
        re = self.uniform_array(n, -1.0, 1.0)
        im = self.uniform_array(n, -1.0, 1.0)
        return re + 1j * im
