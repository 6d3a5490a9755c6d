"""Seeded 64-bit PRNG used for every random decision in the package.

A single splitmix64 generator drives parameter initialization, data
synthesis, splitting and shuffling, so runs are bit-reproducible for a
fixed seed without depending on any external RNG's stream stability.
Child streams are derived from (seed, label) pairs rather than from the
parent's position, so adding a consumer never perturbs the others.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z):
    """The splitmix64 output function of an int, or elementwise of a
    ``uint64`` array, whose arithmetic wraps modulo 2**64 as the masks do."""
    z = (z + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


class SplitMix64:
    """Deterministic splitmix64 stream with a few sampling helpers."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._state = self.seed
        self._spare_normal: float | None = None

    def fork(self, label: str) -> "SplitMix64":
        """Independent child stream keyed by a stable label."""
        return SplitMix64(_mix64(self.seed ^ _fnv1a64(label)))

    def next_u64(self) -> int:
        z = _mix64(self._state)
        self._state = (self._state + _GAMMA) & _MASK64
        return z

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        # 53 high bits give a uniform double in [0, 1)
        u = (self.next_u64() >> 11) * (1.0 / (1 << 53))
        return lo + (hi - lo) * u

    def normal(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return mu + sigma * z
        # Box-Muller; u1 kept away from 0 so log stays finite
        u1 = max(self.uniform(), 1e-300)
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare_normal = r * math.sin(2.0 * math.pi * u2)
        return mu + sigma * (r * math.cos(2.0 * math.pi * u2))

    def exponential(self, rate: float) -> float:
        if rate <= 0:
            raise ValueError(f"exponential rate must be positive, got {rate}")
        return -math.log(max(self.uniform(), 1e-300)) / rate

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) without modulo bias."""
        if n <= 0:
            raise ValueError(f"below() needs n >= 1, got {n}")
        limit = _MASK64 - (_MASK64 % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def uniform_array(self, shape, lo: float, hi: float) -> np.ndarray:
        """``uniform(lo, hi)`` drawn once per element in C order, with the
        same bits and the same stream position as that loop."""
        n = int(np.prod(shape))
        z = _mix64(self._state + np.arange(n, dtype=np.uint64) * _GAMMA)
        self._state = (self._state + n * _GAMMA) & _MASK64
        u = (z >> 11).astype(np.float64) * (1.0 / (1 << 53))
        return (lo + (hi - lo) * u).reshape(shape)
