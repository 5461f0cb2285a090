"""A seeded, platform-stable PRNG and seed derivation.

Randomness comes from a hand-rolled splitmix64 stream so that a fixed seed
produces the identical byte sequence on every platform and numpy version.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolation

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """splitmix64 output scrambler (Steele, Lea & Flood 2014)."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, *stream: int) -> int:
    """Deterministically derive an independent seed from (seed, stream ids).

    Chains the splitmix64 scrambler over the stream words; used to give
    epochs, participant pairs, and handovers their own decorrelated streams.
    """
    h = seed & _MASK64
    for word in stream:
        h = _mix64((h + _GOLDEN) & _MASK64)
        h = _mix64(h ^ (word & _MASK64))
    return h


class Rng:
    """splitmix64 generator: same seed, same stream, on every platform.

    State advances by the golden-gamma increment and each output is the
    scrambled state. Doubles use the top 53 bits; normals use Box-Muller
    on consecutive uniform pairs (each `normals` call consumes exactly
    2*ceil(n/2) uniforms, no spare is cached across calls).
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def uniform(self) -> float:
        """One double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform_range(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def normals(self, n: int, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        """n draws from N(mean, std^2) via Box-Muller on the uniform stream."""
        if std < 0:
            raise ContractViolation(f"normals: std must be >= 0, got {std}")
        if n < 0:
            raise ContractViolation(f"normals: n must be >= 0, got {n}")
        out = np.empty(n, dtype=np.float64)
        for i in range(0, n, 2):
            # u1 in (0, 1] so log() is finite; u2 in [0, 1).
            u1 = ((self.next_u64() >> 11) + 1) * 2.0**-53
            u2 = self.uniform()
            r = math.sqrt(-2.0 * math.log(u1))
            out[i] = r * math.cos(2.0 * math.pi * u2)
            if i + 1 < n:
                out[i + 1] = r * math.sin(2.0 * math.pi * u2)
        return mean + std * out

    def uniform_matrix(self, rows: int, cols: int, lo: float, hi: float) -> np.ndarray:
        flat = np.array(
            [self.uniform() for _ in range(rows * cols)], dtype=np.float64
        )
        return (lo + (hi - lo) * flat).reshape(rows, cols)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n) driven by the uniform stream."""
        idx = np.arange(n)
        for i in range(n - 1, 0, -1):
            j = int(self.uniform() * (i + 1))
            idx[i], idx[j] = idx[j], idx[i]
        return idx
