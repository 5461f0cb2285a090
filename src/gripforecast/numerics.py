"""Numeric set-up: one BLAS thread, a seeded platform-stable PRNG and seed derivation.

Randomness comes from a hand-rolled splitmix64 stream so that a fixed seed
produces the identical byte sequence on every platform and numpy version.
"""

from __future__ import annotations

import ctypes
import math
from pathlib import Path

import numpy as np

from .errors import ContractViolation

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def one_blas_thread(libs: Path = Path(np.__file__).parent.parent / "numpy.libs") -> bool:
    """Run numpy's bundled OpenBLAS (found in `libs`) at one thread; True if found.

    OpenBLAS splits a long product between its threads, which changes the
    product's rounding, so without this the thread count would change the
    bits of checkpoints and forecasts. Any other BLAS is left as it is.
    """
    for lib in libs.glob("*openblas*"):
        try:
            set_threads = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_set_num_threads64_", None)
        except OSError:
            continue
        if set_threads is not None:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)
            return True
    return False


def _mix64(z: int | np.ndarray) -> int | np.ndarray:
    """splitmix64 output scrambler (Steele, Lea & Flood 2014), on an int or a uint64 array."""
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

    def _next(self, n: int) -> np.ndarray:
        """The next n outputs as uint64: output k scrambles the state seed + k*gamma
        (mod 2^64), so the states are one wrapping multiply, scrambled at once."""
        z = np.uint64(self._state) + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        self._state = (self._state + n * _GOLDEN) & _MASK64
        return _mix64(z)

    def _uniforms(self, n: int) -> np.ndarray:
        """The next n doubles in [0, 1), from the top 53 bits of each output."""
        return (self._next(n) >> 11).astype(np.float64) * 2.0**-53

    def uniform(self) -> float:
        """One double in [0, 1)."""
        return float(self._uniforms(1)[0])

    def uniform_range(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def normals(self, n: int, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        """n draws from N(mean, std^2) via Box-Muller on the uniform stream."""
        if std < 0:
            raise ContractViolation(f"normals: std must be >= 0, got {std}")
        if n < 0:
            raise ContractViolation(f"normals: n must be >= 0, got {n}")
        u = self._uniforms(2 * ((n + 1) // 2)).tolist()
        out = np.empty(n, dtype=np.float64)
        for i in range(0, n, 2):
            # u1 in (0, 1] so log() is finite (the sum is exact); u2 in [0, 1).
            r = math.sqrt(-2.0 * math.log(u[i] + 2.0**-53))
            out[i] = r * math.cos(2.0 * math.pi * u[i + 1])
            if i + 1 < n:
                out[i + 1] = r * math.sin(2.0 * math.pi * u[i + 1])
        return mean + std * out

    def uniform_matrix(self, rows: int, cols: int, lo: float, hi: float) -> np.ndarray:
        return (lo + (hi - lo) * self._uniforms(rows * cols)).reshape(rows, cols)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n) driven by the uniform stream."""
        idx = list(range(n))
        swaps = range(n - 1, 0, -1)
        picks = (self._uniforms(len(swaps)) * np.arange(n, 1, -1)).astype(np.int64)
        for i, j in zip(swaps, picks.tolist()):
            idx[i], idx[j] = idx[j], idx[i]
        return np.array(idx, dtype=np.int64)
