"""Tests for the BLAS set-up, the deterministic PRNG and seed derivation."""

import hashlib

import numpy as np
import pytest

from gripforecast.errors import ContractViolation
from gripforecast.model import init_params
from gripforecast.numerics import Rng, derive_seed, one_blas_thread

# Reference splitmix64 outputs for seed 1 (the widely published test vector).
SPLITMIX64_SEED1 = [
    10451216379200822465,
    13757245211066428519,
    17911839290282890590,
]


def test_splitmix64_golden_vector():
    assert Rng(1)._next(3).tolist() == SPLITMIX64_SEED1


def test_stream_is_platform_stable_floats():
    # Frozen first uniforms for seed 1: (u64 >> 11) * 2**-53 of the golden
    # vector above, asserted exactly — any drift breaks reproducibility.
    rng = Rng(1)
    expected = [(v >> 11) * 2.0**-53 for v in SPLITMIX64_SEED1]
    assert [rng.uniform() for _ in range(3)] == expected


def test_same_seed_same_stream():
    a = Rng(42)
    b = Rng(42)
    assert a._next(10).tolist() == b._next(10).tolist()


def test_different_seeds_differ():
    assert Rng(0)._next(1).tolist() != Rng(1)._next(1).tolist()


def test_derive_seed_depends_on_every_component():
    base = derive_seed(7, 1, 2)
    assert derive_seed(7, 1, 3) != base
    assert derive_seed(7, 2, 2) != base
    assert derive_seed(8, 1, 2) != base


def test_uniform_in_unit_interval():
    rng = Rng(3)
    for _ in range(1000):
        u = rng.uniform()
        assert 0.0 <= u < 1.0


def test_uniform_range_bounds():
    rng = Rng(4)
    values = [rng.uniform_range(-2.0, 5.0) for _ in range(500)]
    assert all(-2.0 <= v < 5.0 for v in values)
    assert min(values) < -1.0 and max(values) > 4.0  # actually spreads out


def test_normals_law_of_large_numbers():
    draws = Rng(2).normals(20000, mean=1.5, std=2.0)
    assert abs(float(draws.mean()) - 1.5) < 0.05 * 2.0
    assert abs(float(draws.std()) - 2.0) < 0.05 * 2.0


def test_normals_zero_std_is_constant():
    draws = Rng(5).normals(7, mean=3.25, std=0.0)
    assert np.all(draws == 3.25)


def test_normals_negative_std_rejected():
    with pytest.raises(ContractViolation):
        Rng(5).normals(3, std=-1.0)
    with pytest.raises(ContractViolation, match="n must be >= 0"):
        Rng(5).normals(-1)


def test_normals_consume_fixed_uniform_budget():
    # Each call consumes 2*ceil(n/2) uniforms, so odd-length calls leave the
    # stream in the same place as the even-length call that covers them.
    a = Rng(9)
    a.normals(3)
    b = Rng(9)
    b.normals(4)
    assert a._next(1).tolist() == b._next(1).tolist()


def test_permutation_is_a_permutation():
    rng = Rng(11)
    perm = rng.permutation(50)
    assert sorted(perm.tolist()) == list(range(50))


def test_permutation_deterministic():
    assert Rng(12).permutation(20).tolist() == Rng(12).permutation(20).tolist()


def test_bulk_draws_continue_the_scalar_stream():
    # uniform_matrix and permutation draw their uniforms in one pass; each
    # must use the same draws as one uniform() call per value, and leave the
    # stream where those calls would.
    for seed in (0, 2**64 - 1, 0xDEADBEEF):
        bulk, loop = Rng(seed), Rng(seed)
        assert bulk.uniform_matrix(3, 5, -2.0, 0.5).tolist() == [
            [loop.uniform_range(-2.0, 0.5) for _ in range(5)] for _ in range(3)]
        n = 9
        want = list(range(n))
        for i in range(n - 1, 0, -1):
            j = int(loop.uniform() * (i + 1))
            want[i], want[j] = want[j], want[i]
        assert bulk.permutation(n).tolist() == want
        assert bulk._next(1).tolist() == loop._next(1).tolist()
    assert Rng(1).permutation(0).tolist() == [] and Rng(1).permutation(1).tolist() == [0]


def test_init_params_and_permutation_bytes_are_pinned():
    # Taken from the one-uniform-per-call generator; the bulk draws keep them.
    flat = init_params(0, 40).flat.astype("<f8").tobytes()
    perm = Rng(7).permutation(1000).astype("<i8").tobytes()
    assert hashlib.sha256(flat).hexdigest() == (
        "51a8713d9cedeb09bb9c6fc2caed65036e8bea79dd984efbb734d955675287e3")
    assert hashlib.sha256(perm).hexdigest() == (
        "e5bd6310619b4e289eaef36e23cacc5531249567d6e3b9ee11cdaa961f61956c")


def test_one_blas_thread_does_nothing_without_a_bundled_openblas(tmp_path):
    # No library, a file that only looks like one, and a library without
    # OpenBLAS's thread setter: nothing is called, and nothing raises.
    assert one_blas_thread(tmp_path) is False
    (tmp_path / "libscipy_openblas64_-stub.so").write_bytes(b"not a library")
    assert one_blas_thread(tmp_path) is False
    ctypes_ext = getattr(pytest.importorskip("_ctypes"), "__file__", None)
    if ctypes_ext is None:
        pytest.skip("_ctypes is built into this Python, so no library to stand in")
    (tmp_path / "libopenblas-stub.so").symlink_to(ctypes_ext)
    assert one_blas_thread(tmp_path) is False
