"""Tests for the synthetic handover generator and its planted ground truth."""

import hashlib
import math

import numpy as np
import pytest

from gripforecast.dataset import SamplingPolicy, align_handover, extract_samples
from gripforecast.errors import ContractViolation, DataError
from gripforecast.synthgen import (
    DEFAULT_HOLD_RANGE_N,
    DEFAULT_LOAD_RANGE_N,
    DEFAULT_PEAK_RANGE_N,
    DEFAULT_WIDTH_RANGE_MS,
    SynthParams,
    crossing_time_ms,
    generate_dataset,
    generate_handover,
)


def noiseless(**overrides):
    return SynthParams(noise_force_std=0.0, noise_torque_std=0.0, **overrides)


def test_symmetric_crossing_at_midpoint():
    # hold == peak == 10 N: curves cross exactly at the midpoint, both at 5 N.
    params = noiseless()
    assert crossing_time_ms(params) == 0.0
    rec = generate_handover(params, "1", "1")
    # evaluate the planted curve at the grid point nearest the midpoint
    t_rel = rec.t_ms - rec.t_ms[0] + params.duration_ms[0]  # undo offset
    k = int(np.argmin(np.abs(t_rel)))
    assert rec.grip_giver[k] == pytest.approx(5.0, abs=0.12)
    assert rec.grip_giver[k] == pytest.approx(rec.grip_taker[k], abs=0.25)


def test_giver_grip_decays_within_horizon():
    # width 150 ms: grip at midpoint + 583.33 ms is 10 * sigma(-583.33/150).
    params = noiseless(transfer_width_ms=150.0)
    rec = generate_handover(params, "1", "1")
    t_rel = rec.t_ms - rec.t_ms[0] + params.duration_ms[0]
    k = int(np.argmin(np.abs(t_rel - 583.33)))
    bound = 10.0 / (1.0 + math.exp(583.33 / 150.0))
    assert bound < 0.21
    assert rec.grip_giver[k] <= 0.21


def test_decay_invariant_across_width_range():
    # 5% bound 583.33 ms after the SHIFTED crossing, worst-case imbalance.
    lo, hi = DEFAULT_WIDTH_RANGE_MS
    for width in np.linspace(lo, hi, 9):
        for hold, peak in ((8.0, 15.0), (15.0, 8.0), (12.0, 12.0)):
            t_star = width * math.log(hold / peak)
            grip = hold / (1.0 + math.exp((t_star + 583.33) / width))
            assert grip <= 0.05 * hold, (width, hold, peak)


def test_noiseless_grips_are_monotone():
    rec = generate_handover(noiseless(), "1", "1")
    assert np.all(np.diff(rec.grip_giver) <= 0)
    assert np.all(np.diff(rec.grip_taker) >= 0)


def test_vertical_force_carries_the_load():
    params = noiseless(load_N=5.0)
    rec = generate_handover(params, "1", "1")
    fz = rec.wrench[:, 2]
    assert fz[0] == pytest.approx(0.0, abs=1e-3)  # taker holds nothing yet
    assert fz[-1] == pytest.approx(5.0, abs=0.05)  # full load transferred
    assert np.all(np.diff(fz) >= 0)


def test_same_seed_identical_record():
    a = generate_handover(SynthParams(seed=42), "1", "1")
    b = generate_handover(SynthParams(seed=42), "1", "1")
    assert np.array_equal(a.t_ms, b.t_ms)
    assert np.array_equal(a.wrench, b.wrench)
    assert np.array_equal(a.grip_giver, b.grip_giver)
    assert np.array_equal(a.grip_taker, b.grip_taker)


def test_different_seeds_differ():
    a = generate_handover(SynthParams(seed=1), "1", "1")
    b = generate_handover(SynthParams(seed=2), "1", "1")
    assert not np.array_equal(a.grip_giver, b.grip_giver)


def test_record_is_emitted_unaligned():
    rec = generate_handover(SynthParams(seed=3), "1", "1")
    aligned = align_handover(rec)
    k = int(np.argmin(np.abs(aligned.t_ms)))
    assert aligned.t_ms[k] == 0.0
    # alignment moved the clock: raw record has no sample at exactly 0
    assert np.min(np.abs(rec.t_ms)) > 1e-9


def test_planted_crossing_recovered_exactly_at_zero_noise():
    params = noiseless(giver_hold_N=12.0, taker_peak_N=9.0, transfer_width_ms=140.0)
    t_star = crossing_time_ms(params)
    rec = generate_handover(params, "1", "1")
    aligned = align_handover(rec)
    # the aligned zero sits on the first sample at-or-after the true crossing
    k = int(np.argmin(np.abs(aligned.t_ms)))
    t_rel = rec.t_ms - rec.t_ms[0] + params.duration_ms[0]
    assert t_rel[k] >= t_star - 1e-9
    assert t_rel[k] - t_star < 1000.0 / 120.0  # within one sample period


def test_duration_too_short_is_generation_error():
    with pytest.raises(DataError, match="duration"):
        generate_handover(SynthParams(duration_ms=(-800.0, 800.0)), "1", "1")
    with pytest.raises(DataError, match="duration"):
        generate_handover(SynthParams(duration_ms=(-1500.0, 500.0)), "1", "1")


def test_invalid_params_rejected():
    with pytest.raises(ContractViolation):
        generate_handover(SynthParams(transfer_width_ms=0.0), "1", "1")
    with pytest.raises(ContractViolation):
        generate_handover(SynthParams(giver_hold_N=-1.0), "1", "1")
    with pytest.raises(ContractViolation, match="increasing interval"):
        generate_handover(SynthParams(duration_ms=(1300.0, -1300.0)), "1", "1")
    with pytest.raises(ContractViolation, match="noise stds"):
        generate_handover(SynthParams(noise_torque_std=-0.01), "1", "1")


def test_generate_dataset_counts_and_ids():
    records = generate_dataset(13, 10, seed=7)
    assert len(records) == 130
    assert {r.pair_id for r in records} == {str(p) for p in range(1, 14)}
    per_pair = {p: 0 for p in range(1, 14)}
    for r in records:
        per_pair[int(r.pair_id)] += 1
    assert all(v == 10 for v in per_pair.values())


def test_generate_dataset_default_policy_sample_count():
    # 11 pairs x 10 handovers x 30 grid windows must all fit by construction.
    records = generate_dataset(11, 10, seed=7)
    policy = SamplingPolicy()
    total = sum(len(extract_samples(align_handover(r), policy)) for r in records)
    assert total == 11 * 10 * 30


def test_generate_dataset_every_record_aligns():
    for seed in (0, 7, 123):
        for rec in generate_dataset(4, 5, seed=seed):
            align_handover(rec)  # must not raise


def test_generate_dataset_deterministic_and_seed_sensitive():
    a = generate_dataset(2, 2, seed=5)
    b = generate_dataset(2, 2, seed=5)
    c = generate_dataset(2, 2, seed=6)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.grip_giver, rb.grip_giver)
        assert np.array_equal(ra.wrench, rb.wrench)
    assert not np.array_equal(a[0].grip_giver, c[0].grip_giver)


def test_generate_dataset_bytes_are_pinned():
    # Every array of a small dataset, hashed: the data the acceptance suite
    # trains on cannot drift unnoticed when the generator is refactored.
    h = hashlib.sha256()
    for rec in generate_dataset(3, 2, seed=5):
        h.update(f"{rec.pair_id}/{rec.handover_id}".encode())
        for arr in (rec.t_ms, rec.wrench, rec.grip_giver, rec.grip_taker):
            h.update(arr.tobytes())
    assert h.hexdigest() == "d4e129f28895098334ca6e664a27b2d117d0fae6b3089061628d8d01a0a4be36"


def test_reference_dataset_and_windows_bytes_are_pinned():
    # The reference dataset (13 pairs x 10 handovers, seed 7) and its 3,900
    # default windows, little-endian: ids, boundaries, x and y, in order.
    records = generate_dataset(13, 10, seed=7)
    h = hashlib.sha256()
    for rec in records:
        h.update(f"{rec.pair_id}/{rec.handover_id}\n".encode())
        for arr in (rec.t_ms, rec.wrench, rec.grip_giver, rec.grip_taker):
            h.update(arr.astype("<f8").tobytes())
    assert h.hexdigest() == "aa387605ca7136a9b545359928cd58d6e8e59ed27fea83394223798a245e695e"
    h = hashlib.sha256()
    samples = [s for rec in records for s in extract_samples(align_handover(rec))]
    for s in samples:
        h.update(f"{s.pair_id}/{s.handover_id}/{s.t_o_ms!r}/{s.t_e_ms!r}\n".encode())
        h.update(s.x.astype("<f8").tobytes())
        h.update(s.y.astype("<f8").tobytes())
    assert len(samples) == 3900
    assert h.hexdigest() == "0ad69e68fc99b53683fd61f054285c2825947bfb3a394a2ebf603444310d72a8"


def test_generate_dataset_draws_stay_in_range():
    records = generate_dataset(8, 3, seed=11)
    for rec in records:
        hold0 = rec.grip_giver[0]  # noiseless start ~ hold (noise ~0.05)
        assert DEFAULT_HOLD_RANGE_N[0] - 0.5 <= hold0 <= DEFAULT_HOLD_RANGE_N[1] + 0.5
        peak_end = rec.grip_taker[-1]
        assert DEFAULT_PEAK_RANGE_N[0] - 0.5 <= peak_end <= DEFAULT_PEAK_RANGE_N[1] + 0.5
        load_end = rec.wrench[-1, 2]
        assert DEFAULT_LOAD_RANGE_N[0] - 0.5 <= load_end <= DEFAULT_LOAD_RANGE_N[1] + 0.5


def test_generate_dataset_rejects_bad_counts():
    with pytest.raises(ContractViolation):
        generate_dataset(0, 5, seed=1)
    with pytest.raises(ContractViolation):
        generate_dataset(5, 0, seed=1)
