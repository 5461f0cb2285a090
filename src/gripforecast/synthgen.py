"""Parametric generator of handover-like recordings with planted ground truth.

The real human-study recordings are private, so tests and experiments run on
synthetic handovers instead. The generator is deliberately not a physics
model: logistic transfer curves are the simplest shape that honors the three
properties the pipeline depends on — monotone grip exchange, a single
crossing, and giver-grip decay to ~0 within the 583.33 ms horizon. The
vertical force channel carries the structured load-share signal; the other
five wrench channels mix in small fixed fractions of that signal plus
band-limited noise, keeping the forecasting problem solvable but not trivial.

Crucially, both agents' grip curves also print through to the measured
wrench: squeezing either end of the object changes the contact forces and
torques at the sensor, so fixed fractions of the noiseless grip curves are
folded into the tangential channels. That leak is the physical reason a
wrench-only forecaster can recover the giver's grip amplitude at all — a
window recorded before the transfer still carries the giver's hold force.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import HandoverRecord, PERIOD_MS
from .errors import ContractViolation, DataError
from .numerics import derive_seed, Rng

# Span (ms, handover-relative) every generated record must cover around the
# grip crossing so the default SamplingPolicy fits around it.
REQUIRED_SPAN_MS = (-1300.0, 600.0)

# Default randomization ranges used by generate_dataset.
DEFAULT_HOLD_RANGE_N = (8.0, 15.0)
DEFAULT_PEAK_RANGE_N = (8.0, 15.0)
# Kept narrow enough that the giver grip decays below 5% of hold within the
# 583.33 ms horizon for every width in range (worst case sigma(-583.33/160)
# with the largest hold/peak imbalance stays under 0.05).
DEFAULT_WIDTH_RANGE_MS = (120.0, 160.0)
DEFAULT_LOAD_RANGE_N = (3.0, 6.0)
DEFAULT_MIDPOINT_JITTER_MS = 40.0
# Grip forces scale with object weight (a friction-cone requirement), so a
# pair's hold/peak style is drawn mostly from its load draw: fraction of the
# hold/peak range position explained by the load's range position. This is
# what makes grip amplitude inferable from the wrench channels at all.
LOAD_GRIP_COUPLING = 0.75

# Fixed fractions, in WRENCH_COLUMNS order (fx, fy, fz, tx, ty, tz), of the
# load-share signal in each wrench channel: the vertical force carries all of
# it, the others small documented constants (not fit to anything).
LOAD_MIX = np.array([0.12, -0.08, 1.0, 0.020, -0.015, 0.010])

# Fixed fractions of each agent's noiseless grip curve that print through to
# the wrench channels (grip squeeze -> contact force/torque at the sensor).
# Magnitudes sit well above the channel noise floors so the signal is
# recoverable, and the vertical force stays a pure load-share channel.
GIVER_GRIP_MIX = np.array([0.06, 0.0, 0.0, 0.0, -0.004, 0.005])
TAKER_GRIP_MIX = np.array([0.0, 0.05, 0.0, 0.003, 0.0, 0.0])

_SMOOTH_LEN = 9  # boxcar length for band-limiting noise
_OFFSET_RANGE_MS = 100.0  # emitted records are shifted by up to this much

_PAIR_STREAM = 0xA11CE
_HANDOVER_STREAM = 0xB0B
_RECORD_STREAM = 0xCAFE


@dataclass
class SynthParams:
    """Concrete (already drawn) parameters for one synthetic handover."""

    duration_ms: tuple[float, float] = (-1500.0, 800.0)
    giver_hold_N: float = 10.0
    taker_peak_N: float = 10.0
    transfer_midpoint_ms: float = 0.0
    transfer_width_ms: float = 150.0
    load_N: float = 4.5
    noise_force_std: float = 0.05
    noise_torque_std: float = 0.005
    seed: int = 0

    def validate(self) -> None:
        if self.duration_ms[0] >= self.duration_ms[1]:
            raise ContractViolation(
                f"duration_ms must be an increasing interval, got {self.duration_ms}"
            )
        if self.transfer_width_ms <= 0:
            raise ContractViolation(
                f"transfer_width_ms must be > 0, got {self.transfer_width_ms}"
            )
        for name, value in (
            ("giver_hold_N", self.giver_hold_N),
            ("taker_peak_N", self.taker_peak_N),
            ("load_N", self.load_N),
        ):
            if value <= 0:
                raise ContractViolation(f"{name} must be > 0, got {value}")
        if self.noise_force_std < 0 or self.noise_torque_std < 0:
            raise ContractViolation("noise stds must be >= 0")


def crossing_time_ms(params: SynthParams) -> float:
    """Ground-truth time where the noiseless grip curves cross.

    Solving hold*sigma(-(t-m)/w) = peak*sigma((t-m)/w) gives
    t = m + w*ln(hold/peak).
    """
    return params.transfer_midpoint_ms + params.transfer_width_ms * math.log(
        params.giver_hold_N / params.taker_peak_N
    )


def _sigma(z: np.ndarray) -> np.ndarray:
    """The logistic function as 0.5 * tanh(z / 2) + 0.5, the identity the model's
    cell uses: numpy's exp gives other bits under other SIMD targets, its tanh not."""
    return 0.5 * np.tanh(0.5 * z) + 0.5


def _smooth_noise(rng: Rng, n: int, std: float) -> np.ndarray:
    """Band-limited noise: white normals through an L2-normalized boxcar.

    The kernel has unit L2 norm so the marginal standard deviation of the
    output matches `std` (edge samples are slightly quieter). The boxcar is
    a sum of shifted copies in a fixed order, element-wise adds only, so no
    BLAS kernel set or thread count can change its rounding.
    """
    if std == 0.0:
        return np.zeros(n)
    scaled = np.pad(rng.normals(n, 0.0, std) * (1.0 / math.sqrt(_SMOOTH_LEN)), _SMOOTH_LEN // 2)
    out = np.zeros(n)
    for shift in range(_SMOOTH_LEN):
        out += scaled[shift : shift + n]
    return out


def generate_handover(params: SynthParams, pair_id: str, handover_id: str) -> HandoverRecord:
    """One synthetic handover, its clock not zeroed at the grip crossing.

    Noiseless curves: giver grip hold*sigma(-(t-m)/w), taker grip
    peak*sigma((t-m)/w), vertical force load*sigma((t-m)/w) (the taker's
    load share ramping from 0 to the full object weight). The tangential
    channels carry fixed fractions of the load share (LOAD_MIX) plus the
    grip print-through (GIVER_GRIP_MIX / TAKER_GRIP_MIX). Time stamps are
    shifted by a seeded random offset, so the crossing does not sit at t=0.
    """
    params.validate()
    t_star = crossing_time_ms(params)
    if not (
        params.duration_ms[0] <= t_star + REQUIRED_SPAN_MS[0]
        and params.duration_ms[1] >= t_star + REQUIRED_SPAN_MS[1]
    ):
        raise DataError(
            f"duration {params.duration_ms} does not cover "
            f"[{t_star + REQUIRED_SPAN_MS[0]:.1f}, {t_star + REQUIRED_SPAN_MS[1]:.1f}] ms "
            f"around the grip crossing at {t_star:.1f} ms; the default sampling "
            "policy would not fit"
        )

    start, end = params.duration_ms
    n = int(math.floor((end - start) / PERIOD_MS + 1e-9)) + 1
    t = start + np.arange(n) * PERIOD_MS
    u = (t - params.transfer_midpoint_ms) / params.transfer_width_ms
    share = _sigma(u)

    rng = Rng(params.seed)
    offset = rng.uniform() * 2.0 * _OFFSET_RANGE_MS - _OFFSET_RANGE_MS

    giver_clean = params.giver_hold_N * _sigma(-u)
    taker_clean = params.taker_peak_N * share

    wrench = (share[:, None] * (LOAD_MIX * params.load_N)
              + giver_clean[:, None] * GIVER_GRIP_MIX
              + taker_clean[:, None] * TAKER_GRIP_MIX)
    # Noise is drawn channel by channel: three force channels, three torques.
    for col, std in enumerate([params.noise_force_std] * 3 + [params.noise_torque_std] * 3):
        wrench[:, col] += _smooth_noise(rng, n, std)

    grip_giver = giver_clean + _smooth_noise(rng, n, params.noise_force_std)
    grip_taker = taker_clean + _smooth_noise(rng, n, params.noise_force_std)

    return HandoverRecord(
        pair_id=pair_id,
        handover_id=handover_id,
        t_ms=t + offset,
        wrench=wrench,
        grip_giver=grip_giver,
        grip_taker=grip_taker,
    )


def _jitter(rng: Rng, center: float, rel: float, lo: float, hi: float) -> float:
    value = center * (1.0 + (rng.uniform() * 2.0 - 1.0) * rel)
    return min(max(value, lo), hi)


def generate_dataset(n_pairs: int, handovers_per_pair: int, seed: int) -> list[HandoverRecord]:
    """Deterministic dataset: per-pair style draws with per-handover jitter.

    Each pair gets a load/width style and a grip-strength disposition drawn
    from the default ranges; every handover re-draws its own load near the
    pair's style and derives hold/peak through the load coupling, so the
    load->grip law is exercised across the whole range rather than at one
    point per pair. Pairs stay internally consistent but not identical —
    the property the pair-disjoint split relies on.
    """
    if n_pairs < 1 or handovers_per_pair < 1:
        raise ContractViolation(
            f"counts must be >= 1, got n_pairs={n_pairs}, "
            f"handovers_per_pair={handovers_per_pair}"
        )
    records: list[HandoverRecord] = []
    for p in range(1, n_pairs + 1):
        style = Rng(derive_seed(seed, _PAIR_STREAM, p))
        load_pair = style.uniform_range(*DEFAULT_LOAD_RANGE_N)
        width_pair = style.uniform_range(*DEFAULT_WIDTH_RANGE_MS)
        # The pair's grip-strength disposition: the residual (non-load) part
        # of where hold/peak sit inside their ranges.
        hold_bias = style.uniform()
        peak_bias = style.uniform()
        for h in range(1, handovers_per_pair + 1):
            jr = Rng(derive_seed(seed, _HANDOVER_STREAM, p, h))
            load = _jitter(jr, load_pair, 0.15, *DEFAULT_LOAD_RANGE_N)
            load_pos = (load - DEFAULT_LOAD_RANGE_N[0]) / (
                DEFAULT_LOAD_RANGE_N[1] - DEFAULT_LOAD_RANGE_N[0]
            )
            hold_pos = LOAD_GRIP_COUPLING * load_pos + (1.0 - LOAD_GRIP_COUPLING) * min(
                max(hold_bias + (jr.uniform() * 2.0 - 1.0) * 0.15, 0.0), 1.0
            )
            peak_pos = LOAD_GRIP_COUPLING * load_pos + (1.0 - LOAD_GRIP_COUPLING) * min(
                max(peak_bias + (jr.uniform() * 2.0 - 1.0) * 0.15, 0.0), 1.0
            )
            params = SynthParams(
                giver_hold_N=DEFAULT_HOLD_RANGE_N[0]
                + hold_pos * (DEFAULT_HOLD_RANGE_N[1] - DEFAULT_HOLD_RANGE_N[0]),
                taker_peak_N=DEFAULT_PEAK_RANGE_N[0]
                + peak_pos * (DEFAULT_PEAK_RANGE_N[1] - DEFAULT_PEAK_RANGE_N[0]),
                transfer_width_ms=_jitter(jr, width_pair, 0.08, *DEFAULT_WIDTH_RANGE_MS),
                load_N=load,
                transfer_midpoint_ms=(jr.uniform() * 2.0 - 1.0) * DEFAULT_MIDPOINT_JITTER_MS,
                seed=derive_seed(seed, _RECORD_STREAM, p, h),
            )
            records.append(generate_handover(params, pair_id=str(p), handover_id=str(h)))
    return records
