"""Handover recordings: loading, alignment, window extraction, splits.

A recording is a 120 Hz time series of the 6-axis interaction wrench plus
the giver's and taker's grip forces. Alignment shifts timestamps so t=0
sits on the first sample at-or-after the downward crossing of
(giver - taker) grip force. Training samples pair a wrench window X over
[t_o, t_e] with the 70 giver grip values Y over the following 583.33 ms
(y covers (t_e, t_f]; X and Y meet at the t_e boundary and do not share a
sample).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import AlignmentError, ContractViolation, DataError, LoadError, StatsError

RATE_HZ = 120.0
PERIOD_MS = 1000.0 / RATE_HZ
HORIZON = 70
HORIZON_MS = HORIZON * PERIOD_MS  # 583.33 ms

CSV_COLUMNS = (
    "pair_id",
    "handover_id",
    "t_ms",
    "fx_N",
    "fy_N",
    "fz_N",
    "tx_Nm",
    "ty_Nm",
    "tz_Nm",
    "grip_giver_N",
    "grip_taker_N",
)
WRENCH_COLUMNS = CSV_COLUMNS[3:9]
GRIP_CHANNEL = "grip_giver_N"

# Relative tolerance on the 8.333 ms sample spacing of every wrench input.
_SPACING_TOL = 0.01


def round_half_up(x: float) -> int:
    """Nearest integer, ties away from minus infinity (0.5 -> 1, -0.5 -> 0).

    The ms->steps conversions use this rather than banker's rounding so grid
    arithmetic has one documented convention.
    """
    return int(math.floor(x + 0.5))


def ms_to_steps(delta_ms: float) -> int:
    return round_half_up(delta_ms * (RATE_HZ / 1000.0))


def spacing_off(dt_ms: float | np.ndarray) -> bool | np.ndarray:
    """Whether a sample spacing (ms; a float or an array of them) is more
    than 1% off the 120 Hz period: the one spacing rule for every input."""
    return abs(dt_ms - PERIOD_MS) > _SPACING_TOL * PERIOD_MS


@dataclass
class HandoverRecord:
    """One handover's aligned-or-raw time series at 120 Hz."""

    pair_id: str
    handover_id: str
    t_ms: np.ndarray  # (T,)
    wrench: np.ndarray  # (T, 6) columns in WRENCH_COLUMNS order
    grip_giver: np.ndarray  # (T,)
    grip_taker: np.ndarray  # (T,)
    aligned: bool = False

    def __len__(self) -> int:
        return len(self.t_ms)

    def validate(self) -> None:
        n = len(self.t_ms)
        if n < 1:
            raise ContractViolation("record must contain at least one sample")
        if self.wrench.shape != (n, 6):
            raise ContractViolation(
                f"wrench shape {self.wrench.shape} does not match {n} samples"
            )
        if len(self.grip_giver) != n or len(self.grip_taker) != n:
            raise ContractViolation("grip series length mismatch")
        if np.any(spacing_off(np.diff(self.t_ms))):
            raise ContractViolation("timestamps are not uniform 120 Hz spacing")
        for name, arr in (
            ("t_ms", self.t_ms),
            ("wrench", self.wrench),
            ("grip_giver", self.grip_giver),
            ("grip_taker", self.grip_taker),
        ):
            if not np.all(np.isfinite(arr)):
                raise ContractViolation(f"{name} contains non-finite values")


@dataclass
class TrainingSample:
    """One (X, Y) pair: wrench window in, 70-step giver grip horizon out."""

    pair_id: str
    handover_id: str
    t_o_ms: float
    t_e_ms: float
    t_f_ms: float
    x: np.ndarray  # (len_x, 6) wrench window over [t_o, t_e]
    y: np.ndarray  # (70,) giver grip over (t_e, t_f]

    def validate(self) -> None:
        if len(self.y) != HORIZON:
            raise ContractViolation(f"y must have exactly {HORIZON} steps")
        expect = ms_to_steps(self.t_e_ms - self.t_o_ms) + 1
        if len(self.x) != expect:
            raise ContractViolation(
                f"x length {len(self.x)} does not match window "
                f"[{self.t_o_ms}, {self.t_e_ms}] ms (expected {expect})"
            )
        if abs((self.t_f_ms - self.t_e_ms) - HORIZON_MS) > PERIOD_MS:
            raise ContractViolation("t_f - t_e must equal the 583.33 ms horizon")


@dataclass
class SamplingPolicy:
    """Grid of (t_o, t_e) window boundaries, in ms relative to alignment.

    Grids run downward from each range's maximum by the stride; the range
    minimum is always included as the final grid point, so both interval
    endpoints are sampled even when the span is not a stride multiple.
    """

    t_e_range_ms: tuple[float, float] = (-250.0, 0.0)
    t_o_range_ms: tuple[float, float] = (-1250.0, -260.0)
    t_e_stride_ms: float = 50.0
    t_o_stride_ms: float = 250.0

    def validate(self) -> None:
        for name, (lo, hi) in (
            ("t_e_range_ms", self.t_e_range_ms),
            ("t_o_range_ms", self.t_o_range_ms),
        ):
            if not (lo <= hi):
                raise ContractViolation(f"{name} is empty: [{lo}, {hi}]")
        if self.t_e_stride_ms <= 0 or self.t_o_stride_ms <= 0:
            raise ContractViolation("strides must be positive")
        if not (self.t_o_range_ms[1] < self.t_e_range_ms[0]):
            raise ContractViolation("t_o range must lie entirely before t_e range")
        # Guarantees every sample's x has >= 2 steps.
        if ms_to_steps(self.t_e_range_ms[0] - self.t_o_range_ms[1]) < 1:
            raise ContractViolation(
                "t_o range must end at least half a sample period before t_e range"
            )

    def t_e_grid(self) -> list[float]:
        return _descending_grid(self.t_e_range_ms, self.t_e_stride_ms)

    def t_o_grid(self) -> list[float]:
        return _descending_grid(self.t_o_range_ms, self.t_o_stride_ms)


def _descending_grid(range_ms: tuple[float, float], stride_ms: float) -> list[float]:
    lo, hi = range_ms
    grid = []
    v = hi
    while v >= lo - 1e-9:
        grid.append(v)
        v -= stride_ms
    if grid and grid[-1] > lo + 1e-9:
        grid.append(lo)
    return grid


@dataclass
class NormStats:
    """Per-channel z-score statistics, fit on the training split only."""

    wrench_mean: np.ndarray  # (6,)
    wrench_std: np.ndarray  # (6,)
    grip_mean: float
    grip_std: float


def load_recordings(path: str) -> list[HandoverRecord]:
    """Parse a recording CSV into per-(pair, handover) records.

    Records come back sorted by (pair_id, handover_id), rows within a record
    in file order, which must already be timestamp-ascending. The aligned
    flag is false; call align_handover before extracting samples.
    """
    groups: dict[tuple[str, str], list[tuple[int, list[float]]]] = {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            missing = [c for c in CSV_COLUMNS if c not in header]
            if missing:
                raise LoadError(f"{path}: missing column(s) {', '.join(missing)}")
            for line_no, row in enumerate(reader, start=2):
                values = []
                for col in CSV_COLUMNS[2:]:
                    raw = row[col]
                    if raw is None:
                        raise LoadError(f"{path}: row {line_no}, field {col}: missing value")
                    try:
                        v = float(raw)
                    except ValueError:
                        raise LoadError(
                            f"{path}: row {line_no}, field {col}: not a number ({raw!r})"
                        ) from None
                    if not math.isfinite(v):
                        raise LoadError(
                            f"{path}: row {line_no}, field {col}: non-finite value {raw!r}"
                        )
                    values.append(v)
                key = (row["pair_id"], row["handover_id"])
                groups.setdefault(key, []).append((line_no, values))
    except UnicodeDecodeError as exc:
        raise LoadError(f"{path} is not UTF-8 text ({exc.reason})") from None

    records = []
    for (pair_id, handover_id) in sorted(groups):
        rows = groups[(pair_id, handover_id)]
        t = np.array([v[0] for _, v in rows], dtype=np.float64)
        if len(t) > 1:
            dt = np.diff(t)
            bad = np.where(dt <= 0)[0]
            if bad.size:
                line = rows[bad[0] + 1][0]
                raise LoadError(
                    f"{path}: row {line}, field t_ms: non-monotone timestamp in "
                    f"handover ({pair_id}, {handover_id})"
                )
            off = np.flatnonzero(spacing_off(dt))
            if off.size:
                line = rows[off[0] + 1][0]
                raise LoadError(
                    f"{path}: row {line}, field t_ms: spacing {dt[off[0]]:.4f} ms "
                    f"deviates more than 1% from {PERIOD_MS:.4f} ms (120 Hz)"
                )
        data = np.array([v for _, v in rows], dtype=np.float64)
        records.append(
            HandoverRecord(
                pair_id=pair_id,
                handover_id=handover_id,
                t_ms=t,
                wrench=np.ascontiguousarray(data[:, 1:7]),
                grip_giver=data[:, 7].copy(),
                grip_taker=data[:, 8].copy(),
                aligned=False,
            )
        )
    return records


def save_recordings(records: list[HandoverRecord], path: str) -> None:
    """Write records in the recording CSV format with exact float round-trip."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            for i in range(len(rec)):
                writer.writerow(
                    [rec.pair_id, rec.handover_id, repr(float(rec.t_ms[i]))]
                    + [repr(float(v)) for v in rec.wrench[i]]
                    + [repr(float(rec.grip_giver[i])), repr(float(rec.grip_taker[i]))]
                )


def _grip_crossings(giver: np.ndarray, taker: np.ndarray) -> tuple[list[int], list[int]]:
    """Indices where (giver - taker) changes sign.

    Returns (downward, upward): downward crossings are indices k with
    d[k-1] > 0 and d[k] <= 0; upward the reverse.
    """
    d = giver - taker
    pos = d > 0
    down = [k for k in range(1, len(d)) if pos[k - 1] and not pos[k]]
    up = [k for k in range(1, len(d)) if (not pos[k - 1]) and pos[k]]
    return down, up


def align_handover(record: HandoverRecord) -> HandoverRecord:
    """Shift timestamps so t=0 sits on the grip-force intersection.

    t=0 lands on the first sample index k where (giver - taker) moves from
    positive to non-positive. Zero or multiple sign changes are hard errors:
    ambiguity must surface, not be guessed away.
    """
    record.validate()
    down, up = _grip_crossings(record.grip_giver, record.grip_taker)
    changes = sorted(down + up)
    if not changes:
        raise AlignmentError(
            f"handover ({record.pair_id}, {record.handover_id}): grip forces "
            "never cross (giver - taker has no sign change)"
        )
    if len(changes) > 1:
        raise AlignmentError(
            f"handover ({record.pair_id}, {record.handover_id}): multiple grip "
            f"crossings at sample indices {changes}"
        )
    if not down:
        raise AlignmentError(
            f"handover ({record.pair_id}, {record.handover_id}): grip difference "
            f"only crosses upward (at index {changes[0]}); no giver release found"
        )
    k = down[0]
    return replace(
        record,
        t_ms=record.t_ms - record.t_ms[k],
        aligned=True,
    )


def _zero_index(record: HandoverRecord) -> int:
    k = int(np.argmin(np.abs(record.t_ms)))
    if abs(record.t_ms[k]) > PERIOD_MS / 2:
        raise ContractViolation("aligned record has no sample at t=0")
    return k


def extract_samples(
    record: HandoverRecord, policy: SamplingPolicy | None = None
) -> list[TrainingSample]:
    """All (t_o, t_e) grid windows of the policy that fit inside the record.

    Samples come out ordered by (t_e desc, t_o desc). Grid points whose X
    window or Y horizon would leave the record are skipped, not errors.
    """
    if policy is None:
        policy = SamplingPolicy()
    policy.validate()
    if not record.aligned:
        raise ContractViolation(
            f"handover ({record.pair_id}, {record.handover_id}) is not aligned; "
            "call align_handover first"
        )
    record.validate()

    k0 = _zero_index(record)
    n = len(record)
    samples = []
    for t_e in policy.t_e_grid():
        i_e = k0 + ms_to_steps(t_e)
        for t_o in policy.t_o_grid():
            len_x = ms_to_steps(t_e - t_o) + 1
            i_o = i_e - (len_x - 1)
            i_f = i_e + HORIZON
            if i_o < 0 or i_f > n - 1:
                continue
            sample = TrainingSample(
                pair_id=record.pair_id,
                handover_id=record.handover_id,
                t_o_ms=t_o,
                t_e_ms=t_e,
                t_f_ms=t_e + HORIZON_MS,
                x=np.ascontiguousarray(record.wrench[i_o : i_e + 1]),
                y=record.grip_giver[i_e + 1 : i_f + 1].copy(),
            )
            sample.validate()
            samples.append(sample)
    return samples


def split_by_pair(
    records: list[HandoverRecord], test_pair_ids: set[str]
) -> tuple[list[HandoverRecord], list[HandoverRecord]]:
    """Partition records into (train, test) by participant pair, order-stable.
    A test pair id (from --test-pairs) that names no pair is a DataError."""
    present = {r.pair_id for r in records}
    unknown = sorted(set(test_pair_ids) - present)
    if unknown:
        raise DataError(
            f"test pair id(s) not present in the data: {', '.join(unknown)} "
            f"(present: {', '.join(sorted(present))})"
        )
    train = [r for r in records if r.pair_id not in test_pair_ids]
    test = [r for r in records if r.pair_id in test_pair_ids]
    return train, test


def fit_norm_stats(train: list[TrainingSample]) -> NormStats:
    """Per-channel mean/std over the training samples' X (wrench) and Y (grip).

    Population std (ddof=0). A channel with std below 1e-12 is degenerate
    and rejected by name.
    """
    if not train:
        raise ContractViolation("fit_norm_stats needs a non-empty training set")
    xs = np.concatenate([s.x for s in train], axis=0)
    ys = np.concatenate([s.y for s in train])
    wrench_mean = xs.mean(axis=0)
    wrench_std = xs.std(axis=0)
    grip_mean = float(ys.mean())
    grip_std = float(ys.std())
    for i, col in enumerate(WRENCH_COLUMNS):
        if wrench_std[i] < 1e-12:
            raise StatsError(f"channel {col} has zero variance in the training split")
    if grip_std < 1e-12:
        raise StatsError(f"channel {GRIP_CHANNEL} has zero variance in the training split")
    return NormStats(
        wrench_mean=wrench_mean,
        wrench_std=wrench_std,
        grip_mean=grip_mean,
        grip_std=grip_std,
    )


def normalize_wrench(x_raw: np.ndarray, stats: NormStats) -> np.ndarray:
    return (x_raw - stats.wrench_mean) / stats.wrench_std


def normalize_grip(y_raw: np.ndarray, stats: NormStats) -> np.ndarray:
    return (y_raw - stats.grip_mean) / stats.grip_std


def denormalize_grip(y_norm: np.ndarray, stats: NormStats) -> np.ndarray:
    return y_norm * stats.grip_std + stats.grip_mean


def apply_norm(sample: TrainingSample, stats: NormStats) -> TrainingSample:
    """z-score a sample's channels; denormalize_grip inverts the Y side."""
    return replace(
        sample,
        x=normalize_wrench(sample.x, stats),
        y=normalize_grip(sample.y, stats),
    )
