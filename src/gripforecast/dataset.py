"""Handover recordings: loading, the grip crossing, window extraction, splits.

A recording is a 120 Hz time series of the 6-axis interaction wrench plus
the giver's and taker's grip forces. load_recordings tokenizes each row of
the recording CSV once: one np.loadtxt pass returns the ids and the numbers
together, as one structured table. A handover's t=0 is its first sample
at-or-after the downward crossing of (giver - taker) grip force, whatever
its clock reads there: extract_samples finds that row itself, and
align_handover only re-zeros the clock on it. Training samples pair a
wrench window X over [t_o, t_e] with the 70 giver grip values Y over the
following 583.33 ms (y covers (t_e, t_f]; X and Y meet at the t_e boundary
and do not share a sample), with t_e in {0, -50, -100, -150, -200, -250} ms
and t_o in {-260, -510, -760, -1010, -1250} ms (the last gap is 240 ms). A
window's x and y are read-only views of its record, and apply_norm z-scores
a record's rows once and hands out views of them. The normalization stats
are fit over the training windows read in pieces of bounded size, each one
copied afresh from the windows it spans (_piece), never the windows
concatenated, with the bits numpy gives for the concatenation. `replacing`
is the package's one file writer.
"""

from __future__ import annotations

import csv
import math
import os
import stat
import warnings
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, replace
from itertools import accumulate
from pathlib import Path
from typing import NoReturn, TextIO

import numpy as np

from .errors import ContractViolation, DataError

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
_ID_COLUMNS = CSV_COLUMNS[:2]
_NUMERIC_COLUMNS = CSV_COLUMNS[2:]
GRIP_CHANNEL = "grip_giver_N"

# Relative tolerance on the 8.333 ms sample spacing of every wrench input.
_SPACING_TOL = 0.01


def round_half_up(x: float) -> int:
    """Nearest integer, ties away from minus infinity (0.5 -> 1, -0.5 -> 0).

    The ms->steps conversions use this rather than banker's rounding so window
    boundaries round by one documented convention.
    """
    return int(math.floor(x + 0.5))


def ms_to_steps(delta_ms: float) -> int:
    return round_half_up(delta_ms * (RATE_HZ / 1000.0))


def spacing_off(dt_ms: float | np.ndarray) -> bool | np.ndarray:
    """Whether a sample spacing (ms; a float or an array of them) is more
    than 1% off the 120 Hz period: the one spacing rule for every input."""
    return abs(dt_ms - PERIOD_MS) > _SPACING_TOL * PERIOD_MS


def parse_number(cell: str) -> float:
    """A numeric cell of any wrench input, recording row or tick, read by the
    one number grammar, which is also the bulk loader's: whitespace around the
    cell is stripped, and the rest must be ASCII without `_` (`float()` alone
    also takes `1_000` and non-ASCII digits), parse with `float()` and be
    finite. The ValueError names the cell: `not a number (...)` or
    `non-finite value ...`.
    """
    text = cell.strip()
    try:
        if not text.isascii() or "_" in text:
            raise ValueError(cell)
        value = float(text)
    except ValueError:
        raise ValueError(f"not a number ({cell!r})") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {cell!r}")
    return value


@dataclass
class HandoverRecord:
    """One handover's time series at 120 Hz, on any clock: windows do not read it."""

    pair_id: str
    handover_id: str
    t_ms: np.ndarray  # (T,)
    wrench: np.ndarray  # (T, 6) columns in WRENCH_COLUMNS order
    grip_giver: np.ndarray  # (T,)
    grip_taker: np.ndarray  # (T,)

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


@dataclass(frozen=True)
class TrainingSample:
    """One (X, Y) pair: wrench window in, 70-step giver grip horizon out.

    Frozen, so a window is changed only by dataclasses.replace, which drops
    the private link to the record (`_source`) that extract_samples sets.
    """

    pair_id: str
    handover_id: str
    t_o_ms: float
    t_e_ms: float
    x: np.ndarray  # (len_x, 6) wrench window over [t_o, t_e]
    y: np.ndarray  # (70,) giver grip over (t_e, t_f]
    _source: _Source | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def family(self) -> tuple[str, str, int]:
        """(pair_id, handover_id, first step counted from the crossing row).
        extract_samples cuts the windows of one family from one record at one
        start row, so of two such windows the shorter is a prefix of the longer."""
        return self.pair_id, self.handover_id, ms_to_steps(self.t_e_ms) - len(self.x) + 1

    def validate(self) -> None:
        if len(self.y) != HORIZON:
            raise ContractViolation(f"y must have exactly {HORIZON} steps")
        expect = ms_to_steps(self.t_e_ms - self.t_o_ms) + 1
        if len(self.x) != expect:
            raise ContractViolation(
                f"x length {len(self.x)} does not match window "
                f"[{self.t_o_ms}, {self.t_e_ms}] ms (expected {expect})"
            )


@dataclass(frozen=True)
class SamplingPolicy:
    """The window boundaries, in ms from the grip crossing: each t_e paired
    with each t_o. The default is the paper's grid, t_e every 50 ms from 0
    to -250 and t_o every 250 ms from -260 to -1010, then 240 ms on to -1250.
    """

    t_e_ms: tuple[float, ...] = (0.0, -50.0, -100.0, -150.0, -200.0, -250.0)
    t_o_ms: tuple[float, ...] = (-260.0, -510.0, -760.0, -1010.0, -1250.0)

    def validate(self) -> None:
        if not (self.t_e_ms and self.t_o_ms):
            raise ContractViolation("a policy needs at least one t_e and one t_o")
        # Guarantees every sample's x has >= 2 steps.
        if ms_to_steps(min(self.t_e_ms) - max(self.t_o_ms)) < 1:
            raise ContractViolation(
                "every t_o must lie at least half a sample period before every t_e"
            )


@dataclass
class NormStats:
    """Per-channel z-score statistics, fit on the training split only."""

    wrench_mean: np.ndarray  # (6,)
    wrench_std: np.ndarray  # (6,)
    grip_mean: float
    grip_std: float


def load_recordings(path: str) -> list[HandoverRecord]:
    """Parse a recording CSV into per-(pair, handover) records.

    Columns are found by their header names, so extra or reordered columns
    load too; a CSV_COLUMNS name may appear only once. One np.loadtxt pass
    tokenizes each data row once (_parse_table). Records come back sorted by
    (pair_id, handover_id), rows within a record in file order, which must
    already be timestamp-ascending, the clock as recorded; extract_samples
    cuts at the grip crossing whatever it reads. A malformed file raises
    DataError naming the row and field. A UTF-8 BOM before the header is dropped.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header = next(csv.reader([fh.readline()]), [])
            index = {name: i for i, name in enumerate(header)}
            missing = [c for c in CSV_COLUMNS if c not in index]
            if missing:
                raise DataError(f"{path}: missing column(s) {', '.join(missing)}")
            repeated = [c for c in CSV_COLUMNS if header.count(c) > 1]
            if repeated:
                raise DataError(f"{path}: repeated column(s) {', '.join(repeated)}")
            try:
                table = _parse_table(fh, index)
            except ValueError as exc:
                _raise_first_bad_row(path, index, exc)
            if not all(np.isfinite(table[c]).all() for c in _NUMERIC_COLUMNS):
                _raise_first_bad_row(path, index, None)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text ({exc.reason})") from None

    # Runs of rows that share an id pair; a handover may come back in several.
    pair, handover = table["pair_id"], table["handover_id"]
    new_run = np.ones(len(table), dtype=bool)
    new_run[1:] = (pair[1:] != pair[:-1]) | (handover[1:] != handover[:-1])
    starts = np.flatnonzero(new_run)
    runs: dict[tuple[str, str], list[tuple[int, int]]] = {}
    for lo, hi in zip(starts, [*starts[1:], len(table)]):
        runs.setdefault((pair[lo], handover[lo]), []).append((lo, hi))

    records = []
    for (pair_id, handover_id) in sorted(runs):
        rows = np.concatenate([np.arange(lo, hi) for lo, hi in runs[(pair_id, handover_id)]])
        block = table[rows]
        t = block["t_ms"].copy()
        dt = np.diff(t)
        bad = np.flatnonzero(dt <= 0)
        if bad.size:
            raise DataError(
                f"{path}: row {rows[bad[0] + 1] + 2}, field t_ms: non-monotone timestamp in "
                f"handover ({pair_id}, {handover_id})"
            )
        off = np.flatnonzero(spacing_off(dt))
        if off.size:
            raise DataError(
                f"{path}: row {rows[off[0] + 1] + 2}, field t_ms: spacing {dt[off[0]]:.4f} ms "
                f"deviates more than 1% from {PERIOD_MS:.4f} ms (120 Hz)"
            )
        records.append(
            HandoverRecord(
                pair_id=pair_id,
                handover_id=handover_id,
                t_ms=t,
                wrench=np.stack([block[c] for c in WRENCH_COLUMNS], axis=1),
                grip_giver=block["grip_giver_N"].copy(),
                grip_taker=block["grip_taker_N"].copy(),
            )
        )
    return records


def _parse_table(fh: TextIO, index: dict[str, int]) -> np.ndarray:
    """The data rows of an open CSV, read on from its header in one C-level
    pass: a structured array whose fields are the CSV_COLUMNS in header
    order, the ids as str objects (a numpy str drops an id's trailing NULs)
    and the rest float64. Blank lines are skipped, as csv.DictReader skips
    them."""
    columns = sorted(CSV_COLUMNS, key=index.__getitem__)
    dtype = np.dtype([(c, object if c in _ID_COLUMNS else np.float64) for c in columns])
    with warnings.catch_warnings():  # loadtxt notes blank lines and no rows
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, quotechar='"',
                          usecols=[index[c] for c in columns], ndmin=1)


def _raise_first_bad_row(path: str, index: dict[str, int], exc: ValueError | None) -> NoReturn:
    """Re-read the file row by row to name the first row and field that the bulk
    parse refused. Only an error comes out of here, never records."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        fh.readline()  # the header, read as load_recordings read it
        for line_no, row in enumerate((r for r in csv.reader(fh) if r), start=2):
            for col in _NUMERIC_COLUMNS + _ID_COLUMNS:
                if index[col] >= len(row):
                    raise DataError(f"{path}: row {line_no}, field {col}: missing value")
                if col in _NUMERIC_COLUMNS:
                    try:
                        parse_number(row[index[col]])
                    except ValueError as exc:
                        raise DataError(f"{path}: row {line_no}, field {col}: {exc}") from None
    raise DataError(f"{path}: cannot parse ({exc})")


@contextmanager
def replacing(path: str | Path) -> Iterator[TextIO]:
    """A text file, UTF-8 with LF line ends, that replaces `path` when the
    block ends: the one writer of every output.

    The file `path` names, its symlinks followed (`/dev/stdout` too), is
    written as a sibling `<name>.<pid>.tmp` (the name cut to 200 bytes),
    synced and renamed over it, so the new file's mode comes from the umask.
    On any exception, KeyboardInterrupt too, the temp file goes and the file
    keeps its old bytes; an OSError from the temp file or the rename names
    `path` instead. A `path` that is there and not a regular file (a device,
    a pipe) cannot be replaced: it is opened and written through.
    """
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except OSError:  # not there yet
        regular = True
    if not regular:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        return
    target = Path(os.path.realpath(path))
    name = os.fsdecode(os.fsencode(target.name)[:200])
    tmp = target.parent / f"{name}.{os.getpid()}.tmp"
    try:
        # "x": an entry already at the temp name is refused, not followed
        with open(tmp, "x", encoding="utf-8", newline="\n") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    except BaseException as exc:  # KeyboardInterrupt too
        if isinstance(exc, FileExistsError) and exc.filename == str(tmp):
            raise  # an entry already at the temp name: not ours to remove
        with suppress(OSError):  # not there if its open failed
            tmp.unlink()
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None
        raise


def save_recordings(records: list[HandoverRecord], path: str) -> None:
    """Write records in the recording CSV format (csv's CRLF row ends) with exact
    float round-trip."""
    with replacing(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            for i in range(len(rec)):
                writer.writerow(
                    [rec.pair_id, rec.handover_id, repr(float(rec.t_ms[i]))]
                    + [repr(float(v)) for v in rec.wrench[i]]
                    + [repr(float(rec.grip_giver[i])), repr(float(rec.grip_taker[i]))]
                )


def _crossing(record: HandoverRecord) -> int:
    """The row at t=0 of the handover: the first sample index k where
    (giver - taker) moves from positive to non-positive. Zero or multiple
    sign changes are hard errors: ambiguity must surface, not be guessed away.
    """
    record.validate()
    pos = (record.grip_giver - record.grip_taker) > 0
    changes = (np.flatnonzero(pos[1:] != pos[:-1]) + 1).tolist()
    if not changes:
        raise DataError(
            f"handover ({record.pair_id}, {record.handover_id}): grip forces "
            "never cross (giver - taker has no sign change)"
        )
    if len(changes) > 1:
        raise DataError(
            f"handover ({record.pair_id}, {record.handover_id}): multiple grip "
            f"crossings at sample indices {changes}"
        )
    k = changes[0]
    if pos[k]:
        raise DataError(
            f"handover ({record.pair_id}, {record.handover_id}): grip difference "
            f"only crosses upward (at index {k}); no giver release found"
        )
    return k


def align_handover(record: HandoverRecord) -> HandoverRecord:
    """Shift timestamps so t=0 sits on the grip crossing; windows do not need it."""
    return replace(record, t_ms=record.t_ms - record.t_ms[_crossing(record)])


def _read_only(a: np.ndarray) -> np.ndarray:
    """A view of `a` that refuses writes; `a` itself keeps its flags."""
    view = a.view()
    view.flags.writeable = False
    return view


def _cut(wrench: np.ndarray, grip: np.ndarray, row: int,
         len_x: int) -> tuple[np.ndarray, np.ndarray]:
    """The window whose x starts at `row`: (x, y) views, y the HORIZON rows after x."""
    return wrench[row : row + len_x], grip[row + len_x : row + len_x + HORIZON]


def _normalized(x: np.ndarray, y: np.ndarray, stats: NormStats) -> tuple[np.ndarray, np.ndarray]:
    return _read_only(normalize_wrench(x, stats)), _read_only(normalize_grip(y, stats))


class _Source:
    """The rows of one record that its windows span, read-only, shared by the
    windows extract_samples cuts from them; `zero` is the crossing row.

    window() reads a window off these rows z-scored as a whole, once per
    NormStats: the last stats and their result are kept, so the windows
    normalized with one stats view one array. Only raw windows hold a
    _Source, so once they are gone only the normalized rows that the
    normalized windows view stay alive.
    """

    __slots__ = ("wrench", "grip", "zero", "_last")

    def __init__(self, wrench: np.ndarray, grip: np.ndarray, zero: int):
        self.wrench, self.grip = _read_only(np.ascontiguousarray(wrench)), _read_only(grip)
        self.zero = zero
        self._last: tuple | None = None  # (stats key, normalized wrench, grip)

    def window(self, sample: TrainingSample, stats: NormStats) -> tuple[np.ndarray, np.ndarray]:
        # The stats by value, so stats changed in place count as new ones.
        key = (stats.wrench_mean.tobytes(), stats.wrench_std.tobytes(),
               stats.grip_mean, stats.grip_std)
        if self._last is None or self._last[0] != key:
            self._last = (key, *_normalized(self.wrench, self.grip, stats))
        _, wrench, grip = self._last
        return _cut(wrench, grip, self.zero + sample.family[2], len(sample.x))


def extract_samples(
    record: HandoverRecord, policy: SamplingPolicy = SamplingPolicy()
) -> list[TrainingSample]:
    """All (t_o, t_e) windows of the policy that fit inside the record,
    counted from its grip crossing (_crossing) whatever its clock reads.

    Samples come out in the policy's order, each t_e and each t_o within it:
    by default t_e 0, -50, -100, -150, -200, -250 ms and t_o -260, -510, -760,
    -1010, -1250 ms. Points whose X window or Y horizon would leave the
    record are skipped, not errors.
    Each window's x and y are read-only views of the record's rows, which
    must not change while its windows are in use.
    """
    policy.validate()
    k0 = _crossing(record)
    n = len(record)
    grid = []  # (t_o, t_e, first row, x length) of each window that fits
    for t_e in policy.t_e_ms:
        i_e = k0 + ms_to_steps(t_e)
        for t_o in policy.t_o_ms:
            len_x = ms_to_steps(t_e - t_o) + 1
            i_o = i_e - (len_x - 1)
            if i_o >= 0 and i_e + HORIZON <= n - 1:
                grid.append((t_o, t_e, i_o, len_x))
    if not grid:
        return []
    lo = min(i_o for _, _, i_o, _ in grid)
    hi = max(i_o + len_x for _, _, i_o, len_x in grid) + HORIZON
    source = _Source(record.wrench[lo:hi], record.grip_giver[lo:hi], k0 - lo)
    samples = []
    for t_o, t_e, i_o, len_x in grid:
        x, y = _cut(source.wrench, source.grip, i_o - lo, len_x)
        sample = TrainingSample(record.pair_id, record.handover_id, t_o, t_e, x, y)
        object.__setattr__(sample, "_source", source)  # frozen; see TrainingSample
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


# Values that fit_norm_stats reads into one piece: 128 kB. At least 128,
# numpy's pairwise block, for _pairwise_sum to replay numpy's splits.
_FIT_CHUNK = 1 << 14


def _piece(arrays: list[np.ndarray], starts: list[int], lo: int, hi: int,
           center: np.ndarray | float | None = None) -> np.ndarray:
    """Rows lo to hi of the arrays' concatenation, as a new float array, minus
    `center` and squared if given. `starts` holds each array's first row, then
    the total; only the first and last array the piece touches are sliced."""
    first, last = bisect_right(starts, lo) - 1, bisect_left(starts, hi) - 1
    parts = arrays[first : last + 1]
    parts[-1] = parts[-1][: hi - starts[last]]  # the end first: one array may be both
    parts[0] = parts[0][lo - starts[first] :]
    piece = np.concatenate(parts, dtype=float)
    if center is not None:
        piece -= center
        piece *= piece
    return piece


def _row_sum(arrays: list[np.ndarray], center: np.ndarray | None = None) -> np.ndarray:
    """np.add.reduce(axis=0) over the concatenated (rows, 6) arrays, bit for bit.

    numpy adds the rows of a C-ordered 2-d array in order onto the first, so
    adding the running sum into each piece's first row makes the same
    additions in the same order.
    """
    starts = list(accumulate(map(len, arrays), initial=0))
    total = np.zeros(arrays[0].shape[1])
    step = _FIT_CHUNK // len(total)
    for lo in range(0, starts[-1], step):
        piece = _piece(arrays, starts, lo, min(lo + step, starts[-1]), center)
        piece[0] += total
        total = np.add.reduce(piece, axis=0)
    return total


def _pairwise_sum(arrays: list[np.ndarray], center: float | None = None) -> float:
    """np.add.reduce over the concatenated 1-d arrays, bit for bit.

    numpy sums one contiguous float64 array pairwise: it splits n values at
    n // 2 cut down to a multiple of 8, down to blocks of 128. The splits
    above _FIT_CHUNK values are replayed here; below that, np.add.reduce of
    one piece is that subtree itself.
    """
    starts = list(accumulate(map(len, arrays), initial=0))

    def tree(lo: int, n: int) -> float:
        if n <= _FIT_CHUNK:
            return float(np.add.reduce(_piece(arrays, starts, lo, lo + n, center)))
        half = n // 2 - n // 2 % 8
        return tree(lo, half) + tree(lo + half, n - half)

    return tree(0, starts[-1])


def fit_norm_stats(train: list[TrainingSample]) -> NormStats:
    """Per-channel mean/std over the training samples' X (wrench) and Y (grip).

    Population std (ddof=0). The stats are those of the concatenated
    windows, mean and std as numpy computes them, bit for bit, but the
    windows are read in pieces of _FIT_CHUNK values and never concatenated.
    A channel whose mean or std is not finite (its values overflow float64)
    or whose std is below 1e-12 is rejected by name; windows without a
    wrench row or a grip value between them break the contract.
    """
    xs = [s.x for s in train]
    ys = [s.y for s in train]
    n_x, n_y = sum(len(x) for x in xs), sum(len(y) for y in ys)
    if not (n_x and n_y):
        raise ContractViolation(
            "fit_norm_stats needs training windows with at least one wrench row and grip value")
    with np.errstate(over="ignore", invalid="ignore"):  # checked by name below
        wrench_mean = _row_sum(xs) / n_x
        wrench_std = np.sqrt(_row_sum(xs, wrench_mean) / n_x)
        grip_mean = _pairwise_sum(ys) / n_y
        grip_std = math.sqrt(_pairwise_sum(ys, grip_mean) / n_y)
    channels = zip(WRENCH_COLUMNS + (GRIP_CHANNEL,), [*wrench_mean, grip_mean],
                   [*wrench_std, grip_std])
    for col, mean, std in channels:
        if not (math.isfinite(mean) and math.isfinite(std)):
            raise DataError(
                f"channel {col} has a mean or std that is not finite in the training "
                "split: its values are too large"
            )
        if std < 1e-12:
            raise DataError(f"channel {col} has zero variance in the training split")
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
    """z-score a sample's channels; denormalize_grip inverts the Y side.

    The result's x and y are read-only and bit for bit normalize_wrench(x)
    and normalize_grip(y). A window cut by extract_samples gets views of its
    record's rows, z-scored once per NormStats (see _Source); any other
    sample (hand-made, changed by replace, or already normalized) is
    z-scored from its own x and y.
    """
    if sample._source is None:
        x, y = _normalized(sample.x, sample.y, stats)
    else:
        x, y = sample._source.window(sample, stats)
    return TrainingSample(sample.pair_id, sample.handover_id, sample.t_o_ms, sample.t_e_ms, x, y)
