"""The recording loader as it was before the bulk parse, kept as the oracle
that tests hold `dataset.load_recordings` against.

It reads the CSV cell by cell through csv.DictReader and float(). It is slow
on purpose; the package's loader parses whole columns at once and must give
the same records bit for bit, and the same error type and row-and-field
message on malformed files.
"""

import csv
import math

import numpy as np

from gripforecast.dataset import CSV_COLUMNS, PERIOD_MS, HandoverRecord, spacing_off
from gripforecast.errors import DataError


def load_recordings(path: str) -> list[HandoverRecord]:
    groups: dict[tuple[str, str], list[tuple[int, list[float]]]] = {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            missing = [c for c in CSV_COLUMNS if c not in header]
            if missing:
                raise DataError(f"{path}: missing column(s) {', '.join(missing)}")
            for line_no, row in enumerate(reader, start=2):
                values = []
                for col in CSV_COLUMNS[2:]:
                    raw = row[col]
                    if raw is None:
                        raise DataError(f"{path}: row {line_no}, field {col}: missing value")
                    try:
                        v = float(raw)
                    except ValueError:
                        raise DataError(
                            f"{path}: row {line_no}, field {col}: not a number ({raw!r})"
                        ) from None
                    if not math.isfinite(v):
                        raise DataError(
                            f"{path}: row {line_no}, field {col}: non-finite value {raw!r}"
                        )
                    values.append(v)
                key = (row["pair_id"], row["handover_id"])
                groups.setdefault(key, []).append((line_no, values))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text ({exc.reason})") from None

    records = []
    for (pair_id, handover_id) in sorted(groups):
        rows = groups[(pair_id, handover_id)]
        t = np.array([v[0] for _, v in rows], dtype=np.float64)
        if len(t) > 1:
            dt = np.diff(t)
            bad = np.where(dt <= 0)[0]
            if bad.size:
                line = rows[bad[0] + 1][0]
                raise DataError(
                    f"{path}: row {line}, field t_ms: non-monotone timestamp in "
                    f"handover ({pair_id}, {handover_id})"
                )
            off = np.flatnonzero(spacing_off(dt))
            if off.size:
                line = rows[off[0] + 1][0]
                raise DataError(
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
            )
        )
    return records
