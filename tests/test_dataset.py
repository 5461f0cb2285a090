"""Tests for recording IO, the grip crossing, window extraction, and normalization."""

import csv
import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import loader_reference
from gripforecast import dataset
from gripforecast.dataset import (
    CSV_COLUMNS,
    HORIZON,
    HORIZON_MS,
    PERIOD_MS,
    HandoverRecord,
    NormStats,
    SamplingPolicy,
    TrainingSample,
    align_handover,
    apply_norm,
    denormalize_grip,
    extract_samples,
    fit_norm_stats,
    load_recordings,
    ms_to_steps,
    normalize_grip,
    normalize_wrench,
    round_half_up,
    save_recordings,
    split_by_pair,
)
from gripforecast.errors import ContractViolation, DataError
from gripforecast.synthgen import generate_dataset


def make_record(
    n=300,
    k0=200,
    pair="1",
    handover="1",
    grip_giver=None,
    grip_taker=None,
    offset_ms=0.0,
):
    """Hand-built record: t=0 at index k0 (before any offset)."""
    t = (np.arange(n) - k0) * PERIOD_MS + offset_ms
    rng = np.random.default_rng(0)
    wrench = rng.normal(0.0, 1.0, size=(n, 6))
    if grip_giver is None:
        grip_giver = 10.0 / (1.0 + np.exp(t / 150.0))
    if grip_taker is None:
        grip_taker = 10.0 / (1.0 + np.exp(-t / 150.0))
    return HandoverRecord(
        pair_id=pair,
        handover_id=handover,
        t_ms=t,
        wrench=wrench,
        grip_giver=np.asarray(grip_giver, dtype=float),
        grip_taker=np.asarray(grip_taker, dtype=float),
    )


# ---------------------------------------------------------------------------
# rounding and step conversion


def test_round_half_up_convention():
    assert round_half_up(0.5) == 1
    assert round_half_up(-0.5) == 0
    assert round_half_up(1.49) == 1
    assert round_half_up(1.5) == 2
    assert round_half_up(-1.5) == -1


def test_ms_to_steps_known_values():
    assert ms_to_steps(260.0) == 31  # 260 * 0.12 = 31.2
    assert ms_to_steps(1000.0) == 120
    assert ms_to_steps(HORIZON_MS) == HORIZON
    assert ms_to_steps(10.0) == 1  # 1.2 -> 1


# ---------------------------------------------------------------------------
# CSV loading / saving


def _write_csv(path, rows, header=CSV_COLUMNS):
    lines = [",".join(header)]
    lines += [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _tick_row(pair, handover, t, value=1.0):
    return [pair, handover, t, value, 0.1, 0.2, 0.01, 0.02, 0.03, 9.0, 2.0]


def test_load_missing_column_is_named(tmp_path):
    p = tmp_path / "d.csv"
    header = [c for c in CSV_COLUMNS if c != "fz_N"]
    _write_csv(p, [["1", "1", 0.0] + [1.0] * 7], header=header)
    with pytest.raises(DataError, match="fz_N"):
        load_recordings(p)


def test_load_repeated_column_is_named(tmp_path):
    # A second copy of a column would shadow the first; only columns the
    # loader ignores may repeat.
    p = tmp_path / "d.csv"
    header = [*CSV_COLUMNS, "fz_N", "note", "pair_id", "note"]
    _write_csv(p, [_tick_row("1", "1", 0.0) + [999.0, "a", "2", "b"]], header=header)
    with pytest.raises(DataError, match="repeated column.*pair_id, fz_N"):
        load_recordings(p)
    _write_csv(p, [_tick_row("1", "1", 0.0) + ["a", "b"]], header=[*CSV_COLUMNS, "note", "note"])
    assert load_recordings(p)[0].wrench[0].tolist() == [1.0, 0.1, 0.2, 0.01, 0.02, 0.03]


def test_load_bad_value_names_row_and_field(tmp_path):
    p = tmp_path / "d.csv"
    row = _tick_row("1", "1", 0.0)
    row[4] = "oops"  # fy_N
    _write_csv(p, [_tick_row("1", "1", -PERIOD_MS), row])
    with pytest.raises(DataError, match=r"row 3.*fy_N"):
        load_recordings(p)


def test_load_non_monotone_timestamp(tmp_path):
    p = tmp_path / "d.csv"
    _write_csv(
        p,
        [_tick_row("1", "1", 0.0), _tick_row("1", "1", PERIOD_MS), _tick_row("1", "1", PERIOD_MS)],
    )
    with pytest.raises(DataError, match="non-monotone"):
        load_recordings(p)


def test_load_bad_spacing(tmp_path):
    p = tmp_path / "d.csv"
    _write_csv(p, [_tick_row("1", "1", 0.0), _tick_row("1", "1", 10.0)])
    with pytest.raises(DataError, match="spacing"):
        load_recordings(p)


def test_save_load_round_trip_is_exact(tmp_path):
    rec = make_record(n=40, k0=20)
    p = tmp_path / "d.csv"
    save_recordings([rec], p)
    (back,) = load_recordings(p)
    assert back.pair_id == rec.pair_id and back.handover_id == rec.handover_id
    assert np.array_equal(back.t_ms, rec.t_ms)
    assert np.array_equal(back.wrench, rec.wrench)
    assert np.array_equal(back.grip_giver, rec.grip_giver)
    assert np.array_equal(back.grip_taker, rec.grip_taker)


def test_load_groups_and_sorts_records(tmp_path):
    p = tmp_path / "d.csv"
    rows = [
        _tick_row("2", "1", 0.0),
        _tick_row("1", "2", 0.0),
        _tick_row("1", "1", 0.0),
    ]
    _write_csv(p, rows)
    recs = load_recordings(p)
    assert [(r.pair_id, r.handover_id) for r in recs] == [("1", "1"), ("1", "2"), ("2", "1")]


# ---------------------------------------------------------------------------
# bulk loader against the cell-by-cell oracle (tests/loader_reference.py)


def _same_records(got, want):
    """Bit-identical ids, timestamps, wrench and both grips, in the same order."""
    assert [(r.pair_id, r.handover_id) for r in got] == [
        (r.pair_id, r.handover_id) for r in want]
    for a, b in zip(got, want):
        assert type(a.pair_id) is str and type(a.handover_id) is str
        for name in ("t_ms", "wrench", "grip_giver", "grip_taker"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype == np.float64 and x.shape == y.shape, name
            assert x.tobytes() == y.tobytes(), name
        assert a.wrench.flags.c_contiguous


def _outcome(load, path):
    """('ok', records) or (exception type, message) for one loader on one file."""
    try:
        return "ok", load(path)
    except Exception as exc:  # the comparison is the point: any type must match
        return type(exc), str(exc)


def _csv_rows(path):
    """Header and data rows of a CSV as lists of strings."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _write_rows(path, rows, newline="\r\n"):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator=newline).writerows(rows)


@pytest.fixture(scope="module")
def synth_csv(tmp_path_factory):
    """generate_dataset(3, 2, seed) as save_recordings writes it (CRLF)."""
    p = tmp_path_factory.mktemp("loader") / "synth.csv"
    save_recordings(generate_dataset(3, 2, 11), p)
    return p


def _lf(rows, path):
    _write_rows(path, rows, "\n")


def _interleaved(rows, path):
    # Round-robin over the handovers, last handover first: every record is
    # split into many runs, and no record's rows are in id order in the file.
    by_id: dict = {}
    for row in rows[1:]:
        by_id.setdefault((row[0], row[1]), []).append(row)
    queues = list(reversed(by_id.values()))
    out = [rows[0]]
    while any(queues):
        for q in queues:
            if q:
                out.append(q.pop(0))
    _write_rows(path, out)


def _odd_ids(rows, path):
    names = {"1": 'a,b', "2": 'say "hi"', "3": ' 3\x00'}
    _write_rows(path, [rows[0]] + [[names[r[0]], r[1] + ",x"] + r[2:] for r in rows[1:]])


def _extra_and_reordered_columns(rows, path):
    order = [5, 10, 0, 3, 2, 9, 1, 4, 8, 6, 7]
    out = [["note"] + [rows[0][i] for i in order] + ["spare"]]
    out += [[f"n,{k}"] + [r[i] for i in order] + ['"q"'] for k, r in enumerate(rows[1:])]
    _write_rows(path, out)


def _padded_cells(rows, path):
    for k, row in enumerate(rows[1:]):
        row[2 + k % 9] = [" ", "\t", "\u00a0"][k % 3] + row[2 + k % 9] + " "
    _write_rows(path, rows)


def _blank_lines(rows, path):
    rows[5:5] = [[], []]  # csv.writer writes an empty row as a bare line end
    rows[300:300] = [[]]
    _write_rows(path, rows + [[]])


@pytest.mark.parametrize("rewrite", [None, _lf, _interleaved, _odd_ids,
                                     _extra_and_reordered_columns, _padded_cells,
                                     _blank_lines],
                         ids=lambda f: "crlf" if f is None else f.__name__.strip("_"))
def test_loader_matches_oracle_bit_for_bit(synth_csv, tmp_path, rewrite):
    path = synth_csv
    if rewrite is not None:
        path = tmp_path / "rewritten.csv"
        rewrite(_csv_rows(synth_csv), path)
    want = loader_reference.load_recordings(path)
    assert len(want) == 6
    _same_records(load_recordings(path), want)


def test_loader_tokenizes_each_data_row_once(synth_csv, monkeypatch):
    # The rows that np.loadtxt returns to the loader add up to the data rows
    # once: one pass reads the ids and the numbers together.
    returned = []
    loadtxt = np.loadtxt

    def counted(*args, **kwargs):
        table = loadtxt(*args, **kwargs)
        returned.append(len(table))
        return table

    monkeypatch.setattr(np, "loadtxt", counted)
    records = load_recordings(synth_csv)
    assert sum(returned) == sum(map(len, records)) > 0


def _set_cell(row_no, col, text):
    """Rewrite: cell (file row row_no, column col) becomes text."""
    def rewrite(rows, path):
        rows[row_no - 1][CSV_COLUMNS.index(col)] = text
        _write_rows(path, rows)
    return rewrite


def _short_row(rows, path):
    rows[40] = rows[40][:5]
    _write_rows(path, rows)


def _whitespace_line(rows, path):
    rows.insert(40, ["   "])
    _write_rows(path, rows)


def _swap_timestamps(rows, path):
    rows[300][2], rows[301][2] = rows[301][2], rows[300][2]
    _write_rows(path, rows)


def _skip_a_sample(rows, path):
    del rows[400]
    _write_rows(path, rows)


def _non_utf8_byte(rows, path):
    _write_rows(path, rows)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] = 0xFF
    path.write_bytes(bytes(data))


def _blank_lines_then_bad_value(rows, path):
    rows[5:5] = [[], []]
    rows[50][4] = "oops"
    _write_rows(path, rows)


def _padded_cells_then_bad_value(rows, path):
    rows[900][3] = "oops"
    _padded_cells(rows, path)


def _header_only(rows, path):
    _write_rows(path, rows[:1])


def _missing_column(rows, path):
    _write_rows(path, [r[:8] + r[9:] for r in rows])


@pytest.mark.parametrize("rewrite", [
    _set_cell(41, "fy_N", "oops"),
    _set_cell(41, "tz_Nm", ""),
    _set_cell(2, "t_ms", "nan"),
    _set_cell(900, "grip_taker_N", "inf"),
    _set_cell(900, "fx_N", "-Infinity"),
    _short_row,
    _whitespace_line,
    _swap_timestamps,
    _skip_a_sample,
    _non_utf8_byte,
    _blank_lines_then_bad_value,
    _padded_cells_then_bad_value,
    _header_only,
    _missing_column,
], ids=["bad_value", "empty_cell", "nan", "inf", "minus_infinity", "short_row",
        "whitespace_line", "non_monotone", "bad_spacing", "non_utf8",
        "blank_lines_then_bad_value", "padded_cells_then_bad_value", "header_only",
        "missing_column"])
def test_loader_malformed_matches_oracle(synth_csv, tmp_path, rewrite):
    path = tmp_path / "bad.csv"
    rewrite(_csv_rows(synth_csv), path)
    want = _outcome(loader_reference.load_recordings, path)
    got = _outcome(load_recordings, path)
    if want[0] == "ok":
        assert got[0] == "ok" and want[1] == []
        _same_records(got[1], want[1])
    else:
        assert want[0] is DataError
        assert got == want


def test_loader_drops_a_bom_before_the_header(synth_csv, tmp_path):
    # A UTF-8 BOM loads the same records, and a bad row is named alike.
    def with_bom(path):
        bom = tmp_path / f"bom_{path.name}"
        bom.write_bytes("\ufeff".encode() + path.read_bytes())
        return bom

    _same_records(load_recordings(with_bom(synth_csv)), load_recordings(synth_csv))
    bad = tmp_path / "bad.csv"
    _set_cell(41, "fy_N", "oops")(_csv_rows(synth_csv), bad)
    want = _outcome(load_recordings, bad)
    assert want[0] is DataError and "row 41, field fy_N: " in want[1]
    bom = with_bom(bad)
    assert _outcome(load_recordings, bom) == (DataError, want[1].replace(str(bad), str(bom)))


# Characters for random edits. Left out: `_`, non-ASCII digits and the
# separators \x1c-\x1f, where the loader departs from float() on purpose.
_EDIT_CHARS = '0123456789.,"\r\n -+eEinfax\t\x00\u00a0'


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(["set", "insert", "delete"]),
                          st.sampled_from(_EDIT_CHARS)), min_size=1, max_size=3))
def test_loader_matches_oracle_on_randomly_edited_files(tmp_path_factory, edits):
    header = ",".join(CSV_COLUMNS) + "\r\n"
    body = list("".join(
        f"{pair},1,{k * PERIOD_MS!r},1.5,-2,3e-1,4,5,6,7,8\r\n" for pair in "12" for k in range(4)))
    for pos, op, char in edits:
        i = pos % (len(body) + 1)
        if op == "insert" or i == len(body):
            body.insert(i, char)
        elif op == "set":
            body[i] = char
        else:
            del body[i]
    path = tmp_path_factory.mktemp("edited") / "d.csv"
    path.write_text(header + "".join(body), encoding="utf-8", newline="")
    want = _outcome(loader_reference.load_recordings, path)
    got = _outcome(load_recordings, path)
    if want[0] == "ok":
        assert got[0] == "ok", got
        _same_records(got[1], want[1])
    else:
        assert got == want


@pytest.mark.parametrize("text", ["1_000", "１", "١.5"],
                         ids=["underscore", "fullwidth_digit", "arabic_indic_digit"])
def test_loader_refuses_cells_only_float_reads(synth_csv, tmp_path, text):
    # float() reads these (the oracle loads them as numbers); the bulk parse
    # reads plain ASCII floats only, and the loader names the cell instead.
    path = tmp_path / "odd.csv"
    _set_cell(41, "fy_N", text)(_csv_rows(synth_csv), path)
    assert _outcome(loader_reference.load_recordings, path)[0] == "ok"
    with pytest.raises(DataError, match=rf"row 41, field fy_N: not a number \('{text}'\)"):
        load_recordings(path)


# ---------------------------------------------------------------------------
# the grip crossing and align_handover


def test_align_places_zero_on_first_downward_crossing():
    # Symmetric logistic curves crossing exactly between samples; the first
    # sample with giver - taker <= 0 becomes t = 0.
    rec = make_record(offset_ms=123.4)
    out = align_handover(rec)
    k = int(np.argmin(np.abs(out.t_ms)))
    assert out.t_ms[k] == 0.0
    d = out.grip_giver - out.grip_taker
    assert d[k - 1] > 0 and d[k] <= 0


def test_align_exact_touch_counts_as_crossing():
    # d hits exactly zero at index 5 and stays negative after.
    n = 11
    d = np.array([5.0, 4, 3, 2, 1, 0, -1, -2, -3, -4, -5])
    rec = make_record(n=n, k0=3, grip_giver=d + 1.0, grip_taker=np.ones(n))
    out = align_handover(rec)
    k = int(np.argmin(np.abs(out.t_ms)))
    assert (out.grip_giver - out.grip_taker)[k] == 0.0
    assert k == 5


def test_align_is_idempotent():
    rec = make_record(offset_ms=-77.0)
    once = align_handover(rec)
    twice = align_handover(once)
    assert np.array_equal(once.t_ms, twice.t_ms)
    assert np.array_equal(once.grip_giver, twice.grip_giver)


def test_align_no_crossing_is_hard_error():
    n = 50
    rec = make_record(
        n=n, k0=25, grip_giver=np.full(n, 10.0), grip_taker=np.full(n, 1.0)
    )
    with pytest.raises(DataError, match="never cross"):
        align_handover(rec)


def test_align_multiple_crossings_lists_candidates():
    n = 60
    d = np.ones(n)
    d[20:30] = -1.0  # down at 20, up at 30
    d[45:] = -1.0  # down again at 45
    rec = make_record(n=n, k0=10, grip_giver=d + 5.0, grip_taker=np.full(n, 5.0))
    with pytest.raises(DataError, match="multiple") as err:
        align_handover(rec)
    assert "20" in str(err.value) and "30" in str(err.value) and "45" in str(err.value)


def test_align_upward_only_crossing_rejected():
    n = 50
    d = np.concatenate([np.full(25, -1.0), np.full(25, 1.0)])
    rec = make_record(n=n, k0=10, grip_giver=d, grip_taker=np.zeros(n))
    with pytest.raises(DataError, match="upward"):
        align_handover(rec)


def _grip_crossings_loop(giver, taker):
    """The per-sample loops that _crossing's one sign-change scan replaces."""
    d = giver - taker
    pos = d > 0
    down = [k for k in range(1, len(d)) if pos[k - 1] and not pos[k]]
    up = [k for k in range(1, len(d)) if (not pos[k - 1]) and pos[k]]
    return down, up


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=1, max_size=60))
def test_grip_crossings_match_loop_version(signs):
    # Alignment succeeds exactly when the loops find one downward crossing
    # and no upward one, with t = 0 on it; otherwise it names why not.
    giver = np.array(signs)
    taker = np.zeros(len(signs))
    down, up = _grip_crossings_loop(giver, taker)
    rec = make_record(n=len(signs), k0=0, grip_giver=giver, grip_taker=taker)
    if len(down) == 1 and not up:
        out = align_handover(rec)
        assert out.t_ms[down[0]] == 0.0
        return
    reason = "never cross" if not down + up else "multiple" if len(down + up) > 1 else "upward"
    with pytest.raises(DataError, match=reason):
        align_handover(rec)


# ---------------------------------------------------------------------------
# window extraction


def test_default_grids():
    pol = SamplingPolicy()
    assert pol.t_e_ms == (0.0, -50.0, -100.0, -150.0, -200.0, -250.0)
    assert pol.t_o_ms == (-260.0, -510.0, -760.0, -1010.0, -1250.0)
    assert pol.t_e_ms == tuple(_range_points(-250.0, 0.0, 50.0))
    assert pol.t_o_ms == tuple(_range_points(-1250.0, -260.0, 250.0))  # last gap 240 ms


def _range_points(lo, hi, stride):
    """hi, hi - stride, ... down to lo, and lo itself: a grid by range and stride."""
    values = []
    v = hi
    while v >= lo - 1e-9:
        values.append(v)
        v -= stride
    if values[-1] > lo + 1e-9:
        values.append(lo)
    return values


def test_explicit_irregular_grid_gives_its_windows_in_order():
    # Steps from 120 Hz: t_e -120 ms is -14.4, rounded to -14, and the x of
    # (-300, -120) spans 180 ms, 21.6 steps rounded to 22, so both t_e keep
    # their x starts.
    rec = make_record(n=300, k0=200)
    rec.wrench[:, 0] = np.arange(300)
    pol = SamplingPolicy(t_e_ms=(0.0, -120.0), t_o_ms=(-300.0, -700.0))
    samples = extract_samples(rec, pol)
    assert [(s.t_e_ms, s.t_o_ms) for s in samples] == [
        (0.0, -300.0), (0.0, -700.0), (-120.0, -300.0), (-120.0, -700.0)]
    assert [(s.x[0, 0], s.x[-1, 0]) for s in samples] == [
        (164, 200), (116, 200), (164, 186), (116, 186)]


def test_extract_full_grid_is_30_samples():
    rec = make_record(n=300, k0=200)
    samples = extract_samples(rec)
    assert len(samples) == 30
    # ordered by t_e desc then t_o desc
    assert [s.t_e_ms for s in samples[:5]] == [0.0] * 5
    assert [s.t_o_ms for s in samples[:5]] == [-260.0, -510.0, -760.0, -1010.0, -1250.0]


def test_extract_window_contents_are_contiguous():
    # Plant index ramps so window positions are directly readable.
    n, k0 = 300, 200
    ramp = np.arange(n, dtype=float)
    rec = make_record(n=n, k0=k0, grip_giver=ramp, grip_taker=2 * ramp - k0)
    rec.wrench[:, 0] = np.arange(n)
    samples = extract_samples(rec)
    s = next(t for t in samples if t.t_e_ms == 0.0 and t.t_o_ms == -260.0)
    assert len(s.x) == 32  # round_half_up(260 * 0.12) + 1
    assert s.x[-1, 0] == k0  # X ends at t_e
    assert s.x[0, 0] == k0 - 31
    assert s.y[0] == k0 + 1  # Y starts one step after t_e
    assert s.y[-1] == k0 + 70
    assert len(s.y) == HORIZON


def test_extract_skips_windows_without_room():
    # k0 close to the start: long X windows do not fit and are skipped.
    rec = make_record(n=160, k0=40)
    samples = extract_samples(rec)
    assert 0 < len(samples) < 30
    for s in samples:
        assert ms_to_steps(s.t_e_ms) + 40 - (len(s.x) - 1) >= 0


@settings(max_examples=250, deadline=None)
@given(
    t_e_lo=st.floats(-250.0, 0.0),
    t_e_stride=st.sampled_from([13.0, 50.0]) | st.floats(2.0, 300.0),
    gap=st.floats(5.0, 200.0),
    t_o_span=st.floats(0.0, 1000.0),
    t_o_stride=st.sampled_from([4.0, 250.0]) | st.floats(2.0, 300.0),
    offset_ms=st.floats(-4.0, 4.0),
)
@example(t_e_lo=-250.0, t_e_stride=50.0, gap=10.0, t_o_span=990.0, t_o_stride=250.0,
         offset_ms=0.0)  # the default grid
def test_window_family_names_its_rows(t_e_lo, t_e_stride, gap, t_o_span, t_o_stride,
                                      offset_ms):
    # A window's family start is its first row counted from the crossing
    # row, under any grid rounding, and apply_norm keeps the family.
    policy = SamplingPolicy(
        t_e_ms=tuple(_range_points(t_e_lo, 0.0, t_e_stride)),
        t_o_ms=tuple(_range_points(t_e_lo - gap - t_o_span, t_e_lo - gap, t_o_stride)))
    rec = make_record(offset_ms=offset_ms)
    samples = extract_samples(rec, policy)
    stats = NormStats(wrench_mean=np.full(6, 0.5), wrench_std=np.full(6, 2.0),
                      grip_mean=1.0, grip_std=3.0)
    k0 = int(np.argmax(rec.grip_giver <= rec.grip_taker))  # the grip crossing
    for s in samples:
        pair, handover, start = s.family
        assert (pair, handover) == ("1", "1")
        assert np.array_equal(s.x, rec.wrench[k0 + start : k0 + start + len(s.x)])
        assert apply_norm(s, stats).family == s.family


def test_extract_cuts_at_the_crossing_whatever_the_clock():
    # The reference dataset as generated, its clocks not zeroed at the
    # crossing, gives the windows of its re-zeroed copy, bit for bit.
    for rec in generate_dataset(13, 10, 7):
        got, want = extract_samples(rec), extract_samples(align_handover(rec))
        assert len(got) == len(want) == 30
        for a, b in zip(got, want):
            assert (a.t_o_ms, a.t_e_ms) == (b.t_o_ms, b.t_e_ms)
            assert a.x.tobytes() == b.x.tobytes() and a.y.tobytes() == b.y.tobytes()


def test_single_point_policy():
    pol = SamplingPolicy(t_e_ms=(0.0,), t_o_ms=(-260.0,))
    rec = make_record()
    (sample,) = extract_samples(rec, pol)
    assert len(sample.x) == 32
    assert sample.t_o_ms == -260.0 and sample.t_e_ms == 0.0


def test_policy_rejects_overlapping_ranges():
    # A t_o of -200 ms lies after the t_e of -250 ms.
    with pytest.raises(ContractViolation, match="before every t_e"):
        SamplingPolicy(t_o_ms=(-1250.0, -200.0)).validate()
    for empty in ({"t_e_ms": ()}, {"t_o_ms": ()}):
        with pytest.raises(ContractViolation, match="at least one"):
            SamplingPolicy(**empty).validate()


def test_policy_rejects_zero_gap():
    # t_o of -1 ms maps to 0 steps before the t_e of 0: X would be 1 step.
    with pytest.raises(ContractViolation, match="before every t_e"):
        SamplingPolicy(t_e_ms=(0.0,), t_o_ms=(-1250.0, -1.0)).validate()
    SamplingPolicy(t_e_ms=(0.0,), t_o_ms=(-1250.0, -5.0)).validate()  # 1 step: X has 2


def test_training_sample_validation():
    s = TrainingSample(
        pair_id="1",
        handover_id="1",
        t_o_ms=-260.0,
        t_e_ms=0.0,
        x=np.zeros((32, 6)),
        y=np.zeros(70),
    )
    s.validate()
    with pytest.raises(ContractViolation, match="70"):
        TrainingSample("1", "1", -260.0, 0.0, np.zeros((32, 6)), np.zeros(69)).validate()
    with pytest.raises(ContractViolation, match="x length"):
        TrainingSample("1", "1", -260.0, 0.0, np.zeros((31, 6)), np.zeros(70)).validate()


@pytest.mark.parametrize("field, bad, says", [
    ("t_ms", lambda r: r.t_ms[:0], "at least one sample"),
    ("wrench", lambda r: r.wrench[:, :5], r"wrench shape \(40, 5\) does not match 40 samples"),
    ("grip_taker", lambda r: r.grip_taker[1:], "grip series length mismatch"),
    ("t_ms", lambda r: r.t_ms * 1.02, "not uniform 120 Hz spacing"),
    ("grip_giver", lambda r: np.where(np.arange(40) == 7, np.nan, r.grip_giver),
     "grip_giver contains non-finite values"),
], ids=["empty", "wrench_shape", "grip_length", "spacing", "non_finite"])
def test_handover_record_validation(field, bad, says):
    record = make_record(n=40, k0=20)
    record.validate()
    with pytest.raises(ContractViolation, match=says):
        replace(record, **{field: bad(record)}).validate()


# ---------------------------------------------------------------------------
# split + normalization


def test_split_by_pair_partitions():
    recs = [make_record(pair=str(p), handover=str(h)) for p in range(1, 5) for h in range(2)]
    train, test = split_by_pair(recs, {"2", "4"})
    assert {r.pair_id for r in train} == {"1", "3"}
    assert {r.pair_id for r in test} == {"2", "4"}
    assert len(train) + len(test) == len(recs)


def test_split_unknown_pair_rejected():
    recs = [make_record(pair="1")]
    with pytest.raises(DataError, match="9"):
        split_by_pair(recs, {"9"})


def test_fit_norm_stats_matches_hand_computation():
    rec = make_record()
    samples = extract_samples(rec)[:4]
    stats = fit_norm_stats(samples)
    xs = np.concatenate([s.x for s in samples], axis=0)
    ys = np.concatenate([s.y for s in samples])
    assert np.allclose(stats.wrench_mean, xs.mean(axis=0), atol=0, rtol=0)
    assert np.allclose(stats.wrench_std, xs.std(axis=0), atol=0, rtol=0)
    assert stats.grip_mean == ys.mean()
    assert stats.grip_std == ys.std()


@pytest.mark.parametrize("chunk", [128, 1000, dataset._FIT_CHUNK])
def test_fit_norm_stats_matches_concatenation_over_mixed_records(monkeypatch, chunk):
    # 300 windows of 27 lengths from ten records, 21,000 grip values: the
    # pieces cut windows, and the grip sum replays one to eight levels of
    # numpy's pairwise splits, yet the stats are the concatenation's, bit
    # for bit.
    monkeypatch.setattr(dataset, "_FIT_CHUNK", chunk)
    samples = []
    for k in range(10):
        rec = make_record(pair=str(k))
        rec.wrench *= np.linspace(0.5, 40.0, 6) * (1 + k)
        rec.wrench += np.linspace(-30.0, 30.0, 6) + k
        rec.grip_giver *= 1.0 + 0.1 * k
        samples += extract_samples(rec)
    assert len(samples) == 300 and len({len(s.x) for s in samples}) == 27
    stats = fit_norm_stats(samples)
    xs = np.concatenate([s.x for s in samples], axis=0)
    ys = np.concatenate([s.y for s in samples])
    assert stats.wrench_mean.tobytes() == xs.mean(axis=0).tobytes()
    assert stats.wrench_std.tobytes() == xs.std(axis=0).tobytes()
    assert stats.grip_mean == ys.mean() and stats.grip_std == ys.std()


def test_fit_norm_stats_matches_concatenation_with_pieces_on_window_starts(monkeypatch):
    # 40 windows of 32 rows and a piece of exactly one window's wrench values:
    # every wrench piece starts on a window's first row, the edge of the
    # search for the window that holds a piece's first row.
    monkeypatch.setattr(dataset, "_FIT_CHUNK", 32 * 6)
    rng = np.random.default_rng(6)
    base = rng.normal(3.0, 20.0, size=(40 * 32, 6))
    grip = rng.normal(5.0, 2.0, size=40 * HORIZON)
    samples = [TrainingSample("1", "1", -260.0, 0.0, base[32 * i : 32 * (i + 1)],
                              grip[HORIZON * i : HORIZON * (i + 1)]) for i in range(40)]
    stats = fit_norm_stats(samples)
    assert stats.wrench_mean.tobytes() == base.mean(axis=0).tobytes()
    assert stats.wrench_std.tobytes() == base.std(axis=0).tobytes()
    assert stats.grip_mean == grip.mean() and stats.grip_std == grip.std()


@pytest.mark.filterwarnings("error")
def test_fit_norm_stats_rejects_overflowing_channel_by_name():
    # Finite values near float64's largest overflow the sum; the channel is
    # named and no numpy warning escapes.
    rec = make_record()
    rec.wrench[150:250, 4] = 1.7e308
    with pytest.raises(DataError, match="ty_Nm.*not finite"):
        fit_norm_stats(extract_samples(rec))
    rec = make_record()
    rec.grip_giver[200:260] = -1.7e308
    with pytest.raises(DataError, match="grip_giver_N.*not finite"):
        fit_norm_stats(extract_samples(rec))


@pytest.mark.parametrize("empty", ["x", "y"])
def test_fit_norm_stats_rejects_windows_without_values(empty):
    # Hand-made windows that hold no wrench row, or no grip value, between
    # them: nothing to fit, so the caller broke the contract.
    x = np.zeros((0, 6)) if empty == "x" else np.ones((3, 6))
    y = np.zeros(0) if empty == "y" else np.arange(HORIZON, dtype=float)
    samples = [TrainingSample("1", str(k), 0.0, 0.0, x, y) for k in range(2)]
    with pytest.raises(ContractViolation, match="wrench row and grip value"):
        fit_norm_stats(samples)
    with pytest.raises(ContractViolation):
        fit_norm_stats([])


def test_fit_norm_stats_never_concatenates_the_windows():
    # 2,000 windows of 100 rows, views into one recording: concatenating
    # them would take 9.6 MB (and numpy's std one more copy); the pieces
    # take 128 kB. One window of 200,000 rows (9.6 MB) and 200,000 grip
    # values: a piece copies only its own rows of it, and the stats are the
    # window's own, bit for bit.
    base = np.random.default_rng(4).normal(0.0, 1.0, size=(2_100, 6))
    grip = np.random.default_rng(5).normal(5.0, 1.0, size=2_100)
    many = [TrainingSample("1", "1", 0.0, 0.0, base[i : i + 100], grip[i : i + HORIZON])
            for i in range(2_000)]
    rng = np.random.default_rng(7)
    x, y = rng.normal(2.0, 3.0, size=(200_000, 6)), rng.normal(5.0, 1.0, size=200_000)
    one = [TrainingSample("1", "1", 0.0, 0.0, x, y)]
    for samples in (many, one):
        tracemalloc.start()
        try:
            stats = fit_norm_stats(samples)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
    assert stats.wrench_mean.tobytes() == x.mean(axis=0).tobytes()
    assert stats.wrench_std.tobytes() == x.std(axis=0).tobytes()
    assert stats.grip_mean == y.mean() and stats.grip_std == y.std()


def test_fit_norm_stats_rejects_degenerate_channel_by_name():
    rec = make_record()
    rec.wrench[:, 2] = 4.2  # fz_N constant
    samples = extract_samples(rec)[:4]
    with pytest.raises(DataError, match="fz_N"):
        fit_norm_stats(samples)


def test_fit_norm_stats_rejects_constant_grip():
    rec = make_record(grip_giver=np.full(300, 3.0))
    samples = extract_samples(rec)[:4]
    with pytest.raises(DataError, match="grip_giver_N"):
        fit_norm_stats(samples)


def test_apply_norm_round_trip():
    rec = make_record()
    samples = extract_samples(rec)
    stats = fit_norm_stats(samples)
    s = samples[0]
    ns = apply_norm(s, stats)
    assert np.allclose(denormalize_grip(ns.y, stats), s.y, atol=1e-12)
    # normalized training set has ~zero mean / unit variance per channel
    all_norm = [apply_norm(t, stats) for t in samples]
    xs = np.concatenate([t.x for t in all_norm], axis=0)
    assert np.max(np.abs(xs.mean(axis=0))) < 1e-12
    assert np.allclose(xs.std(axis=0), 1.0, atol=1e-12)


def test_normalize_grip_inverse_property():
    stats = NormStats(
        wrench_mean=np.zeros(6), wrench_std=np.ones(6), grip_mean=5.0, grip_std=2.0
    )
    y = np.array([1.0, 5.0, 9.0])
    assert np.allclose(denormalize_grip(normalize_grip(y, stats), stats), y)
    assert np.array_equal(normalize_grip(y, stats), np.array([-2.0, 0.0, 2.0]))


# ---------------------------------------------------------------------------
# windows as read-only views of their record


@pytest.fixture(scope="module")
def reference_split():
    """The reference dataset (seed 7, 13 pairs x 10 handovers) split as
    train does: (train records, test records)."""
    return split_by_pair(generate_dataset(13, 10, 7), {"12", "13"})


def _windows(records):
    return [s for r in records for s in extract_samples(r)]


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _z_scored_as_before(normalized, sample, stats):
    return (_same_bits(normalized.x, normalize_wrench(sample.x, stats))
            and _same_bits(normalized.y, normalize_grip(sample.y, stats)))


def test_apply_norm_equals_per_window_normalization(reference_split):
    train_recs, test_recs = reference_split
    raw = _windows(train_recs) + _windows(test_recs)
    stats = fit_norm_stats(_windows(train_recs))
    other = NormStats(stats.wrench_mean + 1.0, stats.wrench_std * 2.0, 3.0, 0.5)
    # Alternating stats: a window is never read off another stats' z-scores.
    for s in raw:
        assert _z_scored_as_before(apply_norm(s, stats), s, stats)
        assert _z_scored_as_before(apply_norm(s, other), s, other)
    # Stats changed in place are new stats too.
    other.wrench_mean[2] += 0.25
    other.grip_std = 0.75
    assert all(_z_scored_as_before(apply_norm(s, other), s, other) for s in raw[:60])
    # Samples with no record behind them normalize their own x and y.
    hand_made = TrainingSample("1", "1", -260.0, 0.0,
                               np.linspace(-3.0, 3.0, 32 * 6).reshape(32, 6),
                               np.linspace(0.0, 9.0, HORIZON))
    edited = replace(raw[7], x=raw[7].x + 1.0, y=raw[7].y[::-1])
    twice = apply_norm(raw[3], stats)
    for s in (hand_made, edited, twice):
        assert _z_scored_as_before(apply_norm(s, stats), s, stats)
    assert edited.family == raw[7].family


def test_windows_of_a_record_share_memory():
    rec = make_record()
    raw = extract_samples(rec)
    stats = fit_norm_stats(raw)
    first, last = apply_norm(raw[0], stats), apply_norm(raw[-1], stats)
    assert np.shares_memory(raw[0].x, rec.wrench) and np.shares_memory(raw[0].y, rec.grip_giver)
    assert np.shares_memory(first.x, last.x) and np.shares_memory(first.y, last.y)
    assert not np.shares_memory(first.x, rec.wrench)


def test_windows_refuse_writes():
    rec = make_record()
    wrench, grip = rec.wrench.copy(), rec.grip_giver.copy()
    raw = extract_samples(rec)
    normalized = apply_norm(raw[0], fit_norm_stats(raw))
    for s in (raw[0], normalized):
        with pytest.raises(ValueError, match="read-only"):
            s.x[0, 0] = 1e6
        with pytest.raises(ValueError, match="read-only"):
            s.y[:] = 1e6
    assert np.array_equal(rec.wrench, wrench) and np.array_equal(rec.grip_giver, grip)
    assert np.array_equal(apply_norm(raw[0], fit_norm_stats(raw)).x, normalized.x)


def test_normalized_reference_windows_hold_under_8_mb(reference_split):
    # 3,900 windows from 130 records. A z-scored copy per window held 18 MB;
    # one z-scored block per record, which the windows view, holds about 3.
    train_recs, test_recs = reference_split
    gc.collect()
    tracemalloc.start()
    try:
        train_raw, test_raw = _windows(train_recs), _windows(test_recs)
        stats = fit_norm_stats(train_raw)
        train_n = [apply_norm(s, stats) for s in train_raw]
        test_n = [apply_norm(s, stats) for s in test_raw]
        del train_raw, test_raw
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(train_n) + len(test_n) == 3_900
    assert held < 8_000_000, held
