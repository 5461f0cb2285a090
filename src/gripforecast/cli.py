"""Command-line surface: synth, train, eval, predict, stream.

Owns every on-disk format (dataset CSV via the dataset module, checkpoint
JSON, loss-history CSV, metrics JSON, comparison CSV, forecast CSV) and the
line-delimited streaming protocol. `predict` and `stream` read the same
tick rows (WRENCH_CSV_HEADER: t_ms, then dataset.WRENCH_COLUMNS) through
one reader, `_read_ticks`. A forecast that is not finite is never written:
predict and eval exit 2, stream writes a note instead. Exit codes: 0 success,
1 usage error, 2 data error, 3 internal error (an invariant failure or any
other unexpected exception, reported on one stderr line without a traceback),
130 interrupted (Ctrl-C: one `interrupted` line on stderr, no traceback),
143 terminated (SIGTERM: handled as Ctrl-C, with one `terminated` line).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import signal
import sys
from array import array
from collections.abc import Iterable, Iterator
from pathlib import Path
from time import perf_counter as clock

import numpy as np

from . import model as m
from .dataset import (
    HORIZON,
    HandoverRecord,
    NormStats,
    PERIOD_MS,
    TrainingSample,
    WRENCH_COLUMNS,
    align_handover,
    apply_norm,
    extract_samples,
    fit_norm_stats,
    load_recordings,
    ms_to_steps,
    parse_number,
    save_recordings,
    spacing_off,
    split_by_pair,
)
from .errors import ContractViolation, DataError
from .optim import TrainConfig, evaluate, train
from .synthgen import generate_dataset

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a Ctrl-C
EXIT_TERMINATED = 143  # 128 + SIGTERM

CHECKPOINT_VERSION = 1

WRENCH_CSV_HEADER = ["t_ms", *WRENCH_COLUMNS]

STREAM_WINDOW_MS_MIN = 10.0
STREAM_WINDOW_MS_MAX = 1250.0


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors by default; this CLI reserves 2 for
    data errors, so usage problems are remapped to exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _any_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from exc


def _positive_int(text: str) -> int:
    value = _any_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _window_ms(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from exc
    if not (STREAM_WINDOW_MS_MIN <= value <= STREAM_WINDOW_MS_MAX):
        raise argparse.ArgumentTypeError(
            f"--window-ms must lie in [{STREAM_WINDOW_MS_MIN:g}, "
            f"{STREAM_WINDOW_MS_MAX:g}] ms, got {value:g}"
        )
    return value


def _fmt(value: float) -> str:
    return repr(float(value))


# ---------------------------------------------------------------------------
# Checkpoint (de)serialization


# The checkpoint header in file order, with this build's values. A checkpoint
# loads only if each field has exactly this JSON type and value, except
# `hidden`, which the model gives (None here) and must be an integer >= 1.
CHECKPOINT_HEADER = {"format_version": CHECKPOINT_VERSION, "gate_order": m.GATE_ORDER,
                     "hidden": None, "input_dim": m.INPUT_DIM, "horizon": HORIZON}
# The normalization stats under "norm", in file order, with their shapes.
CHECKPOINT_NORM = {"wrench_mean": (m.INPUT_DIM,), "wrench_std": (m.INPUT_DIM,),
                   "grip_mean": (), "grip_std": ()}


def save_checkpoint(path: str | Path, params: m.ModelParams, cfg: TrainConfig) -> None:
    """Self-describing JSON: the CHECKPOINT_HEADER fields, the weights as flat
    row-major lists next to their shapes, the CHECKPOINT_NORM stats, and the
    config echo.

    The JSON goes to a sibling temp file that then replaces `path`, so a
    write that fails or is interrupted leaves any old checkpoint as it was
    and no temp file behind."""
    if params.norm is None:
        raise ContractViolation("checkpoint requires normalization stats on the model")
    doc = {
        **CHECKPOINT_HEADER,
        "hidden": params.hidden,
        "weights": {name: {"shape": list(arr.shape), "data": arr.reshape(-1).tolist()}
                    for name, arr in m.named_arrays(params)},
        "norm": {key: np.asarray(getattr(params.norm, key), dtype=float).tolist()
                 for key in CHECKPOINT_NORM},
        "train_config": dataclasses.asdict(cfg),
    }
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:  # KeyboardInterrupt too
        tmp.unlink(missing_ok=True)
        raise


def _checkpoint_array(
    path: str | Path, what: str, value: object, shape: tuple[int, ...]
) -> np.ndarray:
    """A finite float array of exactly `shape` from a JSON number or a list of them."""
    if not set(map(type, value if type(value) is list else [value])) <= {int, float}:
        raise DataError(f"checkpoint {path}: {what} is not numeric")
    try:
        arr = np.asarray(value, dtype=float)
    except OverflowError as exc:  # an int beyond float
        raise DataError(f"checkpoint {path}: {what} is not numeric") from exc
    if arr.shape != shape:
        raise DataError(
            f"checkpoint {path}: {what} has shape {list(arr.shape)}, "
            f"expected {list(shape)}"
        )
    if not np.all(np.isfinite(arr)):
        raise DataError(f"checkpoint {path}: {what} contains non-finite values")
    return arr


def _read_json_object(path: str | Path, what: str) -> dict:
    """The JSON object in the file at `path`; DataError names `what` and the path.
    An object at any depth that names a key twice is refused."""

    def unique(pairs: list[tuple[str, object]]) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [k for k, _ in pairs]
            key = next(k for k in keys if keys.count(k) > 1)
            raise DataError(f"{what} {path} names key {key!r} twice")
        return obj

    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=unique)
    except DataError:
        raise
    except ValueError as exc:  # bad JSON, not UTF-8, or an int too long to parse
        raise DataError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{what} {path} must be a JSON object")
    return doc


def load_checkpoint(path: str | Path) -> tuple[m.ModelParams, dict]:
    """Validated load; returns the parameters and the raw document.

    Any malformed field raises DataError naming it, so a checkpoint that
    loads always yields finite weights and usable normalization stats.
    """
    doc = _read_json_object(path, "checkpoint")
    for key, want in CHECKPOINT_HEADER.items():
        value = doc.get(key)
        if want is None:  # hidden
            ok, rule = type(value) is int and value >= 1, "an integer >= 1"
        else:
            ok, rule = type(value) is type(want) and value == want, json.dumps(want)
        if not ok:
            raise DataError(f"checkpoint {path}: {key!r} must be {rule}, got {json.dumps(value)}")
    weights, norm = doc.get("weights"), doc.get("norm")
    for key, block in (("weights", weights), ("norm", norm)):
        if not isinstance(block, dict):
            raise DataError(f"checkpoint {path} has no {key!r} object")

    arrays = []
    for name, shape, _ in m.layout(doc["hidden"]):
        entry = weights.get(name)
        if not isinstance(entry, dict):
            raise DataError(f"checkpoint {path} is missing weight {name!r}")
        if entry.get("shape") != list(shape):
            raise DataError(
                f"checkpoint {path}: weight {name!r} declares shape "
                f"{entry.get('shape')!r}, expected {list(shape)}"
            )
        arrays.append(_checkpoint_array(path, f"weight {name!r}", entry.get("data"),
                                        (math.prod(shape),)))

    stats = {}
    for key, shape in CHECKPOINT_NORM.items():
        arr = _checkpoint_array(path, f"norm.{key}", norm.get(key), shape)
        if key.endswith("_std") and np.any(arr <= 0.0):
            raise DataError(f"checkpoint {path}: norm.{key} must be > 0")
        stats[key] = arr if shape else float(arr)
    return m.ModelParams(np.concatenate(arrays), doc["hidden"], NormStats(**stats)), doc


# ---------------------------------------------------------------------------
# Shared data plumbing


def _parse_test_pairs(text: str) -> set[str]:
    pairs = {part.strip() for part in text.split(",") if part.strip()}
    if not pairs:
        raise DataError("--test-pairs must name at least one pair id")
    return pairs


def _windows(records: list[HandoverRecord]) -> list[TrainingSample]:
    """Align each record and cut the default policy's windows, in record order."""
    return [s for rec in records for s in extract_samples(align_handover(rec))]


def _sample_id(sample: TrainingSample) -> str:
    return (
        f"{sample.pair_id}/{sample.handover_id}"
        f"/te{sample.t_e_ms:g}/to{sample.t_o_ms:g}"
    )


def _is_header(line: str) -> bool:
    return "".join(line.split()) == ",".join(WRENCH_CSV_HEADER)


def _parse_tick(line: str) -> tuple[float, list[float]]:
    """One tick row as (t_ms, wrench); DataError says what is wrong with it."""
    cells = line.split(",")
    if len(cells) != len(WRENCH_CSV_HEADER):
        raise DataError(f"expected {len(WRENCH_CSV_HEADER)} fields, got {len(cells)}")
    try:
        values = [parse_number(c) for c in cells]
    except ValueError as exc:
        raise DataError(str(exc)) from None
    return values[0], values[1:]


def _text_lines(fh: Iterable[bytes], source: str) -> Iterator[str]:
    """Each LF-ended line of `fh` as it arrives, decoded on its own (BOM dropped on line 1)."""
    for lineno, raw in enumerate(fh, start=1):
        try:
            yield raw.decode("utf-8-sig" if lineno == 1 else "utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{source}: line {lineno} is not UTF-8 ({exc.reason})") from None


def _read_ticks(
    lines: Iterable[str], source: str, strict: bool
) -> Iterator[tuple[float, list[float], bool]]:
    """The one tick reader: yields (t_ms, wrench, restart) per tick, lazily.

    Blank lines and a header on line 1 are skipped. A timestamp that does
    not increase is a DataError. With `strict` (predict), so is a line 1
    that is not the header (or no line at all), a malformed line or a
    spacing more than 1% off the 120 Hz period (dataset.spacing_off), named
    by line. Otherwise (stream) a malformed line is skipped with one
    `malformed tick` note on stderr, and an off spacing gets its own note and
    yields restart=True: the caller starts a new window at that tick.
    """
    no_header = f"{source}: line 1 must be the header {','.join(WRENCH_CSV_HEADER)!r}"
    last_t: float | None = None
    lineno = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if lineno == 1 and _is_header(line):
            continue
        if lineno == 1 and strict:
            raise DataError(no_header)
        if not line:
            continue
        try:
            t_ms, wrench = _parse_tick(line)
        except DataError as exc:
            if strict:
                raise DataError(f"{source}: line {lineno}: {exc}") from None
            print(f"{source}: line {lineno}: malformed tick ({exc}), skipped: {line!r}",
                  file=sys.stderr)
            continue
        if last_t is not None and t_ms <= last_t:
            raise DataError(f"{source}: line {lineno}: timestamp {t_ms:g} does not "
                            f"increase past {last_t:g}")
        restart = last_t is not None and spacing_off(t_ms - last_t)
        if restart:
            gap = (f"{source}: line {lineno}: spacing {t_ms - last_t:.4f} ms deviates "
                   f"more than 1% from {PERIOD_MS:.4f} ms (120 Hz)")
            if strict:
                raise DataError(gap)
            print(f"{gap}; the window restarts at this tick", file=sys.stderr)
        last_t = t_ms
        yield t_ms, wrench, restart
    if lineno == 0 and strict:
        raise DataError(no_header)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_synth(args: argparse.Namespace) -> int:
    records = generate_dataset(args.pairs, args.per_pair, args.seed)
    save_recordings(records, args.out)
    print(f"wrote {len(records)} handovers ({args.pairs} pairs) to {args.out}")
    return EXIT_OK


def _load_train_config(path: str | None) -> TrainConfig:
    cfg = TrainConfig()
    if path is None:
        return cfg
    doc = _read_json_object(path, "config")
    known = {f.name for f in dataclasses.fields(TrainConfig)}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise DataError(
            f"config {path} has unknown keys {unknown}; known keys: {sorted(known)}"
        )
    cfg = dataclasses.replace(cfg, **doc)
    try:
        cfg.validate()
    except ContractViolation as exc:
        raise DataError(f"config {path}: {exc}") from exc
    return cfg


def _check_out_dir(out: str) -> None:
    """Refuse an --out that cannot become a directory, before any work runs.

    The nearest existing path among --out and its ancestors must be a
    directory. Nothing is created here: the outputs' mkdir runs only once
    they are ready, so a failed run leaves no directory behind.
    """
    path = Path(out)
    existing = next(a for a in (path, *path.parents) if a.exists() or a.is_symlink())
    if not existing.is_dir():
        raise DataError(f"--out {out}: {existing} exists and is not a directory")


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _load_train_config(args.config)
    test_pairs = _parse_test_pairs(args.test_pairs)
    _check_out_dir(args.out)
    train_recs, test_recs = split_by_pair(load_recordings(args.data), test_pairs)
    if not train_recs:
        raise DataError("no pairs left for training after removing test pairs")
    train_raw = _windows(train_recs)
    test_raw = _windows(test_recs)
    for split, windows in (("training", train_raw), ("test", test_raw)):
        if not windows:
            raise DataError(f"{split} pairs produced no samples")
    norm = fit_norm_stats(train_raw)
    train_samples = [apply_norm(s, norm) for s in train_raw]
    test_samples = [apply_norm(s, norm) for s in test_raw]

    with np.errstate(over="ignore", invalid="ignore"):  # train() names a divergence itself
        params, history = train(train_samples, test_samples, cfg, norm)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out_dir / "checkpoint.json", params, cfg)
    with open(out_dir / "loss_history.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("epoch,train_mse,test_mse\n")
        for epoch, (tr, te) in enumerate(zip(history.train, history.test), start=1):
            fh.write(f"{epoch},{_fmt(tr)},{_fmt(te)}\n")
    print(
        f"trained {cfg.epochs} epochs on {len(train_samples)} samples "
        f"({len(test_samples)} test); final train mse {history.train[-1]:.6f}, "
        f"test mse {history.test[-1]:.6f}; wrote {out_dir / 'checkpoint.json'}"
    )
    return EXIT_OK


@np.errstate(all="ignore")  # an overflow shows as a non-finite forecast, checked below
def cmd_eval(args: argparse.Namespace) -> int:
    params, _ = load_checkpoint(args.model)
    test_pairs = _parse_test_pairs(args.test_pairs)
    _check_out_dir(args.out)
    _, test_recs = split_by_pair(load_recordings(args.data), test_pairs)
    test_raw = _windows(test_recs)
    if not test_raw:
        raise DataError("test pairs produced no samples")
    metrics = evaluate(params, test_raw)
    summary = {k: getattr(metrics, k) for k in ("mse_norm", "mse_N2", "final_step_mae_N")}
    # mse_N2 is finite only if every forecast is, so this checks them too.
    bad = [name for name, value in summary.items() if not math.isfinite(value)]
    if bad:
        raise DataError(f"checkpoint {args.model} gives a non-finite {', '.join(bad)} on "
                        "the test pairs; no file written")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "metrics.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump({**summary, "n_samples": metrics.n_samples}, fh, indent=2)
        fh.write("\n")
    with open(out_dir / "comparison.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("sample_id,step,t_ms,predicted_N,actual_N\n")
        for s, predicted in zip(test_raw, metrics.predicted_N):
            base = ms_to_steps(s.t_e_ms)
            sid = _sample_id(s)
            for step in range(HORIZON):
                t_ms = (base + 1 + step) * PERIOD_MS
                fh.write(
                    f"{sid},{step},{_fmt(t_ms)},"
                    f"{_fmt(predicted[step])},{_fmt(s.y[step])}\n"
                )
    print(
        f"evaluated {metrics.n_samples} samples: mse_norm {metrics.mse_norm:.6f}, "
        f"mse {metrics.mse_N2:.6f} N^2, final-step MAE {metrics.final_step_mae_N:.4f} N; "
        f"wrote {out_dir / 'metrics.json'}"
    )
    return EXIT_OK


@np.errstate(all="ignore")  # an overflow shows as a non-finite forecast, checked below
def cmd_predict(args: argparse.Namespace) -> int:
    params, _ = load_checkpoint(args.model)
    with open(args.input, "rb") as fh:
        ticks = list(_read_ticks(_text_lines(fh, str(args.input)), str(args.input), strict=True))
    if not ticks:
        raise DataError(f"{args.input} has a header but no ticks")
    forecast = m.predict_grip(np.asarray([wrench for _, wrench, _ in ticks]), params)
    if not np.isfinite(forecast).all():
        raise DataError(f"{args.input}: the forecast is not finite (overflow in the window "
                        f"or in checkpoint {args.model})")
    out_lines = ["t_ms,grip_N"]
    for step, value in enumerate(forecast, start=1):
        out_lines.append(f"{_fmt(ticks[-1][0] + step * PERIOD_MS)},{_fmt(value)}")
    text = "\n".join(out_lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return EXIT_OK


def _latency_note(service_s: array) -> str:
    """The stream's EOF note: forecasts written, and the service time (tick
    line read to forecast line written) at p50, p99 (nearest rank) and max."""
    ms = np.sort(np.frombuffer(service_s)) * 1e3
    p50, p99 = (ms[math.ceil(q * len(ms)) - 1] for q in (0.5, 0.99))
    over = len(ms) - np.searchsorted(ms, PERIOD_MS, side="right")
    return (f"stream: {len(ms)} forecasts, service time p50 {p50:.3f} ms, p99 {p99:.3f} ms, "
            f"max {ms[-1]:.3f} ms; {over} over the {PERIOD_MS:.2f} ms tick period")


@np.errstate(all="ignore")  # an overflow shows as a non-finite forecast, checked below
def cmd_stream(args: argparse.Namespace) -> int:
    """Sliding-window forecasting over line-delimited ticks on stdin.

    The window holds the last `round_half_up(window_ms * 0.12) + 1` ticks
    (260 ms -> 32). Once it fills, every subsequent tick (and the filling
    one) emits `t_ms,<70 grip values>` on stdout, or, if the forecast is not
    finite, one note on stderr instead. Ticks come through _read_ticks,
    which also says when a gap restarts the window. At the end of the input
    or on Ctrl-C or SIGTERM, one more stderr note gives the service times of
    the forecasts written, if any (_latency_note), kept as 8 bytes each.
    """
    params, _ = load_checkpoint(args.model)
    window = m.WindowStream(params, ms_to_steps(args.window_ms) + 1)
    stdin = args.stdin if args.stdin is not None else _text_lines(sys.stdin.buffer, "stream")
    stdout = args.stdout if args.stdout is not None else sys.stdout
    arrived = [0.0]  # when the last line read came in
    service_s = array("d")

    def stamped(lines: Iterable[str]) -> Iterator[str]:
        for line in lines:
            arrived[0] = clock()
            yield line

    def note() -> None:
        if service_s:
            print(_latency_note(service_s), file=sys.stderr)

    try:
        for t_ms, wrench, restart in _read_ticks(stamped(stdin), "stream", strict=False):
            if restart:
                window.restart()
            forecast = window.push(wrench)
            if forecast is None:
                continue
            if not np.isfinite(forecast).all():
                print(f"stream: tick at t_ms {_fmt(t_ms)}: the forecast is not finite, "
                      "no line written", file=sys.stderr)
                continue
            stdout.write(_fmt(t_ms) + "," + ",".join(map(repr, forecast.tolist())) + "\n")
            stdout.flush()
            service_s.append(clock() - arrived[0])
    except KeyboardInterrupt:  # a live stream ends by Ctrl-C or SIGTERM: note, then main's exit
        note()
        raise
    note()
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly


def build_parser() -> _Parser:
    parser = _Parser(
        prog="gripforecast",
        description=(
            "Grip-force forecasting for human-robot handovers: synthesize "
            "recordings, train the 2-layer LSTM forecaster, evaluate, and "
            "serve forecasts from recorded or streaming wrench input."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("synth", help="generate a synthetic handover dataset CSV")
    p.add_argument("--pairs", type=_positive_int, required=True)
    p.add_argument("--per-pair", type=_positive_int, required=True)
    p.add_argument("--seed", type=_any_int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the forecaster on a recordings CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--test-pairs", required=True,
                   help="comma-separated pair ids held out of training")
    p.add_argument("--config", default=None,
                   help="JSON file overriding training-config defaults")
    p.add_argument("--out", required=True,
                   help="output directory (checkpoint.json, loss_history.csv)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on held-out pairs")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--test-pairs", required=True)
    p.add_argument("--out", required=True,
                   help="output directory (metrics.json, comparison.csv)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="forecast 70 steps from one wrench window CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True,
                   help="CSV with columns " + ",".join(WRENCH_CSV_HEADER))
    p.add_argument("--out", default=None, help="output CSV (default: stdout)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("stream", help="stream forecasts from wrench ticks on stdin")
    p.add_argument("--model", required=True)
    p.add_argument("--window-ms", type=_window_ms, default=260.0)
    p.set_defaults(func=cmd_stream, stdin=None, stdout=None)

    return parser


class _Terminated(KeyboardInterrupt):
    """SIGTERM, raised as Ctrl-C's KeyboardInterrupt is, so commands stop alike."""


def _terminate(signum: int, frame: object) -> None:
    raise _Terminated


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except BrokenPipeError:
        # The reader closed our stdout (`stream ... | head -1`): that ends the
        # run, not an error. Point stdout at devnull, as the Python docs
        # advise, so the flush at exit raises no second BrokenPipeError.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
    except OSError as exc:  # missing or unreadable file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except _Terminated:
        print("terminated", file=sys.stderr)
        return EXIT_TERMINATED
    except KeyboardInterrupt:  # Ctrl-C: one line, not a traceback
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except Exception as exc:  # a bug, not bad input: report it without a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        signal.signal(signal.SIGTERM, previous)
