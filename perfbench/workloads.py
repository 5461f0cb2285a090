"""The benchmark's workloads: train_ref, stream_260 and stream_1250.

Each workload generates its inputs from the seed, calls the same public
functions the CLI subcommands call, times those calls from outside, and
checks the outputs after the timed regions. `run_workload` returns the
end-to-end metrics of the timed run, or, with a Tracer, the per-layer
metrics of the traced run.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gripforecast import cli, dataset, model, numerics, optim, synthgen

from loadgen import Feed, Sink
from spans import NullTracer, Target, Tracer, self_seconds
from stats import median, min_samples, nearest_rank, percentile, tail

clock = time.perf_counter

# The reference dataset: 13 pairs x 10 handovers, pairs 12 and 13 held out.
N_PAIRS = 13
PER_PAIR = 10
TEST_PAIRS = {"12", "13"}

TRAIN_EPOCHS = 1  # per round
MIN_ROUNDS = 3
EVAL_PASSES = 3  # per round

STREAM_WINDOWS_MS = {"stream_260": 260.0, "stream_1250": 1250.0}
STREAM_CKPT_HANDOVERS = 10  # training handovers behind the stream checkpoint
REPLAY_CALLS = 10  # separate cmd_stream calls in the replay phase
REPLAY_SHARE = 0.6  # of --seconds, split over the replay calls
LIVE_SHARE = 0.3  # of --seconds, scheduled at 120 Hz (at least 1000 ticks)
CHECKED_PER_CALL = 10  # forecasts per call recomputed with predict_grip

# Gated times are the 90th percentile over many short units of work (set-ups,
# training rounds, evaluate passes, replay ticks). On a shared host whose
# speed switches between levels within seconds, the median flips between the
# levels from run to run; the 90th percentile stays in the slower, usual one.
GATE_Q = 0.9

FORECAST_FIELDS = 1 + dataset.HORIZON
TICK_HEADER = ",".join(cli.WRENCH_CSV_HEADER)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    report: list[tuple[str, float, str]] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Tracing targets


def make_tracer() -> Tracer:
    """A Tracer over the public functions each layer exposes.

    Request ids: "epoch.batch" while training ("epoch.test" for the test-loss
    pass after each epoch), the tick index while streaming (set by the feeder).
    """
    tracer = Tracer([])
    position = {"epoch": 0, "batch": 0}

    def new_epoch(args) -> None:
        position["epoch"] += 1
        position["batch"] = 0
        tracer.request = f"{position['epoch']}.0"

    def new_batch(args) -> None:
        position["batch"] += 1
        tracer.request = f"{position['epoch']}.{position['batch']}"

    def forward(args) -> None:
        if tracer.current is not None and tracer.current.name == "optim.train":
            tracer.request = f"{position['epoch']}.test"

    def batch_shape(args) -> tuple[int, int]:
        return args[0].shape[0], args[0].shape[1]

    def window_shape(args) -> tuple[int, int]:
        return len(args[0]), 1

    tracer.targets = [
        Target(synthgen, "generate_dataset", "synthgen.generate_dataset"),
        Target(dataset, "load_recordings", "dataset.load_recordings"),
        Target(dataset, "align_handover", "dataset.align_handover"),
        Target(dataset, "extract_samples", "dataset.extract_samples"),
        Target(dataset, "fit_norm_stats", "dataset.fit_norm_stats"),
        Target(dataset, "apply_norm", "dataset.apply_norm"),
        Target(model, "init_params", "model.init_params"),
        Target(model, "forward_batch", "model.forward_batch", batch_shape, forward),
        Target(model, "backward_batch", "model.backward_batch", batch_shape, new_batch),
        Target(model, "predict_grip", "model.predict_grip", window_shape),
        Target(optim, "train", "optim.train"),
        Target(optim, "evaluate", "optim.evaluate"),
        Target(optim, "adam_step", "optim.adam_step"),
        Target(optim, "batch_indices", "optim.batch_indices", before=new_epoch),
        Target(numerics.Rng, "uniform_matrix", "numerics.Rng.uniform_matrix"),
        Target(numerics.Rng, "permutation", "numerics.Rng.permutation"),
        Target(cli, "load_checkpoint", "cli.load_checkpoint"),
        Target(cli, "save_checkpoint", "cli.save_checkpoint"),
        Target(cli, "cmd_stream", "cli.cmd_stream"),
    ]
    return tracer


def layer_metrics(spans, counts: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of a traced run: span totals plus the workload's counts.

    Times are totals over the run. A layer the workload never calls reads 0.
    """
    self_s = self_seconds(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def pick(name: str, parent: str | None = None) -> list[int]:
        idx = by_name.get(name, [])
        if parent is None:
            return idx
        return [i for i in idx if spans[i].parent is not None
                and spans[spans[i].parent].name == parent]

    def seconds(idx: list[int]) -> float:
        return sum(spans[i].seconds for i in idx)

    def sample_steps(idx: list[int]) -> int:
        return sum(spans[i].shape[0] * spans[i].shape[1] for i in idx)

    out: dict[str, float] = {}
    for layer_fn in ("load_recordings", "align_handover", "extract_samples",
                     "fit_norm_stats", "apply_norm"):
        out[f"dataset.{layer_fn}.s"] = seconds(pick(f"dataset.{layer_fn}"))

    def model_batch(prefix: str, idx: list[int]) -> None:
        steps = sample_steps(idx)
        out[f"{prefix}.calls"] = len(idx)
        out[f"{prefix}.s"] = seconds(idx)
        out[f"{prefix}.us_per_sample_step"] = seconds(idx) * 1e6 / steps if steps else 0.0

    model_batch("model.backward_batch", pick("model.backward_batch"))
    model_batch("model.forward_batch.in_train", pick("model.forward_batch", "optim.train"))
    model_batch("model.forward_batch.in_evaluate",
                pick("model.forward_batch", "optim.evaluate"))
    forwards = pick("model.forward_batch")
    out["model.recurrent_steps"] = sum(spans[i].shape[0] for i in forwards)
    out["model.sample_steps"] = sample_steps(forwards)
    predicts = [spans[i].seconds * 1e3 for i in pick("model.predict_grip")]
    out["model.predict_grip.calls"] = len(predicts)
    out["model.predict_grip.p50_ms"] = percentile(predicts, 0.5)[0] if predicts else 0.0
    out["model.predict_grip.p99_ms"] = percentile(predicts, 0.99)[0] if predicts else 0.0
    out["model.init_params.s"] = seconds(pick("model.init_params"))

    adam = pick("optim.adam_step")
    out["optim.adam_step.calls"] = len(adam)
    out["optim.adam_step.s"] = seconds(adam)
    out["optim.batch_indices.s"] = seconds(pick("optim.batch_indices"))
    out["optim.train.self_s"] = sum(self_s[i] for i in pick("optim.train"))
    out["optim.evaluate.self_s"] = sum(self_s[i] for i in pick("optim.evaluate"))
    out["numerics.Rng.uniform_matrix.s"] = seconds(pick("numerics.Rng.uniform_matrix"))
    out["numerics.Rng.permutation.s"] = seconds(pick("numerics.Rng.permutation"))
    out["cli.load_checkpoint.s"] = seconds(pick("cli.load_checkpoint"))
    out["cli.save_checkpoint.s"] = seconds(pick("cli.save_checkpoint"))
    stream_self = sum(self_s[i] for i in pick("cli.cmd_stream"))
    ticks = counts.get("cli.ticks_read", 0)
    out["cli.stream.self_ms_per_tick"] = stream_self * 1e3 / ticks if ticks else 0.0
    out["synthgen.generate_dataset.s"] = seconds(pick("synthgen.generate_dataset"))
    for name in ("dataset.rows_parsed", "dataset.samples_extracted", "cli.checkpoint_bytes",
                 "cli.ticks_read", "cli.forecasts_written", "cli.malformed_skipped",
                 "synthgen.records", "loadgen.late_ms_p99", "loadgen.backlog_max_ticks",
                 "loadgen.due_latency_p50_ms", "loadgen.due_latency_p99_ms",
                 "loadgen.service_latency_p99_ms",
                 "optim.evaluate.samples_per_s", "optim.evaluate.mse_norm",
                 "trace.overhead_share"):
        out[name] = counts.get(name, 0)
    return out


# ---------------------------------------------------------------------------
# train_ref


def _prepare(csv_path: Path, counts: dict[str, float]):
    """cmd_train's data path: CSV -> aligned -> split -> windows -> z-scored."""
    loaded = dataset.load_recordings(str(csv_path))
    records = [dataset.align_handover(r) for r in loaded]
    train_recs, test_recs = dataset.split_by_pair(records, TEST_PAIRS)
    policy = dataset.SamplingPolicy()
    train_raw = [s for r in train_recs for s in dataset.extract_samples(r, policy)]
    test_raw = [s for r in test_recs for s in dataset.extract_samples(r, policy)]
    norm = dataset.fit_norm_stats(train_raw)
    train_n = [dataset.apply_norm(s, norm) for s in train_raw]
    test_n = [dataset.apply_norm(s, norm) for s in test_raw]
    counts["dataset.rows_parsed"] = counts.get("dataset.rows_parsed", 0) + sum(
        len(r) for r in loaded)
    counts["dataset.samples_extracted"] = counts.get("dataset.samples_extracted", 0) + len(
        train_raw) + len(test_raw)
    return train_n, test_n, test_raw, norm


def _batches_per_epoch(samples, batch_size: int) -> int:
    lengths: dict[int, int] = {}
    for s in samples:
        lengths[len(s.x)] = lengths.get(len(s.x), 0) + 1
    return sum(math.ceil(n / batch_size) for n in lengths.values())


def _timed_evaluate(params, test_raw) -> tuple[float, float]:
    """cmd_eval's core call: (wall seconds, mse_norm)."""
    t0 = clock()
    metrics = optim.evaluate(params, test_raw)
    return clock() - t0, metrics.mse_norm


@dataclass
class Round:
    """One pass through cmd_train's and cmd_eval's call chains."""

    setup_s: float
    train_s: float
    eval_s: list[float]
    untraced_eval_s: list[float]
    mses: list[float]
    history: optim.LossHistory
    params: model.ModelParams
    loaded: model.ModelParams


def _train_eval_round(csv_path: Path, ckpt: Path, cfg: optim.TrainConfig, tracer,
                      counts: dict[str, float], k: int) -> tuple[Round, list, list]:
    with tracer.installed():
        t0 = clock()
        train_n, test_n, test_raw, norm = _prepare(csv_path, counts)
        t1 = clock()
        params, history = optim.train(train_n, test_n, cfg, norm)
        cli.save_checkpoint(ckpt, params, cfg)
        t2 = clock()
        loaded, _ = cli.load_checkpoint(ckpt)
    # The traced run alternates untraced and traced passes, so that
    # machine-speed drift hits both sides of the overhead estimate alike.
    untraced, eval_s, mses = [], [], []
    for p in range(EVAL_PASSES):
        if tracer.enabled:
            untraced.append(_timed_evaluate(loaded, test_raw)[0])
        with tracer.installed():
            tracer.request = f"evaluate.{k}.{p}"
            seconds_taken, mse = _timed_evaluate(loaded, test_raw)
        eval_s.append(seconds_taken)
        mses.append(mse)
    done = Round(t1 - t0, t2 - t1, eval_s, untraced, mses, history, params, loaded)
    return done, train_n, test_raw


def train_ref(seed: int, seconds: float, tracer, work: Path) -> Outcome:
    out = Outcome()
    counts: dict[str, float] = {}
    with tracer.installed():
        records = synthgen.generate_dataset(N_PAIRS, PER_PAIR, seed)
    counts["synthgen.records"] = len(records)
    csv_path = work / "recordings.csv"
    dataset.save_recordings(records, str(csv_path))

    # Whole rounds until the run's time is used: each round is set-up,
    # training, checkpoint round trip and evaluate passes, so every phase is
    # sampled across the run rather than in one stretch of it. The traced run
    # makes exactly MIN_ROUNDS, so its counts repeat from run to run.
    cfg = optim.TrainConfig(epochs=TRAIN_EPOCHS)
    ckpt = work / "checkpoint.json"
    rounds: list[Round] = []
    start = clock()
    round_s = 0.0
    while len(rounds) < MIN_ROUNDS or (
            not tracer.enabled and clock() - start + round_s < seconds):
        t0 = clock()
        done, train_n, test_raw = _train_eval_round(csv_path, ckpt, cfg, tracer, counts,
                                                    len(rounds))
        rounds.append(done)
        round_s = clock() - t0
    counts["cli.checkpoint_bytes"] = ckpt.stat().st_size

    # Checks, outside every timed region.
    batches = _batches_per_epoch(train_n, cfg.batch_size) * TRAIN_EPOCHS
    first = rounds[0]
    for k, r in enumerate(rounds):
        out.attempted += batches + len(test_raw) * len(r.mses)
        for epoch, (tr, te) in enumerate(zip(r.history.train, r.history.test), start=1):
            if not (math.isfinite(tr) and math.isfinite(te)):
                out.fail(batches, f"round {k} epoch {epoch} loss is not finite: "
                                  f"train {tr}, test {te}")
        for p, mse in enumerate(r.mses):
            if not math.isclose(mse, r.history.test[-1], rel_tol=1e-12, abs_tol=0.0):
                out.fail(len(test_raw), f"round {k} evaluate pass {p} mse_norm {mse!r} != "
                                        f"last history.test {r.history.test[-1]!r}")
        if not _same_params(r.params, r.loaded):
            out.fail(batches, f"round {k}: save_checkpoint -> load_checkpoint did not give "
                              "bit-identical weights")
        if r.history != first.history or not _same_params(r.params, first.params):
            out.fail(batches, f"round {k} trained differently from round 0 on the same inputs")

    setup_s = nearest_rank([r.setup_s for r in rounds], GATE_Q)
    samples = TRAIN_EPOCHS * len(train_n)
    train_s = [r.train_s for r in rounds]
    eval_ms = [s * 1e3 for r in rounds for s in r.eval_s]
    eval_p50, eval_p90 = median(eval_ms), nearest_rank(eval_ms, GATE_Q)
    out.metrics = {
        "setup_s": setup_s,
        "throughput_per_s": samples / nearest_rank(train_s, GATE_Q),
        "latency_p90_ms": eval_p90,
        "peak_rss_mb": peak_rss_mb(),
    }
    out.report = [
        ("setup_s", setup_s, f"s (p90 of {len(rounds)} CSV -> normalized samples)"),
        ("setup_p50_s", median([r.setup_s for r in rounds]), f"s (n={len(rounds)})"),
        ("train_samples_per_s_p50", samples / median(train_s),
         f"1/s (median of {len(rounds)} rounds of {TRAIN_EPOCHS} epoch x {len(train_n)} "
         "samples, train + save_checkpoint)"),
        ("train_samples_per_s_p90", out.metrics["throughput_per_s"],
         f"1/s (round at the 90th percentile of time, n={len(rounds)})"),
        ("eval_samples_per_s", len(test_raw) * 1e3 / eval_p50,
         f"1/s (median evaluate pass over {len(test_raw)} samples)"),
        ("eval_pass_p50_ms", eval_p50, f"ms (n={len(eval_ms)} evaluate passes)"),
        ("eval_pass_p90_ms", eval_p90, f"ms (n={len(eval_ms)})"),
        ("test_mse_norm", first.mses[0], "1 (normalized units)"),
        ("peak_rss_mb", out.metrics["peak_rss_mb"], "MB"),
    ]
    if tracer.enabled:
        untraced = [s for r in rounds for s in r.untraced_eval_s]
        traced = [s for r in rounds for s in r.eval_s]
        counts["optim.evaluate.samples_per_s"] = len(test_raw) / median(untraced)
        counts["optim.evaluate.mse_norm"] = first.mses[0]
        counts["trace.overhead_share"] = median(traced) / median(untraced) - 1.0
        out.metrics = layer_metrics(tracer.spans, counts)
    return out


def _same_params(a: model.ModelParams, b: model.ModelParams) -> bool:
    arrays = [(x, y) for (_, x), (_, y) in zip(model.named_arrays(a), model.named_arrays(b))]
    arrays += [(a.norm.wrench_mean, b.norm.wrench_mean), (a.norm.wrench_std, b.norm.wrench_std)]
    return (all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in arrays)
            and a.norm.grip_mean == b.norm.grip_mean and a.norm.grip_std == b.norm.grip_std)


# ---------------------------------------------------------------------------
# stream_260 / stream_1250


@dataclass
class StreamCall:
    feed: Feed
    sink: Sink
    called: float
    returned: float
    malformed: int

    @property
    def setup_s(self) -> float:
        return self.feed.first_read - self.called

    @property
    def measured_s(self) -> float:
        return self.returned - self.feed.start


def _stream_checkpoint(records, path: Path) -> None:
    """A short training run on a few training handovers (never timed)."""
    aligned = [dataset.align_handover(r) for r in records]
    train_recs, _ = dataset.split_by_pair(aligned, TEST_PAIRS)
    policy = dataset.SamplingPolicy()
    raw = [s for r in train_recs[:STREAM_CKPT_HANDOVERS]
           for s in dataset.extract_samples(r, policy)]
    norm = dataset.fit_norm_stats(raw)
    cfg = optim.TrainConfig(epochs=1)
    params, _ = optim.train([dataset.apply_norm(s, norm) for s in raw], [], cfg, norm)
    cli.save_checkpoint(path, params, cfg)


def _ticks(records) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Held-out pairs' wrench, concatenated and re-stamped at 120 Hz."""
    wrench = np.concatenate([r.wrench for r in records if r.pair_id in TEST_PAIRS])
    times = np.arange(len(wrench)) * dataset.PERIOD_MS
    lines = [",".join(repr(float(v)) for v in (t, *row)) for t, row in zip(times, wrench)]
    return times, wrench, lines


def _call_stream(model_path: Path, window_ms: float, feed: Feed) -> StreamCall:
    args = cli.build_parser().parse_args(
        ["stream", "--model", str(model_path), "--window-ms", repr(window_ms)])
    sink = Sink(clock)
    args.stdin = feed
    args.stdout = sink
    stderr = io.StringIO()
    called = clock()
    with contextlib.redirect_stderr(stderr):
        code = cli.cmd_stream(args)
    returned = clock()
    if code != cli.EXIT_OK:
        raise RuntimeError(f"cmd_stream returned exit code {code}")
    malformed = stderr.getvalue().count("malformed tick")
    return StreamCall(feed, sink, called, returned, malformed)


def _check_stream(call: StreamCall, times, wrench, n_window: int, params,
                  rng: random.Random, out: Outcome, label: str) -> int:
    """Checks one call's forecasts; returns the number of forecast ticks attempted."""
    expected = call.feed.fed - n_window + 1
    got = len(call.sink.lines)
    bad: set[int] = set()
    rows = []
    for k, text in enumerate(call.sink.lines):
        fields = text.rstrip("\n").split(",")
        try:
            values = np.array([float(f) for f in fields])
        except ValueError:
            values = np.array([])
        if (len(values) != FORECAST_FIELDS or not np.all(np.isfinite(values))
                or values[0] != times[n_window - 1 + k]):
            bad.add(k)
        rows.append(values)
    for k in rng.sample(range(got), min(CHECKED_PER_CALL, got)):
        if k in bad:
            continue
        end = n_window + k
        if not np.array_equal(rows[k][1:], model.predict_grip(wrench[end - n_window:end], params)):
            bad.add(k)
    if got != expected:
        out.fail(abs(expected - got), f"{label}: {got} forecasts for {expected} full windows")
    if bad:
        out.fail(len(bad), f"{label}: {len(bad)} forecast lines malformed or differ "
                           "from predict_grip on the same window")
    return expected


def stream(name: str, seed: int, seconds: float, tracer, work: Path) -> Outcome:
    out = Outcome()
    counts: dict[str, float] = {}
    window_ms = STREAM_WINDOWS_MS[name]
    n_window = dataset.ms_to_steps(window_ms) + 1
    with tracer.installed():
        records = synthgen.generate_dataset(N_PAIRS, PER_PAIR, seed)
    counts["synthgen.records"] = len(records)
    model_path = work / "checkpoint.json"
    _stream_checkpoint(records, model_path)
    times, wrench, lines = _ticks(records)
    with open(work / "ticks.csv", "w", encoding="utf-8") as fh:
        fh.write(TICK_HEADER + "\n" + "\n".join(lines) + "\n")

    # The traced run makes an untraced call beside each traced one, so each
    # gets half the time and the run stays as long as the timed one.
    replay_s = REPLAY_SHARE * seconds / REPLAY_CALLS / (2 if tracer.enabled else 1)
    n_live = max(min_samples(0.99), round(LIVE_SHARE * seconds * dataset.RATE_HZ))
    trace_feed = tracer if tracer.enabled else None

    def replay_call(feed_tracer) -> StreamCall:
        return _call_stream(model_path, window_ms,
                            Feed(TICK_HEADER, lines, n_window - 1, seconds=replay_s,
                                 tracer=feed_tracer, clock=clock))

    def rate(calls: list[StreamCall]) -> float:
        return sum(len(c.sink.times) for c in calls) / sum(c.measured_s for c in calls)

    # Checks run between calls, outside every timed region. A call's forecast
    # text is dropped once checked, so peak memory does not grow with the
    # number of forecasts a run happens to make.
    params, _ = cli.load_checkpoint(model_path)
    rng = random.Random(seed)

    def checked(call: StreamCall, label: str | None) -> StreamCall:
        if label is not None:
            out.attempted += _check_stream(call, times, wrench, n_window, params, rng, out,
                                           label)
            if call.malformed:
                out.fail(call.malformed, f"{label}: {call.malformed} ticks reported malformed")
        call.sink.lines.clear()
        return call

    # The traced run alternates untraced and traced replay calls, so that
    # machine-speed drift hits both sides of the overhead estimate alike.
    untraced, replays = [], []
    for k in range(REPLAY_CALLS):
        if tracer.enabled:
            untraced.append(checked(replay_call(None), None))
        with tracer.installed():
            call = replay_call(trace_feed)
        replays.append(checked(call, f"replay call {k}"))
    with tracer.installed():
        live = _call_stream(model_path, window_ms,
                            Feed(TICK_HEADER, lines, n_window - 1, count=n_live,
                                 schedule_period_s=dataset.PERIOD_MS / 1e3,
                                 tracer=trace_feed, clock=clock))
    checked(live, "live call")
    calls = replays + [live]

    # Due-time latency counts the backlog; service latency (hand-over to
    # forecast line) is the part the program spends on each tick.
    schedule = live.feed.schedule
    due_ms = [(t - schedule.due(k)) * 1e3 for k, t in enumerate(live.sink.times)]
    due_p50, n = percentile(due_ms, 0.5)
    live_q, due_p99, _ = tail(due_ms)
    service_ms = [(t - r) * 1e3 for t, r in zip(live.sink.times, live.feed.released)]
    p50, _ = percentile(service_ms, 0.5)
    _, p99, _ = tail(service_ms)
    # Replay latency: each tick from hand-over to its forecast line, with the
    # program never idle, so it is the per-tick cost the 8.33 ms period bounds.
    replay_ms = [(t - r) * 1e3 for c in replays
                 for t, r in zip(c.sink.times, c.feed.released)]
    replay_p50, n_replay = percentile(replay_ms, 0.5)
    replay_p90, _ = percentile(replay_ms, GATE_Q)
    replay_q, replay_tail, _ = tail(replay_ms)
    cycle_s = [b - a for c in replays for a, b in zip(c.sink.times, c.sink.times[1:])]
    setup = nearest_rank([c.setup_s for c in calls], GATE_Q)
    replay_rate = rate(replays)
    out.metrics = {
        "setup_s": setup,
        "throughput_per_s": 1.0 / nearest_rank(cycle_s, GATE_Q),
        "latency_p90_ms": replay_p90,
        "peak_rss_mb": peak_rss_mb(),
    }
    out.report = [
        ("setup_s", setup, f"s (p90 of {len(calls)} cmd_stream calls, call -> first read)"),
        ("setup_p50_s", median([c.setup_s for c in calls]), f"s (n={len(calls)})"),
        ("replay_ticks_per_s", replay_rate,
         f"1/s ({sum(len(c.sink.times) for c in replays)} forecasts, "
         f"{REPLAY_CALLS} closed-loop calls, window {n_window} ticks)"),
        ("replay_ticks_per_s_p90", out.metrics["throughput_per_s"],
         f"1/s (1 / p90 interval between forecast lines, n={len(cycle_s)})"),
        ("replay_latency_p50_ms", replay_p50,
         f"ms (n={n_replay} ticks, hand-over to forecast line)"),
        ("replay_latency_p90_ms", replay_p90, f"ms (n={n_replay})"),
        (f"replay_latency_p{replay_q * 100:g}_ms", replay_tail, f"ms (n={n_replay})"),
        ("live_latency_p50_ms", due_p50, f"ms (n={n} forecasts at 120 Hz, from due time)"),
        (f"live_latency_p{live_q * 100:g}_ms", due_p99, f"ms (n={n})"),
        ("live_service_p50_ms", p50, f"ms (n={n}, from hand-over to forecast line)"),
        (f"live_service_p{live_q * 100:g}_ms", p99, f"ms (n={n})"),
        ("live_backlog_max_ticks", schedule.backlog_max, "count"),
        ("peak_rss_mb", out.metrics["peak_rss_mb"], "MB"),
    ]
    if tracer.enabled:
        late = [x * 1e3 for x in schedule.late_s]
        counts["loadgen.late_ms_p99"] = (
            percentile(late, 0.99)[0] if len(late) >= min_samples(0.99) else max(late, default=0.0))
        counts["loadgen.backlog_max_ticks"] = schedule.backlog_max
        counts["loadgen.due_latency_p50_ms"] = due_p50
        counts["loadgen.due_latency_p99_ms"] = due_p99
        counts["loadgen.service_latency_p99_ms"] = p99
        counts["cli.ticks_read"] = sum(c.feed.fed for c in calls)
        counts["cli.forecasts_written"] = sum(len(c.sink.times) for c in calls)
        counts["cli.malformed_skipped"] = sum(c.malformed for c in calls)
        counts["trace.overhead_share"] = rate(untraced) / replay_rate - 1.0
        out.metrics = layer_metrics(tracer.spans, counts)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    tracer = make_tracer() if trace else NullTracer()
    if name == "train_ref":
        out = train_ref(seed, seconds, tracer, work)
    else:
        out = stream(name, seed, seconds, tracer, work)
    if trace:
        tracer.dump(work / "spans.jsonl")
    return out
