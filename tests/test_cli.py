"""End-to-end tests of the command-line surface and its file formats."""

import errno
import io
import json
import os
import subprocess
import sys
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from gripforecast import cli
from gripforecast import model as m
from gripforecast.dataset import PERIOD_MS, align_handover, load_recordings
from gripforecast.optim import TrainConfig

SMALL_CFG = {"epochs": 2, "hidden": 6, "batch_size": 16, "seed": 5}


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """One small synth+train pipeline shared by the read-only tests below."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.csv"
    rc = cli.main(
        ["synth", "--pairs", "3", "--per-pair", "2", "--seed", "5", "--out", str(data)]
    )
    assert rc == 0
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL_CFG))
    out = root / "run"
    rc = cli.main(
        [
            "train",
            "--data", str(data),
            "--test-pairs", "3",
            "--config", str(cfg_path),
            "--out", str(out),
        ]
    )
    assert rc == 0
    return SimpleNamespace(
        root=root,
        data=data,
        cfg_path=cfg_path,
        out=out,
        ckpt=out / "checkpoint.json",
        loss=out / "loss_history.csv",
    )


# ---------------------------------------------------------------------------
# synth


def test_synth_counts_and_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["synth", "--pairs", "2", "--per-pair", "3", "--seed", "9"]
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    recs = load_recordings(a)
    assert len(recs) == 6
    assert {r.pair_id for r in recs} == {"1", "2"}


def test_synth_rejects_zero_pairs(tmp_path, capsys):
    rc = cli.main(["synth", "--pairs", "0", "--per-pair", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == cli.EXIT_USAGE
    assert "positive" in capsys.readouterr().err


def test_missing_required_flag_is_usage_error():
    assert cli.main(["synth", "--pairs", "2"]) == cli.EXIT_USAGE


def test_unknown_command_is_usage_error():
    assert cli.main(["frobnicate"]) == cli.EXIT_USAGE


# ---------------------------------------------------------------------------
# train


def test_train_writes_checkpoint_and_history(run):
    assert run.ckpt.exists() and run.loss.exists()
    lines = run.loss.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_mse,test_mse"
    assert len(lines) == 1 + SMALL_CFG["epochs"]
    first = lines[1].split(",")
    assert first[0] == "1"
    float(first[1]), float(first[2])  # parse cleanly


def test_checkpoint_shape_and_echo(run):
    doc = json.loads(run.ckpt.read_text())
    assert doc["format_version"] == cli.CHECKPOINT_VERSION
    assert doc["gate_order"] == "ifgo"
    assert doc["horizon"] == 70
    assert doc["hidden"] == SMALL_CFG["hidden"]
    # config echo mirrors TrainConfig's fields exactly
    assert set(doc["train_config"]) == {f.name for f in fields(TrainConfig)}
    for key, value in SMALL_CFG.items():
        assert doc["train_config"][key] == value
    assert doc["train_config"]["learning_rate"] == 5e-4
    # declared shapes match data lengths
    for name, entry in doc["weights"].items():
        assert len(entry["data"]) == int(np.prod(entry["shape"])), name


def test_checkpoint_round_trip_bit_exact(run, tmp_path):
    params, _ = cli.load_checkpoint(run.ckpt)
    again = tmp_path / "again.json"
    cfg = TrainConfig(**json.loads(run.ckpt.read_text())["train_config"])
    cli.save_checkpoint(again, params, cfg)
    assert again.read_bytes() == run.ckpt.read_bytes()


def test_train_unknown_test_pair_is_data_error(run, tmp_path, capsys):
    rc = cli.main(
        [
            "train",
            "--data", str(run.data),
            "--test-pairs", "42",
            "--config", str(run.cfg_path),
            "--out", str(tmp_path / "o"),
        ]
    )
    assert rc == cli.EXIT_DATA
    assert "42" in capsys.readouterr().err


def test_train_unreadable_data_is_data_error(run, tmp_path):
    rc = cli.main(
        [
            "train",
            "--data", str(tmp_path / "missing.csv"),
            "--test-pairs", "3",
            "--config", str(run.cfg_path),
            "--out", str(tmp_path / "o"),
        ]
    )
    assert rc == cli.EXIT_DATA


def test_train_config_unknown_key_is_data_error(run, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"epochs": 1, "nonsense": 2}))
    rc = cli.main(
        [
            "train",
            "--data", str(run.data),
            "--test-pairs", "3",
            "--config", str(bad),
            "--out", str(tmp_path / "o"),
        ]
    )
    assert rc == cli.EXIT_DATA
    assert "nonsense" in capsys.readouterr().err


@pytest.mark.parametrize("text,field", [
    (b'{"epochs": "10"}', "epochs"),
    (b'{"epochs": 2.5}', "epochs"),
    (b'{"batch_size": true}', "batch_size"),
    (b'{"clip_threshold": -1}', "clip_threshold"),
    (b'\xff\xfe{"epochs": 1}', "not valid JSON"),
])
def test_train_config_wrong_type_is_data_error(run, tmp_path, capsys, text, field):
    bad = tmp_path / "bad.json"
    bad.write_bytes(text)
    rc = cli.main(
        [
            "train",
            "--data", str(run.data),
            "--test-pairs", "3",
            "--config", str(bad),
            "--out", str(tmp_path / "o"),
        ]
    )
    err = capsys.readouterr().err
    assert rc == cli.EXIT_DATA
    assert field in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_train_divergence_is_data_error_before_any_output(run, tmp_path, capsys):
    # A learning rate this large sends the weights to inf within an epoch;
    # the run must stop there, not write NaN into checkpoint.json.
    cfg = tmp_path / "diverge.json"
    cfg.write_text(json.dumps({"learning_rate": 1e300, "epochs": 2, "hidden": 4}))
    out = tmp_path / "o"
    rc = cli.main(
        [
            "train",
            "--data", str(run.data),
            "--test-pairs", "3",
            "--config", str(cfg),
            "--out", str(out),
        ]
    )
    err = capsys.readouterr().err
    assert rc == cli.EXIT_DATA
    assert "diverged at epoch 1, batch " in err and "Traceback" not in err
    assert not (out / "checkpoint.json").exists()


def test_unexpected_exception_is_internal_error(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli, "generate_dataset", broken)
    rc = cli.main(["synth", "--pairs", "1", "--per-pair", "1", "--out", str(tmp_path / "d.csv")])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_INTERNAL
    assert err == "internal error: RuntimeError: synthetic failure\n"


# ---------------------------------------------------------------------------
# eval


def test_eval_outputs_and_recompute_oracle(run, tmp_path):
    out = tmp_path / "eval"
    rc = cli.main(
        [
            "eval",
            "--model", str(run.ckpt),
            "--data", str(run.data),
            "--test-pairs", "3",
            "--out", str(out),
        ]
    )
    assert rc == 0
    metrics = json.loads((out / "metrics.json").read_text())
    rows = (out / "comparison.csv").read_text().strip().splitlines()
    assert rows[0] == "sample_id,step,t_ms,predicted_N,actual_N"
    body = [r.split(",") for r in rows[1:]]
    assert len(body) == 70 * metrics["n_samples"]

    by_sample: dict[str, list[tuple[float, float]]] = {}
    for sid, step, _t, pred, act in body:
        by_sample.setdefault(sid, []).append((float(pred), float(act)))
    assert all(len(v) == 70 for v in by_sample.values())
    mse = np.mean(
        [np.mean([(p - a) ** 2 for p, a in v]) for v in by_sample.values()]
    )
    mae = np.mean([abs(v[-1][0] - v[-1][1]) for v in by_sample.values()])
    assert metrics["mse_N2"] == pytest.approx(mse, rel=1e-12)
    assert metrics["final_step_mae_N"] == pytest.approx(mae, rel=1e-12)

    grip_std = json.loads(run.ckpt.read_text())["norm"]["grip_std"]
    mse_norm = mse / grip_std**2
    assert metrics["mse_norm"] == pytest.approx(mse_norm, rel=1e-9)


def test_eval_version_mismatch_is_data_error(run, tmp_path, capsys):
    doc = json.loads(run.ckpt.read_text())
    doc["format_version"] = 999
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = cli.main(
        [
            "eval",
            "--model", str(bad),
            "--data", str(run.data),
            "--test-pairs", "3",
            "--out", str(tmp_path / "e"),
        ]
    )
    assert rc == cli.EXIT_DATA
    assert "format_version" in capsys.readouterr().err


# case -> (field path, replacement or None to delete it, text the error must name)
MALFORMED_CHECKPOINTS = {
    "missing_hidden": (("hidden",), None, "'hidden'"),
    "string_hidden": (("hidden",), "6", "'hidden'"),
    "float_input_dim": (("input_dim",), 6.5, "'input_dim'"),
    "input_dim_not_6": (("input_dim",), 7, "input_dim"),
    "short_wrench_mean": (("norm", "wrench_mean"), [0.0] * 5, "norm.wrench_mean"),
    "nan_wrench_std": (("norm", "wrench_std"), [1.0, float("nan")] + [1.0] * 4,
                       "norm.wrench_std"),
    "zero_wrench_std": (("norm", "wrench_std"), [0.0] * 6, "> 0"),
    "negative_wrench_std": (("norm", "wrench_std"), [-1.0] + [1.0] * 5, "> 0"),
}
# case -> (file bytes, text the error must name)
UNREADABLE_CHECKPOINTS = {
    "not_an_object": (b"[1, 2]", "JSON object"),
    "not_utf8": (b"\xff\xfe{}", "not valid JSON"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS) + sorted(UNREADABLE_CHECKPOINTS))
def test_malformed_checkpoint_is_data_error(run, tmp_path, capsys, case):
    bad = tmp_path / "bad.json"
    if case in UNREADABLE_CHECKPOINTS:
        content, needle = UNREADABLE_CHECKPOINTS[case]
        bad.write_bytes(content)
    else:
        (*outer, key), value, needle = MALFORMED_CHECKPOINTS[case]
        doc = json.loads(run.ckpt.read_text())
        block = doc
        for name in outer:
            block = block[name]
        if value is None:
            del block[key]
        else:
            block[key] = value
        bad.write_text(json.dumps(doc))
    rec = align_handover(load_recordings(run.data)[0])
    window = tmp_path / "w.csv"
    make_window_csv(window, rec, int(np.argmin(np.abs(rec.t_ms))))
    rc = cli.main(["predict", "--model", str(bad), "--input", str(window)])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_DATA
    assert needle in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------------------
# predict


def make_window_csv(path, record, end_index, n=32):
    rows = ["t_ms,fx_N,fy_N,fz_N,tx_Nm,ty_Nm,tz_Nm"]
    for i in range(end_index - n + 1, end_index + 1):
        cells = [repr(float(record.t_ms[i]))] + [repr(float(v)) for v in record.wrench[i]]
        rows.append(",".join(cells))
    path.write_text("\n".join(rows) + "\n")


def test_predict_70_rows_continuing_grid(run, tmp_path):
    rec = align_handover(load_recordings(run.data)[0])
    k0 = int(np.argmin(np.abs(rec.t_ms)))
    window = tmp_path / "w.csv"
    make_window_csv(window, rec, k0)  # t_o = -260, t_e = 0
    out = tmp_path / "forecast.csv"
    rc = cli.main(["predict", "--model", str(run.ckpt), "--input", str(window), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t_ms,grip_N"
    assert len(lines) == 71
    t = [float(line.split(",")[0]) for line in lines[1:]]
    assert t[0] == pytest.approx(rec.t_ms[k0] + PERIOD_MS, abs=1e-9)
    assert np.allclose(np.diff(t), PERIOD_MS, atol=1e-9)

    # one code path: CLI output equals in-process prediction bit-exactly
    params, _ = cli.load_checkpoint(run.ckpt)
    want = m.predict_grip(rec.wrench[k0 - 31 : k0 + 1], params)
    got = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert np.array_equal(got, want)


def test_predict_deterministic(run, tmp_path):
    rec = align_handover(load_recordings(run.data)[0])
    k0 = int(np.argmin(np.abs(rec.t_ms)))
    window = tmp_path / "w.csv"
    make_window_csv(window, rec, k0)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    cli.main(["predict", "--model", str(run.ckpt), "--input", str(window), "--out", str(a)])
    cli.main(["predict", "--model", str(run.ckpt), "--input", str(window), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_predict_empty_input_is_data_error(run, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("t_ms,fx_N,fy_N,fz_N,tx_Nm,ty_Nm,tz_Nm\n")
    rc = cli.main(["predict", "--model", str(run.ckpt), "--input", str(empty)])
    assert rc == cli.EXIT_DATA


def test_predict_non_finite_input_is_data_error(run, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t_ms,fx_N,fy_N,fz_N,tx_Nm,ty_Nm,tz_Nm\n0.0,1,2,nan,3,4,5\n")
    rc = cli.main(["predict", "--model", str(run.ckpt), "--input", str(bad)])
    assert rc == cli.EXIT_DATA


# ---------------------------------------------------------------------------
# stream


def ticks_for(record, count):
    lines = []
    for i in range(count):
        cells = [repr(float(record.t_ms[i]))] + [repr(float(v)) for v in record.wrench[i]]
        lines.append(",".join(cells))
    return lines


def run_stream(run, stdin_text, extra=()):
    proc = subprocess.run(
        [sys.executable, "-m", "gripforecast", "stream", "--model", str(run.ckpt), *extra],
        input=stdin_text,
        capture_output=True,
        text=True,
        env=run_stream.env,
        timeout=120,
    )
    return proc


def test_stream_emits_from_window_fill(run, cli_env):
    run_stream.env = cli_env
    rec = align_handover(load_recordings(run.data)[0])
    n_ticks = 50
    proc = run_stream(run, "\n".join(ticks_for(rec, n_ticks)) + "\n")
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.strip().splitlines()
    assert len(out) == n_ticks - 31  # 260 ms window = 32-tick fill

    # online/offline equivalence, bit-exact: each line equals predict_grip
    # over the corresponding sliding window
    params, _ = cli.load_checkpoint(run.ckpt)
    for j, line in enumerate(out):
        vals = line.split(",")
        end = 31 + j
        assert float(vals[0]) == rec.t_ms[end]
        want = m.predict_grip(rec.wrench[end - 31 : end + 1], params)
        got = np.array([float(v) for v in vals[1:]])
        assert np.array_equal(got, want)


def test_stream_skips_malformed_line_and_continues(run, cli_env):
    run_stream.env = cli_env
    rec = align_handover(load_recordings(run.data)[0])
    lines = ticks_for(rec, 40)
    lines.insert(10, "this,is,not,a,tick")
    proc = run_stream(run, "\n".join(lines) + "\n")
    assert proc.returncode == 0
    assert "malformed" in proc.stderr
    assert len(proc.stdout.strip().splitlines()) == 40 - 31


def test_stream_non_monotone_timestamp_is_fatal(run, cli_env):
    run_stream.env = cli_env
    rec = align_handover(load_recordings(run.data)[0])
    lines = ticks_for(rec, 10)
    lines.append(lines[3])  # jump backwards
    proc = run_stream(run, "\n".join(lines) + "\n")
    assert proc.returncode == cli.EXIT_DATA
    assert "increase" in proc.stderr


def test_stream_window_ms_bounds(run, cli_env):
    run_stream.env = cli_env
    proc = run_stream(run, "", extra=("--window-ms", "5"))
    assert proc.returncode == cli.EXIT_USAGE
    proc = run_stream(run, "", extra=("--window-ms", "2000"))
    assert proc.returncode == cli.EXIT_USAGE


def test_stream_accepts_header_line(run, cli_env):
    run_stream.env = cli_env
    rec = align_handover(load_recordings(run.data)[0])
    text = "t_ms,fx_N,fy_N,fz_N,tx_Nm,ty_Nm,tz_Nm\n" + "\n".join(ticks_for(rec, 33)) + "\n"
    proc = run_stream(run, text)
    assert proc.returncode == 0
    assert len(proc.stdout.strip().splitlines()) == 2


class _ClosedPipe:
    """A stdout whose reader has gone away; fileno() is a scratch file."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_stream_broken_pipe_exits_ok(run, tmp_path, capsys, monkeypatch):
    rec = align_handover(load_recordings(run.data)[0])
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(ticks_for(rec, 40)) + "\n"))
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        rc = cli.main(["stream", "--model", str(run.ckpt)])
    finally:
        os.close(fd)
    assert rc == cli.EXIT_OK
    assert capsys.readouterr().err == ""


def test_stream_into_head_exits_ok(run, cli_env):
    # `stream ... | head -1`: the reader leaves after one line while forecasts
    # (far more than a pipe buffer of them) are still being written.
    rec = align_handover(load_recordings(run.data)[0])
    ticks = "\n".join(ticks_for(rec, 200)) + "\n"
    proc = subprocess.Popen(
        [sys.executable, "-m", "gripforecast", "stream", "--model", str(run.ckpt)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=cli_env, text=True,
    )
    proc.stdin.write(ticks)
    proc.stdin.close()
    assert proc.stdout.readline().count(",") == 70
    proc.stdout.close()
    assert proc.wait(timeout=120) == cli.EXIT_OK
    assert proc.stderr.read() == ""
    proc.stderr.close()
