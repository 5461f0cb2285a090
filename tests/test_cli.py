"""End-to-end tests of the command-line surface and its file formats."""

import contextlib
import copy
import errno
import hashlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields, replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gripforecast import cli
from gripforecast import model as m
from gripforecast.dataset import (
    NormStats,
    PERIOD_MS,
    align_handover,
    load_recordings,
    ms_to_steps,
    save_recordings,
)
from gripforecast.errors import ContractViolation, DataError
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


def test_checkpoint_bytes_are_pinned(tmp_path):
    # The sha256 pins the checkpoint format: a change to any byte of it
    # shows here, and a file saved by an older build must load the same.
    norm = NormStats(np.linspace(-1, 1, 6), np.linspace(0.5, 2, 6), 0.25, 1.75)
    params = replace(m.init_params(3, 8), norm=norm)
    path = tmp_path / "checkpoint.json"
    cli.save_checkpoint(path, params, TrainConfig(hidden=8))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "dc087bceadf1ce11774291f2d9c598a926291142eeb0548de533c10e06c4324b")
    loaded, _ = cli.load_checkpoint(path)
    assert loaded.hidden == 8
    assert loaded.flat.tobytes() == params.flat.tobytes()
    for field in ("wrench_mean", "wrench_std"):
        assert getattr(loaded.norm, field).tobytes() == getattr(norm, field).tobytes()
    assert (loaded.norm.grip_mean, loaded.norm.grip_std) == (0.25, 1.75)
    assert type(loaded.norm.grip_mean) is type(loaded.norm.grip_std) is float


@pytest.mark.parametrize("failure", [OSError(errno.ENOSPC, "No space left on device"),
                                     KeyboardInterrupt()], ids=["disk_full", "ctrl_c"])
def test_checkpoint_write_that_fails_partway_keeps_the_old_file(run, tmp_path, monkeypatch,
                                                                failure):
    params, _ = cli.load_checkpoint(run.ckpt)
    cfg = TrainConfig(**json.loads(run.ckpt.read_text())["train_config"])
    target = tmp_path / "checkpoint.json"
    old = b'{"an": "older checkpoint"}\n'
    target.write_bytes(old)

    def dump_then_fail(doc, fh, **kwargs):
        fh.write(json.dumps(doc, **kwargs)[:1000])
        fh.flush()
        raise failure

    with monkeypatch.context() as patch:
        patch.setattr(cli.json, "dump", dump_then_fail)
        with pytest.raises(type(failure)):
            cli.save_checkpoint(target, params, cfg)
    assert target.read_bytes() == old
    assert os.listdir(tmp_path) == ["checkpoint.json"]
    cli.save_checkpoint(target, params, cfg)
    assert target.read_bytes() == run.ckpt.read_bytes()
    assert os.listdir(tmp_path) == ["checkpoint.json"]


def run_interrupted(argv, stdin_text=""):
    """run_in_process for a run that Ctrl-C stops: a KeyboardInterrupt that
    escapes cli.main fails the test instead of stopping the test session."""
    try:
        return run_in_process(argv, stdin_text)
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped cli.main")


def test_train_ctrl_c_is_one_line_and_exit_130(run, tmp_path, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "train", interrupted)
    out = tmp_path / "out"
    rc, stdout, err = run_interrupted(["train", "--data", str(run.data), "--test-pairs", "3",
                                       "--config", str(run.cfg_path), "--out", str(out)])
    assert (rc, stdout, err) == (cli.EXIT_INTERRUPTED, "", "interrupted\n")
    assert not out.exists()


def test_train_sigterm_is_one_line_and_exit_143(run, tmp_path, monkeypatch):
    # main handles SIGTERM only while a command runs, then puts back the
    # handler it found.
    def terminated(*args, **kwargs):
        os.kill(os.getpid(), signal.SIGTERM)

    monkeypatch.setattr(cli, "train", terminated)
    before = signal.getsignal(signal.SIGTERM)
    out = tmp_path / "out"
    rc, stdout, err = run_interrupted(["train", "--data", str(run.data), "--test-pairs", "3",
                                       "--config", str(run.cfg_path), "--out", str(out)])
    assert (rc, stdout, err) == (cli.EXIT_TERMINATED, "", "terminated\n")
    assert not out.exists()
    assert signal.getsignal(signal.SIGTERM) is before


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
    (b'{"epochs": 1, "hidden": 4, "epochs": 2}', "names key 'epochs' twice"),
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


def test_train_overflowing_norm_stats_name_the_channel(run, tmp_path):
    # One finite but huge fx_N cell inside a training window overflows the
    # channel's mean and std; that is bad data in a named channel, not a
    # diverging optimizer, and no numpy warning may reach stderr.
    records = load_recordings(run.data)
    rec = records[0]  # pair 1, a training pair
    k = int(np.argmin(np.abs(align_handover(rec).t_ms + 187.0)))
    rec.wrench[k, 0] = 1e308
    data = tmp_path / "huge.csv"
    save_recordings(records, data)
    out = tmp_path / "o"
    rc, stdout, err = run_in_process(
        ["train", "--data", str(data), "--test-pairs", "3", "--config", str(run.cfg_path),
         "--out", str(out)])
    assert rc == cli.EXIT_DATA and stdout == ""
    assert err.count("\n") == 1 and "fx_N" in err and "not finite" in err
    assert not out.exists()


def test_train_hidden_too_large_to_allocate_is_data_error(run, tmp_path):
    # 10^12 asks for more elements than any numpy array may have, so this
    # fails before anything is allocated.
    cfg = tmp_path / "huge_hidden.json"
    cfg.write_text(json.dumps({"hidden": 10**12, "epochs": 1}))
    out = tmp_path / "o"
    rc, stdout, err = run_in_process(
        ["train", "--data", str(run.data), "--test-pairs", "3", "--config", str(cfg),
         "--out", str(out)])
    assert rc == cli.EXIT_DATA and stdout == ""
    assert err.count("\n") == 1 and err.startswith("error: hidden 1000000000000 ")
    assert not out.exists()


def cut_around_crossing(record, rows=40):
    """The record's `rows` rows around its grip crossing: too short for any window."""
    k = int(np.argmin(np.abs(align_handover(record).t_ms)))
    keep = slice(k - rows // 2, k + rows // 2)
    return replace(record, t_ms=record.t_ms[keep], wrench=record.wrench[keep],
                   grip_giver=record.grip_giver[keep], grip_taker=record.grip_taker[keep])


@pytest.mark.parametrize("split", ["training", "test"])
def test_train_split_without_windows_is_data_error(run, tmp_path, split):
    # Cut handovers still align, but no 70-step horizon fits in them, so
    # their split yields no windows.
    records = load_recordings(run.data)
    cut = [cut_around_crossing(r) if (r.pair_id == "3") == (split == "test") else r
           for r in records]
    data = tmp_path / "short.csv"
    save_recordings(cut, data)
    out = tmp_path / "o"
    rc, stdout, err = run_in_process(
        ["train", "--data", str(data), "--test-pairs", "3", "--config", str(run.cfg_path),
         "--out", str(out)])
    assert (rc, stdout, err) == (cli.EXIT_DATA, "", f"error: {split} pairs produced no samples\n")
    assert not out.exists()


@pytest.mark.parametrize("where", ["out", "ancestor"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_out_naming_a_file_is_data_error_before_any_work(run, tmp_path, capsys, monkeypatch,
                                                         command, where):
    # --out, or its nearest existing ancestor, is a file: one line naming
    # --out, before the recordings are read or any epoch or evaluate runs.
    def never(*args, **kwargs):
        raise AssertionError("ran before --out was checked")

    for name in ("load_recordings", "train", "evaluate"):
        monkeypatch.setattr(cli, name, never)
    taken = tmp_path / "taken"
    taken.write_text("x")
    out = taken if where == "out" else taken / "sub" / "dir"
    first = (["train", "--config", str(run.cfg_path)] if command == "train"
             else ["eval", "--model", str(run.ckpt)])
    rc = cli.main(first + ["--data", str(run.data), "--test-pairs", "3", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_DATA
    assert err == f"error: --out {out}: {taken} exists and is not a directory\n"
    assert taken.read_text() == "x"


@pytest.mark.parametrize("exc_type", [RuntimeError, ContractViolation],
                         ids=lambda t: t.__name__)
def test_unexpected_exception_is_internal_error(tmp_path, capsys, monkeypatch, exc_type):
    def broken(*args, **kwargs):
        raise exc_type("synthetic failure")

    monkeypatch.setattr(cli, "generate_dataset", broken)
    rc = cli.main(["synth", "--pairs", "1", "--per-pair", "1", "--out", str(tmp_path / "d.csv")])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_INTERNAL
    assert err == f"internal error: {exc_type.__name__}: synthetic failure\n"


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


def test_eval_needs_only_the_test_pairs(run, tmp_path):
    # A file holding only the held-out pair, or one whose training handovers
    # cannot be aligned, evaluates as the full file does.
    records = load_recordings(run.data)
    only_test = tmp_path / "pair3.csv"
    save_recordings([r for r in records if r.pair_id == "3"], only_test)
    unaligned = tmp_path / "unaligned.csv"
    save_recordings([r if r.pair_id == "3" else replace(r, grip_taker=r.grip_giver + 1.0)
                     for r in records], unaligned)
    outputs = []
    for data in (run.data, only_test, unaligned):
        out = tmp_path / data.stem
        argv = ["eval", "--model", str(run.ckpt), "--data", str(data), "--test-pairs", "3",
                "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        outputs.append([(out / name).read_bytes() for name in ("metrics.json", "comparison.csv")])
    assert outputs[0] == outputs[1] == outputs[2]


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


# case -> (field path, its last step a key or a list index; replacement or None
# to delete it; text the error must name)
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
    "zero_grip_std": (("norm", "grip_std"), 0.0, "norm.grip_std must be > 0"),
    "int_beyond_float": (("norm", "grip_std"), 10**400, "norm.grip_std"),
    "wrong_gate_order": (("gate_order",), "ifog", "gate_order"),
    "wrong_horizon": (("horizon",), 69, "horizon"),
    "float_horizon": (("horizon",), 70.0, "horizon"),
    "bool_format_version": (("format_version",), True, "format_version"),
    "zero_hidden": (("hidden",), 0, "'hidden'"),
    "missing_weights": (("weights",), None, "'weights'"),
    "missing_norm": (("norm",), None, "'norm'"),
    "missing_weight_entry": (("weights", "layer2.b"), None, "'layer2.b'"),
    "wrong_weight_shape": (("weights", "head_b", "shape"), [7, 10], "'head_b' declares shape"),
    "string_grip_std": (("norm", "grip_std"), "1.75", "norm.grip_std is not numeric"),
    "bool_grip_std": (("norm", "grip_std"), True, "norm.grip_std is not numeric"),
    "string_wrench_mean": (("norm", "wrench_mean"), ["0"] * 6,
                           "norm.wrench_mean is not numeric"),
    "string_in_weights": (("weights", "head_b", "data", 3), "0.5", "'head_b' is not numeric"),
    "bool_in_weights": (("weights", "head_b", "data", 3), True, "'head_b' is not numeric"),
    "all_strings_weight": (("weights", "layer1.b", "data"), ["0.0"] * 4 * SMALL_CFG["hidden"],
                           "'layer1.b' is not numeric"),
}
# case -> (file bytes, text the error must name)
UNREADABLE_CHECKPOINTS = {
    "not_an_object": (b"[1, 2]", "JSON object"),
    "not_utf8": (b"\xff\xfe{}", "not valid JSON"),
    "int_too_long_to_parse": (b'{"hidden": 1' + b"0" * 5000 + b"}", "not valid JSON"),
    "repeated_key": (b'{"norm": {"grip_mean": 0.0, "grip_std": 1.0, "grip_std": 2.0}}',
                     "names key 'grip_std' twice"),
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


@pytest.mark.parametrize("command", ["predict", "train"])
def test_predict_non_utf8_input_is_data_error(run, tmp_path, capsys, command):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"t_ms,fx_N,fy_N,fz_N,tx_Nm,ty_Nm,tz_Nm\n\xff\xfe,1\n")
    argv = {"predict": ["predict", "--model", str(run.ckpt), "--input", str(bad)],
            "train": ["train", "--data", str(bad), "--test-pairs", "3",
                      "--out", str(tmp_path / "o")]}[command]
    rc = cli.main(argv)
    assert rc == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(bad) in err


@pytest.mark.parametrize("body, says", [
    (b"", "line 1 must be the header"),
    (b"t_ms,fx_N,fy_N,fz_N,tx_Nm,ty_Nm,tz_Nm\n", "has a header but no ticks"),
    (b"0.0,1,2,3,4,5,6\n", "line 1 must be the header"),
    (b"\nt_ms,fx_N,fy_N,fz_N,tx_Nm,ty_Nm,tz_Nm\n0.0,1,2,3,4,5,6\n", "line 1 must be the header"),
    (b"t_ms,fx_N,fy_N,fz_N,tx_Nm,ty_Nm,tz_Nm\r\n0.0,1,2,3,4,5,6\r\n\xff,1\r\n",
     "line 3 is not UTF-8 (invalid start byte)"),
])
def test_predict_bad_file_is_one_error_line(run, tmp_path, capsys, body, says):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(body)
    rc = cli.main(["predict", "--model", str(run.ckpt), "--input", str(bad)])
    assert rc == cli.EXIT_DATA
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {bad}") and err.count("\n") == 1
    assert says in err


class _LineByLine(io.RawIOBase):
    """A pipe whose writer sends one line at a time, as a live sensor does."""

    def __init__(self, data: bytes):
        self.lines = data.splitlines(keepends=True)

    def readable(self):
        return True

    def readinto(self, buf):
        line = self.lines.pop(0) if self.lines else b""
        buf[: len(line)] = line
        return len(line)


def test_stream_non_utf8_input_is_data_error(run):
    rec = align_handover(load_recordings(run.data)[0])
    data = ("\n".join(ticks_for(rec, 3)) + "\n").encode() + b"\xff,1\n"
    stdin = io.TextIOWrapper(io.BufferedReader(_LineByLine(data)), encoding="utf-8")
    rc, out, err = run_in_process(["stream", "--model", str(run.ckpt)], stdin)
    assert rc == cli.EXIT_DATA
    assert err == "error: stream: line 4 is not UTF-8 (invalid start byte)\n"


# predict and stream in their own processes on the same bytes, with LANG and
# LC_ALL unset (the C locale, whose stdin would let bad bytes through) and
# again with stdin set to decode strictly (which would decode in 8 kB chunks).


@pytest.fixture(params=["no_locale", "strict_stdin"])
def bare_env(request, cli_env):
    env = {k: v for k, v in cli_env.items()
           if k not in ("LANG", "LC_ALL", "LC_CTYPE", "PYTHONIOENCODING", "PYTHONUTF8")}
    if request.param == "strict_stdin":
        env["PYTHONIOENCODING"] = "utf-8:strict"
    return env


def predict_and_stream(run, env, path):
    """predict on the file at `path`, then stream on its bytes, each as
    (exit code, stdout bytes, stderr text)."""
    results = []
    for argv, data in ((["predict", "--input", str(path)], b""), (["stream"], path.read_bytes())):
        proc = subprocess.run(
            [sys.executable, "-m", "gripforecast", *argv, "--model", str(run.ckpt)],
            input=data, capture_output=True, env=env, timeout=120)
        results.append((proc.returncode, proc.stdout, proc.stderr.decode()))
    return results


BOM = "\ufeff".encode()
HEADER = ",".join(cli.WRENCH_CSV_HEADER)


@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_predict_and_stream_read_the_same_ticks(run, bare_env, tmp_path, end):
    # One 32-tick window: stream's one forecast line holds predict's values.
    # A BOM before the header changes no byte of either output.
    lines, _ = uniform_ticks(align_handover(load_recordings(run.data)[0]), 32)
    text = end.join([HEADER, *lines]).encode() + end.encode()
    outs = []
    for name, data in (("plain", text), ("bom", BOM + text)):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(data)
        (rc_p, out_p, err_p), (rc_s, out_s, err_s) = predict_and_stream(run, bare_env, path)
        assert (rc_p, err_p, rc_s) == (cli.EXIT_OK, "", cli.EXIT_OK)
        assert err_s.startswith("stream: 1 forecasts, ") and err_s.count("\n") == 1
        outs.append((out_p, out_s))
    assert outs[0] == outs[1]
    predicted = outs[0][0].decode().splitlines()
    (streamed,) = outs[0][1].decode().splitlines()
    t_ms, *values = streamed.split(",")
    assert t_ms == lines[-1].split(",")[0] and len(predicted) == 71
    assert values == [row.split(",")[1] for row in predicted[1:]]


def test_bare_cr_ends_no_line(run, bare_env, tmp_path):
    # A line ends at LF only, so a file of CR-ended lines is one line 1.
    lines, _ = uniform_ticks(align_handover(load_recordings(run.data)[0]), 32)
    path = tmp_path / "cr.csv"
    path.write_bytes("\r".join([HEADER, *lines]).encode() + b"\r")
    (rc_p, out_p, err_p), (rc_s, out_s, err_s) = predict_and_stream(run, bare_env, path)
    assert (rc_p, out_p) == (cli.EXIT_DATA, b"")
    assert err_p == f"error: {path}: line 1 must be the header {HEADER!r}\n"
    assert (rc_s, out_s) == (cli.EXIT_OK, b"")
    assert err_s.startswith("stream: line 1: malformed tick (") and err_s.count("\n") == 1


def test_non_utf8_line_stops_both_commands_at_that_line(run, bare_env, tmp_path):
    # 120 ticks with byte 0xff on line 61, more than 8 kB into the file. The
    # stream first writes the 28 forecasts whose windows end on lines 33-60.
    lines, wrench = uniform_ticks(align_handover(load_recordings(run.data)[0]), 120)
    rows = [row.encode() for row in [HEADER, *lines]]
    rows[60] = b"\xff" + rows[60]
    data = b"\n".join(rows) + b"\n"
    assert data.index(b"\xff") > 8192
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    (rc_p, out_p, err_p), (rc_s, out_s, err_s) = predict_and_stream(run, bare_env, path)
    assert (rc_p, out_p) == (cli.EXIT_DATA, b"")
    assert err_p == f"error: {path}: line 61 is not UTF-8 (invalid start byte)\n"
    assert rc_s == cli.EXIT_DATA
    assert err_s == "error: stream: line 61 is not UTF-8 (invalid start byte)\n"
    assert_32_tick_forecasts(run, lines[:59], wrench, out_s.decode().splitlines())


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


@pytest.mark.parametrize("cell", ["1_000", "\uff11"])
def test_tick_cells_follow_the_loader_number_grammar(run, tmp_path, cell):
    # float() reads both cells; the recording loader refuses them, and so do ticks.
    rec = align_handover(load_recordings(run.data)[0])
    lines = ticks_for(rec, 40)
    bad = lines[10].split(",")
    bad[2] = cell
    lines.insert(10, ",".join(bad))  # line 11 of the stream, 12 of the file
    window = tmp_path / "w.csv"
    window.write_text(",".join(cli.WRENCH_CSV_HEADER) + "\n" + "\n".join(lines[:33]) + "\n")
    rc, out, err = run_in_process(["predict", "--model", str(run.ckpt), "--input", str(window)])
    assert rc == cli.EXIT_DATA and out == ""
    assert err.splitlines() == [f"error: {window}: line 12: not a number ({cell!r})"]

    rc, out, err = run_in_process(["stream", "--model", str(run.ckpt)], "\n".join(lines) + "\n")
    assert rc == cli.EXIT_OK
    assert err.count("malformed tick") == 1 and "line 11:" in err
    assert len(out.splitlines()) == 40 - 31


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


def run_in_process(argv, stdin_text=""):
    """cli.main with stdin, stdout and stderr in memory: (exit code, out, err).

    stdin_text is a string, which stdin holds as UTF-8 bytes, or an object
    whose `.buffer` gives stdin's bytes. Any warning is raised as an error,
    so a numpy RuntimeWarning shows up as exit 3.
    """
    stdin = (io.TextIOWrapper(io.BytesIO(stdin_text.encode()), encoding="utf-8")
             if isinstance(stdin_text, str) else stdin_text)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", stdin), warnings.catch_warnings(), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def uniform_ticks(record, count):
    """`count` tick lines 120 Hz apart from t_ms 0, cycling through the
    record's wrench rows, and those rows as a (count, 6) array."""
    wrench = record.wrench[np.arange(count) % len(record.wrench)]
    lines = [",".join(repr(float(v)) for v in (k * PERIOD_MS, *row))
             for k, row in enumerate(wrench)]
    return lines, wrench


@pytest.mark.parametrize("window_ms", [10.0, 260.0, 1250.0])
def test_stream_restarts_window_after_gap(run, window_ms):
    # Two runs of 2n + 60 uniform ticks, the second 500 ms late, each giving
    # n + 61 forecasts at an n-tick window: the stream's ring of 2n rows
    # wraps around in both. At 10 ms the window is 2 ticks, so every
    # projection a tick makes is 2 rows tall.
    n = ms_to_steps(window_ms) + 1
    run_len = 2 * n + 60
    lines, wrench = uniform_ticks(align_handover(load_recordings(run.data)[0]), 2 * run_len)
    for i in range(run_len, 2 * run_len):
        t_ms, rest = lines[i].split(",", 1)
        lines[i] = f"{float(t_ms) + 500.0!r},{rest}"
    rc, out, err = run_in_process(
        ["stream", "--model", str(run.ckpt), "--window-ms", repr(window_ms)],
        "\n".join(lines) + "\n")
    assert rc == cli.EXIT_OK
    assert f"line {run_len + 1}:" in err and "spacing" in err and "malformed tick" not in err
    out = out.splitlines()
    ends = [*range(n - 1, run_len), *range(run_len + n - 1, 2 * run_len)]
    assert len(out) == len(ends) == 2 * (n + 61)
    params, _ = cli.load_checkpoint(run.ckpt)
    for line, end in zip(out, ends):
        vals = line.split(",")
        assert vals[0] == lines[end].split(",")[0]
        want = m.predict_grip(wrench[end - n + 1 : end + 1], params)
        assert np.array_equal(np.array([float(v) for v in vals[1:]]), want)


class _Discard:
    """A stdout that counts the lines written to it and keeps none."""

    lines = 0

    def write(self, text):
        self.lines += 1

    def flush(self):
        pass


def stream_in_memory(ckpt, lines, window_ms, on_tick=None):
    """cli.cmd_stream over tick `lines`; on_tick(k) runs before tick k is
    read. Returns the number of forecast lines."""
    def stdin():
        for k, line in enumerate(lines):
            if on_tick is not None:
                on_tick(k)
            yield line

    args = cli.build_parser().parse_args(
        ["stream", "--model", str(ckpt), "--window-ms", repr(window_ms)])
    args.stdin, args.stdout = stdin(), _Discard()
    assert cli.cmd_stream(args) == cli.EXIT_OK
    return args.stdout.lines


def test_stream_prepares_weights_once_per_call(run, monkeypatch):
    # Rebuilding both cells per forecast would count 500 and 900.
    rec = align_handover(load_recordings(run.data)[0])
    built = []
    real_init = m._Cell.__init__

    def init(cell, *args):
        built.append(cell)
        real_init(cell, *args)

    monkeypatch.setattr(m._Cell, "__init__", init)
    counts = []
    for n_ticks in (400, 600):
        built.clear()
        assert stream_in_memory(run.ckpt, uniform_ticks(rec, n_ticks)[0], 1250.0) == n_ticks - 150
        counts.append(len(built))
    assert counts[0] == counts[1] > 0


def test_stream_tick_allocates_almost_nothing(run, tmp_path):
    # A tick at the 151-tick window, hidden 40, reuses the call's cells,
    # block buffers and ring. Rebuilding them per tick peaked at about 550 kB.
    ckpt = tmp_path / "hidden40.json"
    norm = cli.load_checkpoint(run.ckpt)[0].norm
    cli.save_checkpoint(ckpt, replace(m.init_params(3, hidden=40), norm=norm),
                        TrainConfig(hidden=40))
    lines, _ = uniform_ticks(align_handover(load_recordings(run.data)[0]), 401)
    peaks, level = [], [0]

    def on_tick(k):
        if k > 300:  # tick k - 1's peak above the level it started from
            peaks.append(tracemalloc.get_traced_memory()[1] - level[0])
        tracemalloc.reset_peak()
        level[0] = tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        written = stream_in_memory(ckpt, lines, 1250.0, on_tick)
    finally:
        tracemalloc.stop()
    assert written == 401 - 150 and len(peaks) == 100
    assert max(peaks) < 128_000, max(peaks)


class _SlowWriter:
    """A stdout on a fake clock: writing forecast line k takes service_s[k]."""

    def __init__(self, now, service_s):
        self.now, self.service_s, self.lines = now, service_s, 0

    def write(self, text):
        self.now[0] += self.service_s[self.lines]
        self.lines += 1

    def flush(self):
        pass


def test_stream_eof_note_gives_service_times(run, monkeypatch):
    # On a fake clock, each line arrives 1/64 s after the one before, and
    # writing forecast k takes (k % 16 + 1) / 1024 s, about 1 to 15.6 ms:
    # binary fractions, so every difference is exact. The note times each
    # forecast from its tick line's arrival to the return of its write.
    now = [0.0]
    monkeypatch.setattr(cli, "clock", lambda: now[0])
    lines, _ = uniform_ticks(align_handover(load_recordings(run.data)[0]), 131)

    def stdin():
        for line in lines:
            now[0] += 1 / 64
            yield line

    args = cli.build_parser().parse_args(["stream", "--model", str(run.ckpt)])
    args.stdin = stdin()
    args.stdout = _SlowWriter(now, [(k % 16 + 1) / 1024 for k in range(100)])
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.cmd_stream(args) == cli.EXIT_OK
    # 100 forecasts from a 32-tick window; 7.8125 ms is the 50th smallest,
    # 15.625 ms the 99th, and the 48 of 9/1024 s or more exceed 8.33 ms.
    assert args.stdout.lines == 100
    assert err.getvalue() == ("stream: 100 forecasts, service time p50 7.812 ms, "
                              "p99 15.625 ms, max 15.625 ms; 48 over the 8.33 ms tick period\n")


def test_stream_eof_note_only_after_forecasts_and_a_normal_end(run):
    rec = align_handover(load_recordings(run.data)[0])
    lines = ticks_for(rec, 40)
    rc, out, err = run_in_process(["stream", "--model", str(run.ckpt)],
                                  "\n".join(lines[:31]) + "\n")
    assert (rc, out, err) == (cli.EXIT_OK, "", "")  # the window never filled
    rc, out, err = run_in_process(["stream", "--model", str(run.ckpt)],
                                  "\n".join(lines + [lines[3]]) + "\n")
    assert rc == cli.EXIT_DATA and len(out.splitlines()) == 9
    assert err.splitlines() == [f"error: stream: line 41: timestamp {rec.t_ms[3]:g} does not "
                                f"increase past {rec.t_ms[39]:g}"]
    rc, out, err = run_in_process(["stream", "--model", str(run.ckpt)],
                                  "\n".join(lines) + "\n")
    assert rc == cli.EXIT_OK and len(out.splitlines()) == 9
    assert err.startswith("stream: 9 forecasts, service time p50 ") and err.count("\n") == 1


def test_stream_ctrl_c_writes_the_note_and_exits_130(run):
    # Ctrl-C while stream waits for its 41st tick line: the 9 forecasts of a
    # 32-tick window so far stay on stdout, the note follows on stderr, then
    # main's one `interrupted` line, and no traceback.
    lines, wrench = uniform_ticks(align_handover(load_recordings(run.data)[0]), 40)

    def stdin():
        yield from ((line + "\n").encode() for line in lines)
        raise KeyboardInterrupt

    rc, out, err = run_interrupted(["stream", "--model", str(run.ckpt)],
                                   SimpleNamespace(buffer=stdin()))
    assert rc == cli.EXIT_INTERRUPTED and "Traceback" not in err
    note, last = err.splitlines()
    assert note.startswith("stream: 9 forecasts, service time p50 ") and last == "interrupted"
    assert_32_tick_forecasts(run, lines, wrench, out.splitlines())


def assert_32_tick_forecasts(run, lines, wrench, out):
    """`out` holds the forecast lines of a 260 ms stream over the tick
    `lines`, each one predict_grip on its 32-tick window."""
    assert len(out) == len(lines) - 31
    params, _ = cli.load_checkpoint(run.ckpt)
    for end, line in enumerate(out, start=31):
        vals = line.split(",")
        assert vals[0] == lines[end].split(",")[0]
        want = m.predict_grip(wrench[end - 31 : end + 1], params)
        assert np.array_equal(np.array([float(v) for v in vals[1:]]), want)


@pytest.mark.parametrize("sig, code, last", [
    (signal.SIGINT, cli.EXIT_INTERRUPTED, "interrupted"),
    (signal.SIGTERM, cli.EXIT_TERMINATED, "terminated"),
], ids=["sigint", "sigterm"])
def test_stream_stopped_by_a_signal_writes_the_note(run, cli_env, sig, code, last):
    # A live stream in its own process gets 40 ticks, writes its 9 forecasts
    # and waits for more; then the signal comes. The child gets the default
    # SIGINT action back, because a shell that starts a job in the background
    # ignores SIGINT for it, and Python then installs no Ctrl-C handler.
    lines, wrench = uniform_ticks(align_handover(load_recordings(run.data)[0]), 40)
    proc = subprocess.Popen(
        [sys.executable, "-m", "gripforecast", "stream", "--model", str(run.ckpt)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=cli_env, text=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    proc.stdin.write("\n".join(lines) + "\n")
    proc.stdin.flush()
    out = [proc.stdout.readline().rstrip("\n") for _ in range(9)]
    proc.send_signal(sig)
    rest, err = proc.communicate(timeout=120)
    assert proc.returncode == code and "Traceback" not in err
    note, final = err.splitlines()
    # A signal between the last line's write and its count leaves it out.
    assert note.startswith(("stream: 9 forecasts, ", "stream: 8 forecasts, "))
    assert final == last and rest == ""
    assert_32_tick_forecasts(run, lines, wrench, out)


def test_predict_window_with_gap_is_data_error(run, tmp_path):
    rec = align_handover(load_recordings(run.data)[0])
    lines = ticks_for(rec, 32)
    lines[20] = ",".join([repr(float(rec.t_ms[20] + 500.0))] + lines[20].split(",")[1:])
    window = tmp_path / "gap.csv"
    window.write_text(",".join(cli.WRENCH_CSV_HEADER) + "\n" + "\n".join(lines[:21]) + "\n")
    rc, out, err = run_in_process(["predict", "--model", str(run.ckpt), "--input", str(window)])
    assert rc == cli.EXIT_DATA
    assert "line 22" in err and "spacing" in err
    assert out == ""


# Line kinds of the random tick files below. Ticks advance a clock from the
# last valid tick: by one period, by one period within 0.5% ("jitter"), by a
# gap of at least 5% of a period, by nothing ("repeat") or backwards.
TICK_KINDS = ("tick", "tick", "tick", "jitter", "gap", "repeat", "back",
              "blank", "short", "long", "text", "nonfinite")
BAD_CELLS = ("abc", "", "1.2.3", "0x10", "--1")


@st.composite
def tick_files(draw):
    kinds = draw(st.lists(st.sampled_from(TICK_KINDS), max_size=14))
    # Magnitudes near 1e308 overflow the model: such a window has no finite forecast.
    value = st.floats(-50.0, 50.0) | st.floats(-1e308, 1e308) | st.sampled_from([-1e308, 1e308])
    t = draw(st.floats(-1000.0, 1000.0))
    lines, entries = [], []  # entries: (kind, t_ms or None) per line after the header
    for kind in kinds:
        cells = [repr(draw(value)) for _ in range(6)]
        step = {"tick": PERIOD_MS, "jitter": PERIOD_MS * (1 + draw(st.floats(-0.005, 0.005))),
                "gap": PERIOD_MS + draw(st.floats(0.45, 500.0)), "repeat": 0.0,
                "back": -draw(st.floats(0.01, 100.0))}.get(kind)
        if step is not None:
            t += step
            lines.append(",".join([repr(t)] + cells))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
        elif kind in ("short", "long"):
            cells = cells[:5] if kind == "short" else cells + [repr(draw(value))]
            lines.append(",".join([repr(t)] + cells))
        else:
            bad = draw(st.sampled_from(BAD_CELLS) if kind == "text"
                       else st.sampled_from(["nan", "inf", "-inf", "NaN"]))
            cells.insert(0, repr(t))
            cells[draw(st.integers(0, 6))] = bad
            lines.append(",".join(cells))
        entries.append((kind, t if step is not None else None))
    return lines, entries


def _tick_verdicts(entries):
    """Per line after the header: "blank", "malformed", "ok", "gap" or "fatal"."""
    verdicts, last = [], None
    for kind, t in entries:
        if t is None:
            verdicts.append("blank" if kind == "blank" else "malformed")
            continue
        if last is not None and t <= last:
            verdicts.append("fatal")
        elif last is not None and abs(t - last - PERIOD_MS) > 0.01 * PERIOD_MS:
            verdicts.append("gap")
        else:
            verdicts.append("ok")
        last = t
    return verdicts


@settings(max_examples=30, deadline=None)
@given(tick_files())
def test_tick_reader_property(run, tick_file):
    lines, entries = tick_file
    verdicts = _tick_verdicts(entries)
    text = "\n".join([",".join(cli.WRENCH_CSV_HEADER)] + lines) + "\n"
    path = run.root / "ticks.csv"
    path.write_text(text)

    # predict: exit 0 exactly when every non-blank line is a valid tick in
    # uniform succession, there is at least one, and the forecast is finite.
    rc, out, err = run_in_process(["predict", "--model", str(run.ckpt), "--input", str(path)])
    bad = [k for k, v in enumerate(verdicts, start=2) if v not in ("ok", "blank")]
    if not bad and "ok" in verdicts and rc == cli.EXIT_OK:
        rows = out.splitlines()
        assert len(rows) == 71
        assert all(math.isfinite(float(v)) for row in rows[1:] for v in row.split(","))
    else:
        assert rc == cli.EXIT_DATA
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        if bad or "ok" not in verdicts:
            assert (f"line {bad[0]}:" if bad else "no ticks") in err
        else:
            assert f"{path}: the forecast is not finite" in err

    # stream: skips malformed lines, restarts after a gap, stops on time
    # that does not increase; a 10 ms window fills at 2 ticks.
    rc, out, err = run_in_process(["stream", "--model", str(run.ckpt), "--window-ms", "10"], text)
    upto = verdicts.index("fatal") if "fatal" in verdicts else len(verdicts)
    assert rc == (cli.EXIT_DATA if upto < len(verdicts) else cli.EXIT_OK), err
    assert err.count("malformed tick") == verdicts[:upto].count("malformed")
    expected, filled = 0, 0
    for v in verdicts[:upto]:
        if v in ("ok", "gap"):
            filled = 1 if v == "gap" else filled + 1
            expected += filled >= 2
    # Each full window gives a forecast line or, if it is not finite, one note.
    out = out.splitlines()
    assert len(out) + err.count("the forecast is not finite") == expected
    for line in out:
        values = [float(v) for v in line.split(",")]
        assert len(values) == 71 and all(math.isfinite(v) for v in values)


HUGE_WRENCH = "1e308,-1e308,1,1,1,1"


def overflowing_checkpoint(run, path):
    """A checkpoint that loads (every number finite) but forecasts inf."""
    doc = json.loads(run.ckpt.read_text())
    doc["norm"]["grip_std"] = 1e300
    doc["weights"]["head_b"]["data"] = [1e10] * 70
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("case", ["huge_window", "overflowing_checkpoint"])
def test_predict_non_finite_forecast_is_data_error(run, tmp_path, case):
    window = tmp_path / "w.csv"
    if case == "huge_window":
        ckpt = run.ckpt
        ticks = [f"{k * PERIOD_MS!r},{HUGE_WRENCH}" for k in range(32)]
        window.write_text(",".join(cli.WRENCH_CSV_HEADER) + "\n" + "\n".join(ticks) + "\n")
    else:
        ckpt = overflowing_checkpoint(run, tmp_path / "big.json")
        rec = align_handover(load_recordings(run.data)[0])
        make_window_csv(window, rec, int(np.argmin(np.abs(rec.t_ms))))
    rc, out, err = run_in_process(["predict", "--model", str(ckpt), "--input", str(window)])
    assert rc == cli.EXIT_DATA, err
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {window}: the forecast is not finite")


def test_stream_non_finite_forecast_gets_one_note(run):
    # 70 ticks with tick 35's wrench replaced: the 32 windows that hold it
    # (ending at ticks 35 to 66) get a note each, the other 7 a forecast line.
    rec = align_handover(load_recordings(run.data)[0])
    lines = ticks_for(rec, 70)
    lines[35] = lines[35].split(",")[0] + "," + HUGE_WRENCH
    rc, out, err = run_in_process(["stream", "--model", str(run.ckpt)], "\n".join(lines) + "\n")
    assert rc == cli.EXIT_OK, err
    assert "malformed tick" not in err
    *notes, latency = err.splitlines()  # the last line is the EOF latency note
    assert len(notes) == 32
    assert latency.startswith("stream: 7 forecasts, service time p50 ")
    for note, line in zip(notes, lines[35:67]):
        assert note == (f"stream: tick at t_ms {line.split(',')[0]}: the forecast is not "
                        "finite, no line written")
    params, _ = cli.load_checkpoint(run.ckpt)
    ends = [31, 32, 33, 34, 67, 68, 69]
    out = out.splitlines()
    assert len(out) == len(ends)
    for line, end in zip(out, ends):
        vals = line.split(",")
        assert vals[0] == lines[end].split(",")[0]
        want = m.predict_grip(rec.wrench[end - 31 : end + 1], params)
        assert np.array_equal(np.array([float(v) for v in vals[1:]]), want)


def test_eval_non_finite_metrics_is_data_error_before_any_output(run, tmp_path):
    ckpt = overflowing_checkpoint(run, tmp_path / "big.json")
    out_dir = tmp_path / "eval"
    rc, out, err = run_in_process(["eval", "--model", str(ckpt), "--data", str(run.data),
                                   "--test-pairs", "3", "--out", str(out_dir)])
    assert rc == cli.EXIT_DATA, err
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith(f"error: checkpoint {ckpt} gives a non-finite ")
    assert not out_dir.exists()


@pytest.fixture(scope="module")
def hidden2(run):
    """A valid hidden-2 checkpoint document and a valid window for predict."""
    norm = cli.load_checkpoint(run.ckpt)[0].norm
    path = run.root / "hidden2.json"
    cli.save_checkpoint(path, replace(m.init_params(3, hidden=2), norm=norm), TrainConfig(hidden=2))
    rec = align_handover(load_recordings(run.data)[0])
    window = run.root / "hidden2_window.csv"
    make_window_csv(window, rec, int(np.argmin(np.abs(rec.t_ms))))
    return json.loads(path.read_text()), window


# Every weight array and every norm field, as a path into the checkpoint.
SCALED_FIELDS = ([("weights", name, "data") for name, _, _ in m.layout(2)]
                 + [("norm", key) for key in ("wrench_mean", "wrench_std", "grip_mean",
                                              "grip_std")])


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.sampled_from(SCALED_FIELDS),
                       st.tuples(st.sampled_from([1.0, -1.0]), st.integers(-300, 300))))
def test_checkpoint_fuzz_gives_finite_forecast_or_one_error(run, hidden2, scales):
    # Each chosen field is scaled by +-10^k; predict must exit 0 with finite
    # numbers only, or exit 2 with one error line, and never warn.
    doc, window = copy.deepcopy(hidden2[0]), hidden2[1]
    for (*outer, key), (sign, k) in scales.items():
        block = doc
        for name in outer:
            block = block[name]
        with np.errstate(over="ignore", under="ignore"):
            block[key] = (np.asarray(block[key]) * (sign * 10.0**k)).tolist()
    path = run.root / "fuzzed.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run_in_process(["predict", "--model", str(path), "--input", str(window)])
    assert "Warning" not in err and "Traceback" not in err
    if rc == cli.EXIT_OK:
        rows = out.splitlines()
        assert rows[0] == "t_ms,grip_N" and len(rows) == 71 and err == ""
        assert all(math.isfinite(float(v)) for row in rows[1:] for v in row.split(","))
    else:
        assert rc == cli.EXIT_DATA, err
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([10**400, -(10**400)])
    | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(st.sampled_from([f.name for f in fields(TrainConfig)]), JSON_VALUES))
def test_config_fuzz_gives_valid_config_or_data_error(run, doc):
    # The loader only: a random epochs value could train for hours.
    path = run.root / "fuzzed_config.json"
    path.write_text(json.dumps(doc))
    try:
        cfg = cli._load_train_config(str(path))
    except DataError:
        return
    cfg.validate()


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
        ticks = ("\n".join(ticks_for(rec, 40)) + "\n").encode()
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(ticks), encoding="utf-8"))
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
