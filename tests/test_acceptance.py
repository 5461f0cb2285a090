"""Release acceptance suite.

One test per release criterion. Each test prints a single verdict line of
the form ``CRITERION n (<name>): PASS|FAIL [measured numbers]`` to the real
stdout (visible even under pytest's capture) and then asserts, so a failing
criterion is both visible in the log and fails the suite.

The suite is self-contained: all data is synthesized in-process or via the
CLI with seeds frozen here. Expect a full run to take several minutes; the
end-to-end generalization criterion trains the full model for 100 epochs.
"""

import dataclasses
import io
import json
import math
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings, strategies as st

from gripforecast import cli
from gripforecast import model as m
from gripforecast.dataset import (
    HORIZON,
    align_handover,
    apply_norm,
    extract_samples,
    fit_norm_stats,
    load_recordings,
    normalize_grip,
    split_by_pair,
)
from gripforecast.numerics import Rng, derive_seed
from gripforecast.optim import TrainConfig, adam_step, AdamState, evaluate, train
from gripforecast.synthgen import generate_dataset


def _report(capsys, number: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():  # punch through pytest's fd-level capture
        print(f"\nCRITERION {number} ({name}): {verdict} [{detail}]", flush=True)


# ---------------------------------------------------------------------------
# Criterion 1 — gradient correctness


def _fd_worst_rel_err(seed: int, hidden: int, seq_len: int, eps: float) -> float:
    """Worst relative error between BPTT and central differences, one draw.

    Inputs are drawn at scale 0.1: central differences in float64 carry an
    absolute rounding floor of about ulp(loss)/(2*eps) ~ 1e-11, and at unit
    scale some true gradient entries sit close enough to that floor for the
    quotient to breach 1e-4 even though the analytic gradient is exact. At
    scale 0.1 every such entry falls under the 1e-8 denominator guard.
    """
    params = m.init_params(seed, hidden=hidden)
    rng = Rng(derive_seed(seed, 99))
    x = rng.normals(seq_len * 6, 0.0, 0.1).reshape(seq_len, 6)
    y = rng.normals(HORIZON, 0.0, 0.1)
    _, grads = m.backward_batch(x[:, None, :], y[None, :], params)
    grad_arrays = dict(m.named_arrays(grads))
    worst = 0.0
    for name, arr in m.named_arrays(params):
        analytic = grad_arrays[name].reshape(-1)
        flat = arr.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            yp, _ = m.forward_batch(x[:, None, :], params)
            loss_plus = float(np.mean((yp - y) ** 2))
            flat[i] = orig - eps
            ym, _ = m.forward_batch(x[:, None, :], params)
            loss_minus = float(np.mean((ym - y) ** 2))
            flat[i] = orig
            fd = (loss_plus - loss_minus) / (2.0 * eps)
            rel = abs(fd - analytic[i]) / max(abs(fd), abs(analytic[i]), 1e-8)
            worst = max(worst, rel)
    return worst


def test_criterion_1_gradient_correctness(capsys):
    t0 = time.time()
    worst = max(
        _fd_worst_rel_err(seed, hidden=8, seq_len=12, eps=1e-5) for seed in range(20)
    )
    elapsed = time.time() - t0
    ok = worst <= 1e-4 and elapsed < 60.0
    _report(
        capsys,
        1,
        "gradient correctness",
        ok,
        f"worst rel err {worst:.3e} <= 1e-4, {elapsed:.1f} s < 60 s",
    )
    assert worst <= 1e-4
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# Criterion 2 — Adam closed form


def test_criterion_2_adam_closed_form(capsys):
    params = m.init_params(0, hidden=1)
    for _, arr in m.named_arrays(params):
        arr[:] = 0.0
    grads = m.ModelParams(np.zeros_like(params.flat), params.hidden)
    dict(m.named_arrays(grads))["head_b"][:] = 1.0
    cfg = TrainConfig(hidden=1)
    state = AdamState.init_like(params)
    stepped, state = adam_step(params, grads, state, cfg)

    # By hand: t=1, m_hat = g, v_hat = g^2, step = -lr * g/(|g| + eps).
    expected = -cfg.learning_rate * 1.0 / (1.0 + cfg.adam_eps)
    got = float(dict(m.named_arrays(stepped))["head_b"][0])
    err = abs(got - expected)
    ok = err <= 1e-12
    _report(capsys, 2, "Adam closed form", ok, f"|got - hand value| = {err:.3e} <= 1e-12")
    assert err <= 1e-12


# ---------------------------------------------------------------------------
# Criterion 3 — protocol constants by brute-force enumeration


def _brute_grid(lo: float, hi: float, stride: float) -> list[float]:
    values = []
    v = hi
    while v >= lo - 1e-9:
        values.append(v)
        v -= stride
    if values[-1] != lo:
        values.append(lo)
    return values


def test_criterion_3_protocol_constants(capsys):
    t0 = time.time()
    records = [align_handover(r) for r in generate_dataset(10, 10, seed=3)]
    assert len(records) == 100

    te_grid = _brute_grid(-250.0, 0.0, 50.0)
    to_grid = _brute_grid(-1250.0, -260.0, 250.0)
    assert all(-250.0 <= t <= 0.0 for t in te_grid)
    assert all(-1250.0 <= t <= -260.0 for t in to_grid)

    checked = 0
    for rec in records:
        k0 = int(np.argmin(np.abs(rec.t_ms)))
        assert rec.t_ms[k0] == 0.0
        expected = []
        for t_e in te_grid:
            for t_o in to_grid:
                i_e = math.floor(0.12 * t_e + 0.5)
                length = math.floor(0.12 * (t_e - t_o) + 0.5) + 1
                i_lo = k0 + i_e - length + 1
                i_hi = k0 + i_e
                if i_lo < 0 or i_hi + HORIZON >= len(rec.t_ms):
                    continue
                expected.append((t_e, t_o, i_lo, i_hi))
        samples = extract_samples(rec)
        assert len(samples) == len(expected)
        for s, (t_e, t_o, i_lo, i_hi) in zip(samples, expected):
            assert s.t_e_ms == t_e and s.t_o_ms == t_o
            assert len(s.y) == 70  # 70 future steps at 120 Hz
            # X ends at i_hi and Y starts at i_hi + 1: contiguous at t_e
            assert np.array_equal(s.x, rec.wrench[i_lo : i_hi + 1])
            assert np.array_equal(s.y, rec.grip_giver[i_hi + 1 : i_hi + 1 + 70])
            checked += 1
    elapsed = time.time() - t0
    ok = elapsed < 10.0
    _report(
        capsys,
        3,
        "protocol constants",
        ok,
        f"{checked} windows on 100 records enumerated, {elapsed:.1f} s < 10 s",
    )
    assert checked == 100 * len(te_grid) * len(to_grid)
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# Criterion 4 — overfit capacity


def test_criterion_4_overfit_capacity(capsys):
    t0 = time.time()
    records = [align_handover(r) for r in generate_dataset(1, 1, seed=0)]
    samples = [s for r in records for s in extract_samples(r)][:20]
    assert len(samples) == 20
    norm = fit_norm_stats(samples)
    normed = [apply_norm(s, norm) for s in samples]
    cfg = TrainConfig(learning_rate=5e-4, hidden=40, epochs=500, seed=0)
    _, hist = train(normed, normed, cfg, norm)
    final_mse = hist.test[-1]  # loss of the final parameters on all 20
    elapsed = time.time() - t0
    ok = final_mse <= 1e-3 and elapsed < 300.0
    _report(
        capsys,
        4,
        "overfit capacity",
        ok,
        f"train MSE {final_mse:.2e} <= 1e-3 after 500 epochs, {elapsed:.0f} s < 300 s",
    )
    assert final_mse <= 1e-3
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# Criterion 5 — end-to-end generalization on a pair-disjoint split


def test_criterion_5_end_to_end_generalization(capsys):
    t0 = time.time()
    records = [align_handover(r) for r in generate_dataset(13, 10, seed=7)]
    train_recs, test_recs = split_by_pair(records, {"12", "13"})
    train_samples = [s for r in train_recs for s in extract_samples(r)]
    test_samples = [s for r in test_recs for s in extract_samples(r)]
    norm = fit_norm_stats(train_samples)

    cfg = TrainConfig(
        learning_rate=5e-4, batch_size=30, epochs=100, hidden=40, seed=0
    )
    params, _ = train(
        [apply_norm(s, norm) for s in train_samples],
        [apply_norm(s, norm) for s in test_samples],
        cfg,
        norm,
    )
    metrics = evaluate(params, test_samples)

    # Baseline: the mean normalized training trajectory, scored on test.
    train_y = np.stack([normalize_grip(s.y, norm) for s in train_samples])
    baseline = train_y.mean(axis=0)
    test_y = np.stack([normalize_grip(s.y, norm) for s in test_samples])
    baseline_mse = float(np.mean((test_y - baseline) ** 2))
    ratio = metrics.mse_norm / baseline_mse

    finals = [
        abs(float(predicted[-1]))
        for predicted, s in zip(metrics.predicted_N, test_samples)
        if s.t_e_ms == 0.0
    ]
    frac = float(np.mean([f <= 0.5 for f in finals]))
    elapsed = time.time() - t0

    ok = ratio < 0.5 and frac >= 0.9 and elapsed < 1800.0
    _report(
        capsys,
        5,
        "end-to-end generalization",
        ok,
        f"test/baseline MSE ratio {ratio:.3f} < 0.5; "
        f"{frac:.0%} of t_e=0 finals <= 0.5 N (need >= 90%); "
        f"{elapsed / 60.0:.1f} min < 30 min",
    )
    assert ratio < 0.5
    assert frac >= 0.9
    assert elapsed < 1800.0


# ---------------------------------------------------------------------------
# Criterion 6 — byte-identical training runs


def _train_cli(tmp_path, tag: str, env) -> SimpleNamespace:
    data = tmp_path / "data.csv"
    if not data.exists():
        rc = cli.main(
            ["synth", "--pairs", "3", "--per-pair", "2", "--seed", "5", "--out", str(data)]
        )
        assert rc == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 2, "hidden": 6, "batch_size": 16, "seed": 5}))
    out = tmp_path / tag
    proc = subprocess.run(
        [
            sys.executable, "-m", "gripforecast", "train",
            "--data", str(data),
            "--test-pairs", "3",
            "--config", str(tmp_path / "cfg.json"),
            "--out", str(out),
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return SimpleNamespace(ckpt=out / "checkpoint.json", loss=out / "loss_history.csv")


def test_criterion_6_training_determinism(tmp_path, cli_env, capsys):
    run_a = _train_cli(tmp_path, "a", cli_env)
    run_b = _train_cli(tmp_path, "b", cli_env)
    same_ckpt = run_a.ckpt.read_bytes() == run_b.ckpt.read_bytes()
    same_loss = run_a.loss.read_bytes() == run_b.loss.read_bytes()
    ok = same_ckpt and same_loss
    _report(
        capsys,
        6,
        "training determinism",
        ok,
        f"checkpoint identical: {same_ckpt}; loss history identical: {same_loss}",
    )
    assert same_ckpt and same_loss


# ---------------------------------------------------------------------------
# Criterion 7 — online/offline equivalence


def test_criterion_7_online_offline_equivalence(tmp_path, monkeypatch, capsys):
    # small but real checkpoint
    data = tmp_path / "data.csv"
    assert cli.main(["synth", "--pairs", "2", "--per-pair", "1", "--seed", "2", "--out", str(data)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 1, "hidden": 6, "batch_size": 16, "seed": 1}))
    model_dir = tmp_path / "model"
    assert (
        cli.main(
            [
                "train",
                "--data", str(data),
                "--test-pairs", "2",
                "--config", str(cfg),
                "--out", str(model_dir),
            ]
        )
        == 0
    )
    ckpt = model_dir / "checkpoint.json"

    rec = align_handover(load_recordings(data)[0])
    n_ticks = 50
    tick_lines = []
    for i in range(n_ticks):
        cells = [repr(float(rec.t_ms[i]))] + [repr(float(v)) for v in rec.wrench[i]]
        tick_lines.append(",".join(cells))

    out_buf = io.StringIO()
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(tick_lines) + "\n"))
    monkeypatch.setattr("sys.stdout", out_buf)
    rc = cli.main(["stream", "--model", str(ckpt)])
    monkeypatch.undo()
    assert rc == 0
    stream_lines = out_buf.getvalue().strip().splitlines()
    assert len(stream_lines) == n_ticks - 31

    mismatches = 0
    for j, line in enumerate(stream_lines):
        end = 31 + j
        window = tmp_path / "window.csv"
        rows = ["t_ms,fx_N,fy_N,fz_N,tx_Nm,ty_Nm,tz_Nm"] + tick_lines[end - 31 : end + 1]
        window.write_text("\n".join(rows) + "\n")
        forecast = tmp_path / "forecast.csv"
        assert (
            cli.main(
                ["predict", "--model", str(ckpt), "--input", str(window), "--out", str(forecast)]
            )
            == 0
        )
        predicted = [
            row.split(",")[1] for row in forecast.read_text().strip().splitlines()[1:]
        ]
        if line.split(",")[1:] != predicted:  # formatted decimal strings
            mismatches += 1
    ok = mismatches == 0
    _report(
        capsys,
        7,
        "online/offline equivalence",
        ok,
        f"{len(stream_lines)} stream lines vs predict windows, {mismatches} mismatches",
    )
    assert mismatches == 0


# ---------------------------------------------------------------------------
# Criterion 8 — split hygiene


def test_criterion_8_split_hygiene(capsys):
    records = [align_handover(r) for r in generate_dataset(5, 1, seed=11)]

    @settings(deadline=None, max_examples=40)
    @given(
        test_pairs=st.sets(
            st.sampled_from(["1", "2", "3", "4", "5"]), min_size=1, max_size=4
        )
    )
    def prop(test_pairs):
        train_recs, test_recs = split_by_pair(records, test_pairs)

        train_ids = {r.pair_id for r in train_recs}
        test_ids = {r.pair_id for r in test_recs}
        assert not (train_ids & test_ids)
        assert len(train_recs) + len(test_recs) == len(records)
        assert test_ids == set(test_pairs)

        # Normalization statistics must not move when the test side
        # changes: corrupt every test-side record wildly, re-split, re-fit.
        stats = fit_norm_stats([s for r in train_recs for s in extract_samples(r)])
        corrupted = [
            dataclasses.replace(
                r,
                wrench=r.wrench * 1000.0 + 5.0,
                grip_giver=r.grip_giver * -50.0,
                grip_taker=r.grip_taker + 99.0,
            )
            if r.pair_id in test_pairs
            else r
            for r in records
        ]
        train2, _ = split_by_pair(corrupted, test_pairs)
        stats2 = fit_norm_stats([s for r in train2 for s in extract_samples(r)])
        assert np.array_equal(stats.wrench_mean, stats2.wrench_mean)
        assert np.array_equal(stats.wrench_std, stats2.wrench_std)
        assert stats.grip_mean == stats2.grip_mean
        assert stats.grip_std == stats2.grip_std

    ok = False
    try:
        prop()
        ok = True
    finally:
        _report(
            capsys,
            8,
            "split hygiene",
            ok,
            "pair sets disjoint and stats train-only over sampled assignments",
        )
