"""Tests for Adam, the batching scheme, the training loop, and evaluation."""

from dataclasses import replace

import numpy as np
import pytest

from gripforecast import model as m
from gripforecast import optim
from gripforecast.dataset import (
    NormStats,
    SamplingPolicy,
    TrainingSample,
    align_handover,
    apply_norm,
    denormalize_grip,
    extract_samples,
    fit_norm_stats,
    normalize_wrench,
    split_by_pair,
)
from gripforecast.errors import ContractViolation
from gripforecast.numerics import Rng
from gripforecast.optim import AdamState, TrainConfig, adam_step, batch_indices, train
from gripforecast.synthgen import generate_dataset
from lstm_reference import (bucketed_forecasts, reference_adam_step, reference_backward_batch,
                            reference_clip, unhoisted_layer_backward)


def scalar_model(theta: float) -> m.ModelParams:
    """1-hidden-unit model whose head bias holds the scalar under test."""
    p = m.init_params(0, hidden=1)
    for _, arr in m.named_arrays(p):
        arr[:] = 0.0
    p.head_b[:] = theta
    return p


def zero_grads(p: m.ModelParams) -> m.ModelParams:
    return m.ModelParams(np.zeros_like(p.flat), p.hidden)


def grads_like(p: m.ModelParams, value: float) -> m.ModelParams:
    g = zero_grads(p)
    for _, arr in m.named_arrays(g):
        arr[:] = value
    return g


def make_samples(n, T=32, seed=0, grip_scale=5.0):
    rng = Rng(seed)
    out = []
    for k in range(n):
        x = rng.normals(T * 6, 0.0, 1.0).reshape(T, 6)
        y = rng.normals(70, grip_scale, 1.0)
        out.append(
            TrainingSample(
                pair_id=str(k % 3 + 1),
                handover_id=str(k),
                t_o_ms=-260.0,
                t_e_ms=0.0,
                x=x,
                y=y,
            )
        )
    return out


def unit_norm():
    return NormStats(
        wrench_mean=np.zeros(6), wrench_std=np.ones(6), grip_mean=0.0, grip_std=1.0
    )


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradient_is_identity():
    p = m.init_params(1, hidden=3)
    state = AdamState.init_like(p)
    q, state2 = adam_step(p, zero_grads(p), state, TrainConfig())
    for (_, a), (_, b) in zip(m.named_arrays(p), m.named_arrays(q)):
        assert np.array_equal(a, b)
    assert state2.t == 1


def test_adam_scalar_closed_form():
    # theta = 0, g = 1, defaults: m = 0.1, v = 0.001, m_hat = 1, v_hat = 1,
    # delta = -lr / (1 + eps) = -5e-4 / (1 + 1e-8).
    p = scalar_model(0.0)
    state = AdamState.init_like(p)
    cfg = TrainConfig()
    q, state2 = adam_step(p, grads_like(p, 1.0), state, cfg)
    expected = -5e-4 / (1.0 + 1e-8)
    assert abs(float(q.head_b[0]) - expected) < 1e-12
    assert state2.m[-1] == pytest.approx(0.1, abs=1e-15)  # head_b ends the vector
    assert state2.v[-1] == pytest.approx(0.001, abs=1e-15)


def test_adam_two_steps_closed_form():
    # Second step with the same unit gradient: m = 0.19, v = 0.001999,
    # m_hat = m / (1 - 0.9^2), v_hat = v / (1 - 0.999^2).
    p = scalar_model(0.0)
    cfg = TrainConfig()
    state = AdamState.init_like(p)
    p, state = adam_step(p, grads_like(p, 1.0), state, cfg)
    p, state = adam_step(p, grads_like(p, 1.0), state, cfg)
    m2 = 0.9 * 0.1 + 0.1
    v2 = 0.999 * 0.001 + 0.001
    m_hat = m2 / (1 - 0.9**2)
    v_hat = v2 / (1 - 0.999**2)
    expected = -5e-4 / (1.0 + 1e-8) - 5e-4 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert abs(float(p.head_b[0]) - expected) < 1e-12


def test_adam_is_pure():
    p = m.init_params(2, hidden=3)
    g = grads_like(p, 0.5)
    state = AdamState.init_like(p)
    before = [arr.copy() for _, arr in m.named_arrays(p)]
    q1, s1 = adam_step(p, g, state, TrainConfig())
    q2, s2 = adam_step(p, g, state, TrainConfig())
    for (_, arr), orig in zip(m.named_arrays(p), before):
        assert np.array_equal(arr, orig)  # inputs untouched
    assert state.t == 0
    for (_, a), (_, b) in zip(m.named_arrays(q1), m.named_arrays(q2)):
        assert np.array_equal(a, b)  # identical results
    assert s1.t == s2.t == 1


def test_adam_shape_mismatch_rejected():
    p = m.init_params(0, hidden=3)
    g = zero_grads(m.init_params(0, hidden=4))
    with pytest.raises(ContractViolation, match="shape"):
        adam_step(p, g, AdamState.init_like(p), TrainConfig())


def random_grads(p: m.ModelParams, seed: int) -> m.ModelParams:
    return m.ModelParams(Rng(seed).normals(p.flat.size, 0.0, 1.0), p.hidden)


def flatten(arrays: dict[str, np.ndarray]) -> np.ndarray:
    """Name-keyed arrays back into one vector, in named_arrays order."""
    return np.concatenate([arr.reshape(-1) for arr in arrays.values()])


def test_adam_matches_per_name_oracle_bit_for_bit():
    # Adam is element-wise, so the flat-vector step must give the same bits
    # as the array-by-array reference, weights and moments alike.
    p = m.init_params(6, hidden=5)
    cfg = TrainConfig(learning_rate=1e-2)
    state = AdamState.init_like(p)
    arrays = {name: arr.copy() for name, arr in m.named_arrays(p)}
    m_ref = {name: np.zeros_like(arr) for name, arr in arrays.items()}
    v_ref = {name: np.zeros_like(arr) for name, arr in arrays.items()}
    for t in range(1, 6):
        g = random_grads(p, t)
        p, state = adam_step(p, g, state, cfg)
        arrays, m_ref, v_ref = reference_adam_step(
            arrays, dict(m.named_arrays(g)), m_ref, v_ref, t, cfg)
        assert state.t == t
        assert np.array_equal(p.flat, flatten(arrays))
        assert np.array_equal(state.m, flatten(m_ref))
        assert np.array_equal(state.v, flatten(v_ref))


def test_clipped_adam_matches_per_name_oracle():
    # Only the norm's summation order differs from the per-array clip.
    p = m.init_params(7, hidden=5)
    cfg = TrainConfig(learning_rate=1e-2, clip_threshold=0.5)
    state = AdamState.init_like(p)
    arrays = {name: arr.copy() for name, arr in m.named_arrays(p)}
    m_ref = {name: np.zeros_like(arr) for name, arr in arrays.items()}
    v_ref = {name: np.zeros_like(arr) for name, arr in arrays.items()}
    for t in range(1, 6):
        g = random_grads(p, 10 + t)
        clipped = optim.clip_gradients(g, cfg.clip_threshold)
        want = reference_clip(dict(m.named_arrays(g)), cfg.clip_threshold)
        for name, arr in m.named_arrays(clipped):
            assert np.max(np.abs(arr - want[name])) <= 1e-12 * np.max(np.abs(want[name]))
        p, state = adam_step(p, clipped, state, cfg)
        arrays, m_ref, v_ref = reference_adam_step(arrays, want, m_ref, v_ref, t, cfg)
        for name, arr in m.named_arrays(p):
            assert np.max(np.abs(arr - arrays[name])) <= 1e-12 * np.max(np.abs(arrays[name]))


def test_train_config_validation():
    TrainConfig().validate()
    TrainConfig(learning_rate=1, clip_threshold=2).validate()  # ints are numbers
    with pytest.raises(ContractViolation):
        TrainConfig(epochs=0).validate()
    with pytest.raises(ContractViolation):
        TrainConfig(learning_rate=0.0).validate()
    with pytest.raises(ContractViolation):
        TrainConfig(batch_size=0).validate()
    with pytest.raises(ContractViolation):
        TrainConfig(adam_beta1=1.0).validate()


@pytest.mark.parametrize("field,value", [
    ("epochs", "10"), ("epochs", 2.5), ("batch_size", True), ("seed", None),
    ("hidden", 40.0), ("learning_rate", True), ("learning_rate", "5e-4"),
    ("learning_rate", float("nan")), ("adam_eps", float("inf")), ("adam_beta1", None),
    ("clip_threshold", "1"), ("clip_threshold", False),
    pytest.param("learning_rate", 10**400, id="learning_rate-int_beyond_float"),
])
def test_train_config_rejects_wrong_types(field, value):
    with pytest.raises(ContractViolation, match=field):
        replace(TrainConfig(), **{field: value}).validate()


# ---------------------------------------------------------------------------
# batching


def families(spec):
    """root_of and lengths of windows grouped under roots given as
    (root length, window count): each root is followed by its shorter windows."""
    root_of, lengths = [], []
    for length, count in spec:
        root_of += [len(root_of)] * count
        lengths += [length - k for k in range(count)]
    return root_of, lengths


# Roots of 32, 62 and 121 steps holding 1 to 7 windows; the 7-window roots do
# not fit in one batch of 3 or 4.
FAMILIES = [(32, 6), (62, 2), (32, 1), (121, 7), (62, 6), (32, 3), (121, 2), (62, 4),
            (32, 6), (121, 1)]


def test_batch_indices_cover_every_sample_once():
    root_of, lengths = families(FAMILIES)
    for batch_size in (1, 3, 4, 6, 30):
        batches = batch_indices(root_of, lengths, batch_size, Rng(0))
        assert sorted(i for b in batches for i in b) == list(range(len(root_of)))
        assert all(1 <= len(b) <= batch_size for b in batches)
        # A root that fits in one batch is never split.
        for root in set(root_of):
            members = [i for i, r in enumerate(root_of) if r == root]
            if len(members) <= batch_size:
                assert any(set(members) <= set(b) for b in batches)


def test_batch_indices_never_mix_lengths():
    root_of, lengths = families(FAMILIES)
    for batch_size in (3, 4, 30):
        for b in batch_indices(root_of, lengths, batch_size, Rng(1)):
            assert len({lengths[root_of[i]] for i in b}) == 1


def test_batch_indices_deterministic_in_seed():
    root_of, lengths = families(FAMILIES)
    a = batch_indices(root_of, lengths, 4, Rng(5))
    b = batch_indices(root_of, lengths, 4, Rng(5))
    c = batch_indices(root_of, lengths, 4, Rng(6))
    assert a == b
    assert {frozenset(batch) for batch in a} != {frozenset(batch) for batch in c}  # roots regroup


# ---------------------------------------------------------------------------
# training loop


def test_train_epochs_one_batch_full_runs_one_adam_step(monkeypatch):
    samples = make_samples(6)
    calls = {"n": 0}
    real = optim.adam_step

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(optim, "adam_step", counting)
    cfg = TrainConfig(epochs=1, batch_size=6, hidden=4, seed=0)
    train(samples, [], cfg, unit_norm())
    assert calls["n"] == 1


def test_train_empty_training_set_rejected():
    with pytest.raises(ContractViolation, match="empty"):
        train([], [], TrainConfig(), unit_norm())


def test_train_deterministic():
    samples = make_samples(8)
    cfg = TrainConfig(epochs=3, batch_size=4, hidden=4, seed=9)
    p1, h1 = train(samples, samples[:2], cfg, unit_norm())
    p2, h2 = train(samples, samples[:2], cfg, unit_norm())
    assert h1.train == h2.train and h1.test == h2.test
    for (_, a), (_, b) in zip(m.named_arrays(p1), m.named_arrays(p2)):
        assert np.array_equal(a, b)


def test_train_matches_unhoisted_bptt_bit_for_bit(monkeypatch):
    # One hidden-40 epoch over two handovers of each of three pairs, then
    # the same with the unhoisted BPTT loop: every weight and loss agrees.
    records = [align_handover(r) for r in generate_dataset(3, 2, 5)]
    train_recs, test_recs = split_by_pair(records, {"3"})
    raw = [s for r in train_recs for s in extract_samples(r)]
    norm = fit_norm_stats(raw)
    train_s = [apply_norm(s, norm) for s in raw]
    test_s = [apply_norm(s, norm) for r in test_recs for s in extract_samples(r)]
    cfg = TrainConfig(epochs=1, hidden=40)
    p, hist = train(train_s, test_s, cfg, norm)
    monkeypatch.setattr(m, "_layer_backward", unhoisted_layer_backward)
    ref_p, ref_hist = train(train_s, test_s, cfg, norm)
    assert p.flat.tobytes() == ref_p.flat.tobytes()
    assert np.array([hist.train, hist.test]).tobytes() == (
        np.array([ref_hist.train, ref_hist.test]).tobytes())


def test_train_history_lengths_equal_epochs():
    samples = make_samples(5)
    cfg = TrainConfig(epochs=4, batch_size=5, hidden=3, seed=1)
    _, hist = train(samples, samples[:1], cfg, unit_norm())
    assert len(hist.train) == 4 and len(hist.test) == 4


def test_train_loss_decreases_on_tiny_overfit():
    # 4 samples, a few hundred steps: loss must drop by a lot. The full
    # 500-epoch capacity check lives in the acceptance suite.
    raw = make_samples(4, seed=3)
    norm = fit_norm_stats(raw)
    samples = [apply_norm(s, norm) for s in raw]
    cfg = TrainConfig(epochs=200, batch_size=4, hidden=8, seed=2, learning_rate=0.01)
    _, hist = train(samples, [], cfg, norm)
    assert hist.train[-1] < 0.25 * hist.train[0]


def test_gradient_clipping_rescales_to_threshold():
    p = m.init_params(0, hidden=3)
    g = grads_like(p, 1.0)
    total = sum(arr.size for _, arr in m.named_arrays(g))
    clipped = optim.clip_gradients(g, 1.0)
    norm = np.sqrt(sum(float(np.sum(a * a)) for _, a in m.named_arrays(clipped)))
    assert norm == pytest.approx(1.0, rel=1e-12)
    # direction preserved
    assert np.allclose(
        clipped.head_b / np.linalg.norm(clipped.head_b),
        g.head_b / np.linalg.norm(g.head_b),
    )
    # under-threshold gradients pass through untouched
    small = grads_like(p, 1e-6)
    assert optim.clip_gradients(small, 1.0) is small
    assert total > 0


def test_train_with_clipping_hands_adam_clipped_gradients(monkeypatch):
    samples = make_samples(8)
    real = optim.adam_step

    def run(threshold):
        norms = []

        def recording(params, grads, state, cfg):
            norms.append(float(np.sqrt(np.dot(grads.flat, grads.flat))))
            return real(params, grads, state, cfg)

        monkeypatch.setattr(optim, "adam_step", recording)
        cfg = TrainConfig(epochs=3, batch_size=4, hidden=4, seed=9, clip_threshold=threshold)
        params, hist = train(samples, samples[:2], cfg, unit_norm())
        return norms, params.flat.tobytes() + np.array([hist.train, hist.test]).tobytes()

    raw, unclipped = run(None)
    threshold = 0.5 * float(np.median(raw))
    norms, _ = run(threshold)
    assert all(n <= threshold * (1 + 1e-12) for n in norms)
    assert any(n >= threshold * (1 - 1e-12) for n in norms)  # scaled down to the threshold
    _, loose = run(2.0 * max(raw))
    assert loose == unclipped


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_perfect_predictor_all_zero():
    raw = make_samples(3, seed=5)
    norm = fit_norm_stats(raw)
    params = replace(m.init_params(0, hidden=4), norm=norm)

    # Test double: make the head reproduce each sample exactly is impossible
    # for one affine map, so instead feed targets equal to predictions.
    doctored = []
    for s in raw:
        pred = m.predict_grip(s.x, params)
        doctored.append(
            TrainingSample(
                pair_id=s.pair_id,
                handover_id=s.handover_id,
                t_o_ms=s.t_o_ms,
                t_e_ms=s.t_e_ms,
                x=s.x,
                y=pred,
            )
        )
    metrics = optim.evaluate(params, doctored)
    assert metrics.mse_norm == pytest.approx(0.0, abs=1e-18)
    assert metrics.mse_N2 == pytest.approx(0.0, abs=1e-18)
    assert metrics.final_step_mae_N == pytest.approx(0.0, abs=1e-12)
    assert metrics.n_samples == 3


def test_evaluate_metrics_match_brute_force_recomputation():
    raw = make_samples(6, seed=8)
    norm = fit_norm_stats(raw)
    params = replace(m.init_params(3, hidden=5), norm=norm)
    metrics = optim.evaluate(params, raw)

    assert len(metrics.predicted_N) == 6
    pairs = list(zip(metrics.predicted_N, raw, strict=True))
    mse_n2 = np.mean([np.mean((pred - s.y) ** 2) for pred, s in pairs])
    mae = np.mean([abs(pred[-1] - s.y[-1]) for pred, s in pairs])
    mse_norm = np.mean([np.mean(((pred - s.y) / norm.grip_std) ** 2) for pred, s in pairs])
    assert metrics.mse_N2 == pytest.approx(mse_n2, rel=1e-12)
    assert metrics.final_step_mae_N == pytest.approx(mae, rel=1e-12)
    assert metrics.mse_norm == pytest.approx(mse_norm, rel=1e-12)


def test_evaluate_preserves_input_order():
    raw = make_samples(5, seed=9)
    # scramble lengths so bucketing would reorder if not restored
    raw[1] = TrainingSample(
        pair_id=raw[1].pair_id,
        handover_id=raw[1].handover_id,
        t_o_ms=-510.0,
        t_e_ms=0.0,
        x=np.tile(raw[1].x, (2, 1))[:62],
        y=raw[1].y,
    )
    norm = fit_norm_stats(raw)
    params = replace(m.init_params(0, hidden=4), norm=norm)
    metrics = optim.evaluate(params, raw)
    # Row i is sample i's forecast: the one evaluate gives for it alone.
    alone = np.stack([optim.evaluate(params, [s]).predicted_N[0] for s in raw])
    assert np.max(np.abs(metrics.predicted_N - alone)) <= 1e-12 * np.max(np.abs(alone))


def test_evaluate_empty_rejected():
    params = replace(m.init_params(0, hidden=3), norm=unit_norm())
    with pytest.raises(ContractViolation):
        optim.evaluate(params, [])
    with pytest.raises(ContractViolation, match="no normalization stats"):
        optim.evaluate(m.init_params(0, hidden=3), make_samples(1, seed=0))


def test_evaluate_on_overfit_training_data_equals_train_loss():
    raw = make_samples(4, seed=11)
    norm = fit_norm_stats(raw)
    samples = [apply_norm(s, norm) for s in raw]
    cfg = TrainConfig(epochs=30, batch_size=4, hidden=6, seed=4)
    params, hist = train(samples, samples, cfg, norm)
    metrics = optim.evaluate(params, raw)
    # history's test entry is computed after the epoch's updates, same as a
    # fresh evaluate on the same (training) data
    assert metrics.mse_norm == pytest.approx(hist.test[-1], abs=1e-9)


def test_last_test_loss_is_evaluate_mse_norm_exactly():
    # The per-epoch test loss and evaluate's mse_norm are one formula over the
    # same forecasts, so after training they agree to the last bit.
    records = [align_handover(r) for r in generate_dataset(2, 2, 3)]
    raw = {pair: [s for r in records if r.pair_id == pair for s in extract_samples(r)]
           for pair in ("1", "2")}
    norm = fit_norm_stats(raw["1"])
    cfg = TrainConfig(epochs=2, batch_size=8, hidden=4, seed=3)
    params, hist = train([apply_norm(s, norm) for s in raw["1"]],
                         [apply_norm(s, norm) for s in raw["2"]], cfg, norm)
    assert hist.test[-1] == optim.evaluate(params, raw["2"]).mse_norm


# ---------------------------------------------------------------------------
# shared prefixes: training batches, evaluate and the per-epoch test loss


@pytest.fixture(scope="module")
def handovers():
    """Default-policy windows (30 each) of two synthetic handovers, and a model."""
    records = [align_handover(r) for r in generate_dataset(1, 2, 3)]
    raw = [s for r in records for s in extract_samples(r)]
    params = replace(m.init_params(1, hidden=6), norm=fit_norm_stats(raw))
    return raw, params


# t_o every 4 ms, under the 8.33 ms sample period: the 11 t_o values of each
# handover start on 6 distinct steps, so windows of different t_o share roots.
FINE_T_O = SamplingPolicy(t_o_ms=tuple(-260.0 - 4.0 * k for k in range(11)))


def _fine_t_o_grid(raw):
    records = [align_handover(r) for r in generate_dataset(1, 2, 3)]
    return [s for r in records for s in extract_samples(r, FINE_T_O)]


SAMPLE_LISTS = {
    "default_policy": lambda raw: raw,
    "shuffled": lambda raw: [raw[i] for i in Rng(4).permutation(len(raw))],
    "longest_missing": lambda raw: [s for s in raw if not (
        s.t_e_ms == 0.0 and s.handover_id == raw[0].handover_id)],
    "fine_t_o_grid": _fine_t_o_grid,
    "duplicates": lambda raw: raw + raw[:7],
    "single": lambda raw: [raw[10]],
}


@pytest.mark.parametrize("case", sorted(SAMPLE_LISTS))
def test_forward_passes_match_per_length_reference(handovers, case):
    raw, params = handovers
    samples = SAMPLE_LISTS[case](raw)
    norm = params.norm
    ref = bucketed_forecasts([normalize_wrench(s.x, norm) for s in samples], params)

    metrics = optim.evaluate(params, samples)
    assert metrics.predicted_N.shape == (len(samples), 70)
    got = metrics.predicted_N
    want = denormalize_grip(ref, norm)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    normed = [apply_norm(s, norm) for s in samples]
    ys = np.stack([s.y for s in normed])
    ref_loss = float(np.mean(np.mean((ref - ys) ** 2, axis=1)))
    assert optim._test_loss(normed)(params) == pytest.approx(ref_loss, rel=1e-12, abs=0.0)
    assert metrics.mse_norm == pytest.approx(ref_loss, rel=1e-12, abs=0.0)


def test_one_handover_runs_459_recurrent_steps(handovers, monkeypatch):
    # Default policy: 30 windows, 5 t_o values x 6 t_e values. The five t_e=0
    # windows (32, 62, 92, 122 and 151 steps) hold the other 25 as prefixes,
    # and run as the columns of one packed pass of 151 steps.
    raw, params = handovers
    one = [s for s in raw if s.handover_id == raw[0].handover_id]
    assert len(one) == 30 and sum(len(s.x) for s in one) == 2304
    calls = []
    real = m.forward_batch

    def counting(xs, p, ends):
        lengths = [1 + max(t for t, c in zip(*ends) if c == col) for col in range(xs.shape[1])]
        calls.append((xs.shape[0], lengths))
        return real(xs, p, ends)

    monkeypatch.setattr(m, "forward_batch", counting)
    optim.evaluate(params, one)
    assert calls == [(151, [151, 122, 92, 62, 32])] and sum(calls[0][1]) == 459
    calls.clear()
    optim._test_loss([apply_norm(s, params.norm) for s in one])(params)
    assert calls == [(151, [151, 122, 92, 62, 32])]


def test_fine_t_o_grid_shares_roots_across_t_o(handovers, monkeypatch):
    # Windows that start on one step are prefixes of one root whatever their
    # t_o, so evaluate runs fewer columns than there are (handover, t_o) groups.
    raw, params = handovers
    samples = _fine_t_o_grid(raw)
    groups = {(s.pair_id, s.handover_id, s.t_o_ms) for s in samples}
    assert len(samples) == 132 and len(groups) == 22
    columns = []
    real = m.forward_batch

    def counting(xs, p, ends):
        columns.append(xs.shape[1])
        return real(xs, p, ends)

    monkeypatch.setattr(m, "forward_batch", counting)
    optim.evaluate(params, samples)
    assert columns == [12]


@pytest.mark.parametrize("case", sorted(SAMPLE_LISTS))
def test_root_batches_match_per_window_reference(handovers, case):
    # Every batch train runs: one pass over its distinct roots must give the
    # mean loss and gradient of its windows, each run alone through the
    # reference BPTT. Batches of 4 split every 6-window family, so a root
    # also runs for only some of its windows.
    raw, params = handovers
    samples = [apply_norm(s, params.norm) for s in SAMPLE_LISTS[case](raw)]
    root_of = optim._root_of(samples)
    lengths = [len(s.x) for s in samples]
    batches = batch_indices(root_of, lengths, 4, Rng(3))
    assert sorted(i for b in batches for i in b) == list(range(len(samples)))
    for idxs in batches:
        xs, ends = optim._root_batch(samples, root_of, idxs)
        assert xs.shape[1] == len(set(root_of[i] for i in idxs))
        loss, grads = m.backward_batch(xs, np.stack([samples[i].y for i in idxs]), params, ends)
        per = [reference_backward_batch(samples[i].x[:, None], samples[i].y[None], params)
               for i in idxs]
        assert loss == pytest.approx(np.mean([ref for ref, _ in per]), rel=1e-12, abs=0.0)
        want = np.mean([g.flat for _, g in per], axis=0)
        for (name, got), (_, ref) in zip(m.named_arrays(grads),
                                         m.named_arrays(m.ModelParams(want, params.hidden))):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), name


def test_reference_epoch_runs_110_root_batches(monkeypatch):
    # The reference split (seed 7, pairs 12 and 13 held out): 3,300 training
    # windows of 253,440 steps under 550 roots of 50,490 steps, five roots of
    # one length per batch of 30 windows.
    records = [align_handover(r) for r in generate_dataset(13, 10, 7)]
    train_recs, _ = split_by_pair(records, {"12", "13"})
    raw = [s for r in train_recs for s in extract_samples(r)]
    assert len(raw) == 3300 and sum(len(s.x) for s in raw) == 253_440
    norm = fit_norm_stats(raw)
    shapes = []
    real = m.backward_batch

    def counting(xs, ys, p, ends):
        shapes.append(xs.shape[:2])
        return real(xs, ys, p, ends)

    monkeypatch.setattr(m, "backward_batch", counting)
    train([apply_norm(s, norm) for s in raw], [], TrainConfig(epochs=1, hidden=4), norm)
    assert len(shapes) == 110 and {b for _, b in shapes} == {5}
    assert sum(t * b for t, b in shapes) == 50_490
